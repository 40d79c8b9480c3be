/**
 * @file
 * Set-associative LRU caches and the two-level hierarchy used by the
 * core model (L1I + L1D backed by a unified L2, then main memory).
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "arch/microarch_config.hh"

namespace acdse
{

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit;           //!< whether the line was present
    bool writebackDirty; //!< whether a dirty victim was evicted
};

/**
 * One set-associative write-back cache with true-LRU replacement over
 * the simulated machine's 32-bit addresses.
 *
 * Each set is one block of 32-bit words: a header word holding the
 * set's epoch in its low 16 bits, its valid mask in bits 16-23 and its
 * dirty mask in bits 24-31; then one word of per-way recency ages
 * (nibble w is way w's age, 0 the most recent; the ages of a set are a
 * permutation of 0..assoc-1, unused lanes held at 7); then the tags of
 * its ways -- 40 bytes for an 8-way set, 24 for a 4-way and 16 for a
 * 2-way one. A touch of the way of age a ages every way younger than
 * a by one and makes it age 0; the victim of a miss is the way of age
 * assoc-1. Ways are only ever invalidated all at once, so the invalid
 * ways of a set are always its oldest: a set entering an epoch starts
 * with way w at age w, and it fills its highest-index invalid way
 * first.
 *
 * Validity is epoch-based: a set whose epoch is not the cache's
 * current one is empty, so reset() and reconfigure() empty every set
 * in O(1) by advancing the epoch, and the first access to a set in a
 * new epoch clears its masks and restarts its ages. Value-initialised
 * blocks carry epoch 0, which is never current (epoch_ starts at 1),
 * so freshly grown storage is empty without touching it. The epoch
 * field is 16 bits wide, so every 65,535th reset wraps it and clears
 * the whole storage instead.
 */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity (power of two).
     * @param assoc     associativity (at most kMaxAssoc).
     * @param lineBytes line size (power of two).
     */
    Cache(int sizeBytes, int assoc, int lineBytes);

    /**
     * Re-shape this cache for a new geometry, invalidating all
     * contents and statistics. Equivalent to constructing a fresh
     * Cache but reuses the set storage -- the replay engine
     * (sim/batch.hh) recycles one Cache per worker across thousands of
     * simulations, and re-allocating + zeroing a large L2 per
     * simulation would dominate short campaign runs. Storage only
     * ever grows: sets beyond a smaller geometry keep their stale
     * epochs, so they are still empty when a larger geometry reaches
     * them again. A new associativity moves every set's header, so it
     * clears the whole storage instead.
     */
    void reconfigure(int sizeBytes, int assoc, int lineBytes);

    /** Access one address; fills the line on a miss. */
    CacheAccessResult access(std::uint32_t addr, bool write);

    /** @name Statistics. */
    /** @{ */
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    /** @} */

    /** Forget all contents and statistics. */
    void reset();

    /** Bytes of set storage held (its capacity, not the geometry's). */
    std::size_t
    storageBytes() const
    {
        return blocks_.capacity() * sizeof(std::uint32_t);
    }

    /** Largest associativity: a set's ages are the nibbles of one word. */
    static constexpr int kMaxAssoc = 8;

    /** Largest epoch; the next reset() wraps to a full clear. */
    static constexpr std::uint32_t kMaxEpoch = 0xffffu;

  private:
    // Drives the epoch to its wrap and looks lines up without
    // touching their ages.
    friend struct CacheTestAccess;

    /** @name Word offsets within a set's block. */
    /** @{ */
    static constexpr std::size_t kHeaderWord = 0; //!< epoch|valid|dirty
    static constexpr std::size_t kAgeWord = 1;    //!< nibble ages
    static constexpr std::size_t kTagWord = 2;    //!< assoc tags
    /** @} */

    /** @name Header fields: epoch, then the valid and dirty masks. */
    /** @{ */
    static constexpr std::uint32_t kEpochMask = 0xffffu;
    static constexpr int kValidShift = 16;
    static constexpr int kDirtyShift = 24;
    /** @} */

    /** One in every nibble lane, and every lane's top bit. */
    static constexpr std::uint32_t kLaneOnes = 0x11111111u;
    static constexpr std::uint32_t kLaneTops = 0x88888888u;

    int sets_;
    int assoc_;
    int lineShift_;
    int setShift_;           //!< log2(sets_)
    std::size_t stride_ = 0; //!< words per set block
    std::vector<std::uint32_t> blocks_;
    /** A new epoch's ages: way w at age w, unused lanes at 7. */
    std::uint32_t initAges_ = 0;
    /** assoc-1 in every lane: the age of a set's LRU way. */
    std::uint32_t oldestAges_ = 0;
    std::uint32_t epoch_ = 1;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/** Event counts produced by hierarchy traversals, for energy accounting. */
struct HierarchyAccessEvents
{
    int il1 = 0;    //!< L1I accesses
    int dl1 = 0;    //!< L1D accesses
    int l2 = 0;     //!< L2 accesses (including fills/writebacks)
    int mem = 0;    //!< main-memory accesses
};

/**
 * The memory hierarchy of one simulated core: split L1s over a unified
 * L2 over flat-latency main memory, all sized from the configuration.
 */
class CacheHierarchy
{
  public:
    /** Build the hierarchy for a configuration. */
    explicit CacheHierarchy(const MicroarchConfig &config);

    /**
     * Re-shape all three caches for a new configuration, invalidating
     * contents and statistics but reusing line storage (see
     * Cache::reconfigure). Leaves the hierarchy exactly as a fresh
     * CacheHierarchy(config) would.
     */
    void reconfigure(const MicroarchConfig &config);

    /**
     * Data access (load or store). Returns total latency in cycles and
     * accumulates energy events into @p events.
     */
    int dataAccess(std::uint32_t addr, bool write,
                   HierarchyAccessEvents &events);

    /**
     * Instruction-fetch access for one I-cache line. Returns latency
     * (1 on a hit).
     */
    int instAccess(std::uint32_t pc, HierarchyAccessEvents &events);

    /** @name Component access for statistics/tests. */
    /** @{ */
    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    /** @} */

    /** Bytes of set storage held by the three caches. */
    std::size_t
    storageBytes() const
    {
        return il1_.storageBytes() + dl1_.storageBytes() +
               l2_.storageBytes();
    }

    /** @name Latencies derived from the Cacti model. */
    /** @{ */
    int dl1Latency() const { return dl1Latency_; }
    int l2Latency() const { return l2Latency_; }
    int memLatency() const { return memLatency_; }
    /** @} */

  private:
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    int il1Latency_;
    int dl1Latency_;
    int l2Latency_;
    int memLatency_;
};

// The access paths are defined here so the simulator's per-instruction
// calls inline.

inline CacheAccessResult
Cache::access(std::uint32_t addr, bool write)
{
    ++accesses_;
    const std::uint32_t line_addr = addr >> lineShift_;
    const std::uint32_t set =
        line_addr & (static_cast<std::uint32_t>(sets_) - 1);
    const std::uint32_t tag = line_addr >> setShift_;
    std::uint32_t *blk = &blocks_[set * stride_];
    std::uint32_t header = blk[kHeaderWord];
    std::uint32_t ages = blk[kAgeWord];
    if ((header & kEpochMask) != epoch_) {
        header = epoch_;
        ages = initAges_;
    }
    const std::uint32_t valid = header >> kValidShift & 0xffu;
    std::uint32_t *tags = blk + kTagWord;

    // Compare every tag without branching, then keep the valid ways.
    std::uint32_t match = 0;
    for (int w = 0; w < assoc_; ++w)
        match |= static_cast<std::uint32_t>(tags[w] == tag) << w;
    match &= valid;
    int way;
    bool writeback = false;
    if (match) {
        way = std::countr_zero(match);
        header |= (write ? 1u : 0u) << (kDirtyShift + way);
    } else {
        // Victim: the way of age assoc-1, the only zero lane of
        // ages ^ oldestAges_ (every lane is below 8, so adding 7 sets a
        // lane's top bit exactly when the lane is non-zero).
        ++misses_;
        const std::uint32_t diff = ages ^ oldestAges_;
        way = std::countr_zero(~(diff + kLaneTops - kLaneOnes) &
                               kLaneTops) >> 2;
        const std::uint32_t bit = 1u << way;
        writeback = header >> kDirtyShift & bit;
        writebacks_ += writeback;
        header = ((header | bit << kValidShift) & ~(bit << kDirtyShift)) |
                 (write ? bit << kDirtyShift : 0u);
        tags[way] = tag;
    }

    // Touch: every lane younger than the way's age a gains one (a lane
    // keeps its top bit after subtracting a exactly when it is >= a),
    // then the way becomes age 0.
    const int shift = 4 * way;
    const std::uint32_t age = ages >> shift & 0xfu;
    const std::uint32_t older = ((ages | kLaneTops) - age * kLaneOnes) &
                                kLaneTops;
    ages += (~older & kLaneTops) >> 3;
    ages &= ~(0xfu << shift);
    blk[kHeaderWord] = header;
    blk[kAgeWord] = ages;
    return {match != 0, writeback};
}

inline int
CacheHierarchy::dataAccess(std::uint32_t addr, bool write,
                           HierarchyAccessEvents &events)
{
    ++events.dl1;
    const CacheAccessResult l1 = dl1_.access(addr, write);
    if (l1.hit)
        return dl1Latency_;
    if (l1.writebackDirty)
        ++events.l2; // dirty victim written into L2

    ++events.l2;
    const CacheAccessResult l2 = l2_.access(addr, false);
    if (l2.hit)
        return dl1Latency_ + l2Latency_;
    if (l2.writebackDirty)
        ++events.mem;

    ++events.mem;
    return dl1Latency_ + l2Latency_ + memLatency_;
}

inline int
CacheHierarchy::instAccess(std::uint32_t pc, HierarchyAccessEvents &events)
{
    ++events.il1;
    const CacheAccessResult l1 = il1_.access(pc, false);
    if (l1.hit)
        return 1;

    ++events.l2;
    const CacheAccessResult l2 = l2_.access(pc, false);
    if (l2.hit)
        return il1Latency_ + l2Latency_;
    if (l2.writebackDirty)
        ++events.mem;

    ++events.mem;
    return il1Latency_ + l2Latency_ + memLatency_;
}

} // namespace acdse

