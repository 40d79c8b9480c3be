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
#include "base/check.hh"

namespace acdse
{

/** Outcome of a single cache access. */
struct CacheAccessResult
{
    bool hit;           //!< whether the line was present
    bool writebackDirty; //!< whether a dirty victim was evicted
};

/** One set-associative write-back cache with true-LRU replacement. */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity (power of two).
     * @param assoc     associativity.
     * @param lineBytes line size (power of two).
     */
    Cache(int sizeBytes, int assoc, int lineBytes);

    /**
     * Re-shape this cache for a new geometry, invalidating all
     * contents and statistics. Equivalent to constructing a fresh
     * Cache but reuses the line storage -- the replay engine
     * (sim/batch.hh) recycles one Cache per worker across thousands of
     * simulations, and re-allocating + zeroing a multi-megabyte L2
     * line array per simulation would dominate short campaign runs.
     * Storage only ever grows: lines beyond a smaller geometry keep
     * their stale epochs, so they are still invalid when a larger
     * geometry reaches them again.
     */
    void reconfigure(int sizeBytes, int assoc, int lineBytes);

    /** Access one address; fills the line on a miss. */
    CacheAccessResult access(std::uint64_t addr, bool write);

    /** Whether the address would hit, without changing any state. */
    bool probe(std::uint64_t addr) const;

    /** @name Statistics. */
    /** @{ */
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    double missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) / accesses_ : 0.0;
    }
    /** @} */

    /** Forget all contents and statistics. */
    void reset();

    /** Number of sets. */
    int numSets() const { return sets_; }

    /** Largest epoch; the next reset() wraps to a full clear. */
    static constexpr std::uint32_t kMaxEpoch = (1u << 31) - 1;

  private:
    friend struct CacheTestAccess; // drives the epoch to its wrap

    /**
     * One cache line (16 bytes). Validity is epoch-based: a line is
     * present iff its epoch matches the cache's current epoch, so
     * reset() and reconfigure() invalidate every line by bumping
     * epoch_ in O(1) instead of clearing the array. Value-initialised
     * lines carry epoch 0, which is never current (epoch_ starts at
     * 1), so freshly grown storage is invalid without touching it.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint32_t lastUse = 0; //!< useCounter_ at the last access
        std::uint32_t state = 0;   //!< epoch << 1 | dirty
    };
    static_assert(sizeof(Line) == 16);

    /** Whether @p line holds data in the current epoch. */
    bool
    valid(const Line &line) const
    {
        return (line.state >> 1) == epoch_;
    }

    int sets_;
    int assoc_;
    int lineShift_;
    std::vector<Line> lines_;
    std::uint32_t epoch_ = 1;
    std::uint32_t useCounter_ = 0;
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
    int dataAccess(std::uint64_t addr, bool write,
                   HierarchyAccessEvents &events);

    /**
     * Instruction-fetch access for one I-cache line. Returns latency
     * (1 on a hit).
     */
    int instAccess(std::uint64_t pc, HierarchyAccessEvents &events);

    /** @name Component access for statistics/tests. */
    /** @{ */
    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    /** @} */

    /** @name Latencies derived from the Cacti model. */
    /** @{ */
    int il1Latency() const { return il1Latency_; }
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
Cache::access(std::uint64_t addr, bool write)
{
    ++accesses_;
    // The LRU stamps are 32 bits wide; a wrap would silently reorder
    // them, so a run must reset before 2^32 accesses.
    ++useCounter_;
    ACDSE_CHECK(useCounter_ != 0,
                 "cache access counter overflowed its 32-bit LRU stamp");
    const std::uint64_t line_addr = addr >> lineShift_;
    const std::uint64_t set = line_addr & (static_cast<std::uint64_t>(
                                               sets_) - 1);
    const std::uint64_t tag = line_addr >> std::countr_zero(
                                  static_cast<unsigned>(sets_));
    Line *base = &lines_[set * static_cast<std::uint64_t>(assoc_)];

    Line *victim = base;
    for (int w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        const bool present = valid(line);
        if (present && line.tag == tag) {
            line.lastUse = useCounter_;
            line.state |= write ? 1u : 0u;
            return {true, false};
        }
        if (!present) {
            victim = &line;
        } else if (valid(*victim) && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    const bool writeback = valid(*victim) && (victim->state & 1u);
    writebacks_ += writeback;
    victim->state = (epoch_ << 1) | (write ? 1u : 0u);
    victim->tag = tag;
    victim->lastUse = useCounter_;
    return {false, writeback};
}

inline int
CacheHierarchy::dataAccess(std::uint64_t addr, bool write,
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
CacheHierarchy::instAccess(std::uint64_t pc, HierarchyAccessEvents &events)
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

