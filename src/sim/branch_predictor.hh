/**
 * @file
 * Gshare branch direction predictor and branch target buffer, both
 * sized from the varied design-space parameters.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace acdse
{

/**
 * Gshare: a table of 2-bit saturating counters indexed by PC xor
 * global history; history length is log2(table size) as usual.
 *
 * The counters are packed four to a byte, counter i in bits
 * 2(i mod 4) .. 2(i mod 4)+1 of byte i/4, so the design space's
 * largest, 32K-entry table holds 8 KiB, and forgetting all training
 * fills the bytes with 0x55 (every counter at 1, weakly not-taken).
 */
class GsharePredictor
{
  public:
    /** @param entries table size (power of two). */
    explicit GsharePredictor(int entries);

    /**
     * Re-size the table and forget all training, history and
     * statistics -- equivalent to constructing a fresh predictor but
     * reusing the counter storage (the replay engine recycles one
     * predictor per worker across simulations).
     */
    void reconfigure(int entries);

    /** Predict the direction of the branch at @p pc. */
    bool predict(std::uint32_t pc) const;

    /** Train on the actual outcome and shift the global history. */
    void update(std::uint32_t pc, bool taken);

    /** @name Statistics. */
    /** @{ */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    /** @} */

    /** Bytes of counter storage held (its capacity). */
    std::size_t storageBytes() const { return counters_.capacity(); }

  private:
    std::uint32_t index(std::uint32_t pc) const;

    /** Four 2-bit counters per byte. */
    std::vector<std::uint8_t> counters_;
    std::uint32_t mask_;
    std::uint32_t history_ = 0;
    int historyBits_;
    mutable std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

/**
 * Direct-mapped, tagged branch target buffer. A taken branch that
 * misses in the BTB cannot redirect fetch immediately even when the
 * direction prediction is correct. The trace supplies every target, so
 * only whether an entry is present matters and no target is stored.
 */
class Btb
{
  public:
    /** @param entries table size (power of two). */
    explicit Btb(int entries);

    /**
     * Re-size the table and forget all entries and statistics (storage
     * is reused; invalidation is O(1) via the entry epoch).
     */
    void reconfigure(int entries);

    /** Whether the branch at @p pc has an entry. */
    bool lookup(std::uint32_t pc) const;

    /** Install/refresh the entry for @p pc. */
    void update(std::uint32_t pc);

    /** @name Statistics. */
    /** @{ */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    /** Bytes of entry storage held (its capacity). */
    std::size_t
    storageBytes() const
    {
        return entries_.capacity() * sizeof(Entry);
    }

  private:
    /**
     * Valid iff epoch matches the BTB's current epoch (see Cache); the
     * tag is the branch's whole address.
     */
    struct Entry
    {
        std::uint32_t tag = 0;
        std::uint32_t epoch = 0;
    };
    static_assert(sizeof(Entry) == 8);

    std::vector<Entry> entries_;
    std::uint32_t mask_;
    std::uint32_t epoch_ = 1;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t misses_ = 0;
};

} // namespace acdse

