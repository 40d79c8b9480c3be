#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "base/check.hh"
#include "base/logging.hh"
#include "sim/cacti.hh"

namespace acdse
{

Cache::Cache(int sizeBytes, int assoc, int lineBytes)
{
    reconfigure(sizeBytes, assoc, lineBytes);
}

void
Cache::reconfigure(int sizeBytes, int assoc, int lineBytes)
{
    ACDSE_CHECK(sizeBytes > 0 && assoc > 0 && lineBytes > 0,
                 "cache dimensions must be positive");
    ACDSE_CHECK(assoc <= kMaxAssoc, "associativity above ", kMaxAssoc);
    sets_ = sizeBytes / (assoc * lineBytes);
    assoc_ = assoc;
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes));
    ACDSE_CHECK(sets_ > 0, "cache too small for its associativity");
    ACDSE_CHECK((sets_ & (sets_ - 1)) == 0, "set count must be 2^n");
    ACDSE_CHECK(std::has_single_bit(static_cast<unsigned>(lineBytes)),
                 "line size must be 2^n");
    setShift_ = std::countr_zero(static_cast<unsigned>(sets_));
    const std::size_t stride = kTagWord + static_cast<std::size_t>(assoc);
    if (stride != stride_) {
        // Headers move: stale tags or ages could read as a current
        // epoch, so every word goes back to epoch 0.
        std::fill(blocks_.begin(), blocks_.end(), 0u);
        stride_ = stride;
    }
    const std::size_t words = static_cast<std::size_t>(sets_) * stride_;
    if (words > blocks_.size())
        blocks_.resize(words);
    initAges_ = 0;
    for (int lane = 7; lane >= 0; --lane) {
        initAges_ = initAges_ << 4 |
                    static_cast<std::uint32_t>(lane < assoc ? lane : 7);
    }
    oldestAges_ = static_cast<std::uint32_t>(assoc - 1) * kLaneOnes;
    reset();
}

bool
Cache::probe(std::uint32_t addr) const
{
    const std::uint32_t line_addr = addr >> lineShift_;
    const std::uint32_t set =
        line_addr & (static_cast<std::uint32_t>(sets_) - 1);
    const std::uint32_t tag = line_addr >> setShift_;
    const std::uint32_t *blk = &blocks_[set * stride_];
    if ((blk[kHeaderWord] & kEpochMask) != epoch_)
        return false;
    const std::uint32_t valid = blk[kHeaderWord] >> kValidShift & 0xffu;
    for (int w = 0; w < assoc_; ++w) {
        if ((valid >> w & 1u) && blk[kTagWord + w] == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    // O(1) by design: advancing the epoch empties every set. The
    // epoch is the low 16 bits of a set's header, so every 65,535th
    // reset wraps it; then fall back to a full clear (of every set,
    // including any beyond the current geometry) so recycled epoch
    // values can never resurrect ancient lines.
    if (++epoch_ > kMaxEpoch) {
        std::fill(blocks_.begin(), blocks_.end(), 0u);
        epoch_ = 1;
    }
    accesses_ = misses_ = writebacks_ = 0;
}

CacheHierarchy::CacheHierarchy(const MicroarchConfig &config)
    : il1_(config.il1Bytes(), fixedParams().il1Assoc,
           fixedParams().l1LineBytes),
      dl1_(config.dl1Bytes(), fixedParams().dl1Assoc,
           fixedParams().l1LineBytes),
      l2_(config.l2Bytes(), fixedParams().l2Assoc,
          fixedParams().l2LineBytes),
      memLatency_(fixedParams().memLatency)
{
    il1Latency_ = estimateCache(config.il1Bytes(), fixedParams().il1Assoc,
                                fixedParams().l1LineBytes, 1)
                      .latencyCycles;
    dl1Latency_ = estimateCache(config.dl1Bytes(), fixedParams().dl1Assoc,
                                fixedParams().l1LineBytes, 1)
                      .latencyCycles;
    l2Latency_ = estimateCache(config.l2Bytes(), fixedParams().l2Assoc,
                               fixedParams().l2LineBytes, 2)
                     .latencyCycles;
}

void
CacheHierarchy::reconfigure(const MicroarchConfig &config)
{
    const FixedParams &fp = fixedParams();
    il1_.reconfigure(config.il1Bytes(), fp.il1Assoc, fp.l1LineBytes);
    dl1_.reconfigure(config.dl1Bytes(), fp.dl1Assoc, fp.l1LineBytes);
    l2_.reconfigure(config.l2Bytes(), fp.l2Assoc, fp.l2LineBytes);
    il1Latency_ = estimateCache(config.il1Bytes(), fp.il1Assoc,
                                fp.l1LineBytes, 1)
                      .latencyCycles;
    dl1Latency_ = estimateCache(config.dl1Bytes(), fp.dl1Assoc,
                                fp.l1LineBytes, 1)
                      .latencyCycles;
    l2Latency_ = estimateCache(config.l2Bytes(), fp.l2Assoc,
                               fp.l2LineBytes, 2)
                     .latencyCycles;
    memLatency_ = fp.memLatency;
}

} // namespace acdse
