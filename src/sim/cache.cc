#include "sim/cache.hh"

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
    sets_ = sizeBytes / (assoc * lineBytes);
    assoc_ = assoc;
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes));
    ACDSE_CHECK(sets_ > 0, "cache too small for its associativity");
    ACDSE_CHECK((sets_ & (sets_ - 1)) == 0, "set count must be 2^n");
    ACDSE_CHECK(std::has_single_bit(static_cast<unsigned>(lineBytes)),
                 "line size must be 2^n");
    const std::size_t lines = static_cast<std::size_t>(sets_) * assoc_;
    if (lines > lines_.size())
        lines_.resize(lines);
    reset();
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line_addr = addr >> lineShift_;
    const std::uint64_t set = line_addr & (static_cast<std::uint64_t>(
                                               sets_) - 1);
    const std::uint64_t tag = line_addr >> std::countr_zero(
                                  static_cast<unsigned>(sets_));
    const Line *base = &lines_[set * static_cast<std::uint64_t>(assoc_)];
    for (int w = 0; w < assoc_; ++w) {
        if (valid(base[w]) && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    // O(1) by design: advancing the epoch invalidates every line (the
    // LRU victim scan treats stale-epoch lines exactly like the
    // valid=false lines of a fresh array). On the -- practically
    // unreachable -- epoch wrap, fall back to a full clear (of every
    // line, including any beyond the current geometry) so recycled
    // epoch values can never resurrect ancient lines.
    if (++epoch_ > kMaxEpoch) {
        for (auto &line : lines_)
            line = Line{};
        epoch_ = 1;
    }
    useCounter_ = accesses_ = misses_ = writebacks_ = 0;
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
