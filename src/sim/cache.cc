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

CacheAccessResult
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

int
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

int
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
