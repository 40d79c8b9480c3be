#include "sim/branch_predictor.hh"

#include <algorithm>
#include <bit>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

GsharePredictor::GsharePredictor(int entries)
{
    reconfigure(entries);
}

void
GsharePredictor::reconfigure(int entries)
{
    ACDSE_CHECK(entries > 0 &&
                     std::has_single_bit(static_cast<unsigned>(entries)),
                 "gshare table size must be a power of two");
    counters_.assign(static_cast<std::size_t>(entries),
                     1); // weakly not-taken
    mask_ = static_cast<std::uint64_t>(entries) - 1;
    // Fixed short history: larger tables then monotonically reduce
    // destructive aliasing between branches (the effect the design
    // space varies) without diluting training across more contexts
    // than a sampled interval can warm.
    historyBits_ =
        std::min(6, std::countr_zero(static_cast<unsigned>(entries)));
    history_ = 0;
    lookups_ = 0;
    mispredicts_ = 0;
}

std::uint64_t
GsharePredictor::index(std::uint64_t pc) const
{
    return ((pc >> 2) ^ history_) & mask_;
}

bool
GsharePredictor::predict(std::uint64_t pc) const
{
    ++lookups_;
    return counters_[index(pc)] >= 2;
}

void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &counter = counters_[index(pc)];
    const bool predicted = counter >= 2;
    if (predicted != taken)
        ++mispredicts_;
    if (taken && counter < 3)
        ++counter;
    else if (!taken && counter > 0)
        --counter;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) &
               ((1ULL << historyBits_) - 1);
}

Btb::Btb(int entries)
{
    reconfigure(entries);
}

void
Btb::reconfigure(int entries)
{
    ACDSE_CHECK(entries > 0 &&
                     std::has_single_bit(static_cast<unsigned>(entries)),
                 "BTB size must be a power of two");
    entries_.resize(static_cast<std::size_t>(entries));
    mask_ = static_cast<std::uint64_t>(entries) - 1;
    // Epoch bump invalidates every entry in O(1); on wrap, clear so a
    // recycled epoch value cannot resurrect stale entries.
    if (++epoch_ == 0) {
        for (auto &e : entries_)
            e = Entry{};
        epoch_ = 1;
    }
    lookups_ = 0;
    misses_ = 0;
}

bool
Btb::lookup(std::uint64_t pc) const
{
    ++lookups_;
    const Entry &e = entries_[(pc >> 2) & mask_];
    const bool hit = e.epoch == epoch_ && e.tag == pc;
    misses_ += !hit;
    return hit;
}

void
Btb::update(std::uint64_t pc)
{
    Entry &e = entries_[(pc >> 2) & mask_];
    e.epoch = epoch_;
    e.tag = pc;
}

} // namespace acdse
