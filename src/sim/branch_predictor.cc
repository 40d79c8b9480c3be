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
    // Every counter weakly not-taken (1), four to a byte.
    counters_.assign((static_cast<std::size_t>(entries) + 3) / 4, 0x55);
    mask_ = static_cast<std::uint32_t>(entries) - 1;
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

std::uint32_t
GsharePredictor::index(std::uint32_t pc) const
{
    return ((pc >> 2) ^ history_) & mask_;
}

bool
GsharePredictor::predict(std::uint32_t pc) const
{
    ++lookups_;
    const std::uint32_t i = index(pc);
    // A counter predicts taken when its high bit is set (>= 2).
    return counters_[i >> 2] >> (2 * (i & 3u) + 1) & 1u;
}

void
GsharePredictor::update(std::uint32_t pc, bool taken)
{
    const std::uint32_t i = index(pc);
    std::uint8_t &byte = counters_[i >> 2];
    const unsigned shift = 2 * (i & 3u);
    unsigned counter = byte >> shift & 3u;
    const bool predicted = counter >= 2;
    if (predicted != taken)
        ++mispredicts_;
    if (taken && counter < 3)
        ++counter;
    else if (!taken && counter > 0)
        --counter;
    byte = static_cast<std::uint8_t>((byte & ~(3u << shift)) |
                                     counter << shift);
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) &
               ((1u << historyBits_) - 1);
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
    mask_ = static_cast<std::uint32_t>(entries) - 1;
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
Btb::lookup(std::uint32_t pc) const
{
    ++lookups_;
    const Entry &e = entries_[(pc >> 2) & mask_];
    const bool hit = e.epoch == epoch_ && e.tag == pc;
    misses_ += !hit;
    return hit;
}

void
Btb::update(std::uint32_t pc)
{
    Entry &e = entries_[(pc >> 2) & mask_];
    e.epoch = epoch_;
    e.tag = pc;
}

} // namespace acdse
