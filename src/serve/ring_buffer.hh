/**
 * @file
 * The serving front-end's ingest queue: a bounded, cache-line-aware
 * multi-producer / single-consumer ring buffer.
 *
 * Producers (request threads) enqueue with tryPush(): a short CAS race
 * on the enqueue cursor plus one release store into a claimed slot --
 * no locks, no waiting on the consumer, and a *full* ring fails the
 * push immediately instead of blocking, which is what lets the
 * prediction service turn overload into typed load-shedding
 * (SubmitStatus::QueueFull) rather than unbounded queueing delay.
 * The single consumer (the service's drainer thread) pops in batches
 * sized for the SIMD prediction kernels.
 *
 * Layout is the classic bounded sequence-number design (Vyukov): every
 * slot carries its own sequence counter, so a producer can tell
 * "free", "full" and "taken by a racing producer" apart from one
 * acquire load, and producers never write a cursor the consumer reads
 * on its hot path. Slots and cursors are alignas(kCacheLine) so a
 * producer claiming slot i and the consumer releasing slot j never
 * false-share a line (SNIPPETS.md §1: 64-byte lines, power-of-two
 * capacities).
 *
 * Memory ordering contract:
 *  - tryPush publishes the value with a release store of the slot
 *    sequence; popInto's acquire load of the same sequence is the
 *    only synchronisation a request needs to travel threads.
 *  - The cursors themselves are relaxed: they only arbitrate claims,
 *    never publish data.
 */

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/check.hh"

namespace acdse
{

/** x86-64 cache line size (SNIPPETS.md §1). */
inline constexpr std::size_t kCacheLine = 64;

/** Smallest / largest accepted ring capacities (powers of two). */
inline constexpr std::size_t kMinRingCapacity = std::size_t{1} << 3;
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;

/**
 * Bounded lock-free MPSC ring buffer of trivially-movable values.
 *
 * Thread model: any number of producers may call tryPush()
 * concurrently; exactly one thread at a time may call popInto() /
 * approxSize(). The consumer role may migrate between threads as long
 * as the hand-off happens-before the next pop (the service joins its
 * drainer before draining on the destructor thread).
 */
template <typename T>
class MpscRing
{
  public:
    /**
     * @param capacity slot count; rounded up to a power of two and
     *        clamped into [kMinRingCapacity, kMaxRingCapacity].
     */
    explicit MpscRing(std::size_t capacity)
        : capacity_(roundCapacity(capacity)), mask_(capacity_ - 1),
          slots_(std::make_unique<Slot[]>(capacity_))
    {
        for (std::size_t i = 0; i < capacity_; ++i)
            slots_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    /** Slot count (power of two). */
    std::size_t capacity() const noexcept { return capacity_; }

    /**
     * Bytes per slot: the sequence word plus one T, padded to whole
     * cache lines.
     */
    static constexpr std::size_t slotBytes() noexcept
    {
        return sizeof(Slot);
    }

    /**
     * Enqueue one value; returns false -- without blocking or
     * spinning on the consumer -- when the ring is full. Safe from
     * any number of threads.
     */
    bool tryPush(T value) noexcept
    {
        std::uint64_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[pos & mask_];
            const std::uint64_t seq =
                slot.seq.load(std::memory_order_acquire);
            const std::int64_t dif = static_cast<std::int64_t>(seq) -
                                     static_cast<std::int64_t>(pos);
            if (dif == 0) {
                // Slot is free for ticket `pos`: claim it against the
                // other producers, then publish.
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    slot.value = std::move(value);
                    slot.seq.store(pos + 1,
                                   std::memory_order_release);
                    return true;
                }
                // CAS failure reloaded pos; retry with the new ticket.
            } else if (dif < 0) {
                // The consumer has not freed this slot since the last
                // lap: the ring is full *now*. Shedding beats lying.
                return false;
            } else {
                // A racing producer claimed `pos`; chase the cursor.
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Dequeue up to @p max values into @p out; returns the count
     * (0 when empty). Single consumer only.
     */
    std::size_t popInto(T *out, std::size_t max) noexcept
    {
        std::size_t popped = 0;
        std::uint64_t pos = tail_.load(std::memory_order_relaxed);
        while (popped < max) {
            Slot &slot = slots_[pos & mask_];
            const std::uint64_t seq =
                slot.seq.load(std::memory_order_acquire);
            if (seq != pos + 1)
                break; // next slot not yet published: ring drained
            out[popped++] = std::move(slot.value);
            // Free the slot for the producers' next lap.
            slot.seq.store(pos + capacity_,
                           std::memory_order_release);
            ++pos;
        }
        if (popped)
            tail_.store(pos, std::memory_order_relaxed);
        return popped;
    }

    /**
     * Instantaneous occupancy estimate (exact when quiescent); for
     * metrics and tests, not for flow-control decisions.
     */
    std::size_t approxSize() const noexcept
    {
        const std::uint64_t head =
            head_.load(std::memory_order_relaxed);
        const std::uint64_t tail =
            tail_.load(std::memory_order_relaxed);
        return head >= tail ? static_cast<std::size_t>(head - tail)
                            : 0;
    }

  private:
    struct alignas(kCacheLine) Slot
    {
        std::atomic<std::uint64_t> seq{0};
        T value{};
    };

    static std::size_t roundCapacity(std::size_t requested)
    {
        ACDSE_CHECK(requested <= kMaxRingCapacity,
                    "ring capacity ", requested, " exceeds ",
                    kMaxRingCapacity);
        const std::size_t clamped =
            requested < kMinRingCapacity ? kMinRingCapacity
                                         : requested;
        return std::bit_ceil(clamped);
    }

    const std::size_t capacity_;
    const std::size_t mask_;
    std::unique_ptr<Slot[]> slots_;

    /** Producers' claim cursor (next ticket to hand out). */
    alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};

    /** Consumer's read cursor (next slot to drain). */
    alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
};

} // namespace acdse
