#include "sim/core.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

namespace
{

/** Execution latency (excluding memory) for each class. */
int
execLatency(InstClass cls)
{
    const FixedParams &fp = fixedParams();
    switch (cls) {
      case InstClass::IntAlu: return fp.intAluLatency;
      case InstClass::IntMul: return fp.intMulLatency;
      case InstClass::FpAlu: return fp.fpAluLatency;
      case InstClass::FpMul: return fp.fpMulLatency;
      case InstClass::FpDiv: return fp.fpDivLatency;
      case InstClass::Load: return 1;  // address generation
      case InstClass::Store: return 1; // address generation
      case InstClass::Branch: return fp.intAluLatency;
      default: panic("bad instruction class");
    }
}

/** Which functional-unit pool a class issues to. */
enum class FuPool : std::size_t { IntAlu, IntMul, FpAlu, FpMulDiv, Count };

/** Number of functional-unit pools. */
constexpr std::size_t kNumFuPools =
    static_cast<std::size_t>(FuPool::Count);

/** The pool an instruction class issues to. */
FuPool
fuPoolFor(InstClass cls)
{
    switch (cls) {
      case InstClass::IntAlu:
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Branch:
        return FuPool::IntAlu;
      case InstClass::IntMul:
        return FuPool::IntMul;
      case InstClass::FpAlu:
        return FuPool::FpAlu;
      case InstClass::FpMul:
      case InstClass::FpDiv:
        return FuPool::FpMulDiv;
      default:
        panic("bad instruction class");
    }
}

/** The dynamic-energy event one executed instruction of a class costs. */
EnergyEvent
fuEnergyFor(InstClass cls)
{
    switch (cls) {
      case InstClass::IntMul: return EnergyEvent::FuIntMul;
      case InstClass::FpAlu: return EnergyEvent::FuFpAlu;
      case InstClass::FpMul: return EnergyEvent::FuFpMul;
      case InstClass::FpDiv: return EnergyEvent::FuFpDiv;
      default: return EnergyEvent::FuIntAlu;
    }
}

/**
 * Reconfigure a recycled component for a new design point, or build it
 * on first use. Every scratch component takes the same argument in its
 * constructor and in reconfigure().
 */
template <typename T, typename Arg>
T &
recycle(std::optional<T> &component, const Arg &arg)
{
    if (component)
        component->reconfigure(arg);
    else
        component.emplace(arg);
    return *component;
}

/** Mask selecting an address's L1 line (fetch-line tracking). */
std::uint64_t
l1LineMask()
{
    return ~static_cast<std::uint64_t>(fixedParams().l1LineBytes - 1);
}

/** No slot: the end of a waiter list or of a wheel bucket. */
constexpr std::uint32_t kNoSlot = CoreScratch::WakeSlot::kEnd;

/** Bits per word of the engine's bitmaps. */
constexpr std::size_t kWordBits = 64;

/** Words of a bitmap over the buckets of a kCoreRingSize ring. */
constexpr std::size_t kRingWords = kCoreRingSize / kWordBits;

void
mark(std::uint64_t *map, std::size_t b)
{
    map[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
}

void
unmark(std::uint64_t *map, std::size_t b)
{
    map[b / kWordBits] &= ~(std::uint64_t{1} << (b % kWordBits));
}

/**
 * Word @p i of a walk over the @p n-word bitset @p words (n a power of
 * two) that starts at bit @p start and wraps round: the start word
 * comes first with the bits below @p start masked off, and again as
 * word n with only those bits left. Stores the word's index in @p w.
 */
std::uint64_t
rotatedWord(const std::uint64_t *words, std::size_t n, std::size_t start,
            std::size_t i, std::size_t &w)
{
    w = (start / kWordBits + i) & (n - 1);
    const std::uint64_t below =
        (std::uint64_t{1} << (start % kWordBits)) - 1;
    if (i == 0)
        return words[w] & ~below;
    return i == n ? words[w] & below : words[w];
}

/**
 * The first cycle after @p cycle whose ring bucket is marked in the
 * kRingWords-word bitmap @p map, or kCoreNotReady when none is.
 */
std::uint64_t
nextMarked(const std::uint64_t *map, std::uint64_t cycle)
{
    const std::size_t from = (cycle + 1) % kCoreRingSize;
    for (std::size_t i = 0; i <= kRingWords; ++i) {
        std::size_t w = 0;
        if (const std::uint64_t bits = rotatedWord(map, kRingWords, from,
                                                   i, w)) {
            const std::size_t b =
                w * kWordBits +
                static_cast<std::size_t>(std::countr_zero(bits));
            return cycle + 1 + (b - from) % kCoreRingSize;
        }
    }
    return kCoreNotReady;
}

} // namespace

DecodedTrace::DecodedTrace(const Trace &trace) : name_(trace.name())
{
    ops_.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceInstruction &inst = trace[i];
        Op op;
        op.pc = inst.pc;
        // A branch's addr is its target, which no timing path reads.
        op.addr = isMemClass(inst.cls) ? inst.addr : 0;
        op.srcDist1 = inst.srcDist1;
        op.srcDist2 = inst.srcDist2;
        const int latency = execLatency(inst.cls);
        ACDSE_CHECK(latency >= 1 && latency <= 255,
                     "execution latency does not fit the decode field");
        op.latency = static_cast<std::uint8_t>(latency);
        op.pool = static_cast<std::uint8_t>(fuPoolFor(inst.cls));
        op.fuEvent = static_cast<std::uint8_t>(fuEnergyFor(inst.cls));
        std::uint8_t flags = 0;
        switch (inst.cls) {
          case InstClass::Load: flags |= kOpLoad; break;
          case InstClass::Store: flags |= kOpStore; break;
          case InstClass::FpDiv: flags |= kOpFpDiv; break;
          case InstClass::Branch:
            flags |= kOpBranch;
            if (inst.conditional)
                flags |= kOpCond;
            if (inst.taken)
                flags |= kOpTaken;
            break;
          default: break;
        }
        if (producesResult(inst.cls))
            flags |= kOpProduces;
        op.flags = flags;
        ops_.push_back(op);
    }
}

std::size_t
CoreScratch::storageBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return bytes(fetchQueue) + bytes(wakeSlots) + bytes(wheel) +
           bytes(wheelOccupied) + bytes(ready) + bytes(wbRing) +
           bytes(resolveRing) + bytes(resolveOccupied) + bytes(divBusy);
}

std::size_t
SimScratch::storageBytes() const
{
    return sizeof(SimScratch) + core.storageBytes() +
           (hierarchy ? hierarchy->storageBytes() : 0) +
           (bpred ? bpred->storageBytes() : 0) +
           (btb ? btb->storageBytes() : 0);
}

SimScratch &
threadSimScratch()
{
    // Thread-local, so never shared: parallelFor gives no stable
    // worker index to key a pool by, and a scratch is pure storage, so
    // per-thread reuse cannot affect determinism.
    thread_local SimScratch scratch; // NOLINT(acdse-local-static)
    return scratch;
}

void
CoreLoopCounts::add(const CoreLoopCounts &other)
{
    for (std::size_t m = 0; m < byStages.size(); ++m)
        byStages[m] += other.byStages[m];
    for (std::size_t b = 0; b < skipLengths.size(); ++b)
        skipLengths[b] += other.skipLengths[b];
    skipped += other.skipped;
}

OooCore::OooCore(const MicroarchConfig &config, const DecodedTrace &trace,
                 SimScratch &scratch)
    : trace_(trace), config_(config),
      energy_(recycle(scratch.energy, config)),
      hierarchy_(recycle(scratch.hierarchy, config)),
      bpred_(recycle(scratch.bpred, config.bpredEntries())),
      btb_(recycle(scratch.btb, config.btbEntries())),
      core_(scratch.core)
{
}

CoreStats
OooCore::run(std::size_t begin, std::size_t end)
{
    end = std::min(end, trace_.size());
    ACDSE_CHECK(begin < end, "empty simulation interval");
    const std::uint64_t cycle_limit =
        static_cast<std::uint64_t>(end - begin) * 600 + 200000;
    const std::uint64_t il1_miss0 = hierarchy_.il1().misses();
    const std::uint64_t dl1_miss0 = hierarchy_.dl1().misses();
    const std::uint64_t l2_miss0 = hierarchy_.l2().misses();

    const DecodedTrace::Op *ops = trace_.ops();
    const FixedParams &fp = fixedParams();
    const std::uint64_t line_mask = l1LineMask();
    const auto front_end_stages =
        static_cast<std::uint64_t>(fp.frontEndStages);
    const auto redirect_penalty =
        static_cast<std::uint64_t>(fp.mispredictRedirect);
    const auto fp_div_latency =
        static_cast<std::uint64_t>(fp.fpDivLatency);
    const auto width = static_cast<std::size_t>(config_.width());
    const auto rob_size = static_cast<std::size_t>(config_.robSize());
    const auto iq_size = static_cast<std::size_t>(config_.iqSize());
    const auto lsq_size = static_cast<std::size_t>(config_.lsqSize());
    const int rd_ports = config_.rfReadPorts();
    const int wr_ports = config_.rfWritePorts();
    const auto max_branches =
        static_cast<std::size_t>(config_.maxBranches());
    const FunctionalUnitCounts fus =
        functionalUnitsForWidth(config_.width());
    const std::array<int, kNumFuPools> fu_counts = {
        fus.intAlu, fus.intMul, fus.fpAlu, fus.fpMulDiv};
    const auto rename_regs = static_cast<std::size_t>(
        std::max(1, config_.rfSize() - fp.archRegs));
    const std::size_t fq_cap =
        width * (static_cast<std::size_t>(fp.frontEndStages) + 2);
    EnergyModel &energy = energy_;
    CacheHierarchy &hierarchy = hierarchy_;
    GsharePredictor &bpred = bpred_;
    Btb &btb = btb_;
    CoreStats stats;
    HierarchyAccessEvents mem_events;

    // The ROB array is padded to a power of two so slot lookup is an
    // AND instead of an integer division. Any injective mapping of the
    // <= robSize in-flight instructions to distinct slots gives
    // identical results; occupancy is still limited by robSize below.
    std::size_t rob_alloc = 1;
    while (rob_alloc < rob_size)
        rob_alloc <<= 1;
    const std::size_t rob_mask = rob_alloc - 1;
    const std::size_t ready_words =
        (rob_alloc + kWordBits - 1) / kWordBits;
    auto &slots = core_.wakeSlots;
    auto &fetch_queue = core_.fetchQueue;
    auto &wheel = core_.wheel;
    auto &wheel_occupied = core_.wheelOccupied;
    auto &ready = core_.ready;
    auto &wb_ring = core_.wbRing;
    auto &resolve_ring = core_.resolveRing;
    auto &resolve_occupied = core_.resolveOccupied;
    auto &div_busy = core_.divBusy;
    // Every slot is written at dispatch before anything reads it.
    slots.resize(rob_alloc);
    fetch_queue.clear();
    wheel.assign(kCoreRingSize, kNoSlot);
    wheel_occupied.assign(kRingWords, 0);
    ready.assign(ready_words, 0);
    wb_ring.assign(kCoreRingSize, 0);
    resolve_ring.assign(kCoreRingSize, 0);
    resolve_occupied.assign(kRingWords, 0);
    div_busy.assign(static_cast<std::size_t>(fus.fpMulDiv), 0);

    std::size_t commit_idx = begin;   // oldest in-flight instruction
    std::size_t dispatch_idx = begin; // next to enter the ROB
    std::size_t fetch_idx = begin;    // next to fetch
    std::size_t rob_count = 0;
    std::size_t iq_count = 0;
    std::size_t ready_count = 0;
    std::size_t lsq_count = 0;
    std::size_t regs_used = 0;
    std::size_t fq_head = 0;
    std::uint64_t cycle = 0;
    std::uint64_t fetch_blocked_until = 0;
    bool fetch_wait_branch = false;  // stalled on a mispredict
    std::size_t wait_branch_idx = 0; // which branch we wait for
    std::size_t inflight_branches = 0;
    std::uint64_t last_fetch_line =
        std::numeric_limits<std::uint64_t>::max();
    CoreLoopCounts loops;

    // Put slot s in the wheel bucket of cycle `due` (> cycle). Like the
    // write-port ring, the wheel relies on every latency being shorter
    // than the ring.
    auto schedule = [&](std::size_t s, std::uint64_t due) {
        ACDSE_CHECK(due - cycle < kCoreRingSize,
                     "operand wakeup beyond the timing wheel");
        const std::size_t b = due % kCoreRingSize;
        slots[s].wheelNext = wheel[b];
        wheel[b] = static_cast<std::uint32_t>(s);
        mark(wheel_occupied.data(), b);
    };

    // Dispatch-time view of one source operand of the instruction in
    // slot s: ready operands change nothing, a known producer's result
    // cycle is folded in, and a waiting one links node 2s+k into its
    // producer's waiter list.
    auto link_operand = [&](std::size_t idx, std::size_t s,
                            std::uint32_t dist, std::size_t k) {
        if (!dist)
            return;
        const std::size_t producer = idx - dist;
        if (producer < commit_idx ||
            dist > static_cast<std::uint32_t>(idx - begin))
            return; // committed, or before the interval
        CoreScratch::WakeSlot &p = slots[producer & rob_mask];
        CoreScratch::WakeSlot &e = slots[s];
        if (p.readyCycle != kCoreNotReady) {
            e.operandsReady = std::max(e.operandsReady, p.readyCycle);
            return;
        }
        e.next[k] = p.waiters;
        p.waiters = static_cast<std::uint32_t>(2 * s + k);
        ++e.pending;
    };

    // The first cycle at or after `from` with a free write port.
    auto writeback_slot = [&](std::uint64_t from) {
        std::uint64_t c = std::max(from, cycle + 1);
        for (std::size_t hops = 0; hops < kCoreRingSize - 1; ++hops, ++c) {
            if (wb_ring[c % kCoreRingSize] <
                static_cast<std::uint8_t>(wr_ports)) {
                ++wb_ring[c % kCoreRingSize];
                return c;
            }
        }
        return c;
    };

    while (commit_idx < end) {
        // Free the write-port ring slot for this cycle so it can be
        // reused a full ring period later; resolve branches due now.
        const std::size_t bucket = cycle % kCoreRingSize;
        const std::uint8_t resolved = resolve_ring[bucket];
        inflight_branches -= resolved;
        resolve_ring[bucket] = 0;
        unmark(resolve_occupied.data(), bucket);

        // Entries whose operands are ready this cycle join the ready
        // set.
        if (wheel[bucket] != kNoSlot) {
            for (std::uint32_t s = wheel[bucket]; s != kNoSlot;
                 s = slots[s].wheelNext) {
                mark(ready.data(), s);
                ++ready_count;
            }
            wheel[bucket] = kNoSlot;
            unmark(wheel_occupied.data(), bucket);
        }

        // The stages that changed state this cycle (CoreStage bits),
        // for the loop counters and the idle skip at the bottom of the
        // loop: a cycle without progress is replayed as is -- the same
        // stall counters ticking -- until the next event.
        unsigned moved = resolved != 0 ? kStageResolve : 0u;
        std::uint64_t *dispatch_stall = nullptr;
        bool fetch_stalled = false;

        // ---- Commit ---------------------------------------------------
        for (std::size_t c = 0; c < width && commit_idx < end; ++c) {
            if (commit_idx >= dispatch_idx)
                break; // nothing dispatched
            // An unissued slot's readyCycle is kCoreNotReady.
            if (slots[commit_idx & rob_mask].readyCycle > cycle)
                break;
            const DecodedTrace::Op &op = ops[commit_idx];
            if (op.flags & DecodedTrace::kOpStore) {
                // Stores drain to the D-cache at commit.
                hierarchy.dataAccess(op.addr, true, mem_events);
                --lsq_count;
            } else if (op.flags & DecodedTrace::kOpLoad) {
                --lsq_count;
            }
            if (op.flags & DecodedTrace::kOpProduces)
                --regs_used;
            if (op.flags & DecodedTrace::kOpBranch) {
                ++stats.branches;
                energy.add(EnergyEvent::BpredUpdate);
            }
            energy.add(EnergyEvent::RobRead);
            --rob_count;
            ++commit_idx;
            ++stats.instructions;
            moved |= kStageCommit;
        }

        // ---- Issue: select from the ready set, oldest first -----------
        if (ready_count > 0) {
            std::size_t issued = 0;
            int rd_left = rd_ports;
            std::array<int, kNumFuPools> fu_left = fu_counts;
            const std::size_t head = commit_idx & rob_mask;
            for (std::size_t i = 0; i <= ready_words && issued < width;
                 ++i) {
                std::size_t w = 0;
                std::uint64_t bits =
                    rotatedWord(ready.data(), ready_words, head, i, w);
                while (bits && issued < width) {
                    const std::size_t s =
                        w * kWordBits +
                        static_cast<std::size_t>(std::countr_zero(bits));
                    bits &= bits - 1;
                    const std::size_t idx =
                        commit_idx + ((s - head) & rob_mask);
                    const DecodedTrace::Op &op = ops[idx];
                    const auto pool = static_cast<std::size_t>(op.pool);
                    const int srcs =
                        (op.srcDist1 ? 1 : 0) + (op.srcDist2 ? 1 : 0);
                    // A blocked entry stays ready for a later cycle.
                    if (fu_left[pool] <= 0 || rd_left < srcs)
                        continue;
                    if (op.flags & DecodedTrace::kOpFpDiv) {
                        // Non-pipelined: need a divider idle right now.
                        auto divider = div_busy.begin();
                        while (divider != div_busy.end() &&
                               *divider > cycle)
                            ++divider;
                        if (divider == div_busy.end())
                            continue;
                        *divider = cycle + fp_div_latency;
                    }

                    unmark(ready.data(), s);
                    --ready_count;
                    --iq_count;
                    ++issued;
                    moved |= kStageIssue;
                    rd_left -= srcs;
                    --fu_left[pool];
                    energy.add(EnergyEvent::IqIssue);
                    energy.add(EnergyEvent::RfRead,
                               static_cast<std::uint64_t>(srcs));

                    int latency = op.latency;
                    if (op.flags & DecodedTrace::kOpLoad) {
                        latency += hierarchy.dataAccess(op.addr,
                                                        false, mem_events);
                        energy.add(EnergyEvent::LsqSearch);
                    }
                    const std::uint64_t done =
                        cycle + static_cast<std::uint64_t>(latency);

                    CoreScratch::WakeSlot &e = slots[s];
                    if (op.flags & DecodedTrace::kOpProduces) {
                        e.readyCycle = writeback_slot(done);
                        energy.add(EnergyEvent::RfWrite);
                        energy.add(EnergyEvent::ResultBus);
                        energy.add(EnergyEvent::IqWakeup);
                    } else {
                        e.readyCycle = done;
                    }
                    energy.add(static_cast<EnergyEvent>(op.fuEvent));

                    // Wakeup: each waiting operand learns the result
                    // cycle (> cycle, so the wheel fits).
                    for (std::uint32_t node = e.waiters; node != kNoSlot;) {
                        const std::size_t c = node / 2;
                        CoreScratch::WakeSlot &w_slot = slots[c];
                        node = w_slot.next[node % 2];
                        w_slot.operandsReady =
                            std::max(w_slot.operandsReady, e.readyCycle);
                        if (--w_slot.pending == 0)
                            schedule(c, w_slot.operandsReady);
                    }

                    if (op.flags & DecodedTrace::kOpBranch) {
                        // Resolution: the branch count drops; if fetch
                        // waits on this branch it restarts after the
                        // redirect penalty.
                        ++resolve_ring[done % kCoreRingSize];
                        mark(resolve_occupied.data(), done % kCoreRingSize);
                        if (fetch_wait_branch && wait_branch_idx == idx) {
                            fetch_wait_branch = false;
                            fetch_blocked_until =
                                std::max(fetch_blocked_until,
                                         done + redirect_penalty);
                        }
                    }
                }
            }
        }

        // ---- Dispatch -------------------------------------------------
        for (std::size_t d = 0; d < width; ++d) {
            if (fq_head >= fetch_queue.size())
                break;
            const CoreScratch::Fetched &f = fetch_queue[fq_head];
            if (f.readyAt > cycle)
                break;
            const DecodedTrace::Op &op = ops[f.idx];
            if (rob_count == rob_size) {
                ++stats.dispatchStallRob;
                dispatch_stall = &stats.dispatchStallRob;
                break;
            }
            if (iq_count == iq_size) {
                ++stats.dispatchStallIq;
                dispatch_stall = &stats.dispatchStallIq;
                break;
            }
            if ((op.flags & DecodedTrace::kOpMem) && lsq_count == lsq_size) {
                ++stats.dispatchStallLsq;
                dispatch_stall = &stats.dispatchStallLsq;
                break;
            }
            if ((op.flags & DecodedTrace::kOpProduces) &&
                regs_used == rename_regs) {
                ++stats.dispatchStallRegs;
                dispatch_stall = &stats.dispatchStallRegs;
                break;
            }

            const std::size_t s = f.idx & rob_mask;
            CoreScratch::WakeSlot &e = slots[s];
            e = {};
            link_operand(f.idx, s, op.srcDist1, 0);
            link_operand(f.idx, s, op.srcDist2, 1);
            // Issue is next cycle at the earliest; only operands due
            // later than that need the wheel.
            if (e.pending == 0) {
                if (e.operandsReady <= cycle + 1) {
                    mark(ready.data(), s);
                    ++ready_count;
                } else {
                    schedule(s, e.operandsReady);
                }
            }
            moved |= kStageDispatch;
            ++rob_count;
            ++iq_count;
            if (op.flags & DecodedTrace::kOpMem) {
                ++lsq_count;
                energy.add(EnergyEvent::LsqWrite);
            }
            if (op.flags & DecodedTrace::kOpProduces)
                ++regs_used;
            energy.add(EnergyEvent::RenameLookup);
            energy.add(EnergyEvent::RobWrite);
            energy.add(EnergyEvent::IqWrite);
            ++dispatch_idx;
            ++fq_head;
        }
        if (fq_head > 2 * fq_cap) {
            fetch_queue.erase(fetch_queue.begin(),
                              fetch_queue.begin() +
                                  static_cast<std::ptrdiff_t>(fq_head));
            fq_head = 0;
        }

        // ---- Fetch ----------------------------------------------------
        if (!fetch_wait_branch && cycle >= fetch_blocked_until) {
            for (std::size_t f = 0; f < width && fetch_idx < end; ++f) {
                if (fetch_queue.size() - fq_head >= fq_cap)
                    break;
                const DecodedTrace::Op &op = ops[fetch_idx];

                // I-cache: access once per new line.
                const std::uint64_t line = op.pc & line_mask;
                if (line != last_fetch_line) {
                    const int lat = hierarchy.instAccess(op.pc, mem_events);
                    moved |= kStageFetch;
                    last_fetch_line = line;
                    if (lat > 1) {
                        fetch_blocked_until =
                            cycle + static_cast<std::uint64_t>(lat);
                        break;
                    }
                }

                bool stop_after = false;
                if (op.flags & DecodedTrace::kOpBranch) {
                    if (inflight_branches >= max_branches) {
                        ++stats.fetchStallBranches;
                        fetch_stalled = true;
                        break;
                    }
                    ++inflight_branches;
                    energy.add(EnergyEvent::BpredLookup);
                    energy.add(EnergyEvent::BtbLookup);
                    const bool taken =
                        (op.flags & DecodedTrace::kOpTaken) != 0;
                    const bool pred = (op.flags & DecodedTrace::kOpCond)
                                          ? bpred.predict(op.pc)
                                          : true;
                    bpred.update(op.pc, taken);
                    const bool btb_hit = btb.lookup(op.pc);
                    if (taken && !btb_hit) {
                        btb.update(op.pc);
                        energy.add(EnergyEvent::BtbUpdate);
                        ++stats.btbMisses;
                    }
                    if (pred != taken) {
                        // Direction mispredict: fetch stops until the
                        // branch resolves.
                        ++stats.mispredicts;
                        fetch_wait_branch = true;
                        wait_branch_idx = fetch_idx;
                        stop_after = true;
                    } else if (taken) {
                        if (!btb_hit) {
                            // Correct direction but unknown target:
                            // decode-time redirect bubble.
                            fetch_blocked_until = cycle + redirect_penalty;
                        }
                        // Cannot fetch past a taken branch this cycle.
                        stop_after = true;
                        last_fetch_line =
                            std::numeric_limits<std::uint64_t>::max();
                    }
                }

                fetch_queue.push_back({fetch_idx, cycle + front_end_stages});
                ++fetch_idx;
                moved |= kStageFetch;
                if (stop_after)
                    break;
            }
        }

        // This cycle's write-port slot can never be referenced again
        // (writebacks are always scheduled at cycle+1 or later), so
        // clear it for reuse one ring period from now.
        wb_ring[cycle % kCoreRingSize] = 0;

        ++loops.byStages[moved];
        if (moved) {
            ++cycle;
        } else {
            // Frozen cycle: the pipeline replays it unchanged until the
            // next scheduled event, so jump straight there. Its only
            // observable effects are the stall counters recorded above,
            // credited per skipped cycle below.
            std::uint64_t wake = cycle_limit;
            // Commit: the oldest in-flight instruction completes.
            if (commit_idx < dispatch_idx) {
                const std::uint64_t done =
                    slots[commit_idx & rob_mask].readyCycle;
                if (done != kCoreNotReady && done > cycle)
                    wake = std::min(wake, done);
            }
            // Issue: the next occupied wheel bucket brings operands
            // ready. Ready entries left over without progress can only
            // be FP divides waiting for a divider.
            wake = std::min(wake, nextMarked(wheel_occupied.data(), cycle));
            if (ready_count > 0)
                wake = std::min(wake, *std::min_element(div_busy.begin(),
                                                        div_busy.end()));
            // Dispatch: the front-end head leaves the fetch pipeline. (A
            // resource-stalled head is freed by a commit or issue
            // event, already bounded above.)
            if (fq_head < fetch_queue.size() &&
                fetch_queue[fq_head].readyAt > cycle)
                wake = std::min(wake, fetch_queue[fq_head].readyAt);
            // Fetch: a miss or redirect block expires.
            if (!fetch_wait_branch && fetch_blocked_until > cycle &&
                fetch_idx < end)
                wake = std::min(wake, fetch_blocked_until);
            // Branch resolution: inflight_branches drops.
            wake = std::min(wake,
                            nextMarked(resolve_occupied.data(), cycle));
            wake = std::clamp(wake, cycle + 1, cycle_limit);
            const std::uint64_t skipped = wake - cycle - 1;
            loops.skipped += skipped;
            ++loops.skipLengths[std::min<std::size_t>(
                static_cast<std::size_t>(std::bit_width(skipped)),
                kSkipBuckets - 1)];
            if (skipped > 0) {
                // Each skipped cycle repeats this cycle's stall
                // accounting and clears its own write-port slot, exactly
                // as stepping it would have: the slots (cycle, wake) form
                // at most two contiguous runs of the ring.
                if (dispatch_stall)
                    *dispatch_stall += skipped;
                if (fetch_stalled)
                    stats.fetchStallBranches += skipped;
                const std::size_t first = (cycle + 1) % kCoreRingSize;
                const std::size_t count = static_cast<std::size_t>(
                    std::min<std::uint64_t>(skipped, kCoreRingSize));
                const std::size_t head =
                    std::min(count, kCoreRingSize - first);
                std::memset(wb_ring.data() + first, 0, head);
                std::memset(wb_ring.data(), 0, count - head);
            }
            cycle = wake;
        }
        ACDSE_CHECK(cycle < cycle_limit, "pipeline deadlock detected in ",
                     trace_.name(), " at instruction ", commit_idx);
    }

    loops_.add(loops);
    stats.cycles = cycle;
    stats.il1Misses = hierarchy.il1().misses() - il1_miss0;
    stats.dl1Misses = hierarchy.dl1().misses() - dl1_miss0;
    stats.l2Misses = hierarchy.l2().misses() - l2_miss0;
    energy.add(EnergyEvent::Il1Access,
               static_cast<std::uint64_t>(mem_events.il1));
    energy.add(EnergyEvent::Dl1Access,
               static_cast<std::uint64_t>(mem_events.dl1));
    energy.add(EnergyEvent::L2Access,
               static_cast<std::uint64_t>(mem_events.l2));
    energy.add(EnergyEvent::MemAccess,
               static_cast<std::uint64_t>(mem_events.mem));
    return stats;
}

void
OooCore::warm(std::size_t begin, std::size_t end)
{
    end = std::min(end, trace_.size());
    const DecodedTrace::Op *ops = trace_.ops();
    const std::uint64_t line_mask = l1LineMask();
    HierarchyAccessEvents discard;
    std::uint64_t last_line = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = begin; i < end; ++i) {
        const DecodedTrace::Op &op = ops[i];
        const std::uint64_t line = op.pc & line_mask;
        if (line != last_line) {
            hierarchy_.instAccess(op.pc, discard);
            last_line = line;
        }
        if (op.flags & DecodedTrace::kOpMem) {
            hierarchy_.dataAccess(op.addr,
                                  (op.flags & DecodedTrace::kOpStore) != 0,
                                  discard);
        } else if (op.flags & DecodedTrace::kOpBranch) {
            const bool taken = (op.flags & DecodedTrace::kOpTaken) != 0;
            bpred_.update(op.pc, taken);
            if (taken && !btb_.lookup(op.pc))
                btb_.update(op.pc);
        }
    }
}

} // namespace acdse
