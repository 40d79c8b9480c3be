/**
 * @file
 * Cycle-level out-of-order superscalar core model.
 *
 * Trace-driven analogue of the paper's SimpleScalar/Wattch setup: a
 * fetch/rename-dispatch/issue/execute/writeback/commit pipeline in
 * which every one of the 13 varied parameters is a structural limit:
 *
 *  - width bounds fetch, dispatch, issue and commit bandwidth and sets
 *    the functional-unit pool (Table 2b);
 *  - ROB / IQ / LSQ occupancy stalls dispatch when full;
 *  - physical-register-file size bounds renaming, read ports bound
 *    operand reads at issue, write ports arbitrate writeback;
 *  - the gshare predictor and BTB drive front-end redirects, and the
 *    in-flight-branch limit stalls fetch;
 *  - the I-cache gates fetch, the D-cache/L2 set load latencies.
 *
 * Standard trace-driven simplifications (documented in DESIGN.md): no
 * wrong-path execution (a mispredict stalls fetch until the branch
 * resolves plus a redirect penalty) and perfect store-to-load
 * disambiguation.
 *
 * There is one implementation of the pipeline, OooCore, and one kind
 * of simulator storage, SimScratch: every entry point (simulate(),
 * simulateBatch(), the sampled methodologies, campaign fill) replays a
 * DecodedTrace through an OooCore built on the calling thread's
 * threadSimScratch(). Its results are pinned bit for bit by the
 * checked-in goldens (tests/golden/, tests/test_sim_golden.cc).
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/energy.hh"
#include "trace/trace.hh"

namespace acdse
{

/** Ring size for per-cycle event counters; must exceed any latency. */
constexpr std::size_t kCoreRingSize = 1024;

/** Result-not-ready sentinel for in-flight instructions. */
constexpr std::uint64_t kCoreNotReady = ~std::uint64_t{0};

/**
 * A trace decoded for replay: per-instruction properties the core
 * model would otherwise re-derive per config per instruction,
 * precomputed once. Self-contained -- it copies what it needs and keeps
 * no reference to its source Trace, which may be destroyed right after
 * decoding (campaign fill drops a program's trace that way). Immutable
 * after construction and therefore safe to share across threads
 * (campaign workers decode each program's trace once and replay it from
 * every worker).
 */
class DecodedTrace
{
  public:
    /** @name Op::flags bits. */
    /** @{ */
    static constexpr std::uint8_t kOpLoad = 1u << 0;     //!< memory load
    static constexpr std::uint8_t kOpStore = 1u << 1;    //!< memory store
    static constexpr std::uint8_t kOpBranch = 1u << 2;   //!< control
    static constexpr std::uint8_t kOpCond = 1u << 3;     //!< conditional
    static constexpr std::uint8_t kOpTaken = 1u << 4;    //!< outcome
    static constexpr std::uint8_t kOpProduces = 1u << 5; //!< writes a reg
    static constexpr std::uint8_t kOpFpDiv = 1u << 6;    //!< unpipelined
    /** Mask: either memory-class bit. */
    static constexpr std::uint8_t kOpMem = kOpLoad | kOpStore;
    /** @} */

    /**
     * One decoded instruction (20 bytes). No timing path reads a
     * branch target (a BTB hit depends only on the tag), so only the
     * data address of loads and stores is kept.
     */
    struct Op
    {
        std::uint32_t pc;           //!< instruction address
        std::uint32_t addr;         //!< data address (memory ops), else 0
        std::uint32_t srcDist1;     //!< distance to first producer
        std::uint32_t srcDist2;     //!< distance to second producer
        std::uint8_t latency;       //!< execution latency (no memory)
        std::uint8_t pool;          //!< functional-unit pool index
        std::uint8_t fuEvent;       //!< EnergyEvent of the execution
        std::uint8_t flags;         //!< kOp* bits
    };

    /** Decode @p trace; keeps no reference to it. */
    explicit DecodedTrace(const Trace &trace);

    /** Benchmark name (copied from the source trace). */
    const std::string &name() const { return name_; }

    /** Number of dynamic instructions. */
    std::size_t size() const { return ops_.size(); }

    /** The decoded stream. */
    const Op *ops() const { return ops_.data(); }

  private:
    std::string name_;
    std::vector<Op> ops_;
};

/**
 * Reusable storage for the pipeline structures one timed run needs:
 * the ROB slots with their wakeup state, the fetch queue, the timing
 * wheel, the ready set, the per-cycle rings and the divider busy
 * timers. Contents are overwritten at the start of each run; only
 * capacity carries over.
 */
struct CoreScratch
{
    /**
     * One ROB slot, with the state of its event-driven wakeup; a
     * value-initialised slot is a freshly dispatched one. Waiter lists
     * are intrusive: operand k of the instruction in slot s is node
     * 2s+k, linked through next[k], so the lists need no storage
     * beyond the slots.
     */
    struct WakeSlot
    {
        /** End of a waiter list or of a wheel bucket. */
        static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

        /** Result cycle once issued; kCoreNotReady until then. */
        std::uint64_t readyCycle = kCoreNotReady;
        /** Latest result cycle among the issued producers. */
        std::uint64_t operandsReady = 0;
        std::uint32_t waiters = kEnd; //!< first node waiting on the result
        std::uint32_t next[2] = {};   //!< waiter-list link per operand
        std::uint32_t wheelNext = 0;  //!< next slot in the wheel bucket
        std::uint32_t pending = 0;    //!< operands on unissued producers
    };

    /** One fetched instruction waiting to dispatch (front-end depth). */
    struct Fetched
    {
        std::size_t idx;            //!< trace index
        std::uint64_t readyAt;      //!< cycle it becomes dispatchable
    };

    std::vector<Fetched> fetchQueue;    //!< FIFO via head index
    std::vector<WakeSlot> wakeSlots;    //!< ROB ring, padded to 2^n
    /** Timing wheel: kCoreRingSize bucket heads, slots due that cycle. */
    std::vector<std::uint32_t> wheel;
    std::vector<std::uint64_t> wheelOccupied; //!< bit per non-empty bucket
    std::vector<std::uint64_t> ready;   //!< bit per slot ready to issue
    std::vector<std::uint8_t> wbRing;   //!< write-port usage per cycle
    std::vector<std::uint8_t> resolveRing; //!< branch resolutions
    /** Bit per resolveRing bucket with a resolution. */
    std::vector<std::uint64_t> resolveOccupied;
    std::vector<std::uint64_t> divBusy; //!< per-divider busy-until

    /** Bytes of storage held by the vectors above (their capacity). */
    std::size_t storageBytes() const;
};

/**
 * One configuration's simulator components, recycled across
 * simulations. First use constructs each component; every later
 * simulation reconfigures it in place (O(1) invalidation via epochs --
 * see Cache::reconfigure), so steady-state replay allocates nothing.
 * It is storage, never state: results do not depend on what ran
 * through it before.
 *
 * Every table holds the simulated machine's 32-bit addresses at that
 * width and its metadata at its information content (one header word
 * and one word of nibble LRU ages per cache set, four gshare counters
 * per byte), so a scratch that has run the largest design point holds
 * about 437 KiB, 320 KiB of it the L2's 40-byte sets. Library code
 * owns exactly one per thread, threadSimScratch(); a second one would
 * only add that footprint to the process's peak memory. The
 * acdse-one-sim-scratch lint rule keeps it that way.
 */
struct SimScratch
{
    std::optional<EnergyModel> energy;       //!< event accounting
    std::optional<CacheHierarchy> hierarchy; //!< L1I/L1D/L2
    std::optional<GsharePredictor> bpred;    //!< direction predictor
    std::optional<Btb> btb;                  //!< target buffer
    CoreScratch core;                        //!< pipeline storage

    /**
     * Bytes this scratch holds: its own size plus the capacity of
     * every table it owns. Capacity only grows, so this is the
     * footprint of the largest configuration run through it so far.
     */
    std::size_t storageBytes() const;
};

/**
 * The calling thread's simulator storage, shared by every simulation
 * that thread runs. Simulation never calls back into its caller, so a
 * thread runs at most one simulation on it at a time.
 */
SimScratch &threadSimScratch();

/** Statistics of one timed run. */
struct CoreStats
{
    std::uint64_t cycles = 0;           //!< total cycles
    std::uint64_t instructions = 0;     //!< committed instructions
    std::uint64_t branches = 0;         //!< committed branches
    std::uint64_t mispredicts = 0;      //!< direction mispredictions
    std::uint64_t btbMisses = 0;        //!< taken branches missing a target
    std::uint64_t il1Misses = 0;        //!< L1I misses
    std::uint64_t dl1Misses = 0;        //!< L1D misses
    std::uint64_t l2Misses = 0;         //!< L2 misses
    std::uint64_t dispatchStallRob = 0; //!< cycles dispatch blocked on ROB
    std::uint64_t dispatchStallIq = 0;  //!< ... on the issue queue
    std::uint64_t dispatchStallLsq = 0; //!< ... on the LSQ
    std::uint64_t dispatchStallRegs = 0; //!< ... on physical registers
    std::uint64_t fetchStallBranches = 0; //!< fetch blocked on branch limit

    /** Committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

/** Pipeline stages whose progress the engine's loop counters record. */
enum CoreStage : unsigned
{
    kStageResolve = 1u << 0,  //!< a branch resolved
    kStageCommit = 1u << 1,   //!< an instruction committed
    kStageIssue = 1u << 2,    //!< an instruction issued
    kStageDispatch = 1u << 3, //!< an instruction dispatched
    kStageFetch = 1u << 4,    //!< an I-cache access or a fetch
};

/** Number of CoreStage bits. */
constexpr std::size_t kCoreStages = 5;

/** Log2 buckets of the idle-skip jump histogram. */
constexpr std::size_t kSkipBuckets = 12;

/**
 * Events of the engine's main loop, outside CoreStats because they
 * describe the simulator, not the simulated machine. Each loop
 * iteration steps one cycle; an iteration in which no stage made
 * progress then jumps over the idle cycles up to the next event.
 */
struct CoreLoopCounts
{
    /** Loop iterations by the CoreStage mask of stages that moved. */
    std::array<std::uint64_t, std::size_t{1} << kCoreStages> byStages{};
    /**
     * Idle iterations by the cycles they jumped: bucket 0 jumped none,
     * bucket b in [1, kSkipBuckets) jumped [2^(b-1), 2^b) cycles (the
     * last bucket also holds every longer jump).
     */
    std::array<std::uint64_t, kSkipBuckets> skipLengths{};
    std::uint64_t skipped = 0; //!< cycles jumped by the idle skip

    /** Accumulate @p other into this. */
    void add(const CoreLoopCounts &other);
};

/**
 * One configuration's pipeline driven through a decoded trace. The
 * bulky storage (ROB slots, timing wheel, cache line arrays,
 * predictor tables, energy counts) lives in a SimScratch and is
 * reconfigured -- not reallocated -- when a core is built on it.
 *
 * Microarchitectural state (caches, predictors, energy counts)
 * persists across run() and warm() calls on one core, enabling warmup
 * runs and SimPoint/SMARTS interval simulation.
 *
 * Two mechanisms keep the model cheap without changing its results:
 *
 *  - Event-driven wakeup/select instead of an issue-queue scan. At
 *    dispatch each source operand is ready (no producer, or one that
 *    committed or lies before the interval), known (the producer
 *    issued, so its result cycle is fixed) or waiting (linked into the
 *    unissued producer's waiter list). A producer's issue folds its
 *    result cycle into each waiter; once an entry waits on nothing it
 *    is put on a timing wheel for the cycle its operands are ready, and
 *    from there into the ready set. Select walks only the ready set,
 *    oldest first: an entry whose operands are not ready never
 *    consumes width, ports or units, and no result is ready in the
 *    cycle its producer issues.
 *
 *  - Idle-cycle skipping: a cycle in which no stage changed any
 *    pipeline, cache or predictor state replays identically until the
 *    next scheduled event (a writeback, a fetch-queue arrival, a
 *    block expiring, a branch resolving, operands coming ready). The
 *    engine jumps there in one step and credits the per-cycle stall
 *    counters -- the only observable effect of the skipped cycles --
 *    in bulk.
 */
class OooCore
{
  public:
    /**
     * Build @p config's core over @p trace on the components of
     * @p scratch, reconfigured here, so the core starts cold. The
     * trace and the scratch must outlive the core, and the scratch
     * serves no other core meanwhile.
     */
    OooCore(const MicroarchConfig &config, const DecodedTrace &trace,
            SimScratch &scratch);

    /** Timed run of instructions [begin, end), end clamped to the trace. */
    CoreStats run(std::size_t begin, std::size_t end);

    /**
     * Functional warming (SMARTS-style): stream instructions [begin,
     * end) through the caches and branch predictor without modelling
     * timing and without recording energy events. Orders of magnitude
     * cheaper than run(); used between detailed measurement units.
     */
    void warm(std::size_t begin, std::size_t end);

    /** The energy accumulator of every run() so far. */
    EnergyModel &energy() { return energy_; }

    /** Main-loop events of every run() so far. */
    const CoreLoopCounts &loopCounts() const { return loops_; }

  private:
    const DecodedTrace &trace_;
    const MicroarchConfig config_;

    // Components (storage owned by the SimScratch).
    EnergyModel &energy_;
    CacheHierarchy &hierarchy_;
    GsharePredictor &bpred_;
    Btb &btb_;
    CoreScratch &core_;
    CoreLoopCounts loops_;
};

} // namespace acdse
