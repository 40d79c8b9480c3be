/**
 * @file
 * Decoded-trace simulator replay.
 *
 * A design-space campaign evaluates the *same* trace under hundreds of
 * configurations. The scalar path (sim/simulator.hh) rebuilds every
 * simulator structure per call and re-derives every instruction's
 * properties per config; this path replays one decoded trace against
 * each configuration in turn through a single-configuration
 * event-driven engine:
 *
 *  - DecodedTrace precomputes per-instruction properties (latency,
 *    functional-unit pool, energy event, class flags) once per trace
 *    instead of re-deriving them per config per instruction.
 *  - SimScratch owns one configuration's simulator components (caches,
 *    predictors, energy model, pipeline storage), *reconfigured* -- not
 *    reallocated -- for each simulation, so steady-state replay
 *    performs no heap allocation (bench_campaign asserts this).
 *  - The engine skips idle cycles: a stretch in which no pipeline,
 *    cache or predictor state changes is jumped over in one step.
 *  - Issue is event-driven wakeup/select, not a per-cycle scan of the
 *    issue queue: a producer's issue wakes the consumers linked to it
 *    at dispatch, a timing wheel holds them until their operands are
 *    ready, and select walks only the ready entries, oldest first.
 *
 * Contract: per-config results are BIT-IDENTICAL to scalar simulate()
 * (tests/test_batch_sim.cc compares all four metrics with EXPECT_EQ on
 * the doubles). This holds because the engine executes exactly the
 * scalar algorithm's operation sequence, and the shared tables in
 * sim/core_ops.hh keep the two transcriptions from drifting.
 *
 * Observability: simulateBatch() runs under a "sim/batch" trace span
 * and feeds four counters -- "sim/instructions" (instructions committed
 * through the replay path), "sim/lanes-occupied" (configurations
 * simulated, i.e. cells), "sim/cycles-stepped" (engine loop
 * iterations) and "sim/cycles-skipped" (cycles jumped by the idle
 * skip). The two cycle counters include warmup runs.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core.hh"
#include "sim/energy.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace acdse
{

/**
 * Configurations per simulateBatch() call that callers tile work by.
 * Each configuration is replayed on its own: interleaving several
 * configurations through one trace measured no faster and held one
 * set of caches, predictors and pipeline storage per configuration in
 * every worker's scratch. At 1, the natural tiling -- one pool task
 * per cell -- keeps a single configuration's storage per thread.
 */
constexpr std::size_t kSimLanes = 1;

/**
 * A trace decoded for replay: per-instruction properties the core
 * model would otherwise re-derive per config per instruction,
 * precomputed once. Immutable after construction and therefore safe to
 * share across threads (campaign workers decode each program's trace
 * once and replay it from every worker).
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
     * One decoded instruction (32 bytes). addrOrTarget holds the
     * effective address for loads/stores and the branch target for
     * branches -- no instruction uses both.
     */
    struct Op
    {
        std::uint64_t pc;           //!< instruction address
        std::uint64_t addrOrTarget; //!< data address / branch target
        std::uint32_t srcDist1;     //!< distance to first producer
        std::uint32_t srcDist2;     //!< distance to second producer
        std::uint8_t latency;       //!< execLatency(cls)
        std::uint8_t pool;          //!< fuPoolFor(cls) index
        std::uint8_t fuEvent;       //!< fuEnergyFor(cls) index
        std::uint8_t flags;         //!< kOp* bits
    };

    /** Decode @p trace; keeps a reference (trace must outlive this). */
    explicit DecodedTrace(const Trace &trace);

    /** Benchmark name (forwarded from the source trace). */
    const std::string &name() const { return source_->name(); }

    /** Number of dynamic instructions. */
    std::size_t size() const { return ops_.size(); }

    /** The decoded stream. */
    const Op *ops() const { return ops_.data(); }

  private:
    const Trace *source_;
    std::vector<Op> ops_;
};

/**
 * One configuration's simulator components, owned by the caller and
 * recycled across simulations. First use constructs each component;
 * every later simulation reconfigures it in place (O(1) invalidation
 * via epochs -- see Cache::reconfigure), so steady-state replay
 * allocates nothing. One scratch serves one thread; it is storage,
 * never state: results do not depend on what ran through it before.
 */
struct SimScratch
{
    std::optional<EnergyModel> energy;       //!< event accounting
    std::optional<CacheHierarchy> hierarchy; //!< L1I/L1D/L2
    std::optional<GsharePredictor> bpred;    //!< direction predictor
    std::optional<Btb> btb;                  //!< target buffer
    CoreScratch core;                        //!< pipeline storage
};

/**
 * Replay @p trace against every configuration in @p configs (any
 * count, one after another) and write one SimulationResult per config
 * into @p results. Bit-identical to calling simulate(configs[i], t,
 * options) per config, where t is the trace @p trace was decoded from.
 *
 * @param configs the design points (results follow this order).
 * @param trace   the decoded trace (read-only; shareable by threads).
 * @param options warmup control, as for simulate().
 * @param results output span, at least configs.size() entries.
 * @param scratch caller-owned components (reused across calls).
 */
void simulateBatch(std::span<const MicroarchConfig> configs,
                   const DecodedTrace &trace,
                   const SimulationOptions &options,
                   std::span<SimulationResult> results,
                   SimScratch &scratch);

/** Convenience overload: decodes, allocates scratch + results. */
std::vector<SimulationResult>
simulateBatch(std::span<const MicroarchConfig> configs, const Trace &trace,
              const SimulationOptions &options = {});

/**
 * Batched SimPoint estimate: one analysis pass and one decode, then
 * every representative interval replayed per configuration. Element i
 * is bit-identical to simulateWithSimPoints(configs[i], trace,
 * options).
 */
std::vector<SampledResult>
simulateWithSimPointsBatch(std::span<const MicroarchConfig> configs,
                           const Trace &trace,
                           const SimPointOptions &options = {});

/**
 * Batched SMARTS estimate: one decode, then measurement units and
 * functional warming replayed per configuration. Element i is
 * bit-identical to simulateWithSmarts(configs[i], trace, options).
 */
std::vector<SampledResult>
simulateWithSmartsBatch(std::span<const MicroarchConfig> configs,
                        const Trace &trace,
                        const SmartsOptions &options = {});

} // namespace acdse
