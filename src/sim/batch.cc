#include "sim/batch.hh"

#include <algorithm>
#include <bit>
#include <string_view>

#include "base/check.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace acdse
{

namespace
{

/**
 * One configuration: warmup + timed run + result assembly. Adds the
 * engine's main-loop events of both runs to @p loops.
 */
SimulationResult
replay(const MicroarchConfig &config, const DecodedTrace &trace,
       const SimulationOptions &options, SimScratch &scratch,
       CoreLoopCounts &loops)
{
    OooCore core(config, trace, scratch);
    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        core.run(0, begin);
        core.energy().resetCounts();
    }

    SimulationResult result;
    result.stats = core.run(begin, trace.size());
    result.dynamicNj = core.energy().dynamicEnergyNj();
    result.staticNj = core.energy().staticEnergyNj(result.stats.cycles);
    result.metrics = Metrics::fromCyclesEnergy(
        static_cast<double>(result.stats.cycles),
        result.dynamicNj + result.staticNj);
    // Everything downstream (training sets, the campaign cache, served
    // predictions) assumes simulation output is finite and positive;
    // catch a broken energy/timing model here, not three layers later
    // as a NaN prediction.
    ACDSE_CHECK_FINITE(result.metrics.cycles, "simulated cycles");
    ACDSE_CHECK_FINITE(result.metrics.energyNj, "simulated energy");
    ACDSE_CHECK(result.metrics.cycles > 0.0,
                 "simulation produced no cycles");
    loops.add(core.loopCounts());
    return result;
}

/** Counter names of the CoreStage bits, in bit order. */
constexpr std::string_view kStageCounters[kCoreStages] = {
    "sim/stage-progress/resolve", "sim/stage-progress/commit",
    "sim/stage-progress/issue", "sim/stage-progress/dispatch",
    "sim/stage-progress/fetch"};

/** Counter names of the idle-skip buckets (static: no allocation). */
constexpr std::string_view kSkipCounters[kSkipBuckets] = {
    "sim/idle-skip-log2/00", "sim/idle-skip-log2/01",
    "sim/idle-skip-log2/02", "sim/idle-skip-log2/03",
    "sim/idle-skip-log2/04", "sim/idle-skip-log2/05",
    "sim/idle-skip-log2/06", "sim/idle-skip-log2/07",
    "sim/idle-skip-log2/08", "sim/idle-skip-log2/09",
    "sim/idle-skip-log2/10", "sim/idle-skip-log2/11"};

/** Flush one call's loop events into the registry's sim/ counters. */
void
flushLoopCounts(obs::Registry &registry, const CoreLoopCounts &loops)
{
    std::uint64_t classes[3] = {}; // idle, one stage, several
    std::uint64_t stages[kCoreStages] = {};
    for (unsigned mask = 0; mask < loops.byStages.size(); ++mask) {
        const std::uint64_t n = loops.byStages[mask];
        classes[std::min(std::popcount(mask), 2)] += n;
        for (std::size_t s = 0; s < kCoreStages; ++s) {
            if (mask & (1u << s))
                stages[s] += n;
        }
    }
    registry.counter("sim/cycles-stepped")
        .add(classes[0] + classes[1] + classes[2]);
    registry.counter("sim/cycles-skipped").add(loops.skipped);
    registry.counter("sim/iterations-idle").add(classes[0]);
    registry.counter("sim/iterations-one-stage").add(classes[1]);
    registry.counter("sim/iterations-multi-stage").add(classes[2]);
    for (std::size_t s = 0; s < kCoreStages; ++s)
        registry.counter(kStageCounters[s]).add(stages[s]);
    for (std::size_t b = 0; b < kSkipBuckets; ++b)
        registry.counter(kSkipCounters[b]).add(loops.skipLengths[b]);
}

} // namespace

void
simulateBatch(std::span<const MicroarchConfig> configs,
              const DecodedTrace &trace, const SimulationOptions &options,
              std::span<SimulationResult> results, SimScratch &scratch)
{
    ACDSE_CHECK(results.size() >= configs.size(),
                 "result span smaller than the config batch");
    const obs::TraceSpan span(obs::Registry::global(), "sim/batch");
    std::uint64_t instructions = 0;
    CoreLoopCounts loops;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        results[i] = replay(configs[i], trace, options, scratch, loops);
        instructions += results[i].stats.instructions;
    }
    obs::Registry &registry = obs::Registry::global();
    registry.counter("sim/instructions").add(instructions);
    registry.counter("sim/lanes-occupied").add(configs.size());
    flushLoopCounts(registry, loops);
}

std::vector<SimulationResult>
simulateBatch(std::span<const MicroarchConfig> configs, const Trace &trace,
              const SimulationOptions &options)
{
    const DecodedTrace decoded(trace);
    std::vector<SimulationResult> results(configs.size());
    simulateBatch(configs, decoded, options, results, threadSimScratch());
    return results;
}

} // namespace acdse
