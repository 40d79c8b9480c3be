/**
 * @file
 * Many configurations against one decoded trace.
 *
 * A design-space campaign evaluates the *same* trace under hundreds of
 * configurations. simulateBatch() replays one DecodedTrace against
 * each configuration in turn through the one core model (OooCore,
 * sim/core.hh) on a recycled SimScratch:
 *
 *  - DecodedTrace precomputes per-instruction properties (latency,
 *    functional-unit pool, energy event, class flags) once per trace
 *    instead of re-deriving them per config per instruction.
 *  - The SimScratch's components are *reconfigured* -- not
 *    reallocated -- for each simulation, so steady-state replay
 *    performs no heap allocation (bench_campaign asserts this).
 *
 * simulate() is the one-configuration case of the same path, so
 * element i of a batch is bit-identical to simulate(configs[i], ...).
 *
 * Observability: simulateBatch() runs under a "sim/batch" trace span
 * and feeds these counters, all of which include warmup runs:
 *
 *  - "sim/instructions" (instructions committed in timed runs) and
 *    "sim/lanes-occupied" (configurations simulated, i.e. cells);
 *  - "sim/cycles-stepped" (engine loop iterations) and
 *    "sim/cycles-skipped" (cycles jumped by the idle skip);
 *  - per loop iteration, which stages made progress:
 *    "sim/iterations-idle", "sim/iterations-one-stage" and
 *    "sim/iterations-multi-stage" (these three sum to
 *    sim/cycles-stepped), plus "sim/stage-progress/<stage>" for
 *    resolve, commit, issue, dispatch and fetch;
 *  - the idle-skip jump lengths, "sim/idle-skip-log2/NN": bucket 00
 *    counts idle iterations that jumped no cycle, bucket b those that
 *    jumped [2^(b-1), 2^b) cycles (the last bucket is open-ended).
 */

#pragma once

#include <span>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/core.hh"
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
 * Replay @p trace against every configuration in @p configs (any
 * count, one after another) and write one SimulationResult per config
 * into @p results.
 *
 * @param configs the design points (results follow this order).
 * @param trace   the decoded trace (read-only; shareable by threads).
 * @param options warmup control, as for simulate().
 * @param results output span, at least configs.size() entries.
 * @param scratch the simulator storage (threadSimScratch() in library
 *                code; reused across calls).
 */
void simulateBatch(std::span<const MicroarchConfig> configs,
                   const DecodedTrace &trace,
                   const SimulationOptions &options,
                   std::span<SimulationResult> results,
                   SimScratch &scratch);

/** Convenience overload: decodes, replays on threadSimScratch(). */
std::vector<SimulationResult>
simulateBatch(std::span<const MicroarchConfig> configs, const Trace &trace,
              const SimulationOptions &options = {});

} // namespace acdse
