/**
 * @file
 * Sampled simulation methodologies (paper Section 9.2).
 *
 * The paper's own campaign uses SimPoint [1] to cut simulation time;
 * SMARTS [2] is the other standard technique. Both are implemented
 * here on top of the cycle-level core so their accuracy/speed
 * trade-off can be measured against full simulation
 * (bench_sampling_methods). Each takes a span of configurations: the
 * trace is decoded (and, for SimPoint, analysed) once and replayed per
 * configuration on the calling thread's threadSimScratch().
 *
 *  - SimPoint: simulate one representative interval per program phase
 *    (phases found by clustering basic-block vectors) and combine the
 *    results with the cluster weights.
 *  - SMARTS: systematic sampling -- simulate every k-th measurement
 *    unit in detail, using the skipped units only for functional
 *    warming of caches and predictors.
 */

#pragma once

#include <span>
#include <vector>

#include "arch/microarch_config.hh"
#include "sim/metrics.hh"
#include "trace/simpoint.hh"
#include "trace/trace.hh"

namespace acdse
{

/** Result of a sampled simulation. */
struct SampledResult
{
    Metrics metrics;                    //!< whole-trace estimate
    std::uint64_t simulatedInstructions; //!< instructions timed in detail
    double detailFraction;              //!< timed / total instructions
};

/**
 * SimPoint-style estimates: time only the representative intervals and
 * scale by the cluster weights. Each interval starts from fresh
 * microarchitectural state, functionally warmed over the preceding
 * interval where there is one.
 *
 * @param configs the design points (results follow this order).
 * @param trace   the full trace.
 * @param options interval length / cluster budget for the analysis.
 */
std::vector<SampledResult>
simulateWithSimPoints(std::span<const MicroarchConfig> configs,
                      const Trace &trace,
                      const SimPointOptions &options = {});

/** Parameters for SMARTS-style systematic sampling. */
struct SmartsOptions
{
    std::size_t unitInstructions = 500; //!< detailed measurement unit
    std::size_t samplingPeriod = 8;     //!< measure every k-th unit
    std::size_t offset = 0;             //!< first measured unit index
};

/**
 * SMARTS-style estimates: every k-th unit is measured in detail; the
 * units in between only warm the caches and predictors functionally,
 * and their cycles are replaced by the measured-unit average.
 */
std::vector<SampledResult>
simulateWithSmarts(std::span<const MicroarchConfig> configs,
                   const Trace &trace, const SmartsOptions &options = {});

} // namespace acdse

