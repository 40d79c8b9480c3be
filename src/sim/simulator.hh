/**
 * @file
 * Top-level simulation facade: configuration + trace -> Metrics.
 *
 * This is the function the whole evaluation pipeline treats as "run a
 * simulation" -- the expensive black box the paper's predictors are
 * designed to avoid calling 18 billion times. It is the one-config
 * case of simulateBatch() (sim/batch.hh): it decodes the trace and
 * replays it through the core model on the calling thread's
 * threadSimScratch(), so a call allocates no simulator components.
 */

#pragma once

#include "arch/microarch_config.hh"
#include "sim/core.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"

namespace acdse
{

/** Options controlling one simulation. */
struct SimulationOptions
{
    /**
     * Instructions used to warm caches and predictors before timing
     * starts (the paper warms for 10M instructions before each
     * SimPoint interval; we scale this to our trace lengths).
     */
    std::size_t warmupInstructions = 0;
};

/** Detailed result of one simulation. */
struct SimulationResult
{
    Metrics metrics;    //!< the four target metrics
    CoreStats stats;    //!< timing statistics
    double dynamicNj;   //!< dynamic energy share
    double staticNj;    //!< leakage + clock energy share
};

/**
 * Run one full simulation of @p trace on @p config. Callers simulating
 * one trace under many configs should decode once and use
 * simulateBatch(); the results are bit-identical.
 */
SimulationResult simulate(const MicroarchConfig &config, const Trace &trace,
                          const SimulationOptions &options = {});

} // namespace acdse

