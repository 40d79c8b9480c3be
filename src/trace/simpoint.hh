/**
 * @file
 * SimPoint-style phase analysis (Sherwood et al., ASPLOS-X; the paper's
 * reference [1] and its simulation methodology, Section 3.2).
 *
 * A trace is split into fixed-length intervals; each interval is
 * summarised by its basic-block vector (BBV), BBVs are clustered with
 * k-means, and one representative interval per cluster is selected with
 * a weight proportional to its cluster's size. Simulating only the
 * representatives approximates simulating the whole trace.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace acdse
{

/** One selected simulation point. */
struct SimPoint
{
    std::size_t intervalIndex;  //!< which interval to simulate
    double weight;              //!< fraction of intervals it represents
};

/** Parameters of the SimPoint analysis. */
struct SimPointOptions
{
    std::size_t intervalLength = 2000;  //!< instructions per interval
    std::size_t maxClusters = 30;       //!< paper: up to 30 clusters
    std::uint64_t seed = 7;             //!< clustering seed
};

/** Result of the analysis: chosen points plus diagnostics. */
struct SimPointResult
{
    std::vector<SimPoint> points;   //!< representative intervals
    std::size_t numIntervals = 0;   //!< total intervals in the trace
    double inertia = 0.0;           //!< k-means clustering inertia
};

/**
 * Run SimPoint analysis over a trace.
 *
 * Basic blocks are identified by the address of the instruction that
 * follows each taken control transfer (plus the trace start), exactly
 * recoverable from the instruction stream.
 */
SimPointResult simpointAnalyze(const Trace &trace,
                               const SimPointOptions &options = {});

/**
 * Combine per-interval measurements into a whole-trace estimate using
 * the SimPoint weights: sum_i weight_i * value_i, scaled by the number
 * of intervals.
 */
double simpointWeightedSum(const SimPointResult &result,
                           const std::vector<double> &perIntervalValues);

} // namespace acdse

