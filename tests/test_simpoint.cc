/**
 * @file
 * Unit tests for the SimPoint phase analysis.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "trace/simpoint.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

/** A trace with two starkly different phases (A-blocks then B-blocks). */
Trace
twoPhaseTrace(std::size_t length)
{
    std::vector<TraceInstruction> insts;
    for (std::size_t i = 0; i < length; ++i) {
        TraceInstruction inst{};
        const bool phase_b = i >= length / 2;
        const std::uint32_t base = phase_b ? 0x500000 : 0x400000;
        inst.pc = base + 4 * (i % 16);
        if (i % 16 == 15) {
            inst.cls = InstClass::Branch;
            inst.conditional = true;
            inst.taken = true;
            inst.addr = base;
        } else {
            inst.cls = phase_b ? InstClass::FpAlu : InstClass::IntAlu;
        }
        insts.push_back(inst);
    }
    return Trace("two-phase", std::move(insts));
}

TEST(SimPoint, WeightsSumToOne)
{
    const Trace t = TraceGenerator(profileByName("gzip")).generate(16000);
    const SimPointResult result = simpointAnalyze(t);
    double total = 0.0;
    for (const auto &point : result.points)
        total += point.weight;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SimPoint, IndicesInRange)
{
    const Trace t = TraceGenerator(profileByName("fft")).generate(9000);
    SimPointOptions options;
    options.intervalLength = 1000;
    const SimPointResult result = simpointAnalyze(t, options);
    EXPECT_EQ(result.numIntervals, 9u);
    for (const auto &point : result.points)
        EXPECT_LT(point.intervalIndex, result.numIntervals);
}

TEST(SimPoint, AtMostMaxClusters)
{
    const Trace t = TraceGenerator(profileByName("gcc")).generate(20000);
    SimPointOptions options;
    options.intervalLength = 500;
    options.maxClusters = 7;
    const SimPointResult result = simpointAnalyze(t, options);
    EXPECT_LE(result.points.size(), 7u);
    EXPECT_GE(result.points.size(), 1u);
}

TEST(SimPoint, TwoPhasesPickRepresentativesFromBoth)
{
    const Trace t = twoPhaseTrace(16000);
    SimPointOptions options;
    options.intervalLength = 1000;
    options.maxClusters = 2;
    const SimPointResult result = simpointAnalyze(t, options);
    ASSERT_EQ(result.points.size(), 2u);
    // One representative from each half, each with ~half the weight.
    const bool covers_both =
        (result.points[0].intervalIndex < 8) !=
        (result.points[1].intervalIndex < 8);
    EXPECT_TRUE(covers_both);
    EXPECT_NEAR(result.points[0].weight, 0.5, 0.01);
}

TEST(SimPoint, WeightedSumReconstructsUniformMetric)
{
    const Trace t = twoPhaseTrace(8000);
    SimPointOptions options;
    options.intervalLength = 1000;
    const SimPointResult result = simpointAnalyze(t, options);
    // If every interval has value v, the estimate is v * numIntervals.
    std::vector<double> per_interval(result.numIntervals, 3.0);
    EXPECT_NEAR(simpointWeightedSum(result, per_interval),
                3.0 * static_cast<double>(result.numIntervals), 1e-9);
}

TEST(SimPoint, WeightedSumTracksPhaseMix)
{
    const Trace t = twoPhaseTrace(16000);
    SimPointOptions options;
    options.intervalLength = 1000;
    options.maxClusters = 2;
    const SimPointResult result = simpointAnalyze(t, options);
    // Phase A intervals "cost" 10, phase B intervals 20: the estimate
    // must land at the true total of 16 intervals * 15 average.
    std::vector<double> per_interval(result.numIntervals);
    for (std::size_t i = 0; i < per_interval.size(); ++i)
        per_interval[i] = i < 8 ? 10.0 : 20.0;
    EXPECT_NEAR(simpointWeightedSum(result, per_interval), 240.0, 1.0);
}

TEST(SimPoint, DeterministicForFixedSeed)
{
    const Trace t = TraceGenerator(profileByName("lame")).generate(12000);
    const SimPointResult a = simpointAnalyze(t);
    const SimPointResult b = simpointAnalyze(t);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].intervalIndex, b.points[i].intervalIndex);
        EXPECT_DOUBLE_EQ(a.points[i].weight, b.points[i].weight);
    }
}

} // namespace
} // namespace acdse
