/**
 * @file
 * Tests for the SimPoint- and SMARTS-style sampled-simulation
 * methodologies (paper Section 9.2): both must approximate full
 * simulation while timing only a fraction of the instructions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "arch/design_space.hh"
#include "base/statistics.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

Trace
makeTrace(const std::string &name, std::size_t length)
{
    return TraceGenerator(profileByName(name)).generate(length);
}

SampledResult
simPoints(const MicroarchConfig &config, const Trace &trace,
          const SimPointOptions &options)
{
    return simulateWithSimPoints(
        std::span<const MicroarchConfig>(&config, 1), trace, options)[0];
}

SampledResult
smarts(const MicroarchConfig &config, const Trace &trace,
       const SmartsOptions &options = {})
{
    return simulateWithSmarts(std::span<const MicroarchConfig>(&config, 1),
                              trace, options)[0];
}

double
relError(double estimate, double truth)
{
    return std::abs(estimate - truth) / truth;
}

class SampledSimAccuracy
    : public ::testing::TestWithParam<const char *>
{
};

// At our reduced trace scale, sampled estimates carry visible
// phase-sampling variance (cold-start ramps are a large fraction of a
// 24k-instruction trace). What design-space exploration needs is that
// sampled simulation *ranks configurations* like full simulation and
// lands in the right magnitude band, which is what we assert.

TEST_P(SampledSimAccuracy, SimPointTracksFullSimulation)
{
    const Trace trace = makeTrace(GetParam(), 24000);
    const auto configs = DesignSpace::sampleValidConfigs(6, 77);

    SimPointOptions options;
    options.intervalLength = 2000;
    options.maxClusters = 6;

    std::vector<double> full_cycles, sampled_cycles;
    double worst_rel = 0.0;
    for (const auto &config : configs) {
        const SimulationResult full = simulate(config, trace);
        const SampledResult sampled =
            simPoints(config, trace, options);
        full_cycles.push_back(full.metrics.cycles);
        sampled_cycles.push_back(sampled.metrics.cycles);
        worst_rel = std::max(worst_rel,
                             relError(sampled.metrics.cycles,
                                      full.metrics.cycles));
        EXPECT_LT(sampled.detailFraction, 0.75) << GetParam();
    }
    EXPECT_GT(stats::correlation(sampled_cycles, full_cycles), 0.85)
        << GetParam();
    EXPECT_LT(worst_rel, 0.8) << GetParam();
}

TEST_P(SampledSimAccuracy, SmartsTracksFullSimulation)
{
    const Trace trace = makeTrace(GetParam(), 24000);
    const auto configs = DesignSpace::sampleValidConfigs(6, 78);

    SmartsOptions options;
    options.unitInstructions = 500;
    options.samplingPeriod = 4;

    std::vector<double> full_cycles, sampled_cycles;
    double worst_rel = 0.0;
    for (const auto &config : configs) {
        const SimulationResult full = simulate(config, trace);
        const SampledResult sampled =
            smarts(config, trace, options);
        full_cycles.push_back(full.metrics.cycles);
        sampled_cycles.push_back(sampled.metrics.cycles);
        worst_rel = std::max(worst_rel,
                             relError(sampled.metrics.cycles,
                                      full.metrics.cycles));
        EXPECT_NEAR(sampled.detailFraction, 0.25, 0.05) << GetParam();
    }
    EXPECT_GT(stats::correlation(sampled_cycles, full_cycles), 0.85)
        << GetParam();
    EXPECT_LT(worst_rel, 0.8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, SampledSimAccuracy,
                         ::testing::Values("gzip", "parser", "galgel",
                                           "crc32"));

TEST(SampledSim, SimPointTimesOnlyRepresentatives)
{
    const Trace trace = makeTrace("gcc", 20000);
    SimPointOptions options;
    options.intervalLength = 1000;
    options.maxClusters = 5;
    const SampledResult sampled =
        simPoints(DesignSpace::baseline(), trace, options);
    // At most 5 representative intervals of 1000 instructions.
    EXPECT_LE(sampled.simulatedInstructions, 5000u);
    EXPECT_GT(sampled.metrics.cycles, 0.0);
}

TEST(SampledSim, SmartsDenserSamplingIsCloser)
{
    const Trace trace = makeTrace("twolf", 24000);
    const MicroarchConfig config = DesignSpace::baseline();
    const SimulationResult full = simulate(config, trace);

    SmartsOptions sparse;
    sparse.samplingPeriod = 12;
    SmartsOptions dense;
    dense.samplingPeriod = 2;
    const double sparse_err = relError(
        smarts(config, trace, sparse).metrics.cycles,
        full.metrics.cycles);
    const double dense_err = relError(
        smarts(config, trace, dense).metrics.cycles,
        full.metrics.cycles);
    // Denser sampling must not be (much) worse.
    EXPECT_LT(dense_err, sparse_err + 0.05);
}

TEST(SampledSim, SmartsOffsetChangesUnits)
{
    const Trace trace = makeTrace("gap", 16000);
    const MicroarchConfig config = DesignSpace::baseline();
    SmartsOptions a, b;
    a.offset = 0;
    b.offset = 3;
    const SampledResult ra = smarts(config, trace, a);
    const SampledResult rb = smarts(config, trace, b);
    EXPECT_NE(ra.metrics.cycles, rb.metrics.cycles);
}

TEST(SampledSimDeathTest, RejectsZeroUnit)
{
    const Trace trace = makeTrace("gap", 2000);
    SmartsOptions options;
    options.unitInstructions = 0;
    EXPECT_DEATH(
        smarts(DesignSpace::baseline(), trace, options),
        "empty measurement unit");
}

} // namespace
} // namespace acdse
