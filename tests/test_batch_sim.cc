/**
 * @file
 * Bit-identity contract of the decoded-trace simulator replay
 * (sim/batch.hh): for every batch size, warmup setting and sampling
 * methodology, the replay path must reproduce the scalar path's
 * metrics EXACTLY -- EXPECT_EQ on the doubles, not EXPECT_NEAR. Both
 * run the same operation sequence, so any divergence is a
 * transcription bug, not rounding.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "arch/design_space.hh"
#include "base/thread_pool.hh"
#include "sim/batch.hh"
#include "sim/cacti.hh"
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

void
expectIdentical(const SimulationResult &batched,
                const SimulationResult &scalar)
{
    // All four campaign metrics, exactly.
    EXPECT_EQ(batched.metrics.cycles, scalar.metrics.cycles);
    EXPECT_EQ(batched.metrics.energyNj, scalar.metrics.energyNj);
    EXPECT_EQ(batched.metrics.ed, scalar.metrics.ed);
    EXPECT_EQ(batched.metrics.edd, scalar.metrics.edd);
    EXPECT_EQ(batched.dynamicNj, scalar.dynamicNj);
    EXPECT_EQ(batched.staticNj, scalar.staticNj);
    // Every timing statistic the core reports.
    EXPECT_EQ(batched.stats.cycles, scalar.stats.cycles);
    EXPECT_EQ(batched.stats.instructions, scalar.stats.instructions);
    EXPECT_EQ(batched.stats.branches, scalar.stats.branches);
    EXPECT_EQ(batched.stats.mispredicts, scalar.stats.mispredicts);
    EXPECT_EQ(batched.stats.btbMisses, scalar.stats.btbMisses);
    EXPECT_EQ(batched.stats.il1Misses, scalar.stats.il1Misses);
    EXPECT_EQ(batched.stats.dl1Misses, scalar.stats.dl1Misses);
    EXPECT_EQ(batched.stats.l2Misses, scalar.stats.l2Misses);
    EXPECT_EQ(batched.stats.dispatchStallRob,
              scalar.stats.dispatchStallRob);
    EXPECT_EQ(batched.stats.dispatchStallIq,
              scalar.stats.dispatchStallIq);
    EXPECT_EQ(batched.stats.dispatchStallLsq,
              scalar.stats.dispatchStallLsq);
    EXPECT_EQ(batched.stats.dispatchStallRegs,
              scalar.stats.dispatchStallRegs);
    EXPECT_EQ(batched.stats.fetchStallBranches,
              scalar.stats.fetchStallBranches);
}

// Batch sizes: a lone config and several configs replayed in sequence
// through one call's scratch.
class BatchSimSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchSimSizes, BitIdenticalToScalar)
{
    const std::size_t batch = GetParam();
    const Trace trace = makeTrace("gcc", 8000);
    const auto configs =
        DesignSpace::sampleValidConfigs(batch, 1234 + batch);

    for (const std::size_t warmup : {std::size_t{0}, std::size_t{2000}}) {
        SimulationOptions options;
        options.warmupInstructions = warmup;
        const auto batched = simulateBatch(
            std::span<const MicroarchConfig>(configs), trace, options);
        ASSERT_EQ(batched.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "config " << i << " warmup " << warmup);
            expectIdentical(batched[i],
                            simulate(configs[i], trace, options));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AroundLaneCount, BatchSimSizes,
                         ::testing::Values(1, 7, 8, 9));

/**
 * A fixed walk through the sizes a recycled scratch must re-shape
 * for: L2 (with both L1s), predictor, BTB, ROB and width go
 * large -> small -> large, in and out of step with each other.
 */
std::vector<MicroarchConfig>
resizingConfigs()
{
    struct Sizes
    {
        int l2Kb, l1Kb, bpredK, btbK, rob, width;
    };
    const Sizes walk[] = {
        {4096, 128, 32, 4, 160, 8}, {256, 8, 1, 1, 32, 2},
        {4096, 128, 32, 4, 160, 8}, {1024, 32, 8, 2, 96, 4},
        {256, 8, 32, 1, 160, 6},    {4096, 128, 1, 4, 32, 2},
        {256, 8, 1, 1, 32, 2},      {2048, 64, 16, 4, 128, 4},
        {4096, 128, 32, 4, 160, 8}, {512, 16, 2, 1, 48, 2},
    };
    std::vector<MicroarchConfig> configs;
    for (const Sizes &s : walk) {
        MicroarchConfig config = DesignSpace::baseline();
        config.set(Param::L2Size, s.l2Kb);
        config.set(Param::Il1Size, s.l1Kb);
        config.set(Param::Dl1Size, s.l1Kb);
        config.set(Param::BpredSize, s.bpredK);
        config.set(Param::BtbSize, s.btbK);
        config.set(Param::RobSize, s.rob);
        config.set(Param::IqSize, s.rob / 2);
        config.set(Param::LsqSize, s.rob / 2);
        config.set(Param::Width, s.width);
        configs.push_back(config);
    }
    return configs;
}

TEST(BatchSim, ScratchReuseAcrossTracesAndBatches)
{
    // One scratch serves different traces and differently sized
    // configs in sequence; reconfigure/epoch-reset must leave no
    // residue from earlier simulations, whichever way the storage was
    // last resized (this is exactly how campaign workers use it).
    SimScratch scratch;
    SimulationOptions options;
    options.warmupInstructions = 1000;
    const auto configs = resizingConfigs();

    for (const char *program : {"gcc", "mcf", "equake"}) {
        const Trace trace = makeTrace(program, 6000);
        const DecodedTrace decoded(trace);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << program << " config " << i);
            ASSERT_TRUE(DesignSpace::isValid(configs[i]));
            SimulationResult batched;
            simulateBatch(std::span<const MicroarchConfig>(&configs[i], 1),
                          decoded, options,
                          std::span<SimulationResult>(&batched, 1),
                          scratch);
            expectIdentical(batched, simulate(configs[i], trace, options));
        }
    }
}

TEST(BatchSim, SimPointBatchBitIdenticalToScalar)
{
    const Trace trace = makeTrace("gzip", 24000);
    const auto configs = DesignSpace::sampleValidConfigs(9, 4242);
    SimPointOptions options;
    options.intervalLength = 2000;
    options.maxClusters = 6;

    const auto batched = simulateWithSimPointsBatch(
        std::span<const MicroarchConfig>(configs), trace, options);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        const SampledResult scalar =
            simulateWithSimPoints(configs[i], trace, options);
        EXPECT_EQ(batched[i].metrics.cycles, scalar.metrics.cycles);
        EXPECT_EQ(batched[i].metrics.energyNj, scalar.metrics.energyNj);
        EXPECT_EQ(batched[i].metrics.ed, scalar.metrics.ed);
        EXPECT_EQ(batched[i].metrics.edd, scalar.metrics.edd);
        EXPECT_EQ(batched[i].simulatedInstructions,
                  scalar.simulatedInstructions);
        EXPECT_EQ(batched[i].detailFraction, scalar.detailFraction);
    }
}

TEST(BatchSim, SmartsBatchBitIdenticalToScalar)
{
    const Trace trace = makeTrace("ammp", 16000);
    const auto configs = DesignSpace::sampleValidConfigs(9, 99);
    SmartsOptions options;
    options.unitInstructions = 500;
    options.samplingPeriod = 8;
    options.offset = 3;

    const auto batched = simulateWithSmartsBatch(
        std::span<const MicroarchConfig>(configs), trace, options);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        const SampledResult scalar =
            simulateWithSmarts(configs[i], trace, options);
        EXPECT_EQ(batched[i].metrics.cycles, scalar.metrics.cycles);
        EXPECT_EQ(batched[i].metrics.energyNj, scalar.metrics.energyNj);
        EXPECT_EQ(batched[i].metrics.ed, scalar.metrics.ed);
        EXPECT_EQ(batched[i].metrics.edd, scalar.metrics.edd);
        EXPECT_EQ(batched[i].simulatedInstructions,
                  scalar.simulatedInstructions);
        EXPECT_EQ(batched[i].detailFraction, scalar.detailFraction);
    }
}

TEST(BatchSim, CactiMemoisationServesRepeatedGeometry)
{
    const CactiMemoStats before = cactiMemoStats();
    // Same geometry twice: the second round must be all hits.
    (void)estimateCache(32768, 2, 32, 1);
    (void)estimateCache(32768, 2, 32, 1);
    const CactiMemoStats after = cactiMemoStats();
    EXPECT_GE(after.hits, before.hits + 1);
    // And memoisation must not change values.
    const ArrayEstimate a = estimateCache(16384, 4, 32, 1);
    const ArrayEstimate b = estimateCache(16384, 4, 32, 1);
    EXPECT_EQ(a.readEnergyNj, b.readEnergyNj);
    EXPECT_EQ(a.writeEnergyNj, b.writeEnergyNj);
    EXPECT_EQ(a.leakageNjPerCycle, b.leakageNjPerCycle);
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
}

// TSan-facing: concurrent batches share one immutable DecodedTrace
// and the process-wide cacti memo table; each worker owns its scratch.
// Run under ACDSE_SANITIZE=thread by the CI thread-safety job (suite
// name is matched by the BatchSim regex in ci.yml).
TEST(BatchSimConcurrency, ParallelBatchesShareDecodedTrace)
{
    const Trace trace = makeTrace("vpr", 6000);
    const DecodedTrace decoded(trace);
    const auto configs = DesignSpace::sampleValidConfigs(24, 7);
    SimulationOptions options;
    options.warmupInstructions = 1000;

    ThreadPool pool(4);
    std::vector<SimulationResult> batched(configs.size());
    pool.parallelFor(0, (configs.size() + kSimLanes - 1) / kSimLanes,
                     [&](std::size_t g) {
                         SimScratch scratch;
                         const std::size_t first = g * kSimLanes;
                         const std::size_t n = std::min(
                             kSimLanes, configs.size() - first);
                         simulateBatch(
                             std::span<const MicroarchConfig>(
                                 configs.data() + first, n),
                             decoded, options,
                             std::span<SimulationResult>(
                                 batched.data() + first, n),
                             scratch);
                     });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        expectIdentical(batched[i],
                        simulate(configs[i], trace, options));
    }
}

} // namespace
} // namespace acdse
