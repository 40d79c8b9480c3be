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
#include "obs/metrics.hh"
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

// ---- Select corner cases on hand-built traces ------------------------
//
// The replay engine issues from a wakeup-driven ready set instead of
// scanning the issue queue; these traces pin down the cases where the
// two could part ways.

/** One instruction of class @p cls reading the producers at @p d1/d2. */
TraceInstruction
inst(InstClass cls, std::uint32_t d1 = 0, std::uint32_t d2 = 0)
{
    TraceInstruction in{};
    in.cls = cls;
    in.srcDist1 = d1;
    in.srcDist2 = d2;
    return in;
}

/**
 * @p length instructions repeating @p body, at the pcs of a 64-entry
 * loop (I-cache resident after the first pass). Memory operations
 * stride through @p stride bytes per instruction, so a large stride
 * misses every cache level.
 */
Trace
loopTrace(const std::vector<TraceInstruction> &body, std::size_t length,
          std::uint64_t stride = 8)
{
    std::vector<TraceInstruction> insts;
    for (std::size_t i = 0; i < length; ++i) {
        TraceInstruction in = body[i % body.size()];
        in.pc = 0x400000 + 4 * (i % 64);
        in.addr = 0x10000000 + stride * i;
        insts.push_back(in);
    }
    return Trace("hand", std::move(insts));
}

/** The baseline with a pinned width and register-file port counts. */
MicroarchConfig
pinnedConfig(int width, int readPorts, int writePorts)
{
    MicroarchConfig config = DesignSpace::baseline();
    config.set(Param::Width, width);
    config.set(Param::RfReadPorts, readPorts);
    config.set(Param::RfWritePorts, writePorts);
    return config;
}

void
expectReplayMatchesScalar(const Trace &trace, const MicroarchConfig &config,
                          std::size_t warmup = 0)
{
    ASSERT_TRUE(DesignSpace::isValid(config));
    SimulationOptions options;
    options.warmupInstructions = warmup;
    const auto batched = simulateBatch(
        std::span<const MicroarchConfig>(&config, 1), trace, options);
    ASSERT_EQ(batched.size(), 1u);
    expectIdentical(batched[0], simulate(config, trace, options));
}

TEST(BatchSimSelect, BothOperandsFromOneUnissuedProducer)
{
    // Each FP add reads the same producer twice; that producer waits on
    // a divide chain, so it is still unissued when its reader
    // dispatches and both operand nodes hang off one waiter list.
    const Trace trace = loopTrace({inst(InstClass::FpDiv, 4),
                                   inst(InstClass::FpAlu, 1),
                                   inst(InstClass::FpAlu, 1, 1),
                                   inst(InstClass::IntAlu, 1, 1)},
                                  3000);
    for (const int width : {2, 4, 8})
        expectReplayMatchesScalar(trace, pinnedConfig(width, 8, 4));
}

TEST(BatchSimSelect, BackToBackDividesShareOneDivider)
{
    // Independent divides all come ready at once but width 4 has one
    // divider: the blocked ones stay ready and the younger integer ops
    // issue past them, freeing entries of the small issue queue. Behind
    // a missing load, nothing else happens when the divider frees, so
    // the idle skip has to stop there by itself.
    ASSERT_EQ(functionalUnitsForWidth(4).fpMulDiv, 1);
    const Trace trace = loopTrace({inst(InstClass::Load),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::IntAlu)},
                                  2000, 4096);
    for (const int width : {2, 4}) {
        MicroarchConfig config = pinnedConfig(width, 8, 4);
        config.set(Param::IqSize, 8);
        expectReplayMatchesScalar(trace, config);
    }
}

TEST(BatchSimSelect, YoungerOneSourceOpPassesTwoSourceOpOnReadPorts)
{
    // Two read ports at width 8: after an older one-source op takes a
    // port, the next two-source op is blocked and a younger one-source
    // op still issues in the same cycle.
    const Trace trace = loopTrace({inst(InstClass::IntAlu, 40),
                                   inst(InstClass::IntAlu, 40, 50),
                                   inst(InstClass::IntAlu, 40),
                                   inst(InstClass::IntMul, 30, 60),
                                   inst(InstClass::IntAlu)},
                                  4000);
    expectReplayMatchesScalar(trace, pinnedConfig(8, 2, 2));
    expectReplayMatchesScalar(trace, pinnedConfig(8, 2, 1));
}

TEST(BatchSimSelect, ConsumerDispatchedAfterItsLoadIssued)
{
    // A missing load issues at once; its consumer, a divide, dispatches
    // several cycles later, when the load's result cycle is already
    // fixed but still far ahead, so it goes straight onto the timing
    // wheel. Its latency then shows in the commit time.
    std::vector<TraceInstruction> body = {inst(InstClass::Load)};
    for (int i = 0; i < 14; ++i)
        body.push_back(inst(InstClass::IntAlu));
    body.push_back(inst(InstClass::FpDiv, 15, 1));
    const Trace trace = loopTrace(body, 4000, 4096);
    for (const int width : {2, 4})
        expectReplayMatchesScalar(trace, pinnedConfig(width, 8, 4));
}

TEST(BatchSimSelect, ProducerBeforeTheTimedInterval)
{
    // With a 2000-instruction warmup, the first timed instructions read
    // producers that lie before the timed interval: ready at dispatch.
    const Trace trace = loopTrace({inst(InstClass::IntAlu, 5, 37),
                                   inst(InstClass::Load, 11),
                                   inst(InstClass::FpMul, 1, 29),
                                   inst(InstClass::Store, 3, 2)},
                                  6000, 64);
    for (const int width : {2, 8})
        expectReplayMatchesScalar(trace, pinnedConfig(width, 8, 4), 2000);
}

TEST(BatchSim, LoopCountersCoverEveryCycle)
{
    // Without warmup every loop iteration or skipped cycle is one
    // cycle of a timed run: stepped + skipped = total simulated cycles.
    const Trace trace = makeTrace("mcf", 6000);
    const auto configs = DesignSpace::sampleValidConfigs(5, 31);
    obs::Registry &registry = obs::Registry::global();
    obs::Counter &stepped = registry.counter("sim/cycles-stepped");
    obs::Counter &skipped = registry.counter("sim/cycles-skipped");
    const std::uint64_t stepped0 = stepped.value();
    const std::uint64_t skipped0 = skipped.value();
    const auto results =
        simulateBatch(std::span<const MicroarchConfig>(configs), trace);
    std::uint64_t cycles = 0;
    for (const SimulationResult &result : results)
        cycles += result.stats.cycles;
    const std::uint64_t stepped_now = stepped.value() - stepped0;
    const std::uint64_t skipped_now = skipped.value() - skipped0;
    EXPECT_EQ(stepped_now + skipped_now, cycles);
    EXPECT_GT(stepped_now, 0u);
    EXPECT_GT(skipped_now, 0u);
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
