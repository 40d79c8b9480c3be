/**
 * @file
 * Bit-identity contract of the batched entry points (sim/batch.hh,
 * sim/sampled_sim.hh): a batch of configurations, replayed one after
 * another on one scratch, must reproduce each configuration simulated
 * on its own ("scalar": one config per call) EXACTLY -- EXPECT_EQ on
 * the doubles, not EXPECT_NEAR -- for every batch size, warmup
 * setting, sampling methodology and thread count. Both run the same
 * operation sequence, so any divergence is state leaking through the
 * recycled storage, not rounding. The model's own numbers are pinned
 * by the goldens (tests/test_sim_golden.cc).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
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
    // last resized. The reference runs on the thread's own scratch,
    // which has a different history.
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

TEST(BatchSim, ScratchAfterLargestDesignPointFitsItsBudget)
{
    // Every parameter at its largest value sizes every table of a
    // scratch to its largest; the tables store 32-bit addresses and
    // tags, a cache set's metadata is two words and a gshare counter
    // two bits, so the whole scratch stays below 440 KiB.
    std::array<int, kNumParams> values{};
    for (std::size_t i = 0; i < kNumParams; ++i)
        values[i] = paramSpecs()[i].max();
    const MicroarchConfig largest(values);
    ASSERT_TRUE(DesignSpace::isValid(largest));

    SimScratch scratch;
    const DecodedTrace decoded(makeTrace("gcc", 2000));
    SimulationResult result;
    simulateBatch(std::span<const MicroarchConfig>(&largest, 1), decoded,
                  SimulationOptions{},
                  std::span<SimulationResult>(&result, 1), scratch);

    // One block per set: a 4-byte header (epoch, valid and dirty
    // masks), a 4-byte word of nibble LRU ages, then a 4-byte tag per
    // way. 4 MiB of 64-byte lines is 8192 8-way sets; 128 KiB of
    // 32-byte lines is 2048 2-way or 1024 4-way sets. 32K gshare
    // counters pack four to a byte.
    EXPECT_EQ(scratch.hierarchy->l2().storageBytes(), 8192u * 40);
    EXPECT_EQ(scratch.hierarchy->il1().storageBytes(), 2048u * 16);
    EXPECT_EQ(scratch.hierarchy->dl1().storageBytes(), 1024u * 24);
    EXPECT_EQ(scratch.bpred->storageBytes(), 8u * 1024);
    EXPECT_EQ(scratch.btb->storageBytes(), 4096u * 8);
    EXPECT_LE(scratch.storageBytes(), 440u * 1024);
}

TEST(BatchSim, DecodedTraceOutlivesItsTrace)
{
    // A decode is self-contained: replaying it after its source trace
    // is destroyed (ASan would flag any read of the freed trace) gives
    // exactly what a decode of a live trace gives.
    std::optional<DecodedTrace> orphan;
    {
        const Trace dropped = makeTrace("gcc", 6000);
        orphan.emplace(dropped);
    }
    const Trace live = makeTrace("gcc", 6000);
    const DecodedTrace reference(live);
    EXPECT_EQ(orphan->name(), "gcc");
    EXPECT_EQ(orphan->size(), live.size());

    const auto configs = DesignSpace::sampleValidConfigs(4, 77);
    SimulationOptions options;
    options.warmupInstructions = 1000;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        const std::span<const MicroarchConfig> config(&configs[i], 1);
        SimulationResult fromOrphan, fromLive;
        simulateBatch(config, *orphan, options,
                      std::span<SimulationResult>(&fromOrphan, 1),
                      threadSimScratch());
        simulateBatch(config, reference, options,
                      std::span<SimulationResult>(&fromLive, 1),
                      threadSimScratch());
        expectIdentical(fromOrphan, fromLive);
    }
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

TEST(BatchSim, StageCountersPartitionIterations)
{
    // Every loop iteration is idle, one-stage or multi-stage; every
    // idle iteration lands in one idle-skip bucket; each stage moved in
    // at most the non-idle iterations and at least one-stage ones.
    const Trace trace = makeTrace("gcc", 6000);
    const auto configs = DesignSpace::sampleValidConfigs(4, 77);
    obs::Registry &registry = obs::Registry::global();
    const obs::Snapshot before = registry.snapshot();
    SimulationOptions options;
    options.warmupInstructions = 1000;
    simulateBatch(std::span<const MicroarchConfig>(configs), trace, options);
    const obs::Snapshot delta = obs::diff(before, registry.snapshot());
    auto counter = [&](const std::string &name) {
        const auto it = delta.counters.find(name);
        return it == delta.counters.end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t stepped = counter("sim/cycles-stepped");
    const std::uint64_t idle = counter("sim/iterations-idle");
    const std::uint64_t one = counter("sim/iterations-one-stage");
    const std::uint64_t multi = counter("sim/iterations-multi-stage");
    EXPECT_GT(stepped, 0u);
    EXPECT_GT(idle, 0u);
    EXPECT_GT(one, 0u);
    EXPECT_GT(multi, 0u);
    EXPECT_EQ(idle + one + multi, stepped);

    std::uint64_t skip_buckets = 0;
    for (std::size_t b = 0; b < kSkipBuckets; ++b) {
        char name[32];
        std::snprintf(name, sizeof(name), "sim/idle-skip-log2/%02zu", b);
        skip_buckets += counter(name);
    }
    EXPECT_EQ(skip_buckets, idle);

    std::uint64_t stage_sum = 0;
    for (const char *stage :
         {"resolve", "commit", "issue", "dispatch", "fetch"}) {
        const std::uint64_t moved =
            counter(std::string("sim/stage-progress/") + stage);
        SCOPED_TRACE(stage);
        EXPECT_GT(moved, 0u);
        EXPECT_LE(moved, one + multi);
        stage_sum += moved;
    }
    EXPECT_GE(stage_sum, one + 2 * multi);
    EXPECT_LE(stage_sum, one + kCoreStages * multi);
}

TEST(BatchSim, SimPointBatchBitIdenticalToScalar)
{
    const Trace trace = makeTrace("gzip", 24000);
    const auto configs = DesignSpace::sampleValidConfigs(9, 4242);
    SimPointOptions options;
    options.intervalLength = 2000;
    options.maxClusters = 6;

    const auto batched = simulateWithSimPoints(
        std::span<const MicroarchConfig>(configs), trace, options);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        const SampledResult scalar = simulateWithSimPoints(
            std::span<const MicroarchConfig>(&configs[i], 1), trace,
            options)[0];
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

    const auto batched = simulateWithSmarts(
        std::span<const MicroarchConfig>(configs), trace, options);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        const SampledResult scalar = simulateWithSmarts(
            std::span<const MicroarchConfig>(&configs[i], 1), trace,
            options)[0];
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
// and the process-wide cacti memo table; each worker replays on its
// own thread's scratch, as campaign fill does.
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
                         const std::size_t first = g * kSimLanes;
                         const std::size_t n = std::min(
                             kSimLanes, configs.size() - first);
                         simulateBatch(
                             std::span<const MicroarchConfig>(
                                 configs.data() + first, n),
                             decoded, options,
                             std::span<SimulationResult>(
                                 batched.data() + first, n),
                             threadSimScratch());
                     });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "config " << i);
        expectIdentical(batched[i],
                        simulate(configs[i], trace, options));
    }
}

} // namespace
} // namespace acdse
