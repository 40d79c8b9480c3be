/**
 * @file
 * Unit and property tests for the out-of-order core timing model.
 */

#include <gtest/gtest.h>

#include "arch/design_space.hh"
#include "base/rng.hh"
#include "sim/core.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

Trace
makeTrace(const std::string &name, std::size_t length = 6000)
{
    return TraceGenerator(profileByName(name)).generate(length);
}

/** A fully independent, cache-resident integer trace (IPC stresser). */
Trace
idealTrace(std::size_t length)
{
    std::vector<TraceInstruction> insts(length);
    for (std::size_t i = 0; i < length; ++i) {
        insts[i].pc = 0x400000 + 4 * (i % 64);
        insts[i].cls = InstClass::IntAlu;
    }
    return Trace("ideal", std::move(insts));
}

/** One timed run over all of @p t on a fresh core for @p config. */
CoreStats
runCore(const MicroarchConfig &config, const Trace &t)
{
    const DecodedTrace decoded(t);
    return OooCore(config, decoded, threadSimScratch()).run(0, t.size());
}

TEST(OooCore, CommitsEveryInstruction)
{
    const Trace t = makeTrace("gzip");
    const CoreStats stats = runCore(DesignSpace::baseline(), t);
    EXPECT_EQ(stats.instructions, t.size());
    EXPECT_GT(stats.cycles, 0u);
}

TEST(OooCore, IpcNeverExceedsWidth)
{
    for (int width : {2, 4, 8}) {
        MicroarchConfig config = DesignSpace::baseline();
        config.set(Param::Width, width);
        const CoreStats stats = runCore(config, idealTrace(8000));
        EXPECT_LE(stats.ipc(), static_cast<double>(width) + 1e-9);
    }
}

TEST(OooCore, IndependentAluCodeApproachesWidth)
{
    // Ideal trace, 4-wide: the only limits are read ports (none: no
    // sources) and the ALU pool; IPC should be close to the width.
    const CoreStats stats =
        runCore(DesignSpace::baseline(), idealTrace(12000));
    EXPECT_GT(stats.ipc(), 3.0);
}

TEST(OooCore, WiderIsFasterOnIlpRichCode)
{
    MicroarchConfig narrow = DesignSpace::baseline();
    narrow.set(Param::Width, 2);
    MicroarchConfig wide = DesignSpace::baseline();
    wide.set(Param::Width, 8);
    const Trace t = idealTrace(12000);
    const CoreStats n = runCore(narrow, t);
    const CoreStats w = runCore(wide, t);
    EXPECT_LT(w.cycles, n.cycles);
}

TEST(OooCore, SerialChainBoundByLatency)
{
    // A strict dependence chain of 1-cycle ALU ops: one per cycle at
    // best, whatever the machine width.
    std::vector<TraceInstruction> insts(4000);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        insts[i].pc = 0x400000 + 4 * (i % 64);
        insts[i].cls = InstClass::IntAlu;
        insts[i].srcDist1 = i ? 1 : 0;
    }
    Trace t("chain", std::move(insts));
    MicroarchConfig config = DesignSpace::baseline();
    config.set(Param::Width, 8);
    const CoreStats stats = runCore(config, t);
    EXPECT_GE(stats.cycles, t.size());
}

TEST(OooCore, DeterministicAcrossRuns)
{
    // One core on fresh storage, one on the thread's scratch after an
    // unrelated run: the scratch is storage, never state.
    const Trace t = makeTrace("twolf");
    const DecodedTrace decoded(t);
    const MicroarchConfig config = DesignSpace::baseline();
    SimScratch fresh;
    OooCore first(config, decoded, fresh);
    const CoreStats a = first.run(0, t.size());
    runCore(DesignSpace::sampleValidConfigs(1, 9)[0], makeTrace("mcf"));
    OooCore second(config, decoded, threadSimScratch());
    const CoreStats b = second.run(0, t.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(first.energy().dynamicEnergyNj(),
              second.energy().dynamicEnergyNj());
}

TEST(OooCore, BiggerDcacheClearlyReducesMisses)
{
    // vpr's hot region (32KB) thrashes an 8KB L1D but fits in 128KB.
    const Trace t = makeTrace("vpr", 10000);
    auto misses = [&](int kb) {
        MicroarchConfig config = DesignSpace::baseline();
        config.set(Param::Dl1Size, kb);
        return runCore(config, t).dl1Misses;
    };
    EXPECT_LT(misses(128) * 3 / 2, misses(8));
}

TEST(OooCore, HardBranchesCostCycles)
{
    // Same structure, but one trace's branches are coin flips.
    auto build = [](bool random) {
        std::vector<TraceInstruction> insts;
        Rng rng(55);
        for (int i = 0; i < 3000; ++i) {
            TraceInstruction inst{};
            inst.pc = 0x400000 + 4 * (i % 512);
            if (i % 8 == 7) {
                inst.cls = InstClass::Branch;
                inst.conditional = true;
                inst.taken = random ? rng.nextBool(0.5) : true;
                inst.target = 0x400000 + 4 * ((i + 1) % 512);
            } else {
                inst.cls = InstClass::IntAlu;
            }
            insts.push_back(inst);
        }
        return Trace(random ? "rand" : "easy", std::move(insts));
    };
    const MicroarchConfig config = DesignSpace::baseline();
    const CoreStats easy = runCore(config, build(false));
    const CoreStats hard = runCore(config, build(true));
    EXPECT_GT(hard.mispredicts, easy.mispredicts + 100);
    EXPECT_GT(hard.cycles, easy.cycles);
}

TEST(OooCore, MemoryBoundCodeIsSlow)
{
    const Trace fast = makeTrace("crc32", 8000);
    const Trace slow = makeTrace("mcf", 8000);
    const MicroarchConfig config = DesignSpace::baseline();
    const CoreStats f = runCore(config, fast);
    const CoreStats s = runCore(config, slow);
    EXPECT_GT(f.ipc(), 2.0 * s.ipc());
}

TEST(OooCore, IntervalRunsPartition)
{
    // Two runs on one core: the second starts where the first ended,
    // with the caches and predictors it left warm.
    const Trace t = makeTrace("gap", 6000);
    const DecodedTrace decoded(t);
    OooCore core(DesignSpace::baseline(), decoded, threadSimScratch());
    const CoreStats first = core.run(0, 3000);
    const CoreStats second = core.run(3000, 6000);
    EXPECT_EQ(first.instructions + second.instructions, 6000u);
}

TEST(OooCore, FunctionalWarmingReducesTimedMisses)
{
    // warm() on a core leaves its caches and predictors hot for the
    // next run() on it.
    const Trace t = makeTrace("galgel", 12000);
    const DecodedTrace decoded(t);
    const MicroarchConfig config = DesignSpace::baseline();
    SimScratch cold_storage;
    const CoreStats cold =
        OooCore(config, decoded, cold_storage).run(6000, 12000);
    OooCore warmed(config, decoded, threadSimScratch());
    warmed.warm(0, 6000);
    const CoreStats hot = warmed.run(6000, 12000);
    EXPECT_EQ(hot.instructions, cold.instructions);
    EXPECT_LT(hot.il1Misses + hot.dl1Misses,
              cold.il1Misses + cold.dl1Misses);
}

TEST(OooCore, WarmupReducesTimedMisses)
{
    const Trace t = makeTrace("galgel", 12000);
    SimulationOptions cold;
    SimulationOptions warm;
    warm.warmupInstructions = 6000;
    const SimulationResult c = simulate(DesignSpace::baseline(), t, cold);
    const SimulationResult w = simulate(DesignSpace::baseline(), t, warm);
    // The warmed run times fewer instructions but its per-instruction
    // miss rate must be no higher.
    const double cold_rate =
        static_cast<double>(c.stats.dl1Misses) / c.stats.instructions;
    const double warm_rate =
        static_cast<double>(w.stats.dl1Misses) / w.stats.instructions;
    EXPECT_LE(warm_rate, cold_rate * 1.05);
}

TEST(OooCore, TinyRegisterFileStallsDispatch)
{
    MicroarchConfig big = DesignSpace::baseline();
    big.set(Param::RfSize, 160);
    MicroarchConfig tiny = DesignSpace::baseline();
    tiny.set(Param::RfSize, 40);
    const Trace t = makeTrace("swim", 8000);
    const CoreStats b = runCore(big, t);
    const CoreStats s = runCore(tiny, t);
    EXPECT_GT(s.dispatchStallRegs, b.dispatchStallRegs);
    EXPECT_GT(s.cycles, b.cycles);
}

/** Simulation must complete for any valid configuration. */
class AnyConfigRuns : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AnyConfigRuns, CompletesAndIsSane)
{
    Rng rng(GetParam());
    const MicroarchConfig config = DesignSpace::sampleValid(rng);
    const Trace t = makeTrace("eon", 4000);
    const SimulationResult r = simulate(config, t);
    EXPECT_EQ(r.stats.instructions, 4000u);
    EXPECT_GT(r.metrics.cycles, 0.0);
    EXPECT_GT(r.metrics.energyNj, 0.0);
    EXPECT_GT(r.metrics.ed, 0.0);
    EXPECT_LE(r.stats.ipc(), static_cast<double>(config.width()));
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, AnyConfigRuns,
                         ::testing::Range<std::uint64_t>(100, 112));

} // namespace
} // namespace acdse
