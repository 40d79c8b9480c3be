/**
 * @file
 * Unit tests for the synthetic workload generator and the benchmark
 * suite profiles.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

// The simulated machine's addresses are 32 bits wide; an instruction
// is two addresses, two producer distances and three one-byte fields.
static_assert(sizeof(TraceInstruction) == 20);

Trace
makeTrace(const std::string &name, std::size_t length = 12000)
{
    return TraceGenerator(profileByName(name)).generate(length);
}

TEST(Suites, PaperProgramCounts)
{
    EXPECT_EQ(specCpu2000Profiles().size(), 26u); // full SPEC CPU 2000
    EXPECT_EQ(miBenchProfiles().size(), 19u);     // ghostscript omitted
    EXPECT_EQ(allProfiles().size(), 45u);
}

TEST(Suites, ContainsPaperLandmarks)
{
    // Programs the paper discusses by name.
    for (const char *name :
         {"applu", "art", "mcf", "parser", "gzip", "patricia",
          "tiff2rgba"}) {
        EXPECT_NO_FATAL_FAILURE(profileByName(name)) << name;
    }
    EXPECT_EQ(profileByName("art").suite, Suite::SpecCpu2000);
    EXPECT_EQ(profileByName("patricia").suite, Suite::MiBench);
}

TEST(Suites, NamesAreUniquePerSuite)
{
    const auto spec = programNames(Suite::SpecCpu2000);
    const auto mibench = programNames(Suite::MiBench);
    EXPECT_EQ(spec.size(), 26u);
    EXPECT_EQ(mibench.size(), 19u);
}

TEST(TraceGenerator, ExactLength)
{
    EXPECT_EQ(makeTrace("gzip", 5000).size(), 5000u);
    EXPECT_EQ(makeTrace("art", 123).size(), 123u);
}

TEST(TraceGenerator, Deterministic)
{
    const Trace a = makeTrace("swim", 4000);
    const Trace b = makeTrace("swim", 4000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(TraceGenerator, DifferentProgramsDiffer)
{
    const Trace a = makeTrace("gzip", 2000);
    const Trace b = makeTrace("mcf", 2000);
    int same = 0;
    for (std::size_t i = 0; i < 2000; ++i)
        same += a[i].pc == b[i].pc && a[i].cls == b[i].cls;
    EXPECT_LT(same, 500);
}

TEST(TraceGenerator, BranchFractionTracksProfile)
{
    for (const char *name : {"gzip", "swim", "crc32"}) {
        const ProgramProfile &p = profileByName(name);
        const Trace t = makeTrace(name, 20000);
        EXPECT_NEAR(t.stats().branchFraction, p.branchFraction,
                    p.branchFraction * 0.45)
            << name;
    }
}

TEST(TraceGenerator, FpProgramsHaveFpOps)
{
    const Trace fp = makeTrace("applu", 8000);
    const Trace integer = makeTrace("bzip2", 8000);
    const auto &fs = fp.stats().classFraction;
    const auto &is = integer.stats().classFraction;
    const double fp_frac =
        fs[static_cast<std::size_t>(InstClass::FpAlu)] +
        fs[static_cast<std::size_t>(InstClass::FpMul)] +
        fs[static_cast<std::size_t>(InstClass::FpDiv)];
    const double int_fp_frac =
        is[static_cast<std::size_t>(InstClass::FpAlu)] +
        is[static_cast<std::size_t>(InstClass::FpMul)] +
        is[static_cast<std::size_t>(InstClass::FpDiv)];
    EXPECT_GT(fp_frac, 0.2);
    EXPECT_DOUBLE_EQ(int_fp_frac, 0.0);
}

TEST(TraceGenerator, DependencesPointBackwards)
{
    const Trace t = makeTrace("gcc", 6000);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_LE(t[i].srcDist1, i);
        EXPECT_LE(t[i].srcDist2, i);
    }
}

TEST(TraceGenerator, MemoryAddressesWithinFootprint)
{
    const ProgramProfile &p = profileByName("parser");
    const Trace t = makeTrace("parser", 8000);
    const std::uint64_t base = 0x1000'0000;
    const std::uint64_t footprint =
        static_cast<std::uint64_t>(p.dataFootprintKb * 1024.0);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isMemClass(t[i].cls))
            continue;
        EXPECT_GE(t[i].addr, base);
        EXPECT_LT(t[i].addr, base + footprint);
        EXPECT_EQ(t[i].addr % 8, 0u);
    }
}

TEST(TraceGenerator, CodeFootprintScalesWithProfile)
{
    const Trace small = makeTrace("crc32", 20000);
    const Trace big = makeTrace("gcc", 20000);
    EXPECT_LT(small.stats().distinctPcs, big.stats().distinctPcs);
}

TEST(TraceGenerator, PointerChasingCreatesLoadLoadDeps)
{
    const Trace t = makeTrace("mcf", 12000);
    std::size_t chases = 0, loads = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].cls != InstClass::Load)
            continue;
        ++loads;
        if (t[i].srcDist1 && i >= t[i].srcDist1 &&
            t[i - t[i].srcDist1].cls == InstClass::Load) {
            ++chases;
        }
    }
    ASSERT_GT(loads, 0u);
    EXPECT_GT(static_cast<double>(chases) / loads, 0.15);
}

TEST(TraceGenerator, BranchTargetsAreRealBlockStarts)
{
    const Trace t = makeTrace("twolf", 6000);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].cls == InstClass::Branch && t[i].taken) {
            EXPECT_EQ(t[i + 1].pc, t[i].addr);
        }
    }
}

TEST(TraceGenerator, NotTakenFallsThrough)
{
    const Trace t = makeTrace("twolf", 6000);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].cls == InstClass::Branch && !t[i].taken) {
            EXPECT_EQ(t[i + 1].pc, t[i].pc + 4);
        }
    }
}

TEST(TraceGenerator, MeanDepDistanceOrdersPrograms)
{
    // parser is built serial (3.5), swim parallel (~18): the generated
    // traces must preserve the ordering.
    const double serial = makeTrace("parser", 15000).stats().meanDepDistance;
    const double parallel = makeTrace("swim", 15000).stats().meanDepDistance;
    EXPECT_LT(serial + 4.0, parallel);
}

/** Every profile in both suites must generate without issue. */
class AllProgramsGenerate : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AllProgramsGenerate, GeneratesAndHasBranches)
{
    const ProgramProfile &p = allProfiles()[GetParam()];
    const Trace t = TraceGenerator(p).generate(4000);
    EXPECT_EQ(t.size(), 4000u);
    EXPECT_GT(t.stats().branchFraction, 0.0) << p.name;
    EXPECT_GT(t.stats().distinctPcs, 10u) << p.name;
    EXPECT_GT(t.stats().distinctLines, 2u) << p.name;
}

INSTANTIATE_TEST_SUITE_P(Suites, AllProgramsGenerate,
                         ::testing::Range<std::size_t>(0, 45));

TEST(TraceGeneratorDeathTest, UnknownProgramIsFatal)
{
    EXPECT_DEATH(profileByName("does-not-exist"), "unknown benchmark");
}

TEST(TraceGeneratorDeathTest, DataRegionBeyond32BitsIsFatal)
{
    // Data starts at 0x10000000, so a 4 GiB footprint ends past 2^32.
    ProgramProfile profile = profileByName("gzip");
    profile.dataFootprintKb = 4.0 * 1024 * 1024;
    const TraceGenerator generator(profile);
    EXPECT_DEATH(generator.generate(100), "32-bit address space");
}

} // namespace
} // namespace acdse
