/**
 * @file
 * Unit tests for design-space enumeration, filtering and sampling
 * (paper Sections 3.1 and 3.3).
 */

#include <gtest/gtest.h>

#include <array>
#include <unordered_set>

#include "arch/design_space.hh"
#include "base/rng.hh"

namespace acdse
{
namespace
{

TEST(DesignSpace, RawCountMatchesPaper)
{
    // 4*17*10*10*16*8*8*6*3*4*5*5*5 = 62,668,800,000 -- the paper's
    // "63 billion different configurations".
    EXPECT_EQ(DesignSpace::totalRawPoints(), 62668800000ULL);
}

TEST(DesignSpace, ValidCountIsExact)
{
    // Independent recomputation: sum over ROB of (#iq <= rob)^2 for the
    // IQ/LSQ constraints, times the 52 legal (read, write) port pairs
    // (rd=2:2, 4:4, 6:6, then 8 for rd >= 8), times the free-parameter
    // product.
    std::uint64_t triples = 0;
    for (int rob = 32; rob <= 160; rob += 8) {
        const std::uint64_t iq_ok =
            static_cast<std::uint64_t>(std::min(rob, 80) / 8);
        triples += iq_ok * iq_ok;
    }
    const std::uint64_t expected =
        triples * 52ULL * (4ULL * 16 * 6 * 3 * 4 * 5 * 5 * 5);
    EXPECT_EQ(DesignSpace::totalValidPoints(), expected);
    EXPECT_LT(DesignSpace::totalValidPoints(),
              DesignSpace::totalRawPoints());
    // Same order of magnitude as the paper's 18 billion.
    EXPECT_GT(DesignSpace::totalValidPoints(), 10'000'000'000ULL);
    EXPECT_LT(DesignSpace::totalValidPoints(), 63'000'000'000ULL);
}

TEST(DesignSpace, BaselineIsValid)
{
    EXPECT_TRUE(DesignSpace::isValid(DesignSpace::baseline()));
}

TEST(DesignSpace, BaselineEncodesAsPaperVector)
{
    // x_baseline = (4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2MB)
    // (we keep L2 in KB: 2048).
    const std::vector<double> expected{4,  96, 32, 48, 96, 8,  4,
                                       16, 4,  16, 32, 32, 2048};
    EXPECT_EQ(DesignSpace::baseline().asVector(), expected);
}

TEST(DesignSpace, RejectsIqLargerThanRob)
{
    MicroarchConfig config;
    config.set(Param::RobSize, 32);
    config.set(Param::IqSize, 40);
    EXPECT_FALSE(DesignSpace::isValid(config));
}

TEST(DesignSpace, RejectsLsqLargerThanRob)
{
    MicroarchConfig config;
    config.set(Param::RobSize, 32);
    config.set(Param::LsqSize, 48);
    config.set(Param::IqSize, 32);
    EXPECT_FALSE(DesignSpace::isValid(config));
}

TEST(DesignSpace, RejectsMoreWritePortsThanReadPorts)
{
    MicroarchConfig config;
    config.set(Param::RfReadPorts, 2);
    config.set(Param::RfWritePorts, 5);
    EXPECT_FALSE(DesignSpace::isValid(config));
}

TEST(DesignSpace, SmallRegisterFileStaysLegal)
{
    // The paper's worst-percentile analysis (Fig. 2i) relies on RF=40
    // configurations being part of the space.
    MicroarchConfig config;
    config.set(Param::RfSize, 40);
    config.set(Param::RobSize, 160);
    config.set(Param::IqSize, 80);
    config.set(Param::LsqSize, 80);
    EXPECT_TRUE(DesignSpace::isValid(config));
}

TEST(DesignSpace, SampledConfigsAreValidAndDistinct)
{
    const auto configs = DesignSpace::sampleValidConfigs(500, 99);
    EXPECT_EQ(configs.size(), 500u);
    std::unordered_set<std::string> keys;
    for (const auto &config : configs) {
        EXPECT_TRUE(DesignSpace::isValid(config));
        EXPECT_TRUE(keys.insert(config.key()).second)
            << "duplicate " << config.key();
    }
}

TEST(DesignSpace, SamplingIsDeterministic)
{
    const auto a = DesignSpace::sampleValidConfigs(50, 7);
    const auto b = DesignSpace::sampleValidConfigs(50, 7);
    EXPECT_EQ(a, b);
    const auto c = DesignSpace::sampleValidConfigs(50, 8);
    EXPECT_NE(a, c);
}

TEST(DesignSpace, MonteCarloAgreesWithExactCount)
{
    // Estimate the valid fraction by raw sampling and compare with the
    // exact counting.
    Rng rng(4242);
    const int n = 20000;
    int valid = 0;
    for (int i = 0; i < n; ++i) {
        std::array<int, kNumParams> values;
        for (std::size_t j = 0; j < kNumParams; ++j) {
            const ParamSpec &spec = paramSpecs()[j];
            values[j] = spec.values[rng.nextBounded(spec.count())];
        }
        valid += DesignSpace::isValid(MicroarchConfig(values));
    }
    const double exact =
        static_cast<double>(DesignSpace::totalValidPoints()) /
        static_cast<double>(DesignSpace::totalRawPoints());
    EXPECT_NEAR(static_cast<double>(valid) / n, exact, 0.02);
}

TEST(DesignSpace, SampleCoversParameterRanges)
{
    // Uniform sampling should hit every value of every parameter in a
    // large enough sample.
    const auto configs = DesignSpace::sampleValidConfigs(2000, 11);
    for (const auto &spec : paramSpecs()) {
        std::unordered_set<int> seen;
        for (const auto &config : configs)
            seen.insert(config.get(spec.id));
        EXPECT_EQ(seen.size(), spec.count()) << spec.name;
    }
}

TEST(MicroarchConfig, KeyRoundTripsValues)
{
    MicroarchConfig config;
    config.set(Param::Width, 8);
    config.set(Param::L2Size, 256);
    EXPECT_EQ(config.key(), "8/96/32/48/96/8/4/16/4/16/32/32/256");
}

TEST(MicroarchConfig, EqualityAndHash)
{
    MicroarchConfig a, b;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.set(Param::Width, 2);
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(MicroarchConfigDeathTest, SetRejectsIllegalValue)
{
    MicroarchConfig config;
    EXPECT_DEATH(config.set(Param::Width, 3), "illegal value");
}

TEST(MicroarchConfigDeathTest, RejectsValuesAbove16BitsBeforeNarrowing)
{
    // Each value narrows to a legal one (65536 + 2048 -> 2048), so
    // only a check made before the narrowing rejects it.
    MicroarchConfig config;
    EXPECT_DEATH(config.set(Param::L2Size, 65536 + 2048), "illegal value");
    std::array<int, kNumParams> values{};
    for (std::size_t i = 0; i < kNumParams; ++i)
        values[i] = MicroarchConfig().raw()[i];
    values[static_cast<std::size_t>(Param::Width)] = 65536 + 4;
    EXPECT_DEATH(MicroarchConfig{values}, "illegal value");
}

TEST(MicroarchConfig, EveryLegalValueRoundTrips)
{
    for (const ParamSpec &spec : paramSpecs()) {
        const auto i = static_cast<std::size_t>(spec.id);
        for (int value : spec.values) {
            MicroarchConfig config;
            config.set(spec.id, value);
            EXPECT_EQ(config.get(spec.id), value) << spec.name;
            EXPECT_EQ(config.raw()[i], value) << spec.name;

            std::array<int, kNumParams> values{};
            for (std::size_t j = 0; j < kNumParams; ++j)
                values[j] = paramSpecs()[j].baseline;
            values[i] = value;
            EXPECT_EQ(MicroarchConfig(values), config) << spec.name;
        }
    }
}

TEST(MicroarchConfig, HashAndKeyArePinned)
{
    // Recorded from the int-valued layout: the 16-bit storage must
    // keep every cache key and hash unchanged.
    const MicroarchConfig baseline;
    EXPECT_EQ(baseline.key(), "4/96/32/48/96/8/4/16/4/16/32/32/2048");
    EXPECT_EQ(baseline.hash(), 0x4c50c5dcee90363bULL);

    const auto sampled = DesignSpace::sampleValidConfigs(3, 2024);
    ASSERT_EQ(sampled.size(), 3u);
    EXPECT_EQ(sampled[0].key(), "6/96/16/16/96/12/1/16/2/8/16/16/256");
    EXPECT_EQ(sampled[0].hash(), 0xd70b42c6c6fcb69cULL);
    EXPECT_EQ(sampled[1].key(), "4/112/80/48/88/4/4/32/4/24/128/128/4096");
    EXPECT_EQ(sampled[1].hash(), 0xd6ec8ad3019d0b87ULL);
    EXPECT_EQ(sampled[2].key(), "4/136/80/56/160/4/2/8/4/32/128/64/512");
    EXPECT_EQ(sampled[2].hash(), 0x4ec4f8d06ce600c9ULL);
}

TEST(MicroarchConfig, FeatureVectorUsesLog2ForPow2Params)
{
    const MicroarchConfig config; // baseline
    const auto f = config.asFeatureVector();
    // bpred 16 -> 4, btb 4 -> 2, il1/dl1 32 -> 5, l2 2048 -> 11.
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::BpredSize)], 4.0);
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::BtbSize)], 2.0);
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::Il1Size)], 5.0);
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::L2Size)], 11.0);
    // Linearly-spaced parameters stay raw.
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::RobSize)], 96.0);
    EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Param::Width)], 4.0);
}

TEST(MicroarchConfig, UnitAccessorsScale)
{
    const MicroarchConfig config;
    EXPECT_EQ(config.bpredEntries(), 16 * 1024);
    EXPECT_EQ(config.btbEntries(), 4 * 1024);
    EXPECT_EQ(config.il1Bytes(), 32 * 1024);
    EXPECT_EQ(config.l2Bytes(), 2048 * 1024);
}

} // namespace
} // namespace acdse
