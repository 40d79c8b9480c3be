/**
 * @file
 * Unit tests for the simulation campaign and its disk cache.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/campaign.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

CampaignOptions
tinyOptions(const std::string &tag)
{
    CampaignOptions options;
    options.numConfigs = 8;
    options.traceLength = 1500;
    options.warmupInstructions = 300;
    options.quiet = true;
    options.cacheDir = testdir::uniqueTempDir(tag).string();
    return options;
}

TEST(Campaign, ComputesAllCells)
{
    Campaign campaign({"crc32", "sha"}, tinyOptions("acdse_t1"));
    campaign.ensureComputed();
    for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t c = 0; c < campaign.configs().size(); ++c) {
            const Metrics &m = campaign.result(p, c);
            EXPECT_GT(m.cycles, 0.0);
            EXPECT_GT(m.energyNj, 0.0);
            EXPECT_DOUBLE_EQ(m.ed, m.cycles * m.energyNj);
        }
    }
}

TEST(Campaign, CacheRoundTripsExactly)
{
    const CampaignOptions options = tinyOptions("acdse_t2");
    std::vector<std::vector<double>> first;
    {
        Campaign campaign({"adpcm"}, options);
        campaign.ensureComputed();
        first.push_back(campaign.metricRow(0, Metric::Cycles));
        first.push_back(campaign.metricRow(0, Metric::Energy));
    }
    {
        // Second campaign must load from disk (results identical to
        // the last bit thanks to %.17g serialisation).
        Campaign campaign({"adpcm"}, options);
        campaign.ensureComputed();
        EXPECT_EQ(campaign.metricRow(0, Metric::Cycles), first[0]);
        EXPECT_EQ(campaign.metricRow(0, Metric::Energy), first[1]);
    }
}

TEST(Campaign, CacheIsPartiallyReusable)
{
    const CampaignOptions options = tinyOptions("acdse_t3");
    {
        Campaign campaign({"adpcm"}, options);
        campaign.ensureComputed();
    }
    // A campaign over a superset of programs reuses the adpcm rows and
    // only simulates the new one.
    Campaign campaign({"adpcm", "crc32"}, options);
    campaign.ensureComputed();
    EXPECT_GT(campaign.result(1, 0).cycles, 0.0);
}

TEST(Campaign, SubsetSaveDoesNotClobberSharedCache)
{
    // Two campaigns over different programs share one cache file; the
    // second save must keep the first campaign's rows (merge-on-save).
    const CampaignOptions options = tinyOptions("acdse_t10");
    {
        Campaign campaign({"crc32"}, options);
        campaign.ensureComputed();
    }
    {
        Campaign campaign({"sha"}, options);
        campaign.ensureComputed();
    }
    // A third campaign over both must find everything cached (no
    // recomputation: results match fresh campaigns bit-for-bit).
    Campaign both({"crc32", "sha"}, options);
    both.ensureComputed();
    Campaign fresh_crc({"crc32"}, tinyOptions("acdse_t10b"));
    fresh_crc.ensureComputed();
    EXPECT_EQ(both.metricRow(0, Metric::Cycles),
              fresh_crc.metricRow(0, Metric::Cycles));
}

TEST(Campaign, DeterministicResults)
{
    Campaign a({"stringsearch"}, tinyOptions("acdse_t4a"));
    Campaign b({"stringsearch"}, tinyOptions("acdse_t4b"));
    a.ensureComputed();
    b.ensureComputed();
    EXPECT_EQ(a.metricRow(0, Metric::Cycles),
              b.metricRow(0, Metric::Cycles));
}

TEST(Campaign, ProgramIndexLookup)
{
    Campaign campaign({"crc32", "sha"}, tinyOptions("acdse_t5"));
    EXPECT_EQ(campaign.programIndex("crc32"), 0u);
    EXPECT_EQ(campaign.programIndex("sha"), 1u);
}

TEST(Campaign, SubsetSelectors)
{
    Campaign campaign({"crc32"}, tinyOptions("acdse_t6"));
    campaign.ensureComputed();
    const std::vector<std::size_t> idx{3, 1};
    const auto values = campaign.metricAt(0, Metric::Cycles, idx);
    ASSERT_EQ(values.size(), 2u);
    EXPECT_DOUBLE_EQ(values[0], campaign.result(0, 3).cycles);
    EXPECT_DOUBLE_EQ(values[1], campaign.result(0, 1).cycles);
    const auto configs = campaign.configsAt(idx);
    EXPECT_EQ(configs[0], campaign.configs()[3]);
}

TEST(Campaign, SameSeedSameConfigs)
{
    Campaign a({"crc32"}, tinyOptions("acdse_t7"));
    Campaign b({"sha"}, tinyOptions("acdse_t7"));
    EXPECT_EQ(a.configs(), b.configs());
}

TEST(CampaignDeathTest, ResultBeforeCompute)
{
    Campaign campaign({"crc32"}, tinyOptions("acdse_t8"));
    EXPECT_DEATH(campaign.result(0, 0), "ensureComputed");
}

TEST(CampaignDeathTest, UnknownProgram)
{
    const CampaignOptions options = tinyOptions("acdse_t9");
    EXPECT_DEATH(Campaign({"not-a-benchmark"}, options),
                 "unknown benchmark");
}

} // namespace
} // namespace acdse
