/**
 * @file
 * Unit tests for the simulation campaign and its disk cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "arch/design_space.hh"
#include "base/thread_pool.hh"
#include "core/campaign.hh"
#include "sim/simulator.hh"
#include "temp_dir.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

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

void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "instruction " << i);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].srcDist1, b[i].srcDist1);
        EXPECT_EQ(a[i].srcDist2, b[i].srcDist2);
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_EQ(a[i].taken, b[i].taken);
        EXPECT_EQ(a[i].conditional, b[i].conditional);
    }
}

TEST(Campaign, FillDropsTracesOfProgramsItSimulates)
{
    const CampaignOptions options = tinyOptions("acdse_t11");
    Campaign campaign({"crc32", "sha"}, options);
    const std::size_t n = campaign.configs().size();

    // A fill of half of sha's cells already drops its trace; crc32,
    // which the fill does not touch, keeps its own.
    campaign.trace(0);
    campaign.trace(1);
    std::vector<std::size_t> firstHalf, rest;
    for (std::size_t c = 0; c < n; ++c) {
        rest.push_back(c);
        (c < n / 2 ? firstHalf : rest).push_back(n + c);
    }
    campaign.computeCells(firstHalf);
    EXPECT_TRUE(campaign.holdsTrace(0));
    EXPECT_FALSE(campaign.holdsTrace(1));

    // The next shard regenerates sha's trace; once every cell is
    // simulated the campaign holds no trace at all.
    campaign.computeCells(rest);
    EXPECT_FALSE(campaign.holdsTrace(0));
    EXPECT_FALSE(campaign.holdsTrace(1));

    // trace() regenerates on demand, bit-identical.
    const std::size_t length =
        options.traceLength + options.warmupInstructions;
    const Trace crc32 = TraceGenerator(profileByName("crc32"))
                            .generate(length);
    expectSameTrace(campaign.trace(0), crc32);
    EXPECT_TRUE(campaign.holdsTrace(0));

    // Every cell matches a simulation of a trace that was never
    // released.
    const Trace live[] = {
        crc32, TraceGenerator(profileByName("sha")).generate(length)};
    SimulationOptions sim_options;
    sim_options.warmupInstructions = options.warmupInstructions;
    for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t c = 0; c < n; ++c) {
            SCOPED_TRACE(::testing::Message()
                         << "program " << p << " config " << c);
            const Metrics expected =
                simulate(campaign.configs()[c], live[p], sim_options)
                    .metrics;
            const Metrics &got = campaign.result(p, c);
            EXPECT_EQ(got.cycles, expected.cycles);
            EXPECT_EQ(got.energyNj, expected.energyNj);
            EXPECT_EQ(got.ed, expected.ed);
            EXPECT_EQ(got.edd, expected.edd);
        }
    }
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

TEST(Campaign, NumericsFingerprintIsStableAndNamesTheCache)
{
    // First computed on pool workers racing each other, one of them
    // on a scratch another simulation just used; every thread and
    // every later call sees the same value.
    ThreadPool pool(4);
    std::vector<std::uint64_t> seen(8);
    pool.parallelFor(0, seen.size(), [&](std::size_t i) {
        if (i % 2 == 1) {
            simulate(DesignSpace::sampleValidConfigs(1, i)[0],
                     TraceGenerator(profileByName("mcf")).generate(500));
        }
        seen[i] = Campaign::numericsFingerprint();
    });
    const std::uint64_t fingerprint = Campaign::numericsFingerprint();
    for (const std::uint64_t value : seen)
        EXPECT_EQ(value, fingerprint);
    EXPECT_EQ(Campaign::numericsFingerprint(), fingerprint);

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    const Campaign campaign({"sha"}, tinyOptions("acdse_t9"));
    EXPECT_NE(campaign.cachePath().find(std::string("/acdse_campaign_") +
                                        hex + "_"),
              std::string::npos)
        << campaign.cachePath();
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
