/**
 * @file
 * Unit tests for the design-space characterisation helpers
 * (Figs. 2-5 machinery).
 */

#include <gtest/gtest.h>

#include "core/characterisation.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

Campaign &
sharedCampaign()
{
    static Campaign campaign = [] {
        CampaignOptions options;
        options.numConfigs = 40;
        options.traceLength = 2500;
        options.warmupInstructions = 500;
        options.quiet = true;
        options.cacheDir =
            testdir::uniqueTempDir("acdse_char_tests").string();
        Campaign c({"crc32", "sha", "fft", "qsort"}, options);
        c.ensureComputed();
        return c;
    }();
    return campaign;
}

TEST(Characterisation, FrequenciesSumToOnePerParameter)
{
    const auto freqs =
        extremeValueFrequencies(sharedCampaign(), Metric::Cycles, 0.05);
    EXPECT_EQ(freqs.size(), kNumParams);
    for (const auto &f : freqs) {
        double best = 0.0, worst = 0.0;
        for (std::size_t i = 0; i < f.values.size(); ++i) {
            best += f.bestFreq[i];
            worst += f.worstFreq[i];
            EXPECT_GE(f.bestFreq[i], 0.0);
            EXPECT_GE(f.worstFreq[i], 0.0);
        }
        EXPECT_NEAR(best, 1.0, 1e-9) << paramName(f.param);
        EXPECT_NEAR(worst, 1.0, 1e-9) << paramName(f.param);
    }
}

TEST(Characterisation, EnergyExtremesFavourNarrowMachines)
{
    // Low-energy configurations should be dominated by narrow widths
    // and high-energy ones by wide widths (paper Fig. 3a/3g).
    const auto freqs =
        extremeValueFrequencies(sharedCampaign(), Metric::Energy, 0.1);
    const auto &width = freqs[static_cast<std::size_t>(Param::Width)];
    // values are {2,4,6,8}: compare narrow (2) frequency best vs worst.
    EXPECT_GT(width.bestFreq[0], width.worstFreq[0]);
    EXPECT_LT(width.bestFreq[3], width.worstFreq[3]);
}

TEST(Characterisation, SummariesAreOrdered)
{
    auto summaries =
        perProgramSummaries(sharedCampaign(), Metric::Cycles);
    ASSERT_EQ(summaries.size(), 4u);
    for (const auto &s : summaries) {
        EXPECT_LE(s.range.min, s.range.q25);
        EXPECT_LE(s.range.q25, s.range.median);
        EXPECT_LE(s.range.median, s.range.q75);
        EXPECT_LE(s.range.q75, s.range.max);
        EXPECT_GT(s.range.min, 0.0);
        // Baseline lands within (or at least near) the space.
        EXPECT_GT(s.baseline, 0.25 * s.range.min);
        EXPECT_LT(s.baseline, 4.0 * s.range.max);
    }
}

TEST(Characterisation, SummariesScaleToPhase)
{
    const auto small =
        perProgramSummaries(sharedCampaign(), Metric::Cycles, 1e6);
    const auto large =
        perProgramSummaries(sharedCampaign(), Metric::Cycles, 10e6);
    EXPECT_NEAR(large[0].range.median / small[0].range.median, 10.0,
                1e-6);
}

TEST(Characterisation, DistanceMatrixIsMetricLike)
{
    auto dist = programDistanceMatrix(sharedCampaign(), Metric::Energy);
    ASSERT_EQ(dist.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(dist[i][i], 0.0);
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_DOUBLE_EQ(dist[i][j], dist[j][i]);
            EXPECT_GE(dist[i][j], 0.0);
        }
    }
    // Distinct programs should be separated.
    EXPECT_GT(dist[0][1], 0.0);
}

TEST(Characterisation, DendrogramCoversAllPrograms)
{
    const Dendrogram tree =
        programSimilarityDendrogram(sharedCampaign(), Metric::Cycles);
    EXPECT_EQ(tree.leaves, 4u);
    EXPECT_EQ(tree.merges.size(), 3u);
}

TEST(Characterisation, ProgramSubsetRestrictsAnalysis)
{
    // Restricting to two programs must pool only their extremes and
    // produce a 2x2 distance matrix.
    const std::vector<std::size_t> subset{0, 2};
    const auto freqs = extremeValueFrequencies(
        sharedCampaign(), Metric::Cycles, 0.05, subset);
    double total = 0.0;
    for (double x : freqs.front().bestFreq)
        total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);

    const auto dist =
        programDistanceMatrix(sharedCampaign(), Metric::Cycles, subset);
    EXPECT_EQ(dist.size(), 2u);
    const Dendrogram tree = programSimilarityDendrogram(
        sharedCampaign(), Metric::Cycles, subset);
    EXPECT_EQ(tree.leaves, 2u);
}

TEST(Characterisation, BaselineMetricsPositive)
{
    const auto baselines = baselineMetrics(sharedCampaign());
    ASSERT_EQ(baselines.size(), 4u);
    for (const auto &m : baselines) {
        EXPECT_GT(m.cycles, 0.0);
        EXPECT_GT(m.energyNj, 0.0);
    }
}

} // namespace
} // namespace acdse
