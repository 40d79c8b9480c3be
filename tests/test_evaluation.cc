/**
 * @file
 * Unit tests for the evaluation harness (cross validation machinery).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/evaluation.hh"
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
        options.numConfigs = 48;
        options.traceLength = 2500;
        options.warmupInstructions = 500;
        options.quiet = true;
        options.cacheDir =
            testdir::uniqueTempDir("acdse_eval_tests").string();
        Campaign c({"crc32", "sha", "adpcm", "stringsearch", "bitcount",
                    "blowfish"},
                   options);
        c.ensureComputed();
        return c;
    }();
    return campaign;
}

TEST(SampleIndices, DistinctAndInRange)
{
    const auto idx = sampleIndices(100, 30, 5);
    EXPECT_EQ(idx.size(), 30u);
    std::set<std::size_t> seen(idx.begin(), idx.end());
    EXPECT_EQ(seen.size(), 30u);
    for (std::size_t i : idx)
        EXPECT_LT(i, 100u);
}

TEST(SampleIndices, Deterministic)
{
    EXPECT_EQ(sampleIndices(50, 10, 7), sampleIndices(50, 10, 7));
    EXPECT_NE(sampleIndices(50, 10, 7), sampleIndices(50, 10, 8));
}

TEST(SampleIndices, FullDraw)
{
    const auto idx = sampleIndices(5, 5, 1);
    std::set<std::size_t> seen(idx.begin(), idx.end());
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Evaluator, LeaveOneOutExcludesTestProgram)
{
    Evaluator ev(sharedCampaign());
    const auto training = ev.leaveOneOut(2);
    EXPECT_EQ(training.size(), 5u);
    for (std::size_t p : training)
        EXPECT_NE(p, 2u);
}

TEST(Evaluator, LeaveOneOutWithPool)
{
    Evaluator ev(sharedCampaign());
    const auto training = ev.leaveOneOut(1, 4);
    EXPECT_EQ(training.size(), 3u);
    for (std::size_t p : training)
        EXPECT_LT(p, 4u);
}

TEST(Evaluator, ProgramSpecificProducesFiniteQuality)
{
    Evaluator ev(sharedCampaign());
    const PredictionQuality q =
        ev.evaluateProgramSpecific(0, Metric::Cycles, 24, 99);
    EXPECT_TRUE(std::isfinite(q.rmaePercent));
    EXPECT_GE(q.correlation, -1.0);
    EXPECT_LE(q.correlation, 1.0);
    EXPECT_GT(q.rmaePercent, 0.0);
}

TEST(Evaluator, ArchCentricRunsLeaveOneOut)
{
    Evaluator ev(sharedCampaign());
    const PredictionQuality q = ev.evaluateArchCentric(
        0, Metric::Energy, ev.leaveOneOut(0), 24, 12, 99);
    EXPECT_TRUE(std::isfinite(q.rmaePercent));
    EXPECT_GT(q.correlation, 0.0); // energy spaces correlate strongly
    EXPECT_GT(q.trainingErrorPercent, 0.0);
}

TEST(Evaluator, ModelCacheReturnsSameInstance)
{
    Evaluator ev(sharedCampaign());
    const auto a = ev.programModel(1, Metric::Cycles, 16, 7);
    const auto b = ev.programModel(1, Metric::Cycles, 16, 7);
    EXPECT_EQ(a.get(), b.get());
    const auto c = ev.programModel(1, Metric::Cycles, 16, 8);
    EXPECT_NE(a.get(), c.get());
    const auto d = ev.programModel(1, Metric::Energy, 16, 7);
    EXPECT_NE(a.get(), d.get());
}

TEST(Evaluator, OfflinePredictorReady)
{
    Evaluator ev(sharedCampaign());
    auto predictor =
        ev.makeOfflinePredictor(ev.leaveOneOut(3), Metric::Ed, 16, 5);
    EXPECT_TRUE(predictor.offlineTrained());
    EXPECT_FALSE(predictor.ready()); // responses not yet fitted
    EXPECT_EQ(predictor.trainingPrograms().size(), 5u);
}

TEST(EvaluatorDeathTest, TestProgramInTrainingSet)
{
    Evaluator ev(sharedCampaign());
    EXPECT_DEATH(
        ev.evaluateArchCentric(0, Metric::Cycles, {0, 1}, 8, 4, 1),
        "must not be in the training set");
}

TEST(ScorePredictions, PerfectPredictorScoresPerfectly)
{
    Campaign &campaign = sharedCampaign();
    std::vector<std::size_t> idx;
    for (std::size_t c = 0; c < campaign.configs().size(); ++c)
        idx.push_back(c);
    const PredictionQuality q = scorePredictions(
        campaign, 0, Metric::Cycles, idx,
        [&](const MicroarchConfig &config) {
            // Look the answer up -- a perfect oracle.
            for (std::size_t c = 0; c < campaign.configs().size(); ++c) {
                if (campaign.configs()[c] == config)
                    return campaign.result(0, c).cycles;
            }
            return 0.0;
        });
    EXPECT_NEAR(q.rmaePercent, 0.0, 1e-9);
    EXPECT_NEAR(q.correlation, 1.0, 1e-9);
}

} // namespace
} // namespace acdse
