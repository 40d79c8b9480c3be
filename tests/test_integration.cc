/**
 * @file
 * Integration tests: the whole pipeline (workload generation ->
 * cycle-level simulation -> campaign -> offline ANN training ->
 * response regression) at reduced scale, checking the paper's
 * qualitative claims end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/characterisation.hh"
#include "core/evaluation.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

/** A mid-size campaign over heterogeneous programs, filled per process. */
Campaign &
integrationCampaign()
{
    static Campaign campaign = [] {
        CampaignOptions options;
        options.numConfigs = 96;
        options.traceLength = 4000;
        options.warmupInstructions = 1000;
        options.quiet = true;
        options.cacheDir =
            testdir::uniqueTempDir("acdse_integration").string();
        Campaign c({"gzip", "parser", "crafty", "galgel", "eon",
                    "mesa", "twolf", "gap"},
                   options);
        c.ensureComputed();
        return c;
    }();
    return campaign;
}

TEST(Integration, ArchCentricBeatsProgramSpecificAtSmallBudget)
{
    // The paper's central claim (Fig. 13): at an equal, small number
    // of simulations of the new program, the architecture-centric
    // model is more accurate and far better correlated.
    Evaluator ev(integrationCampaign());
    double ac_err = 0, ac_corr = 0, ps_err = 0, ps_corr = 0;
    const std::size_t n = integrationCampaign().programs().size();
    for (std::size_t p = 0; p < n; ++p) {
        const auto ac = ev.evaluateArchCentric(
            p, Metric::Cycles, ev.leaveOneOut(p), 64, 16, 321);
        const auto ps =
            ev.evaluateProgramSpecific(p, Metric::Cycles, 16, 321);
        ac_err += ac.rmaePercent;
        ac_corr += ac.correlation;
        ps_err += ps.rmaePercent;
        ps_corr += ps.correlation;
    }
    EXPECT_LT(ac_err, ps_err);
    EXPECT_GT(ac_corr, ps_corr);
}

TEST(Integration, ArchCentricQualityIsUsable)
{
    Evaluator ev(integrationCampaign());
    const auto q = ev.evaluateArchCentric(
        0, Metric::Energy, ev.leaveOneOut(0), 64, 16, 77);
    EXPECT_LT(q.rmaePercent, 30.0);
    EXPECT_GT(q.correlation, 0.6);
}

TEST(Integration, MoreResponsesDoNotHurt)
{
    Evaluator ev(integrationCampaign());
    const auto few = ev.evaluateArchCentric(
        1, Metric::Cycles, ev.leaveOneOut(1), 64, 4, 55);
    const auto many = ev.evaluateArchCentric(
        1, Metric::Cycles, ev.leaveOneOut(1), 64, 32, 55);
    EXPECT_LE(many.rmaePercent, few.rmaePercent * 1.3);
}

TEST(Integration, SpacesDifferAcrossPrograms)
{
    // Programs must not collapse to one shape, or cross-program
    // learning would be trivial (Section 4).
    auto dist =
        programDistanceMatrix(integrationCampaign(), Metric::Cycles);
    double max_d = 0.0;
    for (const auto &row : dist)
        for (double d : row)
            max_d = std::max(max_d, d);
    EXPECT_GT(max_d, 0.5);
}

TEST(Integration, EnergyAndCyclesDisagreeOnBestConfig)
{
    // The performance-optimal and energy-optimal corners of the space
    // must differ (otherwise ED/EDD would be pointless).
    Campaign &campaign = integrationCampaign();
    const auto cycles = campaign.metricRow(0, Metric::Cycles);
    const auto energy = campaign.metricRow(0, Metric::Energy);
    const std::size_t best_cycles =
        std::min_element(cycles.begin(), cycles.end()) - cycles.begin();
    const std::size_t best_energy =
        std::min_element(energy.begin(), energy.end()) - energy.begin();
    EXPECT_NE(best_cycles, best_energy);
}

TEST(Integration, TrainingErrorTracksTestError)
{
    // Paper Sections 7.2/7.3: training error is a usable proxy for
    // test error. Check rank agreement loosely: the program with the
    // largest training error should not have the smallest test error.
    Evaluator ev(integrationCampaign());
    std::vector<double> train_err, test_err;
    const std::size_t n = integrationCampaign().programs().size();
    for (std::size_t p = 0; p < n; ++p) {
        const auto q = ev.evaluateArchCentric(
            p, Metric::Cycles, ev.leaveOneOut(p), 64, 16, 11);
        train_err.push_back(q.trainingErrorPercent);
        test_err.push_back(q.rmaePercent);
    }
    const std::size_t worst_train =
        std::max_element(train_err.begin(), train_err.end()) -
        train_err.begin();
    const std::size_t best_test =
        std::min_element(test_err.begin(), test_err.end()) -
        test_err.begin();
    EXPECT_NE(worst_train, best_test);
}

} // namespace
} // namespace acdse
