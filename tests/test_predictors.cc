/**
 * @file
 * Unit tests for the program-specific and architecture-centric
 * predictors on controlled synthetic design spaces (no simulator in
 * the loop: targets are analytic functions of the configuration).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/design_space.hh"
#include "base/statistics.hh"
#include "core/architecture_centric_predictor.hh"
#include "core/program_specific_predictor.hh"
#include "obs/metrics.hh"

namespace acdse
{
namespace
{

/** A smooth, positive, nonlinear "program" over the design space. */
double
syntheticSpace(const MicroarchConfig &config, double wide, double mem,
               double base)
{
    const double width_term =
        wide * 4000.0 / static_cast<double>(config.width());
    const double cache_term =
        mem * 60000.0 / std::sqrt(static_cast<double>(
                             config.l2Bytes() / 1024));
    const double window_term =
        20000.0 / std::sqrt(static_cast<double>(config.robSize()));
    return base + width_term + cache_term + window_term;
}

std::vector<MicroarchConfig>
configs(std::size_t n, std::uint64_t seed)
{
    return DesignSpace::sampleValidConfigs(n, seed);
}

std::vector<double>
values(const std::vector<MicroarchConfig> &cs, double wide, double mem,
       double base)
{
    std::vector<double> ys;
    for (const auto &c : cs)
        ys.push_back(syntheticSpace(c, wide, mem, base));
    return ys;
}

TEST(ProgramSpecificPredictor, LearnsSyntheticSpace)
{
    const auto train = configs(256, 1);
    const auto test = configs(100, 2);
    ProgramSpecificPredictor model;
    model.train(train, values(train, 1.0, 1.0, 5000.0));

    std::vector<double> predicted, actual;
    for (const auto &c : test) {
        predicted.push_back(model.predict(c));
        actual.push_back(syntheticSpace(c, 1.0, 1.0, 5000.0));
    }
    EXPECT_LT(stats::rmae(predicted, actual), 10.0);
    EXPECT_GT(stats::correlation(predicted, actual), 0.9);
}

TEST(ProgramSpecificPredictor, MoreTrainingDataHelps)
{
    const auto test = configs(100, 3);
    double err_small, err_large;
    for (std::size_t t : {16u, 256u}) {
        const auto train = configs(t, 4);
        ProgramSpecificPredictor model;
        model.train(train, values(train, 1.5, 0.5, 2000.0));
        std::vector<double> predicted, actual;
        for (const auto &c : test) {
            predicted.push_back(model.predict(c));
            actual.push_back(syntheticSpace(c, 1.5, 0.5, 2000.0));
        }
        (t == 16u ? err_small : err_large) =
            stats::rmae(predicted, actual);
    }
    EXPECT_LT(err_large, err_small);
}

TEST(ProgramSpecificPredictor, LogTargetHandlesWideRange)
{
    ProgramSpecificOptions options;
    options.logTarget = true;
    const auto train = configs(200, 5);
    std::vector<double> ys;
    for (const auto &c : train)
        ys.push_back(std::exp(0.4 * c.width()) * 1000.0);
    ProgramSpecificPredictor model(options);
    model.train(train, ys);
    MicroarchConfig probe = DesignSpace::baseline();
    EXPECT_NEAR(model.predict(probe), std::exp(1.6) * 1000.0,
                std::exp(1.6) * 200.0);
}

TEST(ArchitectureCentric, RecoversLinearCombinationOfPrograms)
{
    // Three training "programs"; the new program is an exact linear
    // combination of them, so the regressor should nail the space.
    const auto train_configs = configs(256, 7);
    std::vector<ProgramTrainingSet> sets(3);
    const double wides[3] = {1.0, 2.0, 0.5};
    const double mems[3] = {0.2, 1.0, 2.0};
    for (int j = 0; j < 3; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train_configs;
        sets[j].values =
            values(train_configs, wides[j], mems[j], 3000.0);
    }

    ArchitectureCentricPredictor model;
    model.trainOffline(sets);

    // New program = 0.5*p0 + 0.25*p1 + 0.25*p2.
    auto target = [&](const MicroarchConfig &c) {
        return 0.5 * syntheticSpace(c, wides[0], mems[0], 3000.0) +
               0.25 * syntheticSpace(c, wides[1], mems[1], 3000.0) +
               0.25 * syntheticSpace(c, wides[2], mems[2], 3000.0);
    };
    const auto response_configs = configs(32, 8);
    std::vector<double> responses;
    for (const auto &c : response_configs)
        responses.push_back(target(c));
    model.fitResponses(response_configs, responses);

    const auto test = configs(150, 9);
    std::vector<double> predicted, actual;
    for (const auto &c : test) {
        predicted.push_back(model.predict(c));
        actual.push_back(target(c));
    }
    EXPECT_LT(stats::rmae(predicted, actual), 8.0);
    EXPECT_GT(stats::correlation(predicted, actual), 0.93);
    EXPECT_LT(model.trainingErrorPercent(), 8.0);
}

TEST(ArchitectureCentric, WeightsHaveTrainingProgramArity)
{
    const auto train_configs = configs(64, 10);
    std::vector<ProgramTrainingSet> sets(4);
    for (int j = 0; j < 4; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train_configs;
        sets[j].values = values(train_configs, 1.0 + j, 1.0, 1000.0);
    }
    ArchitectureCentricPredictor model;
    model.trainOffline(sets);
    model.fitResponses(configs(16, 11),
                       values(configs(16, 11), 2.0, 1.0, 1000.0));
    EXPECT_EQ(model.weights().size(), 4u);
    EXPECT_EQ(model.trainingPrograms().size(), 4u);
}

TEST(ArchitectureCentric, TrainingAndFitEmitTheirStages)
{
    // One train/offline span per trainOffline, one train/program/<i>
    // span per training set and one fit/responses span per fit: the
    // stage tree the stats exports and perfbench's layers read.
    const auto train_configs = configs(48, 15);
    std::vector<ProgramTrainingSet> sets(3);
    for (int j = 0; j < 3; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train_configs;
        sets[j].values = values(train_configs, 1.0 + j, 1.0, 1000.0);
    }
    obs::Registry &registry = obs::Registry::global();
    const obs::Snapshot before = registry.snapshot();
    ArchitectureCentricPredictor model;
    model.trainOffline(sets);
    model.fitResponses(configs(12, 16),
                       values(configs(12, 16), 2.0, 1.0, 1000.0));
    const obs::Snapshot delta = obs::diff(before, registry.snapshot());

    auto count = [&](const std::string &stage) {
        const auto it = delta.stages.find(stage);
        return it == delta.stages.end() ? std::uint64_t{0}
                                        : it->second.count;
    };
    EXPECT_EQ(count("train/offline"), 1u);
    EXPECT_GT(delta.stages.at("train/offline").totalNs, 0u);
    for (std::size_t i = 0; i < sets.size(); ++i)
        EXPECT_EQ(count("train/program/" + std::to_string(i)), 1u) << i;
    EXPECT_EQ(count("train/program/3"), 0u);
    EXPECT_EQ(count("fit/responses"), 1u);
    EXPECT_GT(delta.stages.at("fit/responses").totalNs, 0u);
}

TEST(ArchitectureCentric, UseModelsSharesTrainedAnns)
{
    const auto train_configs = configs(128, 12);
    auto shared = std::make_shared<ProgramSpecificPredictor>();
    shared->train(train_configs, values(train_configs, 1.0, 1.0, 500.0));

    ArchitectureCentricPredictor model;
    model.useModels({"shared"}, {shared});
    EXPECT_TRUE(model.offlineTrained());

    const auto rc = configs(12, 13);
    model.fitResponses(rc, values(rc, 1.0, 1.0, 500.0));
    EXPECT_TRUE(model.ready());
    // With a single identical program, prediction tracks the model.
    const MicroarchConfig probe = DesignSpace::baseline();
    EXPECT_NEAR(model.predict(probe),
                syntheticSpace(probe, 1.0, 1.0, 500.0),
                0.2 * syntheticSpace(probe, 1.0, 1.0, 500.0));
}

TEST(ArchitectureCentric, RefitResponsesForNewProgram)
{
    // The offline phase is reused across new programs (the paper's key
    // cost argument): refitting responses must fully re-target the
    // model.
    const auto train_configs = configs(128, 14);
    std::vector<ProgramTrainingSet> sets(2);
    sets[0] = {"a", train_configs, values(train_configs, 1.0, 0.5, 100.0)};
    sets[1] = {"b", train_configs, values(train_configs, 0.5, 2.0, 100.0)};
    ArchitectureCentricPredictor model;
    model.trainOffline(sets);

    const auto rc = configs(24, 15);
    model.fitResponses(rc, values(rc, 1.0, 0.5, 100.0));
    const double as_a = model.predict(DesignSpace::baseline());
    model.fitResponses(rc, values(rc, 0.5, 2.0, 100.0));
    const double as_b = model.predict(DesignSpace::baseline());
    EXPECT_NEAR(as_a,
                syntheticSpace(DesignSpace::baseline(), 1.0, 0.5, 100.0),
                0.15 * as_a);
    EXPECT_NE(as_a, as_b);
}

TEST(ArchitectureCentricDeathTest, ResponsesBeforeOffline)
{
    ArchitectureCentricPredictor model;
    EXPECT_DEATH(model.fitResponses({DesignSpace::baseline()}, {1.0}),
                 "before trainOffline");
}

TEST(ArchitectureCentricDeathTest, PredictBeforeResponses)
{
    const auto train_configs = configs(32, 16);
    std::vector<ProgramTrainingSet> sets(1);
    sets[0] = {"p", train_configs, values(train_configs, 1, 1, 100.0)};
    ArchitectureCentricPredictor model;
    model.trainOffline(sets);
    EXPECT_DEATH(model.predict(DesignSpace::baseline()), "before");
}

} // namespace
} // namespace acdse
