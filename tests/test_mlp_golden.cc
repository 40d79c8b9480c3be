/**
 * @file
 * Goldens for what training produces: FNV-1a-64 digests over the bit
 * patterns of the predictions of
 *
 *  - an Mlp trained with default options, and
 *  - a three-program ArchitectureCentricPredictor (trainOffline, then
 *    fitResponses),
 *
 * each on the same 64 fixed probes. The training data is built here
 * from seeded design points and a closed-form response surface, with
 * no simulation and no campaign cache, so the digests move only when
 * the training or prediction arithmetic does. A deliberate change of
 * that arithmetic re-records the literals (printed on failure); any
 * other change must leave them bit-identical.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "core/architecture_centric_predictor.hh"
#include "ml/mlp.hh"

namespace acdse
{
namespace
{

/** A smooth, positive, program-dependent response over the features. */
double
syntheticMetric(const std::vector<double> &f, int program)
{
    double linear = 0.0;
    double bend = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
        const double w = 1.0 + 0.25 * static_cast<double>(
                                          (i * 7 + program * 3) % 5);
        linear += w * std::log1p(f[i]);
        bend += std::sin(0.01 * f[i] * (program + 1));
    }
    return std::exp(0.05 * linear + 0.1 * bend);
}

std::vector<std::vector<double>>
featuresOf(const std::vector<MicroarchConfig> &configs)
{
    std::vector<std::vector<double>> xs;
    for (const MicroarchConfig &c : configs)
        xs.push_back(c.asFeatureVector());
    return xs;
}

/** FNV-1a-64 over the bit patterns of @p values. */
std::uint64_t
digest(const std::vector<double> &values)
{
    std::string bits;
    for (const double v : values) {
        const auto word = std::bit_cast<std::uint64_t>(v);
        for (int b = 0; b < 8; ++b)
            bits.push_back(static_cast<char>(word >> (8 * b)));
    }
    return fnv1a64(bits);
}

const std::vector<MicroarchConfig> &
probes()
{
    static const auto configs = DesignSpace::sampleValidConfigs(64, 9001);
    return configs;
}

/**
 * Mean relative error of @p out against program @p program's surface
 * on the probes: a digest of garbage would pin nothing useful.
 */
double
probeErrorPercent(const std::vector<double> &out, int program)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double truth =
            syntheticMetric(probes()[i].asFeatureVector(), program);
        sum += std::abs(out[i] - truth) / truth;
    }
    return 100.0 * sum / static_cast<double>(out.size());
}

TEST(MlpGolden, DefaultTrainingPredictsPinnedBits)
{
    const auto configs = DesignSpace::sampleValidConfigs(96, 11);
    const auto xs = featuresOf(configs);
    std::vector<double> ys;
    for (const auto &x : xs)
        ys.push_back(syntheticMetric(x, 0));
    Mlp mlp;
    mlp.train(xs, ys);

    std::vector<double> out;
    for (const MicroarchConfig &c : probes())
        out.push_back(mlp.predict(c.asFeatureVector()));
    EXPECT_LT(probeErrorPercent(out, 0), 10.0);
    EXPECT_EQ(digest(out), 0xe976d3585ec298bfull)
        << std::hex << digest(out);
}

TEST(MlpGolden, ArchitectureCentricFitPredictsPinnedBits)
{
    std::vector<ProgramTrainingSet> sets;
    for (int p = 0; p < 3; ++p) {
        ProgramTrainingSet set;
        set.name = "synthetic" + std::to_string(p);
        set.configs = DesignSpace::sampleValidConfigs(64, 100 + p);
        for (const auto &x : featuresOf(set.configs))
            set.values.push_back(syntheticMetric(x, p));
        sets.push_back(std::move(set));
    }
    ArchitectureCentricPredictor model;
    model.trainOffline(sets);

    const auto responses = DesignSpace::sampleValidConfigs(32, 200);
    std::vector<double> values;
    for (const auto &x : featuresOf(responses))
        values.push_back(syntheticMetric(x, 3));
    model.fitResponses(responses, values);

    std::vector<double> out;
    for (const MicroarchConfig &c : probes())
        out.push_back(model.predict(c));
    EXPECT_LT(probeErrorPercent(out, 3), 20.0);
    EXPECT_EQ(digest(out), 0xa93af7007644d785ull)
        << std::hex << digest(out);
}

} // namespace
} // namespace acdse
