#include "core/program_specific_predictor.hh"

#include <cmath>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/logging.hh"
#include "base/simd.hh"

namespace acdse
{

ProgramSpecificPredictor::ProgramSpecificPredictor(
    ProgramSpecificOptions options)
    : options_(options), mlp_(options.mlp)
{
}

void
ProgramSpecificPredictor::train(const std::vector<MicroarchConfig> &configs,
                                const std::vector<double> &values)
{
    ACDSE_CHECK(configs.size() == values.size(),
                 "configs/values size mismatch");
    ACDSE_CHECK(!configs.empty(), "cannot train on no simulations");
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    xs.reserve(configs.size());
    ys.reserve(values.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        xs.push_back(configs[i].asFeatureVector());
        if (options_.logTarget) {
            ACDSE_CHECK(values[i] > 0.0,
                         "log-target training needs positive metrics");
            ys.push_back(std::log(values[i]));
        } else {
            ys.push_back(values[i]);
        }
    }
    mlp_.train(xs, ys);
}

void
ProgramSpecificPredictor::save(BinaryWriter &w) const
{
    w.u8(options_.logTarget ? 1 : 0);
    mlp_.save(w);
}

void
ProgramSpecificPredictor::load(BinaryReader &r)
{
    options_.logTarget = r.u8() != 0;
    mlp_.load(r);
    options_.mlp = mlp_.options();
}

double
ProgramSpecificPredictor::predict(const MicroarchConfig &config) const
{
    std::vector<double> scratch;
    return predictFromFeatures(config.asFeatureVector(), scratch);
}

double
ProgramSpecificPredictor::predictFromFeatures(
    const std::vector<double> &features,
    std::vector<double> &scratch) const
{
    ACDSE_CHECK(trained(), "predict before train");
    const double raw = mlp_.predict(features, scratch);
    return options_.logTarget ? std::exp(raw) : raw;
}

void
ProgramSpecificPredictor::predictBatchFromFeatures(
    const double *features, std::size_t count, double *out,
    MlpBatchScratch &scratch) const
{
    ACDSE_CHECK(trained(), "predict before train");
    mlp_.predictBatch(features, count, out, scratch);
    if (options_.logTarget) {
        for (std::size_t c = 0; c < count; ++c)
            out[c] = std::exp(out[c]);
    }
}

void
ProgramSpecificPredictor::predictBlockSoaFromFeatures(
    const double *soa, std::size_t count, double *out,
    MlpBatchScratch &scratch) const
{
    ACDSE_DCHECK(trained(), "predict before train");
    mlp_.predictBlockSoa(soa, count, out, scratch);
    if (options_.logTarget) {
        for (std::size_t l = 0; l < count; ++l)
            out[l] = std::exp(out[l]);
    }
}

} // namespace acdse
