#include "core/architecture_centric_predictor.hh"

#include <algorithm>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "base/statistics.hh"
#include "base/thread_pool.hh"
#include "obs/trace_span.hh"

namespace acdse
{

ArchitectureCentricPredictor::ArchitectureCentricPredictor(
    ArchCentricOptions options)
    : options_(options)
{
}

void
ArchitectureCentricPredictor::trainOffline(
    const std::vector<ProgramTrainingSet> &trainingSets)
{
    ACDSE_CHECK(!trainingSets.empty(),
                 "need at least one offline training program");
    // One ANN per training program, trained across the shared pool.
    // Every model is built from the same options_.programModel (one
    // weight-init seed for all of them) and is a pure function of its
    // own training set, written to its own slot, so the parallel
    // result is bit-identical to the serial one.
    const obs::TraceSpan offlineSpan(obs::Registry::global(),
                                     "train/offline");
    // Intern the per-program stages before fanning out so the worker
    // lambdas only touch already-registered (wait-free) stages.
    std::vector<obs::Stage *> stages(trainingSets.size());
    for (std::size_t i = 0; i < trainingSets.size(); ++i) {
        stages[i] = &obs::Registry::global().stage(
            "train/program/" + std::to_string(i));
    }
    std::vector<std::shared_ptr<const ProgramSpecificPredictor>> models(
        trainingSets.size());
    ThreadPool::global().parallelFor(
        0, trainingSets.size(), [&](std::size_t i) {
            const obs::TraceSpan span(*stages[i]);
            models[i] = trainEnsembleMember(options_.programModel,
                                            trainingSets[i].configs,
                                            trainingSets[i].values);
        });
    programNames_.clear();
    for (const auto &set : trainingSets)
        programNames_.push_back(set.name);
    programModels_ = std::move(models);
    offlineTrained_ = true;
    responsesFitted_ = false;
}

void
ArchitectureCentricPredictor::useModels(
    std::vector<std::string> names,
    std::vector<std::shared_ptr<const ProgramSpecificPredictor>> models)
{
    ACDSE_CHECK(!models.empty(), "need at least one program model");
    ACDSE_CHECK(names.size() == models.size(),
                 "names/models size mismatch");
    for (const auto &model : models)
        ACDSE_CHECK(model && model->trained(), "model not trained");
    programNames_ = std::move(names);
    programModels_ = std::move(models);
    offlineTrained_ = true;
    responsesFitted_ = false;
}

void
ArchitectureCentricPredictor::fitResponses(
    const std::vector<MicroarchConfig> &configs,
    const std::vector<double> &values)
{
    ACDSE_CHECK(offlineTrained_, "fitResponses before trainOffline");
    ACDSE_CHECK(configs.size() == values.size(),
                 "configs/values size mismatch");
    ACDSE_CHECK(!configs.empty(), "need at least one response");
    const obs::TraceSpan span(obs::Registry::global(),
                              "fit/responses");

    // Feature assembly is one ensemble forward pass per (response,
    // model) pair -- the expensive part of the fit. Each model runs
    // its batched kernel over all responses at once (no per-point
    // scratch allocation) into its own model-major slot, so thread
    // count cannot change the matrix handed to the (serial,
    // deterministic) regression solve below.
    const std::size_t n = configs.size();
    const std::size_t m = programModels_.size();
    const std::size_t dim = featureDim();
    ACDSE_CHECK(dim == kNumParams, "ensemble expects ", dim,
                " features, configurations carry ", kNumParams);
    std::vector<double> rows(n * dim);
    for (std::size_t i = 0; i < n; ++i)
        configs[i].featuresInto(&rows[i * dim]);
    std::vector<double> ensemble(m * n);
    ThreadPool::global().parallelFor(0, m, [&](std::size_t j) {
        MlpBatchScratch scratch;
        programModels_[j]->predictBatchFromFeatures(
            rows.data(), n, &ensemble[j * n], scratch);
    });
    std::vector<std::vector<double>> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i].resize(m);
        for (std::size_t j = 0; j < m; ++j)
            xs[i][j] = ensemble[j * n + i];
    }
    regressor_.fit(xs, values, options_.ridge, options_.intercept);
    responsesFitted_ = true;

    std::vector<double> fitted(xs.size());
    ThreadPool::global().parallelFor(
        0, xs.size(),
        [&](std::size_t i) { fitted[i] = regressor_.predict(xs[i]); },
        /*grain=*/16);
    trainingError_ = stats::rmae(fitted, values);
}

double
ArchitectureCentricPredictor::predict(const MicroarchConfig &config) const
{
    PredictScratch scratch;
    return predictFromFeatures(config.asFeatureVector(), scratch);
}

double
ArchitectureCentricPredictor::predictFromFeatures(
    const std::vector<double> &features, PredictScratch &scratch) const
{
    ACDSE_DCHECK(ready(), "predict before training/responses");
    scratch.ensemble.resize(programModels_.size());
    for (std::size_t i = 0; i < programModels_.size(); ++i) {
        scratch.ensemble[i] =
            programModels_[i]->predictFromFeatures(features,
                                                   scratch.scaled);
    }
    return regressor_.predict(scratch.ensemble);
}

void
ArchitectureCentricPredictor::predictBatchFromFeatures(
    const double *features, std::size_t count, double *out,
    BatchPredictScratch &scratch) const
{
    const ArchitectureCentricPredictor *self = this;
    predictRows({&self, 1}, features, count, out, scratch);
}

void
ArchitectureCentricPredictor::predictBlockSoaFromFeatures(
    const double *soa, std::size_t count, double *out,
    BatchPredictScratch &scratch) const
{
    ACDSE_DCHECK(ready(), "predict before training/responses");
    const std::size_t m = programModels_.size();
    scratch.ensemble.resize(m * simd::kLanes);
    // Every member model consumes the shared feature-major block
    // directly; the model-major outputs are exactly a feature-major
    // block for the regressor, combined lane-wise in the same
    // ascending-model order as the scalar predict. Rows keep the
    // kLanes stride; the regressor reads only the first count lanes.
    for (std::size_t j = 0; j < m; ++j) {
        programModels_[j]->predictBlockSoaFromFeatures(
            soa, count, scratch.ensemble.data() + j * simd::kLanes,
            scratch.mlp);
    }
    regressor_.predictSoa(scratch.ensemble.data(), simd::kLanes, count,
                          out);
}

void
predictRows(std::span<const ArchitectureCentricPredictor *const> predictors,
            const double *rows, std::size_t count, double *out,
            BatchPredictScratch &scratch)
{
    if (predictors.empty())
        return;
    constexpr std::size_t lanes = simd::kLanes;
    const std::size_t d = predictors.front()->featureDim();
    for (const ArchitectureCentricPredictor *predictor : predictors)
        ACDSE_DCHECK(predictor->featureDim() == d, "mixed feature widths");
    scratch.soa.resize(d * lanes);
    double block[lanes];
    for (std::size_t base = 0; base < count; base += lanes) {
        const std::size_t n = std::min(lanes, count - base);
        simd::transposeBlock(rows + base * d, n, d, scratch.soa.data());
        for (std::size_t k = 0; k < predictors.size(); ++k) {
            predictors[k]->predictBlockSoaFromFeatures(
                scratch.soa.data(), n, block, scratch);
            std::copy_n(block, n, out + k * count + base);
        }
    }
}

void
ArchitectureCentricPredictor::save(BinaryWriter &w) const
{
    ACDSE_CHECK(offlineTrained_,
                 "cannot save before the offline phase");
    w.f64(options_.ridge);
    w.u8(options_.intercept ? 1 : 0);
    w.u8(responsesFitted_ ? 1 : 0);
    w.f64(trainingError_);
    w.u64(programModels_.size());
    for (std::size_t i = 0; i < programModels_.size(); ++i) {
        w.str(programNames_[i]);
        programModels_[i]->save(w);
    }
    if (responsesFitted_)
        regressor_.save(w);
}

void
ArchitectureCentricPredictor::load(BinaryReader &r)
{
    options_.ridge = r.f64();
    options_.intercept = r.u8() != 0;
    const bool fitted = r.u8() != 0;
    trainingError_ = r.f64();
    const std::uint64_t count = r.u64();
    if (count == 0)
        throw SerializationError("predictor with no program models");

    programNames_.clear();
    programModels_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        programNames_.push_back(r.str());
        auto model = std::make_shared<ProgramSpecificPredictor>();
        model->load(r);
        programModels_.push_back(std::move(model));
    }
    if (fitted) {
        regressor_.load(r);
        if (regressor_.weights().size() != programModels_.size())
            throw SerializationError(
                "regression arity does not match the model count");
    } else {
        regressor_ = LinearRegression();
    }
    offlineTrained_ = true;
    responsesFitted_ = fitted;
}

const std::vector<double> &
ArchitectureCentricPredictor::weights() const
{
    ACDSE_CHECK(responsesFitted_, "weights before fitResponses");
    return regressor_.weights();
}

} // namespace acdse
