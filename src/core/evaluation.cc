#include "core/evaluation.hh"

#include <algorithm>
#include <numeric>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "obs/trace_span.hh"

namespace acdse
{

namespace
{

/**
 * Block size for batched scoring. Large enough to amortise the per-call
 * scaler transform and keep the lane kernels fed; small enough that the
 * feature block plus the ensemble scratch stay cache-resident.
 */
constexpr std::size_t kScoreBlock = 256;

/**
 * Stream configs @p idx through @p predictBlock in kScoreBlock chunks
 * and score the predictions. The actual/predicted vectors are filled in
 * the same index order as the per-point scorePredictions template, so
 * the rmae/correlation sums accumulate identically.
 */
template <typename BatchFn>
PredictionQuality
scoreBlocks(const Campaign &campaign, std::size_t programIdx,
            Metric metric, const std::vector<std::size_t> &idx,
            BatchFn &&predictBlock)
{
    std::vector<double> actual(idx.size());
    std::vector<double> predicted(idx.size());
    std::vector<double> features(
        std::min(kScoreBlock, idx.size()) * kNumParams);
    for (std::size_t base = 0; base < idx.size(); base += kScoreBlock) {
        const std::size_t n = std::min(kScoreBlock, idx.size() - base);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t c = idx[base + i];
            campaign.configs()[c].featuresInto(&features[i * kNumParams]);
            actual[base + i] =
                campaign.result(programIdx, c).get(metric);
        }
        predictBlock(features.data(), n, &predicted[base]);
    }
    PredictionQuality quality;
    quality.rmaePercent = stats::rmae(predicted, actual);
    quality.correlation = stats::correlation(predicted, actual);
    return quality;
}

} // namespace

PredictionQuality
scorePredictionsBatched(const Campaign &campaign, std::size_t programIdx,
                        Metric metric,
                        const std::vector<std::size_t> &idx,
                        const ArchitectureCentricPredictor &predictor)
{
    BatchPredictScratch scratch;
    return scoreBlocks(
        campaign, programIdx, metric, idx,
        [&](const double *xs, std::size_t n, double *out) {
            predictor.predictBatchFromFeatures(xs, n, out, scratch);
        });
}

PredictionQuality
scorePredictionsBatched(const Campaign &campaign, std::size_t programIdx,
                        Metric metric,
                        const std::vector<std::size_t> &idx,
                        const ProgramSpecificPredictor &predictor)
{
    MlpBatchScratch scratch;
    return scoreBlocks(
        campaign, programIdx, metric, idx,
        [&](const double *xs, std::size_t n, double *out) {
            predictor.predictBatchFromFeatures(xs, n, out, scratch);
        });
}

std::vector<std::size_t>
sampleIndices(std::size_t limit, std::size_t count, std::uint64_t seed)
{
    ACDSE_CHECK(count <= limit, "cannot sample ", count, " of ", limit);
    std::vector<std::size_t> all(limit);
    std::iota(all.begin(), all.end(), 0);
    Rng rng(seed);
    // Partial Fisher-Yates: shuffle only the prefix we keep.
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j = i + rng.nextBounded(limit - i);
        std::swap(all[i], all[j]);
    }
    all.resize(count);
    return all;
}

Evaluator::Evaluator(Campaign &campaign, ArchCentricOptions options,
                     std::size_t threads)
    : campaign_(campaign), options_(options)
{
    if (threads)
        ownedPool_ = std::make_unique<ThreadPool>(threads);
    campaign_.ensureComputed();
}

Evaluator::~Evaluator() = default;

ThreadPool &
Evaluator::pool()
{
    return ownedPool_ ? *ownedPool_ : ThreadPool::global();
}

std::shared_ptr<const ProgramSpecificPredictor>
Evaluator::trainProgramModel(std::size_t programIdx, Metric metric,
                             std::size_t t, std::uint64_t seed) const
{
    // Per-program training sets use a seed derived from (seed, program)
    // so different programs see different configurations, as with
    // independent random selection in the paper. The derivation is
    // also what makes parallel training deterministic: a model's
    // stream depends only on (seed, program), never on which worker
    // trains it or in what order.
    const std::uint64_t derived =
        seed ^ (0x9e3779b97f4a7c15ULL * (programIdx + 1));
    const auto idx =
        sampleIndices(campaign_.configs().size(), t, derived);

    auto opts = options_.programModel;
    opts.mlp.seed = derived ^ 0xdecafbadULL;
    return trainEnsembleMember(opts, campaign_.configsAt(idx),
                               campaign_.metricAt(programIdx, metric, idx));
}

std::shared_ptr<const ProgramSpecificPredictor>
Evaluator::programModel(std::size_t programIdx, Metric metric,
                        std::size_t t, std::uint64_t seed)
{
    const ModelKey key = std::make_tuple(programIdx, metric, t, seed);
    {
        MutexLock lock(cacheMutex_);
        auto it = modelCache_.find(key);
        if (it != modelCache_.end())
            return it->second;
    }
    auto model = trainProgramModel(programIdx, metric, t, seed);
    MutexLock lock(cacheMutex_);
    // Two folds can race to train the same model; both train it
    // identically (deterministic derivation), so keeping whichever
    // inserted first changes nothing.
    return modelCache_.emplace(key, std::move(model)).first->second;
}

void
Evaluator::warmProgramModels(const std::vector<std::size_t> &programs,
                             Metric metric, std::size_t t,
                             std::uint64_t seed)
{
    std::vector<std::size_t> missing;
    {
        MutexLock lock(cacheMutex_);
        for (std::size_t p : programs) {
            if (!modelCache_.contains(
                    std::make_tuple(p, metric, t, seed)))
                missing.push_back(p);
        }
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    if (missing.empty())
        return;

    std::vector<std::shared_ptr<const ProgramSpecificPredictor>> models(
        missing.size());
    pool().parallelFor(0, missing.size(), [&](std::size_t i) {
        models[i] = trainProgramModel(missing[i], metric, t, seed);
    });
    MutexLock lock(cacheMutex_);
    for (std::size_t i = 0; i < missing.size(); ++i) {
        modelCache_.emplace(std::make_tuple(missing[i], metric, t, seed),
                            std::move(models[i]));
    }
}

PredictionQuality
Evaluator::evaluateProgramSpecific(std::size_t programIdx, Metric metric,
                                   std::size_t numSims,
                                   std::uint64_t seed)
{
    const std::size_t total = campaign_.configs().size();
    const auto train_idx = sampleIndices(total, numSims, seed);
    std::vector<char> is_train(total, 0);
    for (std::size_t c : train_idx)
        is_train[c] = 1;

    auto opts = options_.programModel;
    opts.mlp.seed = seed ^ 0xabcdef12ULL;
    ProgramSpecificPredictor model(opts);
    model.train(campaign_.configsAt(train_idx),
                campaign_.metricAt(programIdx, metric, train_idx));

    std::vector<std::size_t> test_idx;
    test_idx.reserve(total - numSims);
    for (std::size_t c = 0; c < total; ++c) {
        if (!is_train[c])
            test_idx.push_back(c);
    }
    PredictionQuality quality = scorePredictionsBatched(
        campaign_, programIdx, metric, test_idx, model);

    // Training error: the model scored on its own training points.
    PredictionQuality train_quality = scorePredictionsBatched(
        campaign_, programIdx, metric, train_idx, model);
    quality.trainingErrorPercent = train_quality.rmaePercent;
    return quality;
}

ArchitectureCentricPredictor
Evaluator::makeOfflinePredictor(
    const std::vector<std::size_t> &trainingPrograms, Metric metric,
    std::size_t t, std::uint64_t seed)
{
    std::vector<std::string> names;
    std::vector<std::shared_ptr<const ProgramSpecificPredictor>> models;
    for (std::size_t p : trainingPrograms) {
        names.push_back(campaign_.programs()[p]);
        models.push_back(programModel(p, metric, t, seed));
    }
    ArchitectureCentricPredictor predictor(options_);
    predictor.useModels(std::move(names), std::move(models));
    return predictor;
}

PredictionQuality
Evaluator::evaluateArchCentric(
    std::size_t testProgramIdx, Metric metric,
    const std::vector<std::size_t> &trainingPrograms, std::size_t t,
    std::size_t r, std::uint64_t seed)
{
    for (std::size_t p : trainingPrograms) {
        ACDSE_CHECK(p != testProgramIdx,
                     "test program must not be in the training set");
    }
    ArchitectureCentricPredictor predictor =
        makeOfflinePredictor(trainingPrograms, metric, t, seed);

    const std::size_t total = campaign_.configs().size();
    const auto response_idx =
        sampleIndices(total, r, seed ^ 0x5eed'0002ULL);
    predictor.fitResponses(
        campaign_.configsAt(response_idx),
        campaign_.metricAt(testProgramIdx, metric, response_idx));

    std::vector<char> is_response(total, 0);
    for (std::size_t c : response_idx)
        is_response[c] = 1;
    std::vector<std::size_t> test_idx;
    test_idx.reserve(total - r);
    for (std::size_t c = 0; c < total; ++c) {
        if (!is_response[c])
            test_idx.push_back(c);
    }

    PredictionQuality quality = scorePredictionsBatched(
        campaign_, testProgramIdx, metric, test_idx, predictor);
    quality.trainingErrorPercent = predictor.trainingErrorPercent();
    return quality;
}

std::vector<PredictionQuality>
Evaluator::evaluateProgramSpecificSweep(
    const std::vector<std::size_t> &programs, Metric metric,
    std::size_t numSims, std::uint64_t seed)
{
    std::vector<PredictionQuality> results(programs.size());
    obs::Stage &blockStage =
        obs::Registry::global().stage("sweep/block");
    pool().parallelFor(0, programs.size(), [&](std::size_t i) {
        const obs::TraceSpan span(blockStage);
        results[i] = evaluateProgramSpecific(programs[i], metric,
                                             numSims, seed);
    });
    return results;
}

std::vector<PredictionQuality>
Evaluator::evaluateArchCentricSweep(
    const std::vector<std::size_t> &testPrograms, Metric metric,
    std::size_t t, std::size_t r, std::uint64_t seed,
    const std::vector<std::size_t> &trainingPool)
{
    const std::vector<std::size_t> &poolPrograms =
        trainingPool.empty() ? testPrograms : trainingPool;
    // Train every ANN a fold could need up front, in parallel; the
    // folds below then only read the model cache.
    warmProgramModels(poolPrograms, metric, t, seed);

    std::vector<PredictionQuality> results(testPrograms.size());
    obs::Stage &blockStage =
        obs::Registry::global().stage("sweep/block");
    pool().parallelFor(0, testPrograms.size(), [&](std::size_t i) {
        const obs::TraceSpan span(blockStage);
        const std::size_t p = testPrograms[i];
        std::vector<std::size_t> training;
        training.reserve(poolPrograms.size());
        for (std::size_t q : poolPrograms) {
            if (q != p)
                training.push_back(q);
        }
        results[i] =
            evaluateArchCentric(p, metric, training, t, r, seed);
    });
    return results;
}

} // namespace acdse
