/**
 * @file
 * Evaluation harness implementing the paper's methodology (Sections 6
 * and 7): N-fold / leave-one-out cross validation over the sampled
 * design space, scored with rmae and the correlation coefficient.
 */

#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "base/statistics.hh"
#include "base/sync.hh"
#include "core/architecture_centric_predictor.hh"
#include "core/campaign.hh"

namespace acdse
{

class ThreadPool;

/** Quality of one prediction experiment. */
struct PredictionQuality
{
    double rmaePercent = 0.0;       //!< relative mean absolute error (%)
    double correlation = 0.0;       //!< Pearson correlation coefficient
    double trainingErrorPercent = 0.0; //!< error on the fit's own inputs
};

/** Draw @p count distinct indices from [0, limit) (order randomised). */
std::vector<std::size_t> sampleIndices(std::size_t limit,
                                       std::size_t count,
                                       std::uint64_t seed);

/**
 * Runs the paper's experiments against a Campaign. Program-specific
 * ANNs are cached per (program, metric, T, seed): leave-one-out folds
 * share them, cutting evaluation cost by ~N x.
 *
 * The sweep entry points (evaluateProgramSpecificSweep,
 * evaluateArchCentricSweep) spread their per-program folds across the
 * thread pool; results are written to index-ordered slots and every
 * fold derives its randomness from (seed, program), so sweeps are
 * bit-identical at any thread count and to the equivalent serial loop
 * of single-fold calls (tests/test_parallel_determinism.cc).
 */
class Evaluator
{
  public:
    /**
     * @param campaign a computed (or computable) campaign.
     * @param options  predictor hyper-parameters.
     * @param threads  explicit sweep parallelism; 0 uses the shared
     *                 pool (ACDSE_THREADS sizing rule).
     */
    explicit Evaluator(Campaign &campaign,
                       ArchCentricOptions options = {},
                       std::size_t threads = 0);

    ~Evaluator();

    /** The underlying campaign. */
    Campaign &campaign() { return campaign_; }

    /**
     * Evaluate the program-specific baseline: train an ANN on
     * @p numSims random configurations of the program, test on all
     * remaining sampled configurations.
     */
    PredictionQuality evaluateProgramSpecific(std::size_t programIdx,
                                              Metric metric,
                                              std::size_t numSims,
                                              std::uint64_t seed);

    /**
     * Evaluate the architecture-centric model: offline-train on
     * @p trainingPrograms (T simulations each), draw R responses of the
     * test program, and test on all configurations not used as
     * responses. The test program must not be in the training set.
     */
    PredictionQuality evaluateArchCentric(
        std::size_t testProgramIdx, Metric metric,
        const std::vector<std::size_t> &trainingPrograms, std::size_t t,
        std::size_t r, std::uint64_t seed);

    /**
     * Program-specific baseline for every program in @p programs, in
     * parallel across the pool. Element i is exactly what
     * evaluateProgramSpecific(programs[i], ...) returns.
     */
    std::vector<PredictionQuality> evaluateProgramSpecificSweep(
        const std::vector<std::size_t> &programs, Metric metric,
        std::size_t numSims, std::uint64_t seed);

    /**
     * Architecture-centric evaluation of every program in
     * @p testPrograms, in parallel across the pool. Fold i tests
     * testPrograms[i] against a training set of @p trainingPool minus
     * the test program (when @p trainingPool is empty: the other
     * members of @p testPrograms -- classic leave-one-out). Element i
     * is exactly what the equivalent single evaluateArchCentric call
     * returns.
     */
    std::vector<PredictionQuality> evaluateArchCentricSweep(
        const std::vector<std::size_t> &testPrograms, Metric metric,
        std::size_t t, std::size_t r, std::uint64_t seed,
        const std::vector<std::size_t> &trainingPool = {});

    /**
     * Train (and cache) the per-program ANNs for @p programs in
     * parallel. Sweeps call this first so their folds only read the
     * cache; benches may call it to front-load the offline phase.
     */
    void warmProgramModels(const std::vector<std::size_t> &programs,
                           Metric metric, std::size_t t,
                           std::uint64_t seed);

    /**
     * Build an architecture-centric predictor (offline phase only) from
     * cached models -- used by benches that then fit responses
     * themselves (e.g. Fig. 1).
     */
    ArchitectureCentricPredictor makeOfflinePredictor(
        const std::vector<std::size_t> &trainingPrograms, Metric metric,
        std::size_t t, std::uint64_t seed);

    /** A trained per-program ANN from the cache (training on miss). */
    std::shared_ptr<const ProgramSpecificPredictor> programModel(
        std::size_t programIdx, Metric metric, std::size_t t,
        std::uint64_t seed);

  private:
    using ModelKey =
        std::tuple<std::size_t, Metric, std::size_t, std::uint64_t>;

    /** Train one per-program ANN (no cache involvement). */
    std::shared_ptr<const ProgramSpecificPredictor> trainProgramModel(
        std::size_t programIdx, Metric metric, std::size_t t,
        std::uint64_t seed) const;

    /** The pool sweeps run on (shared or explicitly sized). */
    ThreadPool &pool();

    Campaign &campaign_;
    ArchCentricOptions options_;
    std::unique_ptr<ThreadPool> ownedPool_; //!< set iff threads != 0
    // Guards modelCache_: sweep folds running on pool workers hit the
    // cache concurrently (warmProgramModels makes those reads, but a
    // cold fold may still insert).
    Mutex cacheMutex_;
    std::map<ModelKey,
             std::shared_ptr<const ProgramSpecificPredictor>>
        modelCache_ ACDSE_GUARDED_BY(cacheMutex_);
};

/**
 * Score a batch-capable predictor over configs @p idx of a program,
 * streaming fixed-size feature blocks through the vectorised
 * predictBatchFromFeatures kernels instead of one predict call per
 * point. Bit-identical to the equivalent per-point scorePredictions
 * loop (the batch kernels are lane-exact against scalar prediction and
 * the score accumulates in the same index order).
 */
PredictionQuality scorePredictionsBatched(
    const Campaign &campaign, std::size_t programIdx, Metric metric,
    const std::vector<std::size_t> &idx,
    const ArchitectureCentricPredictor &predictor);

/** Batched scoring of a program-specific model; see above. */
PredictionQuality scorePredictionsBatched(
    const Campaign &campaign, std::size_t programIdx, Metric metric,
    const std::vector<std::size_t> &idx,
    const ProgramSpecificPredictor &predictor);

/** Score predictions of @p predict over configs @p idx of a program. */
template <typename PredictFn>
PredictionQuality
scorePredictions(const Campaign &campaign, std::size_t programIdx,
                 Metric metric, const std::vector<std::size_t> &idx,
                 PredictFn &&predict)
{
    std::vector<double> actual;
    std::vector<double> predicted;
    actual.reserve(idx.size());
    predicted.reserve(idx.size());
    for (std::size_t c : idx) {
        actual.push_back(campaign.result(programIdx, c).get(metric));
        predicted.push_back(predict(campaign.configs()[c]));
    }
    PredictionQuality quality;
    quality.rmaePercent = stats::rmae(predicted, actual);
    quality.correlation = stats::correlation(predicted, actual);
    return quality;
}

} // namespace acdse

