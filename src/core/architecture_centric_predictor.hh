/**
 * @file
 * The paper's contribution: the architecture-centric predictor
 * (Section 5, Fig. 6).
 *
 * Offline, one program-specific ANN is trained per training program
 * (T = 512 simulations each). To predict a *new* program, only R = 32
 * simulations of it ("responses") are needed: a linear regressor is
 * fitted so that a weighted combination of the trained ANNs' outputs
 * matches the responses, and that combination then predicts the whole
 * 13-parameter design space for the new program.
 */

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/microarch_config.hh"
#include "core/program_specific_predictor.hh"
#include "ml/linear_regression.hh"

namespace acdse
{

class BinaryWriter;
class BinaryReader;

/** Options for the architecture-centric model. */
struct ArchCentricOptions
{
    ProgramSpecificOptions programModel; //!< per-program ANN settings
    /**
     * Relative ridge strength for the response regression. With ~25
     * highly-correlated ANN features and only 32 responses, the paper's
     * plain normal equations (5) are badly conditioned and overfit the
     * responses; shrinking the weights markedly improves generalisation
     * (on our substrate: cycles rmae 12.6% -> 6.0% and correlation
     * 0.76 -> 0.94 at lambda = 2e-2 -- see bench_ablation for the
     * sweep). Set to 0 for the paper's exact ordinary least squares.
     */
    double ridge = 2e-2;
    /** Fit the regressor's intercept beta_0. */
    bool intercept = true;
};

/**
 * Reusable buffers for ArchitectureCentricPredictor::predictFromFeatures.
 * One instance per serving thread keeps the prediction hot path free of
 * heap allocations after the first call.
 */
struct PredictScratch
{
    std::vector<double> scaled;    //!< per-ANN scaled-input buffer
    std::vector<double> ensemble;  //!< the ANN outputs (regressor input)
};

/**
 * Reusable buffers for predictRows() and
 * ArchitectureCentricPredictor::predictBatchFromFeatures. Holds one
 * block's worth of state (ensemble size x simd::kLanes), whatever the
 * batch count, so one instance per scoring thread keeps the batch hot
 * path free of heap allocations after the first call.
 */
struct BatchPredictScratch
{
    MlpBatchScratch mlp;           //!< shared per-ANN kernel buffers
    std::vector<double> ensemble;  //!< model-major ANN outputs
    std::vector<double> soa;       //!< one feature-major transposed block
};

/** Training data for one offline training program. */
struct ProgramTrainingSet
{
    std::string name;                       //!< program name
    std::vector<MicroarchConfig> configs;   //!< its T simulated configs
    std::vector<double> values;             //!< measured metric values
};

/** The architecture-centric predictor for one target metric. */
class ArchitectureCentricPredictor
{
  public:
    /** Construct with hyper-parameters. */
    explicit ArchitectureCentricPredictor(ArchCentricOptions options = {});

    /**
     * Offline phase: train one program-specific ANN per training
     * program. Expensive, but done once, before any new program is
     * seen.
     */
    void trainOffline(const std::vector<ProgramTrainingSet> &trainingSets);

    /**
     * Alternative offline phase: adopt already-trained program models
     * (shared, e.g. from an evaluation cache -- in leave-one-out cross
     * validation the same per-program ANN appears in many folds).
     */
    void useModels(
        std::vector<std::string> names,
        std::vector<std::shared_ptr<const ProgramSpecificPredictor>>
            models);

    /**
     * Online phase: fit the linear combination from R responses of the
     * new program. Cheap; call again for each new program.
     */
    void fitResponses(const std::vector<MicroarchConfig> &configs,
                      const std::vector<double> &values);

    /** Predict the metric of the new program at any configuration. */
    double predict(const MicroarchConfig &config) const;

    /**
     * Predict from a precomputed feature vector
     * (MicroarchConfig::asFeatureVector()), reusing @p scratch across
     * calls. Identical arithmetic to predict(); lets a caller that
     * evaluates several metrics of one configuration -- the prediction
     * service serves cycles, energy, ED and EDD per query -- build the
     * feature vector once and keep the hot path allocation-free.
     */
    double predictFromFeatures(const std::vector<double> &features,
                               PredictScratch &scratch) const;

    /**
     * Predict @p count design points at once: point c occupies
     * features[c * featureDim() .. (c+1) * featureDim()) row-major and
     * its prediction lands in out[c]. The one-predictor case of
     * predictRows(), so out[c] is bit-identical to predictFromFeatures
     * on point c at any count and thread count.
     */
    void predictBatchFromFeatures(const double *features,
                                  std::size_t count, double *out,
                                  BatchPredictScratch &scratch) const;

    /**
     * Error of the fit on its own responses (the "training error" of
     * Figs. 11/12, which the paper shows is a usable proxy for the
     * testing error and so flags programs with unique behaviour).
     */
    double trainingErrorPercent() const { return trainingError_; }

    /** Names of the offline training programs. */
    const std::vector<std::string> &trainingPrograms() const
    {
        return programNames_;
    }

    /** The fitted combination weights (one per training program). */
    const std::vector<double> &weights() const;

    /** Whether both phases have completed. */
    bool ready() const { return offlineTrained_ && responsesFitted_; }

    /**
     * Feature-vector width the ensemble expects (0 before the offline
     * phase). Boundary code -- the prediction service -- checks this
     * against kNumParams once per artifact, so the per-point predict
     * path can keep its width checks as debug-only DCHECKs.
     */
    std::size_t featureDim() const
    {
        return programModels_.empty() ? 0
                                      : programModels_.front()->inputDim();
    }

    /** Whether the offline phase has completed. */
    bool offlineTrained() const { return offlineTrained_; }

    /**
     * Serialise the full predictor state: options, the per-program ANN
     * ensemble and (if fitted) the response regression. A loaded
     * predictor predicts bit-identically and can fitResponses() again
     * for further new programs.
     */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    friend void predictRows(
        std::span<const ArchitectureCentricPredictor *const> predictors,
        const double *rows, std::size_t count, double *out,
        BatchPredictScratch &scratch);

    /**
     * predictRows()'s kernel: predictions for the first @p count lanes
     * of one SoA block; all kLanes lanes of @p out are written.
     */
    void predictBlockSoaFromFeatures(const double *soa, std::size_t count,
                                     double *out,
                                     BatchPredictScratch &scratch) const;

    ArchCentricOptions options_;
    std::vector<std::string> programNames_;
    std::vector<std::shared_ptr<const ProgramSpecificPredictor>>
        programModels_;
    LinearRegression regressor_;
    double trainingError_ = 0.0;
    bool offlineTrained_ = false;
    bool responsesFitted_ = false;
};

/**
 * The one batch scorer: predict @p count design points, row-major in
 * @p rows (featureDim() doubles each, the same for every predictor),
 * with every predictor; predictors[k]'s prediction for point i lands
 * in out[k * count + i], and nothing past out[predictors.size() *
 * count] is written. Each simd::kLanes block, a short tail padded with
 * copies of its last row (simd::transposeBlock), is transposed once
 * for all the predictors, and out[k * count + i] is bit-identical to
 * predictors[k]->predictFromFeatures on point i. Allocation-free on a
 * warm @p scratch.
 */
void predictRows(
    std::span<const ArchitectureCentricPredictor *const> predictors,
    const double *rows, std::size_t count, double *out,
    BatchPredictScratch &scratch);

} // namespace acdse

