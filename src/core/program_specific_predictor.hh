/**
 * @file
 * Program-specific performance predictor (Ipek et al., ASPLOS'06 --
 * the paper's reference [7] and its main comparison point, Fig. 13).
 *
 * An artificial neural network maps the 13-parameter configuration
 * vector to one target metric for one program. The architecture-centric
 * model trains N of these offline (one per training program) and
 * combines them; the standalone predictor is also evaluated on its own
 * as the state-of-the-art baseline.
 */

#pragma once

#include <vector>

#include "arch/microarch_config.hh"
#include "ml/mlp.hh"

namespace acdse
{

class BinaryWriter;
class BinaryReader;

/** Options for a program-specific predictor. */
struct ProgramSpecificOptions
{
    MlpOptions mlp;         //!< network hyper-parameters (paper: 10 hidden)
    /**
     * Learn log(metric) instead of the raw metric. Design-space metrics
     * span orders of magnitude, and relative (rmae) error is what is
     * evaluated, so a log target conditions the regression on exactly
     * the quantity being scored. Disable to ablate.
     */
    bool logTarget = true;
};

/** One trained program-specific model for one (program, metric) pair. */
class ProgramSpecificPredictor
{
  public:
    /** Construct with hyper-parameters; train() does the work. */
    explicit ProgramSpecificPredictor(ProgramSpecificOptions options = {});

    /**
     * Train on T simulated configurations of one program.
     * @param configs the simulated design points.
     * @param values  the measured metric at each point (all > 0).
     */
    void train(const std::vector<MicroarchConfig> &configs,
               const std::vector<double> &values);

    /** Predict the metric for an arbitrary configuration. */
    double predict(const MicroarchConfig &config) const;

    /**
     * Predict from a precomputed feature vector
     * (MicroarchConfig::asFeatureVector()), using @p scratch for the
     * network's scaled input. Identical arithmetic to predict(); lets
     * callers that evaluate many models on one configuration -- the
     * architecture-centric ensemble, the prediction service -- build
     * the feature vector once and keep the hot path allocation-free.
     */
    double predictFromFeatures(const std::vector<double> &features,
                               std::vector<double> &scratch) const;

    /**
     * Predict @p count points at once: point c occupies
     * features[c * inputDim() .. (c+1) * inputDim()) row-major and its
     * prediction lands in out[c]. Runs the vectorised Mlp::predictBatch
     * kernel (plus the batched log-target inversion); out[c] is
     * bit-identical to predictFromFeatures on point c at any count.
     */
    void predictBatchFromFeatures(const double *features,
                                  std::size_t count, double *out,
                                  MlpBatchScratch &scratch) const;

    /**
     * Predict the first @p count lanes of one simd::kLanes-wide block
     * already transposed to feature-major layout (see
     * Mlp::predictBlockSoa) into out[0 .. count), bit-identical to
     * predictFromFeatures per lane. The ensemble transposes each block
     * once and hands it to every member through this entry point.
     */
    void predictBlockSoaFromFeatures(const double *soa, std::size_t count,
                                     double *out,
                                     MlpBatchScratch &scratch) const;

    /** Whether train() has been called. */
    bool trained() const { return mlp_.trained(); }

    /** Width of the feature vectors the network expects. */
    std::size_t inputDim() const { return mlp_.inputDim(); }

    /** Serialise the trained model (bit-exact round trip). */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    ProgramSpecificOptions options_;
    Mlp mlp_;
};

} // namespace acdse

