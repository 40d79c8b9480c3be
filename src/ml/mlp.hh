/**
 * @file
 * Multilayer perceptron (paper Section 5.2.1).
 *
 * A feed-forward network with one hidden layer of tanh neurons and a
 * linear output, trained with stochastic back-propagation. This is the
 * program-specific predictor of Ipek et al. that the architecture-
 * centric model both builds on (as its offline per-program models) and
 * compares against (Fig. 13). predictBatch() runs simd::kLanes points
 * per lane-parallel block, a short tail padded with copies of its last
 * point, bit-identical to predict().
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ml/scaler.hh"

namespace acdse
{

class BinaryWriter;
class BinaryReader;

/** Training hyper-parameters for Mlp. */
struct MlpOptions
{
    int hiddenNeurons = 10;      //!< hidden-layer width (paper: 10)
    int epochs = 500;            //!< passes over the training set
    double learningRate = 0.02;  //!< initial SGD step size
    double momentum = 0.9;       //!< classical momentum
    double lrDecay = 0.995;      //!< per-epoch learning-rate decay
    std::uint64_t seed = 1;      //!< weight init + shuffling seed
};

/**
 * Reusable buffers for Mlp::predictBatch. One instance per predicting
 * thread keeps the batch hot path free of heap allocations after the
 * first block.
 */
struct MlpBatchScratch
{
    std::vector<double> block; //!< feature-major scaled SoA block
    std::vector<double> soa;   //!< feature-major raw transposed block
};

/**
 * One-hidden-layer regression MLP: y = w_o . tanh(W_h [x;1]) + b_o
 * (paper equation (2)). Inputs and the target are z-scored internally.
 */
class Mlp
{
  public:
    /** Construct with the given hyper-parameters. */
    explicit Mlp(MlpOptions options = {});

    /**
     * Train on n samples with back-propagation. Re-entrant: calling
     * train again refits from fresh weights.
     */
    void train(const std::vector<std::vector<double>> &xs,
               const std::vector<double> &ys);

    /**
     * Predict one sample. Thread-safe on a trained network: the
     * forward pass touches no shared mutable state, so a serving
     * thread pool may call this concurrently.
     */
    double predict(const std::vector<double> &x) const;

    /**
     * Predict one sample using @p scratch for the scaled input
     * (resized as needed). Identical arithmetic to predict(), but
     * allocation-free when the buffer is reused across calls -- the
     * serving hot path.
     */
    double predict(const std::vector<double> &x,
                   std::vector<double> &scratch) const;

    /**
     * Predict @p count samples at once: point c occupies
     * xs[c * inputDim() .. (c+1) * inputDim()) row-major, and its
     * prediction lands in out[c]. Every simd::kLanes-wide block runs
     * through the vectorised lane kernels (one amortised scaler
     * transform per block, batched activations); a short tail block is
     * padded with copies of its last point (simd::transposeBlock) and
     * only its real lanes are written. Every lane performs the scalar
     * path's exact operation sequence, so out[c] == predict(point c)
     * bit for bit at any batch size -- enforced by
     * tests/test_batch_predict.cc.
     * Thread-safe on a trained network, like predict().
     */
    void predictBatch(const double *xs, std::size_t count, double *out,
                      MlpBatchScratch &scratch) const;

    /**
     * Predict one block of simd::kLanes points already transposed to
     * feature-major layout (soa[i * kLanes + l] = raw feature i of
     * point l, see simd::transposeBlock) whose first @p count
     * (1..kLanes) lanes are real; out[0 .. count) receives their
     * predictions and the other lanes of out are unspecified. This is
     * the ensemble hot path: the caller transposes each block once and
     * every member model consumes it directly, instead of each model
     * re-gathering the same strided rows. Bit-identical to predict()
     * per lane, like predictBatch.
     */
    void predictBlockSoa(const double *soa, std::size_t count,
                         double *out, MlpBatchScratch &scratch) const;

    /** Whether train() has been called. */
    bool trained() const { return trained_; }

    /** Width of the feature vectors the network was trained on. */
    std::size_t inputDim() const { return inputDim_; }

    /** The options the network was built with. */
    const MlpOptions &options() const { return options_; }

    /**
     * Serialise the trained network (options, scalers and weights);
     * a loaded network predicts bit-identically to the saved one.
     */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    /**
     * Forward pass on an already-scaled input. If @p hidden is
     * non-null it receives the hidden activations (sized
     * hiddenNeurons), which back-propagation needs.
     */
    double forwardScaled(const std::vector<double> &xz,
                         std::vector<double> *hidden = nullptr) const;

    /**
     * Forward pass on one simd::kLanes-wide feature-major block of
     * already-scaled inputs; writes the (still target-scaled) network
     * outputs to @p out for the whole chunks that cover the first
     * @p count lanes and returns how many lanes that is. The buffers
     * must not overlap (__restrict: lets the lane loops vectorise).
     */
    std::size_t forwardBlock(const double *__restrict block,
                             std::size_t count,
                             double *__restrict out) const;

    /** One full SGD run on scaled data at the given learning rate. */
    void trainScaled(const std::vector<std::vector<double>> &xz,
                     const std::vector<double> &yz, double rate);

    MlpOptions options_;
    StandardScaler inputScaler_;
    TargetScaler targetScaler_;
    std::size_t inputDim_ = 0;
    // Weights: hidden layer is (hidden x (inputDim+1)) with the bias
    // folded in as the last column; output is (hidden+1) with bias last.
    std::vector<double> hiddenWeights_;
    std::vector<double> outputWeights_;
    bool trained_ = false;
};

} // namespace acdse

