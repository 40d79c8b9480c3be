#include "ml/mlp.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/fast_math.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/simd.hh"

namespace acdse
{

Mlp::Mlp(MlpOptions options) : options_(options)
{
    ACDSE_CHECK(options_.hiddenNeurons > 0, "need at least one neuron");
    ACDSE_CHECK(options_.epochs > 0, "need at least one epoch");
}

void
Mlp::train(const std::vector<std::vector<double>> &xs,
           const std::vector<double> &ys)
{
    ACDSE_CHECK(!xs.empty(), "cannot train on no samples");
    ACDSE_CHECK(xs.size() == ys.size(), "xs/ys size mismatch");
    inputDim_ = xs.front().size();

    inputScaler_.fit(xs);
    targetScaler_.fit(ys);
    std::vector<std::vector<double>> xz(xs.size());
    std::vector<double> yz(ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xz[i] = inputScaler_.transform(xs[i]);
        yz[i] = targetScaler_.scale(ys[i]);
    }

    // SGD with momentum can diverge for unlucky (topology, seed, rate)
    // combinations; detect non-finite weights afterwards and retrain
    // at a reduced rate.
    double rate = options_.learningRate;
    for (int attempt = 0; attempt < 4; ++attempt, rate *= 0.25) {
        trainScaled(xz, yz, rate);
        bool finite = true;
        for (double w : hiddenWeights_)
            finite &= std::isfinite(w);
        for (double w : outputWeights_)
            finite &= std::isfinite(w);
        if (finite) {
            trained_ = true;
            return;
        }
    }
    panic("MLP training diverged even at a tiny learning rate");
}

void
Mlp::trainScaled(const std::vector<std::vector<double>> &xz,
                 const std::vector<double> &yz, double rate)
{
    const std::size_t h = static_cast<std::size_t>(options_.hiddenNeurons);
    Rng rng(options_.seed);
    const double init = 1.0 / std::sqrt(static_cast<double>(inputDim_ + 1));
    hiddenWeights_.assign(h * (inputDim_ + 1), 0.0);
    for (auto &w : hiddenWeights_)
        w = rng.nextDouble(-init, init);
    outputWeights_.assign(h + 1, 0.0);
    const double out_init = 1.0 / std::sqrt(static_cast<double>(h + 1));
    for (auto &w : outputWeights_)
        w = rng.nextDouble(-out_init, out_init);
    std::vector<double> hidden(h, 0.0);

    std::vector<double> hidden_vel(hiddenWeights_.size(), 0.0);
    std::vector<double> output_vel(outputWeights_.size(), 0.0);
    std::vector<std::size_t> order(xz.size());
    std::iota(order.begin(), order.end(), 0);

    double lr = rate;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
        rng.shuffle(order);
        for (std::size_t idx : order) {
            const auto &x = xz[idx];
            const double pred = forwardScaled(x, &hidden);
            // Clip the error signal: targets are z-scored, so anything
            // beyond a few sigma indicates a transient blow-up that
            // must not be amplified through the momentum terms.
            const double err =
                std::clamp(pred - yz[idx], -5.0, 5.0);

            // Output-layer gradient: dE/dw_o = err * [hidden; 1].
            for (std::size_t j = 0; j < h; ++j) {
                const double g = err * hidden[j];
                output_vel[j] = options_.momentum * output_vel[j] - lr * g;
            }
            output_vel[h] = options_.momentum * output_vel[h] - lr * err;

            // Hidden-layer gradient through tanh':
            // delta_j = err * w_oj * (1 - hidden_j^2).
            for (std::size_t j = 0; j < h; ++j) {
                const double delta = err * outputWeights_[j] *
                                     (1.0 - hidden[j] * hidden[j]);
                double *row = &hiddenWeights_[j * (inputDim_ + 1)];
                double *vel = &hidden_vel[j * (inputDim_ + 1)];
                for (std::size_t i = 0; i < inputDim_; ++i) {
                    vel[i] = options_.momentum * vel[i] -
                             lr * delta * x[i];
                    row[i] += vel[i];
                }
                vel[inputDim_] =
                    options_.momentum * vel[inputDim_] - lr * delta;
                row[inputDim_] += vel[inputDim_];
            }
            for (std::size_t j = 0; j <= h; ++j)
                outputWeights_[j] += output_vel[j];
        }
        lr *= options_.lrDecay;
    }
}

// fastTanh is the one activation: training, this scalar pass and the
// block kernel below all use it (fastTanhChunk is element-wise the same
// function), so batched and per-point predictions are bit-identical.
double
Mlp::forwardScaled(const std::vector<double> &xz,
                   std::vector<double> *hidden) const
{
    const std::size_t h = static_cast<std::size_t>(options_.hiddenNeurons);
    double out = outputWeights_[h]; // output bias
    for (std::size_t j = 0; j < h; ++j) {
        const double *row = &hiddenWeights_[j * (inputDim_ + 1)];
        double acc = row[inputDim_]; // hidden bias
        for (std::size_t i = 0; i < inputDim_; ++i)
            acc += row[i] * xz[i];
        const double act = fastTanh(acc);
        if (hidden)
            (*hidden)[j] = act;
        out += outputWeights_[j] * act;
    }
    return out;
}

namespace
{

// The block kernel is a free function over __restrict-qualified raw
// pointers (accessed through `this`, the weight vectors defeat alias
// analysis), accumulating in local chunk variables so the accumulators
// live in registers across the whole dot product. Each chunk op is
// element-wise IEEE arithmetic -- the same operations, in the same
// order, as forwardScaled performs per point. It computes the first kC
// chunks of the block: a tail block skips the chunks that hold only
// padding, so a one-point tail costs about one scalar forward pass,
// not a full block.
template <std::size_t kC>
void
forwardBlockKernel(const double *__restrict hidden_weights,
                   const double *__restrict output_weights,
                   std::size_t h, std::size_t d,
                   const double *__restrict block, double *__restrict out)
{
    using simd::Chunk;
    constexpr std::size_t kW = simd::kChunkLanes;
    Chunk o[kC];
    const Chunk ob = simd::chunkBroadcast(output_weights[h]);
    for (std::size_t c = 0; c < kC; ++c)
        o[c] = ob; // output bias
    for (std::size_t j = 0; j < h; ++j) {
        const double *__restrict row = hidden_weights + j * (d + 1);
        Chunk a[kC];
        const Chunk hb = simd::chunkBroadcast(row[d]);
        for (std::size_t c = 0; c < kC; ++c)
            a[c] = hb; // hidden bias
        for (std::size_t i = 0; i < d; ++i) {
            const Chunk w = simd::chunkBroadcast(row[i]);
            const double *x = block + i * simd::kLanes;
            for (std::size_t c = 0; c < kC; ++c)
                a[c] += simd::chunkLoad(x + c * kW) * w;
        }
        for (std::size_t c = 0; c < kC; ++c)
            a[c] = fastTanhChunk(a[c]);
        const Chunk wo = simd::chunkBroadcast(output_weights[j]);
        for (std::size_t c = 0; c < kC; ++c)
            o[c] += a[c] * wo;
    }
    for (std::size_t c = 0; c < kC; ++c)
        simd::chunkStore(out + c * kW, o[c]);
}

/** forwardBlockKernel<c> at index c - 1, for c = 1..kChunks. */
template <std::size_t... C>
constexpr auto
blockKernels(std::index_sequence<C...>)
{
    return std::array{&forwardBlockKernel<C + 1>...};
}

} // namespace

std::size_t
Mlp::forwardBlock(const double *__restrict block, std::size_t count,
                  double *__restrict out) const
{
    // One point per lane: lane l's operation sequence is exactly
    // forwardScaled on point l -- bias, then features in ascending
    // order, activation, then output terms in ascending neuron order
    // -- so each lane reproduces the scalar result bit for bit.
    static constexpr auto kKernels =
        blockKernels(std::make_index_sequence<simd::kChunks>{});
    const std::size_t chunks =
        (count + simd::kChunkLanes - 1) / simd::kChunkLanes;
    kKernels[chunks - 1](hiddenWeights_.data(), outputWeights_.data(),
                         static_cast<std::size_t>(options_.hiddenNeurons),
                         inputDim_, block, out);
    return chunks * simd::kChunkLanes;
}

void
Mlp::predictBlockSoa(const double *soa, std::size_t count, double *out,
                     MlpBatchScratch &scratch) const
{
    ACDSE_DCHECK(trained_, "predict before train");
    ACDSE_DCHECK(count >= 1 && count <= simd::kLanes, "bad lane count");
    scratch.block.resize(inputDim_ * simd::kLanes);
    inputScaler_.transformBlock(soa, count, scratch.block.data());
    targetScaler_.unscaleBatch(
        out, forwardBlock(scratch.block.data(), count, out));
}

void
Mlp::predictBatch(const double *xs, std::size_t count, double *out,
                  MlpBatchScratch &scratch) const
{
    ACDSE_CHECK(trained_, "predict before train");
    constexpr std::size_t lanes = simd::kLanes;
    const std::size_t d = inputDim_;
    // A short tail is padded to a full block; only its real lanes
    // are kept.
    scratch.soa.resize(d * lanes);
    double block[lanes];
    for (std::size_t base = 0; base < count; base += lanes) {
        const std::size_t n = std::min(lanes, count - base);
        simd::transposeBlock(xs + base * d, n, d, scratch.soa.data());
        predictBlockSoa(scratch.soa.data(), n, block, scratch);
        std::copy_n(block, n, out + base);
    }
}

void
Mlp::save(BinaryWriter &w) const
{
    ACDSE_CHECK(trained_, "cannot save an untrained MLP");
    w.u32(static_cast<std::uint32_t>(options_.hiddenNeurons));
    w.u32(static_cast<std::uint32_t>(options_.epochs));
    w.f64(options_.learningRate);
    w.f64(options_.momentum);
    w.f64(options_.lrDecay);
    w.u64(options_.seed);
    w.u64(inputDim_);
    inputScaler_.save(w);
    targetScaler_.save(w);
    w.f64vec(hiddenWeights_);
    w.f64vec(outputWeights_);
}

void
Mlp::load(BinaryReader &r)
{
    options_.hiddenNeurons = static_cast<int>(r.u32());
    options_.epochs = static_cast<int>(r.u32());
    options_.learningRate = r.f64();
    options_.momentum = r.f64();
    options_.lrDecay = r.f64();
    options_.seed = r.u64();
    inputDim_ = static_cast<std::size_t>(r.u64());
    inputScaler_.load(r);
    targetScaler_.load(r);
    hiddenWeights_ = r.f64vec();
    outputWeights_ = r.f64vec();

    if (options_.hiddenNeurons <= 0)
        throw SerializationError("MLP with no hidden neurons");
    const std::size_t h =
        static_cast<std::size_t>(options_.hiddenNeurons);
    if (hiddenWeights_.size() != h * (inputDim_ + 1) ||
        outputWeights_.size() != h + 1 ||
        inputScaler_.dims() != inputDim_) {
        throw SerializationError("MLP weight shapes are inconsistent");
    }
    trained_ = true;
}

double
Mlp::predict(const std::vector<double> &x) const
{
    std::vector<double> scratch;
    return predict(x, scratch);
}

double
Mlp::predict(const std::vector<double> &x,
             std::vector<double> &scratch) const
{
    ACDSE_CHECK(trained_, "predict before train");
    // Width is DCHECK-only: this is the serving hot path (called per
    // point, per metric, per ensemble member) and the artifact
    // boundary in PredictionService validates width once per batch.
    ACDSE_DCHECK(x.size() == inputDim_, "input has ", x.size(),
                 " features, network expects ", inputDim_);
    inputScaler_.transformInto(x, scratch);
    return targetScaler_.unscale(forwardScaled(scratch));
}

} // namespace acdse
