/**
 * @file
 * Feature standardisation for the predictors: z-score per input
 * dimension, fitted on training data and applied at prediction time.
 */

#pragma once

#include <vector>

namespace acdse
{

class BinaryWriter;
class BinaryReader;

/** Per-dimension z-score scaler. */
class StandardScaler
{
  public:
    /** Fit mean/stddev per dimension on a set of samples. */
    void fit(const std::vector<std::vector<double>> &samples);

    /** Transform one sample in place. */
    std::vector<double> transform(const std::vector<double> &x) const;

    /**
     * Transform into a caller-provided buffer (resized as needed) --
     * the serving hot path calls this per query point and reuses one
     * buffer to keep prediction allocation-free.
     */
    void transformInto(const std::vector<double> &x,
                       std::vector<double> &out) const;

    /**
     * Transform one already-transposed feature-major block of
     * simd::kLanes points: zs[i * kLanes + l] = scaled feature i of
     * point l, from xs in the same layout (see simd::transposeBlock).
     * Only the machine-vector chunks covering the first @p count
     * lanes are computed; later lanes of @p zs are left untouched, so
     * a one-point tail costs one chunk per feature. One mean/scale
     * load serves the whole block, and the per-element arithmetic is
     * identical to transformInto, so each lane is bit-identical to
     * the scalar transform of that point. @p xs and @p zs must not
     * overlap.
     */
    void transformBlock(const double *__restrict xs, std::size_t count,
                        double *__restrict zs) const;

    /** Whether fit() has been called. */
    bool fitted() const { return !means_.empty(); }

    /** Number of dimensions the scaler was fitted on. */
    std::size_t dims() const { return means_.size(); }

    /** Serialise the fitted state (bit-exact round trip). */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    /** Rebuild invScales_ from scales_ (after fit or load). */
    void computeInverses();

    std::vector<double> means_;
    std::vector<double> scales_;
    // The transform multiplies by 1/scale instead of dividing: one
    // divide per dimension at fit/load time replaces one per feature
    // per prediction, and division is the most expensive arithmetic op
    // on the serving path. Derived state -- never serialised, always
    // recomputed from scales_, so save/load round-trips stay bit-exact.
    std::vector<double> invScales_;
};

/** Scalar z-score scaler for prediction targets. */
class TargetScaler
{
  public:
    /** Fit on the training targets. */
    void fit(const std::vector<double> &ys);

    /** Scale a raw target. */
    double scale(double y) const { return (y - mean_) / sdev_; }

    /** Invert the scaling on a model output. */
    double unscale(double z) const { return z * sdev_ + mean_; }

    /**
     * Invert the scaling on @p n model outputs in place; element-wise
     * identical to unscale().
     */
    void unscaleBatch(double *zs, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i)
            zs[i] = zs[i] * sdev_ + mean_;
    }

    /** Serialise the fitted state (bit-exact round trip). */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    double mean_ = 0.0;
    double sdev_ = 1.0;
};

} // namespace acdse

