/**
 * @file
 * Ridge-regularised linear least squares (paper Section 5.3.1).
 *
 * The architecture-centric model is a linear combination of the
 * program-specific model outputs whose weights minimise squared error
 * on the responses; beta = (X^T X + lambda I)^-1 X^T y, with the
 * lambda = 0 case being the paper's exact equation (5).
 */

#pragma once

#include <vector>

#include "ml/matrix.hh"

namespace acdse
{

class BinaryWriter;
class BinaryReader;

/** Linear model y = beta0 + sum_j beta_j x_j. */
class LinearRegression
{
  public:
    /**
     * Fit on n samples of m features.
     * @param xs       n rows of m features each.
     * @param ys       n targets.
     * @param ridge    Tikhonov strength relative to the mean diagonal of
     *                 X^T X (0 = ordinary least squares). A tiny value
     *                 keeps the solve well-posed when n is close to m.
     * @param intercept whether to fit beta0.
     */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys, double ridge = 1e-8,
             bool intercept = true);

    /** Predict one sample. */
    double predict(const std::vector<double> &x) const;

    /**
     * Predict the first @p count samples of a feature-major block of
     * row stride @p stride: sample l has feature j at
     * xs[j * stride + l], and its prediction lands in out[l], for
     * l < count <= stride. Features accumulate in the same ascending
     * order as predict(), so each lane is bit-identical to the scalar
     * call -- this is the ensemble-combination step of the batched
     * architecture-centric predict path. @p xs and @p out must not
     * overlap (__restrict: lets the lane loop vectorise).
     */
    void predictSoa(const double *__restrict xs, std::size_t stride,
                    std::size_t count, double *__restrict out) const;

    /** The fitted weights (without intercept). */
    const std::vector<double> &weights() const { return weights_; }

    /** The fitted intercept (0 if disabled). */
    double intercept() const { return intercept_; }

    /** Whether fit() succeeded. */
    bool fitted() const { return fitted_; }

    /** Serialise the fitted coefficients (bit-exact round trip). */
    void save(BinaryWriter &w) const;

    /** Restore state written by save(). */
    void load(BinaryReader &r);

  private:
    std::vector<double> weights_;
    double intercept_ = 0.0;
    bool fitted_ = false;
};

} // namespace acdse

