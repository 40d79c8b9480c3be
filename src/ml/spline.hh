/**
 * @file
 * Regression-spline model (paper Section 9.4: Lee & Brooks use
 * restricted cubic splines for microarchitectural performance and
 * power prediction, HPCA'07 / ASPLOS'06).
 *
 * Each input dimension is expanded into a restricted-cubic-spline
 * basis with knots at training-data quantiles (linear in the tails,
 * cubic between knots); the expanded design is fitted with ridge least
 * squares. Additive across dimensions, as in Lee & Brooks' main-effect
 * models.
 */

#pragma once

#include <vector>

#include "ml/linear_regression.hh"
#include "ml/scaler.hh"

namespace acdse
{

/** Hyper-parameters for SplineModel. */
struct SplineOptions
{
    int knots = 4;          //!< knots per dimension (>= 3)
};

/** Additive restricted-cubic-spline regression model. */
class SplineModel
{
  public:
    /** Construct with hyper-parameters. */
    explicit SplineModel(SplineOptions options = {});

    /** Place knots at per-dimension quantiles and fit the basis. */
    void train(const std::vector<std::vector<double>> &xs,
               const std::vector<double> &ys);

    /** Predict one sample. */
    double predict(const std::vector<double> &x) const;

    /** Whether train() has been called. */
    bool trained() const { return trained_; }

  private:
    /** Restricted-cubic-spline basis of one sample. */
    std::vector<double> basis(const std::vector<double> &x) const;

    SplineOptions options_;
    TargetScaler targetScaler_;
    std::vector<std::vector<double>> knots_; //!< per-dimension knots
    LinearRegression regression_;
    bool trained_ = false;
};

} // namespace acdse

