/**
 * @file
 * Radial-basis-function network (paper Section 9.4: Joseph et al.,
 * MICRO-39, use RBF networks as program-specific performance models).
 *
 * Centers are chosen by k-means over the (z-scored) training inputs,
 * widths from the mean inter-center distance, and the output layer is
 * solved in closed form with ridge least squares.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ml/linear_regression.hh"
#include "ml/scaler.hh"

namespace acdse
{

/** Hyper-parameters for RbfNetwork. */
struct RbfOptions
{
    std::size_t centers = 32;   //!< number of basis functions
    std::uint64_t seed = 1;     //!< k-means seed
};

/** Gaussian RBF regression network. */
class RbfNetwork
{
  public:
    /** Construct with hyper-parameters. */
    explicit RbfNetwork(RbfOptions options = {});

    /** Fit centers, widths and the linear output layer. */
    void train(const std::vector<std::vector<double>> &xs,
               const std::vector<double> &ys);

    /** Predict one sample. */
    double predict(const std::vector<double> &x) const;

    /** Whether train() has been called. */
    bool trained() const { return trained_; }

    /** Number of basis functions actually used (<= requested). */
    std::size_t numCenters() const { return centers_.size(); }

  private:
    /** Basis activations of an already-scaled input. */
    std::vector<double> activations(const std::vector<double> &xz) const;

    RbfOptions options_;
    StandardScaler inputScaler_;
    TargetScaler targetScaler_;
    std::vector<std::vector<double>> centers_;
    double invTwoSigmaSq_ = 1.0;
    LinearRegression output_;
    bool trained_ = false;
};

} // namespace acdse

