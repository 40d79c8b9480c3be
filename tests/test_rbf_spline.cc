/**
 * @file
 * Unit tests for the RBF and regression-spline models (the alternative
 * program-specific model families of paper Section 9.4).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.hh"
#include "base/statistics.hh"
#include "ml/rbf.hh"
#include "ml/spline.hh"

namespace acdse
{
namespace
{

/** Noiseless nonlinear target on [0,1]^2. */
double
target(double a, double b)
{
    return std::sin(3.0 * a) + b * b + 0.5 * a * b;
}

void
makeData(std::vector<std::vector<double>> &xs, std::vector<double> &ys,
         int n, std::uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double a = rng.nextDouble(0, 1);
        const double b = rng.nextDouble(0, 1);
        xs.push_back({a, b});
        ys.push_back(target(a, b));
    }
}

TEST(Rbf, FitsNonlinearSurface)
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    makeData(xs, ys, 400, 1);
    RbfNetwork model;
    model.train(xs, ys);
    double max_err = 0.0;
    for (double a : {0.2, 0.5, 0.8}) {
        for (double b : {0.2, 0.5, 0.8}) {
            max_err = std::max(max_err, std::abs(model.predict({a, b}) -
                                                 target(a, b)));
        }
    }
    EXPECT_LT(max_err, 0.12);
}

TEST(Rbf, CentersClampToSampleCount)
{
    std::vector<std::vector<double>> xs{{0.0}, {1.0}, {2.0}};
    std::vector<double> ys{0.0, 1.0, 2.0};
    RbfOptions options;
    options.centers = 50;
    RbfNetwork model(options);
    model.train(xs, ys);
    EXPECT_LE(model.numCenters(), 3u);
}

TEST(Rbf, DeterministicForFixedSeed)
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    makeData(xs, ys, 100, 2);
    RbfNetwork a, b;
    a.train(xs, ys);
    b.train(xs, ys);
    EXPECT_DOUBLE_EQ(a.predict({0.3, 0.7}), b.predict({0.3, 0.7}));
}

TEST(Rbf, MoreCentersFitBetter)
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    makeData(xs, ys, 300, 3);
    auto sse = [&](std::size_t centers) {
        RbfOptions options;
        options.centers = centers;
        RbfNetwork model(options);
        model.train(xs, ys);
        double total = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i)
            total += std::pow(model.predict(xs[i]) - ys[i], 2);
        return total;
    };
    EXPECT_LT(sse(32), sse(2));
}

TEST(Spline, FitsSmoothCurveExactlyEnough)
{
    // 1-D cubic-ish curve: a 5-knot restricted cubic spline should nail
    // it.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    Rng rng(4);
    for (int i = 0; i < 300; ++i) {
        const double a = rng.nextDouble(-2, 2);
        xs.push_back({a});
        ys.push_back(a * a * a - 2.0 * a);
    }
    SplineOptions options;
    options.knots = 5;
    SplineModel model(options);
    model.train(xs, ys);
    // Restricted cubic splines are linear in the tails by
    // construction, so score the fit globally (R^2) rather than
    // point-wise at the extremes.
    double sse = 0.0, var = 0.0;
    const double mean = stats::mean(ys);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sse += std::pow(model.predict(xs[i]) - ys[i], 2);
        var += std::pow(ys[i] - mean, 2);
    }
    EXPECT_LT(sse / var, 0.05); // explains > 95% of the variance
}

TEST(Spline, LinearFunctionIsExact)
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const double a = rng.nextDouble(0, 10);
        const double b = rng.nextDouble(0, 10);
        xs.push_back({a, b});
        ys.push_back(3.0 * a - b + 2.0);
    }
    SplineModel model;
    model.train(xs, ys);
    EXPECT_NEAR(model.predict({5.0, 5.0}), 12.0, 0.1);
}

TEST(Spline, FewDistinctValuesFallBackToLinear)
{
    // A dimension with two distinct values cannot host cubic knots.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        const double a = i % 2;
        xs.push_back({a});
        ys.push_back(3.0 * a);
    }
    SplineModel model;
    model.train(xs, ys);
    EXPECT_NEAR(model.predict({1.0}), 3.0, 1e-3); // ridge shrinks a hair
    // Just the linear term: the midpoint lies on the line.
    EXPECT_NEAR(model.predict({0.5}), 1.5, 1e-3);
}

TEST(Spline, BasisGrowsWithKnots)
{
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    Rng rng(6);
    for (int i = 0; i < 200; ++i) {
        xs.push_back({rng.nextDouble(0, 1)});
        ys.push_back(std::sin(6.0 * xs.back()[0]));
    }
    SplineOptions three, six;
    three.knots = 3;
    six.knots = 6;
    SplineModel a(three), b(six);
    a.train(xs, ys);
    b.train(xs, ys);
    // Three knots leave one cubic term, six leave four: only the larger
    // basis can follow most of a period of the sine.
    double errA = 0.0, errB = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        errA += std::fabs(a.predict(xs[i]) - ys[i]);
        errB += std::fabs(b.predict(xs[i]) - ys[i]);
    }
    EXPECT_LT(errB, 0.5 * errA);
}

TEST(SplineDeathTest, RejectsTooFewKnots)
{
    SplineOptions options;
    options.knots = 2;
    EXPECT_DEATH(SplineModel{options}, "three knots");
}

} // namespace
} // namespace acdse
