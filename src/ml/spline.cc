#include "ml/spline.hh"

#include <algorithm>
#include <cmath>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/statistics.hh"

namespace acdse
{

namespace
{

/** Relative ridge strength of the expanded fit (LinearRegression::fit). */
constexpr double kRidge = 1e-6;

double
cube(double v)
{
    return v > 0.0 ? v * v * v : 0.0;
}

} // namespace

SplineModel::SplineModel(SplineOptions options) : options_(options)
{
    ACDSE_CHECK(options_.knots >= 3, "need at least three knots");
}

void
SplineModel::train(const std::vector<std::vector<double>> &xs,
                   const std::vector<double> &ys)
{
    ACDSE_CHECK(!xs.empty(), "cannot train on no samples");
    ACDSE_CHECK(xs.size() == ys.size(), "xs/ys size mismatch");
    const std::size_t dims = xs.front().size();

    targetScaler_.fit(ys);
    std::vector<double> yz(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        yz[i] = targetScaler_.scale(ys[i]);

    // Knots at quantiles of each dimension; duplicates collapse, and a
    // dimension with fewer than three distinct knots falls back to a
    // purely linear term.
    knots_.assign(dims, {});
    std::vector<double> column(xs.size());
    for (std::size_t d = 0; d < dims; ++d) {
        for (std::size_t i = 0; i < xs.size(); ++i)
            column[i] = xs[i][d];
        std::vector<double> knots;
        for (int k = 0; k < options_.knots; ++k) {
            const double q =
                (k + 0.5) / static_cast<double>(options_.knots);
            knots.push_back(stats::quantile(column, q));
        }
        std::sort(knots.begin(), knots.end());
        knots.erase(std::unique(knots.begin(), knots.end()),
                    knots.end());
        if (knots.size() >= 3)
            knots_[d] = std::move(knots);
    }

    std::vector<std::vector<double>> design(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        design[i] = basis(xs[i]);
    regression_.fit(design, yz, kRidge);
    trained_ = true;
}

std::vector<double>
SplineModel::basis(const std::vector<double> &x) const
{
    std::vector<double> b;
    for (std::size_t d = 0; d < x.size(); ++d) {
        b.push_back(x[d]); // linear term, always
        const auto &knots = knots_[d];
        if (knots.size() < 3)
            continue;
        const std::size_t k = knots.size();
        const double t_last = knots[k - 1];
        const double t_prev = knots[k - 2];
        const double norm = (t_last - knots[0]) * (t_last - knots[0]);
        for (std::size_t j = 0; j + 2 < k; ++j) {
            // Restricted cubic basis: linear beyond the outer knots.
            const double term =
                cube(x[d] - knots[j]) -
                cube(x[d] - t_prev) * (t_last - knots[j]) /
                    (t_last - t_prev) +
                cube(x[d] - t_last) * (t_prev - knots[j]) /
                    (t_last - t_prev);
            b.push_back(term / (norm > 0.0 ? norm : 1.0));
        }
    }
    return b;
}

double
SplineModel::predict(const std::vector<double> &x) const
{
    ACDSE_CHECK(trained_, "predict before train");
    return targetScaler_.unscale(regression_.predict(basis(x)));
}

} // namespace acdse
