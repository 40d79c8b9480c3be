#include "ml/linear_regression.hh"

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

void
LinearRegression::fit(const std::vector<std::vector<double>> &xs,
                      const std::vector<double> &ys, double ridge,
                      bool intercept)
{
    ACDSE_CHECK(!xs.empty(), "cannot fit regression on no samples");
    ACDSE_CHECK(xs.size() == ys.size(), "xs/ys size mismatch");
    const std::size_t n = xs.size();
    const std::size_t m = xs.front().size();
    const std::size_t cols = m + (intercept ? 1 : 0);

    Matrix x(n, cols);
    for (std::size_t i = 0; i < n; ++i) {
        ACDSE_CHECK(xs[i].size() == m, "inconsistent feature widths");
        if (intercept)
            x(i, 0) = 1.0;
        for (std::size_t j = 0; j < m; ++j)
            x(i, (intercept ? 1 : 0) + j) = xs[i][j];
    }

    Matrix gram = x.gram();
    if (ridge > 0.0) {
        // Scale the ridge by the mean diagonal so the strength is
        // relative to the data's magnitude, not absolute.
        double diag_mean = 0.0;
        for (std::size_t i = 0; i < cols; ++i)
            diag_mean += gram(i, i);
        diag_mean /= static_cast<double>(cols);
        const double lambda = ridge * (diag_mean > 0.0 ? diag_mean : 1.0);
        for (std::size_t i = 0; i < cols; ++i)
            gram(i, i) += lambda;
    }

    std::vector<double> rhs = x.transposeTimes(ys);
    std::vector<double> beta;
    fitted_ = gram.choleskySolve(rhs, beta);
    if (!fitted_) {
        // Fall back to a strongly-regularised solve; this only happens
        // for pathologically collinear features.
        Matrix fallback = x.gram();
        double diag_mean = 0.0;
        for (std::size_t i = 0; i < cols; ++i)
            diag_mean += fallback(i, i);
        diag_mean /= static_cast<double>(cols);
        for (std::size_t i = 0; i < cols; ++i)
            fallback(i, i) += 1e-3 * (diag_mean > 0.0 ? diag_mean : 1.0);
        fitted_ = fallback.choleskySolve(rhs, beta);
        ACDSE_CHECK(fitted_, "regularised least squares failed");
    }

    if (intercept) {
        intercept_ = beta[0];
        weights_.assign(beta.begin() + 1, beta.end());
    } else {
        intercept_ = 0.0;
        weights_ = std::move(beta);
    }
}

void
LinearRegression::save(BinaryWriter &w) const
{
    ACDSE_CHECK(fitted_, "cannot save an unfitted regression");
    w.f64vec(weights_);
    w.f64(intercept_);
}

void
LinearRegression::load(BinaryReader &r)
{
    weights_ = r.f64vec();
    intercept_ = r.f64();
    fitted_ = true;
}

double
LinearRegression::predict(const std::vector<double> &x) const
{
    ACDSE_CHECK(fitted_, "predict before fit");
    ACDSE_CHECK(x.size() == weights_.size(), "feature width mismatch");
    double acc = intercept_;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += weights_[i] * x[i];
    return acc;
}

void
LinearRegression::predictSoa(const double *__restrict xs,
                             std::size_t stride, std::size_t count,
                             double *__restrict out) const
{
    ACDSE_CHECK(fitted_, "predict before fit");
    ACDSE_DCHECK(count <= stride, "more samples than the row stride");
    for (std::size_t l = 0; l < count; ++l)
        out[l] = intercept_;
    for (std::size_t j = 0; j < weights_.size(); ++j) {
        const double w = weights_[j];
        const double *x = xs + j * stride;
        for (std::size_t l = 0; l < count; ++l)
            out[l] += w * x[l];
    }
}

} // namespace acdse
