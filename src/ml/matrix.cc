#include "ml/matrix.hh"

#include <cmath>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    ACDSE_CHECK(cols_ == other.rows_, "multiply shape mismatch: ", rows_,
                "x", cols_, " * ", other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_);
    // No zero-skip: the callers' matrices are dense (regression design
    // matrices, gram systems), so a data-dependent branch per element
    // only defeats vectorisation of the inner accumulation. For finite
    // inputs the result is identical with or without the skip.
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(i, k);
            for (std::size_t j = 0; j < other.cols_; ++j)
                out(i, j) += a * other(k, j);
        }
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::gram() const
{
    Matrix out(cols_, cols_);
    // Dense accumulation, no zero-skip -- see multiply().
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t i = 0; i < cols_; ++i) {
            const double a = (*this)(r, i);
            for (std::size_t j = i; j < cols_; ++j)
                out(i, j) += a * (*this)(r, j);
        }
    }
    for (std::size_t i = 0; i < cols_; ++i)
        for (std::size_t j = 0; j < i; ++j)
            out(i, j) = out(j, i);
    return out;
}

std::vector<double>
Matrix::transposeTimes(const std::vector<double> &y) const
{
    ACDSE_CHECK(y.size() == rows_, "A^T y shape mismatch: A is ", rows_,
                "x", cols_, ", y has ", y.size());
    std::vector<double> out(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out[c] += (*this)(r, c) * y[r];
    return out;
}

bool
Matrix::choleskySolve(const std::vector<double> &b,
                      std::vector<double> &x) const
{
    ACDSE_CHECK(rows_ == cols_, "cholesky needs a square matrix");
    ACDSE_CHECK(b.size() == rows_, "cholesky rhs has ", b.size(),
                " entries for an order-", rows_, " system");
    const std::size_t n = rows_;

    // Lower-triangular factor L with this = L L^T.
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = (*this)(i, j);
            for (std::size_t k = 0; k < j; ++k)
                sum -= l(i, k) * l(j, k);
            if (i == j) {
                if (sum <= 0.0 || !std::isfinite(sum))
                    return false;
                l(i, i) = std::sqrt(sum);
            } else {
                l(i, j) = sum / l(j, j);
            }
        }
    }

    // Forward substitution L z = b.
    std::vector<double> z(n);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k)
            sum -= l(i, k) * z[k];
        z[i] = sum / l(i, i);
    }

    // Back substitution L^T x = z.
    x.assign(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = z[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            sum -= l(k, ii) * x[k];
        x[ii] = sum / l(ii, ii);
    }
    return true;
}

} // namespace acdse
