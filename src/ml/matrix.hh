/**
 * @file
 * Minimal dense linear algebra: just what the predictors need (matrix
 * products, transpose-products, and SPD solves via Cholesky).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "base/check.hh"

namespace acdse
{

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() : rows_(0), cols_(0) {}

    /** Zero-initialised rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Number of rows. */
    std::size_t rows() const { return rows_; }
    /** Number of columns. */
    std::size_t cols() const { return cols_; }

    /** Mutable element access (bounds DCHECKed in debug builds). */
    double &operator()(std::size_t r, std::size_t c)
    {
        ACDSE_DCHECK(r < rows_ && c < cols_, "index (", r, ",", c,
                     ") outside ", rows_, "x", cols_);
        return data_[r * cols_ + c];
    }
    /** Const element access (bounds DCHECKed in debug builds). */
    double operator()(std::size_t r, std::size_t c) const
    {
        ACDSE_DCHECK(r < rows_ && c < cols_, "index (", r, ",", c,
                     ") outside ", rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    /**
     * Matrix product this * other. Tuned for the dense matrices the
     * predictors build (no sparsity shortcuts; the inner loop
     * vectorises).
     */
    Matrix multiply(const Matrix &other) const;

    /** Transposed copy. */
    Matrix transposed() const;

    /**
     * A^T * A (m x m for an n x m matrix), computed without the copy.
     * Dense, like multiply().
     */
    Matrix gram() const;

    /** A^T * y for a length-rows vector. */
    std::vector<double> transposeTimes(const std::vector<double> &y) const;

    /**
     * Solve (this) * x = b for a symmetric positive-definite matrix via
     * Cholesky decomposition.
     * @return true on success; false if the matrix is not SPD.
     */
    bool choleskySolve(const std::vector<double> &b,
                       std::vector<double> &x) const;

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<double> data_;
};

} // namespace acdse

