/**
 * @file
 * Unit tests for the dense matrix helpers.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "ml/matrix.hh"

namespace acdse
{
namespace
{

TEST(Matrix, MultiplyKnownValues)
{
    Matrix a(2, 3), b(3, 2);
    int v = 1;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            a(i, j) = v++;
    v = 1;
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            b(i, j) = v++;
    const Matrix c = a.multiply(b);
    // [[1,2,3],[4,5,6]] * [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
    EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
}

TEST(Matrix, TransposeRoundTrip)
{
    Rng rng(1);
    Matrix a(4, 7);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            a(i, j) = rng.nextGaussian();
    const Matrix att = a.transposed().transposed();
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 7; ++j)
            EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
}

TEST(Matrix, GramMatchesExplicitProduct)
{
    Rng rng(2);
    Matrix a(6, 4);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            a(i, j) = rng.nextGaussian();
    const Matrix fast = a.gram();
    const Matrix slow = a.transposed().multiply(a);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(fast(i, j), slow(i, j), 1e-12);
}

TEST(Matrix, VectorProducts)
{
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    const auto aty = a.transposeTimes({1.0, 1.0});
    EXPECT_DOUBLE_EQ(aty[0], 4.0);
    EXPECT_DOUBLE_EQ(aty[1], 6.0);
}

TEST(Matrix, CholeskySolvesSpdSystem)
{
    // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
    Matrix a(2, 2);
    a(0, 0) = 4;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 3;
    std::vector<double> x;
    ASSERT_TRUE(a.choleskySolve({10.0, 9.0}, x));
    EXPECT_NEAR(x[0], 1.5, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, CholeskyRandomSpdRoundTrip)
{
    Rng rng(3);
    const std::size_t n = 12;
    Matrix basis(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            basis(i, j) = rng.nextGaussian();
    Matrix spd = basis.gram(); // basis^T basis is SPD (full rank w.h.p.)
    for (std::size_t i = 0; i < n; ++i)
        spd(i, i) += 1.0;

    std::vector<double> truth(n);
    for (auto &t : truth)
        t = rng.nextDouble(-2.0, 2.0);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b[i] += spd(i, j) * truth[j];
    std::vector<double> solved;
    ASSERT_TRUE(spd.choleskySolve(b, solved));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(solved[i], truth[i], 1e-8);
}

TEST(Matrix, CholeskyRejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 1; // eigenvalues 3 and -1
    std::vector<double> x;
    EXPECT_FALSE(a.choleskySolve({1.0, 1.0}, x));
}

} // namespace
} // namespace acdse
