/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "base/rng.hh"

namespace acdse
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(10));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    const int n = 50000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(17);
    for (double mean : {1.0, 2.5, 10.0, 50.0}) {
        double total = 0.0;
        const int n = 40000;
        for (int i = 0; i < n; ++i) {
            const auto v = rng.nextGeometric(mean);
            ASSERT_GE(v, 1u);
            total += static_cast<double>(v);
        }
        EXPECT_NEAR(total / n, mean, mean * 0.06) << "mean " << mean;
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(19);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(23);
    const std::vector<double> weights{1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextDiscrete(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ShuffleActuallyMoves)
{
    Rng rng(31);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = i;
    rng.shuffle(v);
    int moved = 0;
    for (int i = 0; i < 100; ++i)
        moved += v[static_cast<std::size_t>(i)] != i;
    EXPECT_GT(moved, 80);
}

/** The same seed must produce the same draws for any sampler. */
class RngDeterminism : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngDeterminism, AllSamplersReproducible)
{
    Rng a(GetParam()), b(GetParam());
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.nextBounded(1000), b.nextBounded(1000));
        EXPECT_DOUBLE_EQ(a.nextDouble(), b.nextDouble());
        EXPECT_DOUBLE_EQ(a.nextGaussian(), b.nextGaussian());
        EXPECT_EQ(a.nextGeometric(7.0), b.nextGeometric(7.0));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDeterminism,
                         ::testing::Values(0ULL, 1ULL, 42ULL,
                                           0xdeadbeefULL,
                                           0xffffffffffffffffULL));

} // namespace
} // namespace acdse
