/** @file Accuracy and edge-case tests for fastTanh (base/fast_math). */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "base/fast_math.hh"
#include "base/simd.hh"

using namespace acdse;

TEST(FastMath, MatchesLibmTanhToFiveNano)
{
    // Dense scan over the table range, the exp tail and the saturated
    // region. 5e-9 absolute error is the documented contract; the
    // networks' own fit error is ~1e-2 relative, so this is invisible
    // to every model-quality metric in the repo.
    double max_err = 0.0;
    for (int i = -250000; i <= 250000; ++i) {
        const double x = static_cast<double>(i) * 1e-4; // [-25, 25]
        max_err = std::max(max_err,
                           std::fabs(fastTanh(x) - std::tanh(x)));
    }
    EXPECT_LT(max_err, 5e-9);
}

TEST(FastMath, IsOddAndBounded)
{
    for (int i = 0; i <= 5000; ++i) {
        const double x = static_cast<double>(i) * 5e-3; // [0, 25]
        EXPECT_EQ(fastTanh(-x), -fastTanh(x));
        EXPECT_LE(std::fabs(fastTanh(x)), 1.0);
    }
}

TEST(FastMath, EdgeCases)
{
    EXPECT_EQ(fastTanh(0.0), 0.0);
    EXPECT_EQ(fastTanh(100.0), 1.0);
    EXPECT_EQ(fastTanh(-100.0), -1.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(fastTanh(inf), 1.0);
    EXPECT_EQ(fastTanh(-inf), -1.0);
    EXPECT_TRUE(std::isnan(
        fastTanh(std::numeric_limits<double>::quiet_NaN())));
}

TEST(FastMath, ChunkMatchesScalarBitExactly)
{
    // The packed fastTanhChunk must return, in each lane, the exact
    // bits of scalar fastTanh on that lane -- including the off-table
    // fallback (|x| >= 4), saturation, infinities and NaN, and chunks
    // mixing on- and off-table lanes (which take the fallback whole).
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> pts;
    for (int i = -600; i <= 600; ++i)
        pts.push_back(static_cast<double>(i) * 0.01); // [-6, 6]
    pts.insert(pts.end(),
               {0.0, -0.0, 3.999999, 4.0, -4.0, 25.0, -25.0, inf, -inf,
                nan, 1e-300, -1e-300});
    constexpr std::size_t n = simd::kChunkLanes;
    for (std::size_t s = 0; s + n <= pts.size(); ++s) {
        alignas(16) double in[n];
        alignas(16) double out[n];
        for (std::size_t l = 0; l < n; ++l)
            in[l] = pts[s + l];
        simd::chunkStore(out, fastTanhChunk(simd::chunkLoad(in)));
        for (std::size_t l = 0; l < n; ++l) {
            const double want = fastTanh(in[l]);
            if (std::isnan(want))
                EXPECT_TRUE(std::isnan(out[l])) << "lane " << in[l];
            else
                EXPECT_EQ(out[l], want) << "lane " << in[l];
        }
    }
}

TEST(FastMath, ContinuousAcrossTableBoundaries)
{
    // The interpolant matches values and derivatives at every node, so
    // crossing a segment boundary (and the 4.0 hand-off to the exp
    // tail) must not jump.
    for (int k = 1; k <= 256; ++k) {
        const double node = static_cast<double>(k) * (4.0 / 256.0);
        const double below = std::nextafter(node, 0.0);
        EXPECT_NEAR(fastTanh(below), fastTanh(node), 1e-8);
    }
}
