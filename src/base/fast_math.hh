/**
 * @file
 * Fast transcendental functions for model inference.
 *
 * The serving hot path evaluates hundreds of tanh activations per
 * prediction; libm's tanh is accurate to < 1 ulp but costs ~20 ns per
 * call on commodity hardware, which caps ensemble serving throughput
 * well below the design target. fastTanh() trades that last digit for
 * a ~3x cheaper evaluation: a piecewise cubic Hermite interpolant of
 * tanh on |x| < 4 (absolute error below 5e-9, orders of magnitude
 * under the predictors' own model error) with an exact exp-based tail.
 *
 * The interpolant is defined inline so the batched forward passes can
 * inline it per lane: an out-of-line call per activation serialises
 * the lanes' otherwise independent evaluation chains and was the
 * largest single cost of the batch kernels.
 */

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "base/simd.hh"

namespace acdse
{

namespace detail
{

/** Cubic Hermite coefficients for one tanh interval, in t = x - x0. */
struct TanhSegment
{
    double f;   //!< tanh(x0)
    double d;   //!< tanh'(x0)
    double c2;  //!< quadratic coefficient
    double c3;  //!< cubic coefficient
};

constexpr std::size_t kTanhSegments = 256;
// A power-of-two step (1/64) lets the segment lookup multiply by the
// exactly-representable reciprocal instead of dividing -- a divide is
// the single most expensive operation in the interpolant, and with 10
// activations per network forward pass it was the hot path's largest
// serial-latency contributor. x * 64.0 and x / 0.015625 round
// identically in IEEE-754, so this is a pure speedup.
constexpr double kTanhTableLimit = 4.0;
constexpr double kTanhStep =
    kTanhTableLimit / static_cast<double>(kTanhSegments);
constexpr double kTanhInvStep =
    static_cast<double>(kTanhSegments) / kTanhTableLimit;
static_assert(kTanhStep * kTanhInvStep == 1.0,
              "table step must be an exact power of two");

/**
 * The interpolation table, built from std::tanh on first use (a magic
 * static, so initialisation is thread-safe and the table is immutable
 * afterwards). Matching values *and* derivatives at every node keeps
 * the maximum error of each cubic at h^4/384 * max|tanh''''| ~ 6e-10.
 */
inline const std::array<TanhSegment, kTanhSegments> &
tanhTable()
{
    static const std::array<TanhSegment, kTanhSegments> segments = [] {
        std::array<TanhSegment, kTanhSegments> t{};
        for (std::size_t k = 0; k < kTanhSegments; ++k) {
            const double x0 = static_cast<double>(k) * kTanhStep;
            const double x1 = x0 + kTanhStep;
            const double f0 = std::tanh(x0);
            const double f1 = std::tanh(x1);
            const double d0 = 1.0 - f0 * f0;
            const double d1 = 1.0 - f1 * f1;
            const double slope = (f1 - f0) / kTanhStep;
            t[k].f = f0;
            t[k].d = d0;
            t[k].c2 = (3.0 * slope - 2.0 * d0 - d1) / kTanhStep;
            t[k].c3 = (d0 + d1 - 2.0 * slope) / (kTanhStep * kTanhStep);
        }
        return t;
    }();
    return segments;
}

/** Out-of-line |x| >= 4 tail of fastTanh (rare for trained networks). */
double fastTanhTail(double x);

} // namespace detail

/**
 * tanh(x) to ~5e-9 absolute accuracy over all of R.
 *
 * |x| < 4 (99.9% of trained-network pre-activations) is served from a
 * 256-interval cubic Hermite table built from std::tanh at first use
 * (step 1/64, a power of two, so the segment lookup is a multiply,
 * not a divide); larger magnitudes fall back to the exact identity
 * tanh(x) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), and |x| >= 19.0625
 * saturates to +/-1 (tanh is 1 to double precision there). Odd
 * symmetry is exact: fastTanh(-x) == -fastTanh(x).
 */
inline double
fastTanh(double x)
{
    const double ax = std::fabs(x);
    if (ax < detail::kTanhTableLimit) [[likely]] {
        const double u = ax * detail::kTanhInvStep;
        const auto k = static_cast<std::size_t>(u);
        const double t = (u - static_cast<double>(k)) * detail::kTanhStep;
        const detail::TanhSegment &s = detail::tanhTable()[k];
        const double p = s.f + t * (s.d + t * (s.c2 + t * s.c3));
        return std::copysign(p, x);
    }
    return detail::fastTanhTail(x);
}

namespace detail
{

/** Integer view of a Chunk for IEEE sign-bit manipulation. */
typedef std::int64_t ChunkBits
    __attribute__((vector_size(sizeof(simd::Chunk))));
/** One int32 per chunk lane, for the segment indices. */
typedef std::int32_t ChunkIdx
    __attribute__((vector_size(simd::kChunkLanes * sizeof(std::int32_t))));

/**
 * Gather each lane's segment coefficients into four lane-parallel
 * vectors. A template on the vector type so the two-lane
 * shuffle-transpose specialisation below only type-checks at the
 * width it is written for (`if constexpr` in a non-template function
 * still checks the discarded branch).
 */
template <typename V>
inline void
gatherSegments(const ChunkIdx k, V &fv, V &dv, V &c2v, V &c3v)
{
    constexpr std::size_t n = sizeof(V) / sizeof(double);
    if constexpr (n == 2) {
        // Gather the two coefficient pairs of each lane's segment with
        // vector loads and transpose with shuffles -- scattering them
        // through a scalar array costs a failed store-forward per load.
        const TanhSegment &s0 = tanhTable()[static_cast<std::size_t>(k[0])];
        const TanhSegment &s1 = tanhTable()[static_cast<std::size_t>(k[1])];
        V fd0;
        V fd1;
        V cc0;
        V cc1;
        __builtin_memcpy(&fd0, &s0.f, sizeof fd0);
        __builtin_memcpy(&fd1, &s1.f, sizeof fd1);
        __builtin_memcpy(&cc0, &s0.c2, sizeof cc0);
        __builtin_memcpy(&cc1, &s1.c2, sizeof cc1);
        fv = __builtin_shufflevector(fd0, fd1, 0, 2);
        dv = __builtin_shufflevector(fd0, fd1, 1, 3);
        c2v = __builtin_shufflevector(cc0, cc1, 0, 2);
        c3v = __builtin_shufflevector(cc0, cc1, 1, 3);
    } else {
        for (std::size_t l = 0; l < n; ++l) {
            const TanhSegment &s =
                tanhTable()[static_cast<std::size_t>(k[l])];
            fv[l] = s.f;
            dv[l] = s.d;
            c2v[l] = s.c2;
            c3v[l] = s.c3;
        }
    }
}

} // namespace detail

/**
 * fastTanh on one machine vector, element-wise identical to the scalar
 * function (enforced by tests/test_fast_math.cc): when every lane is
 * on the table, each step (abs, scale, truncate, interpolate,
 * copysign) is the per-lane IEEE operation the scalar path performs,
 * just issued packed, so the batch kernels' activations never leave
 * vector registers; if any lane is off-table (or NaN) the whole chunk
 * takes the scalar function per lane. Only the table lookups stay
 * scalar -- the baseline ISA has no gather.
 */
inline simd::Chunk
fastTanhChunk(simd::Chunk x)
{
    using detail::ChunkBits;
    using detail::ChunkIdx;
    using detail::kTanhInvStep;
    using detail::kTanhStep;
    using detail::kTanhTableLimit;
    constexpr std::size_t n = simd::kChunkLanes;
    ChunkBits signBit;
    simd::Chunk limit;
    for (std::size_t l = 0; l < n; ++l) {
        signBit[l] = INT64_MIN;
        limit[l] = kTanhTableLimit;
    }
    const auto ax =
        (simd::Chunk)((ChunkBits)x & ~signBit); // |x| per lane
    // Lane-wise ax < limit yields all-ones/all-zero int lanes; NaN
    // compares false, routing the chunk to the scalar tail like the
    // scalar function's own branch.
    const ChunkBits in = ax < limit;
    std::int64_t all = in[0];
    for (std::size_t l = 1; l < n; ++l)
        all &= in[l];
    if (all) [[likely]] {
        const simd::Chunk u = ax * kTanhInvStep;
        const ChunkIdx k = __builtin_convertvector(u, ChunkIdx);
        const simd::Chunk t =
            (u - __builtin_convertvector(k, simd::Chunk)) * kTanhStep;
        simd::Chunk fv;
        simd::Chunk dv;
        simd::Chunk c2v;
        simd::Chunk c3v;
        detail::gatherSegments(k, fv, dv, c2v, c3v);
        const simd::Chunk p = fv + t * (dv + t * (c2v + t * c3v));
        // copysign(p, x) per lane: p's magnitude, x's sign bit.
        return (simd::Chunk)(((ChunkBits)p & ~signBit) |
                             ((ChunkBits)x & signBit));
    }
    simd::Chunk r;
    for (std::size_t l = 0; l < n; ++l)
        r[l] = fastTanh(x[l]);
    return r;
}

} // namespace acdse
