#include "base/rng.hh"

#include <cmath>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) : spareGaussian(0.0), hasSpare(false)
{
    std::uint64_t state = seed;
    for (auto &word : s)
        word = splitMix64(state);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    ACDSE_CHECK(bound > 0, "nextBounded requires a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    ACDSE_CHECK(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spareGaussian;
    }
    double u, v, r2;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        r2 = u * u + v * v;
    } while (r2 >= 1.0 || r2 == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(r2) / r2);
    spareGaussian = v * factor;
    hasSpare = true;
    return u * factor;
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    ACDSE_CHECK(mean >= 1.0, "geometric mean must be >= 1");
    if (mean == 1.0)
        return 1;
    // Success probability so that E[X] = mean for X in {1, 2, ...}.
    const double p = 1.0 / mean;
    const double u = nextDouble();
    const double x = std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
    return static_cast<std::uint64_t>(x);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::size_t
Rng::nextDiscrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    ACDSE_CHECK(total > 0.0, "discrete distribution needs positive mass");
    double target = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace acdse
