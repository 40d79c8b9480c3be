/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (design-space sampling, trace
 * generation, ANN weight initialisation, SGD shuffling) draw from Rng so
 * that every experiment is exactly reproducible from its seed.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace acdse
{

/**
 * xoshiro256** generator seeded via SplitMix64.
 *
 * Small, fast, and good enough statistically for simulation workloads;
 * crucially it is fully deterministic across platforms, unlike
 * std::default_random_engine / std::uniform_int_distribution whose
 * behaviour is implementation-defined.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Standard normal deviate (Box-Muller, cached spare). */
    double nextGaussian();

    /** Geometric-ish positive integer with the given mean (>= 1). */
    std::uint64_t nextGeometric(double mean);

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Draw an index according to a discrete distribution given by
     * non-negative weights (need not be normalised).
     */
    std::size_t nextDiscrete(const std::vector<double> &weights);

    /** Fisher-Yates shuffle of an index-addressable container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        for (std::size_t i = c.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(c[i - 1], c[j]);
        }
    }

  private:
    std::uint64_t s[4];
    double spareGaussian;
    bool hasSpare;
};

} // namespace acdse

