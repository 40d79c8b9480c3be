/**
 * @file
 * The full microarchitectural design space: enumeration, validity
 * filtering and uniform random sampling (paper Sections 3.1 and 3.3).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/microarch_config.hh"
#include "base/rng.hh"

namespace acdse
{

/**
 * Static view of the whole design space.
 *
 * The raw cross product of Table 1 has ~63 billion points; configurations
 * that "do not make architectural sense" are filtered (Section 3.1):
 *   1. issue queue no larger than the reorder buffer,
 *   2. load/store queue no larger than the reorder buffer,
 *   3. register write ports no more numerous than read ports.
 * Undersized register files (e.g. RF = 40 with a large ROB) remain
 * legal, as in the paper: they simply rename-stall their way into the
 * worst percentile of the space (Fig. 2i).
 */
class DesignSpace
{
  public:
    /** Total number of points in the unfiltered cross product. */
    static std::uint64_t totalRawPoints();

    /** Exact number of points satisfying all validity constraints. */
    static std::uint64_t totalValidPoints();

    /** Whether one configuration satisfies the validity constraints. */
    static bool isValid(const MicroarchConfig &config);

    /** The baseline configuration (always valid). */
    static MicroarchConfig baseline();

    /**
     * Draw one configuration uniformly at random from the *valid*
     * subspace (rejection sampling over the raw space).
     */
    static MicroarchConfig sampleValid(Rng &rng);

    /**
     * Draw @p count distinct valid configurations uniformly at random.
     * Used for the paper's 3,000-configuration campaign (Section 3.3),
     * for training sets and for responses.
     */
    static std::vector<MicroarchConfig> sampleValidConfigs(
        std::size_t count, std::uint64_t seed);
};

} // namespace acdse

