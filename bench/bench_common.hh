/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries: the
 * standard campaign (disk-cached), repeat counts, and uniform headers;
 * and for the throughput benches: environment-sized knobs, the
 * ACDSE_BENCH_JSON output path and a synthetic metric that trains
 * models without simulating.
 *
 * Each binary regenerates one table or figure of the paper; see
 * DESIGN.md Section 4 for the full experiment index and EXPERIMENTS.md
 * for recorded paper-vs-measured values.
 */

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/microarch_config.hh"
#include "base/parse.hh"
#include "core/campaign.hh"
#include "trace/suites.hh"

namespace acdse
{
namespace bench
{

/** The paper's canonical model parameters (Section 6.2). */
constexpr std::size_t kPaperT = 512; //!< training sims per program
constexpr std::size_t kPaperR = 32;  //!< responses from a new program

/**
 * Number of repeats with fresh random selections (paper: 20). Reduced
 * by default so the full bench suite completes in minutes on one core;
 * override with ACDSE_REPEATS.
 */
inline std::size_t
repeats()
{
    if (const char *value = std::getenv("ACDSE_REPEATS");
        value && *value) {
        return static_cast<std::size_t>(
            parseU64OrDie("ACDSE_REPEATS", value));
    }
    return 3;
}

/** Training-simulation count, clamped to the campaign sample. */
inline std::size_t
clampT(const Campaign &campaign, std::size_t t = kPaperT)
{
    return std::min(t, campaign.configs().size() / 2 +
                           campaign.configs().size() / 4);
}

/** The all-suites campaign, computed or loaded from the disk cache. */
inline Campaign &
standardCampaign()
{
    static Campaign campaign = Campaign::standard();
    campaign.ensureComputed();
    return campaign;
}

/** Print the uniform experiment banner. */
inline void
banner(const char *experiment, const char *description)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s -- %s\n", experiment, description);
    std::printf("(T=%zu, R=%zu, repeats=%zu, configs come from the "
                "shared campaign cache)\n",
                kPaperT, kPaperR, repeats());
    std::printf("================================================="
                "=============\n\n");
}

/**
 * The value of environment variable @p name as a size (garbage is
 * fatal), or @p fallback when it is unset or empty.
 */
inline std::size_t
envSize(const char *name, std::size_t fallback)
{
    if (const char *value = std::getenv(name); value && *value)
        return static_cast<std::size_t>(parseU64OrDie(name, value));
    return fallback;
}

/** Where a bench writes its JSON: ACDSE_BENCH_JSON, else @p fallback. */
inline std::string
benchJsonPath(const char *fallback)
{
    if (const char *value = std::getenv("ACDSE_BENCH_JSON");
        value && *value)
        return value;
    return fallback;
}

/**
 * A smooth positive analytic "program" over the design space: lets a
 * bench train and fit ensembles without any simulation.
 */
inline double
syntheticMetric(const MicroarchConfig &config, double wide, double mem)
{
    return 1000.0 + wide * 4000.0 / config.width() +
           mem * 60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024)) +
           20000.0 / std::sqrt(static_cast<double>(config.robSize()));
}

/** Seed for repeat @p r (fixed base so every run is reproducible). */
inline std::uint64_t
repeatSeed(std::size_t r)
{
    return 0xbe9c'0000ULL + 7919ULL * r;
}

/** Program indices of one suite within the standard campaign. */
inline std::vector<std::size_t>
suiteIndices(const Campaign &campaign, Suite suite)
{
    std::vector<std::size_t> idx;
    for (std::size_t p = 0; p < campaign.programs().size(); ++p) {
        if (profileByName(campaign.programs()[p]).suite == suite)
            idx.push_back(p);
    }
    return idx;
}

} // namespace bench
} // namespace acdse

