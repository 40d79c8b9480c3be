/**
 * @file
 * The fidelity gate: the paper's headline shape on cycles, computed at
 * the gated points only (T clamped to the campaign, SPEC CPU 2000,
 * the same selections and seeds as the figure benches):
 *
 *  - Fig. 13/10 at 32 simulations: the architecture-centric model (AC)
 *    reaches rmae <= 8% and correlation >= 0.9;
 *  - Fig. 13 at 32 simulations: the program-specific model's (PS) rmae
 *    is at least twice AC's;
 *  - Fig. 10: AC at R = 128 is within one rmae point of R = 32 (the
 *    knee);
 *  - Fig. 14: with 5 training programs, AC's correlation is > 0.85.
 *
 * tier-1 runs it as the ctest `Fidelity.HeadlineShape` (label
 * `fidelity`) at ACDSE_CONFIGS=256 ACDSE_TRACE_LEN=8000
 * ACDSE_REPEATS=1, with its campaign store under the build tree
 * (bench/CMakeLists.txt). The scale and the bands are fixed: a change
 * that moves a number out of its band fails the gate; the bands are
 * not retuned to let it pass.
 *
 * Exit 1 when a band fails. Writes BENCH_fidelity.json (schema
 * acdse-bench-v1; ACDSE_BENCH_JSON overrides the path).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/rng.hh"
#include "base/statistics.hh"
#include "bench/bench_common.hh"
#include "core/evaluation.hh"

using namespace acdse;

namespace
{

/** Mean rmae and correlation over every fold of every repeat. */
struct Quality
{
    stats::RunningStats rmae, corr;

    void add(const std::vector<PredictionQuality> &folds)
    {
        for (const auto &q : folds) {
            rmae.add(q.rmaePercent);
            corr.add(q.correlation);
        }
    }
};

/** One gated band: prints its verdict and returns whether it holds. */
bool
band(const char *name, double value, const char *op, double bound,
     bool holds)
{
    std::printf("%-36s %8.3f  %s %-6g  %s\n", name, value, op, bound,
                holds ? "ok" : "FAIL");
    return holds;
}

} // namespace

int
main()
{
    bench::banner("Fidelity gate", "the headline shape at its gated "
                                   "points (cycles)");
    // SPEC comes first in allProfiles(), so a SPEC-only campaign gives
    // the programs the same indices, folds and numbers as the figure
    // benches' standard campaign, and shares its store blocks.
    Campaign campaign(programNames(Suite::SpecCpu2000),
                      CampaignOptions::fromEnvironment());
    campaign.ensureComputed();
    Evaluator evaluator(campaign);
    std::vector<std::size_t> spec(campaign.programs().size());
    for (std::size_t p = 0; p < spec.size(); ++p)
        spec[p] = p;
    const std::size_t t = bench::clampT(campaign);
    const Metric metric = Metric::Cycles;

    Quality ac32, ps32, ac128, fig14;
    for (std::size_t r = 0; r < bench::repeats(); ++r) {
        const std::uint64_t seed = bench::repeatSeed(r);
        ps32.add(evaluator.evaluateProgramSpecificSweep(spec, metric,
                                                        bench::kPaperR,
                                                        seed));
        ac32.add(evaluator.evaluateArchCentricSweep(spec, metric, t,
                                                    bench::kPaperR,
                                                    seed));
        ac128.add(evaluator.evaluateArchCentricSweep(spec, metric, t,
                                                     128, seed));
        // Fig. 14's subset for 5 training programs, the rest as tests.
        constexpr std::size_t kPrograms = 5;
        Rng rng(seed ^ kPrograms);
        std::vector<std::size_t> pool = spec;
        rng.shuffle(pool);
        const auto split =
            pool.begin() + static_cast<std::ptrdiff_t>(kPrograms);
        fig14.add(evaluator.evaluateArchCentricSweep(
            std::vector<std::size_t>(split, pool.end()), metric, t,
            bench::kPaperR, seed,
            std::vector<std::size_t>(pool.begin(), split)));
    }

    const double psOverAc = ps32.rmae.mean() / ac32.rmae.mean();
    const double knee = std::fabs(ac128.rmae.mean() - ac32.rmae.mean());
    bool pass = true;
    pass &= band("AC rmae % at R=32", ac32.rmae.mean(), "<=", 8.0,
                 ac32.rmae.mean() <= 8.0);
    pass &= band("AC corr at R=32", ac32.corr.mean(), ">=", 0.9,
                 ac32.corr.mean() >= 0.9);
    pass &= band("PS rmae / AC rmae at 32 sims", psOverAc, ">=", 2.0,
                 psOverAc >= 2.0);
    pass &= band("|AC rmae R=128 - R=32| (points)", knee, "<=", 1.0,
                 knee <= 1.0);
    pass &= band("AC corr, 5 training programs", fig14.corr.mean(), ">",
                 0.85, fig14.corr.mean() > 0.85);

    const std::string jsonOut =
        bench::benchJsonPath("BENCH_fidelity.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("fidelity")
        .key("num_configs").value(
            static_cast<std::uint64_t>(campaign.configs().size()))
        .key("trace_length").value(
            static_cast<std::uint64_t>(campaign.options().traceLength))
        .key("repeats").value(
            static_cast<std::uint64_t>(bench::repeats()))
        .key("train_sims").value(static_cast<std::uint64_t>(t))
        .key("pass").value(pass)
        .key("metrics").beginObject()
        .key("ac_rmae_pct_r32").value(ac32.rmae.mean())
        .key("ac_corr_r32").value(ac32.corr.mean())
        .key("ps_rmae_pct_32").value(ps32.rmae.mean())
        .key("ps_corr_32").value(ps32.corr.mean())
        .key("ps_over_ac_rmae_32").value(psOverAc)
        .key("ac_rmae_pct_r128").value(ac128.rmae.mean())
        .key("knee_gap_pts").value(knee)
        .key("ac_corr_5_programs").value(fig14.corr.mean())
        .endObject()
        .endObject();
    writeTextAtomic(jsonOut, json.str());
    std::printf("\nwrote %s\n%s\n", jsonOut.c_str(),
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
