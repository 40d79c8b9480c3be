/**
 * @file
 * Extension bench (paper Section 9.4): the three program-specific
 * model families used in the literature -- artificial neural networks
 * (Ipek et al.), radial basis functions (Joseph et al.) and restricted
 * cubic splines (Lee & Brooks) -- evaluated head-to-head on our
 * substrate. The paper states "the other schemes are similar to each
 * other in terms of accuracy [11], [12]"; this bench tests that claim.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "base/statistics.hh"
#include "base/table.hh"
#include "bench/bench_common.hh"
#include "core/evaluation.hh"
#include "ml/mlp.hh"
#include "ml/rbf.hh"
#include "ml/spline.hh"

using namespace acdse;

namespace
{

/** Train/evaluate one model family on one program at one budget. */
template <typename Model>
PredictionQuality
evaluateFamily(Campaign &campaign, std::size_t program,
               std::size_t sims, std::uint64_t seed, Model &model)
{
    const std::size_t total = campaign.configs().size();
    const auto train_idx = sampleIndices(total, sims, seed);

    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t c : train_idx) {
        xs.push_back(campaign.configs()[c].asFeatureVector());
        ys.push_back(
            std::log(campaign.result(program, c).cycles));
    }
    model.train(xs, ys);

    std::vector<char> used(total, 0);
    for (std::size_t c : train_idx)
        used[c] = 1;
    std::vector<double> predicted, actual;
    for (std::size_t c = 0; c < total; ++c) {
        if (used[c])
            continue;
        predicted.push_back(std::exp(
            model.predict(campaign.configs()[c].asFeatureVector())));
        actual.push_back(campaign.result(program, c).cycles);
    }
    PredictionQuality q;
    q.rmaePercent = stats::rmae(predicted, actual);
    q.correlation = stats::correlation(predicted, actual);
    return q;
}

} // namespace

int
main()
{
    bench::banner("Model families (extension)",
                  "ANN vs RBF vs regression splines as program-"
                  "specific predictors");
    Campaign &campaign = bench::standardCampaign();
    const auto spec = bench::suiteIndices(campaign, Suite::SpecCpu2000);

    const std::size_t configs = campaign.configs().size();
    Table table({"sims", "family", "rmae (%)", "correlation"});
    for (std::size_t sims : {32ul, 128ul, 512ul}) {
        // A budget must leave held-out configurations to test on.
        if (sims >= configs) {
            std::printf("note: skipping the %zu-simulation budget: the "
                        "campaign has %zu configurations (raise "
                        "ACDSE_CONFIGS)\n",
                        sims, configs);
            continue;
        }
        stats::RunningStats ann_e, ann_c, rbf_e, rbf_c, spl_e, spl_c;
        for (std::size_t r = 0; r < bench::repeats(); ++r) {
            const std::uint64_t seed = bench::repeatSeed(r);
            for (std::size_t p : spec) {
                MlpOptions mlp_options;
                mlp_options.seed = seed ^ p;
                Mlp ann(mlp_options);
                const auto qa =
                    evaluateFamily(campaign, p, sims, seed ^ p, ann);
                ann_e.add(qa.rmaePercent);
                ann_c.add(qa.correlation);

                RbfOptions rbf_options;
                rbf_options.centers = std::min<std::size_t>(48, sims);
                rbf_options.seed = seed ^ p;
                RbfNetwork rbf(rbf_options);
                const auto qr =
                    evaluateFamily(campaign, p, sims, seed ^ p, rbf);
                rbf_e.add(qr.rmaePercent);
                rbf_c.add(qr.correlation);

                SplineModel spline;
                const auto qs = evaluateFamily(campaign, p, sims,
                                               seed ^ p, spline);
                spl_e.add(qs.rmaePercent);
                spl_c.add(qs.correlation);
            }
        }
        const auto row = [&](const char *family,
                             const stats::RunningStats &e,
                             const stats::RunningStats &c) {
            table.addRow({Table::num(static_cast<long long>(sims)),
                          family, Table::num(e.mean(), 1),
                          Table::num(c.mean(), 3)});
        };
        row("ANN (Ipek et al.)", ann_e, ann_c);
        row("RBF (Joseph et al.)", rbf_e, rbf_c);
        row("splines (Lee & Brooks)", spl_e, spl_c);
    }
    table.print(std::cout);
    std::printf(
        "\nChecks vs paper (Section 9.4): the three families stay "
        "within a few rmae\npoints of each other (the additive spline "
        "model edges ahead at large\nbudgets on this substrate) and "
        "none rescues the program-specific\napproach at 32 simulations "
        "-- which is the gap the architecture-centric\nmodel "
        "closes.\n");
    return 0;
}
