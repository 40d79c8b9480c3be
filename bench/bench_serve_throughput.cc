/**
 * @file
 * Serving hot-path benchmark: batched prediction throughput of the
 * PredictionService across batch sizes and thread counts.
 *
 * The artifact is synthetic (ANNs trained on analytic functions of the
 * configuration) so the benchmark measures pure serving cost --
 * feature-vector assembly, one forward pass per ensemble member per
 * metric, and the linear combination -- with no simulator or disk in
 * the loop. Numbers are single-point predictions per second; a
 * "prediction" here answers *all* metrics in the artifact for one
 * design point.
 *
 * Acceptance floor (ISSUE 1): >= 100k single-point predictions/sec
 * batched across the thread pool with the full 4-metric artifact.
 *
 * The artifact carries all four metrics, each an 8-ANN ensemble.
 * Environment: ACDSE_BENCH_JSON overrides the BENCH_serve.json output
 * path (schema acdse-bench-v1, read by
 * tools/ci/check_bench_regression.py).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "base/json.hh"
#include "bench/bench_common.hh"
#include "obs/stats_export.hh"
#include "serve/prediction_service.hh"

using namespace acdse;

namespace
{

/** Build a trained artifact without any simulation. */
ModelArtifact
syntheticArtifact(std::size_t num_metrics, std::size_t num_models)
{
    ModelArtifact artifact;
    artifact.setTag("bench_serve_throughput synthetic");
    for (std::size_t m = 0; m < num_metrics; ++m) {
        artifact.add(static_cast<Metric>(m),
                     bench::syntheticEnsemble(num_models, m));
    }
    return artifact;
}

/**
 * Run one (threads, batch) cell and return points/second, timed with
 * a local clock around the whole cell. The cell's serve-stage metrics
 * are folded into @p stages.
 */
double
measure(const ModelArtifact &artifact, std::size_t threads,
        const std::vector<MicroarchConfig> &queries, std::size_t batch,
        obs::Snapshot &stages)
{
    ServeOptions options;
    options.threads = threads;
    PredictionService service(artifact, options);

    // One warm-up pass, then the measured passes.
    std::vector<MicroarchConfig> slice(
        queries.begin(),
        queries.begin() +
            static_cast<std::ptrdiff_t>(std::min(batch, queries.size())));
    service.predict(slice);
    service.resetStats();

    std::size_t points = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t offset = 0; offset + batch <= queries.size();
         offset += batch) {
        slice.assign(queries.begin() + static_cast<std::ptrdiff_t>(offset),
                     queries.begin() +
                         static_cast<std::ptrdiff_t>(offset + batch));
        service.predict(slice);
        points += slice.size();
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    stages.merge(service.statsSnapshot());
    return seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}

} // namespace

int
main()
{
    constexpr std::size_t num_metrics = kNumMetrics;
    constexpr std::size_t num_models = 8;

    std::printf("building synthetic artifact (%zu metrics x %zu-ANN "
                "ensembles)...\n",
                num_metrics, num_models);
    const ModelArtifact artifact =
        syntheticArtifact(num_metrics, num_models);

    const auto queries = DesignSpace::sampleValidConfigs(32768, 42);
    const std::size_t hw = std::thread::hardware_concurrency();

    std::printf("\nserving throughput, %zu query points per cell "
                "(single-point predictions/s, all %zu metrics each)\n\n",
                queries.size(), num_metrics);
    std::printf("%-10s", "batch");
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, hw}) {
        std::printf("  %7zu thr", threads);
    }
    std::printf("\n");

    const obs::Snapshot global_before =
        obs::Registry::global().snapshot();
    obs::Snapshot stages; //!< accumulated serve/ metrics (per-service)
    double best = 0.0;
    double best_t1 = 0.0;
    double best_hw = 0.0;
    for (std::size_t batch : {256u, 1024u, 4096u, 16384u}) {
        std::printf("%-10zu", static_cast<std::size_t>(batch));
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, hw}) {
            const double pps =
                measure(artifact, threads, queries, batch, stages);
            best = std::max(best, pps);
            if (threads == 1)
                best_t1 = std::max(best_t1, pps);
            if (threads == hw)
                best_hw = std::max(best_hw, pps);
            std::printf("  %11.0f", pps);
        }
        std::printf("\n");
    }

    const std::string out =
        bench::benchJsonPath("BENCH_serve.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("serve")
        .key("hardware_concurrency").value(
            static_cast<std::uint64_t>(hw))
        .key("num_metrics").value(
            static_cast<std::uint64_t>(num_metrics))
        .key("num_models").value(
            static_cast<std::uint64_t>(num_models))
        .key("metrics").beginObject()
        .key("serve_best_pps").value(best)
        .key("serve_best_pps_t1").value(best_t1)
        .key("serve_best_pps_tmax").value(best_hw)
        .endObject();
    // Per-stage breakdown (additive: the regression checker only reads
    // "metrics"): pool/ stages from the measurement interval of the
    // global registry, serve/ stages accumulated across the services.
    stages.merge(obs::diff(global_before,
                           obs::Registry::global().snapshot()));
    json.key("stages");
    obs::writeStagesJson(json, stages);
    json.endObject();
    writeTextAtomic(out, json.str());
    std::printf("\nwrote %s\n", out.c_str());

    std::printf("\nbest: %.0f predictions/s (target: >= 100000)\n", best);
    if (best < 100000.0) {
        std::printf("FAIL: below the serving throughput floor\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
