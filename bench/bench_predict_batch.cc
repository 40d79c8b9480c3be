/**
 * @file
 * Batched-inference benchmark: points/second of the architecture-
 * centric ensemble through the scalar per-point predict path vs the
 * vectorised batch kernels (ISSUE 4), at one thread and at full
 * hardware parallelism.
 *
 * The predictor is synthetic (ANNs trained on analytic functions of
 * the configuration, as in bench_serve_throughput) so the numbers are
 * pure inference arithmetic: both paths consume precomputed feature
 * matrices, isolating the kernel difference from feature assembly.
 * The batch path must be bit-identical to the scalar one
 * (tests/test_batch_predict.cc); this bench shows why it exists.
 *
 * Acceptance floor (ISSUE 4): the batched path delivers >= 3x the
 * scalar single-thread points/s on an 8-core host. The floor is
 * enforced here when the host has >= 8 hardware threads and tracked by
 * tools/ci/check_bench_regression.py against bench/baseline.json.
 *
 * Environment: ACDSE_PREDICT_BENCH_MODELS (default 8) sets the
 * ensemble size; ACDSE_BENCH_JSON overrides the
 * BENCH_predict_batch.json output path (schema acdse-bench-v1).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "arch/design_space.hh"
#include "base/json.hh"
#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "core/architecture_centric_predictor.hh"
#include "obs/stats_export.hh"

using namespace acdse;

namespace
{

/** Build one fitted ensemble without any simulation. */
ArchitectureCentricPredictor
syntheticPredictor(std::size_t num_models)
{
    const auto train = DesignSpace::sampleValidConfigs(96, 1);
    const auto responses = DesignSpace::sampleValidConfigs(32, 2);

    std::vector<ProgramTrainingSet> sets(num_models);
    for (std::size_t j = 0; j < num_models; ++j) {
        const double wide = 0.5 + 0.25 * static_cast<double>(j);
        const double mem = 2.0 - 0.15 * static_cast<double>(j);
        // snprintf, not string concatenation: `"p" + std::to_string(j)`
        // trips a GCC 12 -O3 -Wrestrict false positive (GCC PR105651).
        char name[32];
        std::snprintf(name, sizeof(name), "p%zu", j);
        sets[j].name = name;
        sets[j].configs = train;
        for (const auto &config : train)
            sets[j].values.push_back(
                bench::syntheticMetric(config, wide, mem));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);

    std::vector<double> response_values;
    for (const auto &config : responses)
        response_values.push_back(
            bench::syntheticMetric(config, 1.0, 1.0));
    predictor.fitResponses(responses, response_values);
    return predictor;
}

/** Work-unit size on the pooled paths (matches the serving chunk). */
constexpr std::size_t kChunk = 256;

/** Time @p passes runs of @p sweep over @p points and return points/s. */
template <typename Sweep>
double
measure(std::size_t points, std::size_t passes, Sweep &&sweep)
{
    sweep(); // warm-up: scratch growth, pool wake, icache
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < passes; ++p)
        sweep();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return static_cast<double>(points * passes) / seconds;
}

/** Scalar path: one predictFromFeatures call per point. */
double
measureScalar(const ArchitectureCentricPredictor &predictor,
              const std::vector<std::vector<double>> &features,
              std::size_t threads, std::size_t passes)
{
    const std::size_t n = features.size();
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    std::vector<double> out(n);
    ThreadPool pool(threads);
    return measure(n, passes, [&] {
        pool.parallelFor(0, chunks, [&](std::size_t chunk) {
            const std::size_t begin = chunk * kChunk;
            const std::size_t end = std::min(begin + kChunk, n);
            PredictScratch scratch;
            for (std::size_t i = begin; i < end; ++i)
                out[i] =
                    predictor.predictFromFeatures(features[i], scratch);
        });
    });
}

/** Batched path: one predictBatchFromFeatures call per chunk. */
double
measureBatch(const ArchitectureCentricPredictor &predictor,
             const std::vector<double> &rows, std::size_t threads,
             std::size_t passes)
{
    const std::size_t n = rows.size() / kNumParams;
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    std::vector<double> out(n);
    ThreadPool pool(threads);
    return measure(n, passes, [&] {
        pool.parallelFor(0, chunks, [&](std::size_t chunk) {
            const std::size_t begin = chunk * kChunk;
            const std::size_t count = std::min(kChunk, n - begin);
            BatchPredictScratch scratch;
            predictor.predictBatchFromFeatures(
                rows.data() + begin * kNumParams, count,
                out.data() + begin, scratch);
        });
    });
}

} // namespace

int
main()
{
    const std::size_t num_models =
        bench::envSize("ACDSE_PREDICT_BENCH_MODELS", 8);
    const std::size_t hw = std::thread::hardware_concurrency();
    const obs::Snapshot obs_before =
        obs::Registry::global().snapshot();

    std::printf("building synthetic %zu-ANN ensemble...\n", num_models);
    const ArchitectureCentricPredictor predictor =
        syntheticPredictor(num_models);

    const auto queries = DesignSpace::sampleValidConfigs(32768, 42);
    const std::size_t n = queries.size();
    std::vector<std::vector<double>> features(n);
    std::vector<double> rows(n * kNumParams);
    for (std::size_t i = 0; i < n; ++i) {
        features[i] = queries[i].asFeatureVector();
        queries[i].featuresInto(&rows[i * kNumParams]);
    }

    const std::size_t passes = 4;
    std::printf("\nensemble inference, %zu design points x %zu passes "
                "per cell (points/s)\n\n",
                n, passes);

    const double scalar_t1 = measureScalar(predictor, features, 1, passes);
    const double batch_t1 = measureBatch(predictor, rows, 1, passes);
    const double scalar_tmax =
        measureScalar(predictor, features, hw, passes);
    const double batch_tmax = measureBatch(predictor, rows, hw, passes);
    const double speedup_t1 = batch_t1 / scalar_t1;
    const double speedup_tmax = batch_tmax / scalar_tmax;

    std::printf("%-18s  %12s  %12s  %8s\n", "threads", "scalar pts/s",
                "batch pts/s", "speedup");
    std::printf("%-18zu  %12.0f  %12.0f  %7.2fx\n", std::size_t{1},
                scalar_t1, batch_t1, speedup_t1);
    std::printf("%-18zu  %12.0f  %12.0f  %7.2fx\n", hw, scalar_tmax,
                batch_tmax, speedup_tmax);

    const std::string out =
        bench::benchJsonPath("BENCH_predict_batch.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("predict_batch")
        .key("hardware_concurrency").value(
            static_cast<std::uint64_t>(hw))
        .key("num_models").value(
            static_cast<std::uint64_t>(num_models))
        .key("metrics").beginObject()
        .key("predict_scalar_pps_t1").value(scalar_t1)
        .key("predict_batch_pps_t1").value(batch_t1)
        .key("predict_batch_speedup_t1").value(speedup_t1)
        .key("predict_batch_pps_tmax").value(batch_tmax)
        .endObject();
    // Additive per-stage breakdown (train/ setup and pool/ counters);
    // the regression checker only reads "metrics".
    json.key("stages");
    obs::writeStagesJson(
        json,
        obs::diff(obs_before, obs::Registry::global().snapshot()));
    json.endObject();
    writeTextAtomic(out, json.str());
    std::printf("\nwrote %s\n", out.c_str());

    std::printf("\nsingle-thread batch speedup: %.2fx "
                "(target: >= 3x on >= 8 hardware threads)\n",
                speedup_t1);
    if (hw >= 8 && speedup_t1 < 3.0) {
        std::printf("FAIL: below the batched-inference speedup floor\n");
        return 1;
    }
    std::printf(hw >= 8 ? "PASS\n"
                        : "PASS (floor not enforced: fewer than 8 "
                          "hardware threads)\n");
    return 0;
}
