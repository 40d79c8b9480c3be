/**
 * @file
 * Serving front-end latency/soak benchmark: request latency quantiles
 * and sustained throughput of the async ingest path (MPSC ring +
 * drainer + SIMD batch kernels) under concurrent producers, with
 * model hot-swaps published mid-run.
 *
 * This is the CI "serve-soak" gate: producers stream single-point
 * requests through PredictionService::submit for a fixed wall-clock
 * window while a swapper thread publishes fresh model versions; the
 * run fails if any accepted request is lost, if a producer ever
 * observes the served version moving backwards, or if throughput
 * falls below a conservative floor. The regression checker
 * (tools/ci/check_bench_regression.py) then gates the recorded
 * numbers against bench/baseline.json -- floors for throughput,
 * *ceilings* for the latency quantiles.
 *
 * Latency quantiles come from the service's exact-sample reservoir
 * (serve/request-latency). Each ensemble has 8 ANNs; the service runs
 * with the default ServeOptions.
 *
 * Environment:
 *   ACDSE_SERVE_SOAK_MS        measured window per producer (default
 *                              2000)
 *   ACDSE_SERVE_SOAK_PRODUCERS producer threads (default 2)
 *   ACDSE_SERVE_SOAK_SWAPS     hot-swaps spread across the window
 *                              (default 4; 0 disables swapping)
 *   ACDSE_BENCH_JSON           output path (default
 *                              BENCH_serve_latency.json)
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "arch/design_space.hh"
#include "base/json.hh"
#include "bench/bench_common.hh"
#include "obs/stats_export.hh"
#include "serve/prediction_service.hh"

using namespace acdse;

namespace
{

/** Build a trained two-metric artifact without any simulation. */
ModelArtifact
syntheticArtifact(std::size_t num_models, double scale)
{
    ModelArtifact artifact;
    artifact.setTag("bench_serve_latency synthetic");
    for (std::size_t m = 0; m < 2; ++m) {
        artifact.add(static_cast<Metric>(m),
                     bench::syntheticEnsemble(num_models, m, scale));
    }
    return artifact;
}

struct ProducerResult
{
    std::uint64_t completed = 0;
    std::uint64_t versionRegressions = 0;
    std::uint64_t lostRows = 0; //!< rows left NaN after wait()
};

/**
 * One producer: stream flights of requests for the soak window,
 * checking completion and per-producer version monotonicity.
 */
ProducerResult
produce(PredictionService &service,
        const std::vector<MicroarchConfig> &queries,
        std::chrono::steady_clock::time_point deadline)
{
    constexpr std::size_t kFlight = 64;
    AsyncBatch batch(kFlight);
    ProducerResult result;
    std::uint64_t lastVersion = 0;
    std::size_t cursor = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        batch.reset();
        for (std::size_t i = 0; i < kFlight; ++i) {
            const auto &query = queries[cursor];
            cursor = (cursor + 1) % queries.size();
            // The soak's contract is loss-free serving: a full ring
            // backs off and retries (shed count still lands in
            // serve/shed for the report).
            while (service.submit(batch, query) !=
                   SubmitStatus::Accepted)
                std::this_thread::yield();
        }
        batch.wait();
        for (std::size_t i = 0; i < kFlight; ++i) {
            if (std::isnan(batch.rows()[i].get(Metric::Cycles)))
                ++result.lostRows;
            const std::uint64_t version = batch.versions()[i];
            if (version < lastVersion)
                ++result.versionRegressions;
            lastVersion = version;
        }
        result.completed += kFlight;
    }
    return result;
}

} // namespace

int
main()
{
    constexpr std::size_t num_models = 8;
    const std::size_t soakMs = bench::envSize("ACDSE_SERVE_SOAK_MS", 2000);
    const std::size_t producers =
        bench::envSize("ACDSE_SERVE_SOAK_PRODUCERS", 2);
    const std::size_t swaps = bench::envSize("ACDSE_SERVE_SOAK_SWAPS", 4);

    std::printf("building synthetic artifacts (%zu-ANN ensembles)...\n",
                num_models);
    const ModelArtifact v1 = syntheticArtifact(num_models, 1.0);
    const ModelArtifact v2 = syntheticArtifact(num_models, 1.5);

    PredictionService service(v1);
    const auto queries = DesignSpace::sampleValidConfigs(1024, 42);

    std::printf("soaking: %zu producers x %zu ms, %zu hot-swaps, ring "
                "of %zu\n",
                producers, soakMs, swaps, service.queueCapacity());

    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(soakMs);

    // The swapper republishes alternating artifacts at even intervals
    // across the window: every producer sees at least one version
    // change mid-flight.
    std::thread swapper([&] {
        for (std::size_t s = 0; s < swaps; ++s) {
            std::this_thread::sleep_until(
                start + std::chrono::milliseconds(
                            (s + 1) * soakMs / (swaps + 1)));
            service.publish(kDefaultTenant,
                            s % 2 == 0
                                ? syntheticArtifact(num_models, 1.5)
                                : syntheticArtifact(num_models, 1.0));
        }
    });

    std::vector<std::thread> threads;
    std::vector<ProducerResult> results(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            results[p] = produce(service, queries, deadline);
        });
    }
    for (auto &thread : threads)
        thread.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    swapper.join();

    std::uint64_t completed = 0, regressions = 0, lost = 0;
    for (const ProducerResult &result : results) {
        completed += result.completed;
        regressions += result.versionRegressions;
        lost += result.lostRows;
    }
    const double pps =
        seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
    const double p50Us = service.requestLatencyQuantileMs(0.50) * 1e3;
    const double p99Us = service.requestLatencyQuantileMs(0.99) * 1e3;
    const double p999Us =
        service.requestLatencyQuantileMs(0.999) * 1e3;
    const std::uint64_t shed =
        service.statsSnapshot().counters.at("serve/shed");

    std::printf("\n%llu requests in %.2f s: %.0f req/s\n",
                static_cast<unsigned long long>(completed), seconds,
                pps);
    std::printf("latency: p50 %.1f us, p99 %.1f us, p999 %.1f us "
                "(exact reservoir)\n",
                p50Us, p99Us, p999Us);
    std::printf("shed-and-retried: %llu; swaps: %llu (final version "
                "%llu)\n",
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(swaps),
                static_cast<unsigned long long>(
                    service.currentVersion()));

    const std::string out =
        bench::benchJsonPath("BENCH_serve_latency.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("serve_latency")
        .key("producers").value(static_cast<std::uint64_t>(producers))
        .key("soak_ms").value(static_cast<std::uint64_t>(soakMs))
        .key("swaps").value(static_cast<std::uint64_t>(swaps))
        .key("metrics").beginObject()
        .key("serve_latency_pps").value(pps)
        .key("serve_latency_p50_us").value(p50Us)
        .key("serve_latency_p99_us").value(p99Us)
        .key("serve_latency_p999_us").value(p999Us)
        .key("serve_latency_shed").value(
            static_cast<double>(shed))
        .endObject();
    json.key("stages");
    obs::writeStagesJson(json, service.statsSnapshot());
    json.endObject();
    writeTextAtomic(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    // Hard correctness gates: the soak is only a latency number if
    // serving stayed loss-free and monotone across the swaps.
    if (lost != 0) {
        std::printf("FAIL: %llu accepted requests came back NaN\n",
                    static_cast<unsigned long long>(lost));
        return 1;
    }
    if (regressions != 0) {
        std::printf("FAIL: served version went backwards %llu times\n",
                    static_cast<unsigned long long>(regressions));
        return 1;
    }
    // Loose in-binary floor (the ratcheted gate lives in
    // bench/baseline.json): any healthy build clears 5k req/s.
    if (pps < 5000.0) {
        std::printf("FAIL: %.0f req/s is below the sanity floor\n",
                    pps);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
