/**
 * @file
 * Exploration-engine benchmark: valid design points swept (generated,
 * predicted and reduced) per second through src/explore at one thread
 * and at full hardware parallelism, in both generator modes.
 *
 * Two synthetic fitted ensembles (a cycles-like and an energy-like
 * analytic objective, conflicting so the Pareto frontier is
 * non-trivial) are built without any simulation, as in
 * bench_predict_batch; the numbers therefore measure the engine
 * itself: tile generation with fused validity filtering, the shared
 * per-block transpose, batched multi-metric inference and the
 * streaming frontier/top-k reducers.
 *
 * Acceptance floor (ISSUE 6): >= 1M valid points swept+predicted+
 * reduced per second single-thread. Enforced here when the host has
 * >= 8 hardware threads and tracked unconditionally by
 * tools/ci/check_bench_regression.py against bench/baseline.json
 * (explore_points_per_s). The bench also asserts that the single- and
 * max-thread runs reduce to bit-identical results.
 *
 * Each metric's ensemble has 4 ANNs. Environment: ACDSE_BENCH_JSON
 * overrides the BENCH_explore.json output path (schema
 * acdse-bench-v1).
 */

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
#include "explore/explorer.hh"
#include "obs/stats_export.hh"

using namespace acdse;

namespace
{

/** A cycles-like objective: wide, large machines run faster. */
double
syntheticCycles(const MicroarchConfig &config, double skew)
{
    return 1000.0 + skew * 4000.0 / config.width() +
           60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024)) +
           20000.0 / std::sqrt(static_cast<double>(config.robSize()));
}

/** An energy-like objective: the same resources cost power. */
double
syntheticEnergy(const MicroarchConfig &config, double skew)
{
    return 500.0 + skew * 900.0 * config.width() +
           40.0 * std::sqrt(static_cast<double>(config.l2Bytes() / 1024)) +
           12.0 * static_cast<double>(config.robSize());
}

/** Build one fitted ensemble on an analytic objective, no simulation. */
template <typename Objective>
ArchitectureCentricPredictor
syntheticPredictor(std::size_t num_models, const Objective &objective)
{
    const auto train = DesignSpace::sampleValidConfigs(96, 1);
    const auto responses = DesignSpace::sampleValidConfigs(32, 2);

    std::vector<ProgramTrainingSet> sets(num_models);
    for (std::size_t j = 0; j < num_models; ++j) {
        const double skew = 0.7 + 0.2 * static_cast<double>(j);
        // snprintf, not string concatenation: `"p" + std::to_string(j)`
        // trips a GCC 12 -O3 -Wrestrict false positive (GCC PR105651).
        char name[32];
        std::snprintf(name, sizeof(name), "p%zu", j);
        sets[j].name = name;
        sets[j].configs = train;
        for (const auto &config : train)
            sets[j].values.push_back(objective(config, skew));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);

    std::vector<double> response_values;
    for (const auto &config : responses)
        response_values.push_back(objective(config, 1.0));
    predictor.fitResponses(responses, response_values);
    return predictor;
}

struct Measurement
{
    explore::ExploreResult result;
    double validPerSecond = 0.0; //!< predicted+reduced points/s
    double rawPerSecond = 0.0;   //!< generated (pre-filter) points/s
};

/** Run explore() once warm and @p passes timed; points/s over passes. */
Measurement
measureExplore(std::span<const explore::MetricEnsemble> ensembles,
               const explore::ExploreOptions &options, std::size_t passes)
{
    Measurement m;
    m.result = explore::explore(ensembles, options); // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < passes; ++p)
        m.result = explore::explore(ensembles, options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    m.validPerSecond = static_cast<double>(m.result.stats.predicted) *
                       static_cast<double>(passes) / seconds;
    m.rawPerSecond = static_cast<double>(m.result.stats.generated) *
                     static_cast<double>(passes) / seconds;
    return m;
}

/** Bit-identity of two explore results (frontier and every top-k). */
bool
identical(const explore::ExploreResult &a,
          const explore::ExploreResult &b)
{
    if (a.frontier.size() != b.frontier.size())
        return false;
    for (std::size_t i = 0; i < a.frontier.size(); ++i) {
        if (a.frontier[i].config != b.frontier[i].config ||
            a.frontier[i].x != b.frontier[i].x ||
            a.frontier[i].y != b.frontier[i].y)
            return false;
    }
    if (a.topk.size() != b.topk.size())
        return false;
    for (std::size_t k = 0; k < a.topk.size(); ++k) {
        if (a.topk[k].size() != b.topk[k].size())
            return false;
        for (std::size_t i = 0; i < a.topk[k].size(); ++i) {
            if (a.topk[k][i].config != b.topk[k][i].config ||
                a.topk[k][i].predicted != b.topk[k][i].predicted)
                return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    constexpr std::size_t num_models = 4;
    const std::size_t hw = std::thread::hardware_concurrency();
    const obs::Snapshot obs_before = obs::Registry::global().snapshot();

    std::printf("building two synthetic %zu-ANN ensembles...\n",
                num_models);
    const ArchitectureCentricPredictor cycles_model =
        syntheticPredictor(num_models, syntheticCycles);
    const ArchitectureCentricPredictor energy_model =
        syntheticPredictor(num_models, syntheticEnergy);
    const std::vector<explore::MetricEnsemble> ensembles{
        {Metric::Cycles, &cycles_model}, {Metric::Energy, &energy_model}};

    // Sample mode over the full ~18B-point valid space: the production
    // configuration, and the gated number.
    explore::ExploreOptions sample_options;
    sample_options.mode = explore::Mode::Sample;
    sample_options.samples = 1u << 19;
    const std::size_t passes = 2;

    ThreadPool pool_t1(1);
    sample_options.pool = &pool_t1;
    const Measurement sample_t1 =
        measureExplore(ensembles, sample_options, passes);
    ThreadPool pool_tmax(hw);
    sample_options.pool = &pool_tmax;
    const Measurement sample_tmax =
        measureExplore(ensembles, sample_options, passes);

    // Enumerate mode over a coarsened grid: measures the fused
    // validity filter as well (raw column > valid column).
    explore::ExploreOptions enum_options;
    enum_options.mode = explore::Mode::Enumerate;
    enum_options.space = explore::SubSpace::strided(3);
    enum_options.pool = &pool_t1;
    const Measurement enum_t1 =
        measureExplore(ensembles, enum_options, passes);

    std::printf("\nexplore throughput, 2 metrics x %zu-ANN ensembles "
                "(points/s, %zu passes)\n\n",
                num_models, passes);
    std::printf("%-22s  %8s  %12s  %12s\n", "mode", "threads",
                "valid pts/s", "raw pts/s");
    std::printf("%-22s  %8zu  %12.0f  %12.0f\n", "sample (full space)",
                std::size_t{1}, sample_t1.validPerSecond,
                sample_t1.rawPerSecond);
    std::printf("%-22s  %8zu  %12.0f  %12.0f\n", "sample (full space)",
                hw, sample_tmax.validPerSecond,
                sample_tmax.rawPerSecond);
    std::printf("%-22s  %8zu  %12.0f  %12.0f\n", "enumerate (stride 3)",
                std::size_t{1}, enum_t1.validPerSecond,
                enum_t1.rawPerSecond);
    std::printf("\nfrontier %zu points, top-%zu per metric\n",
                sample_t1.result.frontier.size(),
                sample_options.topK);

    if (!identical(sample_t1.result, sample_tmax.result)) {
        std::printf("FAIL: explore results differ between 1 and %zu "
                    "threads\n",
                    hw);
        return 1;
    }
    std::printf("determinism: 1-thread and %zu-thread results "
                "bit-identical\n",
                hw);

    const std::string out =
        bench::benchJsonPath("BENCH_explore.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("explore")
        .key("hardware_concurrency").value(
            static_cast<std::uint64_t>(hw))
        .key("num_models").value(
            static_cast<std::uint64_t>(num_models))
        .key("metrics").beginObject()
        .key("explore_points_per_s").value(sample_t1.validPerSecond)
        .key("explore_points_per_s_tmax").value(
            sample_tmax.validPerSecond)
        .key("explore_enum_points_per_s").value(enum_t1.validPerSecond)
        .key("explore_enum_raw_points_per_s").value(
            enum_t1.rawPerSecond)
        .endObject();
    // Additive per-stage breakdown (explore/ and pool/ counters); the
    // regression checker only reads "metrics".
    json.key("stages");
    obs::writeStagesJson(
        json,
        obs::diff(obs_before, obs::Registry::global().snapshot()));
    json.endObject();
    writeTextAtomic(out, json.str());
    std::printf("\nwrote %s\n", out.c_str());

    std::printf("\nsingle-thread sweep rate: %.0f valid points/s "
                "(target: >= 1M on >= 8 hardware threads)\n",
                sample_t1.validPerSecond);
    if (hw >= 8 && sample_t1.validPerSecond < 1e6) {
        std::printf("FAIL: below the exploration throughput floor\n");
        return 1;
    }
    std::printf(hw >= 8 ? "PASS\n"
                        : "PASS (floor not enforced: fewer than 8 "
                          "hardware threads)\n");
    return 0;
}
