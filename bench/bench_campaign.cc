/**
 * @file
 * Campaign-fill benchmark: simulated design points per second through
 * the campaign fill shape (one DecodedTrace shared read-only, one
 * configuration per pool task, every worker replaying on its
 * threadSimScratch()) at one thread and at full hardware parallelism,
 * and, for reference, through per-call simulate() (which decodes the
 * trace on every call).
 *
 * It also proves the SimScratch hoisting claim: a steady-state replay
 * pass (same configs, same scratch) must perform ZERO heap
 * allocations, counted by the operator new/delete overrides below,
 * and records the process's peak resident memory (peak_rss_mb), which
 * the per-thread scratch dominates, and the size of the main thread's
 * scratch after the whole sample has run through it (sim_scratch_kib,
 * SimScratch::storageBytes()).
 *
 * Gate: the zero-allocation check fails the run here; the
 * single-thread campaign_points_per_s is held to its floor by
 * tools/ci/check_bench_regression.py against bench/baseline.json.
 * The per-call simulate() rate is reported ungated.
 *
 * Scale: 64 design points over a 6000-instruction trace.
 * Environment: ACDSE_BENCH_JSON overrides the BENCH_campaign.json
 * output path (schema acdse-bench-v1).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "arch/design_space.hh"
#include "base/json.hh"
#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "obs/stats_export.hh"
#include "sim/batch.hh"
#include "sim/cacti.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace
{

/**
 * Global allocation counter for the steady-state zero-allocation
 * check. Replacing the usual (non-aligned) operator new/delete family
 * is enough: nothing on the simulateBatch path heap-allocates
 * over-aligned types.
 */
std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace acdse;

namespace
{

/** Time @p passes runs of @p sweep over @p points and return points/s. */
template <typename Sweep>
double
measure(std::size_t points, std::size_t passes, Sweep &&sweep)
{
    sweep(); // warm-up: scratch growth, cacti memo, pool wake, icache
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < passes; ++p)
        sweep();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return static_cast<double>(points * passes) / seconds;
}

/** Per-call path: one simulate() call per cell, decoding each time. */
double
measurePerCall(const std::vector<MicroarchConfig> &configs,
              const Trace &trace, const SimulationOptions &options,
              std::size_t threads, std::size_t passes)
{
    const std::size_t n = configs.size();
    std::vector<SimulationResult> out(n);
    ThreadPool pool(threads);
    return measure(n, passes, [&] {
        pool.parallelFor(0, n, [&](std::size_t i) {
            out[i] = simulate(configs[i], trace, options);
        });
    });
}

/**
 * Replay path: one configuration per pool task replayed against one
 * shared DecodedTrace on each worker's threadSimScratch() -- the
 * campaign.cc fill shape.
 */
double
measureReplay(const std::vector<MicroarchConfig> &configs,
               const DecodedTrace &decoded,
               const SimulationOptions &options, std::size_t threads,
               std::size_t passes)
{
    const std::size_t n = configs.size();
    std::vector<SimulationResult> out(n);
    ThreadPool pool(threads);
    return measure(n, passes, [&] {
        pool.parallelFor(0, n, [&](std::size_t i) {
            simulateBatch(
                std::span<const MicroarchConfig>(&configs[i], 1), decoded,
                options, std::span<SimulationResult>(&out[i], 1),
                threadSimScratch());
        });
    });
}

/** Peak resident set size of this process so far, in MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main()
{
    constexpr std::size_t num_configs = 64;
    constexpr std::size_t trace_length = 6000;
    const std::size_t hw = std::thread::hardware_concurrency();
    const obs::Snapshot obs_before =
        obs::Registry::global().snapshot();

    SimulationOptions options;
    options.warmupInstructions = 1000;

    std::printf("generating %zu-instruction trace, sampling %zu "
                "configurations...\n",
                trace_length + options.warmupInstructions, num_configs);
    const Trace trace =
        TraceGenerator(profileByName("gcc"))
            .generate(trace_length + options.warmupInstructions);
    const DecodedTrace decoded(trace);
    const auto configs =
        DesignSpace::sampleValidConfigs(num_configs, 42);

    const std::size_t passes = 3;
    std::printf("\ncampaign fill, %zu design points x %zu passes per "
                "cell (points/s)\n\n",
                num_configs, passes);

    const double simulate_t1 =
        measurePerCall(configs, trace, options, 1, passes);
    const double replay_t1 =
        measureReplay(configs, decoded, options, 1, passes);
    const double replay_tmax =
        measureReplay(configs, decoded, options, hw, passes);

    std::printf("%-18s  %12s  %12s\n", "threads", "simulate()",
                "replay pts/s");
    std::printf("%-18zu  %12.0f  %12.0f\n", std::size_t{1}, simulate_t1,
                replay_t1);
    std::printf("%-18zu  %12s  %12.0f\n", hw, "-", replay_tmax);

    // Steady-state allocation check: after one warm pass has grown the
    // scratch and filled the cacti memo, a repeat pass over the same
    // configs must not touch the heap at all -- that is the whole point
    // of hoisting per-simulation state into SimScratch.
    std::vector<SimulationResult> out(configs.size());
    SimScratch &scratch = threadSimScratch();
    simulateBatch(configs, decoded, options, out, scratch); // warm
    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    simulateBatch(configs, decoded, options, out, scratch);
    const std::uint64_t steady_allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    std::printf("\nsteady-state replay pass: %llu heap allocations "
                "(%zu sims)\n",
                static_cast<unsigned long long>(steady_allocs),
                configs.size());
    const double peak_rss_mb = peakRssMb();
    std::printf("peak resident memory: %.1f MiB\n", peak_rss_mb);
    const double sim_scratch_kib =
        static_cast<double>(scratch.storageBytes()) / 1024.0;
    std::printf("simulator scratch: %.1f KiB per thread\n",
                sim_scratch_kib);

    const CactiMemoStats memo = cactiMemoStats();
    const double memo_total =
        static_cast<double>(memo.hits + memo.misses);
    std::printf("cacti memo: %llu hits / %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(memo.hits),
                static_cast<unsigned long long>(memo.misses),
                memo_total > 0.0
                    ? 100.0 * static_cast<double>(memo.hits) / memo_total
                    : 0.0);

    const std::string json_out =
        bench::benchJsonPath("BENCH_campaign.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("campaign")
        .key("hardware_concurrency").value(
            static_cast<std::uint64_t>(hw))
        .key("num_configs").value(
            static_cast<std::uint64_t>(num_configs))
        .key("trace_length").value(
            static_cast<std::uint64_t>(trace_length))
        .key("steady_state_allocations").value(steady_allocs)
        .key("metrics").beginObject()
        .key("campaign_simulate_pps_t1").value(simulate_t1)
        .key("campaign_points_per_s").value(replay_t1)
        .key("campaign_batch_pps_tmax").value(replay_tmax)
        .key("peak_rss_mb").value(peak_rss_mb)
        .key("sim_scratch_kib").value(sim_scratch_kib)
        .endObject();
    // Additive per-stage breakdown (sim/batch span, sim/ and pool/
    // counters); the regression checker only reads "metrics".
    json.key("stages");
    obs::writeStagesJson(
        json,
        obs::diff(obs_before, obs::Registry::global().snapshot()));
    json.endObject();
    writeTextAtomic(json_out, json.str());
    std::printf("\nwrote %s\n", json_out.c_str());

    if (steady_allocs != 0) {
        std::printf("FAIL: steady-state replay pass allocated\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
