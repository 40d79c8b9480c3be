/**
 * @file
 * Training/evaluation throughput benchmark for the shared thread pool:
 * programs-trained per second (warmProgramModels) and leave-one-out
 * folds per second (evaluateArchCentricSweep) at 1, 2 and N threads.
 *
 * The campaign is a small MiBench-style workload computed once into a
 * disk cache, so the benchmark measures the parallelised ML pipeline
 * (per-program ANN training, response fitting, prediction scoring),
 * not the simulator. Every cell runs the *same* work with the same
 * seeds on a fresh Evaluator; only the thread count differs, and the
 * determinism contract (tests/test_parallel_determinism.cc) guarantees
 * identical numerical results at every point of the table.
 *
 * Emits BENCH_train.json (schema acdse-bench-v1) for
 * tools/ci/check_bench_regression.py; override the output path with
 * ACDSE_BENCH_JSON.
 *
 * Acceptance gate (ISSUE 3): on hardware with >= 8 cores the N-thread
 * leave-one-out sweep must be >= 3x faster than the 1-thread sweep.
 * The gate is skipped (reported, not enforced) on smaller machines.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "bench/bench_common.hh"
#include "core/evaluation.hh"
#include "ml/matrix.hh"
#include "obs/stats_export.hh"

using namespace acdse;

namespace
{

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

constexpr std::size_t kTrainT = 48; //!< training sims per program
constexpr std::size_t kRespR = 16;  //!< responses per fold

/** All campaign program indices. */
std::vector<std::size_t>
allPrograms(const Campaign &campaign)
{
    std::vector<std::size_t> idx(campaign.programs().size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    return idx;
}

/**
 * Programs-trained/s at @p threads: best of @p reps timed
 * warmProgramModels calls, each on a fresh (cold-cache) Evaluator.
 */
double
measureTraining(Campaign &campaign, std::size_t threads,
                std::size_t reps)
{
    const auto programs = allPrograms(campaign);
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        Evaluator evaluator(campaign, {}, threads);
        const auto start = std::chrono::steady_clock::now();
        evaluator.warmProgramModels(programs, Metric::Cycles, kTrainT,
                                    0x7121'0000ULL + r);
        best = std::max(best, static_cast<double>(programs.size()) /
                                  seconds(start));
    }
    return best;
}

/**
 * Leave-one-out folds/s at @p threads: the full cold sweep -- ANN
 * training for every program (the dominant, parallelised cost), then
 * response fitting and scoring over every held-out configuration --
 * on a fresh Evaluator each repeat. Best of @p reps.
 */
double
measureLooSweep(Campaign &campaign, std::size_t threads,
                std::size_t reps)
{
    const auto programs = allPrograms(campaign);
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        Evaluator evaluator(campaign, {}, threads);
        const auto start = std::chrono::steady_clock::now();
        evaluator.evaluateArchCentricSweep(programs, Metric::Cycles,
                                           kTrainT, kRespR,
                                           0x7121'1000ULL + r);
        best = std::max(best, static_cast<double>(programs.size()) /
                                  seconds(start));
    }
    return best;
}

/**
 * Dense matmul throughput (multiply + gram of a 256x64 matrix, the
 * shapes the regression solves build): iterations/s, best of @p reps.
 * Tracks the ml/matrix kernels after their zero-skip branches were
 * dropped in favour of straight-line vectorisable loops.
 */
double
measureMatmul(std::size_t reps)
{
    Rng rng(0x3a7'0001ULL);
    Matrix a(256, 64);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c)
            a(r, c) = rng.nextDouble() * 2.0 - 1.0;
    }
    const Matrix at = a.transposed();

    double best = 0.0;
    double sink = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        constexpr std::size_t kIters = 40;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < kIters; ++i) {
            const Matrix product = at.multiply(a);
            const Matrix g = a.gram();
            sink += product(0, 0) + g(0, 0);
        }
        best = std::max(best,
                        static_cast<double>(kIters) / seconds(start));
    }
    if (sink == 0.0) // keep the products observable
        std::printf("(matmul sink: %f)\n", sink);
    return best;
}

} // namespace

int
main()
{
    const std::size_t max_threads = ThreadPool::defaultThreads();
    const std::size_t hw = std::thread::hardware_concurrency();
    constexpr std::size_t reps = 3; // timed repeats per cell, best kept

    const std::vector<std::string> programs{
        "crc32", "sha",   "adpcm",    "stringsearch",
        "qsort", "fft",   "dijkstra", "bitcount"};
    CampaignOptions options;
    options.numConfigs = 96;
    options.traceLength = 2000;
    options.warmupInstructions = 400;
    options.quiet = true;
    options.cacheDir = (std::filesystem::temp_directory_path() /
                        "acdse_bench_train_cache")
                           .string();
    std::filesystem::create_directories(options.cacheDir);

    std::printf("computing %zu-program campaign (cache: %s)...\n",
                programs.size(), options.cacheDir.c_str());
    const obs::Snapshot obs_before =
        obs::Registry::global().snapshot();
    Campaign campaign(programs, options);
    campaign.ensureComputed();

    std::printf("\ntraining/evaluation throughput, best of %zu "
                "(T=%zu, R=%zu, %zu configs, max threads %zu)\n\n",
                reps, kTrainT, kRespR, campaign.configs().size(),
                max_threads);
    std::printf("%-10s  %18s  %18s\n", "threads", "train programs/s",
                "LOO folds/s");

    std::vector<std::size_t> counts{1};
    if (max_threads >= 2)
        counts.push_back(2);
    if (max_threads > 2)
        counts.push_back(max_threads);
    double train_t1 = 0.0, train_t2 = 0.0, train_tmax = 0.0;
    double loo_t1 = 0.0, loo_tmax = 0.0;
    for (std::size_t threads : counts) {
        const double train = measureTraining(campaign, threads, reps);
        const double loo = measureLooSweep(campaign, threads, reps);
        std::printf("%-10zu  %18.2f  %18.2f\n", threads, train, loo);
        if (threads == 1) {
            train_t1 = train;
            loo_t1 = loo;
        }
        if (threads == 2)
            train_t2 = train;
        if (threads == counts.back()) {
            train_tmax = train;
            loo_tmax = loo;
        }
    }
    if (train_t2 == 0.0)
        train_t2 = train_tmax; // max_threads < 2: only one column ran
    const double speedup = loo_t1 > 0.0 ? loo_tmax / loo_t1 : 1.0;
    std::printf("\nLOO sweep speedup at %zu threads: %.2fx\n",
                counts.back(), speedup);

    const double matmul = measureMatmul(reps);
    std::printf("dense matmul (256x64 multiply+gram): %.1f iters/s\n",
                matmul);

    const std::string out =
        bench::benchJsonPath("BENCH_train.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("train")
        .key("threads_max").value(static_cast<std::uint64_t>(
            counts.back()))
        .key("hardware_concurrency").value(
            static_cast<std::uint64_t>(hw))
        .key("metrics").beginObject()
        .key("train_programs_per_s_t1").value(train_t1)
        .key("train_programs_per_s_t2").value(train_t2)
        .key("train_programs_per_s_tmax").value(train_tmax)
        .key("loo_folds_per_s_t1").value(loo_t1)
        .key("loo_folds_per_s_tmax").value(loo_tmax)
        .key("loo_speedup_tmax_over_t1").value(speedup)
        .key("matmul_iters_per_s").value(matmul)
        .endObject();
    // Additive per-stage breakdown (campaign/train/sweep/pool) over
    // the whole run; the regression checker only reads "metrics".
    json.key("stages");
    obs::writeStagesJson(
        json,
        obs::diff(obs_before, obs::Registry::global().snapshot()));
    json.endObject();
    writeTextAtomic(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    // The 3x parallel-speedup gate only means something when the
    // machine actually has the cores; on small runners we report only.
    if (hw >= 8 && counts.back() >= 8) {
        if (speedup < 3.0) {
            std::printf("FAIL: %zu-thread LOO speedup %.2fx below the "
                        "3x floor\n",
                        counts.back(), speedup);
            return 1;
        }
        std::printf("PASS (speedup floor 3x enforced)\n");
    } else {
        std::printf("PASS (speedup floor skipped: %zu hardware "
                    "threads)\n",
                    hw);
    }
    return 0;
}
