/**
 * @file
 * Job-drain overhead: the per-job cost of drainJobs() (jobs/drain.hh)
 * over no-op jobs, i.e. what every campaign job run pays on top of the
 * simulations themselves. Each job is claimed with a non-blocking
 * flock in pass 1 (open, tryLock, intact check, "compute", unlock,
 * close) and checked again under a blocking lock in pass 2. The CI
 * gate (tools/ci/check_bench_regression.py + bench/baseline.json)
 * catches a claim path that quietly turns quadratic or starts syncing
 * to disk.
 *
 * Scale: 512 jobs in one phase. Environment: ACDSE_BENCH_JSON
 * overrides the output path (default BENCH_jobs.json).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "base/json.hh"
#include "bench/bench_common.hh"
#include "jobs/drain.hh"

using namespace acdse;

int
main()
{
    constexpr std::size_t numJobs = 512;

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "acdse_bench_jobs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<jobs::JobSpec> specs;
    specs.reserve(numJobs);
    for (std::size_t j = 0; j < numJobs; ++j) {
        specs.push_back({"job" + std::to_string(j), "no-op", 0,
                         std::to_string(j)});
    }
    // The no-op jobs' outputs: a job is intact once its flag is set.
    std::vector<char> intact(numJobs, 0);
    const jobs::JobExecutor execute = [&](const jobs::JobSpec &spec) {
        char &flag = intact[std::stoul(spec.arg)];
        if (flag)
            return false;
        flag = 1;
        return true;
    };

    std::printf("draining %zu no-op jobs...\n", numJobs);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t computed =
        jobs::drainJobs(specs, (dir / "bench").string(), execute);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::filesystem::remove_all(dir);
    if (computed != numJobs) {
        std::printf("FAIL: computed %zu/%zu jobs\n", computed, numJobs);
        return 1;
    }
    const double claimsPerS = static_cast<double>(numJobs) / seconds;
    std::printf("\ndrain: %.0f jobs/s (two flock passes per job)\n",
                claimsPerS);

    const std::string out = bench::benchJsonPath("BENCH_jobs.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("jobs")
        .key("jobs").value(static_cast<std::uint64_t>(numJobs))
        .key("metrics").beginObject()
        .key("jobs_claims_per_s").value(claimsPerS)
        .endObject()
        .endObject();
    writeTextAtomic(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    // Loose in-binary sanity floor (the ratcheted gate lives in
    // bench/baseline.json): any healthy build clears it easily.
    if (claimsPerS < 100.0) {
        std::printf("FAIL: below the sanity floor\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
