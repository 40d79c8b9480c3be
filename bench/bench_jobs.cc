/**
 * @file
 * Job-system substrate throughput: checksummed journal appends,
 * full-journal replay, and claim/complete round trips through the
 * flock-serialised JobQueue. These are the fixed costs every campaign
 * job run pays on top of the simulations themselves; the CI gate
 * (tools/ci/check_bench_regression.py + bench/baseline.json) exists
 * to catch a quietly quadratic replay or a fsync sneaking into the
 * append path.
 *
 * Environment:
 *   ACDSE_JOBS_BENCH_APPENDS  journal records appended (default 20000)
 *   ACDSE_JOBS_BENCH_JOBS     queue jobs claimed (default 512)
 *   ACDSE_BENCH_JSON          output path (default BENCH_jobs.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "base/journal.hh"
#include "base/json.hh"
#include "bench/bench_common.hh"
#include "jobs/job_queue.hh"

using namespace acdse;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    const std::size_t appends =
        bench::envSize("ACDSE_JOBS_BENCH_APPENDS", 20000);
    const std::size_t numJobs =
        bench::envSize("ACDSE_JOBS_BENCH_JOBS", 512);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "acdse_bench_jobs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // --- journal append + replay -------------------------------------
    Journal journal((dir / "bench.journal").string());
    std::printf("appending %zu journal records...\n", appends);
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < appends; ++i) {
        journal.append({"start", "sim" + std::to_string(i % 97), "1",
                        std::to_string(i)});
    }
    const double appendSeconds = secondsSince(start);
    const double appendsPerS =
        static_cast<double>(appends) / appendSeconds;

    start = std::chrono::steady_clock::now();
    const JournalReplay replay = journal.replay();
    const double replaySeconds = secondsSince(start);
    if (replay.records.size() != appends || replay.tornTail) {
        std::printf("FAIL: replay saw %zu/%zu records (torn=%d)\n",
                    replay.records.size(), appends, replay.tornTail);
        return 1;
    }
    const double replayPerS =
        static_cast<double>(appends) / replaySeconds;

    // --- queue claim/complete round trips ----------------------------
    std::vector<jobs::JobSpec> specs;
    specs.reserve(numJobs);
    for (std::size_t j = 0; j < numJobs; ++j) {
        specs.push_back({"job" + std::to_string(j), "simulate-shard", 0,
                         std::to_string(j)});
    }
    jobs::JobQueue queue(dir.string(), "bench_queue");
    queue.open("benchhash", specs);
    std::printf("draining %zu queue jobs...\n", numJobs);
    start = std::chrono::steady_clock::now();
    std::size_t drained = 0;
    for (;;) {
        jobs::JobSpec spec;
        int attempt = 0;
        if (queue.claim(spec, attempt) != jobs::ClaimResult::Claimed)
            break;
        queue.complete(spec.id);
        ++drained;
    }
    const double claimSeconds = secondsSince(start);
    if (drained != numJobs || !queue.snapshot().drained()) {
        std::printf("FAIL: drained %zu/%zu jobs\n", drained, numJobs);
        return 1;
    }
    const double claimsPerS =
        static_cast<double>(numJobs) / claimSeconds;

    std::printf("\njournal: %.0f appends/s, replay %.0f records/s\n",
                appendsPerS, replayPerS);
    std::printf("queue:   %.0f claim+complete/s (replay-validated "
                "under flock)\n",
                claimsPerS);

    const std::string out =
        bench::benchJsonPath("BENCH_jobs.json");
    JsonWriter json;
    json.beginObject()
        .key("schema").value("acdse-bench-v1")
        .key("bench").value("jobs")
        .key("appends").value(static_cast<std::uint64_t>(appends))
        .key("jobs").value(static_cast<std::uint64_t>(numJobs))
        .key("metrics").beginObject()
        .key("jobs_journal_appends_per_s").value(appendsPerS)
        .key("jobs_journal_replay_records_per_s").value(replayPerS)
        .key("jobs_claims_per_s").value(claimsPerS)
        .endObject()
        .endObject();
    writeTextAtomic(out, json.str());
    std::printf("wrote %s\n", out.c_str());

    std::filesystem::remove_all(dir);

    // Loose in-binary sanity floors (the ratcheted gates live in
    // bench/baseline.json): any healthy build clears these easily.
    if (appendsPerS < 10000.0 || claimsPerS < 100.0) {
        std::printf("FAIL: below the sanity floor\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
