/**
 * @file
 * End-to-end tests for the production CLI binaries, driven as real
 * subprocesses: train_then_serve trains and persists an artifact,
 * acdse-serve serves it, and both emit acdse-stats-v1 stats through
 * --stats-out. Also covers the bad-flag and corrupt-artifact error
 * paths (exit codes 2 and 1 respectively).
 *
 * Binary paths arrive as compile definitions (ACDSE_TOOL_*) from
 * tests/CMakeLists.txt, so the tests always run the binaries of the
 * same build tree. Runs are pinned to ACDSE_THREADS=1 and a tiny
 * campaign so one end-to-end pass stays in CI budget; single-threaded
 * runs also make the "self times sum to <= wall time" stage-tree
 * invariant exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_reader.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;

/** Number of training programs the e2e run uses (see trainCmd). */
constexpr std::size_t kTrainPrograms = 2;

/** Metrics train_then_serve trains (one ensemble per kAllMetrics). */
constexpr std::size_t kMetricsTrained = 4;

struct RunResult
{
    int exitCode = -1;
    double wallSeconds = 0.0;
    std::string output; //!< merged stdout+stderr
};

/** Run @p command under `sh -c`, capturing exit code and output. */
RunResult
run(const fs::path &dir, const std::string &command)
{
    const fs::path log = dir / "run.log";
    const std::string wrapped =
        "cd '" + dir.string() + "' && { " + command + " ; } > '" +
        log.string() + "' 2>&1";
    const auto start = std::chrono::steady_clock::now();
    const int status = std::system(wrapped.c_str());
    RunResult result;
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    result.output = text.str();
    return result;
}

/** A new empty directory, unique to this process (tests/temp_dir.hh). */
fs::path
freshDir(const std::string &name)
{
    return testdir::uniqueTempDir(name);
}

testjson::Value
parseFile(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return testjson::parse(text.str());
}

/**
 * The small train_then_serve invocation shared by the tests: two
 * training programs plus a target, a short synthetic trace, one
 * thread. ~seconds, not minutes.
 */
std::string
trainCmd(const std::string &extra)
{
    return std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=56 "
                       "ACDSE_TRACE_LEN=2000 ACDSE_WARMUP=400 "
                       "ACDSE_CACHE_DIR=. ") +
           ACDSE_TOOL_TRAIN_THEN_SERVE +
           " --train-programs gzip,crafty --target vpr"
           " --train-sims 24 --responses 16 " +
           extra;
}

TEST(CliTrainThenServe, EndToEndWithStats)
{
    const fs::path dir = freshDir("acdse_cli_tts");
    const RunResult result = run(
        dir, trainCmd("--out model.acdse --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_TRUE(fs::exists(dir / "model.acdse"));
    ASSERT_TRUE(fs::exists(dir / "stats.json")) << result.output;
    EXPECT_NE(result.output.find("held-out points: cycles rmae"),
              std::string::npos)
        << result.output;

    const testjson::Value doc = parseFile(dir / "stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v1");
    const testjson::Value &stages = doc.at("stages");

    // One train/program/<i> stage per training program, each spanned
    // once per trained metric.
    std::size_t trainProgramStages = 0;
    for (const auto &[path, stage] : stages.object) {
        if (path.starts_with("train/program/")) {
            ++trainProgramStages;
            EXPECT_EQ(stage.at("count").asNumber(),
                      static_cast<double>(kMetricsTrained))
                << path;
        }
    }
    EXPECT_EQ(trainProgramStages, kTrainPrograms);

    // The campaign, training, fit and serve stages all saw real time.
    EXPECT_GT(stages.at("campaign/fill").at("total_ms").asNumber(),
              0.0);
    EXPECT_GT(stages.at("train/offline").at("total_ms").asNumber(),
              0.0);
    EXPECT_EQ(stages.at("train/offline").at("count").asNumber(),
              static_cast<double>(kMetricsTrained));
    EXPECT_GT(stages.at("fit/responses").at("total_ms").asNumber(),
              0.0);
    EXPECT_GE(stages.at("serve/batch").at("count").asNumber(), 1.0);

    // Self times are exclusive, so on a single-threaded run their sum
    // across all stages cannot exceed the process wall time.
    double selfSumMs = 0.0;
    for (const auto &[path, stage] : stages.object) {
        const double self = stage.at("self_ms").asNumber();
        EXPECT_GE(self, 0.0) << path;
        EXPECT_LE(self, stage.at("total_ms").asNumber() + 1e-9) << path;
        selfSumMs += self;
    }
    EXPECT_LE(selfSumMs, result.wallSeconds * 1000.0);
}

TEST(CliTrainThenServe, RejectsUnknownFlag)
{
    const fs::path dir = freshDir("acdse_cli_tts_badflag");
    const RunResult result =
        run(dir, std::string(ACDSE_TOOL_TRAIN_THEN_SERVE) +
                     " --no-such-flag");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliTrainThenServe, RejectsBadValues)
{
    const fs::path dir = freshDir("acdse_cli_tts_badval");
    // fatal() paths exit 1: zero T/R and a flag missing its value.
    EXPECT_EQ(run(dir, trainCmd("--train-sims 0")).exitCode, 1);
    EXPECT_EQ(run(dir, trainCmd("--out")).exitCode, 1);
}

TEST(CliServe, ServesQueriesAndWritesStats)
{
    const fs::path dir = freshDir("acdse_cli_serve");
    const RunResult trained =
        run(dir, trainCmd("--out model.acdse"));
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // A header row, a comment and two valid Table-1 query rows.
    {
        std::ofstream queries(dir / "queries.csv");
        queries << "width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,il1,"
                   "dl1,l2\n";
        queries << "# comment line\n";
        queries << "4,96,32,24,80,8,4,16,4,16,32,32,2048\n";
        queries << "8,160,64,48,128,16,8,32,2,24,64,64,4096\n";
    }
    const RunResult served = run(
        dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE +
                 " --model model.acdse --input queries.csv --stats"
                 " --stats-out serve_stats.json > out.csv");
    ASSERT_EQ(served.exitCode, 0) << served.output;
    // --stats reads the service's snapshot: both queries in one batch.
    EXPECT_NE(served.output.find("stats: 1 batches, 2 points"),
              std::string::npos)
        << served.output;

    // Output CSV: one header plus one row per query.
    std::ifstream out(dir / "out.csv");
    std::string line;
    std::size_t rows = 0;
    while (std::getline(out, line)) {
        if (!line.empty())
            ++rows;
    }
    EXPECT_EQ(rows, 3u);

    const testjson::Value doc = parseFile(dir / "serve_stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v1");
    EXPECT_GE(
        doc.at("stages").at("serve/batch").at("count").asNumber(),
        1.0);
    EXPECT_EQ(doc.at("counters").at("serve/points").asNumber(),
              2.0);
    EXPECT_EQ(
        doc.at("histograms").at("serve/batch-points").at("count")
            .asNumber(),
        1.0);
}

TEST(CliServe, AsyncStatsReportTheDrains)
{
    const fs::path dir = freshDir("acdse_cli_serve_async");
    const RunResult trained =
        run(dir, trainCmd("--out model.acdse"));
    ASSERT_EQ(trained.exitCode, 0) << trained.output;
    {
        std::ofstream queries(dir / "queries.csv");
        for (int i = 0; i < 20; ++i)
            queries << "4,96,32,24,80,8,4,16,4,16,32,32,2048\n";
    }
    // --max-queue routes every batch through the ingest ring, so the
    // work is done by drains, not predict() batches.
    const RunResult served = run(
        dir, std::string("ACDSE_THREADS=1 ") + ACDSE_TOOL_SERVE +
                 " --model model.acdse --input queries.csv --batch 5"
                 " --max-queue 64 --stats > out.csv");
    ASSERT_EQ(served.exitCode, 0) << served.output;
    const std::string prefix = "stats: ";
    const std::size_t at = served.output.find(prefix);
    ASSERT_NE(at, std::string::npos) << served.output;
    std::istringstream line(served.output.substr(at + prefix.size()));
    unsigned long long drains = 0;
    std::string unit;
    line >> drains >> unit;
    EXPECT_EQ(unit, "drains,") << served.output;
    EXPECT_GT(drains, 0u) << served.output;
    EXPECT_NE(served.output.find("20 points"), std::string::npos)
        << served.output;
}

TEST(CliServe, RejectsUnknownFlagAndMissingModel)
{
    const fs::path dir = freshDir("acdse_cli_serve_badflag");
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE) + " --bogus")
                  .exitCode,
              2);
    // --model is required.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE)).exitCode, 2);
    // --stats-every without --stats-out is a user error.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_SERVE) +
                           " --model x.acdse --stats-every 2")
                  .exitCode,
              1);
}

TEST(CliExplore, ExploresArtifactAndWritesCsv)
{
    const fs::path dir = freshDir("acdse_cli_explore");
    const RunResult trained = run(dir, trainCmd("--out model.acdse"));
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // A small sampled exploration; results must not depend on the
    // thread count, so run it at 1 and 2 threads and compare bytes.
    const std::string explore_cmd =
        std::string(ACDSE_TOOL_EXPLORE) +
        " --model model.acdse --samples 3000 --topk 4 --seed 9";
    const RunResult explored =
        run(dir, explore_cmd + " --threads 1 --stats-out stats.json");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    const RunResult explored2 =
        run(dir, explore_cmd + " --threads 2 --frontier-out f2.csv"
                               " --topk-out t2.csv");
    ASSERT_EQ(explored2.exitCode, 0) << explored2.output;

    auto slurp = [&](const char *name) {
        std::ifstream in(dir / name);
        EXPECT_TRUE(in.good()) << name;
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string frontier = slurp("frontier.csv");
    EXPECT_TRUE(frontier.starts_with(
        "width,rob,iq,lsq,rf,rfrd,rfwr,bpred,btb,br,il1,dl1,l2,"
        "cycles,energy"))
        << frontier.substr(0, 120);
    EXPECT_EQ(frontier, slurp("f2.csv"));
    const std::string topk = slurp("topk.csv");
    EXPECT_TRUE(topk.starts_with("metric,rank,width"))
        << topk.substr(0, 120);
    EXPECT_EQ(topk, slurp("t2.csv"));
    // Default --metrics cycles,energy at --topk 4: header + 8 rows.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(topk.begin(), topk.end(), '\n')),
              9u);

    const testjson::Value doc = parseFile(dir / "stats.json");
    EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v1");
    EXPECT_EQ(doc.at("counters")
                  .at("explore/points-predicted")
                  .asNumber(),
              3000.0);
    EXPECT_GE(doc.at("stages").at("explore/tile").at("count")
                  .asNumber(),
              1.0);
    EXPECT_GE(doc.at("stages").at("explore/reduce").at("count")
                  .asNumber(),
              1.0);
}

TEST(CliExplore, RefinedEnumerationOfReducedGrid)
{
    const fs::path dir = freshDir("acdse_cli_explore_enum");
    const RunResult trained = run(dir, trainCmd("--out model.acdse"));
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    // Stride 4 + pins keeps the grid tiny; --refine rewrites top-k.
    const RunResult explored = run(
        dir, std::string(ACDSE_TOOL_EXPLORE) +
                 " --model model.acdse --mode enumerate --stride 4"
                 " --fix width=4 --fix l2=1024 --metrics cycles"
                 " --pareto cycles,cycles --topk 3 --refine"
                 " --threads 1");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    EXPECT_TRUE(fs::exists(dir / "frontier.csv"));
    EXPECT_TRUE(fs::exists(dir / "topk.csv"));
    EXPECT_NE(explored.output.find("(refined)"), std::string::npos)
        << explored.output;
}

TEST(CliExplore, RejectsBadFlagsAndValues)
{
    const fs::path dir = freshDir("acdse_cli_explore_badflag");
    // usage() paths exit 2: unknown flag, missing --model.
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_EXPLORE) + " --bogus")
                  .exitCode,
              2);
    EXPECT_EQ(run(dir, std::string(ACDSE_TOOL_EXPLORE)).exitCode, 2);
    // fatal() paths exit 1: bad mode, bad metric, illegal --fix value,
    // Pareto objective not among the scored metrics.
    const std::string base =
        std::string(ACDSE_TOOL_EXPLORE) + " --model x.acdse";
    EXPECT_EQ(run(dir, base + " --mode sideways").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --metrics watts").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --fix width=5").exitCode, 1);
    EXPECT_EQ(run(dir, base + " --metrics ed,edd").exitCode, 1);
}

TEST(CliExplore, RejectsCorruptArtifact)
{
    const fs::path dir = freshDir("acdse_cli_explore_corrupt");
    {
        std::ofstream bad(dir / "corrupt.acdse");
        bad << "this is not an artifact";
    }
    const RunResult result =
        run(dir, std::string(ACDSE_TOOL_EXPLORE) +
                     " --model corrupt.acdse --samples 10");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("fatal"), std::string::npos);
}

TEST(CliServe, RejectsCorruptArtifact)
{
    const fs::path dir = freshDir("acdse_cli_serve_corrupt");
    {
        std::ofstream bad(dir / "corrupt.acdse");
        bad << "this is not an artifact";
    }
    const RunResult result =
        run(dir, std::string(ACDSE_TOOL_SERVE) +
                     " --model corrupt.acdse --input /dev/null");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("fatal"), std::string::npos);
}

/**
 * The pinned tiny acdse-jobs invocation (9 jobs: 3 shards, 4 training
 * jobs, 2 fits). Deeper fault-injection coverage -- kill matrices,
 * journal corruption sweeps, bit-identity against a reference run --
 * lives in test_jobs_crash.cc; this suite covers the CLI surface:
 * exit codes, artifacts and the status schema.
 */
std::string
jobsCmd(const std::string &subcommand)
{
    return std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=24 "
                       "ACDSE_TRACE_LEN=1200 ACDSE_WARMUP=200 ") +
           ACDSE_TOOL_JOBS + " " + subcommand;
}

constexpr const char *kJobsRunArgs =
    "run --dir . --workers 2 --programs gzip,mcf --target vpr"
    " --train 12 --responses 8 --shard-cells 30";

TEST(CliJobServer, RunProducesArtifactsAndStats)
{
    const fs::path dir = freshDir("acdse_cli_jobs_run");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs) +
                         " --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;

    std::size_t plans = 0, journals = 0, shards = 0, predictors = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        plans += name.ends_with(".plan.csv");
        journals += name.ends_with(".journal");
        shards += name.find(".shard") != std::string::npos;
        predictors += name.find(".predictor_m") != std::string::npos;
    }
    EXPECT_EQ(plans, 1u);
    EXPECT_EQ(journals, 1u);
    EXPECT_EQ(shards, 3u);
    EXPECT_EQ(predictors, 2u);

    // The parent and each worker wrote acdse-stats-v1 files; the
    // workers' ones carry the jobs/dispatch counter.
    ASSERT_TRUE(fs::exists(dir / "stats.json"));
    const testjson::Value parent = parseFile(dir / "stats.json");
    EXPECT_EQ(parent.at("schema").asString(), "acdse-stats-v1");
    double dispatched = 0;
    for (std::size_t w = 0; w < 2; ++w) {
        const fs::path workerStats =
            dir / ("stats.json.worker" + std::to_string(w));
        ASSERT_TRUE(fs::exists(workerStats));
        const testjson::Value doc = parseFile(workerStats);
        EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v1");
        // A worker that lost every claim race registers no
        // jobs/dispatch counter at all; only the sum is deterministic.
        if (doc.at("counters").has("jobs/dispatch"))
            dispatched += doc.at("counters").at("jobs/dispatch").asNumber();
    }
    EXPECT_EQ(dispatched, 9.0);
}

TEST(CliJobServer, StatusSchemaAndResumeAfterKill)
{
    const fs::path dir = freshDir("acdse_cli_jobs_resume");
    RunResult result = run(
        dir, "ACDSE_JOBS_KILL_AFTER=0:2 " +
                 jobsCmd(std::string(kJobsRunArgs) + " --workers 1"));
    ASSERT_EQ(result.exitCode, 3) << result.output;
    EXPECT_NE(result.output.find("resume"), std::string::npos)
        << "interrupted runs should print the resume hint";

    result = run(dir, jobsCmd("status --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const testjson::Value doc = testjson::parse(result.output);
    EXPECT_EQ(doc.at("schema").asString(), "acdse-jobs-status-v1");
    EXPECT_EQ(doc.at("jobs").at("total").asNumber(), 9.0);
    EXPECT_EQ(doc.at("jobs").at("done").asNumber(), 2.0);
    EXPECT_FALSE(doc.at("drained").boolean);
    EXPECT_FALSE(doc.at("stuck").boolean);
    for (const char *kind :
         {"simulate-shard", "train-program", "fit-responses"}) {
        EXPECT_TRUE(doc.at("kinds").has(kind)) << kind;
    }
    EXPECT_EQ(doc.at("states").array.size(), 9u);

    result = run(dir, jobsCmd("resume --dir . --workers 2"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    result = run(dir, jobsCmd("status --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_TRUE(testjson::parse(result.output).at("drained").boolean);
}

TEST(CliJobServer, RejectsBadFlags)
{
    const fs::path dir = freshDir("acdse_cli_jobs_badflag");
    const std::string tool = ACDSE_TOOL_JOBS;
    EXPECT_EQ(run(dir, tool).exitCode, 2);
    EXPECT_EQ(run(dir, tool + " frobnicate").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " run --bogus").exitCode, 2);
    EXPECT_EQ(run(dir, tool + " run --workers").exitCode, 2);
    // fatal() paths exit 1: unparsable count, zero workers, unknown
    // benchmark program.
    EXPECT_EQ(run(dir, tool + " run --workers nope").exitCode, 1);
    EXPECT_EQ(run(dir, tool + " run --workers 0").exitCode, 1);
    EXPECT_EQ(
        run(dir, jobsCmd("run --dir . --programs not-a-benchmark"))
            .exitCode,
        1);
    // resume/status with no plan in the directory: typed error.
    const RunResult result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("no job plan"), std::string::npos);
}

TEST(CliJobServer, RejectsCorruptJournal)
{
    const fs::path dir = freshDir("acdse_cli_jobs_corrupt");
    RunResult result = run(
        dir, "ACDSE_JOBS_KILL_AFTER=0:1 " +
                 jobsCmd(std::string(kJobsRunArgs) + " --workers 1"));
    ASSERT_EQ(result.exitCode, 3) << result.output;

    fs::path journal;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().ends_with(".journal"))
            journal = entry.path();
    }
    ASSERT_FALSE(journal.empty());
    std::string bytes;
    {
        std::ifstream in(journal, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        bytes = text.str();
    }
    bytes[bytes.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(bytes[bytes.size() / 2]) ^ 0x01u);
    {
        std::ofstream out(journal, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("error"), std::string::npos);
    result = run(dir, jobsCmd("resume --dir ."));
    EXPECT_EQ(result.exitCode, 1);
}

} // namespace
} // namespace acdse
