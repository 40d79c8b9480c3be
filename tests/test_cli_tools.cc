/**
 * @file
 * End-to-end tests for the production CLI binaries, driven as real
 * subprocesses: acdse-jobs trains and persists an artifact,
 * acdse-serve serves it and acdse-explore searches with it, and each
 * emits acdse-stats-v1 stats through --stats-out. Also covers the
 * bad-flag and corrupt-artifact error paths (exit codes 2 and 1
 * respectively).
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
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_reader.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;

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
 * Train the small artifact the serve and explore tests share into
 * @p dir as `model.acdse`: an acdse-jobs run over two training
 * programs plus a target, a short synthetic trace, one thread.
 * ~seconds, not minutes.
 */
RunResult
trainModel(const fs::path &dir)
{
    const RunResult result =
        run(dir, std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=56 "
                             "ACDSE_TRACE_LEN=2000 ACDSE_WARMUP=400 ") +
                     ACDSE_TOOL_JOBS +
                     " run --dir . --workers 1 --programs gzip,crafty"
                     " --target vpr --train 24 --responses 16");
    fs::path artifact;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".acdse")
            artifact = entry.path();
    }
    if (!artifact.empty())
        fs::rename(artifact, dir / "model.acdse");
    return result;
}

TEST(CliServe, ServesQueriesAndWritesStats)
{
    const fs::path dir = freshDir("acdse_cli_serve");
    const RunResult trained =
        trainModel(dir);
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

TEST(CliServe, StatsEveryDumpsFromTheInputLoop)
{
    // --stats-every N rewrites --stats-out after every N-th input
    // batch. Feed 3 batches of 2 rows through a pipe that stays open:
    // the tool then waits for input, and its stats file must show
    // exactly the 2 batches the one periodic dump covered. Closing the
    // pipe ends the run, and the exit dump covers all 3.
    const fs::path dir = freshDir("acdse_cli_serve_every");
    const RunResult trained = trainModel(dir);
    ASSERT_EQ(trained.exitCode, 0) << trained.output;

    const fs::path stats = dir / "stats.json";
    const std::string command =
        "cd '" + dir.string() + "' && ACDSE_THREADS=1 " +
        ACDSE_TOOL_SERVE +
        " --model model.acdse --batch 2 --stats-out stats.json"
        " --stats-every 2 > out.csv 2> serve.log";
    FILE *input = ::popen(command.c_str(), "w");
    ASSERT_NE(input, nullptr);
    for (int row = 0; row < 6; ++row)
        std::fputs("4,96,32,24,80,8,4,16,4,16,32,32,2048\n", input);
    std::fflush(input);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!fs::exists(stats) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(stats)) << "no periodic dump";
    const testjson::Value periodic = parseFile(stats);
    EXPECT_EQ(periodic.at("counters").at("serve/points").asNumber(),
              4.0);
    EXPECT_EQ(
        periodic.at("stages").at("serve/batch").at("count").asNumber(),
        2.0);

    const int status = ::pclose(input);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "acdse-serve exit status " << status;
    const testjson::Value atExit = parseFile(stats);
    EXPECT_EQ(atExit.at("counters").at("serve/points").asNumber(), 6.0);
    EXPECT_EQ(
        atExit.at("stages").at("serve/batch").at("count").asNumber(),
        3.0);
}

TEST(CliServe, AsyncStatsReportTheDrains)
{
    const fs::path dir = freshDir("acdse_cli_serve_async");
    const RunResult trained =
        trainModel(dir);
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
    const RunResult trained = trainModel(dir);
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
    const RunResult trained = trainModel(dir);
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
    // A --fix value outside int is refused as such, before the model
    // is read, not truncated: 2^32 + 2 would wrap to width 2.
    for (const char *value : {"4294967298", "-4294967294"}) {
        const RunResult wide =
            run(dir, base + " --fix width=" + value);
        EXPECT_EQ(wide.exitCode, 1) << value;
        EXPECT_NE(wide.output.find("is not a legal value for Width"),
                  std::string::npos)
            << value << ": " << wide.output;
    }
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
 * The pinned tiny acdse-jobs invocation (6 jobs: 3 simulate jobs, one
 * per program, 2 training jobs, one per training program, 1 fit).
 * Deeper fault-injection coverage -- kill matrices, damaged outputs,
 * bit-identity against a reference run --
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
    " --train 12 --responses 8";

TEST(CliJobServer, RunProducesArtifactsAndStats)
{
    const fs::path dir = freshDir("acdse_cli_jobs_run");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs) +
                         " --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;

    std::size_t plans = 0, locks = 0, blocks = 0, artifacts = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        plans += name.ends_with(".plan.csv");
        locks += name.ends_with(".lock");
        blocks += name.starts_with("acdse_campaign_") &&
                  name.ends_with(".cells");
        artifacts += name.ends_with(".acdse");
    }
    EXPECT_EQ(plans, 1u);
    EXPECT_EQ(locks, 6u); // one per job
    EXPECT_EQ(blocks, 3u);
    EXPECT_EQ(artifacts, 1u);

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
    EXPECT_EQ(dispatched, 6.0);
}

TEST(CliJobServer, TrainingRunReportsHeldOutAndStats)
{
    // A training run ends with every metric's response training error
    // and the target's error over the held-out configurations
    // [T+R, N) = [20, 24). Single-threaded with one worker, each
    // process's stage self times sum to at most the run's wall time.
    const fs::path dir = freshDir("acdse_cli_jobs_report");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs) +
                         " --workers 1 --stats-out stats.json"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    for (const char *metric : {"cycles ", "energy ", "ED ", "EDD "}) {
        EXPECT_NE(result.output.find(std::string("trained ") + metric),
                  std::string::npos)
            << metric << result.output;
    }
    EXPECT_NE(result.output.find("response training error"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("held-out 4 points: cycles rmae"),
              std::string::npos)
        << result.output;

    for (const char *name : {"stats.json", "stats.json.worker0"}) {
        ASSERT_TRUE(fs::exists(dir / name)) << name;
        const testjson::Value doc = parseFile(dir / name);
        EXPECT_EQ(doc.at("schema").asString(), "acdse-stats-v1");
        const testjson::Value &stages = doc.at("stages");
        EXPECT_GE(stages.at("jobs/execute").at("count").asNumber(), 6.0)
            << name;
        double selfSumMs = 0.0;
        for (const auto &[path, stage] : stages.object) {
            const double self = stage.at("self_ms").asNumber();
            EXPECT_GE(self, 0.0) << name << " " << path;
            EXPECT_LE(self, stage.at("total_ms").asNumber() + 1e-9)
                << name << " " << path;
            selfSumMs += self;
        }
        EXPECT_LE(selfSumMs, result.wallSeconds * 1000.0) << name;
    }
    // The worker simulated, trained and fitted; its stats say so: one
    // train/program/<i> stage per training program, spanned once per
    // metric, and one fit per metric.
    const testjson::Value worker = parseFile(dir / "stats.json.worker0");
    const testjson::Value &stages = worker.at("stages");
    EXPECT_GT(stages.at("campaign/fill").at("total_ms").asNumber(), 0.0);
    std::size_t trainProgramStages = 0;
    for (const auto &[path, stage] : stages.object) {
        if (path.starts_with("train/program/")) {
            ++trainProgramStages;
            EXPECT_EQ(stage.at("count").asNumber(), 4.0) << path;
            EXPECT_GT(stage.at("total_ms").asNumber(), 0.0) << path;
        }
    }
    EXPECT_EQ(trainProgramStages, 2u);
    EXPECT_EQ(stages.at("fit/responses").at("count").asNumber(), 4.0);
}

TEST(CliJobServer, ArtifactServesAndExplores)
{
    // The job server's end product is an ordinary model artifact:
    // acdse-serve and acdse-explore load it as is. A per-program
    // checkpoint is framed under another magic, so handing one to
    // acdse-serve is a clean "bad magic" error, not a misparse.
    const fs::path dir = freshDir("acdse_cli_jobs_serve");
    const RunResult result =
        run(dir, jobsCmd(std::string(kJobsRunArgs)));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    std::string artifact, checkpoint;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.ends_with(".acdse"))
            artifact = name;
        if (name.ends_with(".model_gzip.bin"))
            checkpoint = name;
    }
    ASSERT_FALSE(artifact.empty());
    ASSERT_FALSE(checkpoint.empty());
    EXPECT_NE(result.output.find(artifact), std::string::npos)
        << result.output;

    {
        std::ofstream queries(dir / "queries.csv");
        queries << "4,96,32,24,80,8,4,16,4,16,32,32,2048\n";
        queries << "8,160,64,48,128,16,8,32,2,24,64,64,4096\n";
    }
    const std::string serve = std::string("ACDSE_THREADS=1 ") +
                              ACDSE_TOOL_SERVE + " --input queries.csv";
    const RunResult served =
        run(dir, serve + " --model " + artifact + " > out.csv");
    ASSERT_EQ(served.exitCode, 0) << served.output;
    std::ifstream out(dir / "out.csv");
    std::string header;
    std::getline(out, header);
    EXPECT_TRUE(header.ends_with(",cycles,energy,ED,EDD")) << header;

    const RunResult explored =
        run(dir, std::string(ACDSE_TOOL_EXPLORE) + " --model " +
                     artifact + " --samples 500 --topk 2 --threads 1");
    ASSERT_EQ(explored.exitCode, 0) << explored.output;
    EXPECT_TRUE(fs::exists(dir / "frontier.csv"));

    const RunResult refused =
        run(dir, serve + " --model " + checkpoint + " > /dev/null");
    EXPECT_EQ(refused.exitCode, 1);
    EXPECT_NE(refused.output.find("bad magic"), std::string::npos)
        << refused.output;
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
    EXPECT_EQ(doc.at("schema").asString(), "acdse-jobs-status-v2");
    EXPECT_EQ(doc.at("jobs").at("total").asNumber(), 6.0);
    EXPECT_EQ(doc.at("jobs").at("done").asNumber(), 2.0);
    EXPECT_EQ(doc.at("jobs").at("pending").asNumber(), 4.0);
    EXPECT_EQ(doc.at("jobs").at("running").asNumber(), 0.0);
    EXPECT_FALSE(doc.at("drained").boolean);
    // The state comes from the files alone: no journal generation,
    // attempt count or stuck flag.
    for (const char *gone : {"generation", "failed", "stuck"}) {
        EXPECT_FALSE(doc.has(gone)) << gone;
        EXPECT_FALSE(doc.at("jobs").has(gone)) << gone;
    }
    for (const char *kind :
         {"simulate-shard", "train-program", "fit-responses"}) {
        EXPECT_TRUE(doc.at("kinds").has(kind)) << kind;
    }
    EXPECT_EQ(doc.at("states").array.size(), 6u);

    result = run(dir, jobsCmd("resume --dir . --workers 2"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    result = run(dir, jobsCmd("status --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_TRUE(testjson::parse(result.output).at("drained").boolean);
}

TEST(CliJobServer, ResumeTakesVerbosityFromItsFlag)
{
    // A run killed before its first job leaves every simulation to
    // the resumes. A quiet resume (killed after gzip's job) reports no
    // campaign progress, and `resume --verbose` reports it for the
    // jobs it runs, whatever the first run's verbosity was.
    const fs::path dir = freshDir("acdse_cli_jobs_verbose");
    RunResult result = run(
        dir, "ACDSE_JOBS_KILL_AFTER=0:0 " +
                 jobsCmd(std::string(kJobsRunArgs) + " --verbose"
                                                     " --workers 1"));
    ASSERT_EQ(result.exitCode, 3) << result.output;

    result = run(dir, "ACDSE_JOBS_KILL_AFTER=0:1 " +
                          jobsCmd("resume --dir . --workers 1"));
    ASSERT_EQ(result.exitCode, 3) << result.output;
    EXPECT_EQ(result.output.find("simulations done"), std::string::npos)
        << result.output;

    result = run(dir, jobsCmd("resume --dir . --workers 1 --verbose"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("info: campaign: 24/24 simulations done"),
              std::string::npos)
        << result.output;
}

TEST(CliJobServer, VerboseProgressCountsUp)
{
    // Pool threads reach their progress lines in any order, the more
    // so with more threads than cores and a pipe reader competing for
    // them; the lines of a simulate job must still count up, and the
    // last one reports every cell.
    const fs::path dir = freshDir("acdse_cli_jobs_progress");
    const RunResult result =
        run(dir, std::string("ACDSE_THREADS=8 ACDSE_CONFIGS=400 "
                             "ACDSE_TRACE_LEN=300 ACDSE_WARMUP=50 ") +
                     ACDSE_TOOL_JOBS +
                     " run --dir . --workers 1 --sim-only --programs gzip"
                     " --verbose 2>&1 | cat");
    // The exit code is cat's; the final 400/400 line shows the run
    // finished.
    ASSERT_EQ(result.exitCode, 0) << result.output;
    std::istringstream log(result.output);
    const std::string prefix = "info: campaign: ";
    std::vector<std::size_t> counts;
    for (std::string line; std::getline(log, line);) {
        if (line.starts_with(prefix) &&
            line.ends_with("/400 simulations done"))
            counts.push_back(std::stoul(line.substr(prefix.size())));
    }
    ASSERT_FALSE(counts.empty()) << result.output;
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_LT(counts[i - 1], counts[i]) << result.output;
    EXPECT_EQ(counts.back(), 400u) << result.output;
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

TEST(CliJobServer, RejectsUnknownFlag)
{
    // An unknown flag of any subcommand exits 2 with the usage text.
    const fs::path dir = freshDir("acdse_cli_jobs_unknownflag");
    const std::string tool = ACDSE_TOOL_JOBS;
    for (const char *subcommand : {"run", "resume", "status"}) {
        const RunResult result =
            run(dir, tool + " " + subcommand + " --no-such-flag");
        EXPECT_EQ(result.exitCode, 2) << subcommand;
        EXPECT_NE(result.output.find("usage:"), std::string::npos)
            << subcommand << result.output;
    }
}

TEST(CliJobServer, RejectsBadValues)
{
    // fatal() paths exit 1: an unparsable R, zero T, and T+R beyond
    // the campaign's N = 24 configurations.
    const fs::path dir = freshDir("acdse_cli_jobs_badvalue");
    const std::string tool = ACDSE_TOOL_JOBS;
    EXPECT_EQ(run(dir, tool + " run --responses nope").exitCode, 1);
    EXPECT_EQ(run(dir, jobsCmd("run --dir . --train 0")).exitCode, 1);
    EXPECT_EQ(run(dir, jobsCmd("run --dir . --train 20 --responses 8"))
                  .exitCode,
              1);
}

} // namespace
} // namespace acdse
