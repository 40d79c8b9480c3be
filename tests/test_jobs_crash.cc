/**
 * @file
 * Kill/resume fault-injection suite for the campaign job server,
 * driving real `acdse-jobs` processes as subprocesses.
 *
 * The contract under test: a campaign job run SIGKILL'd at *any*
 * point -- between jobs (ACDSE_JOBS_KILL_AFTER) or inside a simulate
 * job's simulator loop (ACDSE_JOBS_KILL_IN) -- or one whose outputs
 * were damaged afterwards either resumes to artifacts byte-identical
 * to an uninterrupted run, or fails with a typed error. Never a
 * silently different result.
 *
 * Everything is pinned single-threaded with a tiny campaign (24
 * configurations x 3 programs, 1200-instruction traces) so one full
 * 4-job run takes tens of milliseconds; even the kill-at-every-
 * boundary chain stays well inside CI budget.
 *
 * The binary path arrives as the ACDSE_TOOL_JOBS compile definition
 * from tests/CMakeLists.txt. The CrashResume suite name deliberately
 * avoids the `Jobs` substring: these tests run concurrent processes
 * and belong in the regular test job, not the TSan `-R` regex. The
 * JobsThreads suite is in that regex on purpose: it runs one process
 * on a 4-thread pool, so a TSan build checks the pooled simulate and
 * train loops of a real run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "core/program_specific_predictor.hh"
#include "jobs/campaign_jobs.hh"
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
    std::string output; //!< merged stdout+stderr
};

/** sh's exit status for a command that SIGKILL ended. */
constexpr int kKilledExit = 128 + SIGKILL;

/** Run @p command under `sh -c` in @p dir, capturing exit + output. */
RunResult
run(const fs::path &dir, const std::string &command)
{
    const fs::path log = dir / "run.log";
    const std::string wrapped =
        "cd '" + dir.string() + "' && { " + command + " ; } > '" +
        log.string() + "' 2>&1";
    const int status = std::system(wrapped.c_str());
    RunResult result;
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

std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The pinned tiny-campaign invocation every test shares: 3 programs x
 * 24 configs = 72 cells, one simulate job per program and one job
 * that trains and fits -> 4 jobs (3 simulate-shard, 1 train-and-fit).
 * It runs on @p threads pool threads.
 */
std::string
jobsCmd(const std::string &subcommand, int threads = 1)
{
    return "ACDSE_THREADS=" + std::to_string(threads) +
           " ACDSE_CONFIGS=24 ACDSE_TRACE_LEN=1200 ACDSE_WARMUP=200 " +
           ACDSE_TOOL_JOBS + " " + subcommand;
}

constexpr const char *kRunArgs =
    "run --dir . --programs gzip,mcf --target vpr --train 12"
    " --responses 8";

/**
 * Run the shell commands @p a and @p b as two concurrent processes in
 * @p dir, logging to `a.log` and `b.log`. @return their exit statuses.
 */
std::pair<int, int>
runConcurrently(const fs::path &dir, const std::string &a,
                const std::string &b)
{
    const RunResult result = run(
        dir, "{ " + a + " > a.log 2>&1; echo $? > a.code; } & { " + b +
                 " > b.log 2>&1; echo $? > b.code; }; wait");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    const auto code = [&](const char *name) {
        std::ifstream in(dir / name);
        int value = -1;
        in >> value;
        return value;
    };
    return {code("a.code"), code("b.code")};
}

/** Find the single file in @p dir matching prefix/suffix. */
fs::path
findFile(const fs::path &dir, const std::string &prefix,
         const std::string &suffix)
{
    std::vector<fs::path> found;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with(prefix) && name.ends_with(suffix))
            found.push_back(entry.path());
    }
    EXPECT_EQ(found.size(), 1u)
        << prefix << "*" << suffix << " in " << dir;
    return found.empty() ? fs::path() : found.front();
}

/**
 * The uninterrupted reference run, built once per test binary. Every
 * fault-injection test byte-compares against this.
 */
const fs::path &
referenceDir()
{
    static const fs::path dir = [] {
        const fs::path d = freshDir("acdse_crash_reference");
        const RunResult result = run(d, jobsCmd(kRunArgs));
        EXPECT_EQ(result.exitCode, 0) << result.output;
        return d;
    }();
    return dir;
}

/** Flip one bit in the middle of the file at @p path. */
void
flipMiddleBit(const fs::path &path)
{
    std::string bytes = readBytes(path);
    ASSERT_FALSE(bytes.empty()) << path;
    bytes[bytes.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(bytes[bytes.size() / 2]) ^ 0x08u);
    std::ofstream out(path, // NOLINT(acdse-atomic-write)
                      std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Whether @p name is a block of the campaign store. */
bool
isCampaignBlock(const std::string &name)
{
    return name.starts_with("acdse_campaign_") && name.ends_with(".cells");
}

/**
 * Assert the final artifacts in @p got are byte-identical to the
 * reference run: the three campaign blocks and the model artifact,
 * the only sealed files a run writes.
 */
void
expectArtifactsMatchReference(const fs::path &got)
{
    const fs::path &ref = referenceDir();
    std::size_t blocks = 0, artifacts = 0;
    for (const auto &entry : fs::directory_iterator(ref)) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".model_"), std::string::npos)
            << "a run wrote a per-program model file " << name;
        if (isCampaignBlock(name))
            ++blocks;
        else if (name.ends_with(".acdse"))
            ++artifacts;
        else
            continue;
        ASSERT_TRUE(fs::exists(got / name)) << "missing " << name;
        EXPECT_TRUE(readBytes(got / name) == readBytes(entry.path()))
            << name << " differs from the uninterrupted run";
    }
    EXPECT_EQ(blocks, 3u);
    EXPECT_EQ(artifacts, 1u);
}

/** Parse `acdse-jobs status` output for @p dir. */
testjson::Value
statusOf(const fs::path &dir, int expectExit)
{
    const RunResult result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, expectExit) << result.output;
    return testjson::parse(result.output);
}

// ---------------------------------------------------------------------

TEST(CrashResume, InProcessPathMatchesJobServer)
{
    // The job server and the in-process path
    // (Campaign::ensureComputed + trainOffline/fitResponses) must
    // produce byte-identical campaign blocks and model artifact.
    const fs::path inproc = freshDir("acdse_crash_inprocess");
    jobs::CampaignJobPlan plan;
    plan.programs = {"gzip", "mcf", "vpr"};
    plan.options.numConfigs = 24;
    plan.options.traceLength = 1200;
    plan.options.warmupInstructions = 200;
    plan.options.quiet = true;
    plan.options.cacheDir = inproc.string();
    plan.trainSims = 12;
    plan.responses = 8;
    plan.newProgram = "vpr";

    jobs::CampaignJobRunner runner(plan);
    runner.runInProcess();

    const fs::path &ref = referenceDir();
    for (const auto &entry : fs::directory_iterator(ref)) {
        const std::string name = entry.path().filename().string();
        if (!isCampaignBlock(name) && !name.ends_with(".acdse"))
            continue;
        ASSERT_TRUE(fs::exists(inproc / name)) << "missing " << name;
        EXPECT_TRUE(readBytes(inproc / name) ==
                    readBytes(entry.path()))
            << name << " differs between job server and in-process";
    }
}

TEST(CrashResume, KillAtEveryJobBoundary)
{
    // Kill the process after every single job: the run crosses every
    // simulate/training boundary the plan has, one resume per boundary.
    const fs::path dir = freshDir("acdse_crash_boundary");
    const std::string kill = "ACDSE_JOBS_KILL_AFTER=1 ";
    RunResult result = run(dir, kill + jobsCmd(kRunArgs));
    int sessions = 1;
    while (result.exitCode == kKilledExit && sessions < 40) {
        ++sessions;
        result = run(dir, kill + jobsCmd("resume --dir ."));
    }
    ASSERT_EQ(result.exitCode, 0) << result.output;
    // 4 jobs -> 4 killed sessions + 1 that finds every output intact.
    EXPECT_EQ(sessions, 5) << "kill chain length changed";
    expectArtifactsMatchReference(dir);

    const testjson::Value status = statusOf(dir, 0);
    EXPECT_EQ(status.at("schema").asString(), "acdse-jobs-status-v3");
    EXPECT_EQ(status.at("jobs").at("done").asNumber(), 4.0);
    EXPECT_TRUE(status.at("drained").boolean);
}

TEST(CrashResume, KillMidShard)
{
    // SIGKILL inside the simulation loop, 5 cells into mcf's simulate
    // job: the partially simulated program has no block, so resume
    // redoes it from scratch and the artifacts still match bit for bit.
    const fs::path dir = freshDir("acdse_crash_midshard");
    RunResult result =
        run(dir, "ACDSE_JOBS_KILL_IN=sim_mcf@5 " + jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, kKilledExit) << result.output;

    // The dead process's lock died with it: the killed job is pending,
    // not running, and nothing else has started.
    const testjson::Value status = statusOf(dir, 0);
    EXPECT_EQ(status.at("jobs").at("running").asNumber(), 0.0);
    EXPECT_EQ(status.at("jobs").at("done").asNumber(), 1.0);
    bool sawKilled = false;
    for (const auto &job : status.at("states").array) {
        if (job.at("id").asString() == "sim_mcf") {
            EXPECT_EQ(job.at("state").asString(), "pending");
            sawKilled = true;
        }
    }
    EXPECT_TRUE(sawKilled);
    // The interrupted job left no block: atomic rename means the file
    // appears complete or not at all.
    std::size_t blocks = 0;
    bool mcfBlock = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        blocks += isCampaignBlock(name);
        mcfBlock = mcfBlock || name.ends_with(".mcf.cells");
    }
    EXPECT_EQ(blocks, 1u) << "only gzip's job ran to completion";
    EXPECT_FALSE(mcfBlock);

    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

TEST(CrashResume, MultiWorkerKillAndResume)
{
    // Two acdse-jobs processes drain one directory; one dies by SIGKILL
    // after its first computed job, holding that job's lock. The
    // survivor takes over whatever the dead one held or never reached,
    // exits 0, and every output matches the uninterrupted run.
    const fs::path dir = freshDir("acdse_crash_multi");
    const auto [killed, survivor] = runConcurrently(
        dir, "ACDSE_JOBS_KILL_AFTER=1 " + jobsCmd(kRunArgs),
        jobsCmd(std::string(kRunArgs) + " --stats-out b.json"));
    // The survivor may drain every job before the other computes one.
    ASSERT_TRUE(killed == kKilledExit || killed == 0) << killed;
    ASSERT_EQ(survivor, 0) << readBytes(dir / "b.log");
    // It computes every job but the one the dead process stored.
    const testjson::Value stats = testjson::parse(readBytes(dir / "b.json"));
    EXPECT_EQ(stats.at("counters").at("jobs/dispatch").asNumber(),
              killed == 0 ? 4.0 : 3.0);
    expectArtifactsMatchReference(dir);
    EXPECT_TRUE(statusOf(dir, 0).at("drained").boolean);
}

TEST(CrashResume, ConcurrentDrainsComputeEachJobOnce)
{
    // Two live processes on one directory share the work: their
    // jobs/dispatch counters add up to the plan's 4 jobs, so no job is
    // computed twice, and the outputs match the uninterrupted run.
    const fs::path dir = freshDir("acdse_crash_concurrent");
    const auto [a, b] = runConcurrently(
        dir, jobsCmd(std::string(kRunArgs) + " --stats-out a.json"),
        jobsCmd(std::string(kRunArgs) + " --stats-out b.json"));
    ASSERT_EQ(a, 0) << readBytes(dir / "a.log");
    ASSERT_EQ(b, 0) << readBytes(dir / "b.log");
    double dispatched = 0;
    for (const char *name : {"a.json", "b.json"}) {
        const testjson::Value doc =
            testjson::parse(readBytes(dir / name));
        // A process that found every job taken or done registers no
        // jobs/dispatch counter at all.
        if (doc.at("counters").has("jobs/dispatch"))
            dispatched += doc.at("counters").at("jobs/dispatch").asNumber();
    }
    EXPECT_EQ(dispatched, 4.0);
    expectArtifactsMatchReference(dir);
}

TEST(JobsThreads, FourThreadRunMatchesSingleThreadRun)
{
    // The same plan on a 4-thread pool: every campaign block and the
    // artifact are byte-identical to the single-threaded reference.
    const fs::path dir = freshDir("acdse_jobs_threads");
    const RunResult result = run(dir, jobsCmd(kRunArgs, 4));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

/**
 * One record of the job journal an earlier build kept next to the
 * plan: `J1,<fields>,<fnv1a64 of everything before it, hex>`.
 */
std::string
journalRecord(const std::vector<std::string> &fields)
{
    std::string line = "J1";
    for (const std::string &field : fields)
        line += "," + field;
    char crc[17];
    std::snprintf(crc, sizeof(crc), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(line)));
    return line + "," + crc + "\n";
}

TEST(CrashResume, LeftoverJournalIsIgnored)
{
    // A run directory killed part-way that also holds the journal and
    // queue lock an earlier build left there, a journal that records
    // every job as done. The outputs alone say what is done: resume
    // computes the missing ones, leaves the leftovers as they are and
    // ends byte-identical to the uninterrupted run.
    const fs::path dir = freshDir("acdse_crash_leftover_journal");
    RunResult result =
        run(dir, "ACDSE_JOBS_KILL_AFTER=2 " + jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, kKilledExit) << result.output;

    const testjson::Value status = statusOf(dir, 0);
    EXPECT_EQ(status.at("jobs").at("done").asNumber(), 2.0);
    EXPECT_EQ(status.at("jobs").at("pending").asNumber(), 2.0);

    const fs::path plan = findFile(dir, "acdse_jobs_", ".plan.csv");
    std::string base = plan.filename().string();
    base.resize(base.size() - std::string(".plan.csv").size());
    const struct
    {
        const char *id, *kind, *phase, *arg;
    } jobs[] = {{"sim_gzip", "simulate-shard", "0", "gzip"},
                {"sim_mcf", "simulate-shard", "0", "mcf"},
                {"sim_vpr", "simulate-shard", "0", "vpr"},
                {"train_gzip", "train-program", "1", "gzip"},
                {"train_mcf", "train-program", "1", "mcf"},
                {"fit", "fit-responses", "2", "vpr"}};
    std::string journal =
        journalRecord({"plan", status.at("plan").asString()});
    for (const auto &job : jobs)
        journal += journalRecord({"job", job.id, job.kind, job.phase,
                                  job.arg});
    journal += journalRecord({"gen", "1"});
    for (const auto &job : jobs) {
        journal += journalRecord({"start", job.id, "1", "1"});
        journal += journalRecord({"done", job.id});
    }
    {
        std::ofstream out( // NOLINT(acdse-atomic-write)
            dir / (base + ".journal"), std::ios::binary);
        out << journal;
        std::ofstream lock( // NOLINT(acdse-atomic-write)
            dir / (base + ".lock"), std::ios::binary);
    }
    EXPECT_EQ(statusOf(dir, 0).at("jobs").at("done").asNumber(), 2.0)
        << "status must not read the journal";

    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
    EXPECT_EQ(readBytes(dir / (base + ".journal")), journal);
}

TEST(CrashResume, DamagedArtifactIsRecomputed)
{
    // Bit rot in the model artifact of a finished run: the rerun must
    // treat it as not done and rewrite it, never keep the damaged
    // bytes.
    const fs::path dir = freshDir("acdse_crash_bitrot");
    RunResult result = run(dir, jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const fs::path artifact = findFile(dir, "acdse_jobs_", ".acdse");
    flipMiddleBit(artifact);

    result = run(dir, jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);

    // The same damage under resume: every block is intact, and the
    // training job retrains and refits the artifact from them.
    flipMiddleBit(artifact);
    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

TEST(CrashResume, LeftoverModelCheckpointsAreIgnored)
{
    // A directory an earlier build left killed between its per-program
    // training jobs and its fit: every block, one `.model_<prog>.bin`
    // checkpoint per training program and no artifact. The checkpoints
    // are intact in that build's format (sealBytes() under magic
    // ACDSEPGM, version 2, one model per metric) but hold other models
    // than this plan trains, so an artifact fitted on them would
    // differ. Resume trains afresh, ends byte-identical to the
    // uninterrupted run and leaves the leftovers as they are.
    const fs::path dir = freshDir("acdse_crash_leftover_checkpoints");
    RunResult result = run(dir, jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const fs::path artifact = findFile(dir, "acdse_jobs_", ".acdse");
    fs::remove(artifact);

    const std::vector<MicroarchConfig> configs =
        DesignSpace::sampleValidConfigs(12, 7);
    std::vector<double> values;
    for (std::size_t i = 0; i < configs.size(); ++i)
        values.push_back(1000.0 + 10.0 * static_cast<double>(i));
    ProgramSpecificPredictor stale;
    stale.train(configs, values);
    BinaryWriter writer;
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        stale.save(writer);
    const std::string checkpoint =
        sealBytes("ACDSEPGM", 2, writer.buffer());
    std::string base = artifact.filename().string();
    base.resize(base.size() - std::string(".acdse").size());
    for (const char *program : {"gzip", "mcf"}) {
        std::ofstream out( // NOLINT(acdse-atomic-write)
            dir / (base + ".model_" + program + ".bin"),
            std::ios::binary);
        out << checkpoint;
    }

    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
    for (const char *program : {"gzip", "mcf"}) {
        EXPECT_EQ(readBytes(dir / (base + ".model_" + program + ".bin")),
                  checkpoint)
            << program;
    }
}

TEST(CrashResume, DamagedBlockIsRecomputed)
{
    // One cycles cell of a finished run's campaign block plus one,
    // with the artifact lost: the block fails its checksum, so the
    // rerun simulates that program again instead of training on the
    // wrong number, and every block and the artifact match the clean
    // run byte for byte.
    const fs::path dir = freshDir("acdse_crash_block");
    RunResult result = run(dir, jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    const fs::path block = findFile(dir, "acdse_campaign_", ".gzip.cells");
    std::string bytes = readBytes(block);
    // Header (28 bytes), the program name (u64 length + "gzip"), the
    // configuration hash (u64), the cycles vector's length (u64).
    const std::size_t firstCycles = 28 + 8 + 4 + 8 + 8;
    ASSERT_LT(firstCycles + sizeof(double), bytes.size());
    double cycles = 0;
    std::memcpy(&cycles, bytes.data() + firstCycles, sizeof(double));
    ASSERT_GT(cycles, 1.0);
    cycles += 1.0;
    std::memcpy(bytes.data() + firstCycles, &cycles, sizeof(double));
    {
        std::ofstream out(block, // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    fs::remove(findFile(dir, "acdse_jobs_", ".acdse"));

    result = run(dir, jobsCmd(kRunArgs));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);

    // The same damage with every other output intact: resume finds
    // the block damaged and simulates it again.
    {
        std::ofstream out(block, // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    result = run(dir, jobsCmd("resume --dir ."));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

TEST(CrashResume, ParentLayoutIsATypedError)
{
    // Half-run directories laid out by earlier plan formats -- v1 (a
    // key without the numerics fingerprint, unsealed checkpoints), v2
    // (shard CSVs of shard_cells cells) and v3 (one checkpoint per
    // program and metric, index lists) -- must be refused, not resumed
    // into a mix of old and new files.
    const std::string campaign =
        "c24_t1200_w200_sac5e0001_pda5036430e1719a9";
    const std::string fingerprinted = "e2014853f6b53180_" + campaign;
    const struct
    {
        const char *format;
        std::string key;
    } layouts[] = {{"acdse-jobs-plan-v1", campaign},
                   {"acdse-jobs-plan-v2", fingerprinted},
                   {"acdse-jobs-plan-v3", fingerprinted}};
    for (const auto &layout : layouts) {
        const fs::path dir = freshDir(std::string("acdse_crash_") +
                                      layout.format + "_layout");
        {
            std::ofstream plan( // NOLINT(acdse-atomic-write)
                dir / ("acdse_jobs_" + layout.key + ".plan.csv"));
            plan << "key,value\n"
                    "format," << layout.format << "\n"
                    "campaign," << layout.key << "\n"
                    "programs,gzip;mcf;vpr\n"
                    "configs,24\n"
                    "trace_len,1200\n"
                    "warmup,200\n"
                    "seed,2891841537\n"
                    "threads,0\n"
                    "quiet,1\n"
                    "shard_cells,30\n"
                    "train_idx,0;1;2;3;4;5;6;7;8;9;10;11\n"
                    "response_idx,12;13;14;15;16;17;18;19\n"
                    "metrics,0;1\n"
                    "new_program,vpr\n";
        }
        for (const char *command : {"resume --dir .",
                                    "status --dir ."}) {
            const RunResult result = run(dir, jobsCmd(command));
            EXPECT_EQ(result.exitCode, 1)
                << layout.format << " " << command << ": "
                << result.output;
            EXPECT_NE(result.output.find("unsupported format"),
                      std::string::npos)
                << layout.format << " " << command << ": "
                << result.output;
        }
    }
}

} // namespace
} // namespace acdse
