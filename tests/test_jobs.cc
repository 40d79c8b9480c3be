/**
 * @file
 * Unit and property tests for the job system substrate: the
 * checksummed journal (base/journal.hh), the journal-backed queue
 * state machine (jobs/job_queue.hh) and the campaign job plan
 * (jobs/campaign_jobs.hh).
 *
 * The journal corruption sweeps mirror test_model_store: every
 * truncation point and every sampled bit flip of an encoded journal
 * must yield either a verified *prefix* of the original records or a
 * typed JournalError -- never a silently different replay.
 *
 * The concurrency suite is the exactly-once property: any number of
 * JobQueue handles (one per thread here, one per process in the crash
 * suite) draining one journal execute every job exactly once per
 * successful attempt. These suites are in the PR TSan gate (the
 * `|Jobs` regex in CI), so they must stay sleep-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/binary_io.hh"
#include "base/journal.hh"
#include "core/campaign.hh"
#include "jobs/campaign_jobs.hh"
#include "jobs/job_queue.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;
using jobs::CampaignJobPlan;
using jobs::ClaimResult;
using jobs::JobError;
using jobs::JobQueue;
using jobs::JobSpec;
using jobs::JobState;
using jobs::QueueSnapshot;

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

// ---------------------------------------------------------------------
// JobsJournal
// ---------------------------------------------------------------------

TEST(JobsJournal, AppendReplayRoundTrip)
{
    const fs::path dir = freshDir("acdse_jobs_journal_rt");
    Journal journal((dir / "j.journal").string());
    EXPECT_FALSE(journal.exists());
    EXPECT_TRUE(journal.replay().records.empty()); // missing = empty

    journal.append({"plan", "abc123"});
    journal.append({"job", "sim0", "simulate-shard", "0", "0"});
    journal.append({"gen", "1"});
    EXPECT_TRUE(journal.exists());

    const JournalReplay replay = journal.replay();
    EXPECT_FALSE(replay.tornTail);
    ASSERT_EQ(replay.records.size(), 3u);
    EXPECT_EQ(replay.records[0],
              (std::vector<std::string>{"plan", "abc123"}));
    EXPECT_EQ(replay.records[1],
              (std::vector<std::string>{"job", "sim0",
                                        "simulate-shard", "0", "0"}));
    EXPECT_EQ(replay.records[2],
              (std::vector<std::string>{"gen", "1"}));
}

TEST(JobsJournal, TornTailIsDroppedAndRepairable)
{
    const fs::path dir = freshDir("acdse_jobs_journal_torn");
    const fs::path path = dir / "j.journal";
    Journal journal(path.string());
    journal.append({"plan", "abc"});
    journal.append({"done", "sim0"});

    // Simulate a writer SIGKILL'd mid-append: valid lines plus a
    // partial one, no trailing newline.
    const std::string full = readBytes(path);
    const std::string partial =
        Journal::formatRecord({"done", "sim1"}).substr(0, 9);
    {
        std::ofstream out(path, // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::app);
        out << partial;
    }

    JournalReplay replay = journal.replay();
    EXPECT_TRUE(replay.tornTail);
    ASSERT_EQ(replay.records.size(), 2u);
    EXPECT_EQ(replay.validBytes, full.size());

    // repair() truncates the tail so a fresh append cannot splice
    // onto partial bytes.
    journal.repair(replay);
    journal.append({"done", "sim2"});
    replay = journal.replay();
    EXPECT_FALSE(replay.tornTail);
    ASSERT_EQ(replay.records.size(), 3u);
    EXPECT_EQ(replay.records[2],
              (std::vector<std::string>{"done", "sim2"}));
}

TEST(JobsJournal, DamagedInteriorLinesAreTypedErrors)
{
    const std::string good = Journal::formatRecord({"done", "sim0"});
    // A record with a valid-looking shape but a wrong checksum.
    std::string wrongCrc = good;
    wrongCrc[wrongCrc.size() - 2] =
        wrongCrc[wrongCrc.size() - 2] == '0' ? '1' : '0';
    EXPECT_THROW(Journal::decode(wrongCrc), JournalError);
    // Not hex at all.
    EXPECT_THROW(Journal::decode("J1,done,sim0,zzzz\n"), JournalError);
    // No checksum separator.
    EXPECT_THROW(Journal::decode("J1donesim0\n"), JournalError);
    // Wrong magic with a checksum that matches its content: decode
    // must still reject the record type.
    std::string content = "J2,done,sim0";
    char crc[17];
    std::snprintf(crc, sizeof(crc), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(content)));
    EXPECT_THROW(Journal::decode(content + "," + crc + "\n"),
                 JournalError);
}

/**
 * Build a representative journal image: the record mix a real
 * campaign run leaves behind.
 */
std::string
recordedJournalImage()
{
    std::string bytes;
    bytes += Journal::formatRecord({"plan", "00ff00ff00ff00ff"});
    bytes += Journal::formatRecord(
        {"job", "sim0", "simulate-shard", "0", "0"});
    bytes += Journal::formatRecord(
        {"job", "train_gzip_m0", "train-program", "1", "gzip:0"});
    bytes += Journal::formatRecord(
        {"job", "fit_m0", "fit-responses", "2", "0"});
    bytes += Journal::formatRecord({"gen", "1"});
    bytes += Journal::formatRecord({"start", "sim0", "1", "1"});
    bytes += Journal::formatRecord({"fail", "sim0"});
    bytes += Journal::formatRecord({"start", "sim0", "1", "2"});
    bytes += Journal::formatRecord({"done", "sim0"});
    bytes += Journal::formatRecord({"gen", "2"});
    bytes += Journal::formatRecord({"start", "train_gzip_m0", "2", "1"});
    return bytes;
}

/** Whether @p got is a prefix of the reference record list. */
testing::AssertionResult
isRecordPrefix(const std::vector<std::vector<std::string>> &reference,
               const std::vector<std::vector<std::string>> &got)
{
    if (got.size() > reference.size())
        return testing::AssertionFailure()
               << "replay has " << got.size() << " records, original "
               << reference.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != reference[i])
            return testing::AssertionFailure()
                   << "record " << i << " differs from the original";
    }
    return testing::AssertionSuccess();
}

TEST(JobsJournal, EveryTruncationReplaysAVerifiedPrefix)
{
    const std::string bytes = recordedJournalImage();
    const auto reference = Journal::decode(bytes).records;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const JournalReplay replay =
            Journal::decode(std::string_view(bytes).substr(0, cut));
        EXPECT_TRUE(isRecordPrefix(reference, replay.records))
            << "at truncation " << cut;
        // A cut mid-line leaves partial bytes and must be flagged as
        // a torn tail; a cut at a record boundary just looks like a
        // shorter (complete) journal.
        EXPECT_EQ(replay.tornTail, replay.validBytes < cut)
            << "at truncation " << cut;
        EXPECT_LE(replay.validBytes, cut);
    }
}

TEST(JobsJournal, EveryBitFlipIsPrefixOrTypedError)
{
    const std::string bytes = recordedJournalImage();
    const auto reference = Journal::decode(bytes).records;
    // Every byte, a sample of bit positions (the sweep over all eight
    // bits triples the runtime for no new failure modes).
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        for (const unsigned bit : {0u, 3u, 7u}) {
            std::string flipped = bytes;
            flipped[pos] = static_cast<char>(
                static_cast<unsigned char>(flipped[pos]) ^ (1u << bit));
            try {
                const JournalReplay replay = Journal::decode(flipped);
                // Accepted: every surviving record must be verbatim
                // from the original -- a flip may only cost a suffix
                // (by turning a byte into/away from a newline), never
                // alter a record silently.
                EXPECT_TRUE(isRecordPrefix(reference, replay.records))
                    << "flip at byte " << pos << " bit " << bit;
            } catch (const JournalError &) {
                // Typed rejection is the other acceptable outcome.
            }
        }
    }
}

// ---------------------------------------------------------------------
// JobsQueue
// ---------------------------------------------------------------------

std::vector<JobSpec>
threePhaseJobs()
{
    return {
        {"sim0", "simulate-shard", 0, "0"},
        {"sim1", "simulate-shard", 0, "1"},
        {"train0", "train-program", 1, "gzip:0"},
        {"fit0", "fit-responses", 2, "0"},
    };
}

TEST(JobsQueue, PhaseBarrierOrdersClaims)
{
    const fs::path dir = freshDir("acdse_jobs_queue_phase");
    JobQueue queue(dir.string(), "q");
    EXPECT_EQ(queue.open("hash1", threePhaseJobs()), 1u);

    JobSpec job;
    int attempt = 0;
    ASSERT_EQ(queue.claim(job, attempt), ClaimResult::Claimed);
    EXPECT_EQ(job.id, "sim0");
    EXPECT_EQ(attempt, 1);
    ASSERT_EQ(queue.claim(job, attempt), ClaimResult::Claimed);
    EXPECT_EQ(job.id, "sim1");

    // Phase 1 must wait for the running phase-0 jobs.
    EXPECT_EQ(queue.claim(job, attempt), ClaimResult::Wait);
    queue.complete("sim0");
    EXPECT_EQ(queue.claim(job, attempt), ClaimResult::Wait);
    queue.complete("sim1");

    ASSERT_EQ(queue.claim(job, attempt), ClaimResult::Claimed);
    EXPECT_EQ(job.id, "train0");
    queue.complete("train0");
    ASSERT_EQ(queue.claim(job, attempt), ClaimResult::Claimed);
    EXPECT_EQ(job.id, "fit0");
    queue.complete("fit0");
    EXPECT_EQ(queue.claim(job, attempt), ClaimResult::Drained);

    const QueueSnapshot snap = queue.snapshot();
    EXPECT_TRUE(snap.drained());
    EXPECT_FALSE(snap.stuck());
    EXPECT_EQ(snap.planHash, "hash1");
}

TEST(JobsQueue, RetriesUntilPermanentFailure)
{
    const fs::path dir = freshDir("acdse_jobs_queue_retry");
    JobQueue queue(dir.string(), "q");
    queue.open("h", {{"solo", "simulate-shard", 0, "0"}});

    JobSpec job;
    int attempt = 0;
    for (int expected = 1; expected <= JobQueue::kMaxAttempts;
         ++expected) {
        ASSERT_EQ(queue.claim(job, attempt), ClaimResult::Claimed);
        EXPECT_EQ(attempt, expected);
        queue.fail("solo");
    }
    EXPECT_EQ(queue.claim(job, attempt), ClaimResult::Stuck);
    const QueueSnapshot snap = queue.snapshot();
    EXPECT_TRUE(snap.stuck());
    ASSERT_EQ(snap.jobs.size(), 1u);
    EXPECT_EQ(snap.jobs[0].state, JobState::Failed);
    EXPECT_EQ(snap.jobs[0].attempts, JobQueue::kMaxAttempts);
}

TEST(JobsQueue, ResumeReclaimsAbandonedJobs)
{
    const fs::path dir = freshDir("acdse_jobs_queue_abandon");
    const auto jobs = threePhaseJobs();
    JobSpec job;
    int attempt = 0;
    {
        JobQueue session1(dir.string(), "q");
        EXPECT_EQ(session1.open("h", jobs), 1u);
        ASSERT_EQ(session1.claim(job, attempt), ClaimResult::Claimed);
        EXPECT_EQ(job.id, "sim0");
        // The session dies here without completing sim0.
    }
    JobQueue session2(dir.string(), "q");
    EXPECT_EQ(session2.open("h", jobs), 2u);
    // sim0 is Running at generation 1 < 2: abandoned, so the new
    // session reclaims it first (claim scans in plan order).
    ASSERT_EQ(session2.claim(job, attempt), ClaimResult::Claimed)
        << "running-at-older-generation job must be reclaimable";
    EXPECT_EQ(job.id, "sim0");
    EXPECT_EQ(attempt, 2);
    ASSERT_EQ(session2.claim(job, attempt), ClaimResult::Claimed);
    EXPECT_EQ(job.id, "sim1");
    EXPECT_EQ(attempt, 1);
}

TEST(JobsQueue, RejectsForeignPlansAndJobSets)
{
    const fs::path dir = freshDir("acdse_jobs_queue_foreign");
    JobQueue queue(dir.string(), "q");
    queue.open("hash1", threePhaseJobs());

    JobQueue other(dir.string(), "q");
    EXPECT_THROW(other.open("hash2", threePhaseJobs()), JournalError);
    auto fewer = threePhaseJobs();
    fewer.pop_back();
    EXPECT_THROW(other.open("hash1", fewer), JournalError);
    EXPECT_THROW(other.attach("hash2"), JournalError);
    EXPECT_NO_THROW(other.attach("hash1"));
}

TEST(JobsQueue, SnapshotIsReadOnly)
{
    const fs::path dir = freshDir("acdse_jobs_queue_snapshot");
    JobQueue queue(dir.string(), "q");
    queue.open("h", threePhaseJobs());
    const std::string before =
        readBytes(fs::path(queue.journalPath()));
    const QueueSnapshot snap = queue.snapshot();
    EXPECT_EQ(snap.generation, 1u);
    EXPECT_EQ(readBytes(fs::path(queue.journalPath())), before);
}

// ---------------------------------------------------------------------
// JobsConcurrency: the exactly-once property
// ---------------------------------------------------------------------

TEST(JobsConcurrency, EveryJobExecutesExactlyOnce)
{
    const fs::path dir = freshDir("acdse_jobs_conc_once");
    constexpr std::size_t kJobs = 48;
    constexpr std::size_t kThreads = 4;
    std::vector<JobSpec> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
        jobs.push_back({"job" + std::to_string(j), "simulate-shard",
                        j / 24, std::to_string(j)});
    }
    {
        JobQueue opener(dir.string(), "q");
        opener.open("h", jobs);
    }

    std::vector<std::atomic<int>> executions(kJobs);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&dir, &executions] {
            // Each worker holds its own queue handle (own lock fd),
            // exactly like a worker process would.
            JobQueue queue(dir.string(), "q");
            queue.attach("h");
            for (;;) {
                JobSpec job;
                int attempt = 0;
                const ClaimResult result = queue.claim(job, attempt);
                if (result == ClaimResult::Drained ||
                    result == ClaimResult::Stuck) {
                    break;
                }
                if (result == ClaimResult::Wait) {
                    std::this_thread::yield();
                    continue;
                }
                executions[std::stoul(job.arg)].fetch_add(1);
                queue.complete(job.id);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(executions[j].load(), 1) << "job " << j;
    JobQueue check(dir.string(), "q");
    EXPECT_TRUE(check.snapshot().drained());
}

TEST(JobsConcurrency, FailedAttemptsRetryWithoutDoubleExecution)
{
    const fs::path dir = freshDir("acdse_jobs_conc_retry");
    constexpr std::size_t kJobs = 30;
    constexpr std::size_t kThreads = 4;
    std::vector<JobSpec> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
        jobs.push_back({"job" + std::to_string(j), "simulate-shard", 0,
                        std::to_string(j)});
    }
    {
        JobQueue opener(dir.string(), "q");
        opener.open("h", jobs);
    }

    // Every third job fails its first attempt; the queue must hand it
    // out exactly once more.
    std::vector<std::atomic<int>> executions(kJobs);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&dir, &executions] {
            JobQueue queue(dir.string(), "q");
            queue.attach("h");
            for (;;) {
                JobSpec job;
                int attempt = 0;
                const ClaimResult result = queue.claim(job, attempt);
                if (result == ClaimResult::Drained ||
                    result == ClaimResult::Stuck) {
                    break;
                }
                if (result == ClaimResult::Wait) {
                    std::this_thread::yield();
                    continue;
                }
                const std::size_t idx = std::stoul(job.arg);
                executions[idx].fetch_add(1);
                if (idx % 3 == 0 && attempt == 1)
                    queue.fail(job.id);
                else
                    queue.complete(job.id);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(executions[j].load(), j % 3 == 0 ? 2 : 1)
            << "job " << j;
    JobQueue check(dir.string(), "q");
    EXPECT_TRUE(check.snapshot().drained());
}

// ---------------------------------------------------------------------
// JobsPlan: the campaign plan, including the cache-key collision fix
// ---------------------------------------------------------------------

CampaignJobPlan
smallPlan(const std::string &dir)
{
    CampaignJobPlan plan;
    plan.programs = {"gzip", "mcf", "vpr"};
    plan.options.numConfigs = 24;
    plan.options.traceLength = 1200;
    plan.options.warmupInstructions = 200;
    plan.options.cacheDir = dir;
    plan.options.quiet = true;
    plan.shardCells = 30;
    plan.trainIdx = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    plan.responseIdx = {12, 13, 14, 15, 16, 17, 18, 19};
    plan.metrics = {0, 1};
    plan.newProgram = "vpr";
    return plan;
}

TEST(JobsPlan, CacheKeySeparatesSeedsAndProgramSets)
{
    // Regression for the shared-ACDSE_CACHE_DIR collision: two
    // campaigns differing only in seed (or only in program set) must
    // key every job-system artifact differently.
    const CampaignJobPlan base = smallPlan(".");
    CampaignJobPlan otherSeed = base;
    otherSeed.options.configSeed += 1;
    CampaignJobPlan otherPrograms = base;
    otherPrograms.programs = {"gzip", "mcf", "twolf"};
    otherPrograms.newProgram = "twolf";

    EXPECT_NE(base.key(), otherSeed.key());
    EXPECT_NE(base.key(), otherPrograms.key());
    EXPECT_NE(base.journalName(), otherSeed.journalName());
    EXPECT_NE(base.planPath(), otherSeed.planPath());
    EXPECT_NE(base.shardPath(0), otherSeed.shardPath(0));
    EXPECT_NE(base.shardPath(0), otherPrograms.shardPath(0));
    EXPECT_NE(base.modelPath("gzip", 0),
              otherSeed.modelPath("gzip", 0));
    EXPECT_NE(base.predictorPath(0), otherSeed.predictorPath(0));
    EXPECT_NE(base.planHash(), otherSeed.planHash());

    // The static helper agrees with Campaign's own idea of the key.
    EXPECT_EQ(base.key(),
              Campaign::cacheKeyFor(base.programs, base.options));
}

TEST(JobsPlan, JobExpansionAndPhases)
{
    const CampaignJobPlan plan = smallPlan(".");
    EXPECT_EQ(plan.numCells(), 72u);
    EXPECT_EQ(plan.numShards(), 3u); // 30 + 30 + 12
    EXPECT_EQ(plan.shardCellsOf(2).size(), 12u);
    EXPECT_EQ(plan.trainPrograms(),
              (std::vector<std::string>{"gzip", "mcf"}));

    const std::vector<JobSpec> jobs = plan.jobs();
    // 3 shards + 2 training programs x 2 metrics + 2 fits.
    ASSERT_EQ(jobs.size(), 9u);
    for (const auto &spec : jobs) {
        if (spec.kind == "simulate-shard")
            EXPECT_EQ(spec.phase, 0u);
        else if (spec.kind == "train-program")
            EXPECT_EQ(spec.phase, 1u);
        else
            EXPECT_EQ(spec.phase, 2u);
    }
}

TEST(JobsPlan, SaveLoadRoundTripRebindsDirectory)
{
    const fs::path dir = freshDir("acdse_jobs_plan_rt");
    const CampaignJobPlan plan = smallPlan(dir.string());
    plan.save();

    const CampaignJobPlan loaded =
        CampaignJobPlan::load(plan.planPath());
    EXPECT_EQ(loaded.programs, plan.programs);
    EXPECT_EQ(loaded.options.numConfigs, plan.options.numConfigs);
    EXPECT_EQ(loaded.options.configSeed, plan.options.configSeed);
    EXPECT_EQ(loaded.trainIdx, plan.trainIdx);
    EXPECT_EQ(loaded.responseIdx, plan.responseIdx);
    EXPECT_EQ(loaded.metrics, plan.metrics);
    EXPECT_EQ(loaded.newProgram, plan.newProgram);
    EXPECT_EQ(loaded.planHash(), plan.planHash());
    EXPECT_EQ(loaded.options.cacheDir, dir.string());

    // A moved run directory keeps working: cacheDir rebinds to the
    // plan's actual location.
    const fs::path moved = freshDir("acdse_jobs_plan_rt_moved");
    fs::copy_file(plan.planPath(),
                  moved / fs::path(plan.planPath()).filename());
    const CampaignJobPlan relocated = CampaignJobPlan::load(
        (moved / fs::path(plan.planPath()).filename()).string());
    EXPECT_EQ(relocated.options.cacheDir, moved.string());
    EXPECT_EQ(relocated.planHash(), plan.planHash());
}

TEST(JobsPlan, LoadRejectsDamagedPlans)
{
    const fs::path dir = freshDir("acdse_jobs_plan_bad");
    const CampaignJobPlan plan = smallPlan(dir.string());
    plan.save();

    EXPECT_THROW(CampaignJobPlan::load((dir / "nope.csv").string()),
                 JobError);

    // Tamper with a parameter: the recorded campaign key no longer
    // matches the recomputed one.
    std::string text = readBytes(fs::path(plan.planPath()));
    const std::string needle = "seed,";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.insert(at + needle.size(), "9");
    const fs::path tampered = dir / "tampered.plan.csv";
    {
        std::ofstream out(tampered, // NOLINT(acdse-atomic-write)
                          std::ios::binary);
        out << text;
    }
    EXPECT_THROW(CampaignJobPlan::load(tampered.string()), JobError);

    CampaignJobPlan invalid = plan;
    invalid.newProgram = "not-a-program";
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.trainIdx = {999};
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.programs = {"vpr"};
    EXPECT_THROW(invalid.validate(), JobError);
}

} // namespace
} // namespace acdse
