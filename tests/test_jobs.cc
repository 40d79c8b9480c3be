/**
 * @file
 * Unit and property tests for the job system: the advisory file lock
 * (base/file_lock.hh), the per-job-lock drain (jobs/drain.hh) and the
 * campaign job plan (jobs/campaign_jobs.hh).
 *
 * The drain suites are the exactly-once property over fake jobs: any
 * number of concurrent drains (one per thread here, one per process
 * in the crash suite) run every job once, phase by phase, and rerun a
 * job whose holder let go of it without writing its output. These
 * suites are in the PR TSan gate (the `|Jobs` regex in CI), so they
 * must stay sleep-free.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/file_lock.hh"
#include "core/campaign.hh"
#include "jobs/campaign_jobs.hh"
#include "jobs/drain.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;
using jobs::CampaignJobPlan;
using jobs::drainJobs;
using jobs::JobError;
using jobs::JobSpec;

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

/** Whether @p lock's tryLock() wins; a won lock is released again. */
bool
tryOnce(FileLock &lock)
{
    if (lock.tryLock()) {
        lock.unlock();
        return true;
    }
    return false;
}

/**
 * Holds a lock file's flock on a descriptor of its own until release()
 * closes that descriptor without unlocking, as a dying process does.
 */
class LockHolder
{
  public:
    explicit LockHolder(const std::string &path)
        : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644))
    {
        EXPECT_GE(fd_, 0) << path;
        EXPECT_EQ(::flock(fd_, LOCK_EX), 0) << path;
    }

    ~LockHolder() { release(); }

    LockHolder(const LockHolder &) = delete;
    LockHolder &operator=(const LockHolder &) = delete;

    void release()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    int fd_ = -1;
};

// ---------------------------------------------------------------------
// FileLock
// ---------------------------------------------------------------------

TEST(FileLock, TryLockFailsWhileAnotherDescriptorHoldsIt)
{
    const std::string path =
        (freshDir("acdse_filelock_held") / "x.lock").string();
    FileLock first(path);
    FileLock second(path);
    first.lock();
    EXPECT_FALSE(tryOnce(second));
    first.unlock();
}

TEST(FileLock, TryLockSucceedsAfterUnlock)
{
    const std::string path =
        (freshDir("acdse_filelock_unlock") / "x.lock").string();
    FileLock first(path);
    FileLock second(path);
    first.lock();
    first.unlock();
    EXPECT_TRUE(tryOnce(second));
    // The lock is free again for the first descriptor too.
    EXPECT_TRUE(tryOnce(first));
}

TEST(FileLock, TryLockSucceedsAfterHolderCloses)
{
    const std::string path =
        (freshDir("acdse_filelock_close") / "x.lock").string();
    LockHolder holder(path);
    FileLock probe(path);
    EXPECT_FALSE(tryOnce(probe));
    holder.release();
    EXPECT_TRUE(tryOnce(probe));
}

// ---------------------------------------------------------------------
// JobsDrain: exactly-once, phase by phase, over fake jobs
// ---------------------------------------------------------------------

/** @p count jobs `job<j>` with argument j, @p perPhase to a phase. */
std::vector<JobSpec>
fakeJobs(std::size_t count, std::size_t perPhase)
{
    std::vector<JobSpec> out;
    for (std::size_t j = 0; j < count; ++j) {
        out.push_back({"job" + std::to_string(j), "fake", j / perPhase,
                       std::to_string(j)});
    }
    return out;
}

TEST(JobsDrain, EveryJobRunsExactlyOncePhaseByPhase)
{
    const fs::path dir = freshDir("acdse_jobs_drain_once");
    constexpr std::size_t kJobs = 48;
    constexpr std::size_t kPerPhase = 24;
    constexpr std::size_t kThreads = 4;
    const std::vector<JobSpec> specs = fakeJobs(kJobs, kPerPhase);
    const std::string prefix = (dir / "q").string();

    // A job's "output" is its execution count: intact once non-zero.
    std::vector<std::atomic<int>> executions(kJobs);
    std::atomic<std::size_t> phase0Done{0};
    std::atomic<bool> phase1Early{false};
    const jobs::JobExecutor execute = [&](const JobSpec &spec) {
        const std::size_t j = std::stoul(spec.arg);
        if (executions[j].load() > 0)
            return false;
        if (spec.phase == 1 && phase0Done.load() != kPerPhase)
            phase1Early.store(true);
        executions[j].fetch_add(1);
        if (spec.phase == 0)
            phase0Done.fetch_add(1);
        return true;
    };

    std::vector<std::size_t> computed(kThreads, 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        // Each drain opens its own lock descriptors, exactly like a
        // worker process would.
        workers.emplace_back([&, t] {
            computed[t] = drainJobs(specs, prefix, execute);
        });
    }
    for (auto &worker : workers)
        worker.join();

    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(executions[j].load(), 1) << "job " << j;
    EXPECT_FALSE(phase1Early.load())
        << "a phase-1 job started before phase 0 was done";
    std::size_t total = 0;
    for (const std::size_t n : computed)
        total += n;
    EXPECT_EQ(total, kJobs) << "drains counted jobs they found intact";

    // A drain over intact outputs computes, and counts, nothing.
    EXPECT_EQ(drainJobs(specs, prefix, execute), 0u);
    for (std::size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(executions[j].load(), 1) << "job " << j;
}

TEST(JobsDrain, JobReleasedWithoutOutputIsRerun)
{
    // A holder takes job a's lock and lets go of it (its descriptor
    // closes, as when its process dies) without writing a's output,
    // while the drain is computing b. Pass 1 skipped a as held; pass 2
    // must take its lock and compute it before phase 1's c.
    const fs::path dir = freshDir("acdse_jobs_drain_released");
    const std::string prefix = (dir / "q").string();
    const std::vector<JobSpec> specs = {{"a", "fake", 0, "0"},
                                        {"b", "fake", 0, "1"},
                                        {"c", "fake", 1, "2"}};
    LockHolder holder(jobs::jobLockPath(prefix, specs[0]));

    std::vector<std::string> order;
    const jobs::JobExecutor execute = [&](const JobSpec &spec) {
        for (const std::string &id : order) {
            if (id == spec.id)
                return false; // intact
        }
        if (spec.id == "b")
            holder.release();
        order.push_back(spec.id);
        return true;
    };
    EXPECT_EQ(drainJobs(specs, prefix, execute), 3u);
    EXPECT_EQ(order, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(JobsDrain, FailedAttemptsRetryWithoutDoubleExecution)
{
    // Every third job throws on its first execution. The drain that
    // ran it ends in a JobError naming the job, and a sibling or a
    // later drain computes it. Rounds of concurrent drains repeat
    // until one round has no failure; across all of them every job is
    // computed exactly once.
    const fs::path dir = freshDir("acdse_jobs_drain_retry");
    constexpr std::size_t kJobs = 30;
    constexpr std::size_t kThreads = 4;
    const std::vector<JobSpec> specs = fakeJobs(kJobs, kJobs);
    const std::string prefix = (dir / "q").string();

    // Executions that found the output missing, and those that wrote it.
    std::vector<std::atomic<int>> calls(kJobs);
    std::vector<std::atomic<int>> computes(kJobs);
    // The executor of one drain; @p threw records the job it threw on.
    const auto executorFor = [&](std::string &threw) {
        return jobs::JobExecutor([&](const JobSpec &spec) {
            const std::size_t j = std::stoul(spec.arg);
            if (computes[j].load() > 0)
                return false;
            if (calls[j].fetch_add(1) == 0 && j % 3 == 0) {
                threw = spec.id;
                throw std::runtime_error("injected failure");
            }
            computes[j].fetch_add(1);
            return true;
        });
    };

    std::size_t failures = 0;
    for (std::size_t round = 0;; ++round) {
        ASSERT_LE(round, kJobs) << "the drains stopped making progress";
        std::vector<std::string> threw(kThreads);
        std::vector<std::string> errors(kThreads);
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                try {
                    drainJobs(specs, prefix, executorFor(threw[t]));
                } catch (const JobError &e) {
                    errors[t] = e.what();
                }
            });
        }
        for (auto &worker : workers)
            worker.join();

        std::size_t roundFailures = 0;
        for (std::size_t t = 0; t < kThreads; ++t) {
            EXPECT_EQ(errors[t].empty(), threw[t].empty()) << errors[t];
            if (threw[t].empty())
                continue;
            ++roundFailures;
            EXPECT_NE(errors[t].find("job '" + threw[t] + "'"),
                      std::string::npos)
                << errors[t];
            EXPECT_NE(errors[t].find("injected failure"),
                      std::string::npos)
                << errors[t];
        }
        failures += roundFailures;
        if (roundFailures == 0)
            break;
    }

    // Each throwing job threw once, ending exactly one drain, and was
    // computed by one more execution.
    EXPECT_EQ(failures, kJobs / 3);
    for (std::size_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(computes[j].load(), 1) << "job " << j;
        EXPECT_EQ(calls[j].load(), j % 3 == 0 ? 2 : 1) << "job " << j;
    }
    // A drain over intact outputs computes nothing.
    std::string threw;
    EXPECT_EQ(drainJobs(specs, prefix, executorFor(threw)), 0u);
    EXPECT_TRUE(threw.empty());
}

TEST(JobsDrain, FailingJobFailsTheDrain)
{
    // A throwing job runs once: the drain rethrows it as a JobError
    // naming the job, before any later phase runs, with the job's lock
    // released. The next drain computes it once.
    const fs::path dir = freshDir("acdse_jobs_drain_fail");
    const std::string prefix = (dir / "q").string();
    const std::vector<JobSpec> specs = {{"bad", "fake", 0, "0"},
                                        {"later", "fake", 1, "1"}};
    bool failing = true;
    int badCalls = 0;
    int badComputes = 0;
    int laterComputes = 0;
    const jobs::JobExecutor execute = [&](const JobSpec &spec) {
        int &computes = spec.id == "bad" ? badComputes : laterComputes;
        if (computes > 0)
            return false;
        if (spec.id == "bad") {
            ++badCalls;
            if (failing)
                throw std::runtime_error("always fails");
        }
        ++computes;
        return true;
    };
    try {
        drainJobs(specs, prefix, execute);
        ADD_FAILURE() << "the drain did not throw";
    } catch (const JobError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("job 'bad'"), std::string::npos) << what;
        EXPECT_NE(what.find("always fails"), std::string::npos) << what;
    }
    EXPECT_EQ(badCalls, 1);
    EXPECT_EQ(laterComputes, 0);
    FileLock lock(jobs::jobLockPath(prefix, specs[0]));
    EXPECT_TRUE(tryOnce(lock)) << "the failed job's lock is still held";

    failing = false;
    EXPECT_EQ(drainJobs(specs, prefix, execute), 2u);
    EXPECT_EQ(badComputes, 1);
    EXPECT_EQ(laterComputes, 1);
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
    plan.trainSims = 12;
    plan.responses = 8;
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
    EXPECT_NE(base.planPath(), otherSeed.planPath());
    EXPECT_NE(base.artifactPath(), otherSeed.artifactPath());
    EXPECT_NE(base.planHash(), otherSeed.planHash());

    // The key is the simulator numerics fingerprint, then Campaign's
    // own cache key: job directories from a build with other numerics
    // never share a prefix, lock file or plan hash with this one.
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      Campaign::numericsFingerprint()));
    EXPECT_EQ(base.key(),
              std::string(fingerprint) + "_" +
                  Campaign::cacheKeyFor(base.programs, base.options));
    EXPECT_NE(base.prefix().find(fingerprint), std::string::npos);
    EXPECT_EQ(jobs::jobLockPath(base.prefix(), base.jobs().front()),
              base.prefix() + ".sim_gzip.lock");
    EXPECT_EQ(base.artifactPath(), base.prefix() + ".acdse");
}

TEST(JobsPlan, JobExpansionAndPhases)
{
    const CampaignJobPlan plan = smallPlan(".");
    EXPECT_EQ(plan.numCells(), 72u);
    EXPECT_EQ(plan.trainPrograms(),
              (std::vector<std::string>{"gzip", "mcf"}));

    // T and R name the configuration ranges; the rest is held out.
    EXPECT_EQ(plan.trainIdx(),
              (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                        10, 11}));
    EXPECT_EQ(plan.responseIdx(),
              (std::vector<std::size_t>{12, 13, 14, 15, 16, 17, 18,
                                        19}));
    EXPECT_EQ(plan.heldOutIdx(),
              (std::vector<std::size_t>{20, 21, 22, 23}));

    const std::vector<JobSpec> jobs = plan.jobs();
    // One simulate job per program in phase 0, then one job that
    // trains every metric's ensemble and fits the target in phase 1.
    ASSERT_EQ(jobs.size(), plan.programs.size() + 1);
    for (std::size_t p = 0; p < plan.programs.size(); ++p) {
        EXPECT_EQ(jobs[p].id, "sim_" + plan.programs[p]);
        EXPECT_EQ(jobs[p].kind, "simulate-shard");
        EXPECT_EQ(jobs[p].phase, 0u);
        EXPECT_EQ(jobs[p].arg, plan.programs[p]);
    }
    EXPECT_EQ(jobs.back().id, "fit");
    EXPECT_EQ(jobs.back().kind, "train-and-fit");
    EXPECT_EQ(jobs.back().phase, 1u);
    EXPECT_EQ(jobs.back().arg, "vpr");

    // A simulate-only plan has no training job.
    CampaignJobPlan simOnly = plan;
    simOnly.trainSims = 0;
    simOnly.responses = 0;
    simOnly.newProgram.clear();
    simOnly.validate();
    EXPECT_EQ(simOnly.jobs().size(), 3u);
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
    EXPECT_EQ(loaded.trainSims, plan.trainSims);
    EXPECT_EQ(loaded.responses, plan.responses);
    EXPECT_EQ(loaded.newProgram, plan.newProgram);
    EXPECT_EQ(loaded.planHash(), plan.planHash());
    EXPECT_EQ(loaded.options.cacheDir, dir.string());
    // Verbosity belongs to the process that runs the plan, so a resume
    // takes its own: it is not persisted.
    EXPECT_FALSE(loaded.options.quiet);

    // The plan file holds the format, the campaign key and the eight
    // values that define the run, nothing else.
    std::istringstream text(readBytes(fs::path(plan.planPath())));
    std::vector<std::string> keys;
    for (std::string line; std::getline(text, line);)
        keys.push_back(line.substr(0, line.find(',')));
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "key", "format", "campaign", "programs",
                        "configs", "trace_len", "warmup", "seed",
                        "train", "responses", "new_program"}));

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

    // A plan whose stored key carries another numerics fingerprint
    // (written by a build that simulates differently) is refused.
    text = readBytes(fs::path(plan.planPath()));
    const std::size_t keyAt = text.find("campaign,") + 9;
    ASSERT_EQ(text.substr(keyAt, plan.key().size()), plan.key());
    text[keyAt] = text[keyAt] == '0' ? '1' : '0';
    const fs::path forged = dir / "forged.plan.csv";
    {
        std::ofstream out(forged, // NOLINT(acdse-atomic-write)
                          std::ios::binary);
        out << text;
    }
    EXPECT_THROW(CampaignJobPlan::load(forged.string()), JobError);

    CampaignJobPlan invalid = plan;
    invalid.newProgram = "not-a-program";
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.trainSims = 17; // T+R = 25 > 24 configurations
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.responses = 0;
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.trainSims = 0; // simulate-only, yet names responses
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.programs = {"vpr"};
    EXPECT_THROW(invalid.validate(), JobError);
    // T + R beyond N must not wrap past the check: T = 2^64 - 1 with
    // R = 2 sums to 1, and R alone may exceed N.
    invalid = plan;
    invalid.trainSims = std::numeric_limits<std::size_t>::max();
    invalid.responses = 2;
    EXPECT_THROW(invalid.validate(), JobError);
    invalid = plan;
    invalid.trainSims = 1;
    invalid.responses = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(invalid.validate(), JobError);
}

TEST(JobsPlan, LoadRejectsWrappingTrainPlusResponses)
{
    // A plan file whose T + R wraps past 2^64 is refused on load, as
    // the validate() it runs would refuse the plan itself.
    const fs::path dir = freshDir("acdse_jobs_plan_wrap");
    const CampaignJobPlan plan = smallPlan(dir.string());
    plan.save();
    std::string text = readBytes(fs::path(plan.planPath()));
    const std::string needle = "train,12\n";
    const std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, needle.size(), "train,18446744073709551615\n");
    {
        std::ofstream out(plan.planPath(), // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::trunc);
        out << text;
    }
    EXPECT_THROW(CampaignJobPlan::load(plan.planPath()), JobError);
}

} // namespace
} // namespace acdse
