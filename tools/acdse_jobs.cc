/**
 * @file
 * acdse-jobs: the crash-safe campaign job server CLI, and the one tool
 * that turns a campaign into a servable model artifact.
 *
 *   acdse-jobs run    --dir D [--workers N] [--programs a,b,c]
 *                     [--target PROG] [--train T] [--responses R]
 *                     [--sim-only] [--verbose] [--stats-out FILE]
 *   acdse-jobs resume --dir D [--workers N] [--plan FILE] [...]
 *   acdse-jobs status --dir D [--plan FILE]
 *
 * `run` persists a CampaignJobPlan into the directory, opens the job
 * journal and forks N worker processes that drain the queue
 * (simulate-shard, one per program -> train-program, one per training
 * program, for every metric -> fit-responses). The training programs
 * each train on configurations `[0, T)`; the target's responses are
 * configurations `[T, T+R)`.
 * Each simulate job writes its program's sealed block straight into
 * the directory's campaign store, the same blocks Campaign reads. Once
 * every job is done the parent checks that every block is intact and
 * reruns the idempotent fit, which keeps the run's one model artifact,
 * `<prefix>.acdse`, or refits it when it is missing or damaged.
 * acdse-serve and acdse-explore load that artifact as is
 * (`acdse-explore --model <prefix>.acdse`). A training run then
 * prints each metric's response training error and the target's
 * cycles error over the held-out configurations `[T+R, N)`.
 * `resume` reloads the persisted plan -- the resolved parameters, not
 * the environment; verbosity comes from its flag and parallelism from
 * ACDSE_THREADS, as for `run` -- bumps the journal generation so jobs
 * abandoned by killed workers become claimable, and drains whatever
 * is left; because every handler is idempotent and checkpoints
 * atomically, the resumed artifacts are byte-identical to an
 * uninterrupted run. `status` prints a machine-readable JSON summary
 * (schema acdse-jobs-status-v1) without touching the journal.
 *
 * Exit codes: 0 success; 1 error (corrupt journal, failed jobs, bad
 * plan); 2 usage; 3 interrupted -- a worker died abnormally and the
 * run is resumable.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/statistics.hh"
#include "jobs/campaign_jobs.hh"
#include "jobs/job_queue.hh"
#include "obs/stats_export.hh"
#include "serve/model_store.hh"
#include "trace/suites.hh"

using namespace acdse;
using namespace acdse::jobs;

namespace
{

struct CliOptions
{
    std::string command;  //!< run | resume | status
    std::string dir = "."; //!< the shared cache/journal directory
    std::string planFile; //!< explicit plan path (resume/status)
    std::size_t workers = 2;
    std::vector<std::string> trainingPrograms{"gzip", "crafty", "mcf"};
    std::string target = "vpr";
    std::size_t trainSims = 32;
    std::size_t responses = 16;
    bool simOnly = false;
    bool verbose = false;
    std::string statsOut;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <run|resume|status> --dir DIR\n"
        "  run     [--workers N] [--programs a,b,c] [--target PROG]\n"
        "          [--train T] [--responses R] [--sim-only]\n"
        "          [--verbose] [--stats-out FILE]\n"
        "  resume  [--workers N] [--plan FILE] [--verbose]\n"
        "          [--stats-out FILE]\n"
        "  status  [--plan FILE]\n",
        argv0);
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    CliOptions options;
    options.command = argv[1];
    if (options.command != "run" && options.command != "resume" &&
        options.command != "status") {
        usage(argv[0]);
    }
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--dir")) {
            options.dir = value(i);
        } else if (!std::strcmp(argv[i], "--plan")) {
            options.planFile = value(i);
        } else if (!std::strcmp(argv[i], "--workers")) {
            options.workers = static_cast<std::size_t>(
                parseU64OrDie("--workers", value(i)));
        } else if (!std::strcmp(argv[i], "--programs")) {
            options.trainingPrograms = splitList(value(i), ',');
        } else if (!std::strcmp(argv[i], "--target")) {
            options.target = value(i);
        } else if (!std::strcmp(argv[i], "--train")) {
            options.trainSims = static_cast<std::size_t>(
                parseU64OrDie("--train", value(i)));
        } else if (!std::strcmp(argv[i], "--responses")) {
            options.responses = static_cast<std::size_t>(
                parseU64OrDie("--responses", value(i)));
        } else if (!std::strcmp(argv[i], "--sim-only")) {
            options.simOnly = true;
        } else if (!std::strcmp(argv[i], "--verbose")) {
            options.verbose = true;
        } else if (!std::strcmp(argv[i], "--stats-out")) {
            options.statsOut = value(i);
        } else {
            usage(argv[0]);
        }
    }
    if (options.workers == 0)
        fatal("--workers must be positive");
    return options;
}

/** Typed program-name validation (profileByName would panic). */
void
requireKnownProgram(const std::string &name)
{
    for (const auto &profile : allProfiles()) {
        if (profile.name == name)
            return;
    }
    fatal("unknown program '", name, "'");
}

/** Build a fresh plan from the CLI + environment (run command). */
CampaignJobPlan
planFromCli(const CliOptions &cli)
{
    CampaignJobPlan plan;
    plan.options = CampaignOptions::fromEnvironment();
    plan.options.cacheDir = cli.dir;
    plan.options.quiet = !cli.verbose;

    plan.programs = cli.trainingPrograms;
    if (!cli.simOnly) {
        if (std::find(plan.programs.begin(), plan.programs.end(),
                      cli.target) == plan.programs.end()) {
            plan.programs.push_back(cli.target);
        }
        plan.newProgram = cli.target;
        if (cli.trainSims == 0 || cli.responses == 0)
            fatal("--train and --responses must be positive");
        if (!std::getenv("ACDSE_CONFIGS")) {
            // Enough for T training points, R responses and 64
            // held-out points while staying interactive.
            plan.options.numConfigs =
                cli.trainSims + cli.responses + 64;
        }
        if (plan.options.numConfigs < cli.trainSims + cli.responses) {
            fatal("campaign has ", plan.options.numConfigs,
                  " configs but T+R needs ",
                  cli.trainSims + cli.responses);
        }
        plan.trainSims = cli.trainSims;
        plan.responses = cli.responses;
    }
    for (const auto &name : plan.programs)
        requireKnownProgram(name);
    return plan;
}

/** Locate the plan file for resume/status. */
std::string
findPlanFile(const CliOptions &cli)
{
    if (!cli.planFile.empty())
        return cli.planFile;
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(cli.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("acdse_jobs_") &&
            name.ends_with(".plan.csv")) {
            found.push_back(entry.path().string());
        }
    }
    if (found.empty())
        throw JobError("no job plan found in '" + cli.dir +
                       "' (run first, or pass --plan)");
    if (found.size() > 1) {
        std::string all;
        for (const auto &path : found)
            all += "\n  " + path;
        throw JobError("multiple job plans in '" + cli.dir +
                       "', pass --plan to pick one:" + all);
    }
    return found.front();
}

/**
 * The worker-process body: drain the queue until it is empty or
 * stuck. Never returns. Exits via std::exit so that atexit hooks
 * (coverage flushing among them) run even in forked children.
 */
[[noreturn]] void
workerMain(const CampaignJobPlan &plan, std::size_t workerIdx,
           const std::string &statsOut)
{
    // Fault injection (tests only): die at a job boundary after
    // completing this many jobs (ACDSE_JOBS_KILL_AFTER="<w>:<k>").
    std::size_t killAfter = std::numeric_limits<std::size_t>::max();
    if (const char *spec = std::getenv("ACDSE_JOBS_KILL_AFTER");
        spec && *spec) {
        const std::string text(spec);
        const std::size_t colon = text.find(':');
        const auto w = parseU64(text.substr(0, colon));
        const auto k = colon == std::string::npos
                           ? std::nullopt
                           : parseU64(text.substr(colon + 1));
        if (w && k && *w == workerIdx)
            killAfter = static_cast<std::size_t>(*k);
    }

    int exitCode = 0;
    try {
        // A fresh queue handle: a fork-inherited one would share the
        // parent's lock file description and no longer exclude.
        JobQueue queue(plan.options.cacheDir, plan.journalName());
        queue.attach(plan.planHash());
        CampaignJobRunner runner(plan);
        std::size_t completed = 0;
        for (bool draining = true; draining;) {
            if (completed >= killAfter)
                ::raise(SIGKILL);
            JobSpec spec;
            int attempt = 0;
            switch (queue.claim(spec, attempt)) {
              case ClaimResult::Claimed:
                try {
                    runner.execute(spec, attempt);
                } catch (const JournalError &) {
                    throw;
                } catch (const std::exception &e) {
                    warn("worker ", workerIdx, ": job '", spec.id,
                         "' attempt ", attempt, " failed: ", e.what());
                    queue.fail(spec.id);
                    break;
                }
                queue.complete(spec.id);
                ++completed;
                break;
              case ClaimResult::Wait:
                // Another worker holds the remaining jobs of this
                // phase; poll until it finishes or dies.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                break;
              case ClaimResult::Drained:
                draining = false;
                break;
              case ClaimResult::Stuck:
                warn("worker ", workerIdx,
                     ": queue is stuck (a job failed permanently)");
                exitCode = 1;
                draining = false;
                break;
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: worker %zu: %s\n", workerIdx,
                     e.what());
        exitCode = 1;
    }
    if (!statsOut.empty()) {
        obs::writeStatsFile(statsOut + ".worker" +
                                std::to_string(workerIdx),
                            obs::Registry::global().snapshot());
    }
    std::exit(exitCode);
}

/**
 * Fork the workers and supervise them. @return 0 when every worker
 * drained cleanly, 1 when any reported an error, 3 when any died
 * abnormally (the run is resumable).
 */
int
superviseWorkers(const CampaignJobPlan &plan, std::size_t workers,
                 const std::string &statsOut)
{
    // No threads may exist on this side of the fork: the parent
    // deliberately constructs no Campaign (and thus no thread pool)
    // before the workers are running.
    std::fflush(nullptr);
    std::vector<pid_t> children;
    for (std::size_t w = 0; w < workers; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            for (const pid_t child : children)
                ::kill(child, SIGKILL);
            fatal("fork failed: ", std::strerror(errno));
        }
        if (pid == 0)
            workerMain(plan, w, statsOut); // never returns
        children.push_back(pid);
    }

    bool signaled = false;
    int worst = 0;
    std::vector<pid_t> alive = children;
    while (!alive.empty()) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            fatal("waitpid failed: ", std::strerror(errno));
        }
        alive.erase(std::remove(alive.begin(), alive.end(), pid),
                    alive.end());
        if (WIFSIGNALED(status)) {
            // A dead worker's claimed jobs stay Running for this
            // generation: the siblings would wait forever, so stop
            // the whole session -- it resumes cleanly.
            signaled = true;
            for (const pid_t child : alive)
                ::kill(child, SIGKILL);
        } else if (WIFEXITED(status)) {
            worst = std::max(worst, WEXITSTATUS(status));
        }
    }
    if (signaled)
        return 3;
    return worst == 0 ? 0 : 1;
}

/**
 * Print what a training run yields: each metric's response training
 * error, and the target's cycles prediction error over the held-out
 * configurations `[T+R, N)`, which the simulate jobs filled but
 * neither training nor the fit read.
 */
void
reportTraining(CampaignJobRunner &runner)
{
    const CampaignJobPlan &plan = runner.plan();
    const ModelArtifact artifact = loadArtifact(plan.artifactPath());
    for (const Metric metric : kAllMetrics) {
        std::printf("trained %-9s ensemble of %zu ANNs, response "
                    "training error %.1f%%\n",
                    metricName(metric), plan.trainPrograms().size(),
                    artifact.predictor(metric).trainingErrorPercent());
    }
    const std::vector<std::size_t> heldOut = plan.heldOutIdx();
    if (heldOut.empty()) {
        std::printf("no held-out configurations (T+R = %zu)\n",
                    plan.trainSims + plan.responses);
        return;
    }
    Campaign &campaign = runner.campaign();
    campaign.ensureComputed(); // loads the blocks finalize() checked
    const std::size_t target = campaign.programIndex(plan.newProgram);
    const ArchitectureCentricPredictor &cycles =
        artifact.predictor(Metric::Cycles);
    std::vector<double> predicted, actual;
    for (const std::size_t config : heldOut) {
        predicted.push_back(cycles.predict(campaign.configs()[config]));
        actual.push_back(campaign.result(target, config).cycles);
    }
    std::printf("held-out %zu points: cycles rmae %.1f%%, "
                "correlation %.3f\n",
                heldOut.size(), stats::rmae(predicted, actual),
                stats::correlation(predicted, actual));
}

int
runSession(const CampaignJobPlan &plan, const CliOptions &cli)
{
    JobQueue queue(plan.options.cacheDir, plan.journalName());
    queue.open(plan.planHash(), plan.jobs());

    const int outcome =
        superviseWorkers(plan, cli.workers, cli.statsOut);
    if (outcome == 3) {
        inform("interrupted; resume with: acdse-jobs resume --dir ",
               plan.options.cacheDir);
        return 3;
    }
    if (outcome != 0)
        return outcome;

    CampaignJobRunner runner(plan);
    runner.finalize();
    if (!cli.statsOut.empty()) {
        obs::writeStatsFile(cli.statsOut,
                            obs::Registry::global().snapshot());
    }
    inform("campaign job run complete: store blocks at ",
           runner.campaign().cachePath(), ".*.cells");
    if (plan.trains()) {
        inform("model artifact at ", plan.artifactPath());
        reportTraining(runner);
    }
    return 0;
}

const char *
stateName(JobState state)
{
    switch (state) {
      case JobState::Pending: return "pending";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
    }
    return "unknown";
}

int
statusCommand(const CampaignJobPlan &plan)
{
    JobQueue queue(plan.options.cacheDir, plan.journalName());
    QueueSnapshot snap = queue.snapshot();
    if (snap.jobs.empty()) {
        // Journal never opened: report the plan's jobs as pending.
        for (const auto &spec : plan.jobs())
            snap.jobs.push_back({spec, JobState::Pending, 0, 0});
        snap.planHash = plan.planHash();
    }

    JsonWriter w;
    w.beginObject()
        .key("schema").value("acdse-jobs-status-v1")
        .key("plan").value(snap.planHash)
        .key("campaign").value(plan.key())
        .key("generation").value(
            static_cast<std::uint64_t>(snap.generation))
        .key("jobs");
    w.beginObject()
        .key("total").value(static_cast<std::uint64_t>(
            snap.jobs.size()))
        .key("pending").value(static_cast<std::uint64_t>(
            snap.countIn(JobState::Pending)))
        .key("running").value(static_cast<std::uint64_t>(
            snap.countIn(JobState::Running)))
        .key("done").value(static_cast<std::uint64_t>(
            snap.countIn(JobState::Done)))
        .key("failed").value(static_cast<std::uint64_t>(
            snap.countIn(JobState::Failed)))
        .endObject();
    w.key("kinds").beginObject();
    for (const char *kind :
         {"simulate-shard", "train-program", "fit-responses"}) {
        std::uint64_t total = 0, done = 0;
        for (const auto &job : snap.jobs) {
            if (job.spec.kind != kind)
                continue;
            ++total;
            if (job.state == JobState::Done)
                ++done;
        }
        w.key(kind).beginObject()
            .key("total").value(total)
            .key("done").value(done)
            .endObject();
    }
    w.endObject();
    w.key("states").beginArray();
    for (const auto &job : snap.jobs) {
        w.beginObject()
            .key("id").value(job.spec.id)
            .key("state").value(stateName(job.state))
            .key("attempts").value(
                static_cast<std::uint64_t>(job.attempts))
            .endObject();
    }
    w.endArray()
        .key("drained").value(snap.drained())
        .key("stuck").value(snap.stuck())
        .endObject();
    std::printf("%s\n", w.str().c_str());
    return snap.stuck() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);
    try {
        if (cli.command == "run") {
            CampaignJobPlan plan = planFromCli(cli);
            // An existing plan for the same campaign key must agree;
            // refusing beats silently replacing a half-run's plan.
            std::error_code ec;
            if (std::filesystem::exists(plan.planPath(), ec)) {
                const CampaignJobPlan existing =
                    CampaignJobPlan::load(plan.planPath());
                if (existing.planHash() != plan.planHash()) {
                    throw JobError(
                        "plan file " + plan.planPath() +
                        " describes a different run; resume it or "
                        "use a fresh --dir");
                }
            } else {
                plan.save();
            }
            return runSession(plan, cli);
        }
        CampaignJobPlan plan = CampaignJobPlan::load(findPlanFile(cli));
        plan.options.quiet = !cli.verbose;
        if (cli.command == "resume")
            return runSession(plan, cli);
        return statusCommand(plan);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
