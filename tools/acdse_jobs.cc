/**
 * @file
 * acdse-jobs: the crash-safe campaign job server CLI, and the one tool
 * that turns a campaign into a servable model artifact.
 *
 *   acdse-jobs run    --dir D [--programs a,b,c] [--target PROG]
 *                     [--train T] [--responses R] [--sim-only]
 *                     [--verbose] [--stats-out FILE]
 *   acdse-jobs resume --dir D [--plan FILE] [--verbose]
 *                     [--stats-out FILE]
 *   acdse-jobs status --dir D [--plan FILE]
 *
 * `run` persists a CampaignJobPlan into the directory, creating it if
 * need be, and drains its jobs in this process, phase by phase
 * (simulate-shard, one per program -> train-and-fit, one job that
 * trains every training program's models for every metric and fits
 * the target), each job claimed through its own lock file
 * (jobs/drain.hh) and run across the whole ThreadPool (ACDSE_THREADS).
 * The training programs each train on configurations `[0, T)`; the
 * target's responses are configurations `[T, T+R)`.
 * Each simulate job writes its program's sealed block straight into
 * the directory's campaign store, the same blocks Campaign reads. The
 * drain keeps every intact block and the run's one model artifact,
 * `<prefix>.acdse`, and recomputes any that is missing or damaged.
 * acdse-serve and acdse-explore load that artifact as is
 * (`acdse-explore --model <prefix>.acdse`). A training run then
 * prints each metric's response training error and the target's
 * cycles error over the held-out configurations `[T+R, N)`.
 * `resume` reloads the persisted plan -- the resolved parameters, not
 * the environment; verbosity comes from its flag and parallelism from
 * ACDSE_THREADS, as for `run` -- and drains whatever outputs are not
 * intact yet; because every handler is deterministic and its output
 * lands atomically, the resumed artifacts are byte-identical to an
 * uninterrupted run. A `resume` started beside a running `run` or
 * `resume` on the same directory shares the work with it, job by job:
 * that is how to add job-level parallelism. `status` prints a
 * machine-readable JSON summary (schema acdse-jobs-status-v3) that it
 * derives from the files: a job is done when its output is intact,
 * running when its lock is held, pending otherwise.
 *
 * Exit codes: 0 success; 1 error (a job failed, bad plan, bad --dir);
 * 2 usage. A killed run ends by its signal. `resume` retries a failed
 * or killed run.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "base/file_lock.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "core/evaluation.hh"
#include "jobs/campaign_jobs.hh"
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
    std::string dir = "."; //!< the shared run directory
    std::string planFile; //!< explicit plan path (resume/status)
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
        "  run     [--programs a,b,c] [--target PROG] [--train T]\n"
        "          [--responses R] [--sim-only] [--verbose]\n"
        "          [--stats-out FILE]\n"
        "  resume  [--plan FILE] [--verbose] [--stats-out FILE]\n"
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
        // Whether T + R + extra fits in n, written so no sum can wrap.
        const auto fits = [&](std::size_t extra, std::size_t n) {
            return extra <= n && cli.responses <= n - extra &&
                   cli.trainSims <= n - extra - cli.responses;
        };
        if (!std::getenv("ACDSE_CONFIGS")) {
            // Enough for T training points, R responses and 64
            // held-out points while staying interactive.
            if (!fits(64, std::numeric_limits<std::size_t>::max()))
                fatal("--train ", cli.trainSims, " + --responses ",
                      cli.responses, " overflows the campaign size");
            plan.options.numConfigs =
                cli.trainSims + cli.responses + 64;
        }
        if (!fits(0, plan.options.numConfigs)) {
            fatal("campaign has ", plan.options.numConfigs,
                  " configs but --train ", cli.trainSims,
                  " + --responses ", cli.responses, " exceed them");
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
    campaign.ensureComputed(); // loads the blocks drain() checked
    const std::size_t target = campaign.programIndex(plan.newProgram);
    const PredictionQuality quality = scorePredictionsBatched(
        campaign, target, Metric::Cycles, heldOut,
        artifact.predictor(Metric::Cycles));
    std::printf("held-out %zu points: cycles rmae %.1f%%, "
                "correlation %.3f\n",
                heldOut.size(), quality.rmaePercent, quality.correlation);
}

int
runSession(const CampaignJobPlan &plan, const CliOptions &cli)
{
    CampaignJobRunner runner(plan);
    runner.drain();
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

int
statusCommand(const CampaignJobPlan &plan)
{
    const CampaignJobRunner runner(plan);
    const std::vector<JobSpec> jobs = plan.jobs();
    std::vector<const char *> states;
    for (const JobSpec &spec : jobs) {
        const char *state = "done";
        if (!runner.done(spec)) {
            FileLock lock(jobLockPath(plan.prefix(), spec));
            state = "running";
            if (lock.tryLock()) {
                lock.unlock();
                state = "pending";
            }
        }
        states.push_back(state);
    }
    // Jobs in @p state (any when empty) of @p kind (any when empty).
    const auto count = [&](std::string_view state,
                           std::string_view kind = {}) {
        std::uint64_t n = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            n += (state.empty() || states[j] == state) &&
                 (kind.empty() || jobs[j].kind == kind);
        }
        return n;
    };

    JsonWriter w;
    w.beginObject()
        .key("schema").value("acdse-jobs-status-v3")
        .key("plan").value(plan.planHash())
        .key("campaign").value(plan.key())
        .key("jobs");
    w.beginObject()
        .key("total").value(static_cast<std::uint64_t>(jobs.size()))
        .key("pending").value(count("pending"))
        .key("running").value(count("running"))
        .key("done").value(count("done"))
        .endObject();
    w.key("kinds").beginObject();
    std::vector<std::string_view> kinds;
    for (const JobSpec &spec : jobs) {
        if (std::ranges::find(kinds, spec.kind) != kinds.end())
            continue;
        kinds.push_back(spec.kind);
        w.key(spec.kind).beginObject()
            .key("total").value(count({}, spec.kind))
            .key("done").value(count("done", spec.kind))
            .endObject();
    }
    w.endObject();
    w.key("states").beginArray();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        w.beginObject()
            .key("id").value(jobs[j].id)
            .key("state").value(states[j])
            .endObject();
    }
    w.endArray()
        .key("drained").value(count("done") == jobs.size())
        .endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);
    try {
        if (cli.command == "run") {
            CampaignJobPlan plan = planFromCli(cli);
            // A rejected plan leaves no --dir behind.
            plan.validate();
            std::error_code ec;
            std::filesystem::create_directories(cli.dir, ec);
            if (!std::filesystem::is_directory(cli.dir, ec))
                fatal("--dir '", cli.dir, "' is not a directory");
            // An existing plan for the same campaign key must agree;
            // refusing beats silently replacing a half-run's plan.
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
