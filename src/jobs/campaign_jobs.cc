#include "jobs/campaign_jobs.hh"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/csv.hh"
#include "base/json.hh"
#include "base/parse.hh"
#include "base/thread_pool.hh"
#include "core/architecture_centric_predictor.hh"
#include "obs/trace_span.hh"
#include "serve/model_store.hh"

namespace acdse::jobs
{

namespace
{

constexpr std::string_view kPlanFormat = "acdse-jobs-plan-v4";

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &item : items) {
        if (!out.empty())
            out += ';';
        out += item;
    }
    return out;
}

/** The indices `[begin, end)`. */
std::vector<std::size_t>
indexRange(std::size_t begin, std::size_t end)
{
    std::vector<std::size_t> out(end - begin);
    std::iota(out.begin(), out.end(), begin);
    return out;
}

/** The provenance tag of a plan's model artifact. */
std::string
artifactTag(const CampaignJobPlan &plan)
{
    return "acdse-jobs campaign=" + plan.key() +
           " target=" + plan.newProgram +
           " T=" + std::to_string(plan.trainSims) +
           " R=" + std::to_string(plan.responses);
}

/**
 * The mid-job kill injection point (ACDSE_JOBS_KILL_IN="<id>@<cells>"):
 * raise SIGKILL once the running job @p jobId has completed that many
 * cells. Exercises crashes *inside* a simulate job, before its block
 * is stored.
 */
std::function<void(std::size_t)>
killInHook(const std::string &jobId)
{
    const char *spec = std::getenv("ACDSE_JOBS_KILL_IN");
    if (!spec || !*spec)
        return {};
    const std::string text(spec);
    const std::size_t at = text.find('@');
    if (at == std::string::npos || text.substr(0, at) != jobId)
        return {};
    const auto cells = parseU64(text.substr(at + 1));
    if (!cells)
        return {};
    const std::size_t threshold = static_cast<std::size_t>(*cells);
    return [threshold](std::size_t completed) {
        if (completed >= threshold)
            ::raise(SIGKILL);
    };
}

/**
 * The job-boundary kill injection point (ACDSE_JOBS_KILL_AFTER=<k>):
 * the count of computed jobs after which the process raises SIGKILL;
 * the maximum when unset or unparsable. Jobs found intact do not count.
 */
std::size_t
killAfterJobs()
{
    const char *spec = std::getenv("ACDSE_JOBS_KILL_AFTER");
    const auto jobs = spec && *spec ? parseU64(spec) : std::nullopt;
    return jobs ? static_cast<std::size_t>(*jobs)
                : std::numeric_limits<std::size_t>::max();
}

} // namespace

std::vector<std::string>
CampaignJobPlan::trainPrograms() const
{
    std::vector<std::string> out;
    for (const auto &name : programs) {
        if (name != newProgram)
            out.push_back(name);
    }
    return out;
}

std::vector<std::size_t>
CampaignJobPlan::trainIdx() const
{
    return indexRange(0, trainSims);
}

std::vector<std::size_t>
CampaignJobPlan::responseIdx() const
{
    return indexRange(trainSims, trainSims + responses);
}

std::vector<std::size_t>
CampaignJobPlan::heldOutIdx() const
{
    return indexRange(trainSims + responses, options.numConfigs);
}

std::string
CampaignJobPlan::key() const
{
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      Campaign::numericsFingerprint()));
    return std::string(fingerprint) + "_" +
           Campaign::cacheKeyFor(programs, options);
}

std::string
CampaignJobPlan::planHash() const
{
    // Canonical encoding: everything that defines the job set and its
    // artifacts. Cosmetic settings (quiet, threads, cacheDir) are
    // deliberately excluded so a run under different parallelism or
    // verbosity still matches the plan it resumes.
    std::string canon(kPlanFormat);
    canon += '|';
    canon += key();
    canon += "|train=" + std::to_string(trainSims);
    canon += "|resp=" + std::to_string(responses);
    canon += "|new=" + newProgram;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(canon)));
    return buf;
}

std::vector<JobSpec>
CampaignJobPlan::jobs() const
{
    std::vector<JobSpec> out;
    for (const auto &program : programs)
        out.push_back({"sim_" + program, "simulate-shard", 0, program});
    if (trains())
        out.push_back({"fit", "train-and-fit", 1, newProgram});
    return out;
}

std::string
CampaignJobPlan::prefix() const
{
    return options.cacheDir + "/acdse_jobs_" + key();
}

std::string
CampaignJobPlan::planPath() const
{
    return prefix() + ".plan.csv";
}

std::string
CampaignJobPlan::artifactPath() const
{
    return prefix() + ".acdse";
}

void
CampaignJobPlan::save() const
{
    validate();
    CsvFile file;
    file.header = {"key", "value"};
    auto put = [&](std::string k, std::string v) {
        file.rows.push_back({std::move(k), std::move(v)});
    };
    put("format", std::string(kPlanFormat));
    put("campaign", key());
    put("programs", joinList(programs));
    put("configs", std::to_string(options.numConfigs));
    put("trace_len", std::to_string(options.traceLength));
    put("warmup", std::to_string(options.warmupInstructions));
    put("seed", std::to_string(options.configSeed));
    put("train", std::to_string(trainSims));
    put("responses", std::to_string(responses));
    put("new_program", newProgram.empty() ? "-" : newProgram);
    writeCsvAtomic(planPath(), file);
}

CampaignJobPlan
CampaignJobPlan::load(const std::string &path)
{
    CsvFile file;
    if (!readCsv(path, file))
        throw JobError("cannot read plan file '" + path + "'");
    if (file.header != std::vector<std::string>{"key", "value"})
        throw JobError("plan file '" + path + "' has a bad header");
    std::unordered_map<std::string, std::string> kv;
    for (const auto &row : file.rows) {
        if (row.size() != 2 || !kv.emplace(row[0], row[1]).second)
            throw JobError("plan file '" + path + "' has bad rows");
    }
    auto get = [&](const char *k) -> const std::string & {
        auto it = kv.find(k);
        if (it == kv.end())
            throw JobError("plan file '" + path + "' misses key '" +
                           k + "'");
        return it->second;
    };
    auto getU64 = [&](const char *k) -> std::uint64_t {
        const auto value = parseU64(get(k));
        if (!value)
            throw JobError("plan file '" + path + "' has a bad '" +
                           k + "' value");
        return *value;
    };
    if (get("format") != kPlanFormat)
        throw JobError("plan file '" + path +
                       "' has an unsupported format tag");

    CampaignJobPlan plan;
    plan.programs = splitList(get("programs"), ';');
    plan.options.numConfigs =
        static_cast<std::size_t>(getU64("configs"));
    plan.options.traceLength =
        static_cast<std::size_t>(getU64("trace_len"));
    plan.options.warmupInstructions =
        static_cast<std::size_t>(getU64("warmup"));
    plan.options.configSeed = getU64("seed");
    // Rebind the artifact directory to wherever the plan actually
    // lives, so a run directory can be moved or mounted elsewhere.
    plan.options.cacheDir =
        std::filesystem::path(path).parent_path().string();
    if (plan.options.cacheDir.empty())
        plan.options.cacheDir = ".";
    plan.trainSims = static_cast<std::size_t>(getU64("train"));
    plan.responses = static_cast<std::size_t>(getU64("responses"));
    const std::string &newProgram = get("new_program");
    plan.newProgram = newProgram == "-" ? "" : newProgram;
    if (get("campaign") != plan.key())
        throw JobError("plan file '" + path +
                       "' campaign key does not match its parameters");
    plan.validate();
    return plan;
}

void
CampaignJobPlan::validate() const
{
    auto require = [](bool ok, const std::string &why) {
        if (!ok)
            throw JobError("invalid campaign job plan: " + why);
    };
    require(!programs.empty(), "no programs");
    std::unordered_set<std::string> seen;
    for (const auto &name : programs)
        require(seen.insert(name).second,
                "duplicate program '" + name + "'");
    require(options.numConfigs > 0, "no configurations");
    if (trains()) {
        require(responses > 0, "training plan without responses");
        // T + R <= N, written so that no sum can wrap.
        require(responses <= options.numConfigs &&
                    trainSims <= options.numConfigs - responses,
                "T+R exceeds the campaign's configurations");
        require(seen.contains(newProgram),
                "new_program is not in the program set");
        require(!trainPrograms().empty(),
                "no training programs besides new_program");
    } else {
        require(responses == 0 && newProgram.empty(),
                "simulate-only plan with responses or a new program");
    }
}

CampaignJobRunner::CampaignJobRunner(CampaignJobPlan plan)
    : plan_(std::move(plan))
{
    plan_.validate();
}

CampaignJobRunner::~CampaignJobRunner() = default;

Campaign &
CampaignJobRunner::campaign()
{
    if (!campaign_)
        campaign_ = std::make_unique<Campaign>(plan_.programs,
                                               plan_.options);
    return *campaign_;
}

bool
CampaignJobRunner::done(const JobSpec &spec) const
{
    if (spec.kind == "simulate-shard") {
        // A one-program campaign shares the plan campaign's store
        // prefix and sampled configurations, so it reads exactly this
        // program's block.
        Campaign single({spec.arg}, plan_.options);
        return single.loadCacheRowsFrom(single.cachePath()) ==
               single.numCells();
    }
    try {
        loadArtifact(plan_.artifactPath());
        return true;
    } catch (const SerializationError &) {
        return false; // missing or damaged
    }
}

bool
CampaignJobRunner::execute(const JobSpec &spec)
{
    const obs::TraceSpan span(obs::Registry::global(),
                              "jobs/execute");
    // An intact output is the deterministic ground truth: never
    // rewrite it.
    if (done(spec))
        return false;
    // Fault injection (tests only): die at a job boundary, the last
    // computed output landed and its lock still held, once this process
    // has computed that many jobs (ACDSE_JOBS_KILL_AFTER=<k>); with
    // k = 0 before its first.
    const std::size_t killAfter = killAfterJobs();
    if (computed_ >= killAfter)
        ::raise(SIGKILL);
    if (spec.kind == "simulate-shard")
        runSimulateShard(spec.arg, spec.id);
    else
        runTrainAndFit();
    if (++computed_ >= killAfter)
        ::raise(SIGKILL);
    return true;
}

void
CampaignJobRunner::runSimulateShard(const std::string &program,
                                    const std::string &jobId)
{
    // A one-program campaign shares the plan campaign's store prefix
    // and sampled configurations, so its saveCache() writes exactly
    // this program's block, and no other, straight into the store.
    Campaign single({program}, plan_.options);
    std::vector<std::size_t> cells(single.numCells());
    std::iota(cells.begin(), cells.end(), std::size_t{0});
    single.computeCells(cells, killInHook(jobId));
    single.saveCache();
}

void
CampaignJobRunner::runTrainAndFit()
{
    loadStore();
    const Campaign &c = campaign();
    const std::vector<std::string> names = plan_.trainPrograms();
    const std::vector<std::size_t> trainIdx = plan_.trainIdx();
    const std::vector<std::size_t> responseIdx = plan_.responseIdx();
    const std::size_t newIdx = c.programIndex(plan_.newProgram);
    for (const auto &name : names)
        requireCells(c.programIndex(name), trainIdx, "train-and-fit");
    requireCells(newIdx, responseIdx, "train-and-fit");

    // trainOffline's member builder, options and stage names, so the
    // ensembles are bit-identical to the in-process ones. Each member
    // is a pure function of its own training set, written to its own
    // slot, so training every (metric, program) member across the
    // pool cannot change a bit. Stages are interned before the fan-out
    // so the workers only touch registered (wait-free) stages.
    const std::size_t programs = names.size();
    std::vector<obs::Stage *> stages(programs);
    for (std::size_t p = 0; p < programs; ++p) {
        stages[p] = &obs::Registry::global().stage(
            "train/program/" + std::to_string(p));
    }
    const std::vector<MicroarchConfig> configs = c.configsAt(trainIdx);
    // members[m * programs + p]: metric m's model of names[p].
    std::vector<std::shared_ptr<const ProgramSpecificPredictor>> members(
        kNumMetrics * programs);
    ThreadPool::global().parallelFor(
        0, members.size(), [&](std::size_t task) {
            const std::size_t p = task % programs;
            const obs::TraceSpan span(*stages[p]);
            members[task] = trainEnsembleMember(
                ArchCentricOptions{}.programModel, configs,
                c.metricAt(c.programIndex(names[p]),
                           static_cast<Metric>(task / programs),
                           trainIdx));
        });

    ModelArtifact artifact;
    artifact.setTag(artifactTag(plan_));
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        const Metric metric = static_cast<Metric>(m);
        const auto first = members.begin() + m * programs;
        ArchitectureCentricPredictor predictor;
        predictor.useModels(names, {first, first + programs});
        predictor.fitResponses(c.configsAt(responseIdx),
                               c.metricAt(newIdx, metric, responseIdx));
        artifact.add(metric, std::move(predictor));
    }
    saveArtifact(plan_.artifactPath(), artifact);
}

void
CampaignJobRunner::loadStore()
{
    Campaign &c = campaign();
    c.loadCacheRowsFrom(c.cachePath());
}

void
CampaignJobRunner::requireCells(
    std::size_t programIdx, const std::vector<std::size_t> &configIdx,
    const char *what) const
{
    ACDSE_CHECK(campaign_, "requireCells before campaign()");
    for (const std::size_t config : configIdx) {
        const std::size_t cell =
            programIdx * plan_.options.numConfigs + config;
        if (!campaign_->cellComputed(cell)) {
            throw JobError(std::string(what) +
                           " needs cell " + std::to_string(cell) +
                           " but no intact campaign block provides it");
        }
    }
}

void
CampaignJobRunner::drain()
{
    drainJobs(plan_.jobs(), plan_.prefix(),
              [this](const JobSpec &spec) { return execute(spec); });
}

void
CampaignJobRunner::runInProcess()
{
    Campaign &c = campaign();
    c.ensureComputed();
    if (!plan_.trains())
        return;

    const std::size_t newIdx = c.programIndex(plan_.newProgram);
    const std::vector<std::size_t> trainIdx = plan_.trainIdx();
    const std::vector<std::size_t> responseIdx = plan_.responseIdx();
    ModelArtifact artifact;
    artifact.setTag(artifactTag(plan_));
    for (const Metric metric : kAllMetrics) {
        std::vector<ProgramTrainingSet> sets;
        for (const auto &name : plan_.trainPrograms()) {
            sets.push_back({name, c.configsAt(trainIdx),
                            c.metricAt(c.programIndex(name), metric,
                                       trainIdx)});
        }
        ArchitectureCentricPredictor predictor;
        predictor.trainOffline(sets);
        predictor.fitResponses(
            c.configsAt(responseIdx),
            c.metricAt(newIdx, metric, responseIdx));
        artifact.add(metric, std::move(predictor));
    }
    saveArtifact(plan_.artifactPath(), artifact);
}

} // namespace acdse::jobs
