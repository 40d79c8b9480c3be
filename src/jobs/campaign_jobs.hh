/**
 * @file
 * The campaign job server: campaign fill and offline training
 * restructured as typed, idempotent, crash-safe jobs, drained through
 * per-job file locks (jobs/drain.hh) by every process running the
 * plan, each job parallel across that process's ThreadPool.
 *
 * A CampaignJobPlan is the complete, persisted description of one
 * run: the campaign parameters and the training/response split, T
 * training configurations `[0, T)` per training program and R
 * responses `[T, T+R)` of the new program (the paper's offline and
 * online phases). A training plan models every metric. It expands to
 * two phases of jobs:
 *
 *   phase 0  simulate-shard   one job per program; writes the
 *                             program's block into the campaign store,
 *                             `<store>.<prog>.cells` (core/campaign.hh)
 *   phase 1  train-and-fit    one job, id `fit`; trains every
 *                             (training program, metric) ensemble
 *                             member across the pool, fits the
 *                             target's responses per metric and writes
 *                             the model artifact `<prefix>.acdse`
 *
 * Simulation is the costly part of a run, so it is the part cut into
 * per-program jobs; training and the fit are cheap next to it and are
 * redone whole if a run dies before the artifact lands.
 *
 * Every file a job writes has one framing, sealBytes()
 * (base/binary_io.hh): magic, version, payload size and checksum. The
 * campaign blocks carry their own magic, and `<prefix>.acdse` is an
 * ordinary model-store artifact (serve/model_store.hh) that
 * acdse-serve and acdse-explore load as is. The campaign blocks are
 * the shared store that Campaign::ensureComputed() reads, so once the
 * jobs drain there is nothing to merge.
 *
 * The outputs are the one record of progress: a job is done exactly
 * when its output exists and passes its checksum (done()). Every
 * output lands via atomic rename, and a block or artifact that fails
 * its checksum counts as not done and is recomputed, never reused. So
 * jobs are idempotent: a SIGKILL at *any* point loses at most
 * in-flight work, and re-executing after resume reproduces the same
 * bytes (simulation and training are deterministic).
 *
 * `<prefix>` embeds the simulator numerics fingerprint
 * (Campaign::numericsFingerprint) and the campaign cache key -- every
 * sampling parameter plus a hash of the program set -- so runs with
 * other numerics, seeds or program sets in one ACDSE_CACHE_DIR can
 * never collide on plan, locks or artifacts. The store's blocks need
 * no program-set key: a block holds one program's cells, which any
 * campaign over the same parameters shares.
 *
 * Bit-identity contract, enforced by the crash suite: the campaign
 * blocks and the model artifact produced by (a) an uninterrupted job
 * run and (b) a killed-and-resumed job run are byte-identical, and so
 * are the blocks and the artifact that
 * CampaignJobRunner::runInProcess() (the in-process
 * Campaign::ensureComputed + trainOffline path) writes.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "jobs/drain.hh"

namespace acdse::jobs
{

/**
 * The persisted description of one campaign job run. The plan file
 * holds what defines the jobs and their outputs; options.quiet is the
 * running process's, never persisted.
 */
struct CampaignJobPlan
{
    std::vector<std::string> programs; //!< all simulated programs
    CampaignOptions options;           //!< campaign parameters
    std::size_t trainSims = 0; //!< T: configs `[0, T)` train the ANNs
    std::size_t responses = 0; //!< R: configs `[T, T+R)` fit the target
    std::string newProgram; //!< program whose responses are fitted

    /** Whether the plan trains models (else it is simulate-only). */
    bool trains() const { return trainSims > 0; }

    /** The training configuration indices, `[0, T)`. */
    std::vector<std::size_t> trainIdx() const;

    /** The response configuration indices, `[T, T+R)`. */
    std::vector<std::size_t> responseIdx() const;

    /** The held-out configuration indices, `[T+R, numConfigs)`. */
    std::vector<std::size_t> heldOutIdx() const;

    /** The training programs: every program except newProgram. */
    std::vector<std::string> trainPrograms() const;

    /**
     * The run identity key: the numerics fingerprint as hex, then
     * Campaign::cacheKeyFor.
     */
    std::string key() const;

    /**
     * FNV-1a hash of the canonical plan encoding, as hex: equal for
     * two plans exactly when they define the same jobs and outputs.
     */
    std::string planHash() const;

    /** Total (program, configuration) cells. */
    std::size_t numCells() const
    {
        return programs.size() * options.numConfigs;
    }

    /** The full job set, in drain order. */
    std::vector<JobSpec> jobs() const;

    /** @name Artifact paths (all under options.cacheDir). */
    /** @{ */
    std::string prefix() const;
    std::string planPath() const;
    std::string artifactPath() const; //!< the servable `.acdse`
    /** @} */

    /** Persist to planPath() atomically. */
    void save() const;

    /**
     * Load a plan saved by save(). The plan's cacheDir is rebound to
     * the directory @p path lives in, so a run directory can be
     * relocated wholesale. @throws JobError on a malformed file.
     */
    static CampaignJobPlan load(const std::string &path);

    /** Validate invariants (T+R within the campaign, program names). */
    void validate() const;
};

/**
 * Executes a plan's jobs. One runner per process; the held Campaign
 * accumulates the store's blocks across jobs, which only ever skips
 * recomputation (handlers stay idempotent).
 */
class CampaignJobRunner
{
  public:
    explicit CampaignJobRunner(CampaignJobPlan plan);
    ~CampaignJobRunner();

    const CampaignJobPlan &plan() const { return plan_; }

    /**
     * Whether @p spec's output exists and is intact: its campaign
     * block or the artifact loads and passes its checksum.
     * @p spec is one of plan().jobs().
     */
    bool done(const JobSpec &spec) const;

    /**
     * The drain's executor (jobs/drain.hh): return false at once when
     * @p spec is done(), else compute its output and return true.
     * Applies the fault-injection hooks to the computation:
     * ACDSE_JOBS_KILL_IN=<id>@<cells> raises SIGKILL inside that
     * simulate job, and ACDSE_JOBS_KILL_AFTER=<k> raises it once this
     * runner has computed k jobs. @throws JobError when an input the
     * job needs is missing; the drain ends, and the next run or
     * resume is the retry.
     */
    bool execute(const JobSpec &spec);

    /**
     * Drain every job of the plan through execute(), sharing the work
     * with any other process draining the same directory: computes
     * every output that is missing or damaged and keeps every intact
     * one.
     */
    void drain();

    /**
     * The equivalent computation without the job system: plain
     * Campaign::ensureComputed + ArchitectureCentricPredictor
     * trainOffline/fitResponses for every metric, writing the same
     * artifactPath().
     * Produces a byte-identical artifact to a drained job run.
     */
    void runInProcess();

    /** The runner's lazily-constructed campaign. */
    Campaign &campaign();

  private:
    void runSimulateShard(const std::string &program,
                          const std::string &jobId);
    /**
     * Train every training program's model of every metric, fit the
     * new program's responses and write the artifact.
     */
    void runTrainAndFit();

    /** Load every block of the campaign store into the campaign. */
    void loadStore();

    /** Require cells (program x configIdx) to be computed. */
    void requireCells(std::size_t programIdx,
                      const std::vector<std::size_t> &configIdx,
                      const char *what) const;

    CampaignJobPlan plan_;
    std::unique_ptr<Campaign> campaign_;
    std::size_t computed_ = 0; //!< jobs execute() computed
};

} // namespace acdse::jobs
