/**
 * @file
 * The simulation campaign: the paper's 3,000 uniformly-sampled
 * configurations simulated for every benchmark (Section 3.3), here with
 * a configurable sample count, multithreaded execution and a disk cache
 * so every experiment binary reuses one set of simulations.
 *
 * Scaling knobs (environment variables, all optional):
 *  - ACDSE_CONFIGS     sampled configurations   (default 800)
 *  - ACDSE_TRACE_LEN   timed instructions       (default 16000)
 *  - ACDSE_WARMUP      warm-up instructions     (default 4000)
 *  - ACDSE_CACHE_DIR   cache file directory     (default ".")
 *  - ACDSE_THREADS     worker threads           (default hw parallelism)
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/microarch_config.hh"
#include "base/csv.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"

namespace acdse
{

/** Campaign parameters. */
struct CampaignOptions
{
    std::size_t numConfigs = 800;      //!< sampled configurations
    std::size_t traceLength = 16000;   //!< timed instructions / program
    std::size_t warmupInstructions = 4000; //!< untimed warm-up prefix
    std::uint64_t configSeed = 0xac5e'0001; //!< sampling seed
    std::string cacheDir = ".";        //!< where the cache file lives
    /**
     * Explicit worker count; 0 uses the shared ThreadPool sizing rule
     * (ACDSE_THREADS, else hardware concurrency -- base/thread_pool).
     */
    std::size_t threads = 0;
    bool quiet = false;                //!< suppress progress messages

    /** Defaults with any ACDSE_* environment overrides applied. */
    static CampaignOptions fromEnvironment();
};

/**
 * A (programs x configurations) matrix of simulated Metrics.
 *
 * Results are computed lazily on first access (all missing cells in one
 * parallel batch) and persisted to a CSV cache keyed by the campaign
 * parameters, so repeated bench/example runs cost seconds, not minutes.
 * Each program's trace is only an input to the fill: a fill that
 * simulates any cell of a program decodes its trace and drops it, so
 * the campaign keeps results, not traces (see trace()).
 */
class Campaign
{
  public:
    /**
     * @param programs benchmark names (must exist in the suites).
     * @param options  sampling/simulation parameters.
     */
    Campaign(std::vector<std::string> programs, CampaignOptions options);

    /** Campaign over both full suites with environment options. */
    static Campaign standard();

    /** The sampled configurations (same for every program). */
    const std::vector<MicroarchConfig> &configs() const
    {
        return configs_;
    }

    /** The benchmark names, in row order. */
    const std::vector<std::string> &programs() const { return programs_; }

    /** Index of a program by name; panics if absent. */
    std::size_t programIndex(const std::string &name) const;

    /** Simulate/load everything that is still missing. */
    void ensureComputed();

    /** Metrics of one (program, configuration) cell. */
    const Metrics &result(std::size_t programIdx,
                          std::size_t configIdx) const;

    /** One metric across all configurations for one program. */
    std::vector<double> metricRow(std::size_t programIdx,
                                  Metric metric) const;

    /**
     * One metric for a subset of configurations (by index) -- used to
     * assemble training sets and responses.
     */
    std::vector<double> metricAt(std::size_t programIdx, Metric metric,
                                 const std::vector<std::size_t> &idx) const;

    /** Configurations for a subset of indices. */
    std::vector<MicroarchConfig> configsAt(
        const std::vector<std::size_t> &idx) const;

    /** The options this campaign runs with. */
    const CampaignOptions &options() const { return options_; }

    /**
     * The generated trace for one program. It is cached until a fill
     * (computeCells(), ensureComputed()) simulates any cell of the
     * program, which drops it; a later call regenerates it,
     * bit-identical because generation is deterministic. The returned
     * reference therefore stays valid only until the next fill that
     * simulates that program.
     */
    const Trace &trace(std::size_t programIdx);

    /** Whether the campaign currently caches @p programIdx's trace. */
    bool holdsTrace(std::size_t programIdx) const;

    // -- Cell-level interface (used by the job system, src/jobs) -----
    //
    // A cell is one (program, configuration) pair, row-major:
    // cell = program * configs().size() + config. The job runner
    // shards the cell range, computes shards in worker processes and
    // feeds results back through storeCell()/loadCacheRowsFrom(), so
    // everything here must keep bit-identical semantics with
    // ensureComputed()'s own fill path.

    /** Total number of (program, configuration) cells. */
    std::size_t numCells() const { return results_.size(); }

    /** Whether one cell has a computed/loaded result. */
    bool cellComputed(std::size_t cell) const;

    /** The metrics of one computed cell. */
    const Metrics &cellResult(std::size_t cell) const;

    /** Store an externally computed result for one cell. */
    void storeCell(std::size_t cell, const Metrics &metrics);

    /**
     * Simulate exactly the given cells (already-computed ones are
     * skipped). Tiling, batching and thread count cannot change any
     * result, so computing the full pending set in one call or cell
     * subsets across many calls/processes yields identical metrics.
     *
     * @param progress if set, called after each completed tile with
     *        the cumulative number of cells finished by this call.
     *        Invoked from worker threads (possibly concurrently);
     *        keep it cheap and thread-safe.
     */
    void computeCells(const std::vector<std::size_t> &cells,
                      const std::function<void(std::size_t)> &progress =
                          {});

    /**
     * The campaign identity string: every sampling/simulation
     * parameter plus a hash of the program set. Two campaigns agree on
     * every cell's meaning iff their keys are equal, so job-system
     * artifacts (journal, shard checkpoints, plans) embed this key in
     * their file names to keep concurrent runs with different
     * parameters in one ACDSE_CACHE_DIR from colliding.
     */
    std::string cacheKey() const;

    /**
     * The shared campaign cache CSV path for these options. Its name
     * carries numericsFingerprint(), so caches written by a simulator
     * with other numerics are never read.
     */
    std::string cachePath() const;

    /**
     * Fingerprint of the campaign numerics: an FNV-1a hash of the
     * result bits of a tiny fixed simulation set (2000 instructions of
     * one suite program on the baseline and on one more config, with
     * and without warmup). A change to trace generation or the
     * simulator that moves any of those bits changes it. Computed once
     * per process.
     */
    static std::uint64_t numericsFingerprint();

    /**
     * Load result rows from any campaign-cache-format CSV at @p path
     * (the shared cache or a shard checkpoint). Rows for unknown
     * programs/configs and malformed rows are skipped -- cache rows
     * are disposable memos. @return the number of cells filled in.
     */
    std::size_t loadCacheRowsFrom(const std::string &path);

    /**
     * Cache-format rows (header + %.17g formatting, byte-identical to
     * what saveCache() writes) for the computed cells among @p cells,
     * in the given order. Shard checkpoints are written through this
     * so a cache assembled from shards matches an uninterrupted run
     * byte for byte.
     */
    CsvFile cacheRows(const std::vector<std::size_t> &cells) const;

    /** Merge all computed cells into the shared cache, atomically. */
    void saveCache() const;

    /** See campaignCacheKey() -- the static form of cacheKey(). */
    static std::string cacheKeyFor(
        const std::vector<std::string> &programs,
        const CampaignOptions &options);

  private:
    bool loadCache();

    CampaignOptions options_;
    std::vector<std::string> programs_;
    std::vector<MicroarchConfig> configs_;
    std::vector<Metrics> results_;      //!< row-major [program][config]
    // Per-cell validity. Deliberately vector<char>, not vector<bool>:
    // worker threads write distinct cells concurrently, and
    // vector<bool> packs bits into shared words (a data race).
    std::vector<char> computed_;
    /** Cached traces, dropped by any fill that simulates the program. */
    std::vector<std::unique_ptr<Trace>> traces_;
    bool allComputed_ = false;
};

} // namespace acdse

