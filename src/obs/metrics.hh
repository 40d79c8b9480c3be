/**
 * @file
 * The metrics registry: wait-free counters, gauges and log-bucketed
 * histograms for watching where the framework's time and simulations
 * go (see README "Observability").
 *
 * Design rules:
 *
 *  - Hot paths never block. Counter and Histogram shard their state
 *    into cache-line-padded per-thread slots updated with relaxed
 *    atomics; reads aggregate the shards. A reader racing writers sees
 *    a momentarily inconsistent but monotone view, which is fine for
 *    statistics and clean under TSan.
 *
 *  - Registration is cold. Registry::counter()/gauge()/histogram()/
 *    stage() intern by name under a shared_mutex and return references
 *    with stable addresses; instrumented code looks its metrics up
 *    once (static reference, constructor) and then only touches the
 *    wait-free primitives.
 *
 *  - Always on: there is no build without instrumentation. Its cost
 *    is a few relaxed atomics per event, and every bench floor holds
 *    with it.
 *
 *  - The global registry is deliberately leaked (never destroyed):
 *    worker threads of static thread pools may record metrics during
 *    process teardown, after function-local statics with destructors
 *    would already be gone.
 */

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/sync.hh"

namespace acdse::obs
{

/** Always true: kept for callers that record it in run provenance. */
inline constexpr bool kEnabled = true;

/** Slots per sharded metric; power of two. */
inline constexpr std::size_t kShards = 16;

/** Histogram buckets: one per power of two of a uint64 (plus zero). */
inline constexpr std::size_t kBuckets = 65;

/** This thread's shard slot (assigned round-robin on first use). */
std::size_t shardIndex() noexcept;

/** Monotonic wall clock in nanoseconds (steady_clock). */
std::uint64_t nowNs() noexcept;

/** A monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) noexcept
    {
        slots_[shardIndex()].value.fetch_add(n, std::memory_order_relaxed);
    }

    /** Aggregate over all shards. */
    std::uint64_t value() const noexcept;

    /** Zero every shard (not atomic with concurrent add()s). */
    void reset() noexcept;

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> value{0};
    };

    std::array<Slot, kShards> slots_{};
};

/** A signed instantaneous value (queue depth, models resident, ...). */
class Gauge
{
  public:
    void set(std::int64_t v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(std::int64_t delta) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Aggregated read of one Histogram (or a diff of two reads). */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; //!< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Approximate quantile @p q in [0, 1]: find the log2 bucket
     * holding the q-th sample and interpolate linearly inside it.
     * Bucket b > 0 spans [2^(b-1), 2^b - 1], so the answer is within
     * 2x of the exact sample value -- good enough for dashboards and
     * coarse gates; serving-latency SLOs use the exact Reservoir.
     */
    double quantile(double q) const;
};

/**
 * A fixed log2-bucketed distribution of uint64 samples (durations in
 * nanoseconds, batch sizes). Bucket b holds values in
 * [bucketLow(b), bucketHigh(b)]: bucket 0 is exactly {0}, bucket b>0
 * covers [2^(b-1), 2^b - 1].
 */
class Histogram
{
  public:
    void record(std::uint64_t value) noexcept;

    HistogramSnapshot read() const noexcept;

    void reset() noexcept;

    /** Bucket index of a value: 0 for 0, else 1 + floor(log2 v). */
    static std::size_t bucketOf(std::uint64_t value) noexcept
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    /** Inclusive lower edge of bucket @p b. */
    static std::uint64_t bucketLow(std::size_t b) noexcept
    {
        return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
    }

    /** Inclusive upper edge of bucket @p b. */
    static std::uint64_t bucketHigh(std::size_t b) noexcept
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> min{~std::uint64_t{0}};
        std::atomic<std::uint64_t> max{0};
    };

    std::array<Shard, kShards> shards_{};
};

/** Aggregated read of one Reservoir. */
struct ReservoirSnapshot
{
    std::uint64_t count = 0;            //!< samples offered (not kept)
    std::vector<std::uint64_t> samples; //!< retained sample, sorted

    /**
     * Exact nearest-rank quantile over the retained sample;
     * 0 when empty. With fewer offers than the reservoir capacity
     * this is the exact stream quantile; beyond that it is the
     * quantile of a uniform subsample (standard error ~1/sqrt(cap)).
     */
    std::uint64_t quantile(double q) const;
};

/**
 * A fixed-size uniform sample of a value stream for *exact* quantiles
 * -- the tail-latency complement to Histogram, whose log2 buckets can
 * only bound p99/p999 to a factor of two.
 *
 * Replacement is Algorithm R with the randomness derived from a
 * splitmix64 hash of the sample ordinal: deterministic (same stream
 * -> same reservoir, per the repo's reproducibility rule), unbiased
 * across positions, and wait-free (one fetch_add plus one relaxed
 * store; concurrent readers may observe a sample mid-replacement,
 * which yields a momentarily duplicated value, never a torn one).
 */
class Reservoir
{
  public:
    /** Retained samples; p999 of a full reservoir rests on ~4 points. */
    static constexpr std::size_t kReservoirCapacity = 4096;

    void record(std::uint64_t value) noexcept;

    ReservoirSnapshot read() const;

    void reset() noexcept;

  private:
    std::atomic<std::uint64_t> count_{0};
    std::array<std::atomic<std::uint64_t>, kReservoirCapacity>
        samples_{};
};

/**
 * One node of the stage tree: a named scope ("campaign/fill",
 * "train/program/3") that TraceSpans attribute wall time to. childNs
 * is the portion of totalNs spent inside nested spans *on the same
 * thread*, so totalNs - childNs is the stage's self time.
 */
class Stage
{
  public:
    explicit Stage(std::string path) : path_(std::move(path)) {}

    const std::string &path() const { return path_; }

    /** Fold one finished span in (called by ~TraceSpan). */
    void record(std::uint64_t totalNs, std::uint64_t childNs) noexcept
    {
        spans_.add(1);
        totalNs_.add(totalNs);
        childNs_.add(childNs);
        spanNs_.record(totalNs);
    }

    const Counter &spans() const { return spans_; }
    const Counter &totalNs() const { return totalNs_; }
    const Counter &childNs() const { return childNs_; }
    const Histogram &spanNs() const { return spanNs_; }

    void reset() noexcept;

  private:
    std::string path_;
    Counter spans_;   //!< spans completed
    Counter totalNs_; //!< summed inclusive wall time
    Counter childNs_; //!< wall time attributed to same-thread children
    Histogram spanNs_; //!< distribution of span durations
};

/** Aggregated read of one Stage (or a diff of two reads). */
struct StageSnapshot
{
    std::uint64_t count = 0;   //!< spans completed
    std::uint64_t totalNs = 0; //!< inclusive wall time
    std::uint64_t childNs = 0; //!< of which inside same-thread children
    HistogramSnapshot spans;   //!< span-duration distribution

    double totalMs() const
    {
        return static_cast<double>(totalNs) / 1e6;
    }

    /** Exclusive (self) time: inclusive minus same-thread children. */
    double selfMs() const
    {
        return static_cast<double>(totalNs - childNs) / 1e6;
    }
};

/** A consistent-enough point-in-time read of a whole Registry. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    std::map<std::string, ReservoirSnapshot> reservoirs;
    std::map<std::string, StageSnapshot> stages;

    /**
     * Fold @p other in: counters/histograms/stages with the same name
     * add up, gauges take the other's value. Used to combine the
     * global registry with a service's private one for export.
     */
    void merge(const Snapshot &other);
};

/**
 * Interval between two snapshots of the same registry: counters,
 * histogram counts/sums/buckets and stage times subtract; gauges keep
 * the @p after value; histogram min/max keep the @p after values
 * (extrema cannot be un-merged and stay lifetime extrema); reservoirs
 * keep the @p after sample wholesale (individual samples cannot be
 * subtracted) with only the offer count differenced.
 */
Snapshot diff(const Snapshot &before, const Snapshot &after);

/**
 * A named collection of metrics. One leaked global() instance carries
 * the library-wide stage tree and pool counters; subsystems that need
 * isolated, resettable stats (PredictionService) own their own
 * instance.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry (never destroyed; see file comment). */
    static Registry &global();

    /** Intern a metric by name; a name has exactly one kind. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);
    Reservoir &reservoir(std::string_view name);
    Stage &stage(std::string_view path);

    /** Aggregate everything registered so far. */
    Snapshot snapshot() const;

    /** Zero every registered metric (names stay interned). */
    void reset();

  private:
    /** Panics if @p name is already interned with another kind. */
    void checkUnique(std::string_view name, int kind) const
        ACDSE_REQUIRES(mutex_);

    mutable SharedMutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_ ACDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
        ACDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_ ACDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Reservoir>, std::less<>>
        reservoirs_ ACDSE_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Stage>, std::less<>> stages_
        ACDSE_GUARDED_BY(mutex_);
};

} // namespace acdse::obs
