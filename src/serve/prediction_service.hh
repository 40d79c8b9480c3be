/**
 * @file
 * The prediction server: design-space queries against versioned model
 * artifacts, with two request paths and zero-downtime model swaps.
 *
 * One query is a 13-parameter MicroarchConfig; the answer is the
 * predicted value of every metric the serving artifact carries
 * (cycles, energy, ED, EDD), stamped with the model version that
 * produced it.
 *
 * Request paths:
 *
 *  - predict(): the synchronous batch path for an in-process batch
 *    whose rows may each name a different tenant. The rows are
 *    ordered by tenant once and split into fixed-size chunks,
 *    parallelFor()d across the service's ThreadPool; every chunk
 *    writes disjoint rows, which is both lock-free and
 *    bit-deterministic at any thread count. There is no batch lock:
 *    concurrent callers share the pool.
 *
 *  - submit()/AsyncBatch: the ingest path for many concurrent
 *    producers of single requests. Each request travels a bounded
 *    lock-free MPSC ring (serve/ring_buffer.hh) to a dedicated
 *    drainer thread. Both paths score each tenant's run of rows
 *    through one routine and batch scorer, predictRows(): each
 *    SIMD block, a short run's padded tail included, is transposed
 *    once for all metrics, so results are bit-identical to per-point
 *    prediction. A full ring fails submit() with
 *    SubmitStatus::QueueFull immediately (typed load-shedding, never
 *    unbounded queueing), counted under serve/shed.
 *
 * Hot swap: models live in a ModelRegistry (serve/model_table.hh).
 * publish() atomically replaces a tenant's model; batches in flight
 * finish on the snapshot they pinned, new batches see the new
 * version, and no request fails or blocks across the swap. Multiple
 * tenants map independently to models; per-tenant served-point
 * counters appear as serve/tenant/<name>/points.
 *
 * Per-batch latency, lifetime throughput and per-request latency
 * (log2 histogram + exact-quantile reservoir) are kept so a
 * deployment can watch the serving path (statsSnapshot(),
 * bench/bench_serve_latency.cc).
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/microarch_config.hh"
#include "base/sync.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "serve/model_store.hh"
#include "serve/model_table.hh"
#include "serve/ring_buffer.hh"
#include "sim/metrics.hh"

namespace acdse
{

/**
 * Prediction-service tuning parameters. The batch geometry is not
 * among them: predict() splits a batch into 64-point chunks and runs
 * batches of at most 128 points inline, and the drainer folds at most
 * 256 requests into one scoring pass (kChunk, kInlineBelow and
 * kDrainBatch in prediction_service.cc).
 */
struct ServeOptions
{
    /**
     * Total serving parallelism; 0 resolves through
     * ThreadPool::resolveThreads (ACDSE_THREADS, else hardware).
     */
    std::size_t threads = 0;

    /**
     * Ingest ring capacity in requests (rounded up to a power of
     * two). A full ring rejects submit() with QueueFull -- size it
     * for the burst you want to absorb, not the backlog you want to
     * hide.
     */
    std::size_t maxQueue = std::size_t{1} << 14;

    /**
     * Spin the drainer thread up on construction. A process that
     * never calls submit() (acdse-serve, which serves every row
     * through predict()) sets this false, and so do tests that need a
     * deterministic ingest schedule (e.g. proving QueueFull fires):
     * they pump the queue with drainOnce().
     */
    bool startDrainer = true;
};

/** Predictions for one query point, indexed by Metric. */
struct PredictionRow
{
    /** Predicted values; NaN for metrics absent from the artifact. */
    std::array<double, kNumMetrics> values;

    /** Value for one metric (NaN if the artifact lacks it). */
    double get(Metric metric) const
    {
        return values[static_cast<std::size_t>(metric)];
    }
};

/** Outcome of one submit() call (the async ingest path). */
enum class SubmitStatus
{
    Accepted,      //!< enqueued; the row arrives via AsyncBatch::wait
    QueueFull,     //!< ring full: request shed, nothing enqueued
    UnknownTenant, //!< tenant id was never registered
};

class PredictionService;

/**
 * The completion handle for one producer's in-flight requests on the
 * async path: the producer submit()s up to capacity() requests
 * against it, wait()s, then reads rows() and versions().
 *
 * Layout: one heap block holds capacity() rows followed by
 * capacity() version stamps, so a handle costs its 24-byte object
 * plus a single allocation of 40 bytes per row.
 *
 * Thread model: one producer per batch. submit() bookkeeping on the
 * batch is deliberately unsynchronised between producers (each
 * producer owns its own AsyncBatch); completion travels from the
 * drainer with release/acquire on the pending count, so after wait()
 * returns every row and version stamp is visible. A batch must not be
 * destroyed with requests in flight (wait() first); it may be
 * reset() and reused.
 */
class AsyncBatch
{
  public:
    /** @param capacity most requests this handle can carry at once. */
    explicit AsyncBatch(std::size_t capacity);

    AsyncBatch(const AsyncBatch &) = delete;
    AsyncBatch &operator=(const AsyncBatch &) = delete;

    /** Most requests this handle can carry between resets. */
    std::size_t capacity() const { return capacity_; }

    /** Requests accepted against this handle since the last reset. */
    std::size_t submitted() const { return submitted_; }

    /** Requests accepted but not yet completed by the drainer. */
    std::size_t inFlight() const
    {
        return pending_.load(std::memory_order_acquire);
    }

    /** Block until every accepted request has completed. */
    void wait() const;

    /**
     * Result rows, indexed by submission order. Valid for indices
     * < submitted() once wait() returned.
     */
    std::span<const PredictionRow> rows() const
    {
        return {rowData(), capacity_};
    }

    /** The model version that served each row (0 = no model). */
    std::span<const std::uint64_t> versions() const
    {
        return {versionData(), capacity_};
    }

    /** Forget completed results and start a fresh round of submits. */
    void reset();

  private:
    friend class PredictionService;

    /** The block's first capacity_ entries: the result rows. */
    PredictionRow *rowData() const
    {
        return std::launder(
            reinterpret_cast<PredictionRow *>(block_.get()));
    }

    /** The version stamps, stored right after the rows. */
    std::uint64_t *versionData() const
    {
        return std::launder(reinterpret_cast<std::uint64_t *>(
            block_.get() + capacity_ * sizeof(PredictionRow)));
    }

    /** capacity_ rows, then capacity_ versions. */
    std::unique_ptr<std::byte[]> block_;

    std::uint32_t capacity_ = 0;

    /** Producer-side cursor: next row index to hand out. */
    std::uint32_t submitted_ = 0;

    /**
     * Requests enqueued but not yet completed. The drainer's final
     * fetch_sub(release) pairs with the waiter's acquire loads, which
     * is what publishes the rows and versions back to the producer.
     */
    std::atomic<std::uint32_t> pending_{0};
};

static_assert(sizeof(AsyncBatch) <= 32,
              "a completion handle is one pointer and three counters");

/**
 * One queued request travelling the ingest ring from a producer
 * thread to the drainer. With the ring's sequence word it fills
 * exactly one cache line per slot.
 */
struct ServeRequest
{
    AsyncBatch *batch = nullptr; //!< completion handle
    std::uint32_t index = 0;     //!< row slot within the batch
    TenantId tenant = 0;         //!< model routing key
    std::uint64_t enqueuedNs = 0; //!< submit timestamp (latency)
    MicroarchConfig config{};    //!< the query point
};

static_assert(sizeof(ServeRequest) <= 56,
              "a request leaves room for the ring's sequence word");
static_assert(MpscRing<ServeRequest>::slotBytes() == kCacheLine,
              "one ring slot per cache line");

/**
 * A running prediction server over versioned, hot-swappable model
 * artifacts.
 *
 * Thread model: the service owns a ThreadPool that parallelises
 * *within* one predict() batch; concurrent predict() callers each run
 * their own parallelFor() on it (the artifacts are shared read-only,
 * and every batch writes only its own rows). predict() and submit()
 * are safe from any number of threads concurrently with everything
 * else, including publish(). The drainer thread is the ring's single
 * consumer; destruction stops it, drains the ring to completion (no
 * accepted request is ever dropped) and joins.
 */
class PredictionService
{
  public:
    /** Serve an in-memory artifact (published as the default tenant). */
    explicit PredictionService(ModelArtifact artifact,
                               ServeOptions options = {});

    /**
     * Load an artifact file and serve it.
     * @throws SerializationError if the file fails integrity checks.
     */
    static PredictionService fromFile(const std::string &path,
                                      ServeOptions options = {});

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    ~PredictionService();

    /**
     * The model currently serving @p tenant (never null for the
     * default tenant; null for a registered tenant with no publish
     * yet). The returned epoch snapshot stays valid -- and
     * bit-stable -- however many publishes happen after it.
     */
    std::shared_ptr<const ServedModel>
    model(TenantId tenant = kDefaultTenant) const;

    /** The metrics the default tenant's model predicts. */
    std::vector<Metric> metrics() const;

    /** Register a tenant (idempotent by name); see ModelRegistry. */
    TenantId registerTenant(const std::string &name);

    /** The id for @p name, or ModelRegistry::kInvalidTenant. */
    TenantId findTenant(const std::string &name) const;

    /**
     * Hot-swap @p tenant's model. Returns the new registry-global
     * version. In-flight batches finish on the model they pinned; no
     * request fails or blocks. Panics on an invalid artifact.
     */
    std::uint64_t publish(TenantId tenant, ModelArtifact artifact);

    /** The most recently assigned model version. */
    std::uint64_t currentVersion() const
    {
        return models_.currentVersion();
    }

    /** Number of pool workers (excluding the calling thread). */
    std::size_t poolThreads() const { return pool_.workers(); }

    /** Ingest ring capacity (power of two; see ServeOptions). */
    std::size_t queueCapacity() const { return ring_.capacity(); }

    /**
     * Predict every metric for a batch of query points, one row per
     * query in order; row i is served by tenants[i]'s model (an empty
     * @p tenants means the default tenant for every row). One model
     * snapshot serves the whole call (a concurrent publish() takes
     * effect on the next), and @p versions, when not null, receives
     * each row's version. A tenant with nothing published gets NaN
     * rows and version 0, as on the drain; an unregistered id panics.
     */
    std::vector<PredictionRow> predict(
        const std::vector<MicroarchConfig> &queries,
        std::span<const TenantId> tenants = {},
        std::vector<std::uint64_t> *versions = nullptr);

    /**
     * Enqueue one query on the async ingest path. On Accepted the
     * result lands in @p batch at row index batch.submitted()-1 once
     * the drainer completes it (AsyncBatch::wait). QueueFull and
     * UnknownTenant reject without blocking and leave @p batch
     * unchanged. Safe from any thread; one producer per AsyncBatch.
     */
    SubmitStatus submit(AsyncBatch &batch, TenantId tenant,
                        const MicroarchConfig &query);

    /** submit() for the default tenant. */
    SubmitStatus submit(AsyncBatch &batch, const MicroarchConfig &query)
    {
        return submit(batch, kDefaultTenant, query);
    }

    /**
     * Drain up to one drain batch (256) of queued requests on the
     * calling thread; returns the number served. Only legal with
     * startDrainer=false (CHECKed): it exists so tests can pump the
     * ingest path deterministically. A warm call does not allocate.
     */
    std::size_t drainOnce();

    /** Zero the serving counters (e.g. after a warm-up run). */
    void resetStats();

    /**
     * Full snapshot of the service's private metrics registry:
     * serve/batch, serve/chunk and serve/drain stages (the serve/batch
     * stage counts predict() batches; its span histogram holds exact
     * min/max latencies), the serve/points, serve/requests (accepted)
     * and serve/shed (QueueFull) counters, per-tenant counters, and
     * the request-latency histogram + reservoir. Callers merge this
     * with the global registry's snapshot for export.
     */
    obs::Snapshot statsSnapshot() const;

    /**
     * Exact per-request latency quantile in milliseconds from the
     * async path's reservoir (0 when no async requests were served).
     * @p q in [0, 1].
     */
    double requestLatencyQuantileMs(double q) const;

  private:
    /** Fold one finished batch into the registry. */
    void recordBatch(std::size_t points, std::uint64_t elapsedNs);

    /** The drainer thread: pop, batch, predict, complete, repeat. */
    void drainLoop();

    /** Pop up to one drain batch of requests and serve them. */
    std::size_t popAndServe();

    /** Serve @p count drained requests against the current table. */
    void serveDrained(const ServeRequest *requests, std::size_t count);

    /** Drainer-side cache of the per-tenant served-point counters. */
    obs::Counter &tenantCounter(TenantId tenant);

    ServeOptions options_;
    ModelRegistry models_;
    ThreadPool pool_;

    // Serving metrics: a private registry (declared before the
    // references into it) so per-service stats stay isolated from the
    // global registry and resettable.
    obs::Registry registry_;
    obs::Stage &batchStage_;
    obs::Stage &chunkStage_;
    obs::Stage &drainStage_;
    obs::Counter &pointsServed_;
    obs::Counter &requestsAccepted_;
    obs::Counter &requestsShed_;
    obs::Histogram &batchPoints_;
    obs::Histogram &requestLatencyNs_;
    obs::Reservoir &latencyReservoir_;

    // The async ingest path: producers push, the drainer pops.
    MpscRing<ServeRequest> ring_;
    std::atomic<bool> stop_{false};

    /**
     * Set by the drainer just before parking on drainCv_; submit()
     * only takes the wake-up lock when it observes the flag, so the
     * steady-state producer path stays lock-free. The park is bounded
     * (CondVar::waitFor), so a lost wake-up costs one deadline, never
     * a hang.
     */
    std::atomic<bool> sleeping_{false};
    Mutex drainMutex_;
    CondVar drainCv_;

    /**
     * Drainer-thread-only: tenant id -> interned per-tenant counter.
     * Not guarded -- single-thread access by construction (the
     * drainer, or the drainOnce() caller when startDrainer=false).
     */
    std::vector<obs::Counter *> tenantPoints_;

    /**
     * The consumer role's reusable buffers (popped requests, grouping
     * keys, scoring scratch), so a warm drain does not allocate.
     * Owned like tenantPoints_: the drainer thread while it runs, else
     * the drainOnce() caller; the destructor touches them only after
     * joining the drainer, which hands the role to its own thread.
     */
    struct DrainScratch;
    std::unique_ptr<DrainScratch> drainScratch_;

    std::thread drainer_;
};

} // namespace acdse
