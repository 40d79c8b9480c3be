#include "serve/prediction_service.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <span>

#include "base/check.hh"
#include "base/logging.hh"
#include "obs/trace_span.hh"

namespace acdse
{

namespace
{

/**
 * Idle polls the drainer spins through an empty ring before parking
 * on the condvar. Spinning keeps tail latency flat under steady load;
 * parking keeps an idle service off the scheduler.
 */
constexpr int kDrainSpinPolls = 256;

/** Bounded park interval; a lost wake-up costs at most this. */
constexpr std::uint64_t kDrainParkNs = 1'000'000; // 1 ms

/** Most requests the drainer folds into one prediction batch. */
constexpr std::size_t kDrainBatch = 256;

/**
 * Query points per predict() work unit: small enough to balance load
 * across workers, large enough that the per-chunk claim is amortised
 * away.
 */
constexpr std::size_t kChunk = 64;

/**
 * predict() batches of at most this many points run inline on the
 * calling thread: waking the pool costs more than the work itself.
 */
constexpr std::size_t kInlineBelow = 128;

/** Buffers for scoreTenantRuns(), reused across one call's runs. */
struct ScoreScratch
{
    std::vector<double> features; //!< row-major query features
    std::vector<double> out;      //!< metric-major predictions
    BatchPredictScratch batch;
};

/**
 * Order rows [0, keys.size()) by tenant into sorted (tenant << 32 |
 * row) keys: each tenant's rows form one run, in row order.
 */
template <typename TenantAt>
void
orderByTenant(std::span<std::uint64_t> keys, TenantAt &&tenant)
{
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = (std::uint64_t{tenant(i)} << 32) | i;
    std::sort(keys.begin(), keys.end());
}

/**
 * The one tenant-grouping scorer, behind predict() and the drain: each
 * run of one tenant in @p keys (a stretch of orderByTenant()'s output)
 * is one predictRows() pass over its model in @p table, bit-identical
 * to per-point prediction at any run length. row(r) gets query(r)'s
 * values (NaN for metrics the artifact lacks, or for a tenant with
 * nothing published) and version(r) the model's version (0 if none);
 * onRun(tenant, n) is told each run's size.
 */
template <typename QueryAt, typename RowAt, typename VersionAt,
          typename OnRun>
void
scoreTenantRuns(const ModelTable &table,
                std::span<const std::uint64_t> keys, QueryAt &&query,
                RowAt &&row, VersionAt &&version, OnRun &&onRun,
                ScoreScratch &scratch)
{
    for (std::size_t begin = 0, end = 0; begin < keys.size();
         begin = end) {
        const auto tenant = static_cast<TenantId>(keys[begin] >> 32);
        end = std::lower_bound(keys.begin() + begin, keys.end(),
                               (std::uint64_t{tenant} + 1) << 32) -
              keys.begin();
        const std::size_t n = end - begin;
        const auto at = [&](std::size_t i) {
            return static_cast<std::uint32_t>(keys[begin + i]);
        };
        const ServedModel *served = table.modelFor(tenant);
        for (std::size_t i = 0; i < n; ++i) {
            row(at(i)).values.fill(std::numeric_limits<double>::quiet_NaN());
            version(at(i)) = served != nullptr ? served->version : 0;
        }
        onRun(tenant, n);
        if (served == nullptr)
            continue;

        scratch.features.resize(n * kNumParams);
        for (std::size_t i = 0; i < n; ++i)
            query(at(i)).featuresInto(&scratch.features[i * kNumParams]);
        // An artifact holds at most one entry per metric.
        const auto &entries = served->artifact.entries();
        std::array<const ArchitectureCentricPredictor *, kNumMetrics>
            predictors{};
        for (std::size_t k = 0; k < entries.size(); ++k)
            predictors[k] = &entries[k].predictor;
        scratch.out.resize(entries.size() * n);
        predictRows({predictors.data(), entries.size()},
                    scratch.features.data(), n, scratch.out.data(),
                    scratch.batch);
        for (std::size_t k = 0; k < entries.size(); ++k) {
            const auto metric = static_cast<std::size_t>(entries[k].metric);
            for (std::size_t i = 0; i < n; ++i)
                row(at(i)).values[metric] = scratch.out[k * n + i];
        }
    }
}

} // namespace

struct PredictionService::DrainScratch
{
    DrainScratch() : requests(kDrainBatch) { order.reserve(kDrainBatch); }

    std::vector<ServeRequest> requests; //!< popInto() target
    std::vector<std::uint64_t> order;   //!< orderByTenant() keys
    ScoreScratch score;
};

AsyncBatch::AsyncBatch(std::size_t capacity)
{
    ACDSE_CHECK(capacity > 0, "AsyncBatch needs a positive capacity");
    ACDSE_CHECK(capacity <= std::numeric_limits<std::uint32_t>::max(),
                "AsyncBatch capacity ", capacity, " overflows the ",
                "pending counter");
    capacity_ = static_cast<std::uint32_t>(capacity);
    block_ = std::make_unique_for_overwrite<std::byte[]>(
        capacity * (sizeof(PredictionRow) + sizeof(std::uint64_t)));
    std::uninitialized_value_construct_n(
        reinterpret_cast<PredictionRow *>(block_.get()), capacity);
    std::uninitialized_value_construct_n(
        reinterpret_cast<std::uint64_t *>(
            block_.get() + capacity * sizeof(PredictionRow)),
        capacity);
}

void
AsyncBatch::wait() const
{
    // The drainer only notifies when pending reaches zero, and zero is
    // the only value a waiter cares about, so the loop cannot miss its
    // wake-up; the acquire load pairs with the drainer's release
    // decrement and publishes the completed rows.
    std::uint32_t pending = pending_.load(std::memory_order_acquire);
    while (pending != 0) {
        pending_.wait(pending, std::memory_order_acquire);
        pending = pending_.load(std::memory_order_acquire);
    }
}

void
AsyncBatch::reset()
{
    ACDSE_CHECK(pending_.load(std::memory_order_acquire) == 0,
                "reset() with requests in flight; wait() first");
    submitted_ = 0;
    std::fill_n(versionData(), capacity_, std::uint64_t{0});
}

PredictionService::PredictionService(ModelArtifact artifact,
                                     ServeOptions options)
    : options_(std::move(options)), pool_(options_.threads),
      batchStage_(registry_.stage("serve/batch")),
      chunkStage_(registry_.stage("serve/chunk")),
      drainStage_(registry_.stage("serve/drain")),
      pointsServed_(registry_.counter("serve/points")),
      requestsAccepted_(registry_.counter("serve/requests")),
      requestsShed_(registry_.counter("serve/shed")),
      batchPoints_(registry_.histogram("serve/batch-points")),
      requestLatencyNs_(registry_.histogram("serve/request-latency-ns")),
      latencyReservoir_(registry_.reservoir("serve/request-latency")),
      ring_(options_.maxQueue),
      drainScratch_(std::make_unique<DrainScratch>())
{
    const TenantId tenant = models_.registerTenant("default");
    ACDSE_CHECK(tenant == kDefaultTenant,
                "default tenant must get id 0");
    models_.publish(kDefaultTenant, std::move(artifact));
    if (options_.startDrainer)
        drainer_ = std::thread([this] { drainLoop(); });
}

PredictionService::~PredictionService()
{
    stop_.store(true, std::memory_order_release);
    if (drainer_.joinable()) {
        {
            MutexLock lock(drainMutex_);
            drainCv_.notifyAll();
        }
        // drainLoop() drains the ring to empty after observing stop_,
        // so every accepted request completes before the join.
        drainer_.join();
    } else {
        // Manual-drain mode: complete what tests left queued so no
        // AsyncBatch outlives its rows with pending_ stuck non-zero.
        while (popAndServe() != 0) {
        }
    }
}

PredictionService
PredictionService::fromFile(const std::string &path, ServeOptions options)
{
    return PredictionService(loadArtifact(path), options);
}

std::shared_ptr<const ServedModel>
PredictionService::model(TenantId tenant) const
{
    return models_.table()->modelPtr(tenant);
}

std::vector<Metric>
PredictionService::metrics() const
{
    return model(kDefaultTenant)->artifact.metrics();
}

TenantId
PredictionService::registerTenant(const std::string &name)
{
    return models_.registerTenant(name);
}

TenantId
PredictionService::findTenant(const std::string &name) const
{
    return models_.findTenant(name);
}

std::uint64_t
PredictionService::publish(TenantId tenant, ModelArtifact artifact)
{
    return models_.publish(tenant, std::move(artifact));
}

std::vector<PredictionRow>
PredictionService::predict(const std::vector<MicroarchConfig> &queries,
                           std::span<const TenantId> tenants,
                           std::vector<std::uint64_t> *versions)
{
    const std::size_t n = queries.size();
    ACDSE_CHECK(tenants.empty() || tenants.size() == n, "predict() got ",
                tenants.size(), " tenants for ", n, " queries");
    ACDSE_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
                "predict() batch of ", n, " rows overflows a row key");
    const std::uint64_t start = obs::nowNs();

    // Pin one model snapshot for the whole call: a concurrent
    // publish() swaps the *next* call, never splits this one.
    const std::shared_ptr<const ModelTable> table = models_.table();
    std::vector<std::uint64_t> ownVersions;
    std::vector<std::uint64_t> &version =
        versions != nullptr ? *versions : ownVersions;
    version.resize(n);
    std::vector<PredictionRow> rows(n);
    if (n == 0)
        return rows;

    std::vector<std::uint64_t> keys(n);
    orderByTenant(keys, [&](std::size_t i) {
        return tenants.empty() ? kDefaultTenant : tenants[i];
    });
    // The largest id sorts last.
    ACDSE_CHECK((keys.back() >> 32) < table->tenantCount(),
                "predict() for tenant ", keys.back() >> 32,
                ", which was never registered");
    const std::vector<std::string> names = models_.tenantNames();
    const auto score = [&](std::size_t begin, std::size_t end) {
        ScoreScratch scratch;
        scoreTenantRuns(
            *table, std::span(keys).subspan(begin, end - begin),
            [&](std::size_t i) -> const MicroarchConfig & {
                return queries[i];
            },
            [&](std::size_t i) -> PredictionRow & { return rows[i]; },
            [&](std::size_t i) -> std::uint64_t & { return version[i]; },
            [&](TenantId tenant, std::size_t points) {
                registry_
                    .counter("serve/tenant/" + names[tenant] + "/points")
                    .add(points);
            },
            scratch);
    };
    if (pool_.workers() == 0 || n <= kInlineBelow) {
        score(0, n);
    } else {
        // Chunks of the ordered rows write disjoint rows, so the result
        // is identical at every thread count; parallelFor blocks until
        // the last chunk finished, so nothing the chunks touch outlives
        // the workers touching it.
        pool_.parallelFor(0, (n + kChunk - 1) / kChunk,
                          [&](std::size_t chunk) {
                              const obs::TraceSpan chunkSpan(chunkStage_);
                              const std::size_t begin = chunk * kChunk;
                              score(begin, std::min(begin + kChunk, n));
                          });
    }

    recordBatch(n, obs::nowNs() - start);
    return rows;
}

SubmitStatus
PredictionService::submit(AsyncBatch &batch, TenantId tenant,
                          const MicroarchConfig &query)
{
    if (tenant >= models_.tenantCount())
        return SubmitStatus::UnknownTenant;
    ACDSE_CHECK(batch.submitted_ < batch.capacity_,
                "AsyncBatch over capacity: wait() and reset() first");

    ServeRequest request;
    request.batch = &batch;
    request.index = batch.submitted_;
    request.tenant = tenant;
    request.enqueuedNs = obs::nowNs();
    request.config = query;

    // Raise pending before the push: the drainer may complete the
    // request before tryPush even returns, and the decrement must
    // never observe zero.
    batch.pending_.fetch_add(1, std::memory_order_relaxed);
    if (!ring_.tryPush(request)) {
        batch.pending_.fetch_sub(1, std::memory_order_relaxed);
        requestsShed_.add();
        return SubmitStatus::QueueFull;
    }
    batch.submitted_++;
    requestsAccepted_.add();

    // Only pay for the lock when the drainer actually parked; the
    // bounded park (kDrainParkNs) covers the race where it sets
    // sleeping_ after this load.
    if (sleeping_.load(std::memory_order_relaxed)) {
        MutexLock lock(drainMutex_);
        drainCv_.notifyOne();
    }
    return SubmitStatus::Accepted;
}

std::size_t
PredictionService::drainOnce()
{
    ACDSE_CHECK(!options_.startDrainer,
                "drainOnce() requires startDrainer=false; the drainer "
                "thread owns the consumer role otherwise");
    return popAndServe();
}

std::size_t
PredictionService::popAndServe()
{
    std::vector<ServeRequest> &requests = drainScratch_->requests;
    const std::size_t n = ring_.popInto(requests.data(), requests.size());
    if (n != 0)
        serveDrained(requests.data(), n);
    return n;
}

void
PredictionService::drainLoop()
{
    int idlePolls = 0;
    while (true) {
        if (popAndServe() != 0) {
            idlePolls = 0;
            continue;
        }
        if (stop_.load(std::memory_order_acquire)) {
            // Producers observed by tryPush before our last pop are
            // all drained (n == 0 above); new submits after stop_ are
            // the destructor's race to lose, and it joins us only
            // after setting stop_, so nothing accepted is stranded.
            return;
        }
        if (++idlePolls < kDrainSpinPolls)
            continue;
        // Park with a bounded deadline: sleeping_ tells producers to
        // nudge us, the deadline covers the set-after-check race.
        sleeping_.store(true, std::memory_order_relaxed);
        {
            MutexLock lock(drainMutex_);
            drainCv_.waitFor(drainMutex_, kDrainParkNs);
        }
        sleeping_.store(false, std::memory_order_relaxed);
        idlePolls = 0;
    }
}

obs::Counter &
PredictionService::tenantCounter(TenantId tenant)
{
    // Drainer-thread-only cache; registry interning is the slow path
    // taken once per tenant.
    if (tenant >= tenantPoints_.size())
        tenantPoints_.resize(tenant + 1, nullptr);
    if (tenantPoints_[tenant] == nullptr) {
        const std::vector<std::string> names = models_.tenantNames();
        ACDSE_CHECK(tenant < names.size(), "tenant ", tenant,
                    " has no registered name");
        tenantPoints_[tenant] = &registry_.counter(
            "serve/tenant/" + names[tenant] + "/points");
    }
    return *tenantPoints_[tenant];
}

void
PredictionService::serveDrained(const ServeRequest *requests,
                                std::size_t count)
{
    const std::uint64_t start = obs::nowNs();

    // One snapshot copy pins the model epoch for every request in this
    // drain; the shared_ptr keeps superseded models alive until the
    // last such pin drops (serve/model_table.hh).
    const std::shared_ptr<const ModelTable> table = models_.table();

    std::vector<std::uint64_t> &keys = drainScratch_->order;
    keys.resize(count);
    orderByTenant(keys,
                  [&](std::size_t i) { return requests[i].tenant; });
    scoreTenantRuns(
        *table, keys,
        [&](std::size_t i) -> const MicroarchConfig & {
            return requests[i].config;
        },
        [&](std::size_t i) -> PredictionRow & {
            return requests[i].batch->rowData()[requests[i].index];
        },
        [&](std::size_t i) -> std::uint64_t & {
            return requests[i].batch->versionData()[requests[i].index];
        },
        [&](TenantId tenant, std::size_t n) {
            tenantCounter(tenant).add(n);
        },
        drainScratch_->score);

    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t latency =
            obs::nowNs() - requests[i].enqueuedNs;
        requestLatencyNs_.record(latency);
        latencyReservoir_.record(latency);
    }
    pointsServed_.add(count);
    // The drain ran entirely on this thread but interleaves with
    // popInto bookkeeping; record the stage directly (no TraceSpan in
    // the drain loop).
    drainStage_.record(obs::nowNs() - start, 0);

    // Complete every request: the release decrement publishes the row
    // and version to the producer's acquire in AsyncBatch::wait().
    for (std::size_t i = 0; i < count; ++i) {
        const ServeRequest &req = requests[i];
        if (req.batch->pending_.fetch_sub(
                1, std::memory_order_release) == 1)
            req.batch->pending_.notify_all();
    }
}

void
PredictionService::recordBatch(std::size_t points,
                               std::uint64_t elapsedNs)
{
    // The batch ran partly on pool workers, so no same-thread child
    // time can be attributed; record it directly on the stage.
    batchStage_.record(elapsedNs, 0);
    pointsServed_.add(points);
    batchPoints_.record(points);
}

void
PredictionService::resetStats()
{
    registry_.reset();
}

obs::Snapshot
PredictionService::statsSnapshot() const
{
    return registry_.snapshot();
}

double
PredictionService::requestLatencyQuantileMs(double q) const
{
    const obs::ReservoirSnapshot sample = latencyReservoir_.read();
    return static_cast<double>(sample.quantile(q)) / 1e6;
}

} // namespace acdse
