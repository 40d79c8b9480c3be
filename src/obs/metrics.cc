#include "obs/metrics.hh"

#include <algorithm>
#include <chrono>

#include "base/check.hh"

namespace acdse::obs
{

std::size_t
shardIndex() noexcept
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx & (kShards - 1);
}

std::uint64_t
nowNs() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
Counter::value() const noexcept
{
    std::uint64_t total = 0;
    for (const Slot &slot : slots_)
        total += slot.value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset() noexcept
{
    for (Slot &slot : slots_)
        slot.value.store(0, std::memory_order_relaxed);
}

namespace
{

/** Relaxed atomic min/max folds for the histogram extrema. */
void
atomicMin(std::atomic<std::uint64_t> &target, std::uint64_t value)
{
    std::uint64_t seen = target.load(std::memory_order_relaxed);
    while (value < seen &&
           !target.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<std::uint64_t> &target, std::uint64_t value)
{
    std::uint64_t seen = target.load(std::memory_order_relaxed);
    while (value > seen &&
           !target.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::record(std::uint64_t value) noexcept
{
    Shard &shard = shards_[shardIndex()];
    shard.buckets[bucketOf(value)].fetch_add(1,
                                             std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    atomicMin(shard.min, value);
    atomicMax(shard.max, value);
}

HistogramSnapshot
Histogram::read() const noexcept
{
    HistogramSnapshot out;
    std::uint64_t min = ~std::uint64_t{0};
    for (const Shard &shard : shards_) {
        out.count += shard.count.load(std::memory_order_relaxed);
        out.sum += shard.sum.load(std::memory_order_relaxed);
        min = std::min(min, shard.min.load(std::memory_order_relaxed));
        out.max = std::max(out.max,
                           shard.max.load(std::memory_order_relaxed));
        for (std::size_t b = 0; b < kBuckets; ++b) {
            out.buckets[b] +=
                shard.buckets[b].load(std::memory_order_relaxed);
        }
    }
    out.min = out.count ? min : 0;
    return out;
}

void
Histogram::reset() noexcept
{
    for (Shard &shard : shards_) {
        for (auto &bucket : shard.buckets)
            bucket.store(0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        shard.sum.store(0, std::memory_order_relaxed);
        shard.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
        shard.max.store(0, std::memory_order_relaxed);
    }
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    // Nearest-rank target, then linear interpolation across the
    // samples of the bucket the rank lands in.
    const std::uint64_t rank = static_cast<std::uint64_t>(
        clamped * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        if (seen + buckets[b] > rank) {
            const double low = static_cast<double>(
                Histogram::bucketLow(b));
            const double high = static_cast<double>(
                Histogram::bucketHigh(b));
            const double within =
                static_cast<double>(rank - seen) /
                static_cast<double>(buckets[b]);
            return low + within * (high - low);
        }
        seen += buckets[b];
    }
    return static_cast<double>(max);
}

namespace
{

/** splitmix64 finaliser: the deterministic randomness Algorithm R
 *  draws per sample ordinal (see Reservoir's class comment). */
std::uint64_t
splitmix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
Reservoir::record(std::uint64_t value) noexcept
{
    const std::uint64_t n =
        count_.fetch_add(1, std::memory_order_relaxed);
    if (n < kReservoirCapacity) {
        samples_[n].store(value, std::memory_order_relaxed);
        return;
    }
    // Algorithm R: sample n replaces a random slot with probability
    // capacity / (n + 1), keeping every stream position equally
    // likely to be retained.
    const std::uint64_t r = splitmix64(n) % (n + 1);
    if (r < kReservoirCapacity)
        samples_[r].store(value, std::memory_order_relaxed);
}

ReservoirSnapshot
Reservoir::read() const
{
    ReservoirSnapshot out;
    out.count = count_.load(std::memory_order_relaxed);
    const std::size_t kept =
        out.count < kReservoirCapacity
            ? static_cast<std::size_t>(out.count)
            : kReservoirCapacity;
    out.samples.reserve(kept);
    for (std::size_t i = 0; i < kept; ++i)
        out.samples.push_back(
            samples_[i].load(std::memory_order_relaxed));
    std::sort(out.samples.begin(), out.samples.end());
    return out;
}

void
Reservoir::reset() noexcept
{
    count_.store(0, std::memory_order_relaxed);
    for (auto &sample : samples_)
        sample.store(0, std::memory_order_relaxed);
}

std::uint64_t
ReservoirSnapshot::quantile(double q) const
{
    if (samples.empty())
        return 0;
    const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    const std::size_t rank = static_cast<std::size_t>(
        clamped * static_cast<double>(samples.size() - 1));
    return samples[rank];
}

void
Stage::reset() noexcept
{
    spans_.reset();
    totalNs_.reset();
    childNs_.reset();
    spanNs_.reset();
}

void
Snapshot::merge(const Snapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, value] : other.gauges)
        gauges[name] = value;
    for (const auto &[name, hist] : other.histograms) {
        HistogramSnapshot &mine = histograms[name];
        const bool was_empty = mine.count == 0;
        mine.count += hist.count;
        mine.sum += hist.sum;
        if (hist.count) {
            mine.min = was_empty ? hist.min
                                 : std::min(mine.min, hist.min);
            mine.max = std::max(mine.max, hist.max);
        }
        for (std::size_t b = 0; b < kBuckets; ++b)
            mine.buckets[b] += hist.buckets[b];
    }
    for (const auto &[name, res] : other.reservoirs) {
        ReservoirSnapshot &mine = reservoirs[name];
        mine.count += res.count;
        mine.samples.insert(mine.samples.end(), res.samples.begin(),
                            res.samples.end());
        std::sort(mine.samples.begin(), mine.samples.end());
        if (mine.samples.size() > Reservoir::kReservoirCapacity) {
            // Keep a uniform stride of the union so the merged
            // quantiles stay representative of both inputs.
            std::vector<std::uint64_t> kept;
            kept.reserve(Reservoir::kReservoirCapacity);
            const std::size_t n = mine.samples.size();
            for (std::size_t i = 0;
                 i < Reservoir::kReservoirCapacity; ++i)
                kept.push_back(
                    mine.samples[i * n /
                                 Reservoir::kReservoirCapacity]);
            mine.samples = std::move(kept);
        }
    }
    for (const auto &[name, stage] : other.stages) {
        StageSnapshot &mine = stages[name];
        mine.count += stage.count;
        mine.totalNs += stage.totalNs;
        mine.childNs += stage.childNs;
        const bool was_empty = mine.spans.count == 0;
        mine.spans.count += stage.spans.count;
        mine.spans.sum += stage.spans.sum;
        if (stage.spans.count) {
            mine.spans.min = was_empty
                                 ? stage.spans.min
                                 : std::min(mine.spans.min,
                                            stage.spans.min);
            mine.spans.max =
                std::max(mine.spans.max, stage.spans.max);
        }
        for (std::size_t b = 0; b < kBuckets; ++b)
            mine.spans.buckets[b] += stage.spans.buckets[b];
    }
}

namespace
{

HistogramSnapshot
diffHistogram(const HistogramSnapshot *before,
              const HistogramSnapshot &after)
{
    HistogramSnapshot out = after;
    if (before) {
        out.count -= before->count;
        out.sum -= before->sum;
        for (std::size_t b = 0; b < kBuckets; ++b)
            out.buckets[b] -= before->buckets[b];
        // min/max stay 'after' lifetime extrema (see header).
        if (out.count == 0) {
            out.min = 0;
            out.max = 0;
        }
    }
    return out;
}

} // namespace

Snapshot
diff(const Snapshot &before, const Snapshot &after)
{
    Snapshot out;
    for (const auto &[name, value] : after.counters) {
        const auto it = before.counters.find(name);
        out.counters[name] =
            value - (it == before.counters.end() ? 0 : it->second);
    }
    out.gauges = after.gauges;
    for (const auto &[name, hist] : after.histograms) {
        const auto it = before.histograms.find(name);
        out.histograms[name] = diffHistogram(
            it == before.histograms.end() ? nullptr : &it->second,
            hist);
    }
    for (const auto &[name, res] : after.reservoirs) {
        const auto it = before.reservoirs.find(name);
        ReservoirSnapshot delta = res; // samples stay 'after' (header)
        if (it != before.reservoirs.end())
            delta.count -= it->second.count;
        out.reservoirs[name] = std::move(delta);
    }
    for (const auto &[name, stage] : after.stages) {
        const auto it = before.stages.find(name);
        StageSnapshot delta = stage;
        if (it != before.stages.end()) {
            delta.count -= it->second.count;
            delta.totalNs -= it->second.totalNs;
            delta.childNs -= it->second.childNs;
            delta.spans =
                diffHistogram(&it->second.spans, stage.spans);
        }
        out.stages[name] = delta;
    }
    return out;
}

Registry &
Registry::global()
{
    // Leaked on purpose: see the file comment.
    static Registry *registry = // NOLINT(acdse-local-static)
        new Registry;
    return *registry;
}

void
Registry::checkUnique(std::string_view name, int kind) const
{
    // Caller holds mutex_ exclusively. Kind: 0 counter, 1 gauge,
    // 2 histogram, 3 stage, 4 reservoir. A name must not be
    // re-interned as a different kind.
    ACDSE_CHECK(kind == 0 || !counters_.contains(name), "metric '",
                std::string(name),
                "' already registered as a counter");
    ACDSE_CHECK(kind == 1 || !gauges_.contains(name), "metric '",
                std::string(name), "' already registered as a gauge");
    ACDSE_CHECK(kind == 2 || !histograms_.contains(name), "metric '",
                std::string(name),
                "' already registered as a histogram");
    ACDSE_CHECK(kind == 3 || !stages_.contains(name), "metric '",
                std::string(name), "' already registered as a stage");
    ACDSE_CHECK(kind == 4 || !reservoirs_.contains(name), "metric '",
                std::string(name),
                "' already registered as a reservoir");
}

Counter &
Registry::counter(std::string_view name)
{
    {
        ReaderLock lock(mutex_);
        if (const auto it = counters_.find(name);
            it != counters_.end())
            return *it->second;
    }
    WriterLock lock(mutex_);
    checkUnique(name, 0);
    auto &slot = counters_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(std::string_view name)
{
    {
        ReaderLock lock(mutex_);
        if (const auto it = gauges_.find(name); it != gauges_.end())
            return *it->second;
    }
    WriterLock lock(mutex_);
    checkUnique(name, 1);
    auto &slot = gauges_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(std::string_view name)
{
    {
        ReaderLock lock(mutex_);
        if (const auto it = histograms_.find(name);
            it != histograms_.end())
            return *it->second;
    }
    WriterLock lock(mutex_);
    checkUnique(name, 2);
    auto &slot = histograms_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

Reservoir &
Registry::reservoir(std::string_view name)
{
    {
        ReaderLock lock(mutex_);
        if (const auto it = reservoirs_.find(name);
            it != reservoirs_.end())
            return *it->second;
    }
    WriterLock lock(mutex_);
    checkUnique(name, 4);
    auto &slot = reservoirs_[std::string(name)];
    if (!slot)
        slot = std::make_unique<Reservoir>();
    return *slot;
}

Stage &
Registry::stage(std::string_view path)
{
    {
        ReaderLock lock(mutex_);
        if (const auto it = stages_.find(path); it != stages_.end())
            return *it->second;
    }
    WriterLock lock(mutex_);
    checkUnique(path, 3);
    auto &slot = stages_[std::string(path)];
    if (!slot)
        slot = std::make_unique<Stage>(std::string(path));
    return *slot;
}

Snapshot
Registry::snapshot() const
{
    ReaderLock lock(mutex_);
    Snapshot out;
    for (const auto &[name, counter] : counters_)
        out.counters[name] = counter->value();
    for (const auto &[name, gauge] : gauges_)
        out.gauges[name] = gauge->value();
    for (const auto &[name, histogram] : histograms_)
        out.histograms[name] = histogram->read();
    for (const auto &[name, res] : reservoirs_)
        out.reservoirs[name] = res->read();
    for (const auto &[name, stage] : stages_) {
        StageSnapshot snap;
        snap.count = stage->spans().value();
        snap.totalNs = stage->totalNs().value();
        snap.childNs = stage->childNs().value();
        snap.spans = stage->spanNs().read();
        out.stages[name] = snap;
    }
    return out;
}

void
Registry::reset()
{
    ReaderLock lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, gauge] : gauges_)
        gauge->reset();
    for (const auto &[name, histogram] : histograms_)
        histogram->reset();
    for (const auto &[name, res] : reservoirs_)
        res->reset();
    for (const auto &[name, stage] : stages_)
        stage->reset();
}

} // namespace acdse::obs
