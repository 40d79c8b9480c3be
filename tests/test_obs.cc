/**
 * @file
 * Unit tests for the observability layer (src/obs): counter, gauge and
 * histogram exactness, log2 bucket edges, span nesting/attribution,
 * multi-thread aggregation (run under TSan via the Obs* name in the
 * sanitizer matrix), snapshot merge/diff algebra, the acdse-stats-v1
 * JSON round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "json_reader.hh"
#include "obs/metrics.hh"
#include "obs/stats_export.hh"
#include "obs/trace_span.hh"

namespace acdse::obs
{
namespace
{

TEST(ObsCounter, AddsExactly)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGauge, SetAndAdd)
{
    Gauge gauge;
    gauge.set(7);
    gauge.add(-10);
    EXPECT_EQ(gauge.value(), -3);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsHistogram, BucketEdges)
{
    // Bucket 0 is exactly {0}; bucket b>0 covers [2^(b-1), 2^b - 1].
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), 64u);

    for (std::size_t b = 0; b < kBuckets; ++b) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLow(b)), b);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHigh(b)), b);
    }
    EXPECT_EQ(Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Histogram::bucketHigh(64), ~std::uint64_t{0});
}

TEST(ObsHistogram, RecordsExactMoments)
{
    Histogram histogram;
    for (std::uint64_t v : {5u, 9u, 0u, 1000u})
        histogram.record(v);
    const HistogramSnapshot snap = histogram.read();
    EXPECT_EQ(snap.count, 4u);
    EXPECT_EQ(snap.sum, 1014u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 1000u);
    EXPECT_DOUBLE_EQ(snap.mean(), 1014.0 / 4.0);
    EXPECT_EQ(snap.buckets[0], 1u);                       // 0
    EXPECT_EQ(snap.buckets[Histogram::bucketOf(5)], 1u);  // 5
    EXPECT_EQ(snap.buckets[Histogram::bucketOf(9)], 1u);  // 9
    EXPECT_EQ(snap.buckets[10], 1u);                      // 1000
}

TEST(ObsHistogram, EmptyReadsZero)
{
    Histogram histogram;
    const HistogramSnapshot snap = histogram.read();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.min, 0u); // not the ~0 sentinel
    EXPECT_EQ(snap.max, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(ObsCounter, MultiThreadAggregationIsExact)
{
    // Sharded relaxed atomics must still add up exactly across
    // threads. This is the TSan witness for the whole wait-free path.
    Counter counter;
    Histogram histogram;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                counter.add(1);
                histogram.record(3);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    const HistogramSnapshot snap = histogram.read();
    EXPECT_EQ(snap.count, kThreads * kPerThread);
    EXPECT_EQ(snap.sum, 3u * kThreads * kPerThread);
    EXPECT_EQ(snap.min, 3u);
    EXPECT_EQ(snap.max, 3u);
}

TEST(ObsRegistry, InternsByName)
{
    Registry registry;
    Counter &a = registry.counter("x/count");
    Counter &b = registry.counter("x/count");
    EXPECT_EQ(&a, &b);
    Gauge &g = registry.gauge("x/depth");
    EXPECT_EQ(&g, &registry.gauge("x/depth"));
    Stage &s = registry.stage("x/stage");
    EXPECT_EQ(&s, &registry.stage("x/stage"));
    EXPECT_EQ(s.path(), "x/stage");
}

TEST(ObsRegistryDeathTest, RejectsKindCollision)
{
    Registry registry;
    registry.counter("name");
    EXPECT_DEATH(registry.gauge("name"), "already registered");
    EXPECT_DEATH(registry.histogram("name"), "already registered");
}

TEST(ObsRegistry, ResetZeroesButKeepsNames)
{
    Registry registry;
    registry.counter("c").add(5);
    registry.gauge("g").set(5);
    registry.histogram("h").record(5);
    registry.reset();
    const Snapshot snap = registry.snapshot();
    ASSERT_TRUE(snap.counters.contains("c"));
    EXPECT_EQ(snap.counters.at("c"), 0u);
    EXPECT_EQ(snap.gauges.at("g"), 0);
    EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(ObsTraceSpan, AttributesNestedTimeToParent)
{
    Registry registry;
    Stage &outer = registry.stage("t/outer");
    Stage &inner = registry.stage("t/inner");
    {
        const TraceSpan outerSpan(outer);
        EXPECT_EQ(TraceSpan::current()->stage(), &outer);
        {
            const TraceSpan innerSpan(inner);
            EXPECT_EQ(TraceSpan::current()->stage(), &inner);
        }
        EXPECT_EQ(TraceSpan::current()->stage(), &outer);
    }
    EXPECT_EQ(TraceSpan::current(), nullptr);

    const Snapshot snap = registry.snapshot();
    const StageSnapshot &outerSnap = snap.stages.at("t/outer");
    const StageSnapshot &innerSnap = snap.stages.at("t/inner");
    EXPECT_EQ(outerSnap.count, 1u);
    EXPECT_EQ(innerSnap.count, 1u);
    // The inner span's whole inclusive time was credited to the outer
    // span's child time, so outer self time excludes it...
    EXPECT_EQ(outerSnap.childNs, innerSnap.totalNs);
    // ...and inclusive nesting holds.
    EXPECT_GE(outerSnap.totalNs, innerSnap.totalNs);
    EXPECT_GE(outerSnap.selfMs(), 0.0);
    EXPECT_DOUBLE_EQ(outerSnap.totalMs(),
                     outerSnap.selfMs() +
                         static_cast<double>(outerSnap.childNs) / 1e6);
}

TEST(ObsTraceSpan, SiblingsAccumulate)
{
    Registry registry;
    Stage &stage = registry.stage("t/repeat");
    for (int i = 0; i < 3; ++i) {
        const TraceSpan span(stage);
    }
    const StageSnapshot snap = registry.snapshot().stages.at("t/repeat");
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.spans.count, 3u);
    EXPECT_GE(snap.spans.max, snap.spans.min);
}

TEST(ObsTraceSpan, SpansOnOtherThreadsHaveNoParent)
{
    Registry registry;
    Stage &outer = registry.stage("t/outer");
    Stage &worker = registry.stage("t/worker");
    {
        const TraceSpan outerSpan(outer);
        std::thread([&] {
            EXPECT_EQ(TraceSpan::current(), nullptr);
            const TraceSpan workerSpan(worker);
        }).join();
    }
    const Snapshot snap = registry.snapshot();
    // Cross-thread spans are deliberately not attributed as children.
    EXPECT_EQ(snap.stages.at("t/outer").childNs, 0u);
    EXPECT_EQ(snap.stages.at("t/worker").count, 1u);
}

TEST(ObsSnapshot, MergeAddsAndDiffSubtracts)
{
    Registry a;
    Registry b;
    a.counter("n").add(2);
    b.counter("n").add(3);
    b.counter("only-b").add(1);
    a.histogram("h").record(4);
    b.histogram("h").record(64);

    Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.counters.at("n"), 5u);
    EXPECT_EQ(merged.counters.at("only-b"), 1u);
    EXPECT_EQ(merged.histograms.at("h").count, 2u);
    EXPECT_EQ(merged.histograms.at("h").min, 4u);
    EXPECT_EQ(merged.histograms.at("h").max, 64u);

    const Snapshot before = b.snapshot();
    b.counter("n").add(10);
    b.histogram("h").record(8);
    const Snapshot delta = diff(before, b.snapshot());
    EXPECT_EQ(delta.counters.at("n"), 10u);
    EXPECT_EQ(delta.counters.at("only-b"), 0u);
    EXPECT_EQ(delta.histograms.at("h").count, 1u);
    EXPECT_EQ(delta.histograms.at("h").sum, 8u);
    EXPECT_EQ(
        delta.histograms.at("h").buckets[Histogram::bucketOf(8)],
        1u);
}

TEST(ObsExport, StatsJsonRoundTrips)
{
    Registry registry;
    registry.counter("work/items").add(12);
    registry.gauge("work/depth").set(-2);
    registry.histogram("work/ns").record(100);
    registry.histogram("work/ns").record(3000);
    Stage &stage_ref = registry.stage("work/stage");
    {
        const TraceSpan span(stage_ref);
    }

    const std::string json = statsToJson(registry.snapshot());
    const testjson::Value doc = testjson::parse(json);
    EXPECT_EQ(doc.at("schema").asString(), kStatsSchema);
    ASSERT_TRUE(doc.at("counters").isObject());
    ASSERT_TRUE(doc.at("gauges").isObject());
    ASSERT_TRUE(doc.at("histograms").isObject());
    ASSERT_TRUE(doc.at("stages").isObject());

    const double items = doc.at("counters").at("work/items").asNumber();
    const double depth = doc.at("gauges").at("work/depth").asNumber();
    const testjson::Value &hist = doc.at("histograms").at("work/ns");
    const testjson::Value &stage = doc.at("stages").at("work/stage");
    EXPECT_EQ(items, 12.0);
    EXPECT_EQ(depth, -2.0);
    EXPECT_EQ(hist.at("count").asNumber(), 2.0);
    EXPECT_EQ(hist.at("sum").asNumber(), 3100.0);
    EXPECT_EQ(hist.at("min").asNumber(), 100.0);
    EXPECT_EQ(hist.at("max").asNumber(), 3000.0);
    // Two occupied buckets, each with an inclusive upper edge that
    // contains its sample.
    ASSERT_EQ(hist.at("buckets").array.size(), 2u);
    EXPECT_GE(hist.at("buckets").array[0].at("le").asNumber(),
              100.0);
    EXPECT_EQ(stage.at("count").asNumber(), 1.0);
    EXPECT_GE(stage.at("total_ms").asNumber(), 0.0);
    EXPECT_GE(stage.at("total_ms").asNumber(),
              stage.at("self_ms").asNumber() - 1e-9);
}

TEST(ObsHistogram, QuantileInterpolatesWithinBuckets)
{
    Histogram hist;
    // 100 samples of 10 and one of 1000: the p50 lands inside the
    // bucket holding 10 and the p999 inside the bucket holding 1000.
    for (int i = 0; i < 100; ++i)
        hist.record(10);
    hist.record(1000);
    const HistogramSnapshot snap = hist.read();
    const double p50 = snap.quantile(0.50);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50,
              static_cast<double>(Histogram::bucketHigh(
                  Histogram::bucketOf(10))));
    const double p999 = snap.quantile(0.999);
    EXPECT_GT(p999, p50);
    EXPECT_LE(p999,
              static_cast<double>(Histogram::bucketHigh(
                  Histogram::bucketOf(1000))));
    // Degenerate edges.
    EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(ObsReservoir, ExactQuantilesBelowCapacity)
{
    Reservoir reservoir;
    // 1..1000 in a shuffled-ish order; fewer offers than capacity
    // (4096), so the sample is the exact stream.
    for (std::uint64_t i = 0; i < 1000; ++i)
        reservoir.record((i * 617) % 1000 + 1);
    const ReservoirSnapshot snap = reservoir.read();
    EXPECT_EQ(snap.count, 1000u);
    EXPECT_EQ(snap.samples.size(), 1000u);
    // Nearest-rank on the full stream is exact.
    EXPECT_EQ(snap.quantile(0.0), 1u);
    EXPECT_EQ(snap.quantile(1.0), 1000u);
    EXPECT_EQ(snap.quantile(0.5), 500u);
    EXPECT_EQ(snap.quantile(0.99), 990u);
}

TEST(ObsReservoir, DeterministicBeyondCapacityAndResettable)
{
    // Algorithm R with splitmix64(n) randomness: the retained sample
    // is a pure function of the offer sequence, so two identical runs
    // agree exactly (the repo's deterministic-rng rule).
    const std::size_t total = Reservoir::kReservoirCapacity * 3;
    auto fill = [&](Reservoir &reservoir) {
        for (std::uint64_t i = 0; i < total; ++i)
            reservoir.record(i);
    };
    Reservoir a;
    Reservoir b;
    fill(a);
    fill(b);
    const ReservoirSnapshot sa = a.read();
    const ReservoirSnapshot sb = b.read();
    EXPECT_EQ(sa.count, total);
    EXPECT_EQ(sa.samples.size(), Reservoir::kReservoirCapacity);
    EXPECT_EQ(sa.samples, sb.samples);
    // The subsample still spans the stream's range roughly.
    EXPECT_LT(sa.quantile(0.1), sa.quantile(0.9));
    a.reset();
    const ReservoirSnapshot cleared = a.read();
    EXPECT_EQ(cleared.count, 0u);
    EXPECT_TRUE(cleared.samples.empty());
}

TEST(ObsReservoir, RegistryInternsAndExports)
{
    Registry registry;
    Reservoir &res = registry.reservoir("lat");
    EXPECT_EQ(&res, &registry.reservoir("lat"));
    for (std::uint64_t i = 1; i <= 100; ++i)
        res.record(i * 1000);

    const Snapshot snap = registry.snapshot();
    const std::string json = statsToJson(snap);
    const testjson::Value doc = testjson::parse(json);
    ASSERT_TRUE(doc.at("reservoirs").isObject());
    const testjson::Value &exported = doc.at("reservoirs").at("lat");
    EXPECT_EQ(snap.reservoirs.at("lat").count, 100u);
    EXPECT_EQ(exported.at("count").asNumber(), 100.0);
    EXPECT_EQ(exported.at("retained").asNumber(), 100.0);
    EXPECT_EQ(exported.at("p50").asNumber(), 50000.0);
    EXPECT_EQ(exported.at("p99").asNumber(), 99000.0);
    EXPECT_GE(exported.at("p999").asNumber(),
              exported.at("p99").asNumber());
    // Histogram export now carries quantile keys too.
    Registry histReg;
    histReg.histogram("h").record(7);
    const testjson::Value hdoc = testjson::parse(
        statsToJson(histReg.snapshot()));
    EXPECT_GT(hdoc.at("histograms").at("h").at("p50").asNumber(),
              0.0);

    registry.reset();
    EXPECT_EQ(registry.reservoir("lat").read().count, 0u);
}

TEST(ObsSnapshot, ReservoirMergeAndDiff)
{
    Registry a;
    Registry b;
    for (std::uint64_t i = 0; i < 10; ++i)
        a.reservoir("r").record(100 + i);
    for (std::uint64_t i = 0; i < 5; ++i)
        b.reservoir("r").record(10000 + i);

    Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.reservoirs.at("r").count, 15u);
    EXPECT_EQ(merged.reservoirs.at("r").samples.size(), 15u);
    // Merged samples stay sorted for nearest-rank quantiles.
    EXPECT_TRUE(std::is_sorted(
        merged.reservoirs.at("r").samples.begin(),
        merged.reservoirs.at("r").samples.end()));

    const Snapshot before = b.snapshot();
    b.reservoir("r").record(20000);
    const Snapshot delta = diff(before, b.snapshot());
    // Reservoir diffs keep the after-sample; the count is the
    // true delta.
    EXPECT_EQ(delta.reservoirs.at("r").count, 1u);
    EXPECT_EQ(delta.reservoirs.at("r").samples.size(), 6u);
}

} // namespace
} // namespace acdse::obs
