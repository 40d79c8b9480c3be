/**
 * @file
 * Hot-swap acceptance tests: publishing a new model version while
 * requests are in flight loses no request, blocks no producer, and
 * every response is bit-identical to a direct prediction on the
 * version stamped into it. A churn test swaps continuously under
 * sustained load and asserts the versions one producer observes never
 * go backwards. These run under TSan and the Clang thread-safety
 * build in CI (suite name "HotSwap" is in both regexes).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "arch/design_space.hh"
#include "serve/prediction_service.hh"

namespace acdse
{
namespace
{

double
synthetic(const MicroarchConfig &config, double scale)
{
    return scale * (800.0 + 3000.0 / config.width() +
                    50.0 * static_cast<double>(config.robSize()) /
                        128.0);
}

ArchitectureCentricPredictor
trainedPredictor(double scale)
{
    const auto train = DesignSpace::sampleValidConfigs(48, 21);
    std::vector<ProgramTrainingSet> sets(2);
    for (int j = 0; j < 2; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train;
        for (const auto &c : train)
            sets[j].values.push_back(synthetic(c, scale + 0.1 * j));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    const auto rc = DesignSpace::sampleValidConfigs(12, 22);
    std::vector<double> responses;
    for (const auto &c : rc)
        responses.push_back(synthetic(c, scale));
    predictor.fitResponses(rc, responses);
    return predictor;
}

ModelArtifact
versionedArtifact(double scale)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor(scale));
    return artifact;
}

/**
 * Swap once while a producer keeps submitting: every request is
 * answered (none shed at this rate, none lost), and each answer is
 * bit-identical to a direct prediction on whichever artifact version
 * its stamp names.
 */
TEST(HotSwap, SwapUnderLoadIsLossFreeAndBitExact)
{
    const ModelArtifact v1 = versionedArtifact(1.0);
    const ModelArtifact v2 = versionedArtifact(2.0);

    ServeOptions options;
    options.threads = 1;
    PredictionService service(v1, options);
    EXPECT_EQ(service.currentVersion(), 1u);

    const auto queries = DesignSpace::sampleValidConfigs(64, 23);
    constexpr int kRounds = 200;
    // Sanitizer builds slow the drainer more than the swapper; keep
    // producing past kRounds (bounded) until a v2 answer arrives so
    // the test asserts the swap's effect, not a lucky schedule.
    constexpr int kMaxRounds = 50 * kRounds;

    std::atomic<bool> swapped{false};
    std::thread swapper([&] {
        // Let some pre-swap traffic through, then publish v2 once.
        // v2 is pre-trained: publish itself is the only work here.
        while (!swapped.load(std::memory_order_acquire))
            std::this_thread::yield();
        service.publish(kDefaultTenant, v2);
    });

    AsyncBatch batch(queries.size());
    std::uint64_t accepted = 0;
    bool sawV1 = false, sawV2 = false;
    for (int round = 0; round < kRounds || (!sawV2 && round < kMaxRounds);
         ++round) {
        if (round == kRounds / 4)
            swapped.store(true, std::memory_order_release);
        batch.reset();
        for (const auto &query : queries) {
            // The ring is far larger than one batch: nothing sheds,
            // and Accepted means the drainer *must* answer it.
            ASSERT_EQ(service.submit(batch, query),
                      SubmitStatus::Accepted);
            ++accepted;
        }
        batch.wait();
        ASSERT_EQ(batch.submitted(), queries.size());
        ASSERT_EQ(batch.inFlight(), 0u);
        for (std::size_t i = 0; i < queries.size(); ++i) {
            const std::uint64_t version = batch.versions()[i];
            ASSERT_TRUE(version == 1 || version == 2)
                << "round " << round << " row " << i;
            const ModelArtifact &expect = version == 1 ? v1 : v2;
            // Bit-identical to a direct call on the stamped version:
            // the swap never splits or corrupts a prediction.
            ASSERT_EQ(batch.rows()[i].get(Metric::Cycles),
                      expect.predictor(Metric::Cycles)
                          .predict(queries[i]))
                << "round " << round << " row " << i << " version "
                << version;
            (version == 1 ? sawV1 : sawV2) = true;
        }
    }
    swapper.join();

    // Zero requests failed or were shed across the swap.
    const obs::Snapshot snap = service.statsSnapshot();
    EXPECT_EQ(snap.counters.at("serve/requests"), accepted);
    EXPECT_EQ(snap.counters.at("serve/shed"), 0u);
    EXPECT_TRUE(sawV1);
    EXPECT_TRUE(sawV2);
    EXPECT_EQ(service.currentVersion(), 2u);
}

/**
 * Continuous swap churn under sustained multi-producer load: the
 * publisher replaces the model as fast as it can while producers
 * stream requests; every producer's observed version sequence must be
 * non-decreasing (FIFO ring + single drainer + monotonic registry).
 * The nightly flake gate repeats this; see .github/workflows/ci.yml.
 */
TEST(HotSwap, ChurnKeepsVersionsMonotonicPerProducer)
{
    ServeOptions options;
    options.threads = 1;
    PredictionService service(versionedArtifact(1.0), options);

    constexpr int kProducers = 3;
    constexpr int kRoundsPerProducer = 60;
    constexpr int kBatchSize = 16;

    std::atomic<bool> stopSwapping{false};
    std::thread swapper([&] {
        double scale = 1.0;
        while (!stopSwapping.load(std::memory_order_acquire)) {
            scale += 0.25;
            service.publish(kDefaultTenant, versionedArtifact(scale));
        }
    });

    std::atomic<int> failures{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, &failures, p] {
            const auto queries =
                DesignSpace::sampleValidConfigs(kBatchSize, 30 + p);
            AsyncBatch batch(kBatchSize);
            std::uint64_t lastVersion = 0;
            for (int round = 0; round < kRoundsPerProducer; ++round) {
                batch.reset();
                for (const auto &query : queries) {
                    while (service.submit(batch, query) !=
                           SubmitStatus::Accepted)
                        std::this_thread::yield();
                }
                batch.wait();
                // FIFO ring + one drainer snapshot per drained chunk
                // means the versions one producer sees never move
                // backwards, swap churn or not.
                for (int i = 0; i < kBatchSize; ++i) {
                    const std::uint64_t version =
                        batch.versions()[i];
                    if (version < lastVersion)
                        failures.fetch_add(1);
                    lastVersion = version;
                }
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    stopSwapping.store(true, std::memory_order_release);
    swapper.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(service.currentVersion(), 1u);
    EXPECT_EQ(service.statsSnapshot().counters.at("serve/requests"),
              static_cast<std::uint64_t>(kProducers) *
                  kRoundsPerProducer * kBatchSize);
}

/**
 * The synchronous predict() path also follows swaps: each batch pins
 * one snapshot, so results match the direct artifact bit for bit
 * before and after a publish.
 */
TEST(HotSwap, SyncPredictSeesNewVersionNextBatch)
{
    const ModelArtifact v1 = versionedArtifact(1.0);
    const ModelArtifact v2 = versionedArtifact(3.0);

    ServeOptions options;
    options.threads = 1;
    PredictionService service(v1, options);

    const auto queries = DesignSpace::sampleValidConfigs(8, 27);
    const auto before = service.predict(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(before[i].get(Metric::Cycles),
                  v1.predictor(Metric::Cycles).predict(queries[i]));

    service.publish(kDefaultTenant, versionedArtifact(3.0));

    const auto after = service.predict(queries);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(after[i].get(Metric::Cycles),
                  v2.predictor(Metric::Cycles).predict(queries[i]));
}

} // namespace
} // namespace acdse
