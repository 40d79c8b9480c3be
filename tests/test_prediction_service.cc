/**
 * @file
 * Unit tests for the prediction service: served predictions match the
 * underlying predictors exactly (single- and multi-threaded, on both
 * request paths, for every tenant), absent metrics come back NaN, and
 * the serving counters add up.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "arch/design_space.hh"
#include "serve/prediction_service.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

double
synthetic(const MicroarchConfig &config, double wide, double mem)
{
    return 500.0 + wide * 4000.0 / config.width() +
           mem * 60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024));
}

ArchitectureCentricPredictor
trainedPredictor(double wide, double mem)
{
    const auto train = DesignSpace::sampleValidConfigs(64, 1);
    std::vector<ProgramTrainingSet> sets(2);
    for (int j = 0; j < 2; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train;
        for (const auto &c : train)
            sets[j].values.push_back(
                synthetic(c, wide + 0.5 * j, mem));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    const auto rc = DesignSpace::sampleValidConfigs(16, 2);
    std::vector<double> responses;
    for (const auto &c : rc)
        responses.push_back(synthetic(c, wide, mem));
    predictor.fitResponses(rc, responses);
    return predictor;
}

/** @p n rows' tenant column, every row naming @p tenant. */
std::vector<TenantId>
allRows(std::size_t n, TenantId tenant)
{
    return std::vector<TenantId>(n, tenant);
}

ModelArtifact
twoMetricArtifact()
{
    ModelArtifact artifact;
    artifact.setTag("service test");
    artifact.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    artifact.add(Metric::Energy, trainedPredictor(0.5, 2.0));
    return artifact;
}

TEST(PredictionService, MatchesDirectPredictorExactly)
{
    const ModelArtifact artifact = twoMetricArtifact();
    ServeOptions options;
    options.threads = 1;
    PredictionService service(artifact, options);

    const auto queries = DesignSpace::sampleValidConfigs(40, 3);
    const auto rows = service.predict(queries);
    ASSERT_EQ(rows.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(rows[i].get(Metric::Cycles),
                  artifact.predictor(Metric::Cycles).predict(queries[i]));
        EXPECT_EQ(rows[i].get(Metric::Energy),
                  artifact.predictor(Metric::Energy).predict(queries[i]));
    }
}

TEST(PredictionService, AbsentMetricsAreNaN)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ServeOptions options;
    options.threads = 1;
    PredictionService service(std::move(artifact), options);
    const PredictionRow row =
        service.predict({DesignSpace::baseline()}).front();
    EXPECT_FALSE(std::isnan(row.get(Metric::Cycles)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Energy)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Ed)));
    EXPECT_TRUE(std::isnan(row.get(Metric::Edd)));
}

TEST(PredictionService, ThreadPoolMatchesSingleThread)
{
    const ModelArtifact artifact = twoMetricArtifact();
    // 700 points: above the 128-point inline cutoff, so the batch runs
    // on the pool as ten full 64-point chunks plus a remainder.
    const auto queries = DesignSpace::sampleValidConfigs(700, 4);

    ServeOptions single;
    single.threads = 1;
    PredictionService reference(artifact, single);
    const auto expected = reference.predict(queries);

    ServeOptions pooled;
    pooled.threads = 4;
    PredictionService service(artifact, pooled);
    EXPECT_EQ(service.poolThreads(), 3u);

    // Several batches through the same pool (reuse across generations).
    // Compare metric by metric: the absent ones are NaN, and NaN never
    // compares equal to itself.
    for (int round = 0; round < 3; ++round) {
        const auto rows = service.predict(queries);
        ASSERT_EQ(rows.size(), expected.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].get(Metric::Cycles),
                      expected[i].get(Metric::Cycles));
            EXPECT_EQ(rows[i].get(Metric::Energy),
                      expected[i].get(Metric::Energy));
        }
    }
}

/**
 * Regression test for the stale-worker hand-off race: a worker that
 * wakes for a batch only after the batch has completed must not claim
 * chunks of the *next* batch against the previous batch's (destroyed)
 * queries/rows. The smallest pooled batches (129 points: two full
 * chunks and a one-point remainder) back to back on a wide pool keep
 * that window open; the symptom of the race is rows of the new batch
 * left NaN (a chunk was "done" by the stale worker against the old
 * batch). ThreadPool.BackToBackTinyLoopsNeverDropIndices drives the
 * same race with two-index loops directly on the pool.
 */
TEST(PredictionService, BackToBackBatchesNeverDropChunks)
{
    const ModelArtifact artifact = twoMetricArtifact();

    ServeOptions single;
    single.threads = 1;
    PredictionService reference(artifact, single);

    ServeOptions churn;
    churn.threads = 8;
    PredictionService service(artifact, churn);

    const auto queries = DesignSpace::sampleValidConfigs(129, 7);
    const auto expected = reference.predict(queries);
    for (int round = 0; round < 2000; ++round) {
        const auto rows = service.predict(queries);
        ASSERT_EQ(rows.size(), queries.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            ASSERT_EQ(rows[i].get(Metric::Cycles),
                      expected[i].get(Metric::Cycles))
                << "round " << round << " row " << i;
            ASSERT_EQ(rows[i].get(Metric::Energy),
                      expected[i].get(Metric::Energy))
                << "round " << round << " row " << i;
        }
    }
}

TEST(PredictionService, CountersAddUp)
{
    ServeOptions options;
    options.threads = 2;
    PredictionService service(twoMetricArtifact(), options);

    // 200 points: two pooled batches, then a one-point inline batch.
    const auto queries = DesignSpace::sampleValidConfigs(200, 5);
    service.predict(queries);
    service.predict(queries);
    service.predict({DesignSpace::baseline()});

    // The counters are registry-backed (src/obs): the serve/batch
    // stage counts predict() batches, serve/points the points served.
    const obs::Snapshot snap = service.statsSnapshot();
    const obs::StageSnapshot &batches = snap.stages.at("serve/batch");
    EXPECT_EQ(batches.count, 3u);
    EXPECT_EQ(batches.spans.count, 3u);
    EXPECT_EQ(snap.counters.at("serve/points"), 401u);
    EXPECT_GT(batches.totalNs, 0u);
    EXPECT_GE(batches.spans.max, batches.spans.min);

    service.resetStats();
    const obs::Snapshot cleared = service.statsSnapshot();
    EXPECT_EQ(cleared.stages.at("serve/batch").count, 0u);
    EXPECT_EQ(cleared.stages.at("serve/batch").totalNs, 0u);
    EXPECT_EQ(cleared.counters.at("serve/points"), 0u);
}

TEST(PredictionService, EmptyBatchIsANoOp)
{
    ServeOptions options;
    options.threads = 2;
    PredictionService service(twoMetricArtifact(), options);
    EXPECT_TRUE(service.predict({}).empty());
    EXPECT_EQ(service.statsSnapshot().stages.at("serve/batch").count, 0u);
}

TEST(PredictionService, FromFileServesSavedArtifact)
{
    const ModelArtifact artifact = twoMetricArtifact();
    const std::string path =
        (testdir::uniqueTempDir("acdse_service") / "from_file.acdse")
            .string();
    saveArtifact(path, artifact);

    ServeOptions options;
    options.threads = 1;
    PredictionService service =
        PredictionService::fromFile(path, options);
    std::remove(path.c_str());
    const MicroarchConfig probe = DesignSpace::baseline();
    EXPECT_EQ(service.predict({probe}).front().get(Metric::Cycles),
              artifact.predictor(Metric::Cycles).predict(probe));
}

TEST(PredictionServiceDeathTest, RejectsUnfittedArtifact)
{
    const auto train = DesignSpace::sampleValidConfigs(32, 6);
    std::vector<ProgramTrainingSet> sets(1);
    sets[0].name = "p";
    sets[0].configs = train;
    for (const auto &c : train)
        sets[0].values.push_back(synthetic(c, 1.0, 1.0));
    ArchitectureCentricPredictor offline_only;
    offline_only.trainOffline(sets);

    ModelArtifact artifact;
    artifact.add(Metric::Cycles, std::move(offline_only));
    EXPECT_DEATH(PredictionService(std::move(artifact)),
                 "no fitted responses");
}

TEST(PredictionService, AsyncPathMatchesSyncExactly)
{
    const ModelArtifact artifact = twoMetricArtifact();
    ServeOptions options;
    options.threads = 1;
    PredictionService service(artifact, options);

    const auto queries = DesignSpace::sampleValidConfigs(50, 8);
    const auto expected = service.predict(queries);

    AsyncBatch batch(queries.size());
    for (const auto &query : queries)
        ASSERT_EQ(service.submit(batch, query),
                  SubmitStatus::Accepted);
    batch.wait();

    for (std::size_t i = 0; i < queries.size(); ++i) {
        // The drainer's SIMD block path is bit-identical to the
        // synchronous chunked path (both match the raw predictor).
        EXPECT_EQ(batch.rows()[i].get(Metric::Cycles),
                  expected[i].get(Metric::Cycles));
        EXPECT_EQ(batch.rows()[i].get(Metric::Energy),
                  expected[i].get(Metric::Energy));
        // Every row is stamped with the serving version (the
        // constructor's publish is version 1).
        EXPECT_EQ(batch.versions()[i], 1u);
    }
    const obs::Snapshot snap = service.statsSnapshot();
    EXPECT_EQ(snap.counters.at("serve/requests"), queries.size());
    EXPECT_EQ(snap.counters.at("serve/shed"), 0u);
}

TEST(PredictionService, QueueFullShedsTyped)
{
    ServeOptions options;
    options.threads = 1;
    options.maxQueue = kMinRingCapacity; // 8 slots
    options.startDrainer = false;        // deterministic: no consumer
    PredictionService service(twoMetricArtifact(), options);
    EXPECT_EQ(service.queueCapacity(), kMinRingCapacity);

    const auto queries =
        DesignSpace::sampleValidConfigs(kMinRingCapacity + 4, 9);
    AsyncBatch batch(queries.size());

    // With no drainer running the ring fills at exactly capacity;
    // every further submit is a typed rejection, not a block.
    for (std::size_t i = 0; i < kMinRingCapacity; ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::Accepted);
    for (std::size_t i = kMinRingCapacity; i < queries.size(); ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::QueueFull);
    EXPECT_EQ(batch.submitted(), kMinRingCapacity);
    EXPECT_EQ(batch.inFlight(), kMinRingCapacity);

    // Rejections are observable in the snapshot (serve/shed).
    const obs::Snapshot snap = service.statsSnapshot();
    EXPECT_EQ(snap.counters.at("serve/requests"), kMinRingCapacity);
    EXPECT_EQ(snap.counters.at("serve/shed"), 4u);

    // Draining makes room again: the shed requests can be resubmitted
    // and complete normally.
    EXPECT_EQ(service.drainOnce(), kMinRingCapacity);
    EXPECT_EQ(batch.inFlight(), 0u);
    for (std::size_t i = kMinRingCapacity; i < queries.size(); ++i)
        ASSERT_EQ(service.submit(batch, queries[i]),
                  SubmitStatus::Accepted);
    EXPECT_EQ(service.drainOnce(), 4u);
    batch.wait();
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(batch.rows()[i].get(Metric::Cycles),
                  service.model()->artifact.predictor(Metric::Cycles)
                      .predict(queries[i]));
}

TEST(PredictionService, TenantsRouteToTheirOwnModels)
{
    ModelArtifact alphaModel;
    alphaModel.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ModelArtifact betaModel;
    betaModel.add(Metric::Cycles, trainedPredictor(2.0, 0.5));

    ServeOptions options;
    options.threads = 1;
    PredictionService service(alphaModel, options);
    const TenantId beta = service.registerTenant("beta");
    const TenantId bare = service.registerTenant("bare");
    service.publish(beta, betaModel);
    EXPECT_EQ(service.findTenant("beta"), beta);
    EXPECT_EQ(service.findTenant("nobody"),
              ModelRegistry::kInvalidTenant);

    const auto queries = DesignSpace::sampleValidConfigs(30, 10);
    AsyncBatch batch(3 * queries.size());
    for (const auto &query : queries) {
        // Interleave tenants so one drained chunk carries all three.
        ASSERT_EQ(service.submit(batch, kDefaultTenant, query),
                  SubmitStatus::Accepted);
        ASSERT_EQ(service.submit(batch, beta, query),
                  SubmitStatus::Accepted);
        ASSERT_EQ(service.submit(batch, bare, query),
                  SubmitStatus::Accepted);
    }
    batch.wait();

    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto &defaultRow = batch.rows()[3 * i];
        const auto &betaRow = batch.rows()[3 * i + 1];
        const auto &bareRow = batch.rows()[3 * i + 2];
        EXPECT_EQ(defaultRow.get(Metric::Cycles),
                  alphaModel.predictor(Metric::Cycles)
                      .predict(queries[i]));
        EXPECT_EQ(betaRow.get(Metric::Cycles),
                  betaModel.predictor(Metric::Cycles)
                      .predict(queries[i]));
        EXPECT_EQ(batch.versions()[3 * i], 1u);
        EXPECT_EQ(batch.versions()[3 * i + 1], 2u);
        // A registered tenant with no published model answers NaN
        // stamped version 0 rather than failing.
        EXPECT_TRUE(std::isnan(bareRow.get(Metric::Cycles)));
        EXPECT_EQ(batch.versions()[3 * i + 2], 0u);
    }

    // An id beyond the table is a typed rejection.
    EXPECT_EQ(service.submit(batch, TenantId{99}, queries[0]),
              SubmitStatus::UnknownTenant);

    // Per-tenant served-point counters appear in the snapshot.
    const obs::Snapshot snap = service.statsSnapshot();
    ASSERT_TRUE(snap.counters.count("serve/tenant/default/points"));
    ASSERT_TRUE(snap.counters.count("serve/tenant/beta/points"));
    EXPECT_EQ(snap.counters.at("serve/tenant/default/points"),
              queries.size());
    EXPECT_EQ(snap.counters.at("serve/tenant/beta/points"),
              queries.size());
    EXPECT_EQ(snap.counters.at("serve/tenant/bare/points"),
              queries.size());
}

TEST(PredictionService, PredictRoutesTenants)
{
    ModelArtifact alphaModel;
    alphaModel.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ModelArtifact betaModel;
    betaModel.add(Metric::Cycles, trainedPredictor(2.0, 0.5));

    // Two threads and 200 points: each batch runs on the pool.
    ServeOptions options;
    options.threads = 2;
    PredictionService service(alphaModel, options);
    const TenantId beta = service.registerTenant("beta");
    service.publish(beta, betaModel);

    const auto queries = DesignSpace::sampleValidConfigs(200, 14);
    AsyncBatch async(2 * queries.size());
    for (const auto &query : queries) {
        ASSERT_EQ(service.submit(async, kDefaultTenant, query),
                  SubmitStatus::Accepted);
        ASSERT_EQ(service.submit(async, beta, query),
                  SubmitStatus::Accepted);
    }
    async.wait();

    std::vector<std::uint64_t> alphaVersions, betaVersions;
    const auto alphaRows =
        service.predict(queries, allRows(queries.size(), kDefaultTenant),
                        &alphaVersions);
    const auto betaRows = service.predict(
        queries, allRows(queries.size(), beta), &betaVersions);
    ASSERT_EQ(alphaVersions.size(), queries.size());
    ASSERT_EQ(betaVersions.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(alphaVersions[i], 1u);
        EXPECT_EQ(betaVersions[i], 2u);
        const double alpha =
            alphaModel.predictor(Metric::Cycles).predict(queries[i]);
        const double betaValue =
            betaModel.predictor(Metric::Cycles).predict(queries[i]);
        ASSERT_NE(alpha, betaValue);
        EXPECT_EQ(alphaRows[i].get(Metric::Cycles), alpha);
        EXPECT_EQ(betaRows[i].get(Metric::Cycles), betaValue);
        EXPECT_EQ(alphaRows[i].get(Metric::Cycles),
                  async.rows()[2 * i].get(Metric::Cycles));
        EXPECT_EQ(betaRows[i].get(Metric::Cycles),
                  async.rows()[2 * i + 1].get(Metric::Cycles));
    }
    // Both paths count the tenant's points.
    const obs::Snapshot snap = service.statsSnapshot();
    EXPECT_EQ(snap.counters.at("serve/tenant/beta/points"),
              2 * queries.size());
}

TEST(PredictionService, ConcurrentPredictCallersAreExact)
{
    // predict() takes no lock: callers on several threads each run
    // their pooled batch (over 128 points) on the one shared pool, for
    // two tenants, and every row equals the one-thread reference.
    ModelArtifact betaModel;
    betaModel.add(Metric::Cycles, trainedPredictor(2.0, 0.5));
    ServeOptions options;
    options.threads = 3;
    PredictionService service(twoMetricArtifact(), options);
    const TenantId beta = service.registerTenant("beta");
    service.publish(beta, betaModel);

    const auto queries = DesignSpace::sampleValidConfigs(300, 17);
    const auto expectedDefault = service.predict(queries);
    const std::vector<TenantId> betaRows = allRows(queries.size(), beta);
    const auto expectedBeta = service.predict(queries, betaRows);

    constexpr int kCallers = 4;
    constexpr int kRounds = 10;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            const std::vector<TenantId> tenants =
                allRows(queries.size(), c % 2 ? beta : kDefaultTenant);
            const auto &expected = c % 2 ? expectedBeta : expectedDefault;
            for (int round = 0; round < kRounds; ++round) {
                const auto rows = service.predict(queries, tenants);
                for (std::size_t i = 0; i < rows.size(); ++i) {
                    if (rows[i].get(Metric::Cycles) !=
                        expected[i].get(Metric::Cycles))
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(service.statsSnapshot().counters.at("serve/points"),
              (2 + kCallers * kRounds) * queries.size());
}

TEST(PredictionService, PredictUnpublishedTenantIsNaN)
{
    ServeOptions options;
    options.threads = 1;
    PredictionService service(twoMetricArtifact(), options);
    const TenantId bare = service.registerTenant("bare");

    std::vector<std::uint64_t> versions(3, 99);
    const auto rows = service.predict(
        DesignSpace::sampleValidConfigs(3, 15), allRows(3, bare),
        &versions);
    EXPECT_EQ(versions, std::vector<std::uint64_t>(3, 0));
    ASSERT_EQ(rows.size(), 3u);
    for (const PredictionRow &row : rows) {
        for (Metric metric : kAllMetrics)
            EXPECT_TRUE(std::isnan(row.get(metric)));
    }
}

TEST(PredictionServiceDeathTest, PredictRejectsUnregisteredTenant)
{
    ServeOptions options;
    options.threads = 1;
    options.startDrainer = false;
    PredictionService service(twoMetricArtifact(), options);
    EXPECT_DEATH(service.predict({DesignSpace::baseline()}, allRows(1, 7)),
                 "never registered");
    // One bad id among valid ones fails the whole call.
    const std::vector<TenantId> mixed{kDefaultTenant, 7, kDefaultTenant};
    EXPECT_DEATH(service.predict(DesignSpace::sampleValidConfigs(3, 18),
                                 mixed),
                 "tenant 7, which was never registered");
}

TEST(PredictionService, PredictReportsItsPinnedVersion)
{
    // Publish A, then B: predict() for A's tenant reports A's version,
    // not the registry's latest.
    ServeOptions options;
    options.threads = 1;
    PredictionService service(twoMetricArtifact(), options);
    const TenantId a = service.registerTenant("a");
    const TenantId b = service.registerTenant("b");
    const std::uint64_t versionA = service.publish(a, twoMetricArtifact());
    const std::uint64_t versionB = service.publish(b, twoMetricArtifact());
    ASSERT_LT(versionA, versionB);
    ASSERT_EQ(service.currentVersion(), versionB);

    const auto queries = DesignSpace::sampleValidConfigs(4, 16);
    std::vector<std::uint64_t> reported;
    service.predict(queries, allRows(4, a), &reported);
    EXPECT_EQ(reported, std::vector<std::uint64_t>(4, versionA));
    service.predict(queries, allRows(4, b), &reported);
    EXPECT_EQ(reported, std::vector<std::uint64_t>(4, versionB));
    service.predict(queries, {}, &reported);
    EXPECT_EQ(reported, std::vector<std::uint64_t>(4, 1u));
    // An empty batch has no row to stamp: no versions come back.
    service.predict({}, {}, &reported);
    EXPECT_TRUE(reported.empty());
}

/**
 * Mixed-tenant predict() against each tenant alone and the async
 * path. Three published tenants and one with nothing published take
 * rows round-robin, so every 64-row chunk of a pooled call spans
 * tenants; @p rows <= 128 runs inline, more runs on the pool.
 */
void
checkMixedTenantBatch(std::size_t rows)
{
    ModelArtifact betaModel;
    betaModel.add(Metric::Cycles, trainedPredictor(2.0, 0.5));
    ServeOptions options;
    options.threads = 4;
    PredictionService service(twoMetricArtifact(), options);
    const TenantId beta = service.registerTenant("beta");
    const TenantId bare = service.registerTenant("bare");
    const TenantId gamma = service.registerTenant("gamma");
    const std::uint64_t betaVersion = service.publish(beta, betaModel);
    const std::uint64_t gammaVersion =
        service.publish(gamma, twoMetricArtifact());
    const std::vector<TenantId> order{kDefaultTenant, beta, bare, gamma};

    const auto queries = DesignSpace::sampleValidConfigs(rows, 19);
    std::vector<TenantId> tenants(rows);
    for (std::size_t i = 0; i < rows; ++i)
        tenants[i] = order[i % order.size()];
    std::vector<std::uint64_t> versions;
    const auto mixed = service.predict(queries, tenants, &versions);
    ASSERT_EQ(mixed.size(), rows);
    ASSERT_EQ(versions.size(), rows);

    // Each tenant's own batch, and the drain, give the same bits.
    std::vector<std::vector<PredictionRow>> alone(order.size());
    std::vector<std::vector<std::uint64_t>> aloneVersions(order.size());
    for (std::size_t t = 0; t < order.size(); ++t)
        alone[t] = service.predict(queries, allRows(rows, order[t]),
                                   &aloneVersions[t]);
    AsyncBatch async(rows);
    for (std::size_t i = 0; i < rows; ++i)
        ASSERT_EQ(service.submit(async, tenants[i], queries[i]),
                  SubmitStatus::Accepted);
    async.wait();

    const std::uint64_t expectedVersion[] = {1, betaVersion, 0,
                                             gammaVersion};
    for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t t = i % order.size();
        EXPECT_EQ(versions[i], expectedVersion[t]) << "row " << i;
        EXPECT_EQ(versions[i], aloneVersions[t][i]) << "row " << i;
        EXPECT_EQ(versions[i], async.versions()[i]) << "row " << i;
        for (Metric metric : kAllMetrics) {
            const double value = mixed[i].get(metric);
            if (std::isnan(alone[t][i].get(metric))) {
                EXPECT_TRUE(std::isnan(value)) << "row " << i;
                EXPECT_TRUE(std::isnan(async.rows()[i].get(metric)));
                continue;
            }
            EXPECT_EQ(value, alone[t][i].get(metric)) << "row " << i;
            EXPECT_EQ(value, async.rows()[i].get(metric)) << "row " << i;
        }
    }
    // beta's model differs from the default's, so routing has teeth.
    EXPECT_NE(mixed[1].get(Metric::Cycles), alone[0][1].get(Metric::Cycles));

    // The unpublished tenant's points are counted too: its share of
    // the mixed call and of the drain, and its own batch.
    const obs::Snapshot snap = service.statsSnapshot();
    EXPECT_EQ(snap.stages.at("serve/batch").count, 1u + order.size());
    EXPECT_EQ(snap.counters.at("serve/tenant/bare/points"),
              rows + (rows + 1) / order.size() * 2);
}

TEST(PredictionService, MixedTenantInlineBatchMatchesEachTenantAlone)
{
    checkMixedTenantBatch(127);
}

TEST(PredictionService, MixedTenantPooledBatchMatchesEachTenantAlone)
{
    checkMixedTenantBatch(700);
}

TEST(PredictionService, MixedTenantCallersRaceAPublisher)
{
    // A publisher alternates two artifacts on tenants a and b while
    // four callers predict() mixed batches. Versions are registry-
    // global and a and b are published in lockstep, so each version
    // names its artifact: X for a's and Y for b's first publishes,
    // then swapped on every round. Within one call all rows of a
    // tenant carry one version, each caller's versions per tenant
    // never go backwards, and every row is exact for its version.
    ModelArtifact x;
    x.add(Metric::Cycles, trainedPredictor(1.0, 1.0));
    ModelArtifact y;
    y.add(Metric::Cycles, trainedPredictor(2.0, 0.5));
    ServeOptions options;
    options.threads = 3;
    options.startDrainer = false;
    PredictionService service(x, options);
    const TenantId a = service.registerTenant("a");
    const TenantId b = service.registerTenant("b");
    ASSERT_EQ(service.publish(a, x), 2u);
    ASSERT_EQ(service.publish(b, y), 3u);

    const auto queries = DesignSpace::sampleValidConfigs(300, 20);
    const std::vector<TenantId> order{kDefaultTenant, a, b};
    std::vector<TenantId> tenants(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        tenants[i] = order[(i * 7 / 5) % order.size()];
    const std::vector<double> expectedX = [&] {
        std::vector<double> values;
        for (const auto &query : queries)
            values.push_back(x.predictor(Metric::Cycles).predict(query));
        return values;
    }();
    const std::vector<double> expectedY = [&] {
        std::vector<double> values;
        for (const auto &query : queries)
            values.push_back(y.predictor(Metric::Cycles).predict(query));
        return values;
    }();
    // Version v >= 2 of a (even) or b (odd) is publish round
    // k = (v - 2) / 2; a serves X on even rounds, b on odd ones.
    const auto servesX = [&](TenantId tenant, std::uint64_t version) {
        if (tenant == kDefaultTenant)
            return true;
        const bool evenRound = ((version - 2) / 2) % 2 == 0;
        return tenant == a ? evenRound : !evenRound;
    };

    std::atomic<bool> stop{false};
    std::thread publisher([&] {
        for (int round = 1; !stop.load(); ++round) {
            service.publish(a, round % 2 ? y : x);
            service.publish(b, round % 2 ? x : y);
        }
    });
    while (service.currentVersion() < 8)
        std::this_thread::yield();
    constexpr int kCallers = 4;
    constexpr int kRounds = 25;
    std::atomic<int> splitCalls{0}, backwards{0}, mismatches{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&] {
            std::array<std::uint64_t, 3> seen{};
            std::vector<std::uint64_t> versions;
            for (int round = 0; round < kRounds; ++round) {
                const auto rows =
                    service.predict(queries, tenants, &versions);
                std::array<std::uint64_t, 3> call{};
                for (std::size_t i = 0; i < rows.size(); ++i) {
                    const TenantId t = tenants[i];
                    if (call[t] == 0)
                        call[t] = versions[i];
                    if (versions[i] != call[t])
                        splitCalls.fetch_add(1);
                    const double expected = servesX(t, versions[i])
                                                ? expectedX[i]
                                                : expectedY[i];
                    if (rows[i].get(Metric::Cycles) != expected)
                        mismatches.fetch_add(1);
                }
                for (std::size_t t = 0; t < order.size(); ++t) {
                    if (call[t] < seen[t])
                        backwards.fetch_add(1);
                    seen[t] = call[t];
                }
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    stop.store(true);
    publisher.join();
    EXPECT_EQ(splitCalls.load(), 0);
    EXPECT_EQ(backwards.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(PredictionService, AsyncLatencyMetricsPopulate)
{
    ServeOptions options;
    options.threads = 1;
    PredictionService service(twoMetricArtifact(), options);

    const auto queries = DesignSpace::sampleValidConfigs(20, 13);
    AsyncBatch batch(queries.size());
    for (const auto &query : queries)
        ASSERT_EQ(service.submit(batch, query),
                  SubmitStatus::Accepted);
    batch.wait();

    const obs::Snapshot snap = service.statsSnapshot();
    ASSERT_TRUE(snap.histograms.count("serve/request-latency-ns"));
    EXPECT_EQ(snap.histograms.at("serve/request-latency-ns").count,
              queries.size());
    ASSERT_TRUE(snap.reservoirs.count("serve/request-latency"));
    EXPECT_EQ(snap.reservoirs.at("serve/request-latency").count,
              queries.size());
    // Exact quantiles come from the reservoir; p99 of real latencies
    // is positive and at least the median.
    EXPECT_GT(service.requestLatencyQuantileMs(0.99), 0.0);
    EXPECT_GE(service.requestLatencyQuantileMs(0.99),
              service.requestLatencyQuantileMs(0.50));
}

} // namespace
} // namespace acdse
