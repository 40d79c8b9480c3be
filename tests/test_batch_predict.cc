/**
 * @file
 * Bit-exactness of the batched inference kernels: every batched predict
 * API must return, for each point, the *same double* as the scalar path
 * -- at batch size 0, 1, around the lane width, and large; with the
 * log-target transform on and off; through the full ensemble; for every
 * served metric; and under concurrent batched prediction on a shared
 * predictor (the suite runs under TSan in CI).
 *
 * All comparisons are EXPECT_EQ on doubles (no tolerance) on purpose:
 * vectorising across design points keeps each point's accumulation
 * order unchanged, so batching is a scheduling decision, never a
 * numerical one -- the same contract the thread pool obeys.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "arch/design_space.hh"
#include "base/rng.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/architecture_centric_predictor.hh"
#include "ml/linear_regression.hh"
#include "ml/mlp.hh"
#include "ml/scaler.hh"
#include "serve/prediction_service.hh"

namespace acdse
{
namespace
{

/** Batch sizes that straddle every remainder case of the lane width. */
std::vector<std::size_t>
batchSizes()
{
    constexpr std::size_t lanes = simd::kLanes;
    std::vector<std::size_t> sizes{0, 1, lanes, lanes + 1,
                                   3 * lanes + 5, 200};
    if (lanes > 1)
        sizes.push_back(lanes - 1);
    return sizes;
}

/** A smooth positive analytic "program" over the design space. */
double
syntheticMetric(const MicroarchConfig &config, double wide, double mem)
{
    return 1000.0 + wide * 4000.0 / config.width() +
           mem * 60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024)) +
           20000.0 / std::sqrt(static_cast<double>(config.robSize()));
}

/** Row-major feature matrix for a set of configurations. */
std::vector<double>
featureRows(const std::vector<MicroarchConfig> &configs)
{
    std::vector<double> rows(configs.size() * kNumParams);
    for (std::size_t i = 0; i < configs.size(); ++i)
        configs[i].featuresInto(&rows[i * kNumParams]);
    return rows;
}

/** One trained Mlp over the design space (small but non-trivial). */
Mlp
trainedMlp()
{
    const auto configs = DesignSpace::sampleValidConfigs(96, 7);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (const auto &config : configs) {
        xs.push_back(config.asFeatureVector());
        ys.push_back(syntheticMetric(config, 1.3, 0.8));
    }
    MlpOptions options;
    options.epochs = 120;
    Mlp mlp(options);
    mlp.train(xs, ys);
    return mlp;
}

TEST(BatchDeterminism, ScalerBatchMatchesScalar)
{
    Rng rng(11);
    std::vector<std::vector<double>> samples;
    for (std::size_t i = 0; i < 40; ++i) {
        std::vector<double> x(13);
        for (double &v : x)
            v = rng.nextDouble() * 100.0 - 50.0;
        samples.push_back(std::move(x));
    }
    StandardScaler scaler;
    scaler.fit(samples);

    constexpr std::size_t lanes = simd::kLanes;
    const std::size_t d = scaler.dims();
    std::vector<double> rows(lanes * d);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t i = 0; i < d; ++i)
            rows[l * d + i] = samples[l][i];
    }
    std::vector<double> soa(d * lanes);
    simd::transposeBlock(rows.data(), lanes, d, soa.data());
    // A short count computes only the chunks covering it and leaves
    // the later lanes untouched.
    std::vector<double> scalar;
    for (std::size_t count = 1; count <= lanes; ++count) {
        std::vector<double> block(d * lanes, -7.0);
        scaler.transformBlock(soa.data(), count, block.data());
        const std::size_t covered =
            (count + simd::kChunkLanes - 1) / simd::kChunkLanes *
            simd::kChunkLanes;
        for (std::size_t l = 0; l < lanes; ++l) {
            scaler.transformInto(samples[l], scalar);
            for (std::size_t i = 0; i < d; ++i)
                EXPECT_EQ(block[i * lanes + l],
                          l < covered ? scalar[i] : -7.0)
                    << "count " << count << " lane " << l << " feature "
                    << i;
        }
    }
}

TEST(BatchDeterminism, LinearRegressionSoaMatchesScalar)
{
    Rng rng(23);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < 30; ++i) {
        std::vector<double> x(5);
        for (double &v : x)
            v = rng.nextDouble() * 4.0 - 2.0;
        ys.push_back(2.0 + 3.0 * x[0] - x[3] +
                     0.1 * rng.nextDouble());
        xs.push_back(std::move(x));
    }
    LinearRegression regression;
    regression.fit(xs, ys);

    const std::size_t lanes = 7; // predictSoa takes any width
    std::vector<double> soa(5 * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t j = 0; j < 5; ++j)
            soa[j * lanes + l] = xs[l][j];
    }
    // Every prefix of the block, at the block's own stride; lanes
    // past count are never written.
    for (std::size_t count = 1; count <= lanes; ++count) {
        std::vector<double> out(lanes, -1.0);
        regression.predictSoa(soa.data(), lanes, count, out.data());
        for (std::size_t l = 0; l < count; ++l)
            EXPECT_EQ(out[l], regression.predict(xs[l])) << "lane " << l;
        for (std::size_t l = count; l < lanes; ++l)
            EXPECT_EQ(out[l], -1.0) << "lane " << l;
    }
}

TEST(BatchDeterminism, MlpBatchMatchesScalarAcrossSizes)
{
    const Mlp mlp = trainedMlp();
    const auto queries = DesignSpace::sampleValidConfigs(200, 99);
    const auto rows = featureRows(queries);

    MlpBatchScratch scratch;
    for (std::size_t count : batchSizes()) {
        ASSERT_LE(count, queries.size());
        std::vector<double> out(count, -1.0);
        mlp.predictBatch(rows.data(), count, out.data(), scratch);
        for (std::size_t c = 0; c < count; ++c) {
            EXPECT_EQ(out[c], mlp.predict(queries[c].asFeatureVector()))
                << "batch " << count << " point " << c;
        }
    }
}

TEST(BatchDeterminism, ProgramSpecificBatchMatchesScalar)
{
    const auto train = DesignSpace::sampleValidConfigs(96, 3);
    std::vector<double> values;
    for (const auto &config : train)
        values.push_back(syntheticMetric(config, 0.9, 1.4));
    const auto queries = DesignSpace::sampleValidConfigs(200, 17);
    const auto rows = featureRows(queries);

    for (bool logTarget : {true, false}) {
        ProgramSpecificOptions options;
        options.logTarget = logTarget;
        options.mlp.epochs = 120;
        ProgramSpecificPredictor predictor(options);
        predictor.train(train, values);

        MlpBatchScratch scratch;
        std::vector<double> scaled;
        for (std::size_t count : batchSizes()) {
            std::vector<double> out(count, -1.0);
            predictor.predictBatchFromFeatures(rows.data(), count,
                                               out.data(), scratch);
            for (std::size_t c = 0; c < count; ++c) {
                EXPECT_EQ(out[c],
                          predictor.predictFromFeatures(
                              queries[c].asFeatureVector(), scaled))
                    << "logTarget " << logTarget << " batch " << count
                    << " point " << c;
            }
        }
    }
}

/** One fitted architecture-centric ensemble over synthetic programs. */
ArchitectureCentricPredictor
fittedEnsemble(std::size_t num_models, double shift)
{
    const auto train = DesignSpace::sampleValidConfigs(96, 1);
    const auto responses = DesignSpace::sampleValidConfigs(24, 2);

    std::vector<ProgramTrainingSet> sets(num_models);
    for (std::size_t j = 0; j < num_models; ++j) {
        const double wide = 0.5 + 0.25 * (static_cast<double>(j) + shift);
        const double mem = 2.0 - 0.15 * static_cast<double>(j);
        // snprintf, not `"p" + std::to_string(j)`: the latter trips
        // a GCC 12 -O3 -Wrestrict false positive (GCC PR105651).
        char name[16];
        std::snprintf(name, sizeof(name), "p%zu", j);
        sets[j].name = name;
        sets[j].configs = train;
        for (const auto &config : train)
            sets[j].values.push_back(syntheticMetric(config, wide, mem));
    }
    ArchCentricOptions options;
    options.programModel.mlp.epochs = 120;
    ArchitectureCentricPredictor predictor(options);
    predictor.trainOffline(sets);

    std::vector<double> response_values;
    for (const auto &config : responses)
        response_values.push_back(
            syntheticMetric(config, 1.0 + shift, 1.0));
    predictor.fitResponses(responses, response_values);
    return predictor;
}

TEST(BatchDeterminism, ArchCentricBatchMatchesScalar)
{
    const ArchitectureCentricPredictor predictor = fittedEnsemble(4, 0.0);
    const auto queries = DesignSpace::sampleValidConfigs(200, 29);
    const auto rows = featureRows(queries);

    BatchPredictScratch batch_scratch;
    PredictScratch scalar_scratch;
    for (std::size_t count : batchSizes()) {
        std::vector<double> out(count, -1.0);
        predictor.predictBatchFromFeatures(rows.data(), count, out.data(),
                                           batch_scratch);
        for (std::size_t c = 0; c < count; ++c) {
            EXPECT_EQ(out[c],
                      predictor.predictFromFeatures(
                          queries[c].asFeatureVector(), scalar_scratch))
                << "batch " << count << " point " << c;
        }
    }
}

TEST(BatchDeterminism, ServiceMatchesScalarForEveryMetric)
{
    // All four served metrics go through the batched chunk path; each
    // row value must equal the per-point scalar ensemble prediction,
    // inline (single-thread) and chunked across the pool alike.
    ModelArtifact artifact;
    artifact.setTag("batch determinism");
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        artifact.add(static_cast<Metric>(m),
                     fittedEnsemble(3, 0.3 * static_cast<double>(m)));
    }
    const auto queries = DesignSpace::sampleValidConfigs(333, 57);

    std::vector<std::vector<PredictionRow>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ServeOptions options;
        options.threads = threads;
        options.inlineBelow = threads > 1 ? 0 : queries.size();
        options.chunk = 64; // 333 points: full chunks plus a remainder
        PredictionService service(artifact, options);
        runs.push_back(service.predict(queries));
    }

    PredictScratch scratch;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto features = queries[i].asFeatureVector();
        for (const auto &entry : artifact.entries()) {
            const double expected =
                entry.predictor.predictFromFeatures(features, scratch);
            for (const auto &rows : runs) {
                EXPECT_EQ(rows[i].get(entry.metric), expected)
                    << "point " << i << " metric "
                    << metricName(entry.metric);
            }
        }
    }
}

TEST(BatchDeterminism, ConcurrentBatchedPredictIsExact)
{
    // Many threads run the batched kernels on one shared predictor,
    // each with its own scratch, writing disjoint output slices -- the
    // serving concurrency model. Results must equal the serial batched
    // run (and, transitively, the scalar path). TSan covers the
    // data-race side of this contract in CI.
    const ArchitectureCentricPredictor predictor = fittedEnsemble(4, 0.7);
    const auto queries = DesignSpace::sampleValidConfigs(512, 71);
    const auto rows = featureRows(queries);
    const std::size_t n = queries.size();

    BatchPredictScratch serial_scratch;
    std::vector<double> serial(n);
    predictor.predictBatchFromFeatures(rows.data(), n, serial.data(),
                                       serial_scratch);

    constexpr std::size_t kSlice = 48; // not a multiple of the lane width
    std::vector<double> concurrent(n, -1.0);
    ThreadPool pool(6);
    pool.parallelFor(0, (n + kSlice - 1) / kSlice, [&](std::size_t s) {
        const std::size_t begin = s * kSlice;
        const std::size_t count = std::min(kSlice, n - begin);
        BatchPredictScratch scratch;
        predictor.predictBatchFromFeatures(
            rows.data() + begin * kNumParams, count,
            concurrent.data() + begin, scratch);
    });

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(concurrent[i], serial[i]) << "point " << i;
}

/** Counts that straddle every tail shape, plus two large odd ones. */
std::vector<std::size_t>
rowCounts()
{
    std::vector<std::size_t> counts;
    for (std::size_t count = 0; count <= 17; ++count)
        counts.push_back(count);
    counts.push_back(2047);
    counts.push_back(2049);
    return counts;
}

/**
 * predictRows over @p predictors must equal each predictor's scalar
 * predictFromFeatures on every row, and write nothing past
 * out[predictors.size() * count].
 */
void
expectRowsMatchScalar(
    const std::vector<const ArchitectureCentricPredictor *> &predictors,
    const std::vector<double> &rows, std::size_t count,
    BatchPredictScratch &scratch)
{
    constexpr double kSentinel = -12345.0;
    const std::size_t p = predictors.size();
    std::vector<double> out(p * count + 1,
                            std::numeric_limits<double>::quiet_NaN());
    out[p * count] = kSentinel;
    predictRows(predictors, rows.data(), count, out.data(), scratch);
    EXPECT_EQ(out[p * count], kSentinel)
        << p << " predictors, count " << count;

    PredictScratch scalar_scratch;
    for (std::size_t i = 0; i < count; ++i) {
        const std::vector<double> features(
            rows.begin() + static_cast<std::ptrdiff_t>(i * kNumParams),
            rows.begin() +
                static_cast<std::ptrdiff_t>((i + 1) * kNumParams));
        for (std::size_t k = 0; k < p; ++k) {
            EXPECT_EQ(out[k * count + i],
                      predictors[k]->predictFromFeatures(features,
                                                         scalar_scratch))
                << p << " predictors, count " << count << ", predictor "
                << k << ", row " << i;
        }
    }
}

TEST(BatchDeterminism, PredictRowsMatchesScalarAtEveryTail)
{
    std::vector<ArchitectureCentricPredictor> ensembles;
    for (std::size_t k = 0; k < 4; ++k)
        ensembles.push_back(
            fittedEnsemble(2 + k, 0.4 * static_cast<double>(k)));
    const auto rows = featureRows(DesignSpace::sampleValidConfigs(2049, 83));

    BatchPredictScratch scratch;
    for (std::size_t p = 1; p <= ensembles.size(); ++p) {
        std::vector<const ArchitectureCentricPredictor *> predictors;
        for (std::size_t k = 0; k < p; ++k)
            predictors.push_back(&ensembles[k]);
        for (std::size_t count : rowCounts())
            expectRowsMatchScalar(predictors, rows, count, scratch);
    }
}

TEST(BatchDeterminism, PredictRowsPadsAnOffRangeTailExactly)
{
    // The last real row of every tail lies far outside the training
    // range, so its hidden pre-activations leave the fastTanh table
    // and the padded lanes, copies of that row, take the chunk's
    // scalar fallback together with it.
    const ArchitectureCentricPredictor near = fittedEnsemble(3, 0.2);
    const ArchitectureCentricPredictor far = fittedEnsemble(2, 1.1);
    const std::vector<const ArchitectureCentricPredictor *> predictors{
        &near, &far};
    const auto base = featureRows(DesignSpace::sampleValidConfigs(17, 91));

    BatchPredictScratch scratch;
    for (std::size_t count = 1; count <= 17; ++count) {
        std::vector<double> rows = base;
        double *last = &rows[(count - 1) * kNumParams];
        for (std::size_t f = 0; f < kNumParams; ++f)
            last[f] = (f % 2 ? -1.0e6 : 1.0e6) * (last[f] + 1.0);
        expectRowsMatchScalar(predictors, rows, count, scratch);
    }
}

} // namespace
} // namespace acdse
