/**
 * @file
 * Steady-state zero-allocation checks for the hot paths: a repeat
 * simulateBatch pass on a warm threadSimScratch(), a repeat
 * predictRows call on a warm BatchPredictScratch, and a warm drain of
 * the serving ring must not touch the heap at all; an AsyncBatch
 * completion handle costs exactly one allocation. Every operator new
 * in this binary is counted by the replacements below, which is why
 * these checks live in their own executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "arch/design_space.hh"
#include "core/architecture_centric_predictor.hh"
#include "serve/prediction_service.hh"
#include "sim/batch.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace
{

/**
 * Global allocation counter. Replacing the usual (non-aligned)
 * operator new/delete family is enough: neither hot path allocates
 * over-aligned types.
 */
std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace acdse
{
namespace
{

/** Heap allocations made while running @p work. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&work)
{
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    work();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAlloc, WarmSimulateBatchPass)
{
    SimulationOptions options;
    options.warmupInstructions = 500;
    const Trace trace =
        TraceGenerator(profileByName("gcc")).generate(2500);
    const DecodedTrace decoded(trace);
    const auto configs = DesignSpace::sampleValidConfigs(4, 42);
    std::vector<SimulationResult> out(configs.size());

    // The first pass grows the scratch and fills the cacti memo; the
    // repeat over the same configs must reuse all of it.
    SimScratch &scratch = threadSimScratch();
    simulateBatch(configs, decoded, options, out, scratch);
    EXPECT_EQ(allocationsDuring([&] {
                  simulateBatch(configs, decoded, options, out, scratch);
              }),
              0u);
}

/** A small fitted ensemble over a smooth synthetic program. */
ArchitectureCentricPredictor
fittedEnsemble(std::size_t num_models, double shift)
{
    const auto train = DesignSpace::sampleValidConfigs(64, 1);
    const auto responses = DesignSpace::sampleValidConfigs(16, 2);
    const auto metric = [](const MicroarchConfig &config, double wide) {
        return 1000.0 + wide * 4000.0 / config.width() +
               20000.0 / std::sqrt(static_cast<double>(config.robSize()));
    };
    std::vector<ProgramTrainingSet> sets(num_models);
    for (std::size_t j = 0; j < num_models; ++j) {
        char name[24]; // "p" + any size_t: -Wformat-truncation
        std::snprintf(name, sizeof(name), "p%zu", j);
        sets[j].name = name;
        sets[j].configs = train;
        for (const auto &config : train)
            sets[j].values.push_back(
                metric(config, 0.5 + 0.3 * static_cast<double>(j)));
    }
    ArchCentricOptions options;
    options.programModel.mlp.epochs = 20;
    ArchitectureCentricPredictor predictor(options);
    predictor.trainOffline(sets);
    std::vector<double> values;
    for (const auto &config : responses)
        values.push_back(metric(config, 1.0 + shift));
    predictor.fitResponses(responses, values);
    return predictor;
}

TEST(ZeroAlloc, WarmPredictRowsCall)
{
    const ArchitectureCentricPredictor cycles = fittedEnsemble(3, 0.0);
    const ArchitectureCentricPredictor energy = fittedEnsemble(2, 0.5);
    const std::vector<const ArchitectureCentricPredictor *> predictors{
        &cycles, &energy};
    const auto configs = DesignSpace::sampleValidConfigs(13, 7);
    std::vector<double> rows(configs.size() * kNumParams);
    for (std::size_t i = 0; i < configs.size(); ++i)
        configs[i].featuresInto(&rows[i * kNumParams]);
    std::vector<double> out(predictors.size() * configs.size());

    // A full block and a padded tail (8 + 5).
    for (std::size_t count : {std::size_t{8}, std::size_t{13}}) {
        BatchPredictScratch scratch;
        predictRows(predictors, rows.data(), count, out.data(), scratch);
        EXPECT_EQ(allocationsDuring([&] {
                      predictRows(predictors, rows.data(), count,
                                  out.data(), scratch);
                  }),
                  0u)
            << "count " << count;
    }
}

TEST(ZeroAlloc, AsyncBatchIsOneBlock)
{
    // Rows and version stamps share one heap block.
    for (std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                 std::size_t{256}}) {
        std::optional<AsyncBatch> batch;
        EXPECT_EQ(allocationsDuring([&] { batch.emplace(capacity); }), 1u)
            << "capacity " << capacity;
        EXPECT_EQ(batch->rows().size(), capacity);
        EXPECT_EQ(batch->versions().size(), capacity);
        EXPECT_EQ(batch->versions()[capacity - 1], 0u);
    }
}

TEST(ZeroAlloc, WarmDrainOnce)
{
    ModelArtifact first;
    first.add(Metric::Cycles, fittedEnsemble(3, 0.0));
    first.add(Metric::Energy, fittedEnsemble(2, 0.5));
    ModelArtifact second;
    second.add(Metric::Cycles, fittedEnsemble(2, 1.0));
    ServeOptions options;
    options.threads = 1;
    options.startDrainer = false;
    PredictionService service(std::move(first), options);
    const TenantId other = service.registerTenant("other");
    service.publish(other, std::move(second));

    const auto configs = DesignSpace::sampleValidConfigs(11, 5);
    AsyncBatch batch(configs.size());
    const auto submitAll = [&] {
        batch.reset();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            ASSERT_EQ(service.submit(batch, i % 3 ? kDefaultTenant : other,
                                     configs[i]),
                      SubmitStatus::Accepted);
        }
    };

    // The first drain interns the tenant counters and grows the
    // consumer's buffers; the repeat over two tenants reuses them.
    submitAll();
    ASSERT_EQ(service.drainOnce(), configs.size());
    submitAll();
    std::size_t drained = 0;
    EXPECT_EQ(allocationsDuring([&] { drained = service.drainOnce(); }),
              0u);
    EXPECT_EQ(drained, configs.size());
    batch.wait();
    EXPECT_EQ(batch.versions()[0], service.currentVersion());
}

} // namespace
} // namespace acdse
