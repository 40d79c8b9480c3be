#include "explore/explorer.hh"

#include <algorithm>
#include <memory>

#include "arch/design_space.hh"
#include "base/check.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "obs/trace_span.hh"

namespace acdse::explore
{

namespace
{

/** Per-tile RNG seed derivation (the evaluation.cc idiom). */
std::uint64_t
tileSeed(std::uint64_t seed, std::size_t tile)
{
    return seed ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(tile) + 1));
}

/** Validity rules on raw values (DesignSpace::isValid, no config). */
bool
validValues(const PointValues &values)
{
    const int rob = values[static_cast<std::size_t>(Param::RobSize)];
    if (values[static_cast<std::size_t>(Param::IqSize)] > rob)
        return false;
    if (values[static_cast<std::size_t>(Param::LsqSize)] > rob)
        return false;
    return values[static_cast<std::size_t>(Param::RfWritePorts)] <=
           values[static_cast<std::size_t>(Param::RfReadPorts)];
}

} // namespace

TileGenerator::TileGenerator(const SubSpace &space, Mode mode,
                             std::size_t tileSize, std::uint64_t samples,
                             std::uint64_t seed)
    : space_(space), mode_(mode), tileSize_(tileSize), samples_(samples),
      seed_(seed), raw_(space.rawPoints())
{
    ACDSE_CHECK(tileSize_ > 0, "tile size must be positive");
    if (mode_ == Mode::Sample) {
        ACDSE_CHECK(samples_ > 0, "sample count must be positive");
        ACDSE_CHECK(space_.validPoints() > 0,
                    "sub-space has no valid points to sample");
    }
    std::uint64_t stream = mode_ == Mode::Enumerate ? raw_ : samples_;
    // A sub-space without a valid point enumerates nothing: filtering
    // its every raw point would only confirm that.
    if (space_.validPoints() == 0)
        stream = 0;
    tiles_ = static_cast<std::size_t>((stream + tileSize_ - 1) /
                                      tileSize_);

    // Feature values are looked up per (parameter, value), built once
    // through featuresInto itself so enumerated feature rows are
    // bit-identical to MicroarchConfig::asFeatureVector on the same
    // point (featuresInto applies log2 to the capacity parameters).
    const MicroarchConfig baseline = DesignSpace::baseline();
    double row[kNumParams];
    for (std::size_t i = 0; i < kNumParams; ++i) {
        const Param p = static_cast<Param>(i);
        for (int value : space_.values(p)) {
            MicroarchConfig probe = baseline;
            probe.set(p, value);
            probe.featuresInto(row);
            featureOf_[i].push_back(row[i]);
        }
    }
}

void
TileGenerator::emit(const std::array<std::size_t, kNumParams> &idx,
                    std::vector<PointValues> &values,
                    std::vector<double> &features) const
{
    PointValues point;
    for (std::size_t i = 0; i < kNumParams; ++i) {
        point[i] = space_.values(static_cast<Param>(i))[idx[i]];
        features.push_back(featureOf_[i][idx[i]]);
    }
    values.push_back(point);
}

TileGenerator::TileStats
TileGenerator::generate(std::size_t tile,
                        std::vector<PointValues> &values,
                        std::vector<double> &features) const
{
    ACDSE_CHECK(tile < tiles_, "tile ", tile, " out of range");
    values.clear();
    features.clear();
    TileStats stats;
    std::array<std::size_t, kNumParams> idx{};
    if (mode_ == Mode::Enumerate) {
        const std::uint64_t start =
            static_cast<std::uint64_t>(tile) * tileSize_;
        const std::uint64_t end =
            std::min<std::uint64_t>(start + tileSize_, raw_);
        // Decode the tile's first mixed-radix index (last parameter
        // fastest), then advance odometer-style: no per-point divides.
        std::uint64_t rem = start;
        for (std::size_t i = kNumParams; i-- > 0;) {
            const std::uint64_t count =
                space_.values(static_cast<Param>(i)).size();
            idx[i] = static_cast<std::size_t>(rem % count);
            rem /= count;
        }
        PointValues point;
        for (std::uint64_t at = start; at < end; ++at) {
            for (std::size_t i = 0; i < kNumParams; ++i)
                point[i] = space_.values(static_cast<Param>(i))[idx[i]];
            if (validValues(point))
                emit(idx, values, features);
            for (std::size_t i = kNumParams; i-- > 0;) {
                if (++idx[i] <
                    space_.values(static_cast<Param>(i)).size())
                    break;
                idx[i] = 0;
            }
        }
        stats.generated = end - start;
    } else {
        const std::uint64_t start =
            static_cast<std::uint64_t>(tile) * tileSize_;
        const std::uint64_t quota =
            std::min<std::uint64_t>(tileSize_, samples_ - start);
        // The RNG derives from (seed, tile), never from the worker
        // thread, so tile contents are schedule-independent.
        Rng rng(tileSeed(seed_, tile));
        PointValues point;
        while (stats.valid < quota) {
            for (std::size_t i = 0; i < kNumParams; ++i) {
                const auto &subset =
                    space_.values(static_cast<Param>(i));
                idx[i] = static_cast<std::size_t>(
                    rng.nextBounded(subset.size()));
                point[i] = subset[idx[i]];
            }
            ++stats.generated;
            if (!validValues(point))
                continue;
            emit(idx, values, features);
            ++stats.valid;
        }
        return stats;
    }
    stats.valid = values.size();
    return stats;
}

namespace
{

/** Partial reduction of one tile, merged serially in tile order. */
struct TileReduction
{
    ParetoFront front;
    std::vector<TopK> topk;
    TileGenerator::TileStats stats;
};

} // namespace

ExploreResult
explore(std::span<const MetricEnsemble> ensembles,
        const ExploreOptions &options)
{
    ACDSE_CHECK(!ensembles.empty(), "need at least one metric ensemble");
    for (const auto &ensemble : ensembles) {
        ACDSE_CHECK(ensemble.predictor && ensemble.predictor->ready(),
                    "ensemble for '", metricName(ensemble.metric),
                    "' is not fitted");
        ACDSE_CHECK(ensemble.predictor->featureDim() == kNumParams,
                    "ensemble for '", metricName(ensemble.metric),
                    "' expects ", ensemble.predictor->featureDim(),
                    " features, the design space has ", kNumParams);
    }
    const std::size_t m = ensembles.size();
    std::vector<const ArchitectureCentricPredictor *> predictors(m);
    for (std::size_t k = 0; k < m; ++k)
        predictors[k] = ensembles[k].predictor;
    std::size_t pareto_x = m, pareto_y = m;
    for (std::size_t k = 0; k < m; ++k) {
        if (ensembles[k].metric == options.paretoX)
            pareto_x = k;
        if (ensembles[k].metric == options.paretoY)
            pareto_y = k;
    }
    ACDSE_CHECK(pareto_x < m && pareto_y < m,
                "the Pareto objectives must be among the scored metrics");

    ThreadPool &pool =
        options.pool ? *options.pool : ThreadPool::global();
    const TileGenerator generator(options.space, options.mode,
                                  options.tileSize, options.samples,
                                  options.seed);
    const std::size_t tiles = generator.tiles();

    // Intern every stage and counter before fanning out; workers then
    // only touch wait-free instruments.
    obs::Registry &registry = obs::Registry::global();
    obs::Stage &tile_stage = registry.stage("explore/tile");
    obs::Stage &reduce_stage = registry.stage("explore/reduce");
    obs::Counter &generated_ctr =
        registry.counter("explore/points-generated");
    obs::Counter &filtered_ctr =
        registry.counter("explore/points-filtered");
    obs::Counter &predicted_ctr =
        registry.counter("explore/points-predicted");
    obs::Counter &tiles_ctr = registry.counter("explore/tiles");

    ParetoFront front;
    std::vector<TopK> topk(m, TopK(options.topK));
    ExploreStats totals;

    // Tiles run in waves: each wave fans out across the pool into
    // caller-indexed slots, then merges serially in tile order. The
    // reducers are order-independent set functions, so the wave split
    // only bounds peak memory; results are bit-identical at any thread
    // count.
    constexpr std::size_t kWave = 1024;
    std::vector<std::unique_ptr<TileReduction>> wave(
        std::min(kWave, tiles));
    std::size_t wave_begin = 0;

    // Pool task for one tile: generate, predict, reduce locally. The
    // span covers a whole tile (thousands of points) -- stage-granular.
    const auto run_tile = [&](std::size_t tile) {
        const obs::TraceSpan span(tile_stage);
        auto reduction = std::make_unique<TileReduction>();
        reduction->topk.assign(m, TopK(options.topK));

        std::vector<PointValues> values;
        std::vector<double> features;
        reduction->stats = generator.generate(tile, values, features);
        const std::size_t n = values.size();

        // Metric k's prediction for point i lands in outs[k * n + i].
        std::vector<double> outs(m * n);
        BatchPredictScratch scratch;
        predictRows(predictors, features.data(), n, outs.data(), scratch);

        for (std::size_t i = 0; i < n; ++i) {
            reduction->front.add(values[i], outs[pareto_x * n + i],
                                 outs[pareto_y * n + i]);
        }
        for (std::size_t k = 0; k < m; ++k) {
            for (std::size_t i = 0; i < n; ++i)
                reduction->topk[k].add(values[i], outs[k * n + i]);
        }

        generated_ctr.add(reduction->stats.generated);
        filtered_ctr.add(reduction->stats.generated -
                         reduction->stats.valid);
        predicted_ctr.add(n);
        tiles_ctr.add(1);
        wave[tile - wave_begin] = std::move(reduction);
    };

    // Serial in-order merge of one completed wave.
    const auto merge_wave = [&](std::size_t count) {
        const obs::TraceSpan span(reduce_stage);
        for (std::size_t slot = 0; slot < count; ++slot) {
            TileReduction &reduction = *wave[slot];
            front.merge(reduction.front);
            for (std::size_t k = 0; k < m; ++k)
                topk[k].merge(reduction.topk[k]);
            totals.generated += reduction.stats.generated;
            totals.filtered += reduction.stats.generated -
                               reduction.stats.valid;
            totals.predicted += reduction.stats.valid;
            ++totals.tiles;
            wave[slot].reset();
        }
    };

    for (std::size_t begin = 0; begin < tiles; begin += kWave) {
        const std::size_t end = std::min(begin + kWave, tiles);
        wave_begin = begin;
        pool.parallelFor(begin, end, run_tile);
        merge_wave(end - begin);
    }

    ExploreResult result;
    result.stats = totals;
    for (const auto &entry : front.entries())
        result.frontier.push_back(
            {MicroarchConfig(entry.values), entry.x, entry.y});
    for (std::size_t k = 0; k < m; ++k) {
        result.metrics.push_back(ensembles[k].metric);
        std::vector<ScoredConfig> best;
        for (const auto &entry : topk[k].sorted())
            best.push_back({MicroarchConfig(entry.values), entry.value});
        result.topk.push_back(std::move(best));
    }
    return result;
}

} // namespace acdse::explore
