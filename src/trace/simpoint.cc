#include "trace/simpoint.hh"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "ml/kmeans.hh"

namespace acdse
{

namespace
{

/** Dimension of the randomly projected basic-block vectors. */
constexpr std::size_t kProjectedDims = 16;

} // namespace

SimPointResult
simpointAnalyze(const Trace &trace, const SimPointOptions &options)
{
    ACDSE_CHECK(options.intervalLength > 0, "interval length must be > 0");

    const std::size_t n = trace.size();
    const std::size_t num_intervals =
        (n + options.intervalLength - 1) / options.intervalLength;

    // Build randomly-projected BBVs: every basic block hashes its
    // execution count into a small dense vector, which is what the
    // original SimPoint does to keep clustering tractable.
    std::vector<std::vector<double>> bbvs(
        num_intervals, std::vector<double>(kProjectedDims, 0.0));

    auto project = [&](std::uint64_t block_pc, std::size_t interval,
                       double count) {
        // Two independent hashes: one picks the dimension, one the sign,
        // giving a sparse random projection.
        std::uint64_t h = block_pc * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
        const std::size_t dim = h % kProjectedDims;
        const double sign = (h >> 32) & 1 ? 1.0 : -1.0;
        bbvs[interval][dim] += sign * count;
    };

    std::uint64_t cur_block = trace[0].pc;
    std::uint64_t block_len = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceInstruction &inst = trace[i];
        ++block_len;
        const bool ends_block =
            inst.cls == InstClass::Branch && inst.taken;
        const bool last = i + 1 == n;
        if (ends_block || last) {
            project(cur_block, i / options.intervalLength,
                    static_cast<double>(block_len));
            if (!last) {
                cur_block = trace[i + 1].pc;
                block_len = 0;
            }
        }
    }

    // Normalise each BBV so intervals compare by shape, not raw length
    // (the final interval may be short).
    for (auto &v : bbvs) {
        double norm = 0.0;
        for (double x : v)
            norm += x * x;
        norm = std::sqrt(norm);
        if (norm > 0.0) {
            for (double &x : v)
                x /= norm;
        }
    }

    const std::size_t k = std::min(options.maxClusters, num_intervals);
    KmeansResult clusters = kmeans(bbvs, k, options.seed);

    // Pick the interval closest to each centroid as representative.
    SimPointResult result;
    result.numIntervals = num_intervals;
    result.inertia = clusters.inertia;
    std::vector<std::size_t> rep(k, num_intervals);
    std::vector<double> rep_dist(k,
                                 std::numeric_limits<double>::infinity());
    std::vector<std::size_t> size(k, 0);
    for (std::size_t i = 0; i < num_intervals; ++i) {
        const std::size_t c = clusters.assignment[i];
        ++size[c];
        double d = 0.0;
        for (std::size_t j = 0; j < bbvs[i].size(); ++j) {
            const double diff = bbvs[i][j] - clusters.centroids[c][j];
            d += diff * diff;
        }
        if (d < rep_dist[c]) {
            rep_dist[c] = d;
            rep[c] = i;
        }
    }
    for (std::size_t c = 0; c < k; ++c) {
        if (!size[c])
            continue;
        result.points.push_back(
            {rep[c], static_cast<double>(size[c]) /
                         static_cast<double>(num_intervals)});
    }
    return result;
}

double
simpointWeightedSum(const SimPointResult &result,
                    const std::vector<double> &perIntervalValues)
{
    double acc = 0.0;
    for (const auto &point : result.points) {
        ACDSE_CHECK(point.intervalIndex < perIntervalValues.size(),
                     "per-interval values too short");
        acc += point.weight * perIntervalValues[point.intervalIndex];
    }
    return acc * static_cast<double>(result.numIntervals);
}

} // namespace acdse
