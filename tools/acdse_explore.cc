/**
 * @file
 * acdse-explore: streaming design-space exploration front-end.
 *
 * Loads a trained model artifact (see serve/model_store.hh) and runs
 * the exploration engine over the 13-parameter design space: seeded
 * uniform sampling of the full ~18-billion-point valid space
 * (--mode sample, the default) or exhaustive enumeration of a reduced
 * grid (--mode enumerate with --stride/--fix). The predicted Pareto
 * frontier and per-metric top-k lists are written as CSV; an optional
 * greedy refinement pass (--refine) hill-climbs each top-k point over
 * its single-parameter neighbours through the same batched kernels.
 *
 * CSV schemas (atomic writes, no quoting):
 *   frontier: the 13 Table-1 parameter columns, then one column per
 *             Pareto objective (e.g. cycles,energy), ascending in the
 *             first objective;
 *   topk:     metric,rank, the 13 parameter columns, predicted.
 *
 * Usage:
 *   acdse-explore --model FILE [--mode sample|enumerate]
 *                 [--samples N] [--stride K] [--fix NAME=VALUE]...
 *                 [--metrics a,b] [--pareto X,Y] [--topk K] [--refine]
 *                 [--seed S] [--frontier-out FILE] [--topk-out FILE]
 *                 [--stats-out FILE]
 *
 * The engine runs on the shared thread pool, ACDSE_THREADS wide;
 * results are bit-identical at any width.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/binary_io.hh"
#include "base/csv.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "explore/explorer.hh"
#include "explore/refine.hh"
#include "obs/stats_export.hh"
#include "serve/model_store.hh"

using namespace acdse;

namespace
{

/** Largest --topk: bounds each top-k list and its up-front buffer. */
constexpr std::uint64_t kMaxTopK = 65536;

struct CliOptions
{
    std::string modelFile;
    explore::ExploreOptions engine;
    std::vector<Metric> metrics{Metric::Cycles, Metric::Energy};
    bool refine = false;
    std::string frontierOut = "frontier.csv";
    std::string topkOut = "topk.csv";
    std::string statsOut; //!< acdse-stats-v1 dump path (empty = none)
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --model FILE [--mode sample|enumerate]\n"
        "          [--samples N] [--stride K] [--fix NAME=VALUE]...\n"
        "          [--metrics a,b] [--pareto X,Y] [--topk K]\n"
        "          [--refine] [--seed S] [--frontier-out FILE]\n"
        "          [--topk-out FILE] [--stats-out FILE]\n"
        "\n"
        "Explore the design space with a trained model artifact:\n"
        "predicted Pareto frontier and per-metric top-k as CSV.\n"
        "--samples and --stride must be positive; --topk is at most\n"
        "%llu. Runs on ACDSE_THREADS threads (default: all cores).\n"
        "Parameter names for --fix: width,rob,iq,lsq,rf,rfrd,rfwr,\n"
        "bpred,btb,br,il1,dl1,l2.\n",
        argv0, static_cast<unsigned long long>(kMaxTopK));
    std::exit(2);
}

/** CLI key of each parameter, in Param order. */
constexpr const char *kParamKeys[kNumParams] = {
    "width", "rob", "iq",  "lsq", "rf",  "rfrd", "rfwr",
    "bpred", "btb", "br",  "il1", "dl1", "l2"};

Param
paramByKey(const std::string &key)
{
    for (std::size_t i = 0; i < kNumParams; ++i) {
        if (key == kParamKeys[i])
            return static_cast<Param>(i);
    }
    fatal("unknown parameter '", key, "' (expected one of width, rob, "
          "iq, lsq, rf, rfrd, rfwr, bpred, btb, br, il1, dl1, l2)");
}

Metric
metricByKey(const std::string &key)
{
    for (Metric metric : kAllMetrics) {
        if (key == metricName(metric))
            return metric;
    }
    fatal("unknown metric '", key,
          "' (expected cycles, energy, ed or edd)");
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    std::size_t stride = 1;
    std::vector<std::pair<Param, std::int64_t>> fixes;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value after ", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--model")) {
            options.modelFile = value(i);
        } else if (!std::strcmp(argv[i], "--mode")) {
            const std::string mode = value(i);
            if (mode == "sample")
                options.engine.mode = explore::Mode::Sample;
            else if (mode == "enumerate")
                options.engine.mode = explore::Mode::Enumerate;
            else
                fatal("--mode must be 'sample' or 'enumerate', got '",
                      mode, "'");
        } else if (!std::strcmp(argv[i], "--samples")) {
            options.engine.samples =
                parseU64OrDie("--samples", value(i));
            if (options.engine.samples == 0)
                fatal("--samples must be positive");
        } else if (!std::strcmp(argv[i], "--stride")) {
            stride = static_cast<std::size_t>(
                parseU64OrDie("--stride", value(i)));
            if (stride == 0)
                fatal("--stride must be positive");
        } else if (!std::strcmp(argv[i], "--fix")) {
            const std::string assign = value(i);
            const auto eq = assign.find('=');
            if (eq == std::string::npos)
                fatal("--fix expects NAME=VALUE, got '", assign, "'");
            const std::string key = assign.substr(0, eq);
            const Param p = paramByKey(key);
            // A second pin of one parameter would silently win.
            for (const auto &fix : fixes) {
                if (fix.first == p)
                    fatal("--fix repeats parameter '", key, "'");
            }
            const auto v =
                parseI64OrDie("--fix", assign.substr(eq + 1));
            fixes.emplace_back(p, v);
        } else if (!std::strcmp(argv[i], "--metrics")) {
            options.metrics.clear();
            const std::string list = value(i);
            for (const auto &name : splitList(list, ',')) {
                const Metric metric = metricByKey(name);
                // A repeated metric would write its top-k rows twice.
                if (std::ranges::find(options.metrics, metric) !=
                    options.metrics.end())
                    fatal("--metrics '", list, "' repeats metric '",
                          name, "'");
                options.metrics.push_back(metric);
            }
        } else if (!std::strcmp(argv[i], "--pareto")) {
            const std::string list = value(i);
            const auto pair = splitList(list, ',');
            if (pair.size() != 2)
                fatal("--pareto expects two metrics, e.g. "
                      "cycles,energy");
            options.engine.paretoX = metricByKey(pair[0]);
            options.engine.paretoY = metricByKey(pair[1]);
            // One metric against itself has a one-point frontier.
            if (options.engine.paretoX == options.engine.paretoY)
                fatal("--pareto '", list, "' repeats metric '", pair[0],
                      "'");
        } else if (!std::strcmp(argv[i], "--topk")) {
            const std::uint64_t topk = parseU64OrDie("--topk", value(i));
            if (topk > kMaxTopK)
                fatal("--topk must be at most ", kMaxTopK, ", got ", topk);
            options.engine.topK = static_cast<std::size_t>(topk);
        } else if (!std::strcmp(argv[i], "--refine")) {
            options.refine = true;
        } else if (!std::strcmp(argv[i], "--seed")) {
            options.engine.seed = parseU64OrDie("--seed", value(i));
        } else if (!std::strcmp(argv[i], "--frontier-out")) {
            options.frontierOut = value(i);
        } else if (!std::strcmp(argv[i], "--topk-out")) {
            options.topkOut = value(i);
        } else if (!std::strcmp(argv[i], "--stats-out")) {
            options.statsOut = value(i);
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
        } else {
            warn("unknown argument '", argv[i], "'");
            usage(argv[0]);
        }
    }
    if (options.modelFile.empty()) {
        warn("--model is required");
        usage(argv[0]);
    }
    if (options.metrics.empty())
        fatal("--metrics must name at least one metric");

    // Sub-space construction: stride first, then pins on top. Illegal
    // pin values are fatal here rather than deep in the engine.
    explore::SubSpace space = explore::SubSpace::strided(stride);
    for (const auto &[p, v] : fixes) {
        if (v < INT_MIN || v > INT_MAX ||
            !paramSpec(p).contains(static_cast<int>(v)))
            fatal(v, " is not a legal value for ", paramSpec(p).name);
        space.fix(p, static_cast<int>(v));
    }
    // Enumerating an empty grid reports 0 points; sampling one cannot
    // draw any.
    if (options.engine.mode == explore::Mode::Sample &&
        space.validPoints() == 0)
        fatal("the sub-space given by --stride/--fix has no valid "
              "point to sample");
    options.engine.space = std::move(space);

    bool has_x = false, has_y = false;
    for (Metric metric : options.metrics) {
        has_x |= metric == options.engine.paretoX;
        has_y |= metric == options.engine.paretoY;
    }
    if (!has_x || !has_y)
        fatal("the --pareto objectives must be listed in --metrics");
    return options;
}

/** One formatted CSV cell per double, full round-trip precision. */
std::string
cell(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
writeFrontierCsv(const std::string &path,
                 const std::vector<explore::FrontierConfig> &frontier,
                 Metric x, Metric y)
{
    CsvFile csv;
    for (std::size_t p = 0; p < kNumParams; ++p)
        csv.header.push_back(kParamKeys[p]);
    csv.header.push_back(metricName(x));
    csv.header.push_back(metricName(y));
    for (const auto &point : frontier) {
        std::vector<std::string> row;
        for (int raw : point.config.raw())
            row.push_back(std::to_string(raw));
        row.push_back(cell(point.x));
        row.push_back(cell(point.y));
        csv.rows.push_back(std::move(row));
    }
    writeCsvAtomic(path, csv);
}

void
writeTopkCsv(const std::string &path, const explore::ExploreResult &result)
{
    CsvFile csv;
    csv.header = {"metric", "rank"};
    for (std::size_t p = 0; p < kNumParams; ++p)
        csv.header.push_back(kParamKeys[p]);
    csv.header.push_back("predicted");
    for (std::size_t k = 0; k < result.metrics.size(); ++k) {
        for (std::size_t rank = 0; rank < result.topk[k].size();
             ++rank) {
            const auto &best = result.topk[k][rank];
            std::vector<std::string> row{
                metricName(result.metrics[k]),
                std::to_string(rank + 1)};
            for (int raw : best.config.raw())
                row.push_back(std::to_string(raw));
            row.push_back(cell(best.predicted));
            csv.rows.push_back(std::move(row));
        }
    }
    writeCsvAtomic(path, csv);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    try {
        const ModelArtifact artifact = loadArtifact(cli.modelFile);
        std::vector<explore::MetricEnsemble> ensembles;
        for (Metric metric : cli.metrics) {
            if (!artifact.has(metric))
                fatal("artifact '", cli.modelFile,
                      "' has no predictor for '", metricName(metric),
                      "'");
            const ArchitectureCentricPredictor &predictor =
                artifact.predictor(metric);
            if (!predictor.ready())
                fatal("artifact predictor for '", metricName(metric),
                      "' has no fitted responses");
            ensembles.push_back({metric, &predictor});
        }
        inform("exploring with '", cli.modelFile, "' (",
               artifact.tag().empty() ? "untagged" : artifact.tag(),
               "), ", ensembles.size(), " metrics, ",
               cli.engine.mode == explore::Mode::Enumerate
                   ? cli.engine.space.validPoints()
                   : cli.engine.samples,
               cli.engine.mode == explore::Mode::Enumerate
                   ? " valid grid points"
                   : " samples");

        const auto start = std::chrono::steady_clock::now();
        explore::ExploreResult result =
            explore::explore(ensembles, cli.engine);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();

        if (cli.refine) {
            for (std::size_t k = 0; k < result.metrics.size(); ++k) {
                auto refined = explore::refine(
                    explore::predictorScorer(*ensembles[k].predictor),
                    result.topk[k]);
                if (refined.size() > cli.engine.topK)
                    refined.resize(cli.engine.topK);
                result.topk[k] = std::move(refined);
            }
        }

        writeFrontierCsv(cli.frontierOut, result.frontier,
                         cli.engine.paretoX, cli.engine.paretoY);
        writeTopkCsv(cli.topkOut, result);

        std::printf("explored %llu points (%llu generated, %llu "
                    "filtered) in %.2f s: %.0f points/s\n",
                    static_cast<unsigned long long>(
                        result.stats.predicted),
                    static_cast<unsigned long long>(
                        result.stats.generated),
                    static_cast<unsigned long long>(
                        result.stats.filtered),
                    seconds,
                    static_cast<double>(result.stats.predicted) /
                        seconds);
        std::printf("frontier: %zu points (%s vs %s) -> %s\n",
                    result.frontier.size(),
                    metricName(cli.engine.paretoX),
                    metricName(cli.engine.paretoY),
                    cli.frontierOut.c_str());
        std::printf("top-%zu per metric%s -> %s\n", cli.engine.topK,
                    cli.refine ? " (refined)" : "",
                    cli.topkOut.c_str());
        if (!cli.statsOut.empty()) {
            obs::writeStatsFile(cli.statsOut,
                                obs::Registry::global().snapshot());
            std::printf("wrote stage/metric stats (%s) to %s\n",
                        std::string(obs::kStatsSchema).c_str(),
                        cli.statsOut.c_str());
        }
    } catch (const SerializationError &err) {
        fatal("cannot explore with '", cli.modelFile, "': ",
              err.what());
    }
    return 0;
}
