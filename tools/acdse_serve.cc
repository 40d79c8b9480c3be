/**
 * @file
 * acdse-serve: command-line prediction server front-end.
 *
 * Loads a model artifact (see serve/model_store.hh) and streams
 * predictions for CSV query batches read from a file or stdin. Each
 * input row is the 13 design-space parameters in Table 1 order:
 *
 *   width,ROB,IQ,LSQ,RF,RF rd,RF wr,bpred(K),BTB(K),branches,
 *   IL1(KB),DL1(KB),L2(KB)
 *
 * Lines may end in LF or CRLF. A header row and '#' comment lines are
 * skipped. Output is CSV: the 13 echoed parameters followed by one
 * column per metric the artifact carries. Rows are read in batches of
 * --batch rows, and every batch is served through
 * PredictionService::predict() across the service thread pool
 * (ACDSE_THREADS wide), so piping a large file through this binary
 * exercises the same hot path as bench_serve_throughput.
 *
 * Modes on top of that:
 *
 *  - --tenants name=model.acdse,... serves several models at once.
 *    Input rows gain a leading tenant-name column and output rows
 *    echo it plus the model version that served them. A batch of
 *    mixed tenants is still one predict() call, which routes each row
 *    to its tenant's model; rows are written in input order.
 *
 *  - --hot-swap-watch polls the model file(s) between batches and
 *    republishes on any modification-time change: a batch is served
 *    by one version, later ones see the new one, and a half-written
 *    file is warned about and retried rather than fatal.
 *
 * Usage:
 *   acdse-serve --model trained.acdse [--input queries.csv]
 *               [--batch N] [--stats]
 *               [--stats-out FILE [--stats-every N]]
 *               [--tenants NAME=FILE,...] [--hot-swap-watch]
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/binary_io.hh"
#include "base/csv.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "obs/stats_export.hh"
#include "serve/prediction_service.hh"

using namespace acdse;

namespace
{

/** Most rows one --batch may hold: bounds the batch buffers. */
constexpr std::uint64_t kMaxBatch = 65536;

struct CliOptions
{
    std::string modelFile;
    std::string inputPath = "-";
    std::size_t batch = 256;
    bool hotSwapWatch = false;
    bool printStats = false;
    std::string statsOut;       //!< acdse-stats-v1 dump path
    std::size_t statsEvery = 0; //!< periodic dump cadence, input batches
    /** --tenants entries in declaration order: {name, model path}. */
    std::vector<std::pair<std::string, std::string>> tenants;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --model FILE [--input FILE|-] [--batch N]\n"
        "          [--stats] [--stats-out FILE] [--stats-every N]\n"
        "          [--tenants NAME=FILE,...] [--hot-swap-watch]\n"
        "\n"
        "Serve design-point predictions from a trained model artifact.\n"
        "Reads CSV rows of the 13 Table-1 parameters from --input\n"
        "(default stdin) and writes predictions as CSV to stdout.\n"
        "--batch N rows (1..%llu, default 256) are served per batch\n"
        "on ACDSE_THREADS threads (default: all cores).\n"
        "With --tenants, rows carry a leading tenant-name column and\n"
        "outputs echo the tenant and the serving model version.\n",
        argv0, static_cast<unsigned long long>(kMaxBatch));
    std::exit(2);
}

std::vector<std::pair<std::string, std::string>>
parseTenantsSpec(const std::string &spec)
{
    std::vector<std::pair<std::string, std::string>> tenants;
    std::stringstream stream(spec);
    std::string entry;
    while (std::getline(stream, entry, ',')) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == entry.size())
            fatal("--tenants entry '", entry,
                  "' is not NAME=FILE");
        std::string name = entry.substr(0, eq);
        // A repeated name would serve only its last file.
        if (name == "default" ||
            std::ranges::any_of(tenants, [&](const auto &earlier) {
                return earlier.first == name;
            }))
            fatal("--tenants entry '", entry, "' repeats tenant '", name,
                  "' (--model serves 'default')");
        tenants.emplace_back(std::move(name), entry.substr(eq + 1));
    }
    if (tenants.empty())
        fatal("--tenants needs at least one NAME=FILE entry");
    return tenants;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value after ", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--model")) {
            options.modelFile = value(i);
        } else if (!std::strcmp(argv[i], "--input")) {
            options.inputPath = value(i);
        } else if (!std::strcmp(argv[i], "--batch")) {
            const std::uint64_t batch = parseU64OrDie("--batch", value(i));
            if (batch == 0 || batch > kMaxBatch)
                fatal("--batch must be in 1..", kMaxBatch, ", got ",
                      batch);
            options.batch = static_cast<std::size_t>(batch);
        } else if (!std::strcmp(argv[i], "--tenants")) {
            options.tenants = parseTenantsSpec(value(i));
        } else if (!std::strcmp(argv[i], "--hot-swap-watch")) {
            options.hotSwapWatch = true;
        } else if (!std::strcmp(argv[i], "--stats")) {
            options.printStats = true;
        } else if (!std::strcmp(argv[i], "--stats-out")) {
            options.statsOut = value(i);
        } else if (!std::strcmp(argv[i], "--stats-every")) {
            options.statsEvery = static_cast<std::size_t>(
                parseU64OrDie("--stats-every", value(i)));
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
        } else {
            warn("unknown argument '", argv[i], "'");
            usage(argv[0]);
        }
    }
    if (options.modelFile.empty() && options.tenants.empty()) {
        warn("--model (or --tenants) is required");
        usage(argv[0]);
    }
    if (options.modelFile.empty())
        options.modelFile = options.tenants.front().second;
    if (options.statsEvery != 0 && options.statsOut.empty())
        fatal("--stats-every needs --stats-out");
    return options;
}

/**
 * Parse @p cells (the 13 Table-1 parameters, already split) into a
 * configuration; returns false when the row looks like a header row
 * (non-numeric first parameter cell on line 1). Illegal parameter
 * values are fatal with the offending line number, since silently
 * serving a prediction for a point outside the design space would be
 * worse than stopping.
 */
bool
parseParams(const std::vector<std::string> &cells, std::size_t offset,
            std::size_t lineNo, MicroarchConfig &out)
{
    if (cells.size() != offset + kNumParams) {
        fatal("line ", lineNo, ": expected ", offset + kNumParams,
              " comma-separated values, got ", cells.size());
    }
    std::array<int, kNumParams> values;
    for (std::size_t p = 0; p < kNumParams; ++p) {
        const auto parsed = parseI64(cells[offset + p]);
        if (!parsed) {
            // A non-numeric *first* cell on the first line is a header
            // row; a non-numeric cell anywhere else is corrupt data and
            // must not be skipped silently.
            if (lineNo == 1 && p == 0)
                return false;
            fatal("line ", lineNo, ": '", cells[offset + p],
                  "' is not an integer");
        }
        const ParamSpec &spec = paramSpec(static_cast<Param>(p));
        if (*parsed < INT_MIN || *parsed > INT_MAX ||
            !spec.contains(static_cast<int>(*parsed))) {
            fatal("line ", lineNo, ": ", *parsed,
                  " is not a legal value for ", spec.name);
        }
        values[p] = static_cast<int>(*parsed);
    }
    out = MicroarchConfig(values);
    return true;
}

void
writeHeader(const std::vector<Metric> &metrics, bool tenantMode)
{
    if (tenantMode)
        std::printf("tenant,");
    for (std::size_t p = 0; p < kNumParams; ++p)
        std::printf("%s%s", p ? "," : "",
                    paramName(static_cast<Param>(p)).c_str());
    if (tenantMode)
        std::printf(",version");
    for (Metric metric : metrics)
        std::printf(",%s", metricName(metric));
    std::printf("\n");
}

void
writeRow(const MicroarchConfig &query, const PredictionRow &row,
         const std::vector<Metric> &metrics, const char *tenant,
         std::uint64_t version)
{
    if (tenant)
        std::printf("%s,", tenant);
    const auto &raw = query.raw();
    for (std::size_t p = 0; p < kNumParams; ++p)
        std::printf("%s%d", p ? "," : "", raw[p]);
    if (tenant)
        std::printf(",%llu", static_cast<unsigned long long>(version));
    for (Metric metric : metrics)
        std::printf(",%.17g", row.get(metric));
    std::printf("\n");
}

/**
 * --hot-swap-watch bookkeeping for one tenant's model file: poll the
 * modification time between batches and republish on change. A file
 * that is missing or half-written when we look (SerializationError)
 * is warned about and retried on the next poll -- serving continues
 * on the previous version throughout.
 */
struct WatchedModel
{
    TenantId tenant = kDefaultTenant;
    std::string path;
    std::filesystem::file_time_type lastWrite{};

    void poll(PredictionService &service)
    {
        std::error_code ec;
        const auto stamp =
            std::filesystem::last_write_time(path, ec);
        if (ec || stamp == lastWrite)
            return;
        try {
            const std::uint64_t version =
                service.publish(tenant, loadArtifact(path));
            lastWrite = stamp;
            inform("hot-swapped '", path, "' as version ", version);
        } catch (const SerializationError &err) {
            // Likely caught mid-write; keep serving the old version
            // and try again next poll (lastWrite stays stale).
            warn("hot-swap of '", path, "' failed: ", err.what());
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);
    const bool tenantMode = !cli.tenants.empty();

    // Every row goes through predict(); nothing is ever submit()ted,
    // so no drainer thread is started.
    ServeOptions serve_options;
    serve_options.startDrainer = false;

    std::ifstream file;
    std::istream *in = &std::cin;
    if (cli.inputPath != "-") {
        file.open(cli.inputPath);
        if (!file)
            fatal("cannot open input '", cli.inputPath, "'");
        in = &file;
    }

    try {
        PredictionService service =
            PredictionService::fromFile(cli.modelFile, serve_options);

        std::vector<WatchedModel> watched;
        std::vector<std::string> tenantNames{"default"};
        if (tenantMode) {
            for (const auto &[name, path] : cli.tenants) {
                // Names are new and not "default" (parseTenantsSpec),
                // so the ids are 1, 2, ... in entry order.
                const TenantId tenant = service.registerTenant(name);
                service.publish(tenant, loadArtifact(path));
                tenantNames.push_back(name);
                if (cli.hotSwapWatch)
                    watched.push_back({tenant, path, {}});
            }
        } else if (cli.hotSwapWatch) {
            watched.push_back({kDefaultTenant, cli.modelFile, {}});
        }
        // Seed the watchers' timestamps so the first poll is a no-op
        // for an unchanged file.
        for (WatchedModel &watch : watched) {
            std::error_code ec;
            watch.lastWrite =
                std::filesystem::last_write_time(watch.path, ec);
        }

        const std::vector<Metric> metrics = service.metrics();
        const ModelArtifact &artifact =
            service.model()->artifact;
        inform("serving '", cli.modelFile, "' (",
               artifact.tag().empty() ? "untagged" : artifact.tag(),
               "), ", metrics.size(), " metrics, pool of ",
               service.poolThreads() + 1, " threads");
        writeHeader(metrics, tenantMode);

        std::vector<MicroarchConfig> batch;
        std::vector<TenantId> batchTenants;
        std::vector<std::uint64_t> versions;
        batch.reserve(cli.batch);
        batchTenants.reserve(cli.batch);

        // --stats-out: the global registry (pool/ metrics) merged with
        // the service's private one, written every --stats-every input
        // batches from this loop and once more at exit.
        auto writeStats = [&] {
            obs::Snapshot snap = obs::Registry::global().snapshot();
            snap.merge(service.statsSnapshot());
            obs::writeStatsFile(cli.statsOut, snap);
        };
        std::size_t batches = 0;

        std::string line;
        std::size_t line_no = 0;
        auto flush = [&] {
            if (batch.empty())
                return;
            const std::vector<PredictionRow> rows =
                service.predict(batch, batchTenants, &versions);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                writeRow(batch[i], rows[i], metrics,
                         tenantMode ? tenantNames[batchTenants[i]].c_str()
                                    : nullptr,
                         versions[i]);
            }
            batch.clear();
            batchTenants.clear();
            if (cli.statsEvery != 0 && ++batches % cli.statsEvery == 0)
                writeStats();
            for (WatchedModel &watch : watched)
                watch.poll(service);
        };
        while (std::getline(*in, line)) {
            ++line_no;
            if (line.ends_with('\r'))
                line.pop_back(); // CRLF input
            if (line.empty() || line[0] == '#')
                continue;
            const auto cells = splitCsvLine(line);
            TenantId tenant = kDefaultTenant;
            std::size_t offset = 0;
            if (tenantMode) {
                if (cells.empty())
                    continue;
                tenant = service.findTenant(cells[0]);
                if (tenant == ModelRegistry::kInvalidTenant) {
                    // Line 1 with an unknown first cell is the
                    // header row; anywhere else it is bad routing.
                    if (line_no == 1)
                        continue;
                    fatal("line ", line_no, ": unknown tenant '",
                          cells[0], "'");
                }
                offset = 1;
            }
            MicroarchConfig config;
            if (!parseParams(cells, offset, line_no, config))
                continue;
            batch.push_back(config);
            batchTenants.push_back(tenant);
            if (batch.size() == cli.batch)
                flush();
        }
        flush();

        if (cli.printStats) {
            // Span durations are exact ns (count, sum, min, max); only
            // their bucket edges are log-scaled. Each predict() call
            // is one serve/batch span.
            const obs::Snapshot snap = service.statsSnapshot();
            const obs::HistogramSnapshot &spans =
                snap.stages.at("serve/batch").spans;
            const auto points =
                static_cast<double>(snap.counters.at("serve/points"));
            std::fprintf(
                stderr,
                "stats: %llu batches, %.0f points, "
                "mean %.3f ms/batch (min %.3f, max %.3f), "
                "%.0f points/s\n",
                static_cast<unsigned long long>(spans.count), points,
                spans.mean() / 1e6, static_cast<double>(spans.min) / 1e6,
                static_cast<double>(spans.max) / 1e6,
                spans.sum ? points * 1e9 / static_cast<double>(spans.sum)
                          : 0.0);
        }
        if (!cli.statsOut.empty())
            writeStats();
    } catch (const SerializationError &err) {
        fatal("cannot serve '", cli.modelFile, "': ", err.what());
    }
    return 0;
}
