#include "core/campaign.hh"

#include <atomic>
#include <span>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/csv.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/thread_pool.hh"
#include "obs/trace_span.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{

namespace
{

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    return static_cast<std::size_t>(parseU64OrDie(name, value));
}

/**
 * This worker thread's simulator components, reused across fill cells
 * so steady-state campaign fill performs no per-simulation allocation.
 * Thread-local, so never shared -- parallelFor gives no stable worker
 * index to key a scratch pool by, and a SimScratch is pure storage
 * (results never depend on what ran through it), so per-thread reuse
 * cannot affect determinism.
 */
SimScratch &
fillScratch()
{
    thread_local SimScratch scratch; // NOLINT(acdse-local-static)
    return scratch;
}

} // namespace

CampaignOptions
CampaignOptions::fromEnvironment()
{
    CampaignOptions options;
    options.numConfigs = envSize("ACDSE_CONFIGS", options.numConfigs);
    options.traceLength =
        envSize("ACDSE_TRACE_LEN", options.traceLength);
    options.warmupInstructions =
        envSize("ACDSE_WARMUP", options.warmupInstructions);
    // threads stays 0 here: the ThreadPool sizing rule (which itself
    // honours ACDSE_THREADS) resolves it, the same way every other
    // subsystem sizes its parallelism.
    if (const char *dir = std::getenv("ACDSE_CACHE_DIR"); dir && *dir)
        options.cacheDir = dir;
    return options;
}

Campaign::Campaign(std::vector<std::string> programs,
                   CampaignOptions options)
    : options_(std::move(options)), programs_(std::move(programs))
{
    ACDSE_CHECK(!programs_.empty(), "campaign needs programs");
    for (const auto &name : programs_)
        profileByName(name); // validates the name
    configs_ = DesignSpace::sampleValidConfigs(options_.numConfigs,
                                               options_.configSeed);
    results_.resize(programs_.size() * configs_.size());
    computed_.assign(results_.size(), false);
    traces_.resize(programs_.size());
}

Campaign
Campaign::standard()
{
    std::vector<std::string> names;
    for (const auto &profile : allProfiles())
        names.push_back(profile.name);
    return Campaign(std::move(names), CampaignOptions::fromEnvironment());
}

std::size_t
Campaign::programIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < programs_.size(); ++i) {
        if (programs_[i] == name)
            return i;
    }
    panic("program '", name, "' is not part of this campaign");
}

const Trace &
Campaign::trace(std::size_t programIdx)
{
    ACDSE_CHECK(programIdx < programs_.size(), "bad program index");
    auto &slot = traces_[programIdx];
    if (!slot) {
        TraceGenerator generator(profileByName(programs_[programIdx]));
        slot = std::make_unique<Trace>(generator.generate(
            options_.traceLength + options_.warmupInstructions));
    }
    return *slot;
}

std::string
Campaign::cacheKeyFor(const std::vector<std::string> &programs,
                      const CampaignOptions &options)
{
    // Hash the program set: names are validated suite identifiers
    // (no commas), so ','-joining is an unambiguous encoding.
    std::string joined;
    for (const auto &name : programs) {
        joined += name;
        joined += ',';
    }
    char programsHex[17];
    std::snprintf(programsHex, sizeof(programsHex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(joined)));

    std::ostringstream os;
    os << "c" << options.numConfigs << "_t" << options.traceLength
       << "_w" << options.warmupInstructions << "_s" << std::hex
       << options.configSeed << std::dec << "_p" << programsHex;
    return os.str();
}

std::string
Campaign::cacheKey() const
{
    return cacheKeyFor(programs_, options_);
}

std::string
Campaign::cachePath() const
{
    std::ostringstream os;
    // The version tag invalidates caches across simulator-model
    // changes; bump it whenever simulation results change. Unlike
    // cacheKey() this name deliberately omits the program set: the
    // cache file is shared and merged across program subsets.
    os << options_.cacheDir << "/acdse_campaign_v2_c"
       << options_.numConfigs << "_t" << options_.traceLength << "_w"
       << options_.warmupInstructions << "_s" << std::hex
       << options_.configSeed << ".csv";
    return os.str();
}

std::size_t
Campaign::loadCacheRowsFrom(const std::string &path)
{
    CsvFile file;
    if (!readCsv(path, file))
        return 0;
    if (file.header !=
        std::vector<std::string>{"program", "config", "cycles",
                                 "energy_nj"}) {
        warn("ignoring campaign cache with unexpected header: ", path);
        return 0;
    }

    // Index configurations by key for O(1) row placement.
    std::unordered_map<std::string, std::size_t> config_index;
    for (std::size_t c = 0; c < configs_.size(); ++c)
        config_index.emplace(configs_[c].key(), c);
    std::unordered_map<std::string, std::size_t> program_index;
    for (std::size_t p = 0; p < programs_.size(); ++p)
        program_index.emplace(programs_[p], p);

    std::size_t loaded = 0;
    for (const auto &row : file.rows) {
        auto pit = program_index.find(row[0]);
        auto cit = config_index.find(row[1]);
        if (pit == program_index.end() || cit == config_index.end())
            continue;
        // Malformed numbers are skipped, not fatal: a cache row is a
        // disposable memo and the simulation can always be redone.
        const auto cycles = parseF64(row[2]);
        const auto energy = parseF64(row[3]);
        if (!cycles || !energy || *cycles <= 0.0 || *energy <= 0.0)
            continue;
        const std::size_t cell =
            pit->second * configs_.size() + cit->second;
        results_[cell] = Metrics::fromCyclesEnergy(*cycles, *energy);
        computed_[cell] = true;
        ++loaded;
    }
    return loaded;
}

bool
Campaign::loadCache()
{
    const std::size_t loaded = loadCacheRowsFrom(cachePath());
    if (!options_.quiet && loaded) {
        inform("campaign cache: loaded ", loaded, " of ",
               results_.size(), " simulations from ", cachePath());
    }
    return loaded == results_.size();
}

CsvFile
Campaign::cacheRows(const std::vector<std::size_t> &cells) const
{
    CsvFile file;
    file.header = {"program", "config", "cycles", "energy_nj"};
    char buf[64];
    for (const std::size_t cell : cells) {
        ACDSE_CHECK(cell < results_.size(), "bad cell index");
        if (!computed_[cell])
            continue;
        std::vector<std::string> row;
        row.push_back(programs_[cell / configs_.size()]);
        row.push_back(configs_[cell % configs_.size()].key());
        std::snprintf(buf, sizeof(buf), "%.17g",
                      results_[cell].cycles);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.17g",
                      results_[cell].energyNj);
        row.push_back(buf);
        file.rows.push_back(std::move(row));
    }
    return file;
}

void
Campaign::saveCache() const
{
    std::vector<std::size_t> all(results_.size());
    for (std::size_t cell = 0; cell < all.size(); ++cell)
        all[cell] = cell;
    CsvFile file = cacheRows(all);

    // Merge with any existing cache so that a campaign over a subset
    // of programs never drops other programs' rows from the shared
    // file. Foreign rows sort first, ours after, matching the
    // pre-refactor row order byte for byte.
    CsvFile existing;
    if (readCsv(cachePath(), existing) &&
        existing.header == file.header) {
        std::unordered_set<std::string> ours;
        for (const auto &name : programs_)
            ours.insert(name);
        std::vector<std::vector<std::string>> merged;
        for (auto &row : existing.rows) {
            if (!ours.contains(row[0]))
                merged.push_back(std::move(row));
        }
        for (auto &row : file.rows)
            merged.push_back(std::move(row));
        file.rows = std::move(merged);
    }

    // Atomic replace: two experiment binaries racing on the same
    // ACDSE_CACHE_DIR may both save, but neither can leave a truncated
    // cache for the other (or a later run) to trip over.
    writeCsvAtomic(cachePath(), file);
}

void
Campaign::ensureComputed()
{
    if (allComputed_)
        return;
    if (loadCache()) {
        allComputed_ = true;
        return;
    }

    // Collect pending work.
    std::vector<std::size_t> pending;
    for (std::size_t cell = 0; cell < results_.size(); ++cell) {
        if (!computed_[cell])
            pending.push_back(cell);
    }
    if (pending.empty()) {
        allComputed_ = true;
        return;
    }
    if (!options_.quiet) {
        inform("campaign: simulating ", pending.size(), " of ",
               results_.size(), " (programs=", programs_.size(),
               ", configs=", configs_.size(), ")");
    }

    computeCells(pending);

    saveCache();
    allComputed_ = true;
}

void
Campaign::computeCells(const std::vector<std::size_t> &cells,
                       const std::function<void(std::size_t)> &progress)
{
    // Filter to genuinely pending work (idempotent re-execution: a
    // resumed job may ask for cells a checkpoint already restored).
    std::vector<std::size_t> pending;
    pending.reserve(cells.size());
    for (const std::size_t cell : cells) {
        ACDSE_CHECK(cell < results_.size(), "bad cell index");
        if (!computed_[cell])
            pending.push_back(cell);
    }
    if (pending.empty())
        return;

    // Generate and decode each needed trace serially (cheap); every
    // worker then replays its cells against the shared read-only
    // decode. Cells are independent, so neither the order nor the
    // thread count can change any result -- and the replay itself is
    // bit-identical to scalar simulate().
    std::vector<std::unique_ptr<DecodedTrace>> decoded(
        programs_.size());
    for (const std::size_t cell : pending) {
        const std::size_t p = cell / configs_.size();
        if (!decoded[p])
            decoded[p] = std::make_unique<DecodedTrace>(trace(p));
    }

    // The shared pool unless the campaign pins an explicit width (as
    // the determinism tests do, comparing 1-thread vs N-thread runs).
    ThreadPool *pool = &ThreadPool::global();
    std::unique_ptr<ThreadPool> pinned;
    if (options_.threads && options_.threads != pool->threads()) {
        pinned = std::make_unique<ThreadPool>(options_.threads);
        pool = pinned.get();
    }

    const obs::TraceSpan span(obs::Registry::global(),
                              "campaign/fill");
    obs::Registry::global().counter("campaign/sims-run")
        .add(pending.size());
    std::atomic<std::size_t> done{0};
    SimulationOptions sim_options;
    sim_options.warmupInstructions = options_.warmupInstructions;
    const std::size_t report_every =
        std::max<std::size_t>(1, pending.size() / 10);
    pool->parallelFor(0, pending.size(), [&](std::size_t i) {
        const std::size_t cell = pending[i];
        SimulationResult result;
        simulateBatch(
            std::span<const MicroarchConfig>(
                &configs_[cell % configs_.size()], 1),
            *decoded[cell / configs_.size()], sim_options,
            std::span<SimulationResult>(&result, 1), fillScratch());
        results_[cell] = result.metrics;
        computed_[cell] = true;
        const std::size_t completed = done.fetch_add(1) + 1;
        if (!options_.quiet && completed % report_every == 0) {
            inform("campaign: ", completed, "/", pending.size(),
                   " simulations done");
        }
        if (progress)
            progress(completed);
    });
}

bool
Campaign::cellComputed(std::size_t cell) const
{
    ACDSE_CHECK(cell < results_.size(), "bad cell index");
    return computed_[cell] != 0;
}

const Metrics &
Campaign::cellResult(std::size_t cell) const
{
    ACDSE_CHECK(cell < results_.size(), "bad cell index");
    ACDSE_CHECK(computed_[cell], "cell accessed before computation");
    return results_[cell];
}

void
Campaign::storeCell(std::size_t cell, const Metrics &metrics)
{
    ACDSE_CHECK(cell < results_.size(), "bad cell index");
    results_[cell] = metrics;
    computed_[cell] = true;
}

const Metrics &
Campaign::result(std::size_t programIdx, std::size_t configIdx) const
{
    ACDSE_CHECK(programIdx < programs_.size(), "bad program index");
    ACDSE_CHECK(configIdx < configs_.size(), "bad config index");
    const std::size_t cell = programIdx * configs_.size() + configIdx;
    ACDSE_CHECK(computed_[cell],
                 "result accessed before ensureComputed()");
    return results_[cell];
}

std::vector<double>
Campaign::metricRow(std::size_t programIdx, Metric metric) const
{
    std::vector<double> row;
    row.reserve(configs_.size());
    for (std::size_t c = 0; c < configs_.size(); ++c)
        row.push_back(result(programIdx, c).get(metric));
    return row;
}

std::vector<double>
Campaign::metricAt(std::size_t programIdx, Metric metric,
                   const std::vector<std::size_t> &idx) const
{
    std::vector<double> values;
    values.reserve(idx.size());
    for (std::size_t c : idx)
        values.push_back(result(programIdx, c).get(metric));
    return values;
}

std::vector<MicroarchConfig>
Campaign::configsAt(const std::vector<std::size_t> &idx) const
{
    std::vector<MicroarchConfig> subset;
    subset.reserve(idx.size());
    for (std::size_t c : idx) {
        ACDSE_CHECK(c < configs_.size(), "bad config index");
        subset.push_back(configs_[c]);
    }
    return subset;
}

} // namespace acdse
