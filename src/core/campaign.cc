#include "core/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/sync.hh"
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

/** The sealBytes() framing of one program's block in the store. */
constexpr std::string_view kBlockMagic = "ACDSECEL";
constexpr std::uint32_t kBlockVersion = 1;

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    return static_cast<std::size_t>(parseU64OrDie(name, value));
}

/** Append the bytes of @p value to @p out. */
template <typename T>
void
appendBits(std::string &out, const T &value)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.append(bytes, sizeof(T));
}

std::uint64_t
computeNumericsFingerprint()
{
    const Trace trace = TraceGenerator(profileByName("gzip")).generate(2000);
    const MicroarchConfig configs[] = {
        DesignSpace::baseline(), DesignSpace::sampleValidConfigs(1, 7)[0]};
    std::string bits;
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{500}}) {
        SimulationOptions options;
        options.warmupInstructions = warmup;
        for (const SimulationResult &r : simulateBatch(configs, trace,
                                                       options)) {
            const CoreStats &st = r.stats;
            for (const std::uint64_t v :
                 {st.cycles, st.instructions, st.branches, st.mispredicts,
                  st.btbMisses, st.il1Misses, st.dl1Misses, st.l2Misses,
                  st.dispatchStallRob, st.dispatchStallIq,
                  st.dispatchStallLsq, st.dispatchStallRegs,
                  st.fetchStallBranches})
                appendBits(bits, v);
            for (const Metric metric : kAllMetrics)
                appendBits(bits, r.metrics.get(metric));
            appendBits(bits, r.dynamicNj);
            appendBits(bits, r.staticNj);
        }
    }
    return fnv1a64(bits);
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
    // Keys are '\n'-free, so '\n'-joining is an unambiguous encoding.
    std::string keys;
    for (const auto &config : configs_) {
        keys += config.key();
        keys += '\n';
    }
    configsHash_ = fnv1a64(keys);
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

bool
Campaign::holdsTrace(std::size_t programIdx) const
{
    ACDSE_CHECK(programIdx < programs_.size(), "bad program index");
    return traces_[programIdx] != nullptr;
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

std::uint64_t
Campaign::numericsFingerprint()
{
    static const std::uint64_t fingerprint = computeNumericsFingerprint();
    return fingerprint;
}

std::string
Campaign::cachePath() const
{
    std::ostringstream os;
    // The numerics fingerprint invalidates the store across simulator
    // and trace-generator changes. Unlike cacheKeyFor() this prefix
    // deliberately omits the program set: every campaign over these
    // options shares the per-program blocks.
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(numericsFingerprint()));
    os << options_.cacheDir << "/acdse_campaign_" << fingerprint << "_c"
       << options_.numConfigs << "_t" << options_.traceLength << "_w"
       << options_.warmupInstructions << "_s" << std::hex
       << options_.configSeed;
    return os.str();
}

std::string
Campaign::blockPath(const std::string &prefix,
                    std::size_t programIdx) const
{
    return prefix + "." + programs_[programIdx] + ".cells";
}

std::size_t
Campaign::loadCacheRowsFrom(const std::string &prefix)
{
    const std::size_t n = configs_.size();
    std::size_t loaded = 0;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
        const std::optional<std::string> bytes =
            readFileBytes(blockPath(prefix, p));
        if (!bytes)
            continue;
        // A damaged or foreign block counts as absent: a block is a
        // disposable memo and the simulation can always be redone.
        std::vector<double> cycles, energy;
        try {
            BinaryReader reader(unsealBytes(*bytes, kBlockMagic,
                                            kBlockVersion,
                                            "ACDSE campaign block"));
            if (reader.str() != programs_[p] ||
                reader.u64() != configsHash_)
                continue;
            cycles = reader.f64vec();
            energy = reader.f64vec();
            if (!reader.exhausted() || cycles.size() != n ||
                energy.size() != n)
                continue;
        } catch (const SerializationError &) {
            continue;
        }
        for (std::size_t c = 0; c < n; ++c) {
            results_[p * n + c] =
                Metrics::fromCyclesEnergy(cycles[c], energy[c]);
            computed_[p * n + c] = true;
        }
        loaded += n;
    }
    return loaded;
}

void
Campaign::saveCache() const
{
    const std::size_t n = configs_.size();
    std::vector<double> cycles(n), energy(n);
    for (std::size_t p = 0; p < programs_.size(); ++p) {
        if (!std::all_of(computed_.begin() + p * n,
                         computed_.begin() + (p + 1) * n,
                         [](char done) { return done != 0; }))
            continue;
        for (std::size_t c = 0; c < n; ++c) {
            cycles[c] = results_[p * n + c].cycles;
            energy[c] = results_[p * n + c].energyNj;
        }
        BinaryWriter writer;
        writer.str(programs_[p]);
        writer.u64(configsHash_);
        writer.f64vec(cycles);
        writer.f64vec(energy);
        // Atomic replace: processes racing on one ACDSE_CACHE_DIR may
        // both save a block, but neither can leave a torn one behind.
        writeTextAtomic(blockPath(cachePath(), p),
                        sealBytes(kBlockMagic, kBlockVersion,
                                  writer.buffer()));
    }
}

void
Campaign::ensureComputed()
{
    if (allComputed_)
        return;
    const std::size_t loaded = loadCacheRowsFrom(cachePath());
    if (!options_.quiet && loaded) {
        inform("campaign store: loaded ", loaded, " of ",
               results_.size(), " simulations from ", cachePath(),
               ".*.cells");
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
    // resumed job may ask for cells a stored block already restored).
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
    // decode on its thread's scratch. Cells are independent, so neither
    // the order nor the thread count can change any result.
    std::vector<std::unique_ptr<DecodedTrace>> decoded(
        programs_.size());
    for (const std::size_t cell : pending) {
        const std::size_t p = cell / configs_.size();
        if (!decoded[p]) {
            decoded[p] = std::make_unique<DecodedTrace>(trace(p));
            // The decode is self-contained: drop the trace before
            // replay, so the campaign holds results, not traces. A
            // later fill of this program regenerates it.
            traces_[p].reset();
        }
    }

    const obs::TraceSpan span(obs::Registry::global(),
                              "campaign/fill");
    obs::Registry::global().counter("campaign/sims-run")
        .add(pending.size());
    std::atomic<std::size_t> done{0};
    // Workers reach their progress lines in any order, so verbose
    // progress prints under a lock and drops a count below one already
    // printed: the lines are monotonic. Quiet runs never take it.
    struct
    {
        Mutex mutex;
        std::size_t printed ACDSE_GUARDED_BY(mutex) = 0;
    } report;
    SimulationOptions sim_options;
    sim_options.warmupInstructions = options_.warmupInstructions;
    const std::size_t report_every =
        std::max<std::size_t>(1, pending.size() / 10);
    ThreadPool::global().parallelFor(0, pending.size(), [&](std::size_t i) {
        const std::size_t cell = pending[i];
        SimulationResult result;
        simulateBatch(
            std::span<const MicroarchConfig>(
                &configs_[cell % configs_.size()], 1),
            *decoded[cell / configs_.size()], sim_options,
            std::span<SimulationResult>(&result, 1),
            threadSimScratch());
        results_[cell] = result.metrics;
        computed_[cell] = true;
        const std::size_t completed = done.fetch_add(1) + 1;
        if (!options_.quiet && completed % report_every == 0) {
            const MutexLock lock(report.mutex);
            if (completed > report.printed) {
                report.printed = completed;
                inform("campaign: ", completed, "/", pending.size(),
                       " simulations done");
            }
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
