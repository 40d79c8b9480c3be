#include "phases.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <span>

#include "arch/design_space.hh"
#include "base/rng.hh"
#include "base/statistics.hh"
#include "base/thread_pool.hh"
#include "explore/explorer.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace perfbench
{

using namespace acdse;

namespace
{

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e9;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Folds the registry deltas of one traced unit into its phase. The
 * snapshots are taken outside the unit's timed section.
 */
class PhaseProbe
{
  public:
    PhaseProbe(Context &ctx, std::string phase,
               const PredictionService *service = nullptr)
        : ctx_(ctx), phase_(std::move(phase)), service_(service),
          active_(ctx.tracer.enabled())
    {
        if (!active_)
            return;
        global_ = obs::Registry::global().snapshot();
        if (service_)
            serviceSnap_ = service_->statsSnapshot();
    }

    ~PhaseProbe()
    {
        if (!active_)
            return;
        PhaseCounters &c = ctx_.counters[phase_];
        c.units++;
        c.global.merge(
            obs::diff(global_, obs::Registry::global().snapshot()));
        if (service_) {
            c.service.merge(
                obs::diff(serviceSnap_, service_->statsSnapshot()));
        }
    }

    PhaseProbe(const PhaseProbe &) = delete;
    PhaseProbe &operator=(const PhaseProbe &) = delete;

  private:
    Context &ctx_;
    std::string phase_;
    const PredictionService *service_;
    bool active_;
    obs::Snapshot global_;
    obs::Snapshot serviceSnap_;
};

std::size_t
metricIndex(Metric metric)
{
    return static_cast<std::size_t>(metric);
}

ModelArtifact
artifactOf(const Onboarding &onboarding)
{
    ModelArtifact artifact;
    artifact.setTag("perfbench " + onboarding.program);
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        artifact.add(kAllMetrics[m], onboarding.fitted[m]);
    return artifact;
}

/**
 * Serve every explored point back through @p tenant (manual drain)
 * and check each row against the value explore() predicted for it.
 */
bool
serveExplored(PredictionService &service, TenantId tenant,
              std::uint64_t version, const explore::ExploreResult &found)
{
    struct Expect
    {
        MicroarchConfig config;
        Metric metric;
        double value;
    };
    std::vector<Expect> expect;
    for (const auto &f : found.frontier) {
        expect.push_back({f.config, Metric::Cycles, f.x});
        expect.push_back({f.config, Metric::Energy, f.y});
    }
    for (std::size_t m = 0; m < found.metrics.size(); ++m) {
        for (const auto &scored : found.topk[m])
            expect.push_back({scored.config, found.metrics[m],
                              scored.predicted});
    }
    if (expect.empty())
        return false;
    AsyncBatch batch(expect.size());
    for (const auto &e : expect) {
        if (service.submit(batch, tenant, e.config) !=
            SubmitStatus::Accepted)
            return false;
    }
    while (batch.inFlight() != 0)
        service.drainOnce();
    batch.wait();
    for (std::size_t i = 0; i < expect.size(); ++i) {
        if (batch.versions()[i] != version ||
            !sameBits(batch.rows()[i].get(expect[i].metric),
                      expect[i].value))
            return false;
    }
    return true;
}

} // namespace

ModelArtifact
bootstrapArtifact(const Offline &offline)
{
    // Fit the ensembles to the first training program's own cells:
    // a servable model for the service's default tenant.
    const Campaign &campaign = *offline.campaign;
    std::vector<std::size_t> idx(campaign.configs().size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const auto configs = campaign.configsAt(idx);
    ModelArtifact artifact;
    artifact.setTag("perfbench bootstrap");
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        ArchitectureCentricPredictor fitted = offline.ensembles[m];
        fitted.fitResponses(configs,
                            campaign.metricAt(0, kAllMetrics[m], idx));
        artifact.add(kAllMetrics[m], std::move(fitted));
    }
    return artifact;
}

bool
Context::check(const std::string &name, bool ok, std::string detail)
{
    for (Check &c : checks) {
        if (c.name == name) {
            c.runs++;
            if (c.ok && !ok) {
                c.ok = false;
                c.detail = std::move(detail);
            }
            return ok;
        }
    }
    checks.push_back({name, ok, ok ? std::string() : std::move(detail), 1});
    return ok;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index)
{
    // SplitMix64 finaliser over the three inputs.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                      (tag + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL ^
                      (index + 1) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Offline
runOffline(Context &ctx, std::uint64_t unit)
{
    const Scale &s = ctx.scale;
    Tracer &tracer = ctx.tracer;
    Offline out;
    const PhaseProbe probe(ctx, "campaign");
    const std::string dir =
        ctx.cacheRoot + "/campaign-" + std::to_string(unit);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    obs::Counter &simsRun =
        obs::Registry::global().counter("campaign/sims-run");
    const std::uint64_t simsBefore = simsRun.value();
    std::size_t cachedRows = 0;

    const std::uint64_t start = nowNs();
    {
        const Tracer::Span root(tracer, "campaign", unit);
        CampaignOptions options;
        options.numConfigs = s.trainConfigs;
        options.traceLength = s.traceLength;
        options.warmupInstructions = s.warmup;
        // configSeed keeps the campaign's default sample: every seed
        // trains the same ensemble, and the seed picks what follows.
        options.cacheDir = dir;
        options.quiet = true;
        {
            const Tracer::Span span(tracer, "campaign.setup", unit);
            out.campaign =
                std::make_unique<Campaign>(s.trainPrograms, options);
        }
        Campaign &campaign = *out.campaign;
        {
            const Tracer::Span span(tracer, "trace.generate", unit);
            for (std::size_t p = 0; p < campaign.programs().size(); ++p)
                campaign.trace(p);
        }
        {
            // What Campaign::ensureComputed() does -- load the cache,
            // simulate what is missing, save -- one layer at a time.
            const Tracer::Span span(tracer, "campaign.cache_io", unit);
            cachedRows = campaign.loadCacheRowsFrom(campaign.cachePath());
        }
        std::vector<std::size_t> cells(campaign.numCells());
        std::iota(cells.begin(), cells.end(), std::size_t{0});
        const std::uint64_t replayStart = nowNs();
        {
            const Tracer::Span span(tracer, "sim.replay", unit);
            campaign.computeCells(cells);
        }
        out.replayS = secondsSince(replayStart);
        {
            const Tracer::Span span(tracer, "campaign.cache_io", unit);
            campaign.saveCache();
        }
        {
            const Tracer::Span span(tracer, "core.train_offline", unit);
            std::vector<std::size_t> idx(campaign.configs().size());
            std::iota(idx.begin(), idx.end(), std::size_t{0});
            const auto configs = campaign.configsAt(idx);
            for (Metric metric : kAllMetrics) {
                std::vector<ProgramTrainingSet> sets;
                for (std::size_t p = 0; p < campaign.programs().size();
                     ++p) {
                    sets.push_back({campaign.programs()[p], configs,
                                    campaign.metricAt(p, metric, idx)});
                }
                ArchitectureCentricPredictor predictor;
                predictor.trainOffline(sets);
                out.ensembles.push_back(std::move(predictor));
            }
        }
    }
    out.wallS = secondsSince(start);

    const Campaign &campaign = *out.campaign;
    out.cells = campaign.numCells();
    for (std::size_t cell = 0; cell < campaign.numCells(); ++cell)
        out.simulatedCycles += campaign.cellResult(cell).cycles;
    out.cellsDigest = digestCells(campaign);
    ctx.attempted++;
    const std::uint64_t ran = simsRun.value() - simsBefore;
    const bool cold =
        ctx.check("campaign.cache_cold", cachedRows == 0,
                  std::to_string(cachedRows) + " cells came from a cache");
    const bool simulated = ctx.check(
        "campaign.sims_run_equals_cells", ran == out.cells,
        std::to_string(ran) + " simulated of " +
            std::to_string(out.cells) + " requested");
    if (!cold || !simulated)
        ctx.failed++;
    return out;
}

std::vector<std::string>
onboardStream(const Context &ctx)
{
    std::vector<std::string> names;
    for (Suite suite : {Suite::SpecCpu2000, Suite::MiBench}) {
        for (const auto &name : programNames(suite)) {
            if (std::find(ctx.scale.trainPrograms.begin(),
                          ctx.scale.trainPrograms.end(),
                          name) == ctx.scale.trainPrograms.end())
                names.push_back(name);
        }
    }
    Rng rng(deriveSeed(ctx.seed, 'S'));
    rng.shuffle(names);
    return names;
}

Onboarding
onboardOne(Context &ctx, const Offline &offline,
           PredictionService &service, const std::string &program,
           std::uint64_t k, std::uint64_t seed)
{
    const Scale &s = ctx.scale;
    Tracer &tracer = ctx.tracer;
    Onboarding out;
    out.program = program;
    const std::vector<MicroarchConfig> &configs = out.configs;
    bool servedOk = false;
    bool exploredAll = false;
    std::uint64_t scored = 0;
    const PhaseProbe probe(ctx, "onboard");

    const std::uint64_t start = nowNs();
    {
        const Tracer::Span root(tracer, "onboard", k);
        std::optional<Trace> trace;
        {
            const Tracer::Span span(tracer, "trace.generate", k);
            trace.emplace(TraceGenerator(profileByName(program))
                              .generate(s.traceLength + s.warmup));
        }
        std::optional<DecodedTrace> decoded;
        {
            const Tracer::Span span(tracer, "sim.decode", k);
            decoded.emplace(*trace);
        }
        out.configs = DesignSpace::sampleValidConfigs(
            s.responses, deriveSeed(seed, 'R', k));
        std::vector<SimulationResult> results(configs.size());
        {
            const Tracer::Span span(tracer, "sim.replay", k);
            SimulationOptions options;
            options.warmupInstructions = s.warmup;
            // Lane groups of kSimLanes configurations, one per pool task:
            // the tiling Campaign::computeCells replays a program with.
            const std::size_t groups =
                (configs.size() + kSimLanes - 1) / kSimLanes;
            ThreadPool::global().parallelFor(0, groups, [&](std::size_t g) {
                thread_local SimScratch scratch;
                const std::size_t first = g * kSimLanes;
                const std::size_t count =
                    std::min(kSimLanes, configs.size() - first);
                simulateBatch(
                    std::span<const MicroarchConfig>(configs).subspan(first,
                                                                      count),
                    *decoded, options,
                    std::span<SimulationResult>(results).subspan(first, count),
                    scratch);
            });
        }
        for (const auto &result : results) {
            out.cells.push_back(result.metrics);
            out.simulatedCycles += result.metrics.cycles;
        }
        {
            const Tracer::Span span(tracer, "core.fit", k);
            for (std::size_t m = 0; m < kNumMetrics; ++m) {
                std::vector<double> values;
                for (const auto &result : results)
                    values.push_back(result.metrics.get(kAllMetrics[m]));
                ArchitectureCentricPredictor fitted = offline.ensembles[m];
                fitted.fitResponses(configs, values);
                out.fitted.push_back(std::move(fitted));
            }
        }
        explore::ExploreResult &found = out.found;
        {
            const Tracer::Span span(tracer, "explore", k);
            std::vector<explore::MetricEnsemble> ensembles;
            for (std::size_t m = 0; m < kNumMetrics; ++m)
                ensembles.push_back({kAllMetrics[m], &out.fitted[m]});
            explore::ExploreOptions options;
            options.mode = explore::Mode::Sample;
            options.samples = s.explorePoints;
            options.seed = deriveSeed(seed, 'E', k);
            options.topK = s.topK;
            found = explore::explore(ensembles, options);
        }
        scored = found.stats.predicted;
        exploredAll =
            scored == s.explorePoints && !found.frontier.empty();
        TenantId tenant = 0;
        std::uint64_t version = 0;
        {
            const Tracer::Span span(tracer, "serve.publish", k);
            tenant = service.registerTenant(program);
            version = service.publish(tenant, artifactOf(out));
        }
        {
            const Tracer::Span span(tracer, "serve.query", k);
            servedOk = serveExplored(service, tenant, version, found);
        }
    }
    out.wallMs = secondsSince(start) * 1e3;
    ctx.attempted++;
    const bool explored = ctx.check(
        "onboard.explored_every_point", exploredAll,
        program + ": explore scored " + std::to_string(scored) + " points");
    const bool served = ctx.check(
        "onboard.served_rows_match_explore", servedOk,
        program + ": a served row differs from its explored prediction");
    if (!explored || !served)
        ctx.failed++;
    return out;
}

std::vector<double>
heldOutCyclesRmae(Context &ctx, std::span<const Onboarding> list)
{
    const Scale &s = ctx.scale;
    // A fixed evaluation set: seeds vary the responses, not the yardstick.
    const std::vector<MicroarchConfig> configs =
        DesignSpace::sampleValidConfigs(s.heldOut, 0x4e1d'0075);
    // Simulate the held-out configs once per distinct program.
    std::vector<std::string> programs;
    std::map<std::string, std::size_t> index;
    for (const auto &o : list) {
        if (index.emplace(o.program, programs.size()).second)
            programs.push_back(o.program);
    }
    std::vector<std::vector<double>> actual(programs.size());
    ThreadPool::global().parallelFor(0, programs.size(), [&](std::size_t p) {
        const Trace trace = TraceGenerator(profileByName(programs[p]))
                                .generate(s.traceLength + s.warmup);
        SimulationOptions options;
        options.warmupInstructions = s.warmup;
        for (const auto &result : simulateBatch(configs, trace, options))
            actual[p].push_back(result.metrics.cycles);
    });
    std::vector<double> rmae;
    for (const auto &o : list) {
        std::vector<double> predicted;
        for (const auto &config : configs) {
            predicted.push_back(
                o.fitted[metricIndex(Metric::Cycles)].predict(config));
        }
        rmae.push_back(stats::rmae(predicted, actual[index.at(o.program)]));
    }
    return rmae;
}

std::vector<std::string>
scalarMismatches(Context &ctx, std::span<const Onboarding> list)
{
    const Scale &s = ctx.scale;
    std::vector<char> differs(list.size(), 0);
    ThreadPool::global().parallelFor(0, list.size(), [&](std::size_t k) {
        const Onboarding &o = list[k];
        const std::size_t c = deriveSeed(ctx.seed, 'V', k) % o.cells.size();
        const Trace trace = TraceGenerator(profileByName(o.program))
                                .generate(s.traceLength + s.warmup);
        SimulationOptions options;
        options.warmupInstructions = s.warmup;
        const Metrics got = simulate(o.configs[c], trace, options).metrics;
        for (Metric metric : kAllMetrics) {
            if (!sameBits(got.get(metric), o.cells[c].get(metric)))
                differs[k] = 1;
        }
    });
    std::vector<std::string> out;
    for (std::size_t k = 0; k < list.size(); ++k) {
        if (differs[k])
            out.push_back(list[k].program);
    }
    return out;
}

bool
RateResult::meets(double limitUs) const
{
    // The segment in four consecutive windows: the median window p99
    // must meet the limit (one host stall does not fail a rate), and
    // the last window's median must too (no backlog left growing).
    constexpr std::size_t kWindows = 4;
    if (aborted || shed != 0 || wrong != 0 ||
        latencyUs.size() < kWindows)
        return false;
    const std::size_t step = latencyUs.size() / kWindows;
    std::vector<double> p99s;
    for (std::size_t w = 0; w < kWindows; ++w) {
        const std::span<const double> window(latencyUs.data() + w * step,
                                              step);
        p99s.push_back(stats::quantile(window, 0.99));
    }
    const std::span<const double> last(
        latencyUs.data() + (kWindows - 1) * step, step);
    return stats::quantile(p99s, 0.5) <= limitUs &&
           stats::quantile(last, 0.5) <= limitUs;
}

ServeBench::ServeBench(Context &ctx,
                       const std::vector<Onboarding> &onboardings)
    : ctx_(ctx)
{
    const Scale &s = ctx.scale;
    ACDSE_CHECK(onboardings.size() > s.serveTenants,
                "serve needs ", s.serveTenants + 1, " onboardings");
    for (std::size_t a = 0; a <= s.serveTenants; ++a)
        artifacts_.push_back(artifactOf(onboardings[a]));

    queries_ = DesignSpace::sampleValidConfigs(s.queryPool,
                                               deriveSeed(ctx.seed, 'Q'));
    std::vector<double> features(queries_.size() * kNumParams);
    for (std::size_t q = 0; q < queries_.size(); ++q)
        queries_[q].featuresInto(&features[q * kNumParams]);
    std::vector<double> out(queries_.size());
    BatchPredictScratch scratch;
    for (const auto &artifact : artifacts_) {
        std::vector<double> expected(queries_.size() * kNumMetrics);
        for (const auto &entry : artifact.entries()) {
            entry.predictor.predictBatchFromFeatures(
                features.data(), queries_.size(), out.data(), scratch);
            for (std::size_t q = 0; q < queries_.size(); ++q)
                expected[q * kNumMetrics + metricIndex(entry.metric)] =
                    out[q];
        }
        expected_.push_back(std::move(expected));
    }

    Rng rng(deriveSeed(ctx.seed, 'q'));
    requests_.resize(std::size_t{1} << 16);
    for (auto &request : requests_) {
        request.query =
            static_cast<std::uint32_t>(rng.nextBounded(queries_.size()));
        request.tenant =
            static_cast<std::uint32_t>(rng.nextBounded(s.serveTenants));
    }

    ServeOptions options;
    options.threads = 1; // the drainer thread does the serving work
    service_ =
        std::make_unique<PredictionService>(artifacts_[0], options);
    for (std::size_t t = 0; t < s.serveTenants; ++t) {
        tenants_.push_back(
            service_->registerTenant("serve-" + std::to_string(t)));
        const std::uint64_t version =
            service_->publish(tenants_.back(), artifacts_[t]);
        artifactOfVersion_.resize(version + 1, -1);
        artifactOfVersion_[version] = static_cast<int>(t);
    }
    slots_.reserve(std::size_t{1} << 15);
    while (slots_.size() < slots_.capacity())
        slots_.push_back(std::make_unique<AsyncBatch>(1));
}

ServeBench::~ServeBench()
{
    // The service drains and joins its drainer before the slots its
    // requests point into go away.
    service_.reset();
}

void
ServeBench::publishSwap()
{
    const std::size_t artifact =
        swapNext_++ % 2 == 0 ? ctx_.scale.serveTenants : 0;
    const std::uint64_t version =
        service_->publish(tenants_[0], artifacts_[artifact]);
    if (artifactOfVersion_.size() <= version)
        artifactOfVersion_.resize(version + 1, -1);
    artifactOfVersion_[version] = static_cast<int>(artifact);
}

RateResult
ServeBench::run(double rate, double seconds, std::uint64_t unit,
                double warmSeconds)
{
    const Scale &s = ctx_.scale;
    Tracer &tracer = ctx_.tracer;
    const std::uint32_t submitLayer = tracer.layer("serve.submit");
    const std::uint32_t waitLayer = tracer.layer("client.wait");
    const std::uint32_t publishLayer = tracer.layer("serve.publish");

    RateResult r;
    r.rate = rate;
    const auto warm =
        static_cast<std::uint64_t>(std::llround(rate * warmSeconds));
    std::uint64_t limit =
        warm + std::max<std::uint64_t>(
                   1, static_cast<std::uint64_t>(std::llround(rate * seconds)));
    r.latencyUs.assign(limit, std::numeric_limits<double>::infinity());
    r.lateUs.reserve(limit);
    std::vector<char> shed(limit, 0);
    const double periodNs = 1e9 / rate;
    const std::size_t slots = slots_.size();
    // Give up on a segment whose backlog clearly grows: the oldest
    // request is far past the limit, or half the ingest ring is queued.
    const auto abortAgeNs =
        static_cast<std::uint64_t>(s.latencyLimitUs * 1e3 * 20);
    const std::uint64_t abortDepth = service_->queueCapacity() / 2;

    const PhaseProbe probe(ctx_, "serve", service_.get());
    const Tracer::Span root(tracer, "serve", unit);
    const std::uint64_t t0 = nowNs() + 100'000;
    auto due = [&](std::uint64_t k) {
        return t0 + static_cast<std::uint64_t>(
                        static_cast<double>(k) * periodNs);
    };
    std::uint64_t nextPublish = t0 + s.publishEveryNs;
    std::uint64_t i = 0; // next request to send
    std::uint64_t j = 0; // oldest request not yet seen complete
    std::optional<Tracer::Span> waiting;
    while (j < limit) {
        std::uint64_t now = nowNs();
        if (i < limit && due(i) <= now) {
            waiting.reset();
            if (now >= nextPublish) {
                const Tracer::Span span(tracer, publishLayer, r.publishes);
                publishSwap();
                r.publishes++;
                nextPublish += s.publishEveryNs;
            }
            if (i - j >= slots || i - j >= abortDepth) {
                r.aborted = true;
                limit = i;
                continue;
            }
            AsyncBatch &slot = *slots_[i % slots];
            slot.reset();
            const Request &request = requests_[i % requests_.size()];
            const std::uint64_t submitAt = nowNs();
            SubmitStatus status;
            {
                const Tracer::Span span(tracer, submitLayer, i);
                status = service_->submit(slot, tenants_[request.tenant],
                                          queries_[request.query]);
            }
            r.lateUs.push_back(static_cast<double>(submitAt - due(i)) /
                               1e3);
            if (status != SubmitStatus::Accepted) {
                shed[i] = 1;
                r.shed++;
            }
            ++i;
            continue;
        }
        if (!waiting && tracer.enabled())
            waiting.emplace(tracer, waitLayer, i);
        bool stamped = false;
        while (j < i) {
            if (shed[j]) {
                ++j;
                continue;
            }
            const AsyncBatch &slot = *slots_[j % slots];
            if (slot.inFlight() != 0)
                break;
            if (!stamped) {
                now = nowNs();
                stamped = true;
            }
            r.latencyUs[j] = static_cast<double>(now - due(j)) / 1e3;
            const Request &request = requests_[j % requests_.size()];
            const std::uint64_t version = slot.versions()[0];
            const int artifact = version < artifactOfVersion_.size()
                                     ? artifactOfVersion_[version]
                                     : -1;
            bool ok = artifact >= 0;
            for (std::size_t m = 0; ok && m < kNumMetrics; ++m) {
                ok = sameBits(
                    slot.rows()[0].values[m],
                    expected_[static_cast<std::size_t>(artifact)]
                             [request.query * kNumMetrics + m]);
            }
            if (!ok)
                r.wrong++;
            ++j;
        }
        if (j < i && i < limit && now > due(j) + abortAgeNs) {
            r.aborted = true;
            limit = i;
        }
    }
    waiting.reset();
    r.sent = limit;
    r.latencyUs.resize(limit);
    // Requests sent while the service settled into this rate count as
    // attempted but not in the timing.
    const auto settled = static_cast<std::ptrdiff_t>(std::min(warm, limit));
    r.latencyUs.erase(r.latencyUs.begin(), r.latencyUs.begin() + settled);
    r.lateUs.erase(r.lateUs.begin(), r.lateUs.begin() + settled);
    ctx_.attempted += r.sent;
    ctx_.failed += r.shed + r.wrong;
    ctx_.check("serve.rows_match_expected", r.wrong == 0,
               std::to_string(r.wrong) + " rows differ at " +
                   std::to_string(std::llround(rate)) + " req/s");
    ctx_.check("serve.nothing_shed", r.shed == 0,
               std::to_string(r.shed) + " requests shed at " +
                   std::to_string(std::llround(rate)) + " req/s");
    return r;
}

} // namespace perfbench
