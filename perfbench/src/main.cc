/**
 * @file
 * acdse_perfbench: one process runs the paper's whole pipeline --
 * offline campaign and training, a closed loop of onboardings, and
 * open-loop multi-tenant serving -- and spends its measuring window on
 * the phase the workload names. Every run measures every metric; the
 * named phase gets the window, the others run at their minimum size.
 *
 *   acdse_perfbench --workload campaign|onboard|serve --seed N
 *                   --seconds S --trace 0|1 --out result.json
 *                   [--spans spans.csv] [--cache-dir DIR]
 *
 * perfbench/run.py builds this program, runs it with a private cache
 * directory and pinned thread counts, checks the golden digests and
 * prints the result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/simd.hh"
#include "base/statistics.hh"
#include "base/thread_pool.hh"
#include "phases.hh"
#include "sim/batch.hh"
#include "trace/trace.hh"

using namespace acdse;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
    std::string cacheDir = ".";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload campaign|onboard|serve --seed N "
                 "--seconds S --trace 0|1 --out FILE [--spans FILE] "
                 "[--cache-dir DIR]\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string flag = argv[i];
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--out")
            args.out = value;
        else if (flag == "--spans")
            args.spans = value;
        else if (flag == "--cache-dir")
            args.cacheDir = value;
        else
            usage(argv[0]);
    }
    if ((args.workload != "campaign" && args.workload != "onboard" &&
         args.workload != "serve") ||
        args.out.empty() || !(args.seconds > 0.0))
        usage(argv[0]);
    return args;
}

double
quantile(std::vector<double> xs, double q)
{
    return xs.empty() ? 0.0 : stats::quantile(xs, q);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/** One reported metric. */
struct Value
{
    double value;
    std::string unit;
    std::string note; //!< where it was measured, with its sample count
};

/**
 * Run @p unit repeatedly for the measuring window. A traced run spends
 * the first half untraced and the second half traced, so the two halves
 * give the tracing overhead. Each half runs at least @p minUnits.
 */
void
measureWindow(Context &ctx, double seconds, bool traceRun,
              std::size_t minUnits, const std::function<void(bool)> &unit)
{
    auto loop = [&](double budget, std::size_t min, bool traced) {
        ctx.tracer.setEnabled(traced);
        const std::uint64_t start = nowNs();
        for (std::size_t n = 0;
             n < min ||
             static_cast<double>(nowNs() - start) / 1e9 < budget;
             ++n)
            unit(traced);
    };
    if (!traceRun) {
        loop(seconds, minUnits, false);
    } else {
        loop(seconds / 2, std::max<std::size_t>(2, minUnits / 2), false);
        loop(seconds / 2, std::max<std::size_t>(2, minUnits / 2), true);
    }
    ctx.tracer.setEnabled(traceRun);
}

/** What one pass over the serve phase measured. */
struct ServeOutcome
{
    std::vector<double> middleLatencyUs; //!< pooled, at the middle rate
    std::vector<double> middlePieceP99Us; //!< p99 of each middle piece
    std::vector<double> middleLateUs;    //!< generator lateness
    double queueWaitP50Us = 0.0;         //!< in-service, last piece
    double queueWaitP99Us = 0.0;
    std::vector<double> searchMaxRates;  //!< each search's result
    double maxRate = 0.0;                //!< their median, requests/s
    std::size_t probes = 0;              //!< segments the searches ran
};

/** Seconds one servePhase() with three searches takes at scale 1. */
constexpr double kServePhaseSeconds = 10.0;

/**
 * The fixed offered rates (the middle one in pieces, so its p99 is a
 * median over pieces), then the highest rate that meets the latency
 * limit, as the median of @p searches independent searches. Every rate
 * change starts with an untimed settling period. @p scale stretches
 * every segment.
 */
ServeOutcome
servePhase(Context &ctx, ServeBench &serve, double scale,
           std::size_t searches, bool traced, std::uint64_t &segment)
{
    const Scale &s = ctx.scale;
    constexpr std::size_t kMiddlePieces = 12;
    constexpr std::size_t kBisections = 4;
    constexpr double kSettleSeconds = 0.1;
    const double fixedSeconds = 0.25 * scale;
    const double pieceSeconds = 0.1 * scale;
    const double probeSeconds = 0.25 * scale;
    ctx.tracer.setEnabled(traced);
    ServeOutcome out;
    double best = 0.0;
    for (std::size_t i = 0; i < s.serveRates.size(); ++i) {
        const double rate = s.serveRates[i];
        const bool middle = i == 1;
        const std::size_t pieces = middle ? kMiddlePieces : 1;
        bool meets = true;
        for (std::size_t piece = 0; piece < pieces; ++piece) {
            serve.service().resetStats();
            const RateResult r =
                serve.run(rate, middle ? pieceSeconds : fixedSeconds,
                          segment++, piece == 0 ? kSettleSeconds : 0.0);
            meets = meets && r.meets(s.latencyLimitUs);
            if (!middle)
                continue;
            out.middleLatencyUs.insert(out.middleLatencyUs.end(),
                                       r.latencyUs.begin(),
                                       r.latencyUs.end());
            out.middlePieceP99Us.push_back(quantile(r.latencyUs, 0.99));
            out.middleLateUs.insert(out.middleLateUs.end(),
                                    r.lateUs.begin(), r.lateUs.end());
            out.queueWaitP50Us =
                serve.service().requestLatencyQuantileMs(0.5) * 1e3;
            out.queueWaitP99Us =
                serve.service().requestLatencyQuantileMs(0.99) * 1e3;
        }
        if (meets)
            best = std::max(best, rate);
    }
    // A host stall can fail one probe of a sustainable rate, so a rate
    // fails only when two probes in a row fail.
    auto meetsAt = [&](double rate) {
        for (int attempt = 0; attempt < 2; ++attempt) {
            out.probes++;
            if (serve.run(rate, probeSeconds, segment++, kSettleSeconds)
                    .meets(s.latencyLimitUs))
                return true;
        }
        return false;
    };
    // One search: double from the best fixed rate that met the limit
    // until a rate fails, then bisect geometrically.
    for (std::size_t search = 0; search < searches; ++search) {
        double lo = best > 0.0 ? best : 1000.0;
        double hi = best > 0.0 ? 2 * best : s.serveRates[0];
        if (best > 0.0) {
            while (hi < 1e8 && meetsAt(hi)) {
                lo = hi;
                hi *= 2;
            }
        }
        for (std::size_t p = 0; p < kBisections; ++p) {
            const double mid = std::sqrt(lo * hi);
            (meetsAt(mid) ? lo : hi) = mid;
        }
        out.searchMaxRates.push_back(lo);
    }
    out.maxRate = median(out.searchMaxRates);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Context ctx;
    ctx.seed = args.seed;
    ctx.cacheRoot = args.cacheDir;
    ctx.threads = ThreadPool::global().threads();
    const Scale &s = ctx.scale;
    const std::string &focus = args.workload;
    const double instrPerCell =
        static_cast<double>(s.traceLength + s.warmup);
    ctx.tracer.setEnabled(args.trace);
    std::uint64_t phaseStart = nowNs();
    auto phaseDone = [&](const char *phase) {
        const std::uint64_t now = nowNs();
        std::fprintf(stderr, "perfbench: %-9s %7.2f s\n", phase,
                     static_cast<double>(now - phaseStart) / 1e9);
        phaseStart = now;
    };

    // --- set-up: the offline phase that produces the ensemble ----------
    std::uint64_t offlineUnit = 0;
    std::vector<double> setupS, campaignS, offlineRate;
    std::vector<double> campaignWall[2]; // [traced] focus-window walls
    Offline offline;
    ModelArtifact bootstrap;
    // Every offline phase simulates the same cells; the first one's
    // digest is compared with the golden, the others with the first.
    std::string firstCellsDigest;
    auto recordOffline = [&](const Offline &o) {
        campaignS.push_back(o.wallS);
        offlineRate.push_back(static_cast<double>(o.cells) * instrPerCell /
                              o.replayS / 1e6);
        if (firstCellsDigest.empty())
            firstCellsDigest = o.cellsDigest;
        if (!ctx.check("campaign.cells_same_every_phase",
                       o.cellsDigest == firstCellsDigest,
                       "cells digest " + o.cellsDigest + " vs " +
                           firstCellsDigest))
            ctx.failed++;
    };
    double firstCampaignCycles = 0.0;
    for (std::size_t r = 0; r < s.setupReps; ++r) {
        const std::uint64_t start = nowNs();
        offline = runOffline(ctx, offlineUnit++);
        bootstrap = bootstrapArtifact(offline);
        setupS.push_back(static_cast<double>(nowNs() - start) / 1e9);
        recordOffline(offline);
        firstCampaignCycles = offline.simulatedCycles;
    }
    phaseDone("set-up");

    // --- campaign: repeat the offline phase ----------------------------
    if (focus == "campaign") {
        measureWindow(ctx, args.seconds, args.trace, 3, [&](bool traced) {
            const Offline o = runOffline(ctx, offlineUnit++);
            recordOffline(o);
            campaignWall[traced].push_back(o.wallS);
        });
        phaseDone("campaign");
    }

    // --- onboard: a closed loop of new programs ------------------------
    ServeOptions onboardOptions;
    onboardOptions.threads = 1;
    onboardOptions.startDrainer = false; // served on this thread
    PredictionService onboardService(bootstrap, onboardOptions);
    const std::vector<std::string> stream = onboardStream(ctx);
    std::vector<Onboarding> onboardings;
    std::vector<double> onboardWall[2];
    auto onboardNext = [&](bool traced) {
        const std::uint64_t k = onboardings.size();
        onboardings.push_back(onboardOne(ctx, offline, onboardService,
                                         stream[k % stream.size()], k,
                                         ctx.seed));
        onboardWall[traced].push_back(onboardings.back().wallMs);
    };
    // The rmae takes the first two passes over the stream and serving
    // takes serveTenants + 1 fitted onboardings; the onboard workload
    // runs at least minOnboardings, so its p90 has ten samples beyond.
    const std::size_t minOnboard =
        std::max({2 * stream.size(), s.serveTenants + 1,
                  focus == "onboard" ? s.minOnboardings : std::size_t{0}});
    if (focus == "onboard") {
        measureWindow(ctx, args.seconds, args.trace, minOnboard,
                      onboardNext);
    } else {
        while (onboardings.size() < minOnboard)
            onboardNext(args.trace);
    }
    phaseDone("onboard");

    // --- serve: open loop at fixed offered rates -----------------------
    ServeBench serve(ctx, onboardings);
    std::uint64_t segment = 0;
    const bool serveFocus = focus == "serve";
    ServeOutcome served[2]; // [traced]
    // The serve workload's capacity is a median of three searches;
    // the other workloads run one.
    if (args.trace && serveFocus) {
        const double scale =
            std::max(1.0, args.seconds / 2 / kServePhaseSeconds);
        served[0] = servePhase(ctx, serve, scale, 3, false, segment);
        served[1] = servePhase(ctx, serve, scale, 3, true, segment);
    } else {
        const double scale =
            serveFocus ? std::max(1.0, args.seconds / kServePhaseSeconds)
                       : 1.0;
        served[args.trace] = servePhase(ctx, serve, scale,
                                        serveFocus ? 3 : 1, args.trace,
                                        segment);
    }
    const ServeOutcome &serveOut = served[args.trace];
    const double middleRate = s.serveRates[1];
    phaseDone("serve");

    // --- untimed checks -------------------------------------------------
    ctx.tracer.setEnabled(false);
    double firstCycleCycles = 0.0;
    for (std::size_t k = 0; k < stream.size(); ++k)
        firstCycleCycles += onboardings[k].simulatedCycles;
    // The first two passes over the stream: a fixed set of onboardings
    // (so the value is deterministic) with two response draws each.
    const std::vector<double> rmae = heldOutCyclesRmae(
        ctx, std::span<const Onboarding>(onboardings)
                 .first(2 * stream.size()));
    const double cyclesRmae = median(rmae);
    if (!ctx.check("onboard.cycles_rmae_below_25pct", cyclesRmae < 25.0,
                   "median cycles rmae " + std::to_string(cyclesRmae)))
        ctx.failed++;
    const std::vector<std::string> mismatched =
        scalarMismatches(ctx, onboardings);
    if (!ctx.check("onboard.cells_match_scalar_simulate",
                   mismatched.empty(),
                   std::to_string(mismatched.size()) +
                       " onboardings differ, first " +
                       (mismatched.empty() ? "" : mismatched[0])))
        ctx.failed++;
    // The golden onboarding: the same steps with fixed seeds.
    const Onboarding goldenOnboarding = onboardOne(
        ctx, offline, onboardService, kGoldenProgram, 0, kGoldenSeed);
    const GoldenDigests golden = digestGolden(
        offline, bootstrap, goldenOnboarding,
        heldOutCyclesRmae(ctx, {&goldenOnboarding, 1})[0]);
    phaseDone("checks");

    // --- end-to-end metrics --------------------------------------------
    std::map<std::string, Value> metrics;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["setup_s"] = {median(setupS), "s",
                          "median of " + std::to_string(setupS.size()) +
                              " set-ups"};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MiB", "getrusage ru_maxrss"};
    metrics["campaign_s"] = {median(campaignS), "s",
                             "median of " +
                                 std::to_string(campaignS.size()) +
                                 " offline phases"};
    metrics["sim_minstr_per_s"] = {median(offlineRate), "Minstr/s",
                                   "median of " +
                                       std::to_string(offlineRate.size()) +
                                       " offline phases"};
    {
        std::vector<double> walls;
        for (const auto &o : onboardings)
            walls.push_back(o.wallMs);
        const std::string note =
            std::to_string(walls.size()) + " onboardings";
        metrics["onboard_p50_ms"] = {quantile(walls, 0.5), "ms", note};
        metrics["onboard_p90_ms"] = {quantile(walls, 0.9), "ms", note};
    }
    metrics["cycles_rmae_pct"] = {cyclesRmae, "%",
                                  "median over the first " +
                                      std::to_string(rmae.size()) +
                                      " onboardings"};
    {
        const std::string note =
            std::to_string(serveOut.middleLatencyUs.size()) +
            " requests at " + std::to_string(std::llround(middleRate)) +
            " req/s";
        metrics["serve_p50_us"] = {quantile(serveOut.middleLatencyUs, 0.5),
                                   "us", note};
        metrics["serve_p99_us"] = {median(serveOut.middlePieceP99Us), "us",
                                   "median p99 of " +
                                       std::to_string(
                                           serveOut.middlePieceP99Us.size()) +
                                       " pieces, " + note};
    }
    metrics["serve_max_krps"] = {
        serveOut.maxRate / 1e3, "kreq/s",
        "median of " + std::to_string(serveOut.searchMaxRates.size()) +
            " searches, " + std::to_string(serveOut.probes) +
            " probes, limit " +
            std::to_string(std::llround(s.latencyLimitUs)) + " us"};

    // --- per-layer metrics (traced run) --------------------------------
    const auto layers = ctx.tracer.totals();
    if (args.trace) {
        // A layer's metrics come from the workload's own phase when it
        // runs the layer there, otherwise from the first fallback phase.
        auto phaseFor = [&](const std::string &layer,
                            std::vector<std::string> fallbacks) {
            fallbacks.insert(fallbacks.begin(), focus);
            for (const auto &phase : fallbacks) {
                auto it = layers.find(phase);
                if (it != layers.end() && it->second.count(layer))
                    return phase;
            }
            return fallbacks.back();
        };
        auto units = [&](const std::string &phase) {
            auto it = ctx.counters.find(phase);
            return it == ctx.counters.end()
                       ? 1.0
                       : std::max<double>(1.0, it->second.units);
        };
        auto layer = [&](const std::string &phase,
                         const std::string &name) {
            auto p = layers.find(phase);
            if (p == layers.end())
                return LayerTotals{};
            auto l = p->second.find(name);
            return l == p->second.end() ? LayerTotals{} : l->second;
        };
        auto selfMsPerUnit = [&](const std::string &phase,
                                 const std::string &name) {
            return static_cast<double>(layer(phase, name).selfNs) / 1e6 /
                   units(phase);
        };
        auto note = [&](const std::string &phase) {
            return "per " + phase + " unit, " +
                   std::to_string(static_cast<std::size_t>(units(phase))) +
                   " traced units";
        };
        auto put = [&](const std::string &name, double value,
                       const std::string &unit, const std::string &n) {
            metrics[name] = {value, unit, n};
        };

        const std::string tg = phaseFor("trace.generate", {"onboard"});
        put("trace.generate_ms", selfMsPerUnit(tg, "trace.generate"), "ms",
            note(tg));
        put("sim.decode_ms", selfMsPerUnit("onboard", "sim.decode"), "ms",
            note("onboard"));
        const std::string sp = phaseFor("sim.replay", {"campaign"});
        const obs::Snapshot &sc = ctx.counters[sp].global;
        auto counter = [](const obs::Snapshot &snap, const char *name) {
            auto it = snap.counters.find(name);
            return it == snap.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        const double replayMs = selfMsPerUnit(sp, "sim.replay");
        const double cpuMs =
            sc.stages.count("sim/batch")
                ? sc.stages.at("sim/batch").totalMs() / units(sp)
                : 0.0;
        const double instr = counter(sc, "sim/instructions") / units(sp);
        put("sim.replay_ms", replayMs, "ms", note(sp));
        put("sim.cpu_ms", cpuMs, "ms", note(sp));
        put("sim.parallel_eff",
            replayMs > 0 ? cpuMs / (static_cast<double>(ctx.threads) *
                                    replayMs)
                         : 0.0,
            "ratio", note(sp));
        put("sim.host_ns_per_instr", instr > 0 ? cpuMs * 1e6 / instr : 0.0,
            "ns", note(sp));
        put("sim.cells", counter(sc, "sim/lanes-occupied") / units(sp),
            "count", note(sp));
        put("sim.instructions", instr, "count", note(sp));
        const double hits = counter(sc, "sim/cacti-hit");
        const double misses = counter(sc, "sim/cacti-miss");
        put("sim.cacti_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
            note(sp));
        put("sim.simulated_cycles",
            sp == "onboard" ? firstCycleCycles : firstCampaignCycles,
            "cycles",
            sp == "onboard" ? "first cycle of the onboarding stream"
                            : "first offline phase");
        put("core.train_offline_ms",
            selfMsPerUnit("campaign", "core.train_offline"), "ms",
            note("campaign"));
        put("core.fit_ms", selfMsPerUnit("onboard", "core.fit"), "ms",
            note("onboard"));
        const double exploreMs = selfMsPerUnit("onboard", "explore");
        const obs::Snapshot &oc = ctx.counters["onboard"].global;
        const double predicted =
            counter(oc, "explore/points-predicted") / units("onboard");
        const double generated =
            counter(oc, "explore/points-generated") / units("onboard");
        put("explore.ms", exploreMs, "ms", note("onboard"));
        put("explore.valid_kpts_per_s",
            exploreMs > 0 ? predicted / exploreMs : 0.0, "kpts/s",
            note("onboard"));
        put("explore.accept_ratio",
            generated > 0 ? predicted / generated : 0.0, "ratio",
            note("onboard"));
        const std::string pp = phaseFor("serve.publish", {"onboard"});
        const LayerTotals publish = layer(pp, "serve.publish");
        put("serve.publish_ms",
            publish.spans ? static_cast<double>(publish.selfNs) / 1e6 /
                                static_cast<double>(publish.spans)
                          : 0.0,
            "ms", std::to_string(publish.spans) + " publishes in " + pp);
        const LayerTotals submit = layer("serve", "serve.submit");
        put("serve.submit_ns",
            submit.spans ? static_cast<double>(submit.selfNs) /
                               static_cast<double>(submit.spans)
                         : 0.0,
            "ns", std::to_string(submit.spans) + " submits");
        const std::string mid = "at " +
                                std::to_string(std::llround(middleRate)) +
                                " req/s, traced segment";
        put("serve.queue_wait_us_p50", serveOut.queueWaitP50Us, "us", mid);
        put("serve.queue_wait_us_p99", serveOut.queueWaitP99Us, "us", mid);
        const obs::Snapshot &vc = ctx.counters["serve"].service;
        const double drains = vc.stages.count("serve/drain")
                                  ? static_cast<double>(
                                        vc.stages.at("serve/drain").count)
                                  : 0.0;
        put("serve.drain_batch_pts",
            drains > 0 ? counter(vc, "serve/points") / drains : 0.0,
            "count", "mean points per drain, traced serve segments");
        put("serve.shed", counter(vc, "serve/shed"), "count",
            "traced serve segments");
        put("serve.generator_late_us_p99",
            quantile(serveOut.middleLateUs, 0.99), "us", mid);
        const std::string pq = focus == "serve" ? "campaign" : focus;
        const obs::Snapshot &pc = ctx.counters[pq].global;
        const auto &wait = pc.histograms.count("pool/queue-wait-ns")
                               ? pc.histograms.at("pool/queue-wait-ns")
                               : obs::HistogramSnapshot{};
        put("pool.queue_wait_us_p50", wait.quantile(0.5) / 1e3, "us",
            note(pq));
        put("pool.queue_wait_us_p99", wait.quantile(0.99) / 1e3, "us",
            note(pq));
        put("pool.tasks", counter(pc, "pool/tasks-run") / units(pq),
            "count", note(pq));

        // Tracing overhead: the traced half of the window against the
        // untraced half, on the workload's own unit.
        double untraced = 0.0, traced = 0.0;
        if (focus == "campaign") {
            untraced = median(campaignWall[0]);
            traced = median(campaignWall[1]);
        } else if (focus == "onboard") {
            untraced = median(onboardWall[0]);
            traced = median(onboardWall[1]);
        } else {
            untraced = median(served[0].middleLatencyUs);
            traced = median(served[1].middleLatencyUs);
        }
        put("bench.tracing_overhead_pct",
            untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0,
            "%", "median " + focus + " unit, traced vs untraced half");
        const LayerTotals root = layer(focus, focus);
        put("bench.layer_sum_gap_pct",
            root.totalNs ? static_cast<double>(root.selfNs) /
                               static_cast<double>(root.totalNs) * 100.0
                         : 0.0,
            "%", "unspanned share of traced " + focus + " wall");
    }

    // --- the result file -----------------------------------------------
    bool correct = true;
    for (const auto &c : ctx.checks)
        correct = correct && c.ok;
    JsonWriter w;
    w.beginObject();
    w.key("workload").value(focus);
    w.key("seed").value(args.seed);
    w.key("seconds").value(args.seconds);
    w.key("trace").value(args.trace);
    w.key("correct").value(correct);
    w.key("attempted").value(ctx.attempted);
    w.key("failed").value(ctx.failed);
    w.key("build").beginObject();
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("obs_enabled").value(obs::kEnabled);
    w.key("sim_lanes").value(static_cast<std::uint64_t>(kSimLanes));
    w.key("simd_lanes").value(static_cast<std::uint64_t>(simd::kLanes));
    w.key("threads").value(static_cast<std::uint64_t>(ctx.threads));
    w.endObject();
    w.key("metrics").beginObject();
    for (const auto &[name, v] : metrics) {
        w.key(name).beginObject();
        w.key("value").value(std::isfinite(v.value) ? v.value : -1.0);
        w.key("unit").value(v.unit);
        w.key("note").value(v.note);
        w.endObject();
    }
    w.endObject();
    w.key("checks").beginArray();
    for (const auto &c : ctx.checks) {
        w.beginObject();
        w.key("name").value(c.name);
        w.key("ok").value(c.ok);
        w.key("runs").value(static_cast<std::uint64_t>(c.runs));
        w.key("detail").value(c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("golden").beginObject();
    w.key("cells").value(golden.cells);
    w.key("predictions").value(golden.predictions);
    w.key("frontier").value(golden.frontier);
    w.key("onboard_cells").value(golden.onboardCells);
    w.key("onboard_predictions").value(golden.onboardPredictions);
    w.key("onboard_frontier").value(golden.onboardFrontier);
    char rmaeBits[17];
    std::snprintf(rmaeBits, sizeof(rmaeBits), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(golden.cyclesRmaePct)));
    w.key("cycles_rmae_bits").value(rmaeBits);
    w.key("cycles_rmae_pct").value(golden.cyclesRmaePct);
    w.endObject();
    w.key("layers").beginObject();
    for (const auto &[phase, byLayer] : layers) {
        w.key(phase).beginObject();
        for (const auto &[name, t] : byLayer) {
            w.key(name).beginObject();
            w.key("spans").value(t.spans);
            w.key("total_ms").value(static_cast<double>(t.totalNs) / 1e6);
            w.key("self_ms").value(static_cast<double>(t.selfNs) / 1e6);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    w.key("spans_recorded").value(ctx.tracer.spansRecorded());
    // The samples behind the medians, for inspection.
    auto series = [&](const char *name, const std::vector<double> &xs) {
        w.key(name).beginArray();
        for (double x : xs)
            w.value(x);
        w.endArray();
    };
    w.key("series").beginObject();
    series("setup_s", setupS);
    series("campaign_s", campaignS);
    std::vector<double> walls;
    for (const auto &o : onboardings)
        walls.push_back(o.wallMs);
    series("onboard_ms", walls);
    series("cycles_rmae_pct", rmae);
    series("serve_piece_p99_us", serveOut.middlePieceP99Us);
    series("serve_search_max_rps", serveOut.searchMaxRates);
    w.endObject();
    w.endObject();
    writeTextAtomic(args.out, w.str());
    if (args.trace && !args.spans.empty())
        ctx.tracer.writeCsv(args.spans);
    return 0;
}
