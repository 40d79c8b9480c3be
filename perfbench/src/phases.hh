/**
 * @file
 * The three phases of the paper's pipeline as the benchmark drives
 * them, each timed from outside through the library's public API:
 *
 *  - offline: simulate P training programs x T sampled configurations
 *    (Campaign) and train one ANN ensemble per metric
 *    (ArchitectureCentricPredictor::trainOffline);
 *  - onboard: one new program -- generate its trace, decode it,
 *    simulate R responses, fit four metrics, explore N sampled design
 *    points, publish the fitted models as the program's tenant and
 *    serve its frontier back through that tenant;
 *  - serve: open-loop single-point requests across several tenants at
 *    a fixed offered rate, while one tenant's model is hot-swapped at a
 *    fixed cadence.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/architecture_centric_predictor.hh"
#include "core/campaign.hh"
#include "explore/explorer.hh"
#include "obs/metrics.hh"
#include "serve/prediction_service.hh"
#include "tracer.hh"

namespace perfbench
{

/** The fixed scale of every workload; the seed picks the inputs. */
struct Scale
{
    /** Offline training programs (SPEC CPU 2000). */
    std::vector<std::string> trainPrograms{"gzip",  "crafty", "swim",
                                           "mesa",  "twolf",  "mcf",
                                           "equake", "ammp"};
    std::size_t trainConfigs = 128;  //!< T
    std::size_t traceLength = 16000; //!< timed instructions per trace
    std::size_t warmup = 4000;       //!< warm-up instructions per trace
    std::size_t responses = 32;      //!< R
    std::size_t heldOut = 32;        //!< held-out configs for the rmae
    std::uint64_t explorePoints = 24576; //!< N sampled design points
    std::size_t topK = 16;           //!< explore top-k per metric
    std::size_t setupReps = 3;       //!< setups timed per run
    std::size_t minOnboardings = 100; //!< p90 with >= 10 samples beyond
    /**
     * Tenants the serve phase hits: one hot-swapped, three that keep
     * their version, so routing spans several live model tables.
     */
    std::size_t serveTenants = 4;
    std::size_t queryPool = 4096;    //!< distinct query points
    /**
     * Fixed offered rates (requests/s): 0.1, 1/3 and 0.8 of the serve
     * capacity (serve_max_krps) measured on the reference host, about
     * 150k requests/s. The middle one is reported.
     */
    std::array<double, 3> serveRates{15'000.0, 50'000.0, 120'000.0};
    double latencyLimitUs = 10000.0; //!< p99 limit for serve_max_krps
    /**
     * Hot-swap cadence: at the middle rate about 500 requests, spread
     * over many drain batches, per version, so each swap lands while
     * requests are in flight, and publishing (about 16 us a call)
     * costs the generator well under 1% of its time.
     */
    std::uint64_t publishEveryNs = 10'000'000;
};

/** One named output check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail; //!< the first failure
    std::size_t runs = 0; //!< times evaluated
};

/** Registry deltas of one phase, summed over its units. */
struct PhaseCounters
{
    std::size_t units = 0;  //!< units folded in
    acdse::obs::Snapshot global;  //!< obs::Registry::global() deltas
    acdse::obs::Snapshot service; //!< PredictionService registry deltas
};

/** Everything a run accumulates. */
struct Context
{
    std::uint64_t seed = 0;
    Scale scale;
    std::string cacheRoot; //!< private campaign-cache directory
    std::size_t threads = 1;
    Tracer tracer;
    std::vector<Check> checks;
    std::uint64_t attempted = 0; //!< operations attempted
    std::uint64_t failed = 0;    //!< operations that failed
    std::map<std::string, PhaseCounters> counters; //!< traced units only

    /**
     * Record one evaluation of the named check (checks of one name
     * merge; the first failure's detail is kept). Returns @p ok.
     */
    bool check(const std::string &name, bool ok, std::string detail = {});
};

/** A deterministic 64-bit seed derived from the run seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag,
                         std::uint64_t index = 0);

/** Result of one offline phase. */
struct Offline
{
    std::unique_ptr<acdse::Campaign> campaign;
    /** Offline-trained ensembles, in acdse::kAllMetrics order. */
    std::vector<acdse::ArchitectureCentricPredictor> ensembles;
    double wallS = 0.0;          //!< program list -> trained ensembles
    double replayS = 0.0;        //!< Campaign::computeCells wall
    std::uint64_t cells = 0;     //!< cells simulated
    double simulatedCycles = 0.0; //!< sum of cycles over every cell
    std::string cellsDigest;     //!< digestCells() of the campaign
};

/** Run one offline phase in a fresh private cache directory. */
Offline runOffline(Context &ctx, std::uint64_t unit);

/** A servable artifact fitted to the first training program. */
acdse::ModelArtifact bootstrapArtifact(const Offline &offline);

/** Result of one onboarding. */
struct Onboarding
{
    std::string program;
    double wallMs = 0.0;          //!< name -> published and served
    double simulatedCycles = 0.0; //!< sum of cycles over the R cells
    std::vector<acdse::MicroarchConfig> configs; //!< the R responses
    std::vector<acdse::Metrics> cells; //!< their simulated metrics
    /** Fitted predictors, in acdse::kAllMetrics order. */
    std::vector<acdse::ArchitectureCentricPredictor> fitted;
    acdse::explore::ExploreResult found; //!< explored frontier and top-k
};

/** The onboarding stream: programs outside the training set. */
std::vector<std::string> onboardStream(const Context &ctx);

/**
 * Onboard @p program as onboarding @p k, with response and explore
 * seeds derived from (@p seed, @p k): every step from its name to its
 * fitted models published (as tenant @p program) and its explored
 * frontier served back bit-exactly through @p service, which must run
 * without a drainer thread.
 */
Onboarding onboardOne(Context &ctx, const Offline &offline,
                      acdse::PredictionService &service,
                      const std::string &program, std::uint64_t k,
                      std::uint64_t seed);

/**
 * Cycles rmae (%) of each onboarding's fitted model against held-out
 * simulations of its program (run in parallel, untimed).
 */
std::vector<double> heldOutCyclesRmae(Context &ctx,
                                      std::span<const Onboarding> list);

/**
 * Re-simulate one seed-picked response cell of each onboarding with
 * scalar simulate() (in parallel, untimed). Returns the programs whose
 * cell differs, bit for bit, from the lane-batched replay.
 */
std::vector<std::string> scalarMismatches(Context &ctx,
                                          std::span<const Onboarding> list);

/** Outcome of one fixed-rate serve segment. */
struct RateResult
{
    double rate = 0.0;            //!< offered requests per second
    std::uint64_t sent = 0;       //!< submit() calls made
    std::uint64_t shed = 0;       //!< QueueFull / UnknownTenant
    std::uint64_t wrong = 0;      //!< rows that failed the exact check
    std::uint64_t publishes = 0;  //!< hot swaps during the segment
    bool aborted = false;         //!< backlog grew past the abort bound
    std::vector<double> latencyUs; //!< due -> row readable, per request
    std::vector<double> lateUs;   //!< how late each submit() ran

    /**
     * Whether the rate met the limit: nothing shed or wrong, the
     * median over four consecutive windows of the window p99 within
     * @p limitUs, and no growing backlog (the last window's median
     * within the limit too).
     */
    bool meets(double limitUs) const;
};

/** Serving state shared by every serve segment of a run. */
class ServeBench
{
  public:
    /**
     * Serve the first serveTenants fitted onboardings as tenants;
     * tenant 0 is hot-swapped between onboarding 0's and onboarding
     * serveTenants' models.
     */
    ServeBench(Context &ctx, const std::vector<Onboarding> &onboardings);
    ~ServeBench();

    ServeBench(const ServeBench &) = delete;
    ServeBench &operator=(const ServeBench &) = delete;

    /**
     * Offer @p rate requests/s for @p warmSeconds (not timed: the
     * drainer settles into the rate) and then @p seconds (segment
     * @p unit).
     */
    RateResult run(double rate, double seconds, std::uint64_t unit,
                   double warmSeconds = 0.0);

    /** The service (its private registry holds the serve/ metrics). */
    acdse::PredictionService &service() { return *service_; }

  private:
    struct Request
    {
        std::uint32_t query;
        std::uint32_t tenant; //!< index into tenants_
    };

    void publishSwap();

    Context &ctx_;
    std::vector<acdse::ModelArtifact> artifacts_;
    /** expected_[artifact][query * kNumMetrics + metric] */
    std::vector<std::vector<double>> expected_;
    std::vector<acdse::MicroarchConfig> queries_;
    std::vector<Request> requests_;
    std::unique_ptr<acdse::PredictionService> service_;
    std::vector<acdse::TenantId> tenants_;
    std::vector<int> artifactOfVersion_;
    std::size_t swapNext_ = 0;
    std::vector<std::unique_ptr<acdse::AsyncBatch>> slots_;
};

/** The onboarding every run repeats with fixed seeds, for the goldens. */
inline constexpr const char *kGoldenProgram = "art";
inline constexpr std::uint64_t kGoldenSeed = 0x601d;

/**
 * FNV-1a 64 (hex) over the bit patterns of all four metrics of every
 * cell of @p campaign.
 */
std::string digestCells(const acdse::Campaign &campaign);

/** Digests of the seed-independent outputs of a run, bit for bit. */
struct GoldenDigests
{
    std::string cells;       //!< every cell of the offline campaign
    std::string predictions; //!< bootstrap model on the probe set
    std::string frontier;    //!< explore of the bootstrap model
    std::string onboardCells;       //!< the golden onboarding's R cells
    std::string onboardPredictions; //!< its fitted models on the probes
    std::string onboardFrontier;    //!< its explored frontier and top-k
    double cyclesRmaePct = 0.0; //!< its held-out cycles rmae
};

/**
 * Digest the offline phase's cells, the bootstrap model (the offline
 * ensembles fitted to a training program) on a fixed probe set and its
 * exploration with a fixed seed, and the golden onboarding (untimed).
 */
GoldenDigests digestGolden(const Offline &offline,
                           const acdse::ModelArtifact &bootstrap,
                           const Onboarding &golden, double goldenRmaePct);

} // namespace perfbench
