/**
 * @file
 * Digests of the seed-independent outputs every run produces: all cells
 * of the offline campaign, the bootstrap model (the offline ensembles
 * fitted to a training program) on a fixed probe set and its
 * exploration with a fixed seed, and one onboarding repeated with fixed
 * seeds. Each digest covers IEEE bit patterns and is compared with
 * perfbench/goldens.json, so a change that shifts any simulated or
 * predicted number fails the run.
 */

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "phases.hh"

namespace perfbench
{

using namespace acdse;

namespace
{

/** Accumulates values as raw bytes; hex() is their FNV-1a 64. */
class Digest
{
  public:
    void add(double value)
    {
        const auto bits = std::bit_cast<std::uint64_t>(value);
        bytes_.append(reinterpret_cast<const char *>(&bits), sizeof(bits));
    }

    void add(const Metrics &metrics)
    {
        for (Metric metric : kAllMetrics)
            add(metrics.get(metric));
    }

    void add(const MicroarchConfig &config)
    {
        for (int value : config.raw())
            add(static_cast<double>(value));
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fnv1a64(bytes_)));
        return buf;
    }

  private:
    std::string bytes_;
};

/** Four-metric predictions of @p models on a fixed probe set. */
std::string
digestPredictions(const std::vector<const ArchitectureCentricPredictor *> &models)
{
    static const std::vector<MicroarchConfig> probes =
        DesignSpace::sampleValidConfigs(64, 0x601d'0002);
    Digest d;
    for (const auto &probe : probes) {
        for (const auto *model : models)
            d.add(model->predict(probe));
    }
    return d.hex();
}

std::string
digestExplore(const explore::ExploreResult &found)
{
    Digest d;
    for (const auto &f : found.frontier) {
        d.add(f.config);
        d.add(f.x);
        d.add(f.y);
    }
    for (const auto &list : found.topk) {
        for (const auto &scored : list) {
            d.add(scored.config);
            d.add(scored.predicted);
        }
    }
    return d.hex();
}

} // namespace

std::string
digestCells(const Campaign &campaign)
{
    Digest d;
    for (std::size_t cell = 0; cell < campaign.numCells(); ++cell)
        d.add(campaign.cellResult(cell));
    return d.hex();
}

GoldenDigests
digestGolden(const Offline &offline, const ModelArtifact &bootstrap,
             const Onboarding &golden, double goldenRmaePct)
{
    GoldenDigests out;
    out.cells = offline.cellsDigest;

    std::vector<const ArchitectureCentricPredictor *> models;
    std::vector<explore::MetricEnsemble> ensembles;
    for (Metric metric : kAllMetrics) {
        models.push_back(&bootstrap.predictor(metric));
        ensembles.push_back({metric, models.back()});
    }
    out.predictions = digestPredictions(models);
    explore::ExploreOptions options;
    options.samples = 4096;
    options.seed = 0x601d'0003;
    options.topK = 8;
    out.frontier = digestExplore(explore::explore(ensembles, options));

    Digest cells;
    for (std::size_t c = 0; c < golden.cells.size(); ++c) {
        cells.add(golden.configs[c]);
        cells.add(golden.cells[c]);
    }
    out.onboardCells = cells.hex();
    models.clear();
    for (const auto &fitted : golden.fitted)
        models.push_back(&fitted);
    out.onboardPredictions = digestPredictions(models);
    out.onboardFrontier = digestExplore(golden.found);
    out.cyclesRmaePct = goldenRmaePct;
    return out;
}

} // namespace perfbench
