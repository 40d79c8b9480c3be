#include "serve/model_store.hh"

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/json.hh"
#include "base/logging.hh"

namespace acdse
{

void
ModelArtifact::add(Metric metric, ArchitectureCentricPredictor predictor)
{
    ACDSE_CHECK(predictor.offlineTrained(),
                 "artifact predictors must be offline-trained");
    for (auto &entry : entries_) {
        if (entry.metric == metric) {
            entry.predictor = std::move(predictor);
            return;
        }
    }
    entries_.push_back({metric, std::move(predictor)});
}

bool
ModelArtifact::has(Metric metric) const
{
    for (const auto &entry : entries_) {
        if (entry.metric == metric)
            return true;
    }
    return false;
}

const ArchitectureCentricPredictor &
ModelArtifact::predictor(Metric metric) const
{
    for (const auto &entry : entries_) {
        if (entry.metric == metric)
            return entry.predictor;
    }
    panic("artifact has no predictor for metric '", metricName(metric),
          "'");
}

std::vector<Metric>
ModelArtifact::metrics() const
{
    std::vector<Metric> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.metric);
    return out;
}

std::string
encodeArtifact(const ModelArtifact &artifact)
{
    BinaryWriter payload;
    payload.str(artifact.tag());
    payload.u32(static_cast<std::uint32_t>(artifact.entries().size()));
    for (const auto &entry : artifact.entries()) {
        payload.u32(static_cast<std::uint32_t>(entry.metric));
        entry.predictor.save(payload);
    }
    return sealBytes(kArtifactMagic, kArtifactVersion, payload.buffer());
}

ModelArtifact
decodeArtifact(std::string_view bytes)
{
    BinaryReader r(unsealBytes(bytes, kArtifactMagic, kArtifactVersion,
                               "ACDSE model artifact"));
    ModelArtifact artifact;
    artifact.setTag(r.str());
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t metric_raw = r.u32();
        if (metric_raw >= kNumMetrics)
            throw SerializationError("artifact names an unknown metric");
        const Metric metric = static_cast<Metric>(metric_raw);
        if (artifact.has(metric))
            throw SerializationError(
                "artifact has duplicate predictors for one metric");
        ArchitectureCentricPredictor predictor;
        predictor.load(r);
        artifact.add(metric, std::move(predictor));
    }
    if (!r.exhausted())
        throw SerializationError("artifact has trailing bytes");
    return artifact;
}

void
saveArtifact(const std::string &path, const ModelArtifact &artifact)
{
    ACDSE_CHECK(!path.empty(), "artifact path is empty");
    ACDSE_CHECK(!artifact.empty(),
                "refusing to save an artifact with no predictors");
    // Write-then-rename: the artifact appears atomically under its
    // final name, so a concurrent loadArtifact never sees a torn file.
    writeTextAtomic(path, encodeArtifact(artifact));
}

ModelArtifact
loadArtifact(const std::string &path)
{
    const std::optional<std::string> bytes = readFileBytes(path);
    if (!bytes)
        throw SerializationError("cannot open artifact '" + path + "'");
    return decodeArtifact(*bytes);
}

} // namespace acdse
