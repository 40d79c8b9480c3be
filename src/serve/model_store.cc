#include "serve/model_store.hh"

#include <fstream>
#include <sstream>

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

    std::string bytes(kArtifactMagic);
    BinaryWriter header;
    header.u32(kArtifactVersion);
    header.u64(payload.buffer().size());
    header.u64(fnv1a64(payload.buffer()));
    bytes += header.buffer();
    bytes += payload.buffer();
    return bytes;
}

ModelArtifact
decodeArtifact(std::string_view bytes)
{
    constexpr std::size_t header_size = 8 + 4 + 8 + 8;
    if (bytes.size() < header_size)
        throw SerializationError("artifact too small to hold a header");
    if (bytes.substr(0, kArtifactMagic.size()) != kArtifactMagic)
        throw SerializationError(
            "bad magic: not an ACDSE model artifact");

    BinaryReader header(bytes.substr(kArtifactMagic.size()));
    const std::uint32_t version = header.u32();
    if (version != kArtifactVersion)
        throw SerializationError(
            "unsupported artifact version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kArtifactVersion) + ")");
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t checksum = header.u64();

    const std::string_view payload = bytes.substr(header_size);
    if (payload.size() != payload_size)
        throw SerializationError(
            "artifact payload size mismatch (truncated or padded file)");
    if (fnv1a64(payload) != checksum)
        throw SerializationError(
            "artifact checksum mismatch (corrupt file)");

    BinaryReader r(payload);
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
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializationError("cannot open artifact '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in)
        throw SerializationError("failed reading artifact '" + path +
                                 "'");
    return decodeArtifact(buffer.str());
}

} // namespace acdse
