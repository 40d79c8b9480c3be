/**
 * @file
 * Versioned on-disk persistence for trained predictors.
 *
 * The paper's asymmetry is the whole point of serving: the offline
 * phase (one ANN per training program over T = 512 simulations each)
 * is hours of work, while predicting any of the ~18 billion design
 * points afterwards is microseconds. The model store captures the
 * expensive half in a single artifact file so that training happens
 * once -- in the acdse-jobs job server -- and every later process
 * (acdse-serve, acdse-explore, a benchmark, a test) loads it in
 * milliseconds.
 *
 * An artifact file is a sealBytes() image (base/binary_io.hh): the
 * magic "ACDSEMDL", the format version kArtifactVersion, the payload
 * size and its FNV-1a 64 checksum, then the payload (tag + per-metric
 * predictors).
 *
 * Loading rejects a bad magic, an unsupported version and any
 * size/checksum mismatch with SerializationError; a serving process
 * must survive a corrupt or foreign file rather than crash on it.
 * Writes go to a temporary file first and are rename()d into place, so
 * a crashed writer never leaves a truncated artifact behind.
 */

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/architecture_centric_predictor.hh"
#include "sim/metrics.hh"

namespace acdse
{

/** Magic bytes opening every artifact file. */
inline constexpr std::string_view kArtifactMagic = "ACDSEMDL";

/** Current artifact format version. */
inline constexpr std::uint32_t kArtifactVersion = 1;

/**
 * A bundle of trained predictors, one per target metric, plus a
 * free-form provenance tag (e.g. which campaign and target program
 * produced it). This is the unit of persistence and the unit a
 * PredictionService serves.
 */
class ModelArtifact
{
  public:
    /** One (metric, predictor) pair. */
    struct Entry
    {
        Metric metric;                          //!< which target metric
        ArchitectureCentricPredictor predictor; //!< its trained model
    };

    /** Free-form provenance tag. */
    const std::string &tag() const { return tag_; }

    /** Set the provenance tag. */
    void setTag(std::string tag) { tag_ = std::move(tag); }

    /**
     * Add (or replace) the predictor for one metric. The predictor
     * must at least be offline-trained; a response-fitted one serves
     * predictions immediately after loading.
     */
    void add(Metric metric, ArchitectureCentricPredictor predictor);

    /** Whether a predictor for this metric is present. */
    bool has(Metric metric) const;

    /** The predictor for one metric; panics if absent. */
    const ArchitectureCentricPredictor &predictor(Metric metric) const;

    /** The metrics with a predictor, in insertion order. */
    std::vector<Metric> metrics() const;

    /** All entries, in insertion order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Whether no predictor has been added. */
    bool empty() const { return entries_.empty(); }

  private:
    std::string tag_;
    std::vector<Entry> entries_;
};

/** Encode an artifact into the full file byte stream (header+payload). */
std::string encodeArtifact(const ModelArtifact &artifact);

/**
 * Decode an artifact from a full file byte stream.
 * @throws SerializationError on bad magic, unsupported version,
 *         truncation, checksum mismatch or malformed payload.
 */
ModelArtifact decodeArtifact(std::string_view bytes);

/**
 * Write an artifact to disk atomically (temp file + rename): readers
 * racing with the writer see either the old file or the complete new
 * one, never a torn write. Panics on I/O failure.
 */
void saveArtifact(const std::string &path, const ModelArtifact &artifact);

/**
 * Read an artifact from disk.
 * @throws SerializationError if the file is missing, unreadable or
 *         fails any integrity check.
 */
ModelArtifact loadArtifact(const std::string &path);

} // namespace acdse

