/**
 * @file
 * JSON export of metric snapshots: schema `acdse-stats-v2`, emitted by
 * the `--stats-out` flags of acdse-serve, acdse-explore and acdse-jobs
 * (one file per process), by the service's periodic dump, and (stages
 * only) appended to BENCH_*.json.
 *
 * Layout:
 *
 *   {
 *     "schema": "acdse-stats-v2",
 *     "counters":   { "<name>": <u64>, ... },
 *     "histograms": { "<name>": { "count": <u64>, "sum": <u64>,
 *                                 "min": <u64>, "max": <u64>,
 *                                 "mean": <double>,
 *                                 "p50": <double>, "p99": <double>,
 *                                 "p999": <double>,
 *                                 "buckets": [ { "le": <u64>,
 *                                                "count": <u64> },
 *                                              ... ] }, ... },
 *     "reservoirs": { "<name>": { "count": <u64>, "retained": <u64>,
 *                                 "p50": <u64>, "p90": <u64>,
 *                                 "p99": <u64>, "p999": <u64> },
 *                     ... },
 *     "stages":     { "<path>": { "count": <u64>,
 *                                 "total_ms": <double>,
 *                                 "self_ms": <double>,
 *                                 "mean_ms": <double> }, ... }
 *   }
 *
 * Histogram buckets are log2-scaled (obs/metrics.hh) and only occupied
 * buckets are emitted; "le" is the bucket's inclusive upper edge.
 * Stage self_ms is inclusive time minus same-thread child time, so
 * summing self_ms over all stages on a single-threaded run stays
 * <= total wall time.
 */

#pragma once

#include <string>

#include "obs/metrics.hh"

namespace acdse
{
class JsonWriter;
} // namespace acdse

namespace acdse::obs
{

/** Schema tag written into every stats document. */
inline constexpr std::string_view kStatsSchema = "acdse-stats-v2";

/** Serialise @p snapshot as a complete acdse-stats-v2 document. */
std::string statsToJson(const Snapshot &snapshot);

/** Atomically write statsToJson(@p snapshot) to @p path. */
void writeStatsFile(const std::string &path, const Snapshot &snapshot);

/**
 * Emit the "stages" sub-object ({path: {count, total_ms, self_ms,
 * mean_ms}}) into an in-progress document; @p writer must be
 * positioned after a key. Used by the benches to append a per-stage
 * breakdown to BENCH_*.json without changing existing keys.
 */
void writeStagesJson(JsonWriter &writer, const Snapshot &snapshot);

} // namespace acdse::obs
