#include "obs/stats_export.hh"

#include "base/json.hh"

namespace acdse::obs
{

namespace
{

void
writeHistogramJson(JsonWriter &writer, const HistogramSnapshot &hist)
{
    writer.beginObject()
        .key("count")
        .value(hist.count)
        .key("sum")
        .value(hist.sum)
        .key("min")
        .value(hist.min)
        .key("max")
        .value(hist.max)
        .key("mean")
        .value(hist.mean())
        .key("p50")
        .value(hist.quantile(0.50))
        .key("p99")
        .value(hist.quantile(0.99))
        .key("p999")
        .value(hist.quantile(0.999));
    writer.key("buckets").beginArray();
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (hist.buckets[b] == 0)
            continue;
        writer.beginObject()
            .key("le")
            .value(Histogram::bucketHigh(b))
            .key("count")
            .value(hist.buckets[b])
            .endObject();
    }
    writer.endArray().endObject();
}

} // namespace

void
writeStagesJson(JsonWriter &writer, const Snapshot &snapshot)
{
    writer.beginObject();
    for (const auto &[path, stage] : snapshot.stages) {
        writer.key(path)
            .beginObject()
            .key("count")
            .value(stage.count)
            .key("total_ms")
            .value(stage.totalMs())
            .key("self_ms")
            .value(stage.selfMs())
            .key("mean_ms")
            .value(stage.count ? stage.totalMs() /
                                     static_cast<double>(stage.count)
                               : 0.0)
            .endObject();
    }
    writer.endObject();
}

std::string
statsToJson(const Snapshot &snapshot)
{
    JsonWriter writer;
    writer.beginObject().key("schema").value(kStatsSchema);
    writer.key("counters").beginObject();
    for (const auto &[name, value] : snapshot.counters)
        writer.key(name).value(value);
    writer.endObject();
    writer.key("histograms").beginObject();
    for (const auto &[name, hist] : snapshot.histograms) {
        writer.key(name);
        writeHistogramJson(writer, hist);
    }
    writer.endObject();
    writer.key("reservoirs").beginObject();
    for (const auto &[name, res] : snapshot.reservoirs) {
        writer.key(name)
            .beginObject()
            .key("count")
            .value(res.count)
            .key("retained")
            .value(static_cast<std::uint64_t>(res.samples.size()))
            .key("p50")
            .value(res.quantile(0.50))
            .key("p90")
            .value(res.quantile(0.90))
            .key("p99")
            .value(res.quantile(0.99))
            .key("p999")
            .value(res.quantile(0.999))
            .endObject();
    }
    writer.endObject();
    writer.key("stages");
    writeStagesJson(writer, snapshot);
    writer.endObject();
    return writer.str();
}

void
writeStatsFile(const std::string &path, const Snapshot &snapshot)
{
    writeTextAtomic(path, statsToJson(snapshot));
}

} // namespace acdse::obs
