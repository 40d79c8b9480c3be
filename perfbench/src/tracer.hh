/**
 * @file
 * The benchmark's own span recorder. Spans are opened around the
 * benchmark's calls into the library's layers (nothing inside src/ is
 * instrumented by it), nest through a stack, and carry the id of the
 * workload unit -- campaign repetition, onboarding or request -- they
 * belong to. Per-(phase, layer) totals are kept as spans close; raw
 * records stay in memory up to a cap and are written out at exit.
 *
 * Single-threaded by design: every span is opened on the benchmark's
 * main thread, around a blocking call into a layer, so a span's
 * duration is that layer's wall time as the caller sees it.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Aggregate of one layer's spans within one phase. */
struct LayerTotals
{
    std::uint64_t spans = 0;   //!< spans closed
    std::uint64_t totalNs = 0; //!< inclusive wall time
    std::uint64_t selfNs = 0;  //!< wall time not covered by child spans
};

class Tracer
{
  public:
    /** Most raw span records kept for the export file. */
    static constexpr std::size_t kMaxRecords = 400'000;

    /** RAII span; a no-op when the tracer is disabled. */
    class Span
    {
      public:
        Span(Tracer &tracer, std::uint32_t layer, std::uint64_t id);
        Span(Tracer &tracer, std::string_view layer, std::uint64_t id)
            : Span(tracer, tracer.layer(layer), id)
        {
        }
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_ = nullptr; //!< null when not recording
    };

    /** Intern a layer name once, for spans opened in hot loops. */
    std::uint32_t layer(std::string_view name);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Per phase (the root span's layer name), per layer: totals. */
    std::map<std::string, std::map<std::string, LayerTotals>>
    totals() const;

    /** Spans recorded in total, including those beyond the record cap. */
    std::uint64_t spansRecorded() const { return spansRecorded_; }

    /**
     * Write the kept records as CSV (name, id, parent record index,
     * start and end ns relative to the first span, self ns).
     */
    void writeCsv(const std::string &path) const;

  private:
    struct Open
    {
        std::uint32_t layer;  //!< interned layer name
        std::uint64_t id;     //!< workload-unit id
        std::uint64_t start;  //!< open timestamp
        std::uint64_t childNs = 0;
        std::int64_t record = -1; //!< index into records_, or -1
    };

    struct Record
    {
        std::uint32_t layer;
        std::int32_t parent;
        std::uint64_t id;
        std::uint64_t start;
        std::uint64_t end;
        std::uint64_t selfNs;
    };

    void open(std::uint32_t layer, std::uint64_t id);
    void close();

    bool enabled_ = false;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t, std::less<>> index_;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t epochNs_ = 0;
    /** [root layer][layer] totals, indexed by interned name. */
    std::vector<std::vector<LayerTotals>> totals_;
};

} // namespace perfbench
