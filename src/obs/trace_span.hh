/**
 * @file
 * RAII scoped timers that attribute wall time to the Stage tree
 * (obs/metrics.hh). A TraceSpan marks one execution of a stage --
 * "campaign/fill", "train/program/3", "serve/batch" -- at stage
 * granularity; per-point work inside hot loops stays un-spanned (the
 * acdse-obs-span-in-hot-loop lint rule enforces this).
 */

#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.hh"

namespace acdse::obs
{

/**
 * Times a scope and folds the result into a Stage on destruction.
 *
 * Spans nest through a thread-local stack: when a span closes, its
 * inclusive time is credited to the enclosing same-thread span's child
 * time, so a stage's self time (total - child) never double-counts
 * nested stages. Work handed to pool workers opens spans on a fresh
 * stack on that thread -- cross-thread parentage is deliberately not
 * tracked (it would need synchronisation on the hot path), so a stage
 * that blocks waiting on workers keeps that wait in its own self time
 * while the workers' stages account for theirs. Summing self times
 * across stages therefore stays <= total wall time on one thread and
 * <= aggregate CPU time across many.
 */
class TraceSpan
{
  public:
    /** Open a span against an already-interned stage (hot path). */
    explicit TraceSpan(Stage &stage) noexcept { open(&stage); }

    /** Intern @p path in @p registry (cold) and open against it. */
    TraceSpan(Registry &registry, std::string_view path)
    {
        open(&registry.stage(path));
    }

    ~TraceSpan() { close(); }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    void open(Stage *stage) noexcept;
    void close() noexcept;

    Stage *stage_ = nullptr;
    TraceSpan *parent_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t childNs_ = 0;
};

} // namespace acdse::obs
