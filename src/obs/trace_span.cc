#include "obs/trace_span.hh"

#include <utility>

namespace acdse::obs
{

namespace
{

/** Innermost open span on this thread; nullptr outside any span. */
thread_local TraceSpan *tl_current = nullptr;

} // namespace

void
TraceSpan::open(Stage *stage) noexcept
{
    stage_ = stage;
    parent_ = std::exchange(tl_current, this);
    startNs_ = nowNs();
}

void
TraceSpan::close() noexcept
{
    const std::uint64_t elapsed = nowNs() - startNs_;
    tl_current = parent_;
    if (parent_ != nullptr)
        parent_->childNs_ += elapsed;
    stage_->record(elapsed, childNs_);
}

} // namespace acdse::obs
