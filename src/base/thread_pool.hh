/**
 * @file
 * The shared work scheduler: one fixed pool of worker threads that
 * every heavy loop in the library runs on -- campaign simulation fill,
 * per-program ANN training, ensemble forward passes, evaluation
 * sweeps, and batched prediction serving.
 *
 * Design rules (see README "Parallel execution"):
 *
 *  - Determinism. The pool never changes results. parallelFor() gives
 *    every index to exactly one task, tasks write to caller-indexed
 *    slots, and any reduction happens in index order on the caller.
 *    Code that draws randomness seeds one Rng per index from the
 *    loop's seed and the index (see tileSeed in explore/explorer.cc)
 *    instead of sharing a generator, so a 1-thread and an N-thread run
 *    of the same loop are bit-identical
 *    (tests/test_parallel_determinism.cc enforces this).
 *
 *  - Sizing. A pool of size N is N-1 spawned workers plus the calling
 *    thread, which always participates in parallelFor(). Size 0 means
 *    "resolve the default": the ACDSE_THREADS environment variable
 *    (parsed with base/parse, value 0 = auto) and otherwise the
 *    hardware concurrency. A pool of size 1 spawns no threads at all
 *    and runs everything inline -- the single-thread fallback.
 *
 *  - Nesting. parallelFor() called from inside any pool worker, or
 *    from a loop body the calling thread runs while it participates,
 *    runs the whole loop serially inline on that thread (supported,
 *    not rejected): the outermost loop owns the parallelism, inner loops
 *    degrade to plain loops, and no combination of nested calls can
 *    deadlock or oversubscribe.
 *
 *  - Exceptions. A throwing task aborts the remaining (unstarted)
 *    indices of its parallelFor and the lowest-indexed exception
 *    observed is rethrown on the caller.
 *
 *  - Teardown. The destructor wakes the workers and joins them; a
 *    worker exits only once the queue of loop helpers is empty.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "base/sync.hh"

namespace acdse
{

/**
 * A fixed-size worker pool with deterministic parallel loops.
 *
 * Construction spins the workers up, destruction drains the queue and
 * joins them. One process-wide instance (global()) is shared by the
 * library's heavy loops; code that needs an explicit width (tests,
 * benchmarks, the prediction service) constructs its own.
 */
class ThreadPool
{
  public:
    /**
     * The sizing rule shared by every subsystem: ACDSE_THREADS if set
     * and non-zero (parsed strictly; garbage is fatal), otherwise the
     * hardware concurrency, never less than 1.
     */
    static std::size_t defaultThreads();

    /** @p requested if non-zero, otherwise defaultThreads(). */
    static std::size_t resolveThreads(std::size_t requested);

    /** The process-wide shared pool (sized by defaultThreads()). */
    static ThreadPool &global();

    /** @param threads total parallelism; 0 resolves the default. */
    explicit ThreadPool(std::size_t threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism: spawned workers plus the calling thread. */
    std::size_t threads() const { return workers_.size() + 1; }

    /** Spawned worker threads (threads() - 1). */
    std::size_t workers() const { return workers_.size(); }

    /**
     * Run @p body(i) for every i in [begin, end), spread across the
     * pool, and return when all of them finished. The caller
     * participates; indices are claimed in blocks of @p grain rising
     * monotonically. Blocks until completion; rethrows the
     * lowest-indexed exception observed (later indices may then be
     * skipped). Safe to call from inside a worker: the loop then runs
     * serially inline (see file comment).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 1);

  private:
    struct ForJob;

    /**
     * One queued unit of work. The enqueue timestamp feeds the
     * pool/queue-wait-ns histogram (src/obs).
     */
    struct Task
    {
        std::function<void()> fn;
        std::uint64_t enqueuedNs = 0;
    };

    /** Worker main loop: pop tasks until stopped and drained. */
    void workerLoop();

    /** Claim and run blocks of @p job until its range is exhausted. */
    static void drain(ForJob &job);

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar workCv_;
    std::deque<Task> queue_ ACDSE_GUARDED_BY(mutex_);
    bool stop_ ACDSE_GUARDED_BY(mutex_) = false;
};

} // namespace acdse
