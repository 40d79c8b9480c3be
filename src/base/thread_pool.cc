#include "base/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "base/check.hh"
#include "base/parse.hh"
#include "obs/metrics.hh"

namespace acdse
{

namespace
{

// Set for the lifetime of every spawned worker; parallelFor() uses it
// to detect nesting and degrade to an inline loop instead of blocking
// a worker on other workers (which can deadlock a pool of one).
thread_local bool tl_pool_worker = false;

// Set while a parallelFor() caller runs loop bodies itself, so a loop
// nested in one of them also runs inline, exactly as on a worker.
thread_local bool tl_for_caller = false;

/**
 * The pool's metrics, shared by every ThreadPool instance. References
 * into the leaked global registry, so workers of static pools can
 * still record during process teardown.
 */
struct PoolMetrics
{
    obs::Counter &tasksRun;
    obs::Histogram &queueWaitNs;
};

PoolMetrics &
poolMetrics()
{
    // Written once at init (magic-static guarded); only the
    // referenced wait-free metrics mutate after.
    static PoolMetrics metrics{ // NOLINT(acdse-local-static)
        obs::Registry::global().counter("pool/tasks-run"),
        obs::Registry::global().histogram("pool/queue-wait-ns")};
    return metrics;
}

} // namespace

/**
 * Shared state of one parallelFor call. Helpers hold it via shared_ptr
 * so a worker that wakes only after the loop completed finds the range
 * exhausted and exits without touching the caller's (gone) frame: the
 * body pointer is only dereferenced after a successful claim, and the
 * caller cannot return while any claimed index is unfinished.
 */
struct ThreadPool::ForJob
{
    std::size_t begin = 0;
    std::size_t total = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)> *body = nullptr;
    std::atomic<std::size_t> next{0};      //!< next unclaimed offset
    std::atomic<std::size_t> completed{0}; //!< finished (or skipped)
    std::atomic<bool> abort{false};        //!< a task threw; wind down
    Mutex mutex;
    CondVar done;
    bool hasException ACDSE_GUARDED_BY(mutex) = false;
    std::size_t exceptionIndex ACDSE_GUARDED_BY(mutex) = 0;
    std::exception_ptr exception ACDSE_GUARDED_BY(mutex);
};

std::size_t
ThreadPool::defaultThreads()
{
    if (const char *value = std::getenv("ACDSE_THREADS");
        value && *value) {
        const auto parsed = static_cast<std::size_t>(
            parseU64OrDie("ACDSE_THREADS", value));
        if (parsed)
            return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::size_t
ThreadPool::resolveThreads(std::size_t requested)
{
    return requested ? requested : defaultThreads();
}

ThreadPool &
ThreadPool::global()
{
    // The process-wide pool singleton: init is magic-static guarded
    // and the pool is internally locked.
    static ThreadPool pool(defaultThreads()); // NOLINT(acdse-local-static)
    return pool;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t size = resolveThreads(threads);
    workers_.reserve(size - 1);
    for (std::size_t i = 0; i + 1 < size; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    workCv_.notifyAll();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    tl_pool_worker = true;
    for (;;) {
        Task task;
        {
            MutexLock lock(mutex_);
            // A predicate lambda would be invisible to the thread-
            // safety analysis (see base/sync.hh), so loop explicitly.
            while (!stop_ && queue_.empty())
                workCv_.wait(mutex_);
            if (queue_.empty())
                return; // stop_ set and nothing left: drained teardown
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        PoolMetrics &metrics = poolMetrics();
        metrics.tasksRun.add(1);
        metrics.queueWaitNs.record(obs::nowNs() - task.enqueuedNs);
        task.fn();
    }
}

void
ThreadPool::drain(ForJob &job)
{
    for (;;) {
        const std::size_t lo = job.next.fetch_add(job.grain);
        if (lo >= job.total)
            return;
        const std::size_t hi = std::min(lo + job.grain, job.total);
        for (std::size_t i = lo; i < hi; ++i) {
            if (job.abort.load(std::memory_order_relaxed))
                continue;
            try {
                (*job.body)(job.begin + i);
            } catch (...) {
                MutexLock lock(job.mutex);
                if (!job.hasException || i < job.exceptionIndex) {
                    job.hasException = true;
                    job.exceptionIndex = i;
                    job.exception = std::current_exception();
                }
                job.abort.store(true, std::memory_order_relaxed);
            }
        }
        const std::size_t before = job.completed.fetch_add(hi - lo);
        if (before + (hi - lo) == job.total) {
            // Last block: wake the caller. Taking the mutex orders the
            // notify after the caller's predicate check.
            MutexLock lock(job.mutex);
            job.done.notifyAll();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body,
                        std::size_t grain)
{
    ACDSE_CHECK(begin <= end, "parallelFor range is inverted");
    ACDSE_CHECK(grain > 0, "parallelFor grain must be positive");
    if (begin == end)
        return;
    const std::size_t total = end - begin;

    // Serial paths: a pool of one, a loop of one, or a nested call
    // from inside a worker or a draining caller (the outer loop owns
    // the parallelism).
    if (workers_.empty() || total == 1 || tl_pool_worker ||
        tl_for_caller) {
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->begin = begin;
    job->total = total;
    job->grain = grain;
    job->body = &body;

    const std::size_t blocks = (total + grain - 1) / grain;
    const std::size_t helpers = std::min(workers_.size(), blocks);
    {
        const std::uint64_t stamp = obs::nowNs();
        MutexLock lock(mutex_);
        for (std::size_t h = 0; h < helpers; ++h)
            queue_.push_back(Task{[job] { drain(*job); }, stamp});
    }
    // One wake-up per queued helper: a short loop on a wide pool must
    // not wake every sleeping worker to find the queue already empty.
    for (std::size_t h = 0; h < helpers; ++h)
        workCv_.notifyOne();

    tl_for_caller = true;
    drain(*job); // body exceptions are caught into the job
    tl_for_caller = false;
    MutexLock lock(job->mutex);
    while (job->completed.load(std::memory_order_acquire) != total)
        job->done.wait(job->mutex);
    if (job->hasException)
        std::rethrow_exception(job->exception);
}

} // namespace acdse
