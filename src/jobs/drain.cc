#include "jobs/drain.hh"

#include <algorithm>

#include "base/file_lock.hh"
#include "obs/metrics.hh"

namespace acdse::jobs
{

namespace
{

/**
 * Run @p spec, whose lock the caller holds, once.
 * @return whether the executor computed the output.
 */
bool
runHeld(const JobSpec &spec, const JobExecutor &execute)
{
    try {
        return execute(spec);
    } catch (const std::exception &e) {
        throw JobError("job '" + spec.id + "' failed: " + e.what());
    }
}

} // namespace

std::string
jobLockPath(const std::string &prefix, const JobSpec &spec)
{
    return prefix + "." + spec.id + ".lock";
}

std::size_t
drainJobs(const std::vector<JobSpec> &jobs, const std::string &prefix,
          const JobExecutor &execute)
{
    std::vector<std::size_t> phases;
    for (const JobSpec &spec : jobs)
        phases.push_back(spec.phase);
    std::sort(phases.begin(), phases.end());
    phases.erase(std::unique(phases.begin(), phases.end()),
                 phases.end());

    std::size_t computed = 0;
    const auto run = [&](const JobSpec &spec) {
        if (runHeld(spec, execute)) {
            ++computed;
            obs::Registry::global().counter("jobs/dispatch").add(1);
        }
    };
    for (const std::size_t phase : phases) {
        // Pass 1: every job no sibling holds right now.
        for (const JobSpec &spec : jobs) {
            if (spec.phase != phase)
                continue;
            FileLock lock(jobLockPath(prefix, spec));
            if (!lock.tryLock())
                continue;
            run(spec);
            lock.unlock();
        }
        // Pass 2: wait out each sibling's job; one whose holder let go
        // without writing the output is computed here.
        for (const JobSpec &spec : jobs) {
            if (spec.phase != phase)
                continue;
            FileLock lock(jobLockPath(prefix, spec));
            const FileLockGuard guard(lock);
            run(spec);
        }
    }
    return computed;
}

} // namespace acdse::jobs
