/**
 * @file
 * How the campaign job server runs a fixed set of jobs across any
 * number of processes (or threads) sharing one directory: each
 * `acdse-jobs run`/`resume` is one drain, and a second one started on
 * the same directory shares the work.
 *
 * A job has no state of its own: it is done when its output exists
 * and is intact, and the executor checks that itself. Each job has a
 * lock file, `<prefix>.<id>.lock`, taken with flock(2)
 * (base/file_lock.hh), so the kernel releases a job the moment the
 * process holding it dies. drainJobs() walks the phases in ascending
 * order and, within each phase:
 *
 *   pass 1  runs every job whose lock it wins without waiting
 *           (tryLock), so concurrent drains spread over the phase;
 *   pass 2  takes each job's lock, blocking, and runs it again.
 *
 * The executor runs under the job's lock and returns at once when the
 * output is intact, so pass 2 only waits for jobs that siblings hold
 * and recomputes a job whose holder released it without writing the
 * output (it died, or gave up). Once pass 2 ends every job of the
 * phase is done: no job of a later phase starts before then, and no
 * job is computed twice, because its output lands (by atomic rename)
 * before its lock is released.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace acdse::jobs
{

/** Thrown on unexecutable jobs (missing inputs, bad plan files). */
class JobError : public std::runtime_error
{
  public:
    explicit JobError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** One job of a plan. */
struct JobSpec
{
    std::string id;   //!< unique, file-name safe
    std::string kind; //!< handler selector, e.g. "simulate-shard"
    std::size_t phase = 0; //!< phase barrier level (0 runs first)
    std::string arg;  //!< handler argument

    bool operator==(const JobSpec &) const = default;
};

/**
 * Runs one job under its lock. @return false when the output was
 * already intact (nothing was computed), true when it was computed.
 * Throws on failure.
 */
using JobExecutor = std::function<bool(const JobSpec &)>;

/** The lock file of @p spec among the jobs under @p prefix. */
std::string jobLockPath(const std::string &prefix, const JobSpec &spec);

/**
 * Run @p jobs to completion, phase by phase, sharing the work with
 * any concurrent drain over the same @p prefix. Each job runs once: a
 * throwing executor ends the drain, with the job's lock released and
 * no job of a later phase started. Jobs are deterministic, so the
 * next drain (`resume`) is the retry.
 * @return the jobs this call computed (not those it found intact).
 * @throws JobError naming the job and carrying the executor's message
 *         when an executor throws.
 */
std::size_t drainJobs(const std::vector<JobSpec> &jobs,
                      const std::string &prefix,
                      const JobExecutor &execute);

} // namespace acdse::jobs
