/**
 * @file
 * Advisory file locking for cross-process mutual exclusion.
 *
 * The job system's workers are separate processes sharing one cache
 * directory; the in-process Mutex wrappers (base/sync.hh) cannot
 * arbitrate between them. FileLock wraps flock(2) on a dedicated lock
 * file: every FileLock instance opens its own descriptor, so exclusion
 * holds both between processes and between threads of one process
 * (flock serialises on the open file description, not the process).
 *
 * The lock is advisory -- it only orders participants that take it --
 * and it vanishes with the descriptor, so a SIGKILL'd holder can never
 * leave the lock stuck: the kernel releases it when the process dies.
 * That property is exactly what a crash-safe job claim needs: a job
 * whose worker died is claimable again the moment it died.
 *
 * The capability annotations make lock discipline visible to Clang's
 * -Wthread-safety analysis the same way the Mutex wrappers do.
 */

#pragma once

#include <string>

#include "base/sync.hh"

namespace acdse
{

/** An flock(2)-based advisory lock on a dedicated lock file. */
class ACDSE_CAPABILITY("mutex") FileLock
{
  public:
    /**
     * Open (creating if absent) the lock file. Does not take the lock.
     * Panics if the file cannot be opened: the lock file lives next to
     * the outputs it guards, so an unopenable path is a caller bug.
     */
    explicit FileLock(std::string path);

    /** Closes the descriptor, releasing any held lock. */
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** Block until the exclusive lock is held. */
    void lock() ACDSE_ACQUIRE();

    /**
     * Take the exclusive lock if no other descriptor holds it.
     * @return whether the lock is now held; never blocks.
     */
    bool tryLock() ACDSE_TRY_ACQUIRE(true);

    /** Release the exclusive lock. */
    void unlock() ACDSE_RELEASE();

    /** The lock file's path. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

/** RAII scope holding a FileLock for its lifetime. */
class ACDSE_SCOPED_CAPABILITY FileLockGuard
{
  public:
    explicit FileLockGuard(FileLock &lock) ACDSE_ACQUIRE(lock)
        : lock_(lock)
    {
        lock_.lock();
    }

    ~FileLockGuard() ACDSE_RELEASE() { lock_.unlock(); }

    FileLockGuard(const FileLockGuard &) = delete;
    FileLockGuard &operator=(const FileLockGuard &) = delete;

  private:
    FileLock &lock_;
};

} // namespace acdse
