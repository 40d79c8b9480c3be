#include "base/file_lock.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "base/logging.hh"

namespace acdse
{

FileLock::FileLock(std::string path) : path_(std::move(path))
{
    // O_CLOEXEC: worker processes fork+exec nothing today, but a lock
    // descriptor must never leak into an unrelated child regardless.
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        panic("cannot open lock file '", path_,
              "': ", std::strerror(errno));
    }
}

FileLock::~FileLock()
{
    if (fd_ >= 0)
        ::close(fd_); // releases any held flock
}

void
FileLock::lock()
{
    while (::flock(fd_, LOCK_EX) != 0) {
        if (errno != EINTR) {
            panic("flock('", path_, "') failed: ",
                  std::strerror(errno));
        }
    }
}

bool
FileLock::tryLock()
{
    while (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            return false;
        if (errno != EINTR) {
            panic("flock('", path_, "') failed: ",
                  std::strerror(errno));
        }
    }
    return true;
}

void
FileLock::unlock()
{
    if (::flock(fd_, LOCK_UN) != 0)
        panic("flock unlock('", path_, "') failed: ",
              std::strerror(errno));
}

} // namespace acdse
