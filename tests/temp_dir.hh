/**
 * @file
 * Per-process unique scratch directories for tests.
 *
 * gtest_discover_tests runs every TEST as its own process, and
 * `ctest -j` runs those processes concurrently -- possibly alongside
 * other checkouts sharing the host's temp directory. A fixed name such
 * as `<tmp>/acdse_crash_reference` is then removed and rebuilt under a
 * sibling that is still reading it. uniqueTempDir() instead creates a
 * fresh directory with mkdtemp(3) under std::filesystem's temp
 * directory ($TMPDIR when set), so no two processes ever share one.
 * Every directory it made is removed when the process exits normally.
 *
 * Call it from the test's main thread only.
 */

#pragma once

#include <cerrno>
#include <filesystem>
#include <stdlib.h>
#include <string>
#include <system_error>
#include <vector>

namespace acdse::testdir
{

/** Directories created by this process, removed at normal exit. */
class Created
{
  public:
    ~Created()
    {
        for (const auto &dir : dirs_) {
            std::error_code ignored;
            std::filesystem::remove_all(dir, ignored);
        }
    }

    void add(const std::filesystem::path &dir) { dirs_.push_back(dir); }

  private:
    std::vector<std::filesystem::path> dirs_;
};

/** A new, empty directory named `<tmp>/<name>_XXXXXX`. */
inline std::filesystem::path
uniqueTempDir(const std::string &name)
{
    static Created created;
    std::string pattern =
        (std::filesystem::temp_directory_path() / (name + "_XXXXXX"))
            .string();
    if (!::mkdtemp(pattern.data())) {
        throw std::filesystem::filesystem_error(
            "mkdtemp", pattern,
            std::error_code(errno, std::generic_category()));
    }
    created.add(pattern);
    return pattern;
}

} // namespace acdse::testdir
