/**
 * @file
 * Death-test style for the unit-test binary. Earlier tests leave
 * ThreadPool::global() running, and the default "fast" style forks a
 * child that inherits only the forking thread: a death test whose
 * statement exits through fatal() would then run the pool's destructor
 * in the child, joining worker threads the child does not have. The
 * "threadsafe" style re-executes the binary for each death test, so
 * the child starts with no pool at all. Set once, before main() parses
 * the command line (an explicit --gtest_death_test_style still wins).
 */

#include <gtest/gtest.h>

namespace
{

const bool kThreadsafeDeathTests = [] {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    return true;
}();

} // namespace
