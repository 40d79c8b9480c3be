/**
 * @file
 * Unit tests for the shared work scheduler (base/thread_pool): full
 * index coverage, exception propagation, the documented nested-call
 * semantics (inline serialisation), empty/single ranges and the sizing
 * rule.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

namespace acdse
{
namespace
{

TEST(ThreadPool, SizingRuleCountsWorkersAndCaller)
{
    ThreadPool one(1);
    EXPECT_EQ(one.threads(), 1u);
    EXPECT_EQ(one.workers(), 0u);

    ThreadPool four(4);
    EXPECT_EQ(four.threads(), 4u);
    EXPECT_EQ(four.workers(), 3u);
}

TEST(ThreadPool, ResolveHonoursExplicitRequest)
{
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7u);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(
        0, hits.size(),
        [&](std::size_t i) { hits[i].fetch_add(1); },
        /*grain=*/3);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHonoursOffsetRange)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, 20, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 145u); // 10 + 11 + ... + 19
}

/**
 * Regression test for the stale-worker hand-off race: a helper that
 * wakes for a loop only after the loop completed must find its range
 * exhausted and leave, never claim indices of the next loop or run the
 * previous loop's body, and the caller must not return before every
 * index ran. Two-index loops back to back on a wide pool keep that
 * window open. Each index waits until the other has started, so every
 * round hands an index to a second thread; each round writes slots no
 * earlier round touched, so a late write cannot stand in for a
 * missing one.
 */
TEST(ThreadPool, BackToBackTinyLoopsNeverDropIndices)
{
    constexpr int kRounds = 2000;
    ThreadPool pool(8);
    std::vector<std::array<int, 2>> out(kRounds, {-1, -1});
    std::vector<std::atomic<int>> started(kRounds);
    for (int round = 0; round < kRounds; ++round) {
        pool.parallelFor(0, 2, [&](std::size_t i) {
            started[round].fetch_add(1);
            while (started[round].load() < 2)
                std::this_thread::yield();
            out[round][i] = 2 * round + static_cast<int>(i);
        });
        for (std::size_t i = 0; i < 2; ++i) {
            ASSERT_EQ(out[round][i], 2 * round + static_cast<int>(i))
                << "round " << round << " index " << i;
        }
    }
}

TEST(ThreadPool, ZeroTaskParallelForIsANoOp)
{
    ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, 0, [&](std::size_t) { touched = true; });
    pool.parallelFor(5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleTaskRunsInlineOnTheCaller)
{
    ThreadPool pool(4);
    std::thread::id ran_on;
    pool.parallelFor(3, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 3u);
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, SingleThreadPoolRunsEverythingInline)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    std::size_t count = 0; // no atomics needed: everything is inline
    pool.parallelFor(0, 50, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++count;
    });
    EXPECT_EQ(count, 50u);
}

TEST(ThreadPool, ExceptionFromWorkerPropagatesToCaller)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(0, 100, [&](std::size_t i) {
            if (i == 17)
                throw std::runtime_error("task 17 failed");
        });
        FAIL() << "expected the task exception to be rethrown";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 17 failed");
    }

    // The pool survives a throwing loop and stays usable.
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(0, 10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnTheOuterWorker)
{
    // Documented nesting semantics: an inner parallelFor issued from
    // inside a pool task runs serially on that same thread -- the
    // outer loop owns the parallelism and no nesting can deadlock.
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(0, 8, [&](std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        std::size_t inner_sum = 0;
        pool.parallelFor(0, 16, [&](std::size_t j) {
            EXPECT_EQ(std::this_thread::get_id(), outer);
            inner_sum += j;
        });
        EXPECT_EQ(inner_sum, 120u);
        total += inner_sum;
    });
    EXPECT_EQ(total.load(), 8u * 120u);
}

TEST(ThreadPool, NestedCallsAcrossPoolsAlsoSerialise)
{
    // Same rule across distinct pools: any pool worker runs any
    // parallelFor inline, so pools never amplify each other.
    ThreadPool outer(3);
    ThreadPool inner(3);
    std::atomic<std::size_t> sum{0};
    outer.parallelFor(0, 4, [&](std::size_t) {
        const std::thread::id id = std::this_thread::get_id();
        inner.parallelFor(0, 4, [&](std::size_t j) {
            EXPECT_EQ(std::this_thread::get_id(), id);
            sum += j;
        });
    });
    EXPECT_EQ(sum.load(), 4u * 6u);
}

TEST(ThreadPoolDeathTest, InvertedRangeFails)
{
    ThreadPool pool(1);
    EXPECT_DEATH(pool.parallelFor(5, 3, [](std::size_t) {}),
                 "inverted");
}

TEST(ThreadPoolDeathTest, ZeroGrainFails)
{
    ThreadPool pool(1);
    EXPECT_DEATH(pool.parallelFor(0, 3, [](std::size_t) {}, 0),
                 "grain");
}

} // namespace
} // namespace acdse
