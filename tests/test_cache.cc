/**
 * @file
 * Unit and property tests for the set-associative caches and the
 * two-level hierarchy.
 */

#include <gtest/gtest.h>

#include "arch/design_space.hh"
#include "base/rng.hh"
#include "sim/cache.hh"

namespace acdse
{

/** Test access to Cache's epoch, to reach the wrap without 2^31 resets. */
struct CacheTestAccess
{
    static void
    setEpoch(Cache &cache, std::uint32_t epoch)
    {
        cache.epoch_ = epoch;
    }
};

namespace
{

TEST(Cache, ColdMissThenHit)
{
    Cache cache(1024, 2, 32);
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x11f, false).hit); // same 32B line
    EXPECT_FALSE(cache.access(0x120, false).hit); // next line
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped 2-set cache: lines mapping to set 0 are multiples
    // of 64 with even line index.
    Cache cache(64, 1, 32); // 2 sets, 1 way
    EXPECT_FALSE(cache.access(0x000, false).hit);
    EXPECT_FALSE(cache.access(0x040, false).hit); // same set, evicts
    EXPECT_FALSE(cache.access(0x000, false).hit); // miss again
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache cache(128, 2, 32); // 2 sets, 2 ways
    EXPECT_FALSE(cache.access(0x000, false).hit);
    EXPECT_FALSE(cache.access(0x040, false).hit); // same set, way 2
    EXPECT_TRUE(cache.access(0x000, false).hit);
    EXPECT_TRUE(cache.access(0x040, false).hit);
}

TEST(Cache, TrueLruOrder)
{
    Cache cache(128, 2, 32); // 2 sets, 2 ways
    cache.access(0xA00, false); // set 0
    cache.access(0xB00, false); // set 0 (A older)
    cache.access(0xA00, false); // A now MRU
    cache.access(0xC00, false); // evicts B (LRU)
    EXPECT_TRUE(cache.access(0xA00, false).hit);
    EXPECT_FALSE(cache.access(0xB00, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(64, 1, 32);
    cache.access(0x000, true); // dirty line in set 0
    const CacheAccessResult r = cache.access(0x040, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writebackDirty);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache cache(64, 1, 32);
    cache.access(0x000, false);
    EXPECT_FALSE(cache.access(0x040, false).writebackDirty);
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache cache(128, 2, 32);
    cache.access(0x000, false);
    EXPECT_TRUE(cache.probe(0x000));
    EXPECT_FALSE(cache.probe(0x040));
    const std::uint64_t accesses = cache.accesses();
    cache.probe(0x080);
    EXPECT_EQ(cache.accesses(), accesses);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(128, 2, 32);
    cache.access(0x000, true);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.probe(0x000));
}

TEST(Cache, WriteHitThenEvictionReportsWriteback)
{
    Cache cache(64, 1, 32); // 2 sets, 1 way
    EXPECT_FALSE(cache.access(0x000, false).hit); // clean fill
    EXPECT_TRUE(cache.access(0x000, true).hit);   // write hit: dirty
    const CacheAccessResult r = cache.access(0x040, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writebackDirty);
    EXPECT_EQ(cache.writebacks(), 1u);
    // The replacement was filled clean, so evicting it writes nothing.
    EXPECT_FALSE(cache.access(0x000, false).writebackDirty);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, ReconfigureLargeSmallLargeLeavesNoStaleHits)
{
    constexpr std::uint64_t kLarge = 4096;
    Cache cache(kLarge, 2, 32);
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        cache.access(a, true); // every line present and dirty

    cache.reconfigure(128, 2, 32); // shrinks the geometry, not storage
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.probe(a)) << a;
    cache.access(0x000, true);
    cache.access(0x040, false);
    EXPECT_TRUE(cache.probe(0x000));

    cache.reconfigure(kLarge, 2, 32);
    EXPECT_EQ(cache.accesses(), 0u);
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.probe(a)) << a;
    // Refilling evicts nothing: no stale dirty line is written back.
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.access(a, false).hit) << a;
    EXPECT_EQ(cache.misses(), kLarge / 32);
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST(Cache, EpochWrapClearsEveryLine)
{
    constexpr std::uint64_t kLarge = 4096;
    Cache cache(kLarge, 2, 32);
    CacheTestAccess::setEpoch(cache, 5);
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        cache.access(a, true); // every line present, dirty, epoch 5
    ASSERT_TRUE(cache.probe(0x000));

    // Wrap while shrunk, then count back up to the fill's epoch: the
    // wrap's clear must have reached the lines beyond the small
    // geometry too, or they resurface here.
    CacheTestAccess::setEpoch(cache, Cache::kMaxEpoch);
    cache.reconfigure(128, 2, 32); // wraps to epoch 1
    cache.reconfigure(kLarge, 2, 32); // epoch 2
    for (int epoch = 2; epoch < 5; ++epoch)
        cache.reset();
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.probe(a)) << a;
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.access(a, false).hit) << a;
    EXPECT_EQ(cache.writebacks(), 0u);
}

/**
 * Property: a larger cache never misses more on the same access
 * stream (true LRU caches of nested capacity are inclusive in hits for
 * a fixed associativity when sets divide evenly -- we check the
 * empirical property on random streams).
 */
class CacheMonotonicity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheMonotonicity, BiggerCacheFewerMisses)
{
    // Set-associative LRU caches of different set counts are not stack
    // algorithms, so strict inclusion does not hold; we require the
    // trend (each doubling helps or is within noise, and the extremes
    // differ decisively).
    Rng rng(GetParam());
    std::vector<std::uint64_t> addrs;
    // Hot region + occasional far accesses, like the workload model.
    for (int i = 0; i < 20000; ++i) {
        addrs.push_back(rng.nextBool(0.8) ? rng.nextBounded(16 * 1024)
                                          : rng.nextBounded(512 * 1024));
    }
    auto misses = [&](int kb) {
        Cache cache(kb * 1024, 4, 32);
        for (std::uint64_t a : addrs)
            cache.access(a, false);
        return cache.misses();
    };
    std::uint64_t prev = ~0ULL / 2;
    for (int kb : {8, 16, 32, 64, 128}) {
        const std::uint64_t m = misses(kb);
        EXPECT_LE(m, prev + prev / 10) << kb << "KB";
        prev = m;
    }
    EXPECT_LT(2 * misses(128), misses(8));
}

INSTANTIATE_TEST_SUITE_P(Streams, CacheMonotonicity,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

TEST(CacheHierarchy, LatencyBands)
{
    const CacheHierarchy h(DesignSpace::baseline());
    EXPECT_GE(h.dl1Latency(), 2);
    EXPECT_LE(h.dl1Latency(), 4);
    EXPECT_GE(h.l2Latency(), 6);
    EXPECT_LE(h.l2Latency(), 14);
    EXPECT_EQ(h.memLatency(), 200);
}

TEST(CacheHierarchy, LatencyOrdering)
{
    CacheHierarchy h(DesignSpace::baseline());
    HierarchyAccessEvents ev;
    const int miss_all = h.dataAccess(0x5000, false, ev);
    const int hit_l1 = h.dataAccess(0x5000, false, ev);
    EXPECT_GT(miss_all, h.dl1Latency() + h.l2Latency());
    EXPECT_EQ(hit_l1, h.dl1Latency());
}

TEST(CacheHierarchy, EventsCountLevels)
{
    CacheHierarchy h(DesignSpace::baseline());
    HierarchyAccessEvents ev;
    h.dataAccess(0x9000, false, ev); // cold: L1 + L2 + mem
    EXPECT_EQ(ev.dl1, 1);
    EXPECT_EQ(ev.l2, 1);
    EXPECT_EQ(ev.mem, 1);
    h.dataAccess(0x9000, false, ev); // L1 hit
    EXPECT_EQ(ev.dl1, 2);
    EXPECT_EQ(ev.l2, 1);
}

TEST(CacheHierarchy, InstFetchFillsL2)
{
    CacheHierarchy h(DesignSpace::baseline());
    HierarchyAccessEvents ev;
    const int cold = h.instAccess(0x400000, ev);
    EXPECT_GT(cold, 1);
    EXPECT_EQ(h.instAccess(0x400000, ev), 1); // warm hit
}

TEST(CacheDeathTest, RejectsNonPowerOfTwoSets)
{
    EXPECT_DEATH(Cache(96, 1, 32), "2\\^n");
}

} // namespace
} // namespace acdse
