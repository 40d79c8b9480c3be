/**
 * @file
 * Unit and property tests for the set-associative caches and the
 * two-level hierarchy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/design_space.hh"
#include "arch/parameter.hh"
#include "base/rng.hh"
#include "sim/cache.hh"

namespace acdse
{

/** Test access to Cache's epoch, to reach its wrap in a few resets. */
struct CacheTestAccess
{
    static void
    setEpoch(Cache &cache, std::uint32_t epoch)
    {
        cache.epoch_ = epoch;
    }

    /** Whether @p addr would hit, without changing any state. */
    static bool
    probe(const Cache &cache, std::uint32_t addr)
    {
        const std::uint32_t line_addr = addr >> cache.lineShift_;
        const std::uint32_t set =
            line_addr & (static_cast<std::uint32_t>(cache.sets_) - 1);
        const std::uint32_t tag = line_addr >> cache.setShift_;
        const std::uint32_t *blk = &cache.blocks_[set * cache.stride_];
        const std::uint32_t header = blk[Cache::kHeaderWord];
        if ((header & Cache::kEpochMask) != cache.epoch_)
            return false;
        const std::uint32_t valid = header >> Cache::kValidShift & 0xffu;
        for (int w = 0; w < cache.assoc_; ++w) {
            if ((valid >> w & 1u) && blk[Cache::kTagWord + w] == tag)
                return true;
        }
        return false;
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
    EXPECT_TRUE(CacheTestAccess::probe(cache, 0x000));
    EXPECT_FALSE(CacheTestAccess::probe(cache, 0x040));
    const std::uint64_t accesses = cache.accesses();
    CacheTestAccess::probe(cache, 0x080);
    EXPECT_EQ(cache.accesses(), accesses);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(128, 2, 32);
    cache.access(0x000, true);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(CacheTestAccess::probe(cache, 0x000));
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
        EXPECT_FALSE(CacheTestAccess::probe(cache, a)) << a;
    cache.access(0x000, true);
    cache.access(0x040, false);
    EXPECT_TRUE(CacheTestAccess::probe(cache, 0x000));

    cache.reconfigure(kLarge, 2, 32);
    EXPECT_EQ(cache.accesses(), 0u);
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(CacheTestAccess::probe(cache, a)) << a;
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
    ASSERT_TRUE(CacheTestAccess::probe(cache, 0x000));

    // Wrap while shrunk, then count back up to the fill's epoch: the
    // wrap's clear must have reached the lines beyond the small
    // geometry too, or they resurface here.
    CacheTestAccess::setEpoch(cache, Cache::kMaxEpoch);
    cache.reconfigure(128, 2, 32); // wraps to epoch 1
    cache.reconfigure(kLarge, 2, 32); // epoch 2
    for (int epoch = 2; epoch < 5; ++epoch)
        cache.reset();
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(CacheTestAccess::probe(cache, a)) << a;
    for (std::uint64_t a = 0; a < kLarge; a += 32)
        EXPECT_FALSE(cache.access(a, false).hit) << a;
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST(Cache, EpochWrapAtSixteenBitsForgetsEveryLine)
{
    // The epoch is the low 16 bits of a set's header. Lines filled at
    // the last two epochs must be told apart from the current one, and
    // after the wrap, counting all 65,535 resets back up to the fill's
    // epoch must not bring its lines back.
    static_assert(Cache::kMaxEpoch == 0xffff);
    constexpr std::uint32_t kBytes = 1024;
    Cache cache(kBytes, 4, 32); // 8 sets
    auto fill = [&] {
        for (std::uint32_t a = 0; a < kBytes; a += 32)
            cache.access(a, true);
        for (std::uint32_t a = 0; a < kBytes; a += 32)
            ASSERT_TRUE(CacheTestAccess::probe(cache, a)) << a;
    };
    auto expectEmpty = [&] {
        for (std::uint32_t a = 0; a < kBytes; a += 32)
            EXPECT_FALSE(CacheTestAccess::probe(cache, a)) << a;
    };

    CacheTestAccess::setEpoch(cache, Cache::kMaxEpoch - 1);
    fill();
    cache.reset(); // epoch 0xffff: the field holds it
    expectEmpty();
    fill();
    cache.reset(); // wraps to epoch 1 with a full clear
    expectEmpty();
    for (std::uint32_t epoch = 1; epoch < Cache::kMaxEpoch; ++epoch)
        cache.reset();
    expectEmpty(); // back at 0xffff, the fill's epoch
    for (std::uint32_t a = 0; a < kBytes; a += 32)
        EXPECT_FALSE(cache.access(a, false).hit) << a;
    EXPECT_EQ(cache.writebacks(), 0u);
}

/**
 * Reference model: a true-LRU write-back cache kept as one recency
 * list per set, most recent first. Nothing about it is shared with
 * Cache -- no epochs, no way indices, no packed masks -- so it pins
 * only the observable behaviour: which accesses hit, which misses
 * write a dirty victim back, and the counts.
 */
class ReferenceCache
{
  public:
    ReferenceCache(int sizeBytes, int assoc, int lineBytes)
        : assoc_(static_cast<std::size_t>(assoc)),
          lineBytes_(static_cast<std::uint64_t>(lineBytes)),
          sets_(static_cast<std::size_t>(sizeBytes / (assoc * lineBytes)))
    {
    }

    CacheAccessResult
    access(std::uint32_t addr, bool write)
    {
        ++accesses;
        const std::uint64_t line = addr / lineBytes_;
        std::vector<Entry> &set = sets_[line % sets_.size()];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i].line == line) {
                Entry hit = set[i];
                hit.dirty = hit.dirty || write;
                set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
                set.insert(set.begin(), hit);
                return {true, false};
            }
        }
        ++misses;
        bool writeback = false;
        if (set.size() == assoc_) {
            writeback = set.back().dirty;
            set.pop_back();
        }
        writebacks += writeback;
        set.insert(set.begin(), Entry{line, write});
        return {false, writeback};
    }

    bool
    probe(std::uint32_t addr) const
    {
        const std::uint64_t line = addr / lineBytes_;
        for (const Entry &e : sets_[line % sets_.size()]) {
            if (e.line == line)
                return true;
        }
        return false;
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Entry
    {
        std::uint64_t line;
        bool dirty;
    };

    std::size_t assoc_;
    std::uint64_t lineBytes_;
    std::vector<std::vector<Entry>> sets_;
};

/** One cache shape: capacity, associativity, line size. */
struct Geometry
{
    int bytes, assoc, lineBytes;
};

/** Every IL1, DL1 and L2 geometry of the design space. */
std::vector<Geometry>
designSpaceGeometries()
{
    const FixedParams &fp = fixedParams();
    std::vector<Geometry> shapes;
    for (const int kb : paramSpec(Param::Il1Size).values)
        shapes.push_back({kb * 1024, fp.il1Assoc, fp.l1LineBytes});
    for (const int kb : paramSpec(Param::Dl1Size).values)
        shapes.push_back({kb * 1024, fp.dl1Assoc, fp.l1LineBytes});
    for (const int kb : paramSpec(Param::L2Size).values)
        shapes.push_back({kb * 1024, fp.l2Assoc, fp.l2LineBytes});
    return shapes;
}

/** A random start for a window of four times @p shape's capacity. */
std::uint64_t
randomWindow(const Geometry &shape, Rng &rng)
{
    return rng.nextBounded((std::uint64_t{1} << 32) -
                           4 * static_cast<std::uint64_t>(shape.bytes));
}

/**
 * Drive @p cache and a fresh reference of @p shape through the same
 * random stream of @p count reads and writes, comparing every access,
 * a probe of another address before each one, and the counts. The
 * addresses fall in the window of four times the capacity at @p base:
 * about half spread over it, half on the lines of four sets (4 x assoc
 * tags each, so those sets fill, evict and write back), and a few
 * anywhere in the 32-bit space.
 */
void
expectMatchesReference(Cache &cache, const Geometry &shape, Rng &rng,
                       std::uint64_t base, int count)
{
    ReferenceCache ref(shape.bytes, shape.assoc, shape.lineBytes);
    const auto bytes = static_cast<std::uint64_t>(shape.bytes);
    const auto way_bytes = bytes / static_cast<std::uint64_t>(shape.assoc);
    const auto line = static_cast<std::uint64_t>(shape.lineBytes);
    auto next = [&] {
        const double roll = rng.nextDouble();
        std::uint64_t addr = 0;
        if (roll < 0.45) {
            addr = base + rng.nextBounded(4 * bytes);
        } else if (roll < 0.95) {
            addr = base +
                   rng.nextBounded(4 * static_cast<std::uint64_t>(
                                           shape.assoc)) * way_bytes +
                   rng.nextBounded(4) * line + rng.nextBounded(line);
        } else {
            addr = rng.next();
        }
        return static_cast<std::uint32_t>(addr);
    };
    for (int i = 0; i < count; ++i) {
        SCOPED_TRACE(::testing::Message() << "access " << i);
        const std::uint32_t probed = next();
        ASSERT_EQ(CacheTestAccess::probe(cache, probed), ref.probe(probed));
        const std::uint32_t addr = next();
        const bool write = rng.nextBool(0.3);
        const CacheAccessResult got = cache.access(addr, write);
        const CacheAccessResult want = ref.access(addr, write);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.writebackDirty, want.writebackDirty);
    }
    EXPECT_EQ(cache.accesses(), ref.accesses);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.writebacks(), ref.writebacks);
}

TEST(CacheOracle, EveryDesignSpaceGeometryMatchesTrueLru)
{
    Rng rng(2024);
    for (const Geometry &shape : designSpaceGeometries()) {
        SCOPED_TRACE(::testing::Message()
                     << shape.bytes << " B, " << shape.assoc << "-way");
        Cache cache(shape.bytes, shape.assoc, shape.lineBytes);
        expectMatchesReference(cache, shape, rng,
                               randomWindow(shape, rng), 20000);
    }
}

TEST(CacheOracle, EveryAssociativityMatchesTrueLru)
{
    // Every associativity the class accepts, 1 to kMaxAssoc ways, in
    // a small and a large shape: the nibble ages of a set must order its
    // ways exactly as a recency list does.
    Rng rng(4242);
    for (int assoc = 1; assoc <= Cache::kMaxAssoc; assoc *= 2) {
        for (const int bytes : {assoc * 4 * 32, 64 * 1024}) {
            const Geometry shape{bytes, assoc, 32};
            SCOPED_TRACE(::testing::Message()
                         << bytes << " B, " << assoc << "-way");
            Cache cache(shape.bytes, shape.assoc, shape.lineBytes);
            expectMatchesReference(cache, shape, rng,
                                   randomWindow(shape, rng), 12000);
        }
    }
}

TEST(CacheOracle, PermutedHitsThenMissesEvictInLruOrder)
{
    // One 8-way set, filled with dirty and clean lines, re-ordered by
    // hits in a fixed permutation, then pushed out by 8 new lines:
    // each miss must take exactly the reference's victim. The cache
    // is re-shaped from 2 ways first, so the 8-way set must start its
    // epoch with 8-way ages, not a stale 2-way word.
    const Geometry shape{4 * 8 * 32, 8, 32}; // 4 sets
    const std::uint32_t way_bytes = 4 * 32;  // same set, next tag
    Cache cache(4 * 2 * 32, 2, 32);
    for (std::uint32_t i = 0; i < 8; ++i)
        cache.access(i * way_bytes, true);
    cache.reconfigure(shape.bytes, shape.assoc, shape.lineBytes);
    ReferenceCache ref(shape.bytes, shape.assoc, shape.lineBytes);

    auto expectSame = [&](std::uint32_t addr, bool write) {
        const CacheAccessResult got = cache.access(addr, write);
        const CacheAccessResult want = ref.access(addr, write);
        EXPECT_EQ(got.hit, want.hit);
        EXPECT_EQ(got.writebackDirty, want.writebackDirty);
    };
    for (std::uint32_t t = 0; t < 8; ++t) {
        SCOPED_TRACE(::testing::Message() << "fill " << t);
        expectSame(t * way_bytes, t % 3 == 0);
    }
    for (const std::uint32_t t : {5u, 2u, 7u, 0u, 3u, 6u, 1u, 4u, 2u, 5u}) {
        SCOPED_TRACE(::testing::Message() << "hit " << t);
        expectSame(t * way_bytes, t == 5);
    }
    for (std::uint32_t t = 8; t < 16; ++t) {
        SCOPED_TRACE(::testing::Message() << "miss " << t);
        expectSame(t * way_bytes, false);
        // Everything not yet evicted is still present.
        for (std::uint32_t old = 0; old < t; ++old) {
            EXPECT_EQ(CacheTestAccess::probe(cache, old * way_bytes),
                      ref.probe(old * way_bytes))
                << old;
        }
    }
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.writebacks(), ref.writebacks);
    EXPECT_EQ(cache.writebacks(), 4u); // tags 0, 3 and 6, then 5 by a hit
}

TEST(CacheOracle, ReconfigureWalkAndResetMatchTrueLru)
{
    // One recycled cache re-shaped large -> small -> large, across
    // associativities (which move every set's header), and reset()
    // between two streams over the same addresses on each shape: each
    // must behave as a fresh cache would.
    const std::vector<Geometry> walk = {
        {4096 * 1024, 8, 64}, {8 * 1024, 2, 32},   {128 * 1024, 4, 32},
        {256 * 1024, 8, 64},  {4096 * 1024, 8, 64}, {16 * 1024, 4, 32},
        {8 * 1024, 2, 32},    {2048 * 1024, 8, 64}, {128 * 1024, 2, 32},
    };
    Rng rng(99);
    Cache cache(walk[0].bytes, walk[0].assoc, walk[0].lineBytes);
    for (std::size_t step = 0; step < walk.size(); ++step) {
        const Geometry &shape = walk[step];
        SCOPED_TRACE(::testing::Message() << "step " << step);
        cache.reconfigure(shape.bytes, shape.assoc, shape.lineBytes);
        const std::uint64_t base = randomWindow(shape, rng);
        expectMatchesReference(cache, shape, rng, base, 12000);
        cache.reset();
        expectMatchesReference(cache, shape, rng, base, 4000);
    }
}

TEST(Cache, NewAssociativityForgetsEveryLine)
{
    // A 1-way set is 3 words (header, ages, tag), a 2-way set 4. Lay
    // out old words so that, were they kept, 2-way set 1 would read as
    // current and valid: its header falls on 1-way set 1's age word
    // (0x77777770: epoch 0x7770, the epoch after the re-shape, and
    // ways 0-2 valid), its first tag on 1-way set 2's header (epoch
    // 0x776f, way 0 valid).
    Cache cache(128, 1, 32); // 4 sets
    CacheTestAccess::setEpoch(cache, 0x776f);
    cache.access((9 * 4 + 1) * 32, false); // set 1
    cache.access((0 * 4 + 2) * 32, false); // set 2: header 0x1776f
    cache.reconfigure(256, 2, 32);         // 4 sets again, epoch 0x7770
    const std::uint32_t decoy = (0x1776f * 4 + 1) * 32; // set 1
    EXPECT_FALSE(CacheTestAccess::probe(cache, decoy));
    EXPECT_FALSE(cache.access(decoy, false).hit);
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

TEST(CacheDeathTest, RejectsMoreWaysThanOneAgeWordHolds)
{
    EXPECT_DEATH(Cache(16 * 1024, 16, 32), "associativity above");
}

} // namespace
} // namespace acdse
