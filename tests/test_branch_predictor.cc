/**
 * @file
 * Unit tests for the gshare direction predictor and BTB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "base/rng.hh"
#include "sim/branch_predictor.hh"

namespace acdse
{
namespace
{

TEST(Gshare, LearnsAlwaysTakenBranch)
{
    GsharePredictor bp(1024);
    const std::uint64_t pc = 0x400100;
    for (int i = 0; i < 50; ++i)
        bp.update(pc, true);
    // After training, prediction must be taken (whatever the history,
    // the counters it trained are saturated).
    int correct = 0;
    for (int i = 0; i < 20; ++i) {
        correct += bp.predict(pc);
        bp.update(pc, true);
    }
    EXPECT_GE(correct, 18);
}

TEST(Gshare, LearnsAlternatingPatternViaHistory)
{
    GsharePredictor bp(4096);
    const std::uint64_t pc = 0x400200;
    // Warm up on a strict alternation; the global history
    // disambiguates the two contexts.
    bool taken = false;
    for (int i = 0; i < 200; ++i) {
        bp.update(pc, taken);
        taken = !taken;
    }
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        correct += bp.predict(pc) == taken;
        bp.update(pc, taken);
        taken = !taken;
    }
    EXPECT_GE(correct, 95);
}

TEST(Gshare, CountsMispredicts)
{
    GsharePredictor bp(1024);
    const std::uint64_t pc = 0x400300;
    for (int i = 0; i < 10; ++i)
        bp.update(pc, true);
    const std::uint64_t before = bp.mispredicts();
    bp.update(pc, false); // trained taken -> this one is wrong
    EXPECT_EQ(bp.mispredicts(), before + 1);
}

TEST(Gshare, RandomBranchNearHalfAccuracy)
{
    GsharePredictor bp(4096);
    Rng rng(9);
    const std::uint64_t pc = 0x400400;
    int correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBool(0.5);
        correct += bp.predict(pc) == taken;
        bp.update(pc, taken);
    }
    EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.08);
}

TEST(Gshare, BiggerTableNoWorseUnderAliasingPressure)
{
    // Thousands of independently-biased branches: a small table aliases
    // destructively, a large one does not.
    auto run = [](int entries) {
        GsharePredictor bp(entries);
        Rng rng(31);
        std::vector<std::uint64_t> pcs(4000);
        std::vector<bool> bias(4000);
        for (int i = 0; i < 4000; ++i) {
            pcs[i] = 0x400000 + 4ULL * static_cast<std::uint64_t>(i);
            bias[i] = rng.nextBool(0.5);
        }
        std::uint64_t wrong = 0;
        for (int round = 0; round < 12; ++round) {
            for (int i = 0; i < 4000; ++i) {
                const bool taken = bias[i];
                wrong += bp.predict(pcs[i]) != taken;
                bp.update(pcs[i], taken);
            }
        }
        return wrong;
    };
    const std::uint64_t small = run(1024);
    const std::uint64_t large = run(32768);
    EXPECT_LT(large, small);
}

/**
 * Reference gshare: one unpacked byte per 2-bit counter, the same
 * index and history rules. Nothing about GsharePredictor's packing is
 * shared with it.
 */
struct ReferenceGshare
{
    explicit ReferenceGshare(int entries)
        : counters(static_cast<std::size_t>(entries), 1),
          mask(static_cast<std::uint32_t>(entries) - 1),
          historyBits(std::min(
              6, std::countr_zero(static_cast<unsigned>(entries))))
    {
    }

    std::uint32_t
    index(std::uint32_t pc) const
    {
        return ((pc >> 2) ^ history) & mask;
    }

    bool predict(std::uint32_t pc) const { return counters[index(pc)] >= 2; }

    void
    update(std::uint32_t pc, bool taken)
    {
        std::uint8_t &counter = counters[index(pc)];
        mispredicts += (counter >= 2) != taken;
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        history = ((history << 1) | (taken ? 1u : 0u)) &
                  ((1u << historyBits) - 1);
    }

    std::vector<std::uint8_t> counters;
    std::uint32_t mask;
    int historyBits;
    std::uint32_t history = 0;
    std::uint64_t mispredicts = 0;
};

TEST(BranchPredictor, PackedCountersMatchReference)
{
    // Every design-space size (1K-32K entries) fresh, then one
    // recycled predictor walked through shrinks and grows: each must
    // predict exactly as the unpacked reference does, branch by
    // branch. The branches' PCs span the largest table several times
    // over, so every counter lane of every byte is trained.
    Rng rng(2025);
    std::vector<std::uint32_t> pcs(6000);
    std::vector<double> bias(pcs.size());
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        pcs[i] = 0x400000u +
                 4u * static_cast<std::uint32_t>(rng.nextBounded(1 << 17));
        bias[i] = rng.nextDouble(0.0, 1.0);
    }
    auto expectSame = [&](GsharePredictor &bp, int entries) {
        SCOPED_TRACE(::testing::Message() << entries << " entries");
        ReferenceGshare ref(entries);
        for (int n = 0; n < 20000; ++n) {
            const std::size_t b = rng.nextBounded(pcs.size());
            const bool taken = rng.nextBool(bias[b]);
            ASSERT_EQ(bp.predict(pcs[b]), ref.predict(pcs[b])) << n;
            bp.update(pcs[b], taken);
            ref.update(pcs[b], taken);
            ASSERT_EQ(bp.mispredicts(), ref.mispredicts) << n;
        }
        EXPECT_EQ(bp.lookups(), 20000u);
    };
    for (int k = 1; k <= 32; k *= 2) {
        GsharePredictor bp(k * 1024);
        expectSame(bp, k * 1024);
        EXPECT_EQ(bp.storageBytes(), static_cast<std::size_t>(k) * 256);
    }
    GsharePredictor recycled(32 * 1024);
    for (const int k : {32, 1, 16, 2, 32, 4, 8, 1}) {
        recycled.reconfigure(k * 1024);
        expectSame(recycled, k * 1024);
    }
    EXPECT_EQ(recycled.storageBytes(), 8u * 1024); // capacity is kept
}

TEST(Btb, MissThenHit)
{
    Btb btb(1024);
    EXPECT_FALSE(btb.lookup(0x400500));
    btb.update(0x400500);
    EXPECT_TRUE(btb.lookup(0x400500));
}

TEST(Btb, TagDistinguishesAliases)
{
    Btb btb(16); // tiny: many PCs share a slot
    btb.update(0x400000);
    EXPECT_TRUE(btb.lookup(0x400000));
    // Same index (pc>>2 mod 16), different tag.
    EXPECT_FALSE(btb.lookup(0x400000 + 16 * 4));
    btb.update(0x400000 + 16 * 4);
    EXPECT_TRUE(btb.lookup(0x400000 + 16 * 4));
    EXPECT_FALSE(btb.lookup(0x400000)); // evicted
}

TEST(Btb, CountsLookupsAndMisses)
{
    Btb btb(64);
    btb.lookup(0x1000);
    btb.lookup(0x1000);
    EXPECT_EQ(btb.lookups(), 2u);
    EXPECT_EQ(btb.misses(), 2u);
    btb.update(0x1000);
    btb.lookup(0x1000);
    EXPECT_EQ(btb.misses(), 2u);
}

TEST(GshareDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_DEATH(GsharePredictor(1000), "power of two");
    EXPECT_DEATH(Btb(100), "power of two");
}

} // namespace
} // namespace acdse
