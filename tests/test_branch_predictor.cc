/**
 * @file
 * Unit tests for the gshare direction predictor and BTB.
 */

#include <gtest/gtest.h>

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
