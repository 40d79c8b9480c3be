/**
 * @file
 * Unit tests for average-linkage hierarchical clustering (Fig. 5).
 */

#include <gtest/gtest.h>

#include <set>

#include "ml/hierarchical.hh"

namespace acdse
{
namespace
{

/** Distance matrix with two tight pairs and one far outlier. */
std::vector<std::vector<double>>
pairsAndOutlier()
{
    //       a    b    c    d    e(outlier)
    return {{0, 1, 8, 9, 50},
            {1, 0, 9, 8, 50},
            {8, 9, 0, 2, 50},
            {9, 8, 2, 0, 50},
            {50, 50, 50, 50, 0}};
}

TEST(Hierarchical, MergesClosestFirst)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    ASSERT_EQ(tree.merges.size(), 4u);
    // First merge: a-b at distance 1; second: c-d at 2.
    EXPECT_DOUBLE_EQ(tree.merges[0].height, 1.0);
    EXPECT_DOUBLE_EQ(tree.merges[1].height, 2.0);
    // Heights are non-decreasing for average linkage on a metric.
    for (std::size_t i = 1; i < tree.merges.size(); ++i)
        EXPECT_GE(tree.merges[i].height, tree.merges[i - 1].height);
}

TEST(Hierarchical, OutlierJoinsLast)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    const auto &last = tree.merges.back();
    // The last merge must involve leaf 4 (the outlier).
    EXPECT_TRUE(last.left == 4 || last.right == 4);
    EXPECT_DOUBLE_EQ(last.height, 50.0);
}

TEST(Hierarchical, IsolationHeightFlagsOutliers)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    EXPECT_DOUBLE_EQ(tree.isolationHeight(4), 50.0);
    EXPECT_DOUBLE_EQ(tree.isolationHeight(0), 1.0);
    EXPECT_DOUBLE_EQ(tree.isolationHeight(2), 2.0);
}

TEST(Hierarchical, CutIntoTwoSeparatesOutlier)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    const auto ids = tree.cut(2);
    EXPECT_EQ(ids[0], ids[1]);
    EXPECT_EQ(ids[0], ids[2]);
    EXPECT_EQ(ids[0], ids[3]);
    EXPECT_NE(ids[0], ids[4]);
}

TEST(Hierarchical, CutIntoThreeSeparatesPairs)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    const auto ids = tree.cut(3);
    EXPECT_EQ(ids[0], ids[1]);
    EXPECT_EQ(ids[2], ids[3]);
    EXPECT_NE(ids[0], ids[2]);
    EXPECT_NE(ids[0], ids[4]);
    EXPECT_NE(ids[2], ids[4]);
}

TEST(Hierarchical, CutIntoNIsIdentity)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    const auto ids = tree.cut(5);
    std::set<std::size_t> distinct(ids.begin(), ids.end());
    EXPECT_EQ(distinct.size(), 5u);
}

TEST(Hierarchical, RenderContainsAllNames)
{
    const Dendrogram tree = hierarchicalCluster(pairsAndOutlier());
    const std::string out =
        tree.render({"alpha", "beta", "gamma", "delta", "omega"});
    for (const char *name :
         {"alpha", "beta", "gamma", "delta", "omega"}) {
        EXPECT_NE(out.find(name), std::string::npos) << name;
    }
}

TEST(Hierarchical, SingleLeaf)
{
    const Dendrogram tree = hierarchicalCluster({{0.0}});
    EXPECT_EQ(tree.leaves, 1u);
    EXPECT_TRUE(tree.merges.empty());
    EXPECT_EQ(tree.render({"solo"}), "- solo\n");
}

TEST(Hierarchical, AverageLinkageValue)
{
    // Three points: a-b at 2; c at 4 from a and 6 from b. After a-b
    // merge, d({a,b}, c) = (4+6)/2 = 5.
    const std::vector<std::vector<double>> dist{
        {0, 2, 4}, {2, 0, 6}, {4, 6, 0}};
    const Dendrogram tree = hierarchicalCluster(dist);
    ASSERT_EQ(tree.merges.size(), 2u);
    EXPECT_DOUBLE_EQ(tree.merges[0].height, 2.0);
    EXPECT_DOUBLE_EQ(tree.merges[1].height, 5.0);
}

} // namespace
} // namespace acdse
