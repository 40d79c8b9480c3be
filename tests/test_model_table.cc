/**
 * @file
 * Unit tests for the versioned model registry (serve/model_table.hh):
 * snapshot isolation under publish, registry-global version
 * monotonicity, tenant registration semantics and epoch-based
 * (shared_ptr) retirement of superseded models.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "serve/model_table.hh"

namespace acdse
{
namespace
{

ArchitectureCentricPredictor
fittedPredictor(double scale)
{
    const auto train = DesignSpace::sampleValidConfigs(48, 11);
    std::vector<ProgramTrainingSet> sets(2);
    for (int j = 0; j < 2; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train;
        for (const auto &c : train)
            sets[j].values.push_back(scale *
                                     (1000.0 + 10.0 * c.width()));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    const auto rc = DesignSpace::sampleValidConfigs(12, 12);
    std::vector<double> responses;
    for (const auto &c : rc)
        responses.push_back(scale * (1000.0 + 10.0 * c.width()));
    predictor.fitResponses(rc, responses);
    return predictor;
}

ModelArtifact
taggedArtifact(const std::string &tag, double scale = 1.0)
{
    ModelArtifact artifact;
    artifact.setTag(tag);
    artifact.add(Metric::Cycles, fittedPredictor(scale));
    return artifact;
}

TEST(ModelTable, StartsEmptyWithNoTenants)
{
    ModelRegistry registry;
    const auto table = registry.table();
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->tenantCount(), 0u);
    EXPECT_EQ(registry.tenantCount(), 0u);
    EXPECT_EQ(table->modelFor(0), nullptr);
    EXPECT_EQ(registry.currentVersion(), 0u);
}

TEST(ModelTable, RegisterTenantIsIdempotentByName)
{
    ModelRegistry registry;
    const TenantId a = registry.registerTenant("alpha");
    const TenantId b = registry.registerTenant("beta");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(registry.registerTenant("alpha"), a);
    EXPECT_EQ(registry.findTenant("beta"), b);
    EXPECT_EQ(registry.findTenant("gamma"),
              ModelRegistry::kInvalidTenant);
    const std::vector<std::string> names = registry.tenantNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "beta");
    // Registration alone grows the table; no model yet.
    EXPECT_EQ(registry.table()->tenantCount(), 2u);
    EXPECT_EQ(registry.tenantCount(), 2u);
    EXPECT_EQ(registry.table()->modelFor(b), nullptr);
}

TEST(ModelTable, VersionsAreRegistryGlobalAndMonotonic)
{
    ModelRegistry registry;
    const TenantId a = registry.registerTenant("alpha");
    const TenantId b = registry.registerTenant("beta");
    EXPECT_EQ(registry.publish(a, taggedArtifact("a1")), 1u);
    EXPECT_EQ(registry.publish(b, taggedArtifact("b1")), 2u);
    EXPECT_EQ(registry.publish(a, taggedArtifact("a2")), 3u);
    EXPECT_EQ(registry.currentVersion(), 3u);

    const auto table = registry.table();
    ASSERT_NE(table->modelFor(a), nullptr);
    EXPECT_EQ(table->modelFor(a)->version, 3u);
    EXPECT_EQ(table->modelFor(a)->artifact.tag(), "a2");
    EXPECT_EQ(table->modelFor(b)->version, 2u);
    EXPECT_EQ(table->modelFor(b)->artifact.tag(), "b1");
}

TEST(ModelTable, SnapshotsAreIsolatedFromLaterPublishes)
{
    ModelRegistry registry;
    const TenantId tenant = registry.registerTenant("alpha");
    registry.publish(tenant, taggedArtifact("v1"));

    // Pin a snapshot, then swap the model twice behind it.
    const auto pinned = registry.table();
    registry.publish(tenant, taggedArtifact("v2"));
    registry.publish(tenant, taggedArtifact("v3"));

    // The pinned snapshot still serves v1, bit for bit.
    ASSERT_NE(pinned->modelFor(tenant), nullptr);
    EXPECT_EQ(pinned->modelFor(tenant)->artifact.tag(), "v1");
    EXPECT_EQ(pinned->modelFor(tenant)->version, 1u);
    // A fresh load sees the newest.
    EXPECT_EQ(registry.table()->modelFor(tenant)->artifact.tag(),
              "v3");
}

TEST(ModelTable, SupersededModelsRetireWhenLastPinDrops)
{
    ModelRegistry registry;
    const TenantId tenant = registry.registerTenant("alpha");
    registry.publish(tenant, taggedArtifact("old"));

    // Hold the old model the way an in-flight batch does, and watch
    // its lifetime through a weak_ptr.
    std::shared_ptr<const ServedModel> pinnedModel =
        registry.table()->modelPtr(tenant);
    std::weak_ptr<const ServedModel> watch = pinnedModel;

    registry.publish(tenant, taggedArtifact("new"));
    // Superseded but pinned: still alive.
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(pinnedModel->artifact.tag(), "old");

    // The epoch ends when the pin drops; the old model is reclaimed.
    pinnedModel.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(registry.table()->modelPtr(tenant)->artifact.tag(),
              "new");
}

TEST(ModelTableDeathTest, RejectsBadPublishes)
{
    ModelRegistry registry;
    registry.registerTenant("alpha");
    EXPECT_DEATH(registry.publish(7, taggedArtifact("x")),
                 "tenant");
    EXPECT_DEATH(registry.publish(0, ModelArtifact()),
                 "predictor");
}

TEST(ModelTableDeathTest, RejectsEmptyTenantName)
{
    ModelRegistry registry;
    EXPECT_DEATH(registry.registerTenant(""), "name");
}

} // namespace
} // namespace acdse
