#include "serve/model_table.hh"

#include <utility>

#include "arch/microarch_config.hh"
#include "base/check.hh"

namespace acdse
{

void
checkServableArtifact(const ModelArtifact &artifact)
{
    ACDSE_CHECK(!artifact.empty(),
                "cannot serve an artifact with no predictors");
    for (const auto &entry : artifact.entries()) {
        ACDSE_CHECK(entry.predictor.ready(),
                    "artifact predictor for ",
                    metricName(entry.metric),
                    " has no fitted responses");
        // Validate width once at publish time so the per-point
        // predict path can run on DCHECKs alone.
        ACDSE_CHECK(entry.predictor.featureDim() == kNumParams,
                    "artifact predictor for ",
                    metricName(entry.metric), " expects ",
                    entry.predictor.featureDim(),
                    " features, queries carry ", kNumParams);
    }
}

ModelRegistry::ModelRegistry()
    : table_(std::make_shared<const ModelTable>())
{
}

TenantId
ModelRegistry::registerTenant(const std::string &name)
{
    ACDSE_CHECK(!name.empty(), "tenant name must be non-empty");
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<TenantId>(i);
    }
    names_.push_back(name);
    // Grow the published table to cover the new tenant slot so
    // readers can index it without bounds anxiety. Copy-on-write:
    // the old snapshot stays frozen for its in-flight holders.
    auto next = std::make_shared<ModelTable>(*table_);
    next->models_.resize(names_.size());
    table_ = std::move(next);
    const auto id = static_cast<TenantId>(names_.size() - 1);
    tenantCount_.store(id + 1, std::memory_order_release);
    return id;
}

TenantId
ModelRegistry::findTenant(const std::string &name) const
{
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<TenantId>(i);
    }
    return kInvalidTenant;
}

std::vector<std::string>
ModelRegistry::tenantNames() const
{
    MutexLock lock(mutex_);
    return names_;
}

std::uint64_t
ModelRegistry::publish(TenantId tenant, ModelArtifact artifact)
{
    checkServableArtifact(artifact);
    // Declared before the lock, so a superseded table that nothing
    // else pins is destroyed after the unlock, not while table()
    // callers wait.
    std::shared_ptr<const ModelTable> superseded;
    MutexLock lock(mutex_);
    ACDSE_CHECK(tenant < names_.size(), "tenant ", tenant,
                " is not registered");
    // Build the successor table off to the side; nothing the readers
    // can observe mutates until the single publishing assignment.
    auto model = std::make_shared<ServedModel>();
    const std::uint64_t version =
        version_.fetch_add(1, std::memory_order_relaxed) + 1;
    model->version = version;
    model->tenant = tenant;
    model->artifact = std::move(artifact);

    auto next = std::make_shared<ModelTable>(*table_);
    next->models_.resize(names_.size());
    next->models_[tenant] = std::move(model);
    superseded = std::exchange(table_, std::move(next));
    return version;
}

} // namespace acdse
