/**
 * @file
 * Versioned, multi-tenant model publication with epoch-based (RCU
 * style) reclamation: the runtime half of the model store.
 *
 * A serving process maps many tenants (programs, users, experiment
 * arms) onto trained artifacts, and operators replace those artifacts
 * while traffic is in flight. The requirements are exactly RCU's:
 *
 *  - Readers (the request path) must never wait for a swap or fail
 *    during one: they copy one shared_ptr to pin a consistent
 *    snapshot and serve the whole batch from it.
 *  - Writers (publish) build a *new* immutable ModelTable off to the
 *    side, stamp it with the next version, and publish it with one
 *    pointer assignment. Nothing in the old table is mutated, ever.
 *  - Retirement is the shared_ptr epoch: a superseded ServedModel
 *    stays alive exactly as long as some in-flight batch still holds
 *    its snapshot, and is destroyed when the last such batch drops it
 *    -- no grace-period bookkeeping, no failed requests across a
 *    swap. (DESIGN.md, "Epoch-based reclamation vs lock discipline".)
 *
 * Versions are registry-global and strictly monotonic: every publish
 * -- any tenant -- gets the next version number, so a response
 * stamped with its serving version totally orders swaps, and a churn
 * test can assert that the versions one producer observes never go
 * backwards.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/sync.hh"
#include "serve/model_store.hh"

namespace acdse
{

/** Dense tenant handle; allocated by ModelRegistry::registerTenant. */
using TenantId = std::uint32_t;

/** Every service has at least this tenant (the constructor artifact). */
inline constexpr TenantId kDefaultTenant = 0;

/** One published, immutable serving artifact. */
struct ServedModel
{
    std::uint64_t version = 0; //!< registry-global publish ordinal
    TenantId tenant = 0;       //!< the tenant it was published for
    ModelArtifact artifact;    //!< the trained predictors
};

/**
 * An immutable tenant -> model mapping. One shared_ptr<const
 * ModelTable> is the unit of publication: readers that loaded it see
 * a frozen world regardless of concurrent publishes.
 */
class ModelTable
{
  public:
    /**
     * The model serving @p tenant, or nullptr when the tenant is
     * unknown to this snapshot or has no published artifact yet.
     */
    const ServedModel *modelFor(TenantId tenant) const
    {
        return tenant < models_.size() ? models_[tenant].get()
                                       : nullptr;
    }

    /** Shared ownership of @p tenant's model (see modelFor). */
    std::shared_ptr<const ServedModel> modelPtr(TenantId tenant) const
    {
        return tenant < models_.size()
                   ? models_[tenant]
                   : std::shared_ptr<const ServedModel>();
    }

    /** Number of tenant slots in this snapshot. */
    std::size_t tenantCount() const { return models_.size(); }

  private:
    friend class ModelRegistry;
    std::vector<std::shared_ptr<const ServedModel>> models_;
};

/**
 * The mutable publisher: registers tenants, validates artifacts and
 * atomically publishes new ModelTable snapshots.
 *
 * Thread model: every member is safe from any thread. table() holds
 * an internal mutex only to copy the snapshot pointer; in-flight
 * snapshots pin their epoch. registerTenant() and publish() build the
 * successor table under the same mutex -- copying the tenant vector
 * of shared_ptrs is the writer's cost. tenantCount() takes no lock,
 * so the request path can check a tenant id without one.
 */
class ModelRegistry
{
  public:
    ModelRegistry();

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Register a tenant and return its dense id. Re-registering an
     * existing name returns the original id. Panics on an empty name.
     */
    TenantId registerTenant(const std::string &name)
        ACDSE_EXCLUDES(mutex_);

    /** The id for @p name, or kInvalidTenant when unregistered. */
    static constexpr TenantId kInvalidTenant =
        ~static_cast<TenantId>(0);
    TenantId findTenant(const std::string &name) const
        ACDSE_EXCLUDES(mutex_);

    /** Registered tenant names, indexed by TenantId. */
    std::vector<std::string> tenantNames() const
        ACDSE_EXCLUDES(mutex_);

    /**
     * Validate @p artifact (non-empty, every predictor fitted and of
     * design-space width) and publish it as @p tenant's new model.
     * Returns the new registry-global version. In-flight readers keep
     * serving the snapshot they pinned; new table() loads see the new
     * model. Panics on an unregistered tenant or invalid artifact.
     */
    std::uint64_t publish(TenantId tenant, ModelArtifact artifact)
        ACDSE_EXCLUDES(mutex_);

    /** The current snapshot (never null; may be empty of models). */
    std::shared_ptr<const ModelTable> table() const ACDSE_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return table_;
    }

    /**
     * Number of registered tenants. Tenants are never removed, and a
     * table() taken after a count is read covers at least that many.
     */
    TenantId tenantCount() const
    {
        return tenantCount_.load(std::memory_order_acquire);
    }

    /** The most recently assigned version (0 before any publish). */
    std::uint64_t currentVersion() const
    {
        return version_.load(std::memory_order_relaxed);
    }

  private:
    mutable Mutex mutex_;
    std::vector<std::string> names_ ACDSE_GUARDED_BY(mutex_);

    /** names_.size(), stored after the table that covers it. */
    std::atomic<TenantId> tenantCount_{0};

    /** Monotonic publish ordinal (read lock-free, bumped in publish). */
    std::atomic<std::uint64_t> version_{0};

    /**
     * The published snapshot. A plain shared_ptr under mutex_, not a
     * std::atomic<std::shared_ptr>: libstdc++ 12's load() drops its
     * lock bit with a relaxed store, so the next store()'s pointer
     * write is not ordered after a reader's pointer read.
     */
    std::shared_ptr<const ModelTable> table_ ACDSE_GUARDED_BY(mutex_);
};

/**
 * Panics unless @p artifact can serve design-space queries: at least
 * one metric, every predictor response-fitted and expecting
 * kNumParams features. Shared by ModelRegistry::publish and the
 * prediction service constructor.
 */
void checkServableArtifact(const ModelArtifact &artifact);

} // namespace acdse
