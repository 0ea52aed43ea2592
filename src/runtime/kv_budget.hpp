#ifndef DISTMCU_RUNTIME_KV_BUDGET_HPP
#define DISTMCU_RUNTIME_KV_BUDGET_HPP

#include <memory>
#include <vector>

namespace distmcu::runtime {

/// Deployed-model index within one multi-model serving engine (order of
/// ModelRegistry::add).
using ModelId = int;

/// Partitioning policy for the shared KV arena of a multi-model serving
/// engine — the MCUBERT-style shared-pool discipline made pluggable. The
/// engine owns the budget units — the pages of a tenant-tagged
/// mem::PagedKvArena; by default a page spans the whole context, so one
/// page holds one request — and asks the policy, at every grant, whether
/// a given model may take ONE more page given everybody's occupancy and
/// queued demand.
/// Policies are stateless rankers, so one instance can be shared across
/// engines and replay is deterministic by construction.
///
/// The engine independently enforces the hard invariants — a grant never
/// exceeds the global free-page count or the tenant's `cap` — so a
/// policy only shapes *partitioning*, never correctness.
class KvBudgetPolicy {
 public:
  /// Snapshot of one tenant (deployed model) at the admission point.
  struct TenantView {
    ModelId model = 0;
    int in_use = 0;   ///< pages the model currently holds
    int pending = 0;  ///< its queued (not yet admitted) requests
    int quota = 0;    ///< static-split reserve, in pages (>= 1)
    int cap = 0;      ///< hard ceiling on concurrently held pages
  };

  virtual ~KvBudgetPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Whether the policy can ever grant a tenant more pages than its
  /// static quota. The engine uses this to derive each tenant's default
  /// cap (and so its L2 fit check): quota-bound
  /// policies pin the cap to the quota, even under a higher explicit
  /// max_resident; borrowing policies to the whole arena.
  [[nodiscard]] virtual bool allows_borrowing() const { return true; }

  /// May `tenant` take one more page right now? `tenants` is indexed by
  /// ModelId; `total_pages` is the shared arena's size and `free_pages`
  /// counts its unheld pages (>= 1 whenever the engine asks).
  [[nodiscard]] virtual bool may_acquire(ModelId tenant,
                                         const std::vector<TenantView>& tenants,
                                         int total_pages,
                                         int free_pages) const = 0;
};

/// Hard static partition: every model owns exactly its quota, idle or
/// not. Pages of one model are never handed to another — the
/// zero-leakage baseline (and the single-model engine's behavior, where
/// the sole tenant's quota is the whole arena).
class StaticSplitPolicy final : public KvBudgetPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "static_split"; }
  [[nodiscard]] bool allows_borrowing() const override { return false; }
  [[nodiscard]] bool may_acquire(ModelId tenant,
                                 const std::vector<TenantView>& tenants,
                                 int total_pages,
                                 int free_pages) const override;
};

/// Demand-proportional shares: each admission point recomputes every
/// model's allowance as ceil(total * demand_m / total_demand) with
/// demand = in_use + pending, floored at one page so a model with any
/// demand always makes progress. A model whose workload drains returns
/// its share to the others automatically at the next admission point.
class ProportionalSharePolicy final : public KvBudgetPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "proportional"; }
  [[nodiscard]] bool may_acquire(ModelId tenant,
                                 const std::vector<TenantView>& tenants,
                                 int total_pages,
                                 int free_pages) const override;
};

/// Reserved quotas with watermark-gated borrowing: under its quota a
/// model is always granted; beyond it, the grant is a *borrow* allowed
/// only while the arena keeps enough free pages to cover (a) the unmet
/// reserves of every other model that has queued demand and (b) a
/// configurable extra headroom. Borrowed pages return to the pool at
/// request completion, so a burst tenant can soak up idle capacity
/// without ever starving another tenant's guaranteed share.
class WatermarkBorrowPolicy final : public KvBudgetPolicy {
 public:
  struct Options {
    /// Free pages that must remain after a borrow is granted, on top of
    /// the unmet reserves of demanding tenants. 0 lends every idle page.
    int headroom = 0;
  };

  WatermarkBorrowPolicy() : opts_{} {}
  explicit WatermarkBorrowPolicy(Options opts) : opts_(opts) {}

  [[nodiscard]] const char* name() const override { return "watermark"; }
  [[nodiscard]] bool may_acquire(ModelId tenant,
                                 const std::vector<TenantView>& tenants,
                                 int total_pages,
                                 int free_pages) const override;
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  Options opts_;
};

/// Built-in policy set, for benches and CLI surfaces.
enum class KvBudget { static_split, proportional, watermark };

[[nodiscard]] const char* kv_budget_name(KvBudget policy);
[[nodiscard]] std::shared_ptr<const KvBudgetPolicy> make_kv_budget(
    KvBudget policy);

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_KV_BUDGET_HPP
