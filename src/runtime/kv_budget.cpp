#include "runtime/kv_budget.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::runtime {

namespace {

const KvBudgetPolicy::TenantView& view_of(
    ModelId tenant, const std::vector<KvBudgetPolicy::TenantView>& tenants) {
  DISTMCU_CHECK(tenant >= 0 && tenant < static_cast<int>(tenants.size()),
              "KvBudgetPolicy: tenant out of range");
  return tenants[static_cast<std::size_t>(tenant)];
}

/// Pages other demanding tenants are still owed out of their reserves —
/// capacity a borrow must never eat into.
int unmet_reserves_of_others(
    ModelId tenant, const std::vector<KvBudgetPolicy::TenantView>& tenants) {
  int unmet = 0;
  for (const auto& t : tenants) {
    if (t.model == tenant || t.pending == 0) continue;
    unmet += std::max(0, t.quota - t.in_use);
  }
  return unmet;
}

}  // namespace

bool StaticSplitPolicy::may_acquire(
    ModelId tenant, const std::vector<TenantView>& tenants, int /*total_pages*/,
    int /*free_pages*/) const {
  const TenantView& t = view_of(tenant, tenants);
  return t.in_use < t.quota;
}

bool ProportionalSharePolicy::may_acquire(
    ModelId tenant, const std::vector<TenantView>& tenants, int total_pages,
    int /*free_pages*/) const {
  const TenantView& t = view_of(tenant, tenants);
  long long total_demand = 0;
  for (const auto& v : tenants) total_demand += v.in_use + v.pending;
  if (total_demand <= 0) return false;  // nothing queued anywhere
  const long long demand = t.in_use + t.pending;
  if (demand <= 0) return false;
  // ceil(total * demand / total_demand), floored at one page so any
  // demanding tenant makes progress even when dwarfed by the others.
  const long long allowance = std::max<long long>(
      1, (static_cast<long long>(total_pages) * demand + total_demand - 1) /
             total_demand);
  return t.in_use < allowance;
}

bool WatermarkBorrowPolicy::may_acquire(
    ModelId tenant, const std::vector<TenantView>& tenants, int /*total_pages*/,
    int free_pages) const {
  const TenantView& t = view_of(tenant, tenants);
  if (t.in_use < t.quota) return true;  // guaranteed reserve
  // Borrow: grant only while the remaining free pages still cover every
  // other demanding tenant's unmet reserve plus the configured headroom.
  return free_pages - 1 >= unmet_reserves_of_others(tenant, tenants) +
                               opts_.headroom;
}

const char* kv_budget_name(KvBudget policy) {
  switch (policy) {
    case KvBudget::static_split: return "static_split";
    case KvBudget::proportional: return "proportional";
    case KvBudget::watermark: return "watermark";
  }
  return "?";
}

std::shared_ptr<const KvBudgetPolicy> make_kv_budget(KvBudget policy) {
  switch (policy) {
    case KvBudget::static_split:
      return std::make_shared<StaticSplitPolicy>();
    case KvBudget::proportional:
      return std::make_shared<ProportionalSharePolicy>();
    case KvBudget::watermark:
      return std::make_shared<WatermarkBorrowPolicy>();
  }
  throw Error("make_kv_budget: unknown policy");
}

}  // namespace distmcu::runtime
