#ifndef DISTMCU_MEM_PAGED_ARENA_HPP
#define DISTMCU_MEM_PAGED_ARENA_HPP

#include <optional>
#include <string>
#include <vector>

#include "mem/arena.hpp"
#include "util/units.hpp"

namespace distmcu::mem {

/// Fixed-count, fixed-size *page* pool carved out of an Arena — the one
/// KV budget unit of the serving engine (the vLLM layout, adapted to a
/// fixed L2 budget): a request maps logical KV blocks to physical pages
/// through a per-request page table, acquires only the pages its current
/// length needs, and grows page-by-page at decode time. A page that
/// spans the whole context is a whole-request slot.
///
/// Every acquisition names the tenant (model) the page is charged to,
/// releases are owner-checked — a page charged to one tenant can never
/// be silently returned by (or migrated to) another — and per-tenant
/// occupancy/high-water/reclaim counters are maintained. A per-page
/// *refcount* serves copy-on-write prefix sharing: a read-only prefix
/// page can back several requests at once (`add_ref`), is physically
/// counted once toward its owning tenant, and returns to the pool only
/// when the last reference is released. Acquisition is lowest-free-
/// index, so page assignment is deterministic.
///
/// The arena reserves the whole pool up front, so the fit accounting
/// stays a single high-water number.
class PagedKvArena {
 public:
  /// Reserves `n_pages * page_bytes` from `arena` immediately (throws
  /// PlanError via the arena when the pool does not fit).
  PagedKvArena(Arena& arena, const std::string& name, int n_pages,
               Bytes page_bytes);

  /// Lowest free page index charged to `tenant` with refcount 1, or
  /// nullopt when the pool is exhausted — callers reject, queue, or
  /// evict, never overrun.
  [[nodiscard]] std::optional<int> acquire(int tenant = 0);

  /// Take an additional reference on an in-use page (prefix sharing).
  /// The page stays charged to its original owner and is not counted
  /// again toward any tenant's occupancy. Throws on a free page.
  void add_ref(int page);

  /// Drop one reference held by `tenant`'s mapping of `page` (the
  /// owner check is against the page's *recorded owner*, so a shared
  /// page must be returned through the tenant it is charged to). The
  /// page returns to the pool when the last reference drops.
  void release(int page, int tenant);

  /// Like release, but when the dropped reference was the last one the
  /// freed page is additionally counted as *reclaimed* from `tenant` —
  /// the preemptive-eviction path.
  void reclaim(int page, int tenant);

  [[nodiscard]] int capacity() const { return static_cast<int>(owner_.size()); }
  [[nodiscard]] int in_use() const { return n_in_use_; }
  [[nodiscard]] int free() const { return capacity() - n_in_use_; }
  [[nodiscard]] Bytes page_bytes() const { return page_bytes_; }
  [[nodiscard]] Bytes pool_bytes() const {
    return static_cast<Bytes>(capacity()) * page_bytes_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  static constexpr int kFreePage = -1;
  /// Tenant currently charged for `page` (kFreePage when unheld).
  [[nodiscard]] int owner(int page) const;
  /// References currently held on `page` (0 when free).
  [[nodiscard]] int refcount(int page) const;
  /// Sum of refcounts over all in-use pages — the conservation quantity
  /// the randomized invariant suite checks against the engine's page
  /// tables plus registry pins.
  [[nodiscard]] long long total_refs() const { return total_refs_; }
  /// Pages currently referenced by more than one mapping.
  [[nodiscard]] int shared_pages() const;

  /// Physical pages currently charged to `tenant` (each counted once,
  /// however many references it carries).
  [[nodiscard]] int tenant_in_use(int tenant) const;
  /// Most pages `tenant` ever held at once.
  [[nodiscard]] int tenant_high_water(int tenant) const;
  /// Pages reclaimed (preemptively freed) from `tenant` so far.
  [[nodiscard]] int tenant_reclaimed(int tenant) const;
  /// Reclaimed pages across all tenants.
  [[nodiscard]] int total_reclaimed() const { return total_reclaimed_; }

 private:
  void free_page(int page, int tenant);

  std::string name_;
  Bytes page_bytes_;
  std::vector<int> owner_;     // kFreePage, or the charged tenant
  std::vector<int> refcount_;  // 0 when free
  int n_in_use_ = 0;
  long long total_refs_ = 0;
  std::vector<int> tenant_in_use_;  // indexed by tenant, grown on demand
  std::vector<int> tenant_high_water_;
  std::vector<int> tenant_reclaimed_;
  int total_reclaimed_ = 0;
};

}  // namespace distmcu::mem

#endif  // DISTMCU_MEM_PAGED_ARENA_HPP
