#ifndef DISTMCU_RUNTIME_TENANT_PLAN_HPP
#define DISTMCU_RUNTIME_TENANT_PLAN_HPP

#include <algorithm>
#include <utility>
#include <vector>

#include "partition/memory_planner.hpp"
#include "runtime/model_registry.hpp"
#include "util/units.hpp"

namespace distmcu::runtime {

// The per-tenant derivations of a multi-model deployment: block
// measurement and cost decomposition, KV page sizing, the quota/cap
// split of the shared arena, and the L2 fit arithmetic. BatchedEngine
// serves from them and analysis::DeploymentAnalyzer turns them into
// diagnostics, so the engine's verdict and the analyzer's cannot drift.

/// Effective KV page size in token positions of a model with context
/// `ar_context`: kv_page_tokens clamped to the context, the whole
/// context at 0.
[[nodiscard]] constexpr int effective_page_tokens(int kv_page_tokens,
                                                  int ar_context) {
  return kv_page_tokens > 0 ? std::min(kv_page_tokens, ar_context)
                            : ar_context;
}

/// Per-chunk-index cost decomposition (all layers), derived from
/// chunk-shaped block reports with the attention span of that chunk's
/// end position.
struct ChunkCost {
  Cycles compute = 0;  // block cycles minus the chunk's own L3 stream
  Cycles stream = 0;   // the chunk's dma_l3_l2 share (port occupancy)
  double energy_mj = 0.0;
  Bytes l3_bytes = 0;  // real traffic, for trace fidelity
};

/// A memory plan one L2 fit check runs against, tagged with its serving
/// phase ("prompt", "chunked-prompt" or "autoregressive").
struct FitPlan {
  const char* mode = "";
  partition::MemoryPlan plan;
};

/// One deployment's static serving plan: its block-program cost
/// decomposition, its KV page sizing and the memory plans its L2 fits
/// are checked against. No cache pool is allocated.
struct TenantPlan {
  /// Bits one stored KV entry costs in the arena (the session's packed
  /// layout; equals the platform-native width for KvLayout::native).
  int kv_elem_bits = 0;
  /// Effective prompt-chunk size (clamped to prompt_len; 0 = serial
  /// prefill) and one cost entry per chunk position of the padded
  /// static prompt.
  int chunk_tokens = 0;
  std::vector<ChunkCost> chunk_costs;

  Cycles prompt_cycles = 0;  // full prefill cost, all layers (serial only)
  double prompt_energy_mj = 0.0;
  Cycles prompt_stream_cycles = 0;  // prefill's own L3 port occupancy
  /// Decode-step decomposition: the L3->L2 portion is block-weight
  /// streaming, fetched once per layer however many requests share the
  /// step; everything else scales with the batch.
  Cycles ar_shared_cycles = 0;
  double ar_shared_energy_mj = 0.0;
  Cycles ar_per_req_cycles = 0;  // compute + tile DMA + C2C, per request
  double ar_per_req_energy_mj = 0.0;
  Bytes stream_bytes_per_step = 0;  // real L3 bytes, for trace fidelity

  /// Effective page size in token positions and the worst-case-chip L2
  /// footprint of one page (the full-context per-chip KV at the packed
  /// width, scaled to the page and rounded up so fits never
  /// under-reserve) — the per-page unit of every fit check.
  int page_tokens = 0;
  Bytes chip_page_bytes = 0;
  /// Packed KV bytes of one token position, all chips and layers: a page
  /// charges the arena page_tokens of them, a checkpoint its rows' worth.
  Bytes kv_token_bytes = 0;

  /// The prompt (or first-chunk) and autoregressive plans, in that order.
  std::vector<FitPlan> fit_plans;
};

/// Measure `dep`'s block program — one prompt measurement (one chunk
/// series when chunked) plus one autoregressive one — and derive its
/// plan at `kv_page_tokens`. Throws PlanError when the single-request
/// memory plan is infeasible and Error on a null session or a negative
/// chunk size.
[[nodiscard]] TenantPlan plan_tenant(const ModelDeployment& dep,
                                     int kv_page_tokens);

/// Idle-engine service demand of one request: the prefill charge (the
/// chunk decomposition when chunked) plus one per-request decode forward
/// per generated token past the prefill output, excluding batch-shared
/// weight streaming and queueing.
[[nodiscard]] Cycles estimate_request_cost(const TenantPlan& t,
                                           int prompt_tokens, int new_tokens);

/// One tenant's share of the shared KV arena: its static-split reserve
/// and its hard ceiling on concurrently held pages.
struct KvShare {
  int quota = 0;
  int cap = 0;
};

/// The quota/cap split of `total_pages` across deployments, or the first
/// condition that makes it undefined with the numbers that explain it.
struct KvShares {
  enum class Fault {
    none,
    oversubscribed,  // explicit quotas sum past the arena
    no_reserve,      // the remainder leaves an unset quota at zero
  };
  Fault fault = Fault::none;
  int explicit_sum = 0;  // summed explicit quotas
  int starved = 0;       // unset-quota deployments left without a page
  std::vector<KvShare> shares;  // one per deployment; empty on a fault
};

/// Explicit quotas are kept and unset (0) ones share the remaining pages
/// equally, remainder to the earliest deployments. The cap is
/// max_resident clamped to the arena or, when unset, the whole arena
/// under borrowing. Without borrowing it is clamped to the quota, since
/// a static split never grants past it: a higher cap would admit at
/// submit() sequences that can never be granted their pages.
[[nodiscard]] KvShares derive_kv_shares(
    const std::vector<ModelDeployment>& entries, int total_pages,
    bool borrowing);

/// L2 bytes `mp`'s working set needs with `resident_kv` bytes of KV per
/// chip resident beside it: the plan's own single-set KV term is
/// swapped for the resident KV.
[[nodiscard]] inline Bytes resident_need(const partition::MemoryPlan& mp,
                                         Bytes resident_kv) {
  return mp.need() - mp.kv_cache_bytes + resident_kv;
}

/// Worst-case co-resident KV per chip in an arena of `total_pages`: the
/// pages filled greedily with the largest per-chip page footprints,
/// each tenant bounded by its cap. `loads` holds one
/// (chip_page_bytes, cap) pair per tenant.
[[nodiscard]] Bytes worst_resident_kv(std::vector<std::pair<Bytes, int>> loads,
                                      int total_pages);

/// Pages a sequence's whole KV occupies — every prompt row and every
/// decode row but the last — at `page_tokens` positions per page.
[[nodiscard]] constexpr int sequence_pages(int page_tokens, int prompt_tokens,
                                           int new_tokens) {
  const int rows = prompt_tokens + std::max(0, new_tokens - 1);
  return (rows + page_tokens - 1) / page_tokens;
}

/// Whether that sequence fits a `cap`-page tenant. One that does not
/// would be admitted, grown to the cap and evicted forever, so submit()
/// refuses it and the analyzer flags it.
[[nodiscard]] constexpr bool fits_page_cap(int page_tokens, int cap,
                                           int prompt_tokens, int new_tokens) {
  return sequence_pages(page_tokens, prompt_tokens, new_tokens) <= cap;
}

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_TENANT_PLAN_HPP
