#include "runtime/tenant_plan.hpp"

#include <optional>

#include "runtime/inference_session.hpp"
#include "util/check.hpp"

namespace distmcu::runtime {

TenantPlan plan_tenant(const ModelDeployment& dep, int kv_page_tokens) {
  DISTMCU_CHECK(dep.session != nullptr,
                "plan_tenant: deployment '" + dep.name +
                    "' carries no session");
  DISTMCU_CHECK(dep.prefill_chunk_tokens >= 0,
                "plan_tenant: prefill_chunk_tokens must be >= 0");
  const InferenceSession& session = *dep.session;
  const model::TransformerConfig& cfg = session.config();
  TenantPlan t;
  t.kv_elem_bits = session.kv_elem_bits();
  t.chunk_tokens = std::min(dep.prefill_chunk_tokens, cfg.prompt_len);

  // The full prompt shape is only planned and measured in serial mode:
  // chunked serving must stay constructible on deployments whose
  // full-prompt activations cannot fit L2 at all. Chunk i processes C
  // rows attending to (i+1)*C cached positions (capped at the prompt).
  std::optional<BlockResult> prompt_block;
  std::vector<BlockResult> chunk_blocks;
  if (t.chunk_tokens > 0) {
    const int n = (cfg.prompt_len + t.chunk_tokens - 1) / t.chunk_tokens;
    std::vector<int> spans;
    spans.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      spans.push_back(std::min((i + 1) * t.chunk_tokens, cfg.prompt_len));
    }
    chunk_blocks = session.run_prompt_chunks(t.chunk_tokens, spans);
  } else {
    prompt_block = session.run_block(model::Mode::prompt);
  }
  const BlockResult ar_block = session.run_block(model::Mode::autoregressive);

  // KV bytes are scaled from the planner's native width to the
  // deployment's packed entry width.
  const Bytes chip_kv_bytes = scale_kv_bytes(
      ar_block.memory.kv_cache_bytes, t.kv_elem_bits,
      static_cast<int>(session.system().precision.kv_bytes) * kBitsPerByte);
  const int ctx = cfg.ar_context;
  t.page_tokens = effective_page_tokens(kv_page_tokens, ctx);
  t.chip_page_bytes = (chip_kv_bytes * static_cast<Bytes>(t.page_tokens) +
                       static_cast<Bytes>(ctx) - 1) /
                      static_cast<Bytes>(ctx);
  t.kv_token_bytes = model::packed_kv_bytes(
      2ull * static_cast<std::uint64_t>(cfg.num_layers * cfg.num_heads * cfg.head_dim),
      t.kv_elem_bits);
  // With chunking the prompt phase materializes chunk-shaped activations
  // only, so its fit is checked at the chunk shape.
  if (prompt_block.has_value()) {
    t.fit_plans.push_back({"prompt", prompt_block->memory});
  } else {
    t.fit_plans.push_back({"chunked-prompt", chunk_blocks.front().memory});
  }
  t.fit_plans.push_back({"autoregressive", ar_block.memory});

  const auto layers = static_cast<Cycles>(cfg.num_layers);
  if (prompt_block.has_value()) {
    t.prompt_cycles = prompt_block->report.block_cycles * layers;
    t.prompt_energy_mj =
        prompt_block->energy_mj() * static_cast<double>(layers);
    t.prompt_stream_cycles =
        prompt_block->report.breakdown.dma_l3_l2 * layers;
  }
  t.ar_shared_cycles = ar_block.report.breakdown.dma_l3_l2 * layers;
  t.ar_per_req_cycles =
      (ar_block.report.block_cycles - ar_block.report.breakdown.dma_l3_l2) *
      layers;
  t.ar_shared_energy_mj =
      util::pj_to_mj(ar_block.energy.l3) * static_cast<double>(layers);
  t.ar_per_req_energy_mj =
      util::pj_to_mj(ar_block.energy.core + ar_block.energy.l2 +
                     ar_block.energy.c2c) *
      static_cast<double>(layers);
  t.stream_bytes_per_step = ar_block.report.traffic.l3_l2 * layers;

  // Chunk decomposition mirrors the decode one: the chunk's own L3 share
  // becomes asynchronous port occupancy racing the step, the rest is
  // serialized compute.
  t.chunk_costs.reserve(chunk_blocks.size());
  for (const BlockResult& cb : chunk_blocks) {
    t.chunk_costs.push_back(
        {.compute =
             (cb.report.block_cycles - cb.report.breakdown.dma_l3_l2) * layers,
         .stream = cb.report.breakdown.dma_l3_l2 * layers,
         .energy_mj = cb.energy_mj() * static_cast<double>(layers),
         .l3_bytes = cb.report.traffic.l3_l2 * layers});
  }
  return t;
}

Cycles estimate_request_cost(const TenantPlan& t, int prompt_tokens,
                             int new_tokens) {
  // generate's composition: prompt + (n-1) decodes.
  Cycles est = 0;
  if (t.chunk_tokens > 0) {
    const int n_chunks = (prompt_tokens + t.chunk_tokens - 1) / t.chunk_tokens;
    for (int i = 0; i < n_chunks; ++i) {
      const ChunkCost& cc = t.chunk_costs[static_cast<std::size_t>(i)];
      est += cc.compute + cc.stream;
    }
  } else {
    est = t.prompt_cycles;
  }
  if (new_tokens > 1) {
    est += static_cast<Cycles>(new_tokens - 1) * t.ar_per_req_cycles;
  }
  return est;
}

KvShares derive_kv_shares(const std::vector<ModelDeployment>& entries,
                          int total_pages, bool borrowing) {
  KvShares out;
  int unset = 0;
  for (const ModelDeployment& e : entries) {
    if (e.kv_quota > 0) {
      out.explicit_sum += e.kv_quota;
    } else {
      ++unset;
    }
  }
  if (out.explicit_sum > total_pages) {
    out.fault = KvShares::Fault::oversubscribed;
    return out;
  }
  const int rem = total_pages - out.explicit_sum;
  if (unset > 0 && rem < unset) {
    out.fault = KvShares::Fault::no_reserve;
    out.starved = unset - rem;
    return out;
  }
  // No quota or cap below one page can come out of this loop: an
  // explicit quota is > 0 (ModelRegistry rejects negative ones), a
  // derived one is at least rem / unset >= 1 once rem >= unset passed
  // the no_reserve check above, and so total_pages >= 1 too.
  out.shares.reserve(entries.size());
  int unset_seen = 0;
  for (const ModelDeployment& e : entries) {
    int quota = e.kv_quota;
    if (quota == 0) {
      quota = rem / unset + (unset_seen < rem % unset ? 1 : 0);
      ++unset_seen;
    }
    int cap = e.max_resident > 0 ? std::min(e.max_resident, total_pages)
                                 : (borrowing ? total_pages : quota);
    if (!borrowing) cap = std::min(cap, quota);
    out.shares.push_back({.quota = quota, .cap = cap});
  }
  return out;
}

Bytes worst_resident_kv(std::vector<std::pair<Bytes, int>> loads,
                        int total_pages) {
  std::sort(loads.begin(), loads.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  Bytes worst = 0;
  int pages_left = total_pages;
  for (const auto& [chip_page_bytes, cap] : loads) {
    if (pages_left <= 0) break;
    const int take = std::min(cap, pages_left);
    worst += static_cast<Bytes>(take) * chip_page_bytes;
    pages_left -= take;
  }
  return worst;
}

}  // namespace distmcu::runtime
