#include "analysis/deployment_analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <utility>

#include "partition/memory_planner.hpp"
#include "util/units.hpp"

namespace distmcu::analysis {

namespace {

using runtime::BatchedEngine;
using runtime::InferenceSession;
using runtime::ModelDeployment;
using runtime::ModelRegistry;

void emit(AnalysisReport& report, const char* code, Severity severity,
          std::string entity, std::string message, std::string hint) {
  report.diagnostics.push_back({code, severity, std::move(entity),
                                std::move(message), std::move(hint)});
}

std::string deployment_entity(const ModelDeployment& dep) {
  return "deployment '" + dep.name + "'";
}

/// The key a deployment name collapses to on every keyed surface (trace
/// lane labels, per-model stats rows, bench JSON object keys): lowercase
/// alphanumerics, everything else folded to '_'. Two names sharing a key
/// are indistinguishable downstream even though the registry accepts
/// both as distinct strings.
std::string lane_key(const std::string& name) {
  std::string key;
  key.reserve(name.size());
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    key.push_back(std::isalnum(u) != 0
                      ? static_cast<char>(std::tolower(u))
                      : '_');
  }
  return key;
}

/// Characters safe to embed in the hand-written trace/bench JSON and in
/// trace lane labels without escaping.
bool lane_safe(const std::string& name) {
  return std::all_of(name.begin(), name.end(), [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) != 0 || c == '_' || c == '-' || c == '.' ||
           c == ':';
  });
}

/// Static mirror of one BatchedEngine::Tenant's cost/fit derivation —
/// the same block measurements, decomposed the same way, without
/// allocating any cache pool.
struct TenantModel {
  int chunk_tokens = 0;
  struct ChunkCost {
    Cycles compute = 0;
    Cycles stream = 0;
  };
  std::vector<ChunkCost> chunk_costs;
  Cycles prompt_cycles = 0;
  Cycles ar_shared_cycles = 0;   // per-step weight stream (port occupancy)
  Cycles ar_per_req_cycles = 0;  // per-request decode compute
  /// Full-context per-chip KV at the deployment's packed entry width,
  /// scaled from the planner's native width like BatchedEngine::build_tenant.
  Bytes chip_kv_bytes = 0;
  struct FitPlan {
    const char* mode = "";
    partition::MemoryPlan plan;
  };
  std::vector<FitPlan> fit_plans;
  int quota = 0;
  int cap = 0;
  /// Effective page size in token positions (kv_page_tokens clamped to
  /// ar_context, ar_context when 0) and the worst-case-chip L2 footprint
  /// of one page — the per-unit bytes of every fit check, rounded up
  /// exactly like the engine's.
  int page_tokens = 0;
  Bytes chip_page_bytes = 0;
  bool measured = false;  // block measurements succeeded (no PlanError)
};

/// Same composition as BatchedEngine::estimate_request_cost: the
/// request's own service demand, excluding batch-shared streaming and
/// queueing.
Cycles estimate_request_cost(const TenantModel& t, int prompt_tokens,
                             int new_tokens) {
  Cycles est = 0;
  if (t.chunk_tokens > 0) {
    const int n_chunks = (prompt_tokens + t.chunk_tokens - 1) / t.chunk_tokens;
    for (int i = 0; i < n_chunks; ++i) {
      const auto& cc = t.chunk_costs[static_cast<std::size_t>(i)];
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

/// Measure one deployment's block program and decompose it exactly like
/// BatchedEngine::build_tenant. PlanError from the measurement itself
/// (single-request plan infeasible) becomes DMCU-MEM-001.
void measure_tenant(const ModelDeployment& dep, TenantModel& t,
                    AnalysisReport& report) {
  const InferenceSession& session = *dep.session;
  const int prompt_len = session.config().prompt_len;
  t.chunk_tokens = dep.prefill_chunk_tokens == 0
                       ? 0
                       : std::min(dep.prefill_chunk_tokens, prompt_len);
  try {
    std::optional<runtime::BlockResult> prompt_block;
    std::vector<runtime::BlockResult> chunk_blocks;
    if (t.chunk_tokens > 0) {
      const int n = (prompt_len + t.chunk_tokens - 1) / t.chunk_tokens;
      std::vector<int> spans;
      spans.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        spans.push_back(std::min((i + 1) * t.chunk_tokens, prompt_len));
      }
      chunk_blocks = session.run_prompt_chunks(t.chunk_tokens, spans);
    } else {
      prompt_block = session.run_block(model::Mode::prompt);
    }
    const runtime::BlockResult ar_block =
        session.run_block(model::Mode::autoregressive);

    if (chunk_blocks.empty()) {
      t.fit_plans.push_back({"prompt", prompt_block->memory});
    } else {
      t.fit_plans.push_back({"chunked-prompt", chunk_blocks.front().memory});
    }
    t.fit_plans.push_back({"autoregressive", ar_block.memory});
    t.chip_kv_bytes = runtime::scale_kv_bytes(
        ar_block.memory.kv_cache_bytes, session.kv_elem_bits(),
        static_cast<int>(session.system().precision.kv_bytes) *
            runtime::kBitsPerByte);

    const auto layers = static_cast<Cycles>(session.config().num_layers);
    if (prompt_block.has_value()) {
      t.prompt_cycles = prompt_block->report.block_cycles * layers;
    }
    t.ar_shared_cycles = ar_block.report.breakdown.dma_l3_l2 * layers;
    t.ar_per_req_cycles =
        (ar_block.report.block_cycles - ar_block.report.breakdown.dma_l3_l2) *
        layers;
    t.chunk_costs.reserve(chunk_blocks.size());
    for (const auto& cb : chunk_blocks) {
      TenantModel::ChunkCost cc;
      cc.stream = cb.report.breakdown.dma_l3_l2 * layers;
      cc.compute =
          (cb.report.block_cycles - cb.report.breakdown.dma_l3_l2) * layers;
      t.chunk_costs.push_back(cc);
    }
    t.measured = true;
  } catch (const PlanError& e) {
    emit(report, kMemOverflow, Severity::error, deployment_entity(dep),
         std::string("single-request memory plan is infeasible: ") + e.what(),
         "shrink the model shape, raise the chip count, or lower ar_context");
  }
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::note:
      return "note";
    case Severity::warning:
      return "warning";
    case Severity::error:
      return "error";
  }
  return "error";
}

int AnalysisReport::errors() const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
        return d.severity == Severity::error;
      }));
}

int AnalysisReport::warnings() const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
        return d.severity == Severity::warning;
      }));
}

bool AnalysisReport::has(std::string_view code) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const auto& d) { return d.code == code; });
}

std::vector<std::string> AnalysisReport::codes() const {
  std::vector<std::string> out;
  for (const auto& d : diagnostics) {
    if (std::find(out.begin(), out.end(), d.code) == out.end()) {
      out.push_back(d.code);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  if (diagnostics.empty()) {
    os << "clean: no diagnostics\n";
    return os.str();
  }
  for (const auto& d : diagnostics) {
    os << severity_name(d.severity) << "[" << d.code << "] " << d.entity
       << ": " << d.message;
    if (!d.hint.empty()) os << " (hint: " << d.hint << ")";
    os << "\n";
  }
  os << errors() << " error(s), " << warnings() << " warning(s)\n";
  return os.str();
}

AnalysisReport DeploymentAnalyzer::analyze(
    const ModelRegistry& registry, const BatchedEngine::MultiOptions& opts,
    const Workload* workload) {
  AnalysisReport report;

  // ---- DMCU-CFG-000: registry/options shape --------------------------
  if (registry.count() == 0) {
    emit(report, kCfgMalformed, Severity::error, "registry",
         "registry holds no deployments",
         "register at least one (session, name) deployment");
  }
  if (opts.total_kv_slots <= 0) {
    emit(report, kCfgMalformed, Severity::error, "options",
         "total_kv_slots must be positive (got " +
             std::to_string(opts.total_kv_slots) + ")",
         "size the shared KV arena for at least one slot per deployment");
  }
  if (opts.max_pending < 0) {
    emit(report, kCfgMalformed, Severity::error, "options",
         "max_pending must be >= 0 (got " + std::to_string(opts.max_pending) +
             ")",
         "use 0 to disable queuing beyond free KV slots");
  }
  // ---- DMCU-PAGE-007: paged-KV option shape --------------------------
  if (opts.kv_page_tokens < 0) {
    emit(report, kPagedConfig, Severity::error, "options",
         "kv_page_tokens must be >= 0 (got " +
             std::to_string(opts.kv_page_tokens) + ")",
         "use 0 for one whole-context page per request or a positive page "
         "size in token positions");
  }
  if (opts.prefix_sharing && opts.kv_page_tokens == 0) {
    emit(report, kPagedConfig, Severity::warning, "options",
         "prefix_sharing is set but kv_page_tokens is 0; a page then spans "
         "the whole context and no prompt fills one, so the engine ignores "
         "the flag and every request re-runs its full prefill",
         "set kv_page_tokens > 0 to share prefixes, or drop the flag");
  }
  for (const ModelDeployment& dep : registry.entries()) {
    if (dep.session == nullptr) {
      emit(report, kCfgMalformed, Severity::error, deployment_entity(dep),
           "registry entry carries no session",
           "construct the InferenceSession before registering it");
    }
    if (dep.prefill_chunk_tokens < 0 || dep.kv_quota < 0 ||
        dep.max_resident < 0) {
      emit(report, kCfgMalformed, Severity::error, deployment_entity(dep),
           "negative serving knob (prefill_chunk_tokens/kv_quota/"
           "max_resident must be >= 0)",
           "use 0 for engine-derived defaults");
    }
  }
  if (report.errors() > 0) return report;  // nothing further is derivable

  // ---- DMCU-TRC-005: trace-lane / tenant-ID collisions ---------------
  const auto& entries = registry.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name.empty()) {
      emit(report, kTraceCollision, Severity::error, "deployment #" +
               std::to_string(i),
           "deployment name is empty; trace lanes and per-model stats are "
           "keyed by name",
           "give every deployment a unique non-empty name");
      continue;
    }
    if (!lane_safe(entries[i].name)) {
      emit(report, kTraceCollision, Severity::error,
           deployment_entity(entries[i]),
           "name contains characters outside [A-Za-z0-9_.:-]; it would be "
           "embedded unescaped in trace labels and bench JSON keys",
           "restrict deployment names to alphanumerics, '_', '-', '.', ':'");
    }
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].name.empty()) continue;
      if (entries[i].name == entries[j].name ||
          lane_key(entries[i].name) == lane_key(entries[j].name)) {
        emit(report, kTraceCollision, Severity::error,
             deployment_entity(entries[j]),
             "name collides with " + deployment_entity(entries[i]) +
                 " on the trace-lane/stats key '" +
                 lane_key(entries[i].name) +
                 "'; their per-model rows and trace lanes would be "
                 "indistinguishable",
             "rename one deployment so the sanitized keys differ");
      }
    }
  }

  // ---- DMCU-KV-002: budget policy slot conservation -------------------
  // Mirrors the engine's quota/cap derivation exactly.
  int explicit_sum = 0;
  int unset = 0;
  for (const auto& e : entries) {
    if (e.kv_quota > 0) {
      explicit_sum += e.kv_quota;
    } else {
      ++unset;
    }
  }
  if (explicit_sum > opts.total_kv_slots) {
    emit(report, kKvBudget, Severity::error, "options",
         "deployment quotas (" + std::to_string(explicit_sum) +
             ") oversubscribe total_kv_slots (" +
             std::to_string(opts.total_kv_slots) +
             "); no policy can conserve slots under these reserves",
         "raise total_kv_slots or lower per-deployment kv_quota");
    return report;  // quota derivation is undefined past this point
  }
  const int rem = opts.total_kv_slots - explicit_sum;
  if (unset > 0 && rem < unset) {
    emit(report, kKvBudget, Severity::error, "options",
         "total_kv_slots leaves no KV slot for " +
             std::to_string(unset - rem) +
             " deployment(s) with an unset quota; their static reserve "
             "derives to zero and the split can never drain them",
         "raise total_kv_slots or lower explicit quotas");
    return report;
  }
  const bool borrowing =
      opts.kv_budget != nullptr && opts.kv_budget->allows_borrowing();
  std::vector<TenantModel> tenants(entries.size());
  int unset_seen = 0;
  for (std::size_t m = 0; m < entries.size(); ++m) {
    const auto& e = entries[m];
    int quota = e.kv_quota;
    if (quota == 0) {
      quota = rem / unset + (static_cast<int>(unset_seen) < rem % unset ? 1 : 0);
      ++unset_seen;
    }
    if (quota < 1) {
      emit(report, kKvBudget, Severity::error, deployment_entity(e),
           "derived a zero KV quota", "raise total_kv_slots");
      return report;
    }
    int cap = e.max_resident > 0
                  ? std::min(e.max_resident, opts.total_kv_slots)
                  : (borrowing ? opts.total_kv_slots : quota);
    cap = std::max(cap, 1);
    tenants[m].quota = quota;
    tenants[m].cap = cap;
    if (cap < quota) {
      emit(report, kKvBudget, Severity::warning, deployment_entity(e),
           "max_resident caps the tenant at " + std::to_string(cap) +
               " slots below its quota of " + std::to_string(quota) +
               "; the " + std::to_string(quota - cap) +
               "-slot phantom reserve can never be occupied, and "
               "unmet-reserve accounting throttles other tenants' borrows "
               "against it forever",
         "lower kv_quota to max_resident or raise max_resident");
    }
  }

  // ---- DMCU-MEM-001: L2 fits ------------------------------------------
  for (std::size_t m = 0; m < entries.size(); ++m) {
    TenantModel& t = tenants[m];
    measure_tenant(entries[m], t, report);
    if (!t.measured) continue;
    // Same derivation as BatchedEngine::build_tenant: the page size is
    // clamped to the context (the whole context at 0), and one page's
    // per-chip share of the full-context KV footprint is rounded up so
    // fits never under-reserve.
    const int ctx = entries[m].session->config().ar_context;
    t.page_tokens =
        runtime::BatchedEngine::effective_page_tokens(opts.kv_page_tokens, ctx);
    t.chip_page_bytes = (t.chip_kv_bytes * static_cast<Bytes>(t.page_tokens) +
                         static_cast<Bytes>(ctx) - 1) /
                        static_cast<Bytes>(ctx);
    for (const auto& fp : t.fit_plans) {
      // The cap counts pages, so resident KV is cap pages beside the
      // plan's non-KV working set (the plan's own single-set KV term is
      // swapped out, exactly like check_pool_fits).
      const Bytes resident = static_cast<Bytes>(t.cap) * t.chip_page_bytes;
      const Bytes need = fp.plan.need() - fp.plan.kv_cache_bytes + resident;
      if (need > fp.plan.l2_usable) {
        emit(report, kMemOverflow, Severity::error,
             deployment_entity(entries[m]),
             std::to_string(t.cap) + " resident KV pages need " +
                 util::format_bytes(need) + " of L2 in " + fp.mode +
                 " mode but only " + util::format_bytes(fp.plan.l2_usable) +
                 " is usable",
             "lower max_resident/total_kv_slots, kv_page_tokens, or "
             "ar_context");
      }
    }
  }
  const bool all_measured =
      std::all_of(tenants.begin(), tenants.end(),
                  [](const TenantModel& t) { return t.measured; });
  if (entries.size() > 1 && all_measured) {
    // Worst-case co-resident KV: the arena's pages filled greedily with
    // the largest per-chip page footprints, each tenant bounded by its
    // cap in pages.
    std::vector<std::pair<Bytes, int>> kv_loads;
    kv_loads.reserve(tenants.size());
    for (const TenantModel& t : tenants) {
      kv_loads.emplace_back(t.chip_page_bytes, t.cap);
    }
    std::sort(kv_loads.begin(), kv_loads.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    Bytes worst_kv = 0;
    int pages_left = opts.total_kv_slots;
    for (const auto& [chip_kv, cap] : kv_loads) {
      if (pages_left <= 0) break;
      const int take = std::min(cap, pages_left);
      worst_kv += static_cast<Bytes>(take) * chip_kv;
      pages_left -= take;
    }
    for (std::size_t m = 0; m < entries.size(); ++m) {
      for (const auto& fp : tenants[m].fit_plans) {
        const Bytes need_beside =
            fp.plan.need() - fp.plan.kv_cache_bytes + worst_kv;
        if (need_beside > fp.plan.l2_usable) {
          emit(report, kMemOverflow, Severity::error,
               deployment_entity(entries[m]),
               "worst-case co-resident KV of all tenants (" +
                   util::format_bytes(worst_kv) + "/chip) plus the " +
                   fp.mode + "-mode working set needs " +
                   util::format_bytes(need_beside) + " of L2 but only " +
                   util::format_bytes(fp.plan.l2_usable) + " is usable",
               "lower total_kv_slots, tenant caps, or ar_context");
        }
      }
    }
  }

  // ---- DMCU-PORT-003: steady-state L3 port over-subscription ----------
  // At full occupancy every tenant's decode step streams its per-step
  // block weights (ar_shared_cycles of port occupancy on the normalized
  // 1 byte == 1 cycle link) while the batch computes cap * per-request
  // forwards. When the summed stream exceeds the summed compute no
  // overlap schedule can hide it: decode is permanently stall-bound.
  if (all_measured) {
    Cycles total_stream = 0;
    Cycles total_compute = 0;
    for (const TenantModel& t : tenants) {
      total_stream = util::sat_add(total_stream, t.ar_shared_cycles);
      total_compute = util::sat_add(
          total_compute,
          static_cast<Cycles>(t.cap) * t.ar_per_req_cycles);
    }
    if (total_stream > total_compute) {
      emit(report, kPortOversub, Severity::warning, "options",
           "steady-state decode streams " + std::to_string(total_stream) +
               " port cycles per step against " +
               std::to_string(total_compute) +
               " compute cycles at full occupancy; the L3 port is "
               "over-subscribed and every step stalls on weights",
           "raise tenant caps/total_kv_slots to deepen batches, or deploy "
           "on more chips to shrink the per-step stream");
    }
  }

  // ---- Workload checks: DMCU-REQ-006 / DMCU-SLO-004 -------------------
  if (workload != nullptr) {
    for (std::size_t i = 0; i < workload->requests.size(); ++i) {
      const SloRequest& rq = workload->requests[i];
      const std::string entity = "workload request #" + std::to_string(i);
      if (rq.model < 0 || rq.model >= registry.count()) {
        emit(report, kRequestShape, Severity::error, entity,
             "unknown model id " + std::to_string(rq.model),
             "target a ModelId returned by ModelRegistry::add");
        continue;
      }
      const auto& dep = entries[static_cast<std::size_t>(rq.model)];
      const auto& cfg = dep.session->config();
      bool shape_ok = true;
      if (rq.prompt_tokens <= 0) {
        emit(report, kRequestShape, Severity::error, entity,
             "prompt must not be empty", "submit at least one prompt token");
        shape_ok = false;
      }
      if (rq.new_tokens < 0) {
        emit(report, kRequestShape, Severity::error, entity,
             "new_tokens must be >= 0",
             "use 0 for encoder-style prefill-only requests");
        shape_ok = false;
      }
      if (shape_ok && rq.prompt_tokens + rq.new_tokens > cfg.ar_context) {
        emit(report, kRequestShape, Severity::error, entity,
             "sequence of " + std::to_string(rq.prompt_tokens + rq.new_tokens) +
                 " tokens exceeds " + deployment_entity(dep) +
                 "'s context length (" + std::to_string(cfg.ar_context) + ")",
             "shorten the request or raise ar_context");
        shape_ok = false;
      }
      if (shape_ok && rq.prompt_tokens > cfg.prompt_len) {
        emit(report, kRequestShape, Severity::error, entity,
             "prompt of " + std::to_string(rq.prompt_tokens) +
                 " tokens exceeds " + deployment_entity(dep) +
                 "'s prefill length (" + std::to_string(cfg.prompt_len) + ")",
             "raise the deployment's prompt_len or chunk the request");
        shape_ok = false;
      }
      if (shape_ok) {
        // Mirror of submit()'s livelock guard: a sequence whose full KV
        // (prompt rows plus every decode row but the last) exceeds the
        // tenant's page cap would be admitted, grown to the cap, and
        // evicted forever.
        const int pt = runtime::BatchedEngine::effective_page_tokens(
            opts.kv_page_tokens, cfg.ar_context);
        const int max_rows = rq.prompt_tokens + std::max(0, rq.new_tokens - 1);
        const int need_pages = (max_rows + pt - 1) / pt;
        const int cap = tenants[static_cast<std::size_t>(rq.model)].cap;
        if (need_pages > cap) {
          emit(report, kPagedConfig, Severity::error, entity,
               "sequence needs " + std::to_string(need_pages) +
                   " KV pages but " + deployment_entity(dep) +
                   " is capped at " + std::to_string(cap) +
                   "; submit() refuses it up front (grow/evict livelock)",
               "raise max_resident/total_kv_slots or kv_page_tokens, or "
               "shorten the request");
          shape_ok = false;
        }
      }
      if (!shape_ok || rq.deadline_cycles == runtime::kNoDeadline) continue;
      const TenantModel& t = tenants[static_cast<std::size_t>(rq.model)];
      if (!t.measured) continue;  // already reported as DMCU-MEM-001
      const Cycles est =
          estimate_request_cost(t, rq.prompt_tokens, rq.new_tokens);
      if (est > rq.deadline_cycles) {
        emit(report, kSloInfeasible, Severity::error, entity,
             "deadline of " + std::to_string(rq.deadline_cycles) +
                 " cycles is below the request's own service demand of " +
                 std::to_string(est) + " cycles on " +
                 deployment_entity(dep) +
                 "; even an idle engine fail-fasts it at submit",
             "relax the deadline past the cost estimate or shrink the "
             "request");
      }
    }
  }

  return report;
}

}  // namespace distmcu::analysis
