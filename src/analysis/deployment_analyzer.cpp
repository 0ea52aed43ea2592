#include "analysis/deployment_analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <utility>

#include "runtime/tenant_plan.hpp"
#include "util/units.hpp"

namespace distmcu::analysis {

namespace {

using runtime::BatchedEngine;
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
         "size the shared KV arena for at least one page per deployment");
  }
  if (opts.max_pending < 0) {
    emit(report, kCfgMalformed, Severity::error, "options",
         "max_pending must be >= 0 (got " + std::to_string(opts.max_pending) +
             ")",
         "use 0 to disable queuing beyond free KV pages");
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

  // ---- DMCU-KV-002: budget policy page conservation -------------------
  const runtime::KvShares kv = runtime::derive_kv_shares(
      entries, opts.total_kv_slots,
      opts.kv_budget != nullptr && opts.kv_budget->allows_borrowing());
  switch (kv.fault) {
    case runtime::KvShares::Fault::none:
      break;
    case runtime::KvShares::Fault::oversubscribed:
      emit(report, kKvBudget, Severity::error, "options",
           "deployment quotas (" + std::to_string(kv.explicit_sum) +
               ") oversubscribe total_kv_slots (" +
               std::to_string(opts.total_kv_slots) +
               "); no policy can conserve pages under these reserves",
           "raise total_kv_slots or lower per-deployment kv_quota");
      return report;  // quota derivation is undefined past this point
    case runtime::KvShares::Fault::no_reserve:
      emit(report, kKvBudget, Severity::error, "options",
           "total_kv_slots leaves no KV page for " +
               std::to_string(kv.starved) +
               " deployment(s) with an unset quota; their static reserve "
               "derives to zero and the split can never drain them",
           "raise total_kv_slots or lower explicit quotas");
      return report;
  }
  for (std::size_t m = 0; m < entries.size(); ++m) {
    const auto [quota, cap] = kv.shares[m];
    if (cap < quota) {
      emit(report, kKvBudget, Severity::warning, deployment_entity(entries[m]),
           "max_resident caps the tenant at " + std::to_string(cap) +
               " pages below its quota of " + std::to_string(quota) +
               "; the " + std::to_string(quota - cap) +
               "-page phantom reserve can never be occupied, and "
               "unmet-reserve accounting throttles other tenants' borrows "
               "against it forever",
           "lower kv_quota to max_resident or raise max_resident");
    }
  }

  // ---- DMCU-MEM-001: L2 fits ------------------------------------------
  // The engine's own plans and fit arithmetic: a measurement PlanError,
  // then each tenant's cap of resident pages beside its working set.
  std::vector<std::optional<runtime::TenantPlan>> plans(entries.size());
  for (std::size_t m = 0; m < entries.size(); ++m) {
    try {
      plans[m] = runtime::plan_tenant(entries[m], opts.kv_page_tokens);
    } catch (const PlanError& e) {
      emit(report, kMemOverflow, Severity::error, deployment_entity(entries[m]),
           std::string("single-request memory plan is infeasible: ") +
               e.what(),
           "shrink the model shape, raise the chip count, or lower "
           "ar_context");
      continue;
    }
    const int cap = kv.shares[m].cap;
    for (const runtime::FitPlan& fp : plans[m]->fit_plans) {
      const Bytes need = runtime::resident_need(
          fp.plan, static_cast<Bytes>(cap) * plans[m]->chip_page_bytes);
      if (need > fp.plan.l2_usable) {
        emit(report, kMemOverflow, Severity::error,
             deployment_entity(entries[m]),
             std::to_string(cap) + " resident KV pages need " +
                 util::format_bytes(need) + " of L2 in " + fp.mode +
                 " mode but only " + util::format_bytes(fp.plan.l2_usable) +
                 " is usable",
             "lower max_resident/total_kv_slots, kv_page_tokens, or "
             "ar_context");
      }
    }
  }
  const bool all_measured =
      std::all_of(plans.begin(), plans.end(),
                  [](const auto& p) { return p.has_value(); });
  if (entries.size() > 1 && all_measured) {
    std::vector<std::pair<Bytes, int>> kv_loads;
    for (std::size_t m = 0; m < entries.size(); ++m) {
      kv_loads.emplace_back(plans[m]->chip_page_bytes, kv.shares[m].cap);
    }
    const Bytes worst_kv =
        runtime::worst_resident_kv(std::move(kv_loads), opts.total_kv_slots);
    for (std::size_t m = 0; m < entries.size(); ++m) {
      for (const runtime::FitPlan& fp : plans[m]->fit_plans) {
        const Bytes need_beside = runtime::resident_need(fp.plan, worst_kv);
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
    for (std::size_t m = 0; m < entries.size(); ++m) {
      total_stream = util::sat_add(total_stream, plans[m]->ar_shared_cycles);
      total_compute = util::sat_add(
          total_compute,
          static_cast<Cycles>(kv.shares[m].cap) * plans[m]->ar_per_req_cycles);
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
      const int pt =
          runtime::effective_page_tokens(opts.kv_page_tokens, cfg.ar_context);
      const int cap = kv.shares[static_cast<std::size_t>(rq.model)].cap;
      // submit()'s livelock guard.
      if (shape_ok &&
          !runtime::fits_page_cap(pt, cap, rq.prompt_tokens, rq.new_tokens)) {
        emit(report, kPagedConfig, Severity::error, entity,
             "sequence needs " +
                 std::to_string(runtime::sequence_pages(pt, rq.prompt_tokens,
                                                        rq.new_tokens)) +
                 " KV pages but " + deployment_entity(dep) +
                 " is capped at " + std::to_string(cap) +
                 "; submit() refuses it up front (grow/evict livelock)",
             "raise max_resident/total_kv_slots or kv_page_tokens, or "
             "shorten the request");
        shape_ok = false;
      }
      const auto& plan = plans[static_cast<std::size_t>(rq.model)];
      // An unmeasured plan is already reported as DMCU-MEM-001.
      if (!shape_ok || rq.deadline_cycles == runtime::kNoDeadline ||
          !plan.has_value()) {
        continue;
      }
      const Cycles est =
          runtime::estimate_request_cost(*plan, rq.prompt_tokens,
                                         rq.new_tokens);
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
