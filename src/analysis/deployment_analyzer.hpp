#ifndef DISTMCU_ANALYSIS_DEPLOYMENT_ANALYZER_HPP
#define DISTMCU_ANALYSIS_DEPLOYMENT_ANALYZER_HPP

#include <string>
#include <string_view>
#include <vector>

#include "runtime/batched_engine.hpp"
#include "runtime/model_registry.hpp"
#include "util/check.hpp"

namespace distmcu::analysis {

/// Diagnostic severity. Only `error` makes a deployment unsound: strict
/// engine construction and the CI gate refuse on errors, while warnings
/// flag configurations that run but waste capacity (a permanently
/// stall-bound port, a quota a tenant can never occupy).
enum class Severity { note, warning, error };

[[nodiscard]] const char* severity_name(Severity s);

/// Stable diagnostic codes. Never renumber — tests, CI baselines, and
/// downstream tooling key on these strings.
inline constexpr const char* kCfgMalformed = "DMCU-CFG-000";
inline constexpr const char* kMemOverflow = "DMCU-MEM-001";
inline constexpr const char* kKvBudget = "DMCU-KV-002";
inline constexpr const char* kPortOversub = "DMCU-PORT-003";
inline constexpr const char* kSloInfeasible = "DMCU-SLO-004";
inline constexpr const char* kTraceCollision = "DMCU-TRC-005";
inline constexpr const char* kRequestShape = "DMCU-REQ-006";
inline constexpr const char* kPagedConfig = "DMCU-PAGE-007";

/// One structured finding: a stable code, the offending entity (a
/// deployment, an option field, a workload request), what is wrong, and
/// how to fix it.
struct Diagnostic {
  std::string code;
  Severity severity = Severity::error;
  std::string entity;
  std::string message;
  std::string hint;
};

/// One class of requests an operator intends to serve: shape, optional
/// relative deadline, and multiplicity. The analyzer checks each class
/// against the same admission guards and cost estimator the engine
/// applies at submit() — statically, before any step executes.
struct SloRequest {
  runtime::ModelId model = 0;
  int prompt_tokens = 0;
  int new_tokens = 0;
  /// Relative completion deadline (submit-to-finish), kNoDeadline for
  /// best-effort traffic.
  Cycles deadline_cycles = runtime::kNoDeadline;
  /// How many such requests the workload carries (reporting only; the
  /// static checks are per-class).
  int count = 1;
};

/// Optional workload description accompanying a deployment config.
struct Workload {
  std::vector<SloRequest> requests;
};

/// The analyzer's verdict: every diagnostic found, in a stable order
/// (config, trace, KV budget, memory, port, then per-request checks).
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] int errors() const;
  [[nodiscard]] int warnings() const;
  /// Sound deployment: no error-severity diagnostics (warnings allowed).
  [[nodiscard]] bool ok() const { return errors() == 0; }
  [[nodiscard]] bool has(std::string_view code) const;
  /// Distinct codes present, sorted (test + JSON surface).
  [[nodiscard]] std::vector<std::string> codes() const;
  /// Human-readable listing, one line per diagnostic:
  ///   error[DMCU-MEM-001] deployment 'x': <message> (hint: <hint>)
  [[nodiscard]] std::string to_text() const;
};

/// Thrown by BatchedEngine strict mode when the analyzer finds an
/// error-severity diagnostic: the structured report rides along so
/// callers can key on codes instead of parsing what().
class AnalysisError : public Error {
 public:
  AnalysisError(const std::string& what, AnalysisReport report)
      : Error(what), report_(std::move(report)) {}
  [[nodiscard]] const AnalysisReport& report() const { return report_; }

 private:
  AnalysisReport report_;
};

/// Static verifier for a full engine configuration: proves a
/// (ModelRegistry, MultiOptions[, Workload]) deployment sound — or
/// explains precisely why not — before a single engine step executes.
///
/// Checks, in order:
///  - DMCU-CFG-000  malformed registry/options (empty registry, null
///    session, non-positive arena, negative knobs)
///  - DMCU-TRC-005  deployment-name collisions (trace lanes, per-model
///    stats rows, and JSON keys are keyed by name)
///  - DMCU-KV-002   the budget policy cannot conserve pages: quota
///    oversubscription, a deployment with no derivable reserve, or a
///    cap below the quota (a phantom unmet-reserve that watermark
///    borrowing throttles on but no occupancy can ever repay — warning)
///  - DMCU-MEM-001  L2 overflow: a single-request plan the memory
///    planner rejects, a pooled-KV fit failure at the tenant's cap, or
///    the cross-tenant worst-case co-resident KV fill
///  - DMCU-PORT-003 steady-state L3 port over-subscription at full
///    occupancy (decode permanently stall-bound — warning)
///  - DMCU-SLO-004  a workload deadline below the request's own service
///    demand per the engine's cost estimator (fail-fast at analysis
///    time instead of submit time)
///  - DMCU-REQ-006  workload request shapes submit() would throw on
///    (unknown model, empty prompt, context/prefill overflow)
///  - DMCU-PAGE-007 paged-KV configuration faults: a negative page
///    size, prefix_sharing with kv_page_tokens == 0 (whole-context
///    pages, so the flag is ignored — warning), or
///    a workload sequence whose full KV needs more pages than its
///    tenant's cap (the engine's submit-time livelock guard)
///
/// The measurements, quotas, caps, page sizes and fit arithmetic come
/// from runtime/tenant_plan.hpp, the module BatchedEngine construction
/// derives its tenants with; the analyzer only turns them into
/// diagnostics. A report free of CFG/KV/MEM errors constructs, and one
/// carrying any of them throws — the equivalence the randomized
/// cross-check test pins.
class DeploymentAnalyzer {
 public:
  [[nodiscard]] static AnalysisReport analyze(
      const runtime::ModelRegistry& registry,
      const runtime::BatchedEngine::MultiOptions& opts,
      const Workload* workload = nullptr);
};

}  // namespace distmcu::analysis

#endif  // DISTMCU_ANALYSIS_DEPLOYMENT_ANALYZER_HPP
