#ifndef DISTMCU_RUNTIME_MODEL_REGISTRY_HPP
#define DISTMCU_RUNTIME_MODEL_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"

namespace distmcu::runtime {

/// One deployed (model::Config, chip-count, block program) tuple plus
/// its serving shape. The session owns the model, the partition, and
/// the timed block program; the registry entry adds the per-tenant
/// serving knobs the engine needs.
struct ModelDeployment {
  const InferenceSession* session = nullptr;
  /// Set when the registry built the session from a DeploymentSpec;
  /// shared so engines copying the entries keep the session alive even
  /// if the registry goes away first.
  std::shared_ptr<const InferenceSession> owned_session;
  std::string name;
  /// Prompt-chunk size of the chunked-prefill step model for this
  /// tenant; 0 = serial-prefill compatibility mode (per-model, so a
  /// chunked generator can share the engine with a serial encoder).
  int prefill_chunk_tokens = 0;
  /// Static-split reserve in shared KV pages. 0 = filled in by the
  /// engine with an equal split of the arena (remainder to the earliest
  /// deployments).
  int kv_quota = 0;
  /// Hard ceiling on concurrently held pages (bounds this tenant's
  /// active requests, its L2 fit check and the longest sequence submit()
  /// accepts), clamped to the arena. 0 = derived: the quota under the
  /// static-split policy, the whole arena under borrowing policies. A
  /// policy that never borrows also clamps an explicit value to the
  /// quota, since it never grants past it.
  int max_resident = 0;
};

/// The deployments one BatchedEngine multiplexes: N sessions keyed by a
/// dense ModelId (the add() order). A single-model engine is a registry
/// with one entry.
///
/// `add(DeploymentSpec)` builds and owns the InferenceSession the spec
/// describes (shared_ptr, copied into every engine), so there is no
/// session lifetime for callers to get wrong. The borrowed-session
/// `add()` registers a session the caller already built — the way to
/// share one session (and its weights) across several registries or
/// engines; such a session must outlive every engine built from the
/// registry.
class ModelRegistry {
 public:
  /// Register a deployment described by `spec`; the registry builds and
  /// owns its session. Returns its ModelId (dense, starting at 0).
  ModelId add(const DeploymentSpec& spec);

  /// Register a caller-owned `session` under `name` with its per-tenant
  /// serving knobs (see ModelDeployment). The spec form is implemented
  /// on this one.
  ModelId add(const InferenceSession& session, std::string name,
              int prefill_chunk_tokens = 0, int kv_quota = 0,
              int max_resident = 0);

  [[nodiscard]] int count() const { return static_cast<int>(entries_.size()); }
  [[nodiscard]] const ModelDeployment& entry(ModelId id) const;
  [[nodiscard]] const std::vector<ModelDeployment>& entries() const {
    return entries_;
  }

  /// ModelId of the deployment named `name`; throws when absent.
  [[nodiscard]] ModelId find(const std::string& name) const;

 private:
  std::vector<ModelDeployment> entries_;
};

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_MODEL_REGISTRY_HPP
