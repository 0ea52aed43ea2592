#ifndef DISTMCU_RUNTIME_DEPLOYMENT_SPEC_HPP
#define DISTMCU_RUNTIME_DEPLOYMENT_SPEC_HPP

// DeploymentSpec: the single way to declare a servable tenant. One
// aggregate replaces the growing positional (model, chip-count, chunk,
// quota, ...) tuple that ModelRegistry::add used to take, and carries
// the two per-deployment precision knobs end to end — the arithmetic
// Precision the block program runs at and the packed KvLayout its KV
// pages are accounted (and, for int8 deployments, actually stored) in.

#include <cstdint>
#include <string>

#include "model/config.hpp"
#include "runtime/precision.hpp"
#include "runtime/timed_simulation.hpp"
#include "util/check.hpp"

namespace distmcu::runtime {

/// Everything needed to stand up one deployed tenant. Designated
/// initializers are the intended surface:
///
///   registry.add({.model = model::TransformerConfig::tiny_llama_42m(),
///                 .chips = 4,
///                 .precision = runtime::Precision::int8,
///                 .kv_layout = runtime::KvLayout::int8,
///                 .prefill_chunk_tokens = 4});
///
/// The registry builds and OWNS the InferenceSession a spec describes
/// (shared_ptr lifetime — no dangling session references), so callers
/// never juggle session objects next to registration arguments.
struct DeploymentSpec {
  model::TransformerConfig model;
  int chips = 1;
  /// Arithmetic precision of the block program; int8 gives the block an
  /// int8 weight set, so its FFN and attention-output GEMMs run through
  /// quant::int_kernels with int32 all-reduce partials, and prices the
  /// cost model at int8 rates.
  Precision precision = Precision::fp16;
  /// KV-entry storage layout; packed int8/int4 require an int8
  /// deployment (only its block fake-quantizes the rows it appends).
  KvLayout kv_layout = KvLayout::native;
  /// Prefill mode: 0 = serial whole-prompt at admission; > 0 = chunked
  /// prefill co-scheduled with decode in chunks of this many tokens.
  int prefill_chunk_tokens = 0;
  /// Registry name; empty uses model.name.
  std::string name;
  /// Shared-KV-arena knobs (same semantics as the legacy add()).
  int kv_quota = 0;
  int max_resident = 0;
  /// Platform the deployment runs on, and the weight-init seed (specs
  /// with equal model/chips/system/seed build bit-identical sessions).
  SystemConfig system = SystemConfig::siracusa_system();
  std::uint64_t seed = 42;

  /// Effective registry name.
  [[nodiscard]] const std::string& deployment_name() const {
    return name.empty() ? model.name : name;
  }

  /// Throws distmcu::Error on an inconsistent spec. The precision rules
  /// mirror what the int8 block can actually honor: packed KV layouts
  /// need its fake-quantizing append, and its FFN decomposition is
  /// defined for the classic two-matrix MLP only.
  void validate() const {
    model.validate();
    DISTMCU_CHECK(chips >= 1, "DeploymentSpec: chips must be >= 1");
    DISTMCU_CHECK(prefill_chunk_tokens >= 0,
                  "DeploymentSpec: prefill_chunk_tokens must be >= 0");
    DISTMCU_CHECK(kv_quota >= 0 && max_resident >= 0,
                  "DeploymentSpec: kv_quota/max_resident must be >= 0");
    if (precision == Precision::fp16) {
      DISTMCU_CHECK(
          kv_layout != KvLayout::int8 && kv_layout != KvLayout::int4,
          "DeploymentSpec: packed int8/int4 KV layouts require an int8 "
          "deployment (the float block stores float KV rows)");
    } else {
      DISTMCU_CHECK(model.ffn == model::FfnKind::mlp,
                    "DeploymentSpec: int8 precision supports the classic "
                    "MLP FFN only (SwiGLU has no quantized decomposition)");
    }
  }
};

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_DEPLOYMENT_SPEC_HPP
