#ifndef DISTMCU_RUNTIME_INFERENCE_SESSION_HPP
#define DISTMCU_RUNTIME_INFERENCE_SESSION_HPP

#include <memory>
#include <span>
#include <vector>

#include "energy/energy_model.hpp"
#include "model/config.hpp"
#include "model/embedding.hpp"
#include "model/reference_model.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/precision.hpp"
#include "runtime/timed_simulation.hpp"

namespace distmcu::runtime {

/// One block-level measurement in the paper's reporting unit (runtime and
/// energy for a single Transformer block, weights of the next block
/// double-buffered where applicable).
struct BlockResult {
  RunReport report;
  energy::EnergyBreakdown energy;
  partition::MemoryPlan memory;

  [[nodiscard]] double latency_ms(double freq_hz) const { return report.ms(freq_hz); }
  [[nodiscard]] double energy_mj() const { return energy.total_mj(); }
  [[nodiscard]] double edp_mj_ms(double freq_hz) const {
    return energy.total_mj() * util::cycles_to_ms(report.block_cycles, freq_hz);
  }
};

/// End-to-end generation outcome: the produced tokens plus aggregate
/// simulated cost (per-token block measurements scaled by layer count).
struct GenerationResult {
  std::vector<int> tokens;          // prompt + generated continuation
  Cycles total_cycles = 0;          // simulated wall-clock
  double total_energy_mj = 0.0;
  int generated = 0;

  [[nodiscard]] double tokens_per_s(double freq_hz) const {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(generated) /
                     util::cycles_to_s(total_cycles, freq_hz);
  }
  [[nodiscard]] double mj_per_token() const {
    return generated == 0 ? 0.0 : total_energy_mj / generated;
  }
};

/// The library's front door: owns the model, the partition, the
/// functional distributed executor, and the timed simulator for one
/// (model, chip-count) deployment.
///
///   InferenceSession session(model::TransformerConfig::tiny_llama_42m(), 8);
///   auto block = session.run_block(model::Mode::autoregressive);
///   auto gen   = session.generate({1, 17, 42}, 16);
///
/// Functional outputs are produced by the real distributed numerics (so
/// they are testably identical to a single-chip reference), while costs
/// come from the timed platform model.
class InferenceSession {
 public:
  InferenceSession(model::TransformerConfig cfg, int n_chips,
                   SystemConfig sys = SystemConfig::siracusa_system(),
                   std::uint64_t seed = 42);

  /// Build from a DeploymentSpec: validates the spec, applies its
  /// declared Precision to the platform numerics (an int8 spec prices
  /// the cost model at 1-byte-weight / int8-MAC rates), and — for int8
  /// specs — quantizes the shards into the int8 weight set that makes
  /// the block run A8W8.
  explicit InferenceSession(const DeploymentSpec& spec);

  /// The paper's measurement: one Transformer block in `mode`.
  [[nodiscard]] BlockResult run_block(model::Mode mode) const;

  /// Block measurement for one prompt *chunk*: `chunk_tokens` rows whose
  /// attention runs over `attention_span` KV positions (the chunk itself
  /// plus the already-cached prefix). This is the cost unit of the
  /// serving engine's chunked prefill — the deployment's static prompt
  /// shape at chunk granularity. Requires
  /// 0 < chunk_tokens <= attention_span.
  [[nodiscard]] BlockResult run_prompt_chunk(int chunk_tokens,
                                             int attention_span) const;

  /// One measurement per span in `attention_spans`, sharing a single
  /// chunk-shaped partition and memory plan (the shape — and therefore
  /// both plans — depends only on chunk_tokens; only the timed
  /// simulation differs per span).
  [[nodiscard]] std::vector<BlockResult> run_prompt_chunks(
      int chunk_tokens, const std::vector<int>& attention_spans) const;

  /// Greedy end-to-end generation: embeds `prompt` (prefill through the
  /// distributed blocks), then decodes `new_tokens` autoregressively.
  /// Costs accumulate per block from the timed model.
  [[nodiscard]] GenerationResult generate(const std::vector<int>& prompt,
                                          int new_tokens) const;

  /// Encoder forward (MobileBERT-style): runs the full stack over a
  /// token sequence and returns the final hidden states [S, E].
  [[nodiscard]] model::Tensor encode(const std::vector<int>& tokens) const;

  [[nodiscard]] const partition::PartitionPlan& plan() const { return plan_; }
  [[nodiscard]] const model::TransformerConfig& config() const { return cfg_; }
  [[nodiscard]] const SystemConfig& system() const { return sys_; }
  [[nodiscard]] const model::Weights& weights() const { return weights_; }
  [[nodiscard]] const partition::DistributedBlock& block_executor() const {
    return *block_;
  }
  [[nodiscard]] const model::Embedding& embedding() const { return embedding_; }

  [[nodiscard]] Precision precision() const { return precision_; }
  [[nodiscard]] KvLayout kv_layout() const { return kv_layout_; }
  /// Bits one stored KV entry costs under this deployment's layout —
  /// THE number every byte-accounting site (engine, analyzer, pool)
  /// scales by.
  [[nodiscard]] int kv_elem_bits() const {
    return kv_layout_bits(kv_layout_,
                          static_cast<int>(sys_.precision.kv_bytes) * kBitsPerByte);
  }

  /// Block execution of a stack of row groups at the deployment's
  /// precision (see partition::DistributedBlock::forward): `x` and `out`
  /// are [rows, E] with the groups' rows back to back, run at once in
  /// `ws`. All serving-path forwards (engine, generate, encode) go
  /// through here.
  void forward(partition::ForwardWorkspace& ws, std::span<const float> x,
               std::span<float> out, std::span<const partition::RowGroup> groups,
               int layer) const;

  /// The one-group case: one request's rows at `pos_offset` against
  /// `chip_caches` (nullable), in a fresh workspace.
  [[nodiscard]] model::Tensor forward(
      const model::Tensor& x, int layer,
      std::vector<std::vector<model::KvCache>>* chip_caches, int pos_offset) const;

  /// Embeds `ids` (the groups' tokens back to back) and runs them through
  /// every layer. Returns the final hidden states [ids.size(), E], a view
  /// of `ws.x` valid until the workspace's next use.
  [[nodiscard]] std::span<const float> forward_tokens(
      partition::ForwardWorkspace& ws, std::span<const int> ids,
      std::span<const partition::RowGroup> groups) const;

  /// Cache layout is precision-independent: an int8 block stores its
  /// fake-quantized rows in the same float caches.
  [[nodiscard]] std::vector<std::vector<model::KvCache>> make_chip_caches(
      int capacity) const {
    return block_->make_chip_caches(capacity);
  }

 private:
  model::TransformerConfig cfg_;
  SystemConfig sys_;
  model::Weights weights_;
  model::Embedding embedding_;
  partition::PartitionPlan plan_;
  partition::ShardedWeights shards_;
  noc::Topology topo_;
  std::unique_ptr<partition::Int8Weights> int8_;  // int8 deployments only
  std::unique_ptr<partition::DistributedBlock> block_;
  Precision precision_ = Precision::fp16;
  KvLayout kv_layout_ = KvLayout::native;
  TimedBlockSimulation sim_;
  energy::EnergyModel energy_;
};

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_INFERENCE_SESSION_HPP
