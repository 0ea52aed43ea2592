#ifndef DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP
#define DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"

namespace distmcu::partition {

/// Communication accounting of one distributed block execution —
/// cross-checked by tests against the timed simulation's C2C byte
/// counters (both must derive the same traffic from the same plan).
struct CommRecord {
  int reduces = 0;
  int broadcasts = 0;
  std::uint64_t payload_elems = 0;    // elements per [S, E] partial buffer
  std::uint64_t total_hop_elems = 0;  // sum over all hops of payload elems

  [[nodiscard]] int synchronizations() const { return reduces; }
};

/// One request's rows inside a stacked forward: the groups of a forward
/// sit back to back in its input, in order. Its K/V rows are appended at
/// positions [pos_offset, pos_offset + rows) and its queries attend over
/// [0, pos_offset + rows), through the page table `pages` (the serving
/// engine's row store) or the dense set `caches` ([chip][layer], the
/// one-page case); with neither, the rows attend among themselves.
struct RowGroup {
  std::vector<std::vector<model::KvCache>>* caches = nullptr;
  int pos_offset = 0;
  int rows = 0;
  model::KvPageTable pages{};
};

/// Scratch of the stacked forward, owned by its caller (a serving
/// tenant, one generate() call) and reused across layers and steps.
/// Every buffer grows on first use to the largest stack seen and never
/// shrinks, so a forward into a warmed workspace allocates nothing.
/// Contents carry no meaning between calls. `x`, `y` and `logits` are
/// left to the caller (the layer stream and the LM head).
struct ForwardWorkspace {
  std::vector<float> x, y, logits;
  std::vector<float> normed, h, q, k, v, scores, hidden, gate;
  std::vector<std::vector<float>> ctx;       // one [rows, pw] context per chip
  std::vector<kernels::ConstView> k_segs, v_segs;  // one head's KV, page by page
  std::vector<std::vector<float>> partials;  // one [rows, E] buffer per chip
  std::vector<std::span<float>> views;       // the partials, for the collectives
  /// A8W8 only: the int8 FFN input and GEMM activations, the W1
  /// accumulator and one int32 [rows, E] partial per chip. Per group:
  /// the scale of the int8 activations whose partials are reduced (WO's
  /// context, W2's hidden), their dequantization scale (times the
  /// weight's), and W1's dequantization scale.
  std::vector<std::int8_t> x8, a8;
  std::vector<std::int32_t> acc;
  std::vector<std::vector<std::int32_t>> int_partials;
  std::vector<std::span<std::int32_t>> int_views;
  std::vector<float> act_scale, deq_scale, w1_deq_scale;
  /// RoPE angles of positions [0, rope_positions) for one head width
  /// and base (kernels::rope_table layout), extended on demand.
  std::vector<float> rope;
  int rope_positions = 0;
  int rope_head_dim = 0;
  float rope_base = 0.0f;

  /// The first `n` elements of `buf`, growing it when it is shorter.
  template <typename T>
  static std::span<T> take(std::vector<T>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return {buf.data(), n};
  }
};

/// Functional (numerically real) execution of one Transformer block under
/// the paper's partitioning, following Fig. 3 exactly:
///
///   1. the input X [S, E] is present on every chip (broadcast);
///   2. each chip projects Q/K/V for its own heads, applies RoPE
///      locally, appends its KV-cache slice, runs attention per owned
///      head and applies its rows of WO -> a partial output [S, E];
///   3. hierarchical reduce of partials to the root; the skip connection
///      is merged into the reduction (the root holds the full input);
///      the root normalizes and broadcasts;
///   4. the FFN repeats the pattern along the F dimension.
///
/// Exactly two reduce+broadcast synchronizations per block; no weight is
/// present on more than one chip. Every test of the partitioning scheme
/// validates this class against the single-chip ReferenceModel.
///
/// Given an Int8Weights set the block runs A8W8 instead, with token
/// streams bit-exact for any chip count and any reduce-tree shape:
///  * QKV, RoPE and attention stay float (each head touches only its own
///    weight columns and KV slice, so regrouping heads cannot change a
///    value); with kv_bits <= 8 each appended K/V row is fake-quantized
///    per head sub-slice (a per-row scale would mix a chip's heads);
///  * WO, W1 and W2 are int8 GEMMs whose int32 partials all-reduce
///    exactly. Each row group quantizes its activations with one scale
///    of its own, over every chip's rows (a global absmax), so stacking
///    groups changes no bit;
///  * the root dequantizes, folds the skip in and normalizes in float.
class DistributedBlock {
 public:
  /// `weights` provides the (root-resident) norm parameters; the matmul
  /// weights come exclusively from `shards`, or for WO/W1/W2 from `int8`
  /// when it is non-null. All references must outlive the block.
  DistributedBlock(const model::TransformerConfig& cfg, const model::Weights& weights,
                   const ShardedWeights& shards, const PartitionPlan& plan,
                   const noc::Topology& topo, const Int8Weights* int8 = nullptr);

  /// Execute one block over a stack of row groups: `x` [rows, E] holds
  /// the groups' inputs back to back (logically broadcast to all chips)
  /// and `out` [rows, E] receives the block output. The projections, WO,
  /// the FFN, the norms and both reduce+broadcast synchronizations run
  /// once over all rows; RoPE, the KV append and attention run per group
  /// against its own caches and positions. Every output element is the
  /// same sum it is when its group runs alone.
  void forward(ForwardWorkspace& ws, std::span<const float> x, std::span<float> out,
               std::span<const RowGroup> groups, int layer,
               CommRecord* comm = nullptr) const;

  /// The one-group case: `x` is one request's rows at `pos_offset`
  /// against `chip_caches` (nullable), in a fresh workspace.
  [[nodiscard]] model::Tensor forward(const model::Tensor& x, int layer,
                                      std::vector<std::vector<model::KvCache>>* chip_caches,
                                      int pos_offset, CommRecord* comm = nullptr) const;

  /// Per-chip, per-layer KV caches sized for each chip's head slice.
  [[nodiscard]] std::vector<std::vector<model::KvCache>> make_chip_caches(
      int capacity) const;

  /// This partition's KV page row layout (model::KvPageTable::row_offsets):
  /// 2 * proj_width floats per position for each chip and layer, in order.
  [[nodiscard]] std::vector<std::size_t> kv_row_offsets() const;

  [[nodiscard]] const PartitionPlan& plan() const { return plan_; }
  [[nodiscard]] const noc::Topology& topology() const { return topo_; }

 private:
  /// Chip `chip`'s attention context [rows, pw] into `ws.ctx[chip]`.
  void attend(ForwardWorkspace& ws, std::span<const float> x, int chip, int layer,
              std::span<const RowGroup> groups) const;
  /// Every chip's WO partial [rows, E] from its context.
  void wo_partials(ForwardWorkspace& ws, std::span<const RowGroup> groups, int layer) const;
  /// Every chip's FFN partial [rows, E] from the broadcast input `h`.
  void ffn_partials(ForwardWorkspace& ws, std::span<const float> h,
                    std::span<const RowGroup> groups, int layer) const;
  void root_norm(std::span<const float> x, const model::Tensor& gamma,
                 const model::Tensor& beta, std::span<float> out) const;
  void apply_activation(std::span<float> t) const;
  /// The workspace's RoPE table, extended to cover `positions`.
  [[nodiscard]] std::span<const float> rope_table(ForwardWorkspace& ws, int positions) const;

  /// Reduce the per-chip partials (tree order) and merge the skip
  /// tensor; the result lands in the root's partial. Records comm stats.
  void reduce_with_skip(ForwardWorkspace& ws, std::span<const float> skip,
                        std::span<const RowGroup> groups, CommRecord* comm) const;
  void record_broadcast(std::uint64_t elems, CommRecord* comm) const;

  const model::TransformerConfig& cfg_;
  const model::Weights& weights_;
  const ShardedWeights& shards_;
  const PartitionPlan& plan_;
  const noc::Topology& topo_;
  const Int8Weights* int8_;
};

}  // namespace distmcu::partition

#endif  // DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP
