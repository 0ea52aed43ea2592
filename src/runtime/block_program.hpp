#ifndef DISTMCU_RUNTIME_BLOCK_PROGRAM_HPP
#define DISTMCU_RUNTIME_BLOCK_PROGRAM_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/config.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "util/units.hpp"

namespace distmcu::runtime {

/// Kernel categories the timed simulation knows how to cost. One op is
/// one Deeploy-style kernel launch on a chip's cluster.
enum class OpKind {
  gemm,          // m x k times k x n (GEMV when m == 1)
  softmax,       // rows m, cols n
  norm,          // rows m, cols n (RMSNorm/LayerNorm)
  elementwise,   // n elements (activation, residual add)
  rope,          // rows m, width n
};

/// One kernel launch with everything the timing model needs: logical
/// dimensions, the stationary-operand bytes that stream L2->L1 (and
/// L3->L2 in the streamed regime), and the KV-cache bytes read.
///
/// `label` names a static kernel ("q_proj", "scores"); per-head kernels
/// also carry the global head index they serve. Lowering allocates no
/// strings: name() formats the display name ("scores_h3") for traces and
/// tables only.
struct KernelOp {
  OpKind kind = OpKind::gemm;
  std::int64_t m = 1;
  std::int64_t n = 1;
  std::int64_t k = 1;
  Bytes weight_bytes = 0;
  Bytes kv_bytes = 0;
  std::string_view label;
  int head = -1;  // -1: not a per-head kernel

  [[nodiscard]] std::string name() const;

  /// Whether two ops cost the same on any chip: identical kind, shape
  /// and streamed bytes. Labels and head indices do not enter the cost.
  [[nodiscard]] bool same_cost_shape(const KernelOp& o) const {
    return kind == o.kind && m == o.m && n == o.n && k == o.k &&
           weight_bytes == o.weight_bytes && kv_bytes == o.kv_bytes;
  }
};

/// The per-chip op lists of one Transformer block under the partition —
/// the deployment IR shared between documentation, the timed simulation,
/// and the cross-checks against the functional executor. Structure
/// mirrors the paper's Fig. 3: a parallel MHSA phase, sync 1 (reduce +
/// root norm + broadcast), a parallel FFN phase, sync 2.
struct BlockProgram {
  model::Mode mode = model::Mode::autoregressive;
  int seq_len = 1;          // S: rows processed by this block
  int attention_span = 1;   // T: KV positions attended

  std::vector<std::vector<KernelOp>> mhsa_phase;  // [chip] -> ops
  std::vector<KernelOp> root_mid;                 // skip-add + norm on the root
  std::vector<std::vector<KernelOp>> ffn_phase;   // [chip] -> ops
  std::vector<KernelOp> root_end;

  /// Bytes of one all-reduce payload (the [S, E] partial output).
  Bytes sync_payload_bytes = 0;

  [[nodiscard]] int num_chips() const { return static_cast<int>(mhsa_phase.size()); }

  /// Total stationary weight bytes a chip touches in one block — must
  /// equal the planner's shard size (asserted in tests).
  [[nodiscard]] Bytes chip_weight_bytes(int chip) const;

  /// Total KV bytes a chip reads in one block.
  [[nodiscard]] Bytes chip_kv_bytes(int chip) const;

  /// Number of kernel launches on one chip (drives per-launch overhead —
  /// the paper's utilization-loss effect at high chip counts).
  [[nodiscard]] std::size_t chip_num_ops(int chip) const;
};

/// Lower a partition plan to per-chip op lists for one block in `mode`.
///
/// `attention_span_override`, when positive, replaces the mode-derived
/// attention span T (the KV positions each query row's score/context
/// GEMMs run over). Chunked prefill uses it to cost a chunk of C rows
/// that attends to an already-cached prefix: seq_len stays C while the
/// span grows with the chunk's end position. Must be >= the mode's
/// seq_len; 0 keeps the default (prompt: prompt_len, decode:
/// ar_context).
[[nodiscard]] BlockProgram build_block_program(const partition::PartitionPlan& plan,
                                               const partition::PrecisionConfig& precision,
                                               model::Mode mode,
                                               int attention_span_override = 0);

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_BLOCK_PROGRAM_HPP
