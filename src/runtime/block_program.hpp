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
/// also carry the index of the head they serve within the chip's slice,
/// so chips with equal slices share one op list. Lowering allocates no
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
  int head = -1;  // head offset within the chip's slice; -1: not a per-head kernel

  /// Display name on a chip whose slice starts at global head
  /// `first_head`: per-head kernels print the global head index.
  [[nodiscard]] std::string name(int first_head = 0) const;
};

/// One parallel phase of a block: an op list per chip class, and per chip
/// the class it runs and the first global head of its slice. A class is
/// one slice shape (MHSA: projection width and head count; FFN: F
/// width), so an even split lowers one list and an uneven split two.
struct PhaseProgram {
  struct Chip {
    int cls = 0;         // index into `classes`
    int first_head = 0;  // global index of the slice's first head
  };

  std::vector<std::vector<KernelOp>> classes;  // [class] -> ops
  std::vector<Chip> chips;                     // [chip]

  /// The op list `chip` runs (its class's list).
  [[nodiscard]] const std::vector<KernelOp>& ops(int chip) const {
    return classes[static_cast<std::size_t>(chips[static_cast<std::size_t>(chip)].cls)];
  }
};

/// The op lists of one Transformer block under the partition — the
/// deployment IR shared between documentation, the timed simulation,
/// and the cross-checks against the functional executor. Structure
/// mirrors the paper's Fig. 3: a parallel MHSA phase, sync 1 (reduce +
/// root norm + broadcast), a parallel FFN phase, sync 2.
struct BlockProgram {
  model::Mode mode = model::Mode::autoregressive;
  int seq_len = 1;          // S: rows processed by this block
  int attention_span = 1;   // T: KV positions attended

  PhaseProgram mhsa;
  std::vector<KernelOp> root_mid;  // skip-add + norm on the root
  PhaseProgram ffn;
  std::vector<KernelOp> root_end;

  /// Bytes of one all-reduce payload (the [S, E] partial output).
  Bytes sync_payload_bytes = 0;

  [[nodiscard]] int num_chips() const { return static_cast<int>(mhsa.chips.size()); }

  /// Total stationary weight bytes a chip touches in one block — must
  /// equal the planner's shard size (asserted in tests).
  [[nodiscard]] Bytes chip_weight_bytes(int chip) const;

  /// Total KV bytes a chip reads in one block.
  [[nodiscard]] Bytes chip_kv_bytes(int chip) const;

  /// Number of kernel launches on one chip (drives per-launch overhead —
  /// the paper's utilization-loss effect at high chip counts).
  [[nodiscard]] std::size_t chip_num_ops(int chip) const;
};

/// Lower a partition plan to the op lists of one block in `mode`: one
/// representative chip per class is lowered, and every chip's weight
/// bytes are checked against the plan's shard.
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
