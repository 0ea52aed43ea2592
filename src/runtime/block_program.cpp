#include "runtime/block_program.hpp"

#include "util/check.hpp"

namespace distmcu::runtime {

std::string KernelOp::name() const {
  std::string out(label);
  if (head >= 0) out += "_h" + std::to_string(head);
  return out;
}

Bytes BlockProgram::chip_weight_bytes(int chip) const {
  Bytes sum = 0;
  for (const auto& op : mhsa_phase[static_cast<std::size_t>(chip)]) sum += op.weight_bytes;
  for (const auto& op : ffn_phase[static_cast<std::size_t>(chip)]) sum += op.weight_bytes;
  return sum;
}

Bytes BlockProgram::chip_kv_bytes(int chip) const {
  Bytes sum = 0;
  for (const auto& op : mhsa_phase[static_cast<std::size_t>(chip)]) sum += op.kv_bytes;
  for (const auto& op : ffn_phase[static_cast<std::size_t>(chip)]) sum += op.kv_bytes;
  return sum;
}

std::size_t BlockProgram::chip_num_ops(int chip) const {
  return mhsa_phase[static_cast<std::size_t>(chip)].size() +
         ffn_phase[static_cast<std::size_t>(chip)].size();
}

BlockProgram build_block_program(const partition::PartitionPlan& plan,
                                 const partition::PrecisionConfig& precision,
                                 model::Mode mode, int attention_span_override) {
  const model::TransformerConfig& cfg = plan.config();
  BlockProgram prog;
  prog.mode = mode;
  prog.seq_len = mode == model::Mode::prompt ? cfg.prompt_len : 1;
  const bool causal = cfg.mask == model::MaskKind::causal;
  prog.attention_span =
      causal ? (mode == model::Mode::prompt ? cfg.prompt_len : cfg.ar_context)
             : prog.seq_len;
  if (attention_span_override > 0) {
    DISTMCU_CHECK(attention_span_override >= prog.seq_len,
                "build_block_program: attention span must cover the rows "
                "being processed");
    prog.attention_span = attention_span_override;
  }

  const auto e = static_cast<std::int64_t>(cfg.embed_dim);
  const auto s = static_cast<std::int64_t>(prog.seq_len);
  const auto t = static_cast<std::int64_t>(prog.attention_span);
  const auto p = static_cast<std::int64_t>(cfg.head_dim);
  const Bytes wb = precision.weight_bytes;
  const Bytes kvb = precision.kv_bytes;

  prog.sync_payload_bytes =
      static_cast<Bytes>(s) * static_cast<Bytes>(e) * precision.act_bytes;

  prog.mhsa_phase.resize(static_cast<std::size_t>(plan.num_chips()));
  prog.ffn_phase.resize(static_cast<std::size_t>(plan.num_chips()));

  for (int c = 0; c < plan.num_chips(); ++c) {
    const partition::ChipSlice& slice = plan.slice(c);
    const auto pw = static_cast<std::int64_t>(plan.proj_width(c));
    const auto fw = static_cast<std::int64_t>(slice.f_width());
    auto& mhsa = prog.mhsa_phase[static_cast<std::size_t>(c)];
    auto& ffn = prog.ffn_phase[static_cast<std::size_t>(c)];
    mhsa.reserve(static_cast<std::size_t>(6 + 3 * slice.num_heads()));
    ffn.reserve(5);

    // --- MHSA: projections for the owned heads ------------------------
    const Bytes proj_w = static_cast<Bytes>(e * pw) * wb;
    mhsa.push_back({OpKind::gemm, s, pw, e, proj_w, 0, "q_proj"});
    mhsa.push_back({OpKind::gemm, s, pw, e, proj_w, 0, "k_proj"});
    mhsa.push_back({OpKind::gemm, s, pw, e, proj_w, 0, "v_proj"});
    if (cfg.pos == model::PosEmbed::rope) {
      mhsa.push_back({OpKind::rope, s, pw, 1, 0, 0, "rope_q"});
      mhsa.push_back({OpKind::rope, s, pw, 1, 0, 0, "rope_k"});
    }
    // --- attention, one kernel triple per owned head ------------------
    // Per-head kernels are what Deeploy emits; their per-launch overhead
    // is the source of the sub-linear kernel scaling the paper reports
    // when slices shrink.
    const Bytes head_kv = static_cast<Bytes>(t * p) * kvb;
    for (int h = slice.head_begin; h < slice.head_end; ++h) {
      mhsa.push_back({OpKind::gemm, s, t, p, 0, head_kv, "scores", h});
      mhsa.push_back({OpKind::softmax, s, t, 1, 0, 0, "softmax", h});
      mhsa.push_back({OpKind::gemm, s, p, t, 0, head_kv, "context", h});
    }
    // --- output projection: the chip's rows of WO ----------------------
    mhsa.push_back(
        {OpKind::gemm, s, e, pw, static_cast<Bytes>(pw * e) * wb, 0, "out_proj"});

    // --- FFN: the chip's slice of F ------------------------------------
    ffn.push_back({OpKind::gemm, s, fw, e, static_cast<Bytes>(e * fw) * wb, 0, "ffn_w1"});
    ffn.push_back({OpKind::elementwise, 1, s * fw, 1, 0, 0, "ffn_act"});
    if (cfg.ffn == model::FfnKind::swiglu) {
      ffn.push_back(
          {OpKind::gemm, s, fw, e, static_cast<Bytes>(e * fw) * wb, 0, "ffn_w3"});
      ffn.push_back({OpKind::elementwise, 1, s * fw, 1, 0, 0, "ffn_gate_mul"});
    }
    ffn.push_back({OpKind::gemm, s, e, fw, static_cast<Bytes>(fw * e) * wb, 0, "ffn_w2"});
  }

  // --- root work between reduce and broadcast -------------------------
  // Skip-connection merge (folded into the reduction) plus the
  // normalization the paper performs on a single chip.
  prog.root_mid = {{OpKind::elementwise, 1, s * e, 1, 0, 0, "skip_add_1"},
                   {OpKind::norm, s, e, 1, 0, 0, "norm_1"}};
  prog.root_end = {{OpKind::elementwise, 1, s * e, 1, 0, 0, "skip_add_2"},
                   {OpKind::norm, s, e, 1, 0, 0, "norm_2"}};

  // Cross-check against the planner's shard accounting.
  for (int c = 0; c < plan.num_chips(); ++c) {
    DISTMCU_CHECK(prog.chip_weight_bytes(c) == plan.chip_block_weight_elems(c) * wb,
                "build_block_program: op weight bytes disagree with plan shard");
  }
  return prog;
}

}  // namespace distmcu::runtime
