#include "partition/distributed_block.hpp"

#include <algorithm>
#include <span>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "noc/collectives.hpp"
#include "quant/int_kernels.hpp"
#include "util/check.hpp"

namespace distmcu::partition {

namespace {

/// Calls `fn(g, first, count)` for every group `g` with the element
/// range [first, first + count) of its rows in a [rows, width] buffer.
template <typename Fn>
void for_each_group(std::span<const RowGroup> groups, int width, Fn&& fn) {
  std::size_t first = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t count =
        static_cast<std::size_t>(groups[g].rows) * static_cast<std::size_t>(width);
    fn(g, first, count);
    first += count;
  }
}

/// Each group's rows of `src` [rows, width] quantized into `dst` with
/// that group's scale.
void quantize_groups(std::span<const RowGroup> groups, int width, std::span<const float> src,
                     std::span<const float> scales, std::span<std::int8_t> dst) {
  for_each_group(groups, width, [&](std::size_t g, std::size_t first, std::size_t count) {
    quant::quantize_i8(src.subspan(first, count), {scales[g]}, dst.subspan(first, count));
  });
}

/// Each group's rows of `acc` [rows, width] times that group's scale
/// into `out`.
void dequantize_groups(std::span<const RowGroup> groups, int width,
                       std::span<const std::int32_t> acc, std::span<const float> scales,
                       std::span<float> out) {
  for_each_group(groups, width, [&](std::size_t g, std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) {
      out[i] = static_cast<float>(acc[i]) * scales[g];
    }
  });
}

}  // namespace

DistributedBlock::DistributedBlock(const model::TransformerConfig& cfg,
                                   const model::Weights& weights,
                                   const ShardedWeights& shards, const PartitionPlan& plan,
                                   const noc::Topology& topo, const Int8Weights* int8)
    : cfg_(cfg), weights_(weights), shards_(shards), plan_(plan), topo_(topo), int8_(int8) {
  DISTMCU_CHECK(topo.num_chips() == plan.num_chips(),
              "DistributedBlock: topology/plan chip count mismatch");
  DISTMCU_CHECK(shards.num_chips() == plan.num_chips(),
              "DistributedBlock: shards/plan chip count mismatch");
  DISTMCU_CHECK(int8 == nullptr || int8->num_chips() == plan.num_chips(),
                "DistributedBlock: int8 weights/plan chip count mismatch");
}

std::vector<std::vector<model::KvCache>> DistributedBlock::make_chip_caches(
    int capacity) const {
  std::vector<std::vector<model::KvCache>> caches;
  caches.reserve(static_cast<std::size_t>(plan_.num_chips()));
  for (int c = 0; c < plan_.num_chips(); ++c) {
    std::vector<model::KvCache> per_layer;
    per_layer.reserve(static_cast<std::size_t>(cfg_.num_layers));
    for (int l = 0; l < cfg_.num_layers; ++l) {
      per_layer.emplace_back(capacity, plan_.proj_width(c));
    }
    caches.push_back(std::move(per_layer));
  }
  return caches;
}

std::vector<std::size_t> DistributedBlock::kv_row_offsets() const {
  std::vector<std::size_t> offsets{0};
  for (int c = 0; c < plan_.num_chips(); ++c) {
    for (int l = 0; l < cfg_.num_layers; ++l) {
      offsets.push_back(offsets.back() + 2 * static_cast<std::size_t>(plan_.proj_width(c)));
    }
  }
  return offsets;
}

void DistributedBlock::root_norm(std::span<const float> x, const model::Tensor& gamma,
                                 const model::Tensor& beta, std::span<float> out) const {
  const int e = cfg_.embed_dim;
  const int rows = static_cast<int>(x.size()) / e;
  if (cfg_.norm == model::NormKind::rmsnorm) {
    kernels::rmsnorm_rows(x, gamma.span(), out, rows, e, cfg_.norm_eps);
  } else {
    kernels::layernorm_rows(x, gamma.span(), beta.span(), out, rows, e, cfg_.norm_eps);
  }
}

void DistributedBlock::apply_activation(std::span<float> t) const {
  switch (cfg_.act) {
    case model::Activation::gelu: kernels::gelu(t); break;
    case model::Activation::silu: kernels::silu(t); break;
    case model::Activation::relu: kernels::relu(t); break;
  }
}

std::span<const float> DistributedBlock::rope_table(ForwardWorkspace& ws,
                                                   int positions) const {
  const int p = cfg_.head_dim;
  if (ws.rope_head_dim != p || ws.rope_base != cfg_.rope_base) {
    ws.rope_positions = 0;
    ws.rope_head_dim = p;
    ws.rope_base = cfg_.rope_base;
  }
  if (ws.rope_positions < positions) {
    const auto from = static_cast<std::size_t>(ws.rope_positions) * static_cast<std::size_t>(p);
    ws.rope.resize(static_cast<std::size_t>(positions) * static_cast<std::size_t>(p));
    kernels::rope_table(std::span<float>(ws.rope).subspan(from), ws.rope_positions,
                        positions - ws.rope_positions, p, cfg_.rope_base);
    ws.rope_positions = positions;
  }
  return ws.rope;
}

void DistributedBlock::attend(ForwardWorkspace& ws, std::span<const float> x, int chip,
                              int layer, std::span<const RowGroup> groups) const {
  const WeightShard& w = shards_.shard(chip, layer);
  const int e = cfg_.embed_dim;
  const int s = static_cast<int>(x.size()) / e;
  const int p = cfg_.head_dim;
  const int pw = plan_.proj_width(chip);
  const int local_heads = plan_.slice(chip).num_heads();
  const auto sp = static_cast<std::size_t>(s) * static_cast<std::size_t>(pw);

  const kernels::ConstView xv(x, s, e);
  const kernels::View q(ForwardWorkspace::take(ws.q, sp), s, pw);
  const kernels::View k(ForwardWorkspace::take(ws.k, sp), s, pw);
  const kernels::View v(ForwardWorkspace::take(ws.v, sp), s, pw);
  const kernels::View ctx(
      ForwardWorkspace::take(ws.ctx[static_cast<std::size_t>(chip)], sp), s, pw);
  kernels::gemm(xv, w.wq.view(), q);
  kernels::gemm(xv, w.wk.view(), k);
  kernels::gemm(xv, w.wv.view(), v);

  const bool causal = cfg_.mask == model::MaskKind::causal;
  const bool packed_kv = int8_ != nullptr && int8_->kv_bits() <= quant::kInt8Bits;
  const auto slice = static_cast<std::size_t>(chip) * static_cast<std::size_t>(cfg_.num_layers) +
                     static_cast<std::size_t>(layer);
  int row0 = 0;
  for (const RowGroup& g : groups) {
    const int r1 = row0 + g.rows;
    const int len = g.pos_offset + g.rows;
    const kernels::View qg = q.row_range(row0, r1);
    const kernels::View kg = k.row_range(row0, r1);
    const kernels::View vg = v.row_range(row0, r1);
    // The group's KV rows of this chip and layer (a dense cache is the
    // one-page table), and a position bound that sizes the RoPE table
    // and the score scratch once, so neither grows as the request does.
    model::KvPageView kv;
    if (g.caches != nullptr) {
      model::KvCache& cache =
          (*g.caches)[static_cast<std::size_t>(chip)][static_cast<std::size_t>(layer)];
      DISTMCU_CHECK(cache.length() == g.pos_offset,
                    "DistributedBlock::forward: cache length != the group's position");
      kv = cache.extend(len);
    } else if (!g.pages.table.empty()) {
      kv = g.pages.slice(slice);
    }
    const int bound = std::max(len, kv.base != nullptr ? cfg_.ar_context : g.rows);
    if (cfg_.pos == model::PosEmbed::rope) {
      // RoPE depends only on the absolute position, never on the head
      // index, so each chip rotates its own slice with no communication.
      const std::span<const float> angles =
          rope_table(ws, bound)
              .subspan(static_cast<std::size_t>(g.pos_offset) * static_cast<std::size_t>(p),
                       static_cast<std::size_t>(g.rows) * static_cast<std::size_t>(p));
      for (int h = 0; h < local_heads; ++h) {
        kernels::rope_apply(qg.col_range(h * p, (h + 1) * p), angles);
        kernels::rope_apply(kg.col_range(h * p, (h + 1) * p), angles);
      }
    }
    if (packed_kv) {
      // Packed KV: the rows this group stores and attends over carry the
      // packed layout's information. Per-head scales (not per-row) keep
      // the values independent of which heads share a chip's row.
      const auto width = static_cast<std::size_t>(p);
      for (int r = 0; r < g.rows; ++r) {
        for (int h = 0; h < local_heads; ++h) {
          const auto c0 = static_cast<std::size_t>(h * p);
          quant::fake_quantize({kg.row(r) + c0, width}, int8_->kv_bits());
          quant::fake_quantize({vg.row(r) + c0, width}, int8_->kv_bits());
        }
      }
    }
    // Append through the page table, then attend page by page: one
    // segment per page the group's positions reach (its own rows alone
    // without KV).
    for (int r = 0; kv.base != nullptr && r < g.rows; ++r) {
      std::copy(kg.row(r), kg.row(r) + pw, kv.k_row(g.pos_offset + r));
      std::copy(vg.row(r), vg.row(r) + pw, kv.v_row(g.pos_offset + r));
    }
    const int pt = kv.base != nullptr ? kv.page_tokens : bound;
    const auto n_segs = static_cast<std::size_t>((len + pt - 1) / pt);
    const auto max_segs = static_cast<std::size_t>((bound + pt - 1) / pt);
    const std::span<kernels::ConstView> k_segs =
        ForwardWorkspace::take(ws.k_segs, max_segs).first(n_segs);
    const std::span<kernels::ConstView> v_segs =
        ForwardWorkspace::take(ws.v_segs, max_segs).first(n_segs);
    const std::span<float> scores = ForwardWorkspace::take(
        ws.scores, static_cast<std::size_t>(g.rows) * static_cast<std::size_t>(bound));
    for (int h = 0; h < local_heads; ++h) {
      const int c0 = h * p;
      const int c1 = c0 + p;
      if (kv.base == nullptr) {
        k_segs[0] = kg.col_range(c0, c1);
        v_segs[0] = vg.col_range(c0, c1);
      } else {
        for (std::size_t i = 0; i < n_segs; ++i) {
          const int seg_rows = std::min(pt, len - static_cast<int>(i) * pt);
          const float* page = kv.page(static_cast<int>(i));
          k_segs[i] = kernels::ConstView(page + c0, seg_rows, p, pw);
          v_segs[i] = kernels::ConstView(page + kv.v_offset() + c0, seg_rows, p, pw);
        }
      }
      kernels::attention_head(qg.col_range(c0, c1), k_segs, v_segs,
                              ctx.row_range(row0, r1).col_range(c0, c1), causal,
                              g.pos_offset, scores);
    }
    row0 = r1;
  }
}

void DistributedBlock::wo_partials(ForwardWorkspace& ws, std::span<const RowGroup> groups,
                                   int layer) const {
  const int e = cfg_.embed_dim;
  const int n = plan_.num_chips();
  const int s = static_cast<int>(ws.views.front().size()) / e;
  const auto context = [&](int c) {
    const int pw = plan_.proj_width(c);
    return kernels::ConstView(
        std::span<const float>(ws.ctx[static_cast<std::size_t>(c)])
            .first(static_cast<std::size_t>(s) * static_cast<std::size_t>(pw)),
        s, pw);
  };
  if (int8_ == nullptr) {
    // Each chip's rows of WO applied to its context slice.
    for (int c = 0; c < n; ++c) {
      kernels::gemm(context(c), shards_.shard(c, layer).wo.view(),
                    kernels::View(ws.views[static_cast<std::size_t>(c)], s, e));
    }
    return;
  }
  // One activation scale per group over every chip's context rows: a
  // global absmax is invariant to head grouping, so the chips' int32
  // partials are commensurable and their tree sum is exact.
  const Int8Layer& lq = int8_->layer(layer);
  const std::span<float> scale = ForwardWorkspace::take(ws.act_scale, groups.size());
  const std::span<float> deq = ForwardWorkspace::take(ws.deq_scale, groups.size());
  std::fill(scale.begin(), scale.end(), 0.0f);
  for (int c = 0; c < n; ++c) {
    const kernels::ConstView ctx = context(c);
    for_each_group(groups, ctx.cols, [&](std::size_t g, std::size_t first, std::size_t count) {
      scale[g] = std::max(scale[g], quant::absmax({ctx.data + first, count}));
    });
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    scale[g] = quant::QuantParams::from_absmax(scale[g], quant::kInt8Bits).scale;
    deq[g] = scale[g] * lq.wo.scale;
  }
  for (int c = 0; c < n; ++c) {
    const kernels::ConstView ctx = context(c);
    const std::span<std::int8_t> a8 = ForwardWorkspace::take(
        ws.a8, static_cast<std::size_t>(s) * static_cast<std::size_t>(ctx.cols));
    quantize_groups(groups, ctx.cols, {ctx.data, a8.size()}, scale, a8);
    quant::gemm_i8_i32(a8, lq.chips[static_cast<std::size_t>(c)].wo,
                       ws.int_views[static_cast<std::size_t>(c)], s, e, ctx.cols);
  }
}

void DistributedBlock::ffn_partials(ForwardWorkspace& ws, std::span<const float> h,
                                    std::span<const RowGroup> groups, int layer) const {
  const int e = cfg_.embed_dim;
  const int s = static_cast<int>(h.size()) / e;
  const int n = plan_.num_chips();
  const kernels::ConstView hv(h, s, e);
  if (int8_ == nullptr) {
    for (int c = 0; c < n; ++c) {
      const WeightShard& w = shards_.shard(c, layer);
      const int fw = plan_.slice(c).f_width();
      const auto sf = static_cast<std::size_t>(s) * static_cast<std::size_t>(fw);
      const std::span<float> hidden = ForwardWorkspace::take(ws.hidden, sf);
      kernels::gemm(hv, w.w1.view(), kernels::View(hidden, s, fw));
      apply_activation(hidden);
      if (cfg_.ffn == model::FfnKind::swiglu) {
        // The gate shards along F exactly like W1: chip-local, zero comm.
        const std::span<float> gate = ForwardWorkspace::take(ws.gate, sf);
        kernels::gemm(hv, w.w3.view(), kernels::View(gate, s, fw));
        kernels::mul_inplace(hidden, gate);
      }
      kernels::gemm(kernels::ConstView(hidden, s, fw), w.w2.view(),
                    kernels::View(ws.views[static_cast<std::size_t>(c)], s, e));
    }
    return;
  }
  // Every chip holds the broadcast input, so each derives the same
  // per-group scales with no extra synchronization. The hidden
  // activations requantize with a bound known from those alone:
  // |hidden| <= |x|max * |w1|max * E.
  const Int8Layer& lq = int8_->layer(layer);
  const std::span<float> w1_deq = ForwardWorkspace::take(ws.w1_deq_scale, groups.size());
  const std::span<float> scale = ForwardWorkspace::take(ws.act_scale, groups.size());
  const std::span<float> deq = ForwardWorkspace::take(ws.deq_scale, groups.size());
  const std::span<std::int8_t> x8 = ForwardWorkspace::take(ws.x8, h.size());
  for_each_group(groups, e, [&](std::size_t g, std::size_t first, std::size_t count) {
    const quant::QuantParams x_params =
        quant::choose_params(h.subspan(first, count), quant::kInt8Bits);
    quant::quantize_i8(h.subspan(first, count), x_params, x8.subspan(first, count));
    const float x_absmax = x_params.scale * 127.0f;
    const float w1_absmax_global = lq.w1.scale * 127.0f;
    const float hidden_bound = x_absmax * w1_absmax_global * static_cast<float>(e);
    w1_deq[g] = x_params.scale * lq.w1.scale;
    scale[g] = quant::QuantParams::from_absmax(hidden_bound, quant::kInt8Bits).scale;
    deq[g] = scale[g] * lq.w2.scale;
  });
  for (int c = 0; c < n; ++c) {
    const Int8Shard& w = lq.chips[static_cast<std::size_t>(c)];
    const int fw = plan_.slice(c).f_width();
    const auto sf = static_cast<std::size_t>(s) * static_cast<std::size_t>(fw);
    const std::span<std::int32_t> acc = ForwardWorkspace::take(ws.acc, sf);
    const std::span<float> hidden = ForwardWorkspace::take(ws.hidden, sf);
    const std::span<std::int8_t> a8 = ForwardWorkspace::take(ws.a8, sf);
    quant::gemm_i8_i32(x8, w.w1, acc, s, fw, e);
    dequantize_groups(groups, fw, acc, w1_deq, hidden);
    apply_activation(hidden);
    quantize_groups(groups, fw, hidden, scale, a8);
    quant::gemm_i8_i32(a8, w.w2, ws.int_views[static_cast<std::size_t>(c)], s, e, fw);
  }
}

void DistributedBlock::reduce_with_skip(ForwardWorkspace& ws, std::span<const float> skip,
                                        std::span<const RowGroup> groups,
                                        CommRecord* comm) const {
  // The skip connection is merged into the all-reduce (paper Sec. IV):
  // every chip holds the block input, so the root simply folds it in
  // after accumulating the partials.
  const std::span<float> root = ws.views[static_cast<std::size_t>(topo_.root())];
  if (int8_ == nullptr) {
    noc::reduce_numeric(topo_, ws.views);
  } else {
    noc::reduce_numeric(topo_, ws.int_views);
    dequantize_groups(groups, cfg_.embed_dim,
                      ws.int_views[static_cast<std::size_t>(topo_.root())], ws.deq_scale, root);
  }
  kernels::add_inplace(root, skip);
  if (comm != nullptr) {
    comm->reduces += 1;
    comm->payload_elems = root.size();
    comm->total_hop_elems += topo_.hops_per_reduce() * root.size();
  }
}

void DistributedBlock::record_broadcast(std::uint64_t elems, CommRecord* comm) const {
  if (comm != nullptr) {
    comm->broadcasts += 1;
    comm->total_hop_elems += topo_.hops_per_reduce() * elems;
  }
}

void DistributedBlock::forward(ForwardWorkspace& ws, std::span<const float> x,
                               std::span<float> out, std::span<const RowGroup> groups,
                               int layer, CommRecord* comm) const {
  const int e = cfg_.embed_dim;
  int rows = 0;
  for (const RowGroup& g : groups) {
    DISTMCU_CHECK(g.rows > 0, "DistributedBlock::forward: empty row group");
    rows += g.rows;
  }
  const std::size_t size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(e);
  DISTMCU_CHECK(rows > 0 && x.size() == size && out.size() == size,
                "DistributedBlock::forward: input/output size != group rows * E");
  const model::LayerWeights& lw = weights_.layer(layer);
  const int n = plan_.num_chips();
  const auto root = static_cast<std::size_t>(topo_.root());
  ws.partials.resize(static_cast<std::size_t>(n));
  ws.views.resize(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < ws.partials.size(); ++c) {
    ws.views[c] = ForwardWorkspace::take(ws.partials[c], size);
  }
  ws.ctx.resize(static_cast<std::size_t>(n));
  if (int8_ != nullptr) {
    ws.int_partials.resize(static_cast<std::size_t>(n));
    ws.int_views.resize(static_cast<std::size_t>(n));
    for (std::size_t c = 0; c < ws.int_partials.size(); ++c) {
      ws.int_views[c] = ForwardWorkspace::take(ws.int_partials[c], size);
    }
  }

  // --- MHSA phase -------------------------------------------------------
  // Pre-norm models normalize the broadcast input locally on every chip
  // (replicated O(S*E) work, zero communication — Megatron-style);
  // post-norm (paper Fig. 3) feeds x directly.
  std::span<const float> attn_in = x;
  if (cfg_.pre_norm) {
    const std::span<float> normed = ForwardWorkspace::take(ws.normed, size);
    root_norm(x, lw.norm1_gamma, lw.norm1_beta, normed);
    attn_in = normed;
  }
  // Every chip's context exists before any chip runs WO: the int8 WO
  // scales each group over all of them.
  for (int c = 0; c < n; ++c) attend(ws, attn_in, c, layer, groups);
  wo_partials(ws, groups, layer);
  reduce_with_skip(ws, x, groups, comm);

  // Root normalizes (post-norm) and broadcasts; pre-norm broadcasts the
  // residual stream and normalizes locally in the FFN phase.
  const std::span<float> h = ForwardWorkspace::take(ws.h, size);
  if (cfg_.pre_norm) {
    std::copy(ws.views[root].begin(), ws.views[root].end(), h.begin());
  } else {
    root_norm(ws.views[root], lw.norm1_gamma, lw.norm1_beta, h);
  }
  {
    // Numerically execute the broadcast: non-root chips start from
    // zeroed buffers, so taking the last chip's copy afterwards proves
    // the data really travelled the tree.
    for (std::size_t c = 0; c < ws.views.size(); ++c) {
      if (c == root) {
        std::copy(h.begin(), h.end(), ws.views[c].begin());
      } else {
        std::fill(ws.views[c].begin(), ws.views[c].end(), 0.0f);
      }
    }
    noc::broadcast_numeric(topo_, ws.views);
    record_broadcast(size, comm);
    const std::span<float> any_chip = ws.views.back();
    std::copy(any_chip.begin(), any_chip.end(), h.begin());
  }

  // --- FFN phase ---------------------------------------------------------
  std::span<const float> ffn_in = h;
  if (cfg_.pre_norm) {
    const std::span<float> normed = ForwardWorkspace::take(ws.normed, size);
    root_norm(h, lw.norm2_gamma, lw.norm2_beta, normed);
    ffn_in = normed;
  }
  ffn_partials(ws, ffn_in, groups, layer);
  reduce_with_skip(ws, h, groups, comm);
  if (cfg_.pre_norm) {
    std::copy(ws.views[root].begin(), ws.views[root].end(), out.begin());
  } else {
    root_norm(ws.views[root], lw.norm2_gamma, lw.norm2_beta, out);
  }
  record_broadcast(size, comm);
}

model::Tensor DistributedBlock::forward(const model::Tensor& x, int layer,
                                        std::vector<std::vector<model::KvCache>>* chip_caches,
                                        int pos_offset, CommRecord* comm) const {
  DISTMCU_CHECK(x.cols() == cfg_.embed_dim, "DistributedBlock::forward: input width != E");
  ForwardWorkspace ws;
  model::Tensor out(x.rows(), x.cols());
  const RowGroup group{chip_caches, pos_offset, x.rows()};
  forward(ws, x.span(), out.span(), {&group, 1}, layer, comm);
  return out;
}

}  // namespace distmcu::partition
