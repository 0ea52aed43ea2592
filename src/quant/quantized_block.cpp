#include "quant/quantized_block.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "noc/collectives.hpp"
#include "quant/int_kernels.hpp"
#include "util/check.hpp"

namespace distmcu::quant {

namespace {

constexpr int kActivationBits = 8;  // lint-domain: allow

float absmax_of(std::span<const float> v) {
  float m = 0.0f;
  for (const float x : v) m = std::max(m, std::fabs(x));
  return m;
}

/// In-place fake quantization: round `v` to a symmetric `bits`-wide grid
/// scaled to `absmax`. Mirrors quantize_i8's round-to-nearest + saturate
/// but keeps float storage, so the existing KvCache / checkpoint / CoW
/// machinery is untouched while the stored values carry exactly the
/// packed layout's information content.
void fake_quant_span(std::span<float> v, float absmax, int bits) {
  if (absmax <= 0.0f) return;
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float scale = absmax / qmax;
  for (float& x : v) {
    const float q = std::clamp(std::nearbyintf(x / scale), -qmax, qmax);
    x = q * scale;
  }
}

}  // namespace

QuantizedBlock::QuantizedBlock(const model::TransformerConfig& cfg,
                               const model::Weights& weights,
                               const partition::ShardedWeights& shards,
                               const partition::PartitionPlan& plan,
                               const noc::Topology& topo, int kv_bits)
    : cfg_(cfg),
      weights_(weights),
      shards_(shards),
      plan_(plan),
      topo_(topo),
      kv_bits_(kv_bits) {
  DISTMCU_CHECK(cfg.ffn == model::FfnKind::mlp,
              "QuantizedBlock: only the plain MLP FFN is supported");
  DISTMCU_CHECK(topo.num_chips() == plan.num_chips(),
              "QuantizedBlock: topology/plan chip count mismatch");
  DISTMCU_CHECK(shards.num_chips() == plan.num_chips(),
              "QuantizedBlock: shards/plan chip count mismatch");

  const int n = plan.num_chips();
  layers_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (int l = 0; l < cfg.num_layers; ++l) {
    // Static per-tensor scales computed over ALL shards of the layer —
    // exactly what a Deeploy calibration over the unsharded tensor
    // yields, and (because a global absmax is invariant to how the
    // tensor was cut) identical for every chip count.
    float wo_absmax = 0.0f;
    float w1_absmax = 0.0f;
    float w2_absmax = 0.0f;
    for (int c = 0; c < n; ++c) {
      const partition::WeightShard& s = shards.shard(c, l);
      wo_absmax = std::max(wo_absmax, absmax_of(s.wo.span()));
      w1_absmax = std::max(w1_absmax, absmax_of(s.w1.span()));
      w2_absmax = std::max(w2_absmax, absmax_of(s.w2.span()));
    }
    LayerQuant lq;
    lq.wo_params = QuantParams::from_absmax(wo_absmax, kActivationBits);
    lq.w1_params = QuantParams::from_absmax(w1_absmax, kActivationBits);
    lq.w2_params = QuantParams::from_absmax(w2_absmax, kActivationBits);
    lq.chips.reserve(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      const partition::WeightShard& s = shards.shard(c, l);
      LayerChipShard chip;
      chip.pw = plan.proj_width(c);
      chip.fw = s.w1.cols();
      chip.wo = quantize_i8(s.wo.span(), lq.wo_params);
      chip.w1 = quantize_i8(s.w1.span(), lq.w1_params);
      chip.w2 = quantize_i8(s.w2.span(), lq.w2_params);
      lq.chips.push_back(std::move(chip));
    }
    layers_.push_back(std::move(lq));
  }
}

model::Tensor QuantizedBlock::root_norm(const model::Tensor& x,
                                        const model::Tensor& gamma,
                                        const model::Tensor& beta) const {
  model::Tensor out(x.rows(), x.cols());
  if (cfg_.norm == model::NormKind::rmsnorm) {
    kernels::rmsnorm_rows(x.span(), gamma.span(), out.span(), x.rows(), x.cols(),
                          cfg_.norm_eps);
  } else {
    kernels::layernorm_rows(x.span(), gamma.span(), beta.span(), out.span(), x.rows(),
                            x.cols(), cfg_.norm_eps);
  }
  return out;
}

void QuantizedBlock::apply_activation(std::vector<float>& t) const {
  switch (cfg_.act) {
    case model::Activation::gelu: kernels::gelu(t); break;
    case model::Activation::silu: kernels::silu(t); break;
    case model::Activation::relu: kernels::relu(t); break;
  }
}

model::Tensor QuantizedBlock::attn_context(
    const model::Tensor& x, int chip, int layer,
    std::vector<std::vector<model::KvCache>>* caches, int pos_offset) const {
  // Identical to the float block's MHSA front end: every value here is
  // computed per head from per-head weight columns, so regrouping heads
  // across chips cannot perturb a single bit.
  const partition::WeightShard& w = shards_.shard(chip, layer);
  const int s = x.rows();
  const int e = cfg_.embed_dim;
  const int p = cfg_.head_dim;
  const int pw = plan_.proj_width(chip);
  const int local_heads = plan_.slice(chip).num_heads();

  model::Tensor q(s, pw), k(s, pw), v(s, pw);
  kernels::gemm(x.span(), w.wq.span(), q.span(), s, pw, e);
  kernels::gemm(x.span(), w.wk.span(), k.span(), s, pw, e);
  kernels::gemm(x.span(), w.wv.span(), v.span(), s, pw, e);

  if (cfg_.pos == model::PosEmbed::rope) {
    for (int h = 0; h < local_heads; ++h) {
      kernels::rope_apply(q.view().col_range(h * p, (h + 1) * p), pos_offset,
                          cfg_.rope_base);
      kernels::rope_apply(k.view().col_range(h * p, (h + 1) * p), pos_offset,
                          cfg_.rope_base);
    }
  }

  if (kv_bits_ <= 8) {
    // Packed KV layout: fake-quantize each row's HEAD sub-slices before
    // they enter the cache. Per-head scales (not per-row!) keep the
    // stored values independent of which heads share a chip's row.
    for (int r = 0; r < s; ++r) {
      for (int h = 0; h < local_heads; ++h) {
        auto krow = k.row(r).subspan(static_cast<std::size_t>(h * p),
                                     static_cast<std::size_t>(p));
        auto vrow = v.row(r).subspan(static_cast<std::size_t>(h * p),
                                     static_cast<std::size_t>(p));
        fake_quant_span(krow, absmax_of(krow), kv_bits_);
        fake_quant_span(vrow, absmax_of(vrow), kv_bits_);
      }
    }
  }

  if (caches != nullptr) {
    auto& cache =
        (*caches)[static_cast<std::size_t>(chip)][static_cast<std::size_t>(layer)];
    for (int r = 0; r < s; ++r) cache.append(k.row(r), v.row(r));
  }

  model::Tensor ctx(s, pw);
  const bool causal = cfg_.mask == model::MaskKind::causal;
  const model::KvCache* cache =
      caches == nullptr
          ? nullptr
          : &(*caches)[static_cast<std::size_t>(chip)][static_cast<std::size_t>(layer)];
  std::vector<float> scores;
  for (int h = 0; h < local_heads; ++h) {
    const int c0 = h * p;
    const int c1 = c0 + p;
    const kernels::ConstView kh =
        cache != nullptr ? cache->k_view(c0, c1) : std::as_const(k).view().col_range(c0, c1);
    const kernels::ConstView vh =
        cache != nullptr ? cache->v_view(c0, c1) : std::as_const(v).view().col_range(c0, c1);
    scores.resize(static_cast<std::size_t>(s) * static_cast<std::size_t>(kh.rows));
    kernels::attention_head(std::as_const(q).view().col_range(c0, c1), kh, vh,
                            ctx.view().col_range(c0, c1), causal, pos_offset, scores);
  }
  return ctx;
}

model::Tensor QuantizedBlock::reduce_dequant_skip(
    std::vector<std::vector<std::int32_t>>& partials, float scale, int rows,
    const model::Tensor& skip, partition::CommRecord* comm) const {
  std::vector<std::span<std::int32_t>> views;
  views.reserve(partials.size());
  for (auto& p : partials) views.emplace_back(p);
  noc::reduce_numeric(topo_, views);
  const auto& root = partials[static_cast<std::size_t>(topo_.root())];
  model::Tensor out(rows, cfg_.embed_dim);
  auto span = out.span();
  for (std::size_t i = 0; i < root.size(); ++i) {
    span[i] = static_cast<float>(root[i]) * scale;
  }
  kernels::add_inplace(out.span(), skip.span());
  if (comm != nullptr) {
    comm->reduces += 1;
    comm->payload_elems = root.size();
    comm->total_hop_elems += topo_.hops_per_reduce() * root.size();
  }
  return out;
}

void QuantizedBlock::broadcast(model::Tensor& t, partition::CommRecord* comm) const {
  const int n = topo_.num_chips();
  std::vector<model::Tensor> copies;
  copies.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    copies.push_back(c == topo_.root() ? t : model::Tensor(t.rows(), t.cols()));
  }
  std::vector<std::span<float>> views;
  views.reserve(copies.size());
  for (auto& c : copies) views.emplace_back(c.span());
  noc::broadcast_numeric(topo_, views);
  if (comm != nullptr) {
    comm->broadcasts += 1;
    comm->total_hop_elems += topo_.hops_per_reduce() * t.size();
  }
  t = copies[static_cast<std::size_t>(n - 1)];  // any chip's copy
}

model::Tensor QuantizedBlock::forward(
    const model::Tensor& x, int layer,
    std::vector<std::vector<model::KvCache>>* chip_caches, int pos_offset,
    partition::CommRecord* comm) const {
  DISTMCU_CHECK(x.cols() == cfg_.embed_dim, "QuantizedBlock::forward: input width != E");
  const model::LayerWeights& lw = weights_.layer(layer);
  const LayerQuant& lq = layers_[static_cast<std::size_t>(layer)];
  const int n = plan_.num_chips();
  const int s = x.rows();
  const int e = cfg_.embed_dim;

  // --- MHSA phase -------------------------------------------------------
  const model::Tensor attn_in =
      cfg_.pre_norm ? root_norm(x, lw.norm1_gamma, lw.norm1_beta) : x;

  // Float per-head contexts first (chip-count invariant by locality)...
  std::vector<model::Tensor> contexts;
  contexts.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    contexts.push_back(attn_context(attn_in, c, layer, chip_caches, pos_offset));
  }
  // ...then ONE shared dynamic scale over every chip's context (a global
  // absmax — invariant to head grouping), so the per-chip int32 WO
  // partials are commensurable and their tree-sum is exact.
  float ctx_absmax = 0.0f;
  for (const auto& c : contexts) ctx_absmax = std::max(ctx_absmax, absmax_of(c.span()));
  const QuantParams ctx_params = QuantParams::from_absmax(ctx_absmax, kActivationBits);

  std::vector<std::vector<std::int32_t>> partials(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    const LayerChipShard& chip = lq.chips[static_cast<std::size_t>(c)];
    const auto ctxq = quantize_i8(contexts[static_cast<std::size_t>(c)].span(),
                                  ctx_params);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(e));
    gemm_i8_i32(ctxq, chip.wo, acc, s, e, chip.pw);
    partials[static_cast<std::size_t>(c)] = std::move(acc);
  }
  const model::Tensor a = reduce_dequant_skip(
      partials, ctx_params.scale * lq.wo_params.scale, s, x, comm);

  model::Tensor h = cfg_.pre_norm ? a : root_norm(a, lw.norm1_gamma, lw.norm1_beta);
  broadcast(h, comm);

  // --- FFN phase --------------------------------------------------------
  const model::Tensor ffn_in =
      cfg_.pre_norm ? root_norm(h, lw.norm2_gamma, lw.norm2_beta) : h;
  // Broadcast input => every chip derives the same activation scale with
  // zero extra synchronization (same trick as QuantizedDistributedFfn).
  const QuantParams x_params = choose_params(ffn_in.span(), kActivationBits);
  const auto xq = quantize_i8(ffn_in.span(), x_params);
  // Shared requant scale for the hidden activations, from broadcast-known
  // quantities only: |hidden| <= |x|max * |w1|max_global * E.
  const float x_absmax = x_params.scale * 127.0f;
  const float w1_absmax_global = lq.w1_params.scale * 127.0f;
  const float hidden_bound = x_absmax * w1_absmax_global * static_cast<float>(e);
  const QuantParams h_params = QuantParams::from_absmax(hidden_bound, kActivationBits);

  std::vector<std::vector<std::int32_t>> partials2(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    const LayerChipShard& chip = lq.chips[static_cast<std::size_t>(c)];
    const int fw = chip.fw;
    std::vector<std::int32_t> acc1(static_cast<std::size_t>(s) *
                                   static_cast<std::size_t>(fw));
    gemm_i8_i32(xq, chip.w1, acc1, s, fw, e);
    std::vector<float> hidden(acc1.size());
    const float deq1 = x_params.scale * lq.w1_params.scale;
    for (std::size_t i = 0; i < acc1.size(); ++i) {
      hidden[i] = static_cast<float>(acc1[i]) * deq1;
    }
    apply_activation(hidden);
    const auto hq = quantize_i8(hidden, h_params);
    std::vector<std::int32_t> acc2(static_cast<std::size_t>(s) *
                                   static_cast<std::size_t>(e));
    gemm_i8_i32(hq, chip.w2, acc2, s, e, fw);
    partials2[static_cast<std::size_t>(c)] = std::move(acc2);
  }
  model::Tensor out = reduce_dequant_skip(
      partials2, h_params.scale * lq.w2_params.scale, s, h, comm);
  if (!cfg_.pre_norm) out = root_norm(out, lw.norm2_gamma, lw.norm2_beta);
  broadcast(out, comm);
  return out;
}

}  // namespace distmcu::quant
