#include "partition/sharder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::partition {

ShardedWeights::ShardedWeights(const model::Weights& weights, const PartitionPlan& plan)
    : n_chips_(plan.num_chips()), n_layers_(weights.num_layers()) {
  const model::TransformerConfig& cfg = plan.config();
  DISTMCU_CHECK(weights.config().block_weight_elems() == cfg.block_weight_elems(),
              "ShardedWeights: weights/plan config mismatch");
  const int p = cfg.head_dim;
  shards_.reserve(static_cast<std::size_t>(n_chips_) * static_cast<std::size_t>(n_layers_));
  for (int c = 0; c < n_chips_; ++c) {
    const ChipSlice& s = plan.slice(c);
    const int c0 = s.head_begin * p;
    const int c1 = s.head_end * p;
    for (int l = 0; l < n_layers_; ++l) {
      const model::LayerWeights& w = weights.layer(l);
      WeightShard shard;
      shard.wq = w.wq.slice_cols(c0, c1);
      shard.wk = w.wk.slice_cols(c0, c1);
      shard.wv = w.wv.slice_cols(c0, c1);
      shard.wo = w.wo.slice_rows(c0, c1);
      shard.w1 = w.w1.slice_cols(s.f_begin, s.f_end);
      shard.w2 = w.w2.slice_rows(s.f_begin, s.f_end);
      if (cfg.ffn == model::FfnKind::swiglu) {
        shard.w3 = w.w3.slice_cols(s.f_begin, s.f_end);
      }
      shards_.push_back(std::move(shard));
    }
  }
}

const WeightShard& ShardedWeights::shard(int chip, int layer) const {
  DISTMCU_CHECK(chip >= 0 && chip < n_chips_, "ShardedWeights: chip out of range");
  DISTMCU_CHECK(layer >= 0 && layer < n_layers_, "ShardedWeights: layer out of range");
  return shards_[static_cast<std::size_t>(chip) * static_cast<std::size_t>(n_layers_) +
                 static_cast<std::size_t>(layer)];
}

std::uint64_t ShardedWeights::layer_elem_sum(int layer) const {
  std::uint64_t sum = 0;
  for (int c = 0; c < n_chips_; ++c) sum += shard(c, layer).num_elems();
  return sum;
}

Int8Weights::Int8Weights(const model::TransformerConfig& cfg, const ShardedWeights& shards,
                         int kv_bits)
    : kv_bits_(kv_bits), n_chips_(shards.num_chips()) {
  DISTMCU_CHECK(cfg.ffn == model::FfnKind::mlp,
                "Int8Weights: only the plain MLP FFN is supported");
  const int n = n_chips_;
  layers_.reserve(static_cast<std::size_t>(shards.num_layers()));
  for (int l = 0; l < shards.num_layers(); ++l) {
    float wo_absmax = 0.0f;
    float w1_absmax = 0.0f;
    float w2_absmax = 0.0f;
    for (int c = 0; c < n; ++c) {
      const WeightShard& s = shards.shard(c, l);
      wo_absmax = std::max(wo_absmax, quant::absmax(s.wo.span()));
      w1_absmax = std::max(w1_absmax, quant::absmax(s.w1.span()));
      w2_absmax = std::max(w2_absmax, quant::absmax(s.w2.span()));
    }
    Int8Layer& layer = layers_.emplace_back();
    layer.wo = quant::QuantParams::from_absmax(wo_absmax, quant::kInt8Bits);
    layer.w1 = quant::QuantParams::from_absmax(w1_absmax, quant::kInt8Bits);
    layer.w2 = quant::QuantParams::from_absmax(w2_absmax, quant::kInt8Bits);
    layer.chips.reserve(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      const WeightShard& s = shards.shard(c, l);
      layer.chips.push_back({quant::quantize_i8(s.wo.span(), layer.wo),
                             quant::quantize_i8(s.w1.span(), layer.w1),
                             quant::quantize_i8(s.w2.span(), layer.w2)});
    }
  }
}

}  // namespace distmcu::partition
