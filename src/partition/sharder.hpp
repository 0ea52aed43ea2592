#ifndef DISTMCU_PARTITION_SHARDER_HPP
#define DISTMCU_PARTITION_SHARDER_HPP

#include <cstdint>
#include <vector>

#include "model/config.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"
#include "partition/plan.hpp"
#include "quant/quantize.hpp"

namespace distmcu::partition {

/// One chip's slice of one block's weights, materialized as tensors the
/// functional distributed executor feeds straight into the kernels
/// (paper Fig. 3 colouring):
///   wq/wk/wv : [E, pw]  — columns of the head range
///   wo       : [pw, E]  — the matching rows of WO
///   w1       : [E, fw]  — columns of the FFN range
///   w2       : [fw, E]  — the matching rows of W2
struct WeightShard {
  model::Tensor wq;
  model::Tensor wk;
  model::Tensor wv;
  model::Tensor wo;
  model::Tensor w1;
  model::Tensor w2;
  model::Tensor w3;  // SwiGLU gate slice (empty for the plain MLP)

  [[nodiscard]] std::uint64_t num_elems() const {
    return wq.size() + wk.size() + wv.size() + wo.size() + w1.size() + w2.size() +
           w3.size();
  }
};

/// Splits full model weights according to a PartitionPlan. Norm
/// parameters are NOT sharded: the paper normalizes on a single chip
/// between the reduce and the broadcast, so they live on the root only.
class ShardedWeights {
 public:
  ShardedWeights(const model::Weights& weights, const PartitionPlan& plan);

  [[nodiscard]] const WeightShard& shard(int chip, int layer) const;
  [[nodiscard]] int num_chips() const { return n_chips_; }
  [[nodiscard]] int num_layers() const { return n_layers_; }

  /// Sum of shard elements across chips for `layer` — tests assert this
  /// equals the unsharded block exactly (zero duplication, full
  /// coverage).
  [[nodiscard]] std::uint64_t layer_elem_sum(int layer) const;

 private:
  int n_chips_;
  int n_layers_;
  std::vector<WeightShard> shards_;  // [chip * n_layers + layer]
};

/// One chip's int8 copy of one block's WO [pw, E], W1 [E, fw] and
/// W2 [fw, E] shards.
struct Int8Shard {
  std::vector<std::int8_t> wo;
  std::vector<std::int8_t> w1;
  std::vector<std::int8_t> w2;
};

/// One layer of an Int8Weights set: one static scale per tensor, shared
/// by every chip's shard, and the chips' int8 shards.
struct Int8Layer {
  quant::QuantParams wo;
  quant::QuantParams w1;
  quant::QuantParams w2;
  std::vector<Int8Shard> chips;
};

/// The int8 weight set of an A8W8 deployment (the numerics the paper
/// ships), quantized from the float shards. Each tensor's scale is
/// taken over ALL of its shards, which is what a calibration of the
/// unsharded tensor yields and is the same for every chip count: the
/// chips' int32 partials are commensurable on the reduce tree and sum
/// to the same bits under any partitioning. A DistributedBlock given
/// this set runs A8W8; `kv_bits` is the KV entry width its append path
/// stores at (<= 8 fake-quantizes the appended rows).
class Int8Weights {
 public:
  Int8Weights(const model::TransformerConfig& cfg, const ShardedWeights& shards,
              int kv_bits);

  [[nodiscard]] const Int8Layer& layer(int l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] int kv_bits() const { return kv_bits_; }
  [[nodiscard]] int num_chips() const { return n_chips_; }

 private:
  std::vector<Int8Layer> layers_;
  int kv_bits_;
  int n_chips_;
};

}  // namespace distmcu::partition

#endif  // DISTMCU_PARTITION_SHARDER_HPP
