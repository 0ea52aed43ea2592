#ifndef DISTMCU_MODEL_EMBEDDING_HPP
#define DISTMCU_MODEL_EMBEDDING_HPP

#include <span>
#include <vector>

#include "kernels/view.hpp"
#include "model/config.hpp"
#include "model/tensor.hpp"

namespace distmcu::model {

/// Token embedding table with a tied LM head (logits = x * table^T), the
/// minimal vocabulary machinery the end-to-end generation examples need.
/// Embeddings never live in MCU on-chip memory (they stream row-wise from
/// L3 at lookup), so they are excluded from the block-level memory
/// planning, matching the paper's per-block scope.
class Embedding {
 public:
  Embedding(const TransformerConfig& cfg, std::uint64_t seed);

  /// [ids.size(), E] matrix of embedding rows.
  [[nodiscard]] Tensor lookup(const std::vector<int>& ids) const;

  /// The embedding rows of `ids` into `out` [ids.size(), E].
  void lookup(std::span<const int> ids, std::span<float> out) const;

  /// Logits [x.rows, vocab] with the tied head.
  [[nodiscard]] Tensor logits(const Tensor& x) const;

  /// argmax over the last row's logits — greedy decoding.
  [[nodiscard]] int greedy_next(const Tensor& x) const;

  /// Greedy token of every row of `x` [rows, E] into `out`: one LM-head
  /// GEMM over all rows into `logits` (grown to [rows, vocab] as
  /// needed), then each row's argmax (the lowest id among ties).
  void greedy_rows(kernels::ConstView x, std::vector<float>& logits,
                   std::span<int> out) const;

  [[nodiscard]] int vocab_size() const { return table_.rows(); }
  [[nodiscard]] int embed_dim() const { return table_.cols(); }

 private:
  Tensor table_;  // [vocab, E]
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_EMBEDDING_HPP
