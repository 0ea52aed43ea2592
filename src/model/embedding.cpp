#include "model/embedding.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/gemm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace distmcu::model {

Embedding::Embedding(const TransformerConfig& cfg, std::uint64_t seed)
    : table_(cfg.vocab_size, cfg.embed_dim) {
  util::Rng rng(seed ^ 0xe5b5u);
  table_.random_init(rng, 1.0f / std::sqrt(static_cast<float>(cfg.embed_dim)));
}

Tensor Embedding::lookup(const std::vector<int>& ids) const {
  DISTMCU_CHECK(!ids.empty(), "Embedding::lookup: empty id list");
  Tensor out(static_cast<int>(ids.size()), table_.cols());
  lookup(ids, out.span());
  return out;
}

void Embedding::lookup(std::span<const int> ids, std::span<float> out) const {
  DISTMCU_CHECK(!ids.empty(), "Embedding::lookup: empty id list");
  const auto e = static_cast<std::size_t>(table_.cols());
  DISTMCU_CHECK(out.size() == ids.size() * e, "Embedding::lookup: output size mismatch");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    DISTMCU_CHECK(ids[i] >= 0 && ids[i] < table_.rows(),
                "Embedding::lookup: id out of vocabulary");
    const auto src = table_.row(ids[i]);
    std::copy(src.begin(), src.end(), out.begin() + static_cast<std::ptrdiff_t>(i * e));
  }
}

Tensor Embedding::logits(const Tensor& x) const {
  DISTMCU_CHECK(x.cols() == table_.cols(), "Embedding::logits: width mismatch");
  Tensor out(x.rows(), table_.rows());
  kernels::gemm_nt(x.span(), table_.span(), out.span(), x.rows(), table_.rows(),
                   x.cols());
  return out;
}

int Embedding::greedy_next(const Tensor& x) const {
  std::vector<float> logits;
  int next = 0;
  greedy_rows(x.view().row_range(x.rows() - 1, x.rows()), logits, {&next, 1});
  return next;
}

void Embedding::greedy_rows(kernels::ConstView x, std::vector<float>& logits,
                            std::span<int> out) const {
  DISTMCU_CHECK(x.cols == table_.cols(), "Embedding::greedy_rows: width mismatch");
  DISTMCU_CHECK(out.size() == static_cast<std::size_t>(x.rows),
                "Embedding::greedy_rows: one token per row");
  const int vocab = table_.rows();
  const std::size_t n = static_cast<std::size_t>(x.rows) * static_cast<std::size_t>(vocab);
  if (logits.size() < n) logits.resize(n);
  const kernels::View lg(logits.data(), x.rows, vocab, vocab);
  kernels::gemm_nt(x, table_.view(), lg);
  for (int r = 0; r < x.rows; ++r) {
    const float* row = lg.row(r);
    int best = 0;
    float best_v = row[0];
    for (int v = 1; v < vocab; ++v) {
      if (row[v] > best_v) {
        best_v = row[v];
        best = v;
      }
    }
    out[static_cast<std::size_t>(r)] = best;
  }
}

}  // namespace distmcu::model
