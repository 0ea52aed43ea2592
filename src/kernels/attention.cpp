#include "kernels/attention.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "util/check.hpp"

namespace distmcu::kernels {

void attention_head(ConstView q, std::span<const ConstView> k,
                    std::span<const ConstView> v, View out, bool causal, int pos_offset,
                    std::span<float> scores) {
  const int s_q = q.rows;
  const int p = q.cols;
  DISTMCU_CHECK(!k.empty() && k.size() == v.size(), "attention: K/V segment mismatch");
  int s_kv = 0;
  for (std::size_t i = 0; i < k.size(); ++i) {
    DISTMCU_CHECK(k[i].rows > 0 && k[i].cols == p && v[i].cols == p && v[i].rows == k[i].rows,
                  "attention: K/V shape mismatch");
    s_kv += k[i].rows;
  }
  DISTMCU_CHECK(s_q > 0 && p > 0, "attention: dimensions must be positive");
  DISTMCU_CHECK(out.rows == s_q && out.cols == p, "attention: out shape mismatch");
  const std::size_t n_scores = static_cast<std::size_t>(s_q) * static_cast<std::size_t>(s_kv);
  DISTMCU_CHECK(scores.size() >= n_scores, "attention: score scratch too small");
  scores = scores.first(n_scores);
  const View all(scores, s_q, s_kv);

  int col = 0;
  for (const ConstView& seg : k) {
    gemm_nt(q, seg, all.col_range(col, col + seg.rows));
    col += seg.rows;
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(p));
  for (float& s : scores) s *= scale;

  if (causal) {
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (int i = 0; i < s_q; ++i) {
      float* row = scores.data() + static_cast<std::size_t>(i) * s_kv;
      for (int j = pos_offset + i + 1; j < s_kv; ++j) row[static_cast<std::size_t>(j)] = kNegInf;
    }
  }
  softmax_rows(scores, s_q, s_kv);
  col = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const ConstView probs = ConstView(all).col_range(col, col + v[i].rows);
    if (i == 0) gemm(probs, v[i], out);
    else gemm_acc(probs, v[i], out);
    col += v[i].rows;
  }
}

void attention_head(std::span<const float> q, std::span<const float> k,
                    std::span<const float> v, std::span<float> out, int s_q,
                    int s_kv, int p, bool causal, int pos_offset) {
  DISTMCU_CHECK(s_q > 0 && s_kv > 0 && p > 0, "attention: dimensions must be positive");
  DISTMCU_CHECK(q.size() == static_cast<std::size_t>(s_q) * static_cast<std::size_t>(p),
              "attention: Q size mismatch");
  DISTMCU_CHECK(k.size() == static_cast<std::size_t>(s_kv) * static_cast<std::size_t>(p),
              "attention: K size mismatch");
  DISTMCU_CHECK(v.size() == k.size(), "attention: V size mismatch");
  DISTMCU_CHECK(out.size() == q.size(), "attention: out size mismatch");
  std::vector<float> scores(static_cast<std::size_t>(s_q) * static_cast<std::size_t>(s_kv));
  const ConstView kv[] = {ConstView(k, s_kv, p), ConstView(v, s_kv, p)};
  attention_head(ConstView(q, s_q, p), {&kv[0], 1}, {&kv[1], 1}, View(out, s_q, p), causal,
                 pos_offset, scores);
}

void attention_head_ar(std::span<const float> q, std::span<const float> k,
                       std::span<const float> v, std::span<float> out, int s_kv,
                       int p) {
  // A single query attending to the full cache: causality is implied by
  // the cache containing only past positions.
  attention_head(q, k, v, out, /*s_q=*/1, s_kv, p, /*causal=*/false, /*pos_offset=*/0);
}

}  // namespace distmcu::kernels
