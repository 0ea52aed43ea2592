#ifndef DISTMCU_TESTS_DENSE_KV_HPP
#define DISTMCU_TESTS_DENSE_KV_HPP

// The KV rows of a dedicated dense run, for checking a serving engine's
// paged rows bit for bit. Greedy streams on seeded weights tend to repeat
// a token, so equal streams alone cannot catch a wrong page mapping;
// equal KV rows can.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "partition/distributed_block.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"

namespace distmcu::testing {

using DenseKv = std::vector<std::vector<model::KvCache>>;

/// The dense per-chip, per-layer caches of a dedicated generate() of
/// `prompt`: the prompt's rows, then every decode row it writes.
inline DenseKv dedicated_kv(const runtime::InferenceSession& s, const std::vector<int>& prompt,
                            int new_tokens) {
  DenseKv caches = s.make_chip_caches(s.config().ar_context);
  partition::ForwardWorkspace ws;
  const int e = s.config().embed_dim;
  partition::RowGroup group{&caches, 0, static_cast<int>(prompt.size())};
  std::span<const float> h = s.forward_tokens(ws, prompt, {&group, 1});
  for (int t = 0; t + 1 < new_tokens; ++t) {
    const int rows = static_cast<int>(h.size()) / e;
    int next = 0;
    s.embedding().greedy_rows(kernels::ConstView(h, rows, e).row_range(rows - 1, rows),
                              ws.logits, {&next, 1});
    group.pos_offset += group.rows;
    group.rows = 1;
    h = s.forward_tokens(ws, {&next, 1}, {&group, 1});
  }
  return caches;
}

/// Whether active request `id`'s KV rows in `engine` equal the first
/// rows of `dense`, every chip and layer (vacuous when it is not active).
inline ::testing::AssertionResult kv_rows_match(const runtime::BatchedEngine& engine,
                                                runtime::RequestId id, const DenseKv& dense) {
  const std::vector<float> rows = engine.kv_rows(id);
  std::size_t per_position = 0;  // floats of one position, all chips and layers
  for (const auto& chip : dense) {
    for (const model::KvCache& cache : chip) {
      per_position += 2 * static_cast<std::size_t>(cache.dim());
    }
  }
  const std::size_t n = rows.size() / per_position;
  auto at = rows.begin();
  for (std::size_t c = 0; c < dense.size(); ++c) {
    for (std::size_t l = 0; l < dense[c].size(); ++l) {
      const std::size_t count = n * static_cast<std::size_t>(dense[c][l].dim());
      const auto k = dense[c][l].k();
      const auto v = dense[c][l].v();
      if (count > k.size() || !std::equal(at, at + static_cast<std::ptrdiff_t>(count), k.begin()) ||
          !std::equal(at + static_cast<std::ptrdiff_t>(count),
                      at + 2 * static_cast<std::ptrdiff_t>(count), v.begin())) {
        return ::testing::AssertionFailure() << "request " << id << " chip " << c << " layer "
                                             << l << ": " << n
                                             << " paged rows differ from the dedicated run";
      }
      at += 2 * static_cast<std::ptrdiff_t>(count);
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace distmcu::testing

#endif  // DISTMCU_TESTS_DENSE_KV_HPP
