#include "kernels/rope.hpp"

#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace distmcu::kernels {

void rope_table(std::span<float> table, int pos0, int n_pos, int head_dim, float base) {
  DISTMCU_CHECK(n_pos > 0 && head_dim > 0, "rope: dimensions must be positive");
  DISTMCU_CHECK(head_dim % 2 == 0, "rope: head_dim must be even");
  DISTMCU_CHECK(table.size() == static_cast<std::size_t>(n_pos) * static_cast<std::size_t>(head_dim),
                "rope: table size mismatch");
  // Pair-outer: each pair's frequency is computed once for all rows.
  for (int j = 0; j < head_dim; j += 2) {
    const float freq =
        std::pow(base, -static_cast<float>(j) / static_cast<float>(head_dim));
    for (int i = 0; i < n_pos; ++i) {
      const float angle = static_cast<float>(pos0 + i) * freq;
      float* row = table.data() + static_cast<std::size_t>(i) * head_dim;
      row[j] = std::cos(angle);
      row[j + 1] = std::sin(angle);
    }
  }
}

void rope_apply(View x, std::span<const float> table) {
  const int head_dim = x.cols;
  DISTMCU_CHECK(x.rows > 0 && head_dim > 0 && head_dim % 2 == 0,
                "rope: dimensions must be positive and head_dim even");
  DISTMCU_CHECK(table.size() == static_cast<std::size_t>(x.rows) * static_cast<std::size_t>(head_dim),
                "rope: table size mismatch");
  for (int i = 0; i < x.rows; ++i) {
    float* row = x.row(i);
    const float* cs = table.data() + static_cast<std::size_t>(i) * head_dim;
    for (int j = 0; j < head_dim; j += 2) {
      const float c = cs[j];
      const float s = cs[j + 1];
      const float x0 = row[j];
      const float x1 = row[j + 1];
      row[j] = x0 * c - x1 * s;
      row[j + 1] = x0 * s + x1 * c;
    }
  }
}

void rope_apply(View x, int pos_offset, float base) {
  std::vector<float> table(static_cast<std::size_t>(x.rows) * static_cast<std::size_t>(x.cols));
  rope_table(table, pos_offset, x.rows, x.cols, base);
  rope_apply(x, table);
}

void rope_apply(std::span<float> x, int n_pos, int head_dim, int pos_offset,
                float base) {
  DISTMCU_CHECK(n_pos > 0 && head_dim > 0, "rope: dimensions must be positive");
  DISTMCU_CHECK(head_dim % 2 == 0, "rope: head_dim must be even");
  DISTMCU_CHECK(x.size() == static_cast<std::size_t>(n_pos) * static_cast<std::size_t>(head_dim),
              "rope: size mismatch");
  rope_apply(View(x.data(), n_pos, head_dim, head_dim), pos_offset, base);
}

}  // namespace distmcu::kernels
