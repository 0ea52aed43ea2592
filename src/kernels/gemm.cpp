#include "kernels/gemm.hpp"

#include <cstddef>
#include <type_traits>

#include "util/check.hpp"

namespace distmcu::kernels {

namespace {

// Register blocking of gemm: R rows x NB columns of accumulators stay in
// the 16 SSE registers of baseline x86-64 next to one B segment. Widths
// that are a multiple of 16 take 2 x 16 blocks (each pass reads whole
// 64-byte lines of B); other widths take 4 x 8 and 3 x 8 blocks, with
// 2 x 16 for two rows left over; a single row takes 1 x 16. It wins
// where B rows are short (N <= 128: every fleet shard and the per-chip
// Q/K/V projections); on wider B the row-at-a-time loop streams as
// well, so it stays the only path there.
constexpr int kMaxTiledCols = 128;
// gemm_nt keeps 8 independent dot products in flight per A row once
// they are long enough to pay for it (the 512-deep LM head: ~1.8x).
constexpr int kNtBlock = 8;
constexpr int kNtMinDepth = 64;

void check_dims(int m, int n, int k) {
  DISTMCU_CHECK(m > 0 && n > 0 && k > 0, "gemm: dimensions must be positive");
}

/// The row-at-a-time loop over columns [j0, j1) of rows [i0, i1):
/// k-outer keeps B accesses sequential. Raw pointers and strides, not
/// views, so GCC vectorizes the column loop as tightly as a dense one.
/// `Acc` continues each element's sum from C's value instead of
/// starting it from the bias (or 0).
template <bool Acc>
void gemm_rows(ConstView a, ConstView b, View c, const float* bias, int i0, int i1,
               int j0, int j1) {
  const int k = a.cols;
  const std::ptrdiff_t ldb = b.ld;
  const int n = j1 - j0;
  const float* b0 = b.data + j0;
  for (int i = i0; i < i1; ++i) {
    float* crow = c.row(i) + j0;
    const float* arow = a.row(i);
    if constexpr (!Acc) for (int j = 0; j < n; ++j) crow[j] = bias == nullptr ? 0.0f : bias[j0 + j];
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b0 + p * ldb;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Rows [i, i + R) x columns [j, j + NB), accumulated in registers with
/// the same per-element order and zero skip as gemm_rows. Raw pointers
/// and strides, not views; and always inlined, because GCC vectorizes
/// this loop (keeping `acc` in registers) only where it is inlined.
template <bool Acc, int R, int NB>
[[gnu::always_inline]] inline void gemm_tile(const float* a, std::ptrdiff_t lda,
                                             const float* b, std::ptrdiff_t ldb, float* c,
                                             std::ptrdiff_t ldc, int k, const float* bias) {
  float acc[R][NB];
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < NB; ++t) {
      acc[r][t] = Acc ? c[r * ldc + t] : bias == nullptr ? 0.0f : bias[t];
    }
  }
  for (int p = 0; p < k; ++p) {
    float bv[NB];
    for (int t = 0; t < NB; ++t) bv[t] = b[p * ldb + t];
    for (int r = 0; r < R; ++r) {
      const float av = a[r * lda + p];
      if (av == 0.0f) continue;
      for (int t = 0; t < NB; ++t) acc[r][t] += av * bv[t];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < NB; ++t) c[r * ldc + t] = acc[r][t];
  }
}

/// All columns of rows [i, i + R): tiles of NB, then one of 8 when NB is
/// wider and 8 still fit, then the row loop for the last columns.
template <bool Acc, int R, int NB>
void gemm_row_block(ConstView a, ConstView b, View c, const float* bias, int i) {
  const int n = c.cols;
  const auto tile = [&](auto width, int j) {
    gemm_tile<Acc, R, decltype(width)::value>(a.row(i), a.ld, b.data + j, b.ld, c.row(i) + j,
                                         c.ld, a.cols, bias == nullptr ? nullptr : bias + j);
  };
  int j = 0;
  for (; j + NB <= n; j += NB) tile(std::integral_constant<int, NB>{}, j);
  if constexpr (NB > 8) {
    if (j + 8 <= n) {
      tile(std::integral_constant<int, 8>{}, j);
      j += 8;
    }
  }
  if (j < n) gemm_rows<Acc>(a, b, c, bias, i, i + R, j, n);
}

/// kNtBlock dot products of `a` with consecutive rows of `b`, each in
/// ascending p, kept in flight together.
void gemm_nt_block(const float* a, const float* b, std::ptrdiff_t ldb, float* c, int k) {
  float acc[kNtBlock] = {};
  for (int p = 0; p < k; ++p) {
    const float av = a[p];
    for (int t = 0; t < kNtBlock; ++t) acc[t] += av * b[t * ldb + p];
  }
  for (int t = 0; t < kNtBlock; ++t) c[t] = acc[t];
}

/// gemm's checks and blocking for every shape; `Acc` selects the
/// accumulate entry.
template <bool Acc>
void gemm_blocked(ConstView a, ConstView b, View c, const float* bz) {
  const int m = a.rows;
  const int n = b.cols;
  check_dims(m, n, a.cols);
  DISTMCU_CHECK(b.rows == a.cols && c.rows == m && c.cols == n, "gemm: view shape mismatch");
  if (n < 8 || n > kMaxTiledCols) {
    gemm_rows<Acc>(a, b, c, bz, 0, m, 0, n);
    return;
  }
  int i = 0;
  if (n % 16 == 0) {
    for (; i + 2 <= m; i += 2) gemm_row_block<Acc, 2, 16>(a, b, c, bz, i);
  } else {
    for (; i + 4 <= m; i += 4) gemm_row_block<Acc, 4, 8>(a, b, c, bz, i);
    if (m - i == 3) {
      gemm_row_block<Acc, 3, 8>(a, b, c, bz, i);
      i += 3;
    } else if (m - i == 2) {
      gemm_row_block<Acc, 2, 16>(a, b, c, bz, i);
      i += 2;
    }
  }
  if (i < m) gemm_row_block<Acc, 1, 16>(a, b, c, bz, i);
}

}  // namespace

void gemm(ConstView a, ConstView b, View c, std::span<const float> bias) {
  DISTMCU_CHECK(bias.empty() || bias.size() == static_cast<std::size_t>(b.cols),
                "gemm: bias size mismatch");
  gemm_blocked<false>(a, b, c, bias.empty() ? nullptr : bias.data());
}

void gemm_acc(ConstView a, ConstView b, View c) { gemm_blocked<true>(a, b, c, nullptr); }

void gemm_nt(ConstView a, ConstView b, View c) {
  const int k = a.cols;
  check_dims(a.rows, b.rows, k);
  DISTMCU_CHECK(b.cols == k && c.rows == a.rows && c.cols == b.rows,
                "gemm_nt: view shape mismatch");
  const int n = b.rows;
  const std::ptrdiff_t ldb = b.ld;
  const int blocked = k >= kNtMinDepth ? n - n % kNtBlock : 0;
  for (int i = 0; i < a.rows; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (int j = 0; j < blocked; j += kNtBlock) {
      gemm_nt_block(arow, b.data + j * ldb, ldb, crow + j, k);
    }
    for (int j = blocked; j < n; ++j) {
      const float* brow = b.data + j * ldb;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          int m, int n, int k, std::span<const float> bias) {
  check_dims(m, n, k);
  gemm(ConstView(a, m, k), ConstView(b, k, n), View(c, m, n), bias);
}

void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             int m, int n, int k) {
  check_dims(m, n, k);
  gemm_nt(ConstView(a, m, k), ConstView(b, n, k), View(c, m, n));
}

void gemv(std::span<const float> x, std::span<const float> b, std::span<float> out,
          int n, int k, std::span<const float> bias) {
  gemm(x, b, out, 1, n, k, bias);
}

}  // namespace distmcu::kernels
