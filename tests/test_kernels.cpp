// Numeric tests for the functional kernels: hand-checked small cases plus
// algebraic properties (softmax normalization, norm invariances, RoPE
// isometry, attention limits).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
namespace k = distmcu::kernels;

TEST(Gemm, HandComputed2x2) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  k::gemm(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, BiasBroadcastsOverRows) {
  const std::vector<float> a{1, 0, 0, 1};  // identity
  const std::vector<float> b{2, 3, 4, 5};
  const std::vector<float> bias{10, 20};
  std::vector<float> c(4);
  k::gemm(a, b, c, 2, 2, 2, bias);
  EXPECT_FLOAT_EQ(c[0], 12);
  EXPECT_FLOAT_EQ(c[1], 23);
  EXPECT_FLOAT_EQ(c[2], 14);
  EXPECT_FLOAT_EQ(c[3], 25);
}

TEST(Gemm, NtMatchesExplicitTranspose) {
  util::Rng rng(3);
  const int m = 5, n = 7, p = 9;
  std::vector<float> a(static_cast<std::size_t>(m * p));
  std::vector<float> bt(static_cast<std::size_t>(n * p));  // B^T stored [n,p]
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : bt) v = rng.uniform(-1, 1);
  // Build B [p,n] explicitly.
  std::vector<float> b(static_cast<std::size_t>(p * n));
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < n; ++j) {
      b[static_cast<std::size_t>(i * n + j)] = bt[static_cast<std::size_t>(j * p + i)];
    }
  }
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  k::gemm(a, b, c1, m, n, p);
  k::gemm_nt(a, bt, c2, m, n, p);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-5);
}

TEST(Gemm, GemvEqualsSingleRowGemm) {
  util::Rng rng(5);
  const int n = 16, kk = 24;
  std::vector<float> x(static_cast<std::size_t>(kk)), b(static_cast<std::size_t>(kk * n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<float> o1(static_cast<std::size_t>(n)), o2(static_cast<std::size_t>(n));
  k::gemv(x, b, o1, n, kk);
  k::gemm(x, b, o2, 1, n, kk);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(o1[static_cast<std::size_t>(i)], o2[static_cast<std::size_t>(i)]);
}

TEST(Gemm, SizeMismatchThrows) {
  std::vector<float> a(4), b(4), c(3);
  EXPECT_THROW(k::gemm(a, b, c, 2, 2, 2), Error);
}

namespace {
/// The row-at-a-time gemm every blocking of kernels::gemm must match bit
/// for bit: bias, then products added in ascending p, zeros of A skipped.
std::vector<float> gemm_by_rows(const std::vector<float>& a, const std::vector<float>& b,
                                const std::vector<float>& bias, int m, int n, int kk) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) c[i * n + j] = bias.empty() ? 0.0f : bias[j];
    for (int p = 0; p < kk; ++p) {
      const float av = a[i * kk + p];
      if (av == 0.0f) continue;
      for (int j = 0; j < n; ++j) c[i * n + j] += av * b[p * n + j];
    }
  }
  return c;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}
}  // namespace

TEST(Gemm, EveryBlockingMatchesTheRowLoopBitForBit) {
  // Row counts across the 4-row blocks and every leftover, widths across
  // the 8- and 16-column tiles, their tails and the untiled wide path;
  // A holds zeros (skipped) and negative zeros, and half the cases add
  // a bias.
  util::Rng rng(11);
  for (const int m : {1, 2, 3, 4, 5, 7, 8, 9}) {
    for (const int n : {1, 7, 8, 9, 16, 17, 24, 40, 128, 129, 200}) {
      for (const int kk : {1, 5, 32}) {
        std::vector<float> a(static_cast<std::size_t>(m) * kk), b(static_cast<std::size_t>(kk) * n);
        for (float& v : a) {
          const auto pick = rng.next_below(6);
          v = pick == 0 ? 0.0f : pick == 1 ? -0.0f : rng.uniform(-1.0f, 1.0f);
        }
        for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
        std::vector<float> bias;
        if ((m + n + kk) % 2 == 0) {
          bias.resize(static_cast<std::size_t>(n));
          for (float& v : bias) v = rng.uniform(-1.0f, 1.0f);
        }
        std::vector<float> c(static_cast<std::size_t>(m) * n);
        k::gemm(a, b, c, m, n, kk, bias);
        EXPECT_TRUE(same_bits(c, gemm_by_rows(a, b, bias, m, n, kk)))
            << "m=" << m << " n=" << n << " k=" << kk;
      }
    }
  }
}

TEST(Gemm, StridedViewsMatchDenseCopies) {
  // A head slice of a wider buffer (ld > cols) gives the same bits as the
  // same columns copied out densely, for gemm and gemm_nt alike.
  util::Rng rng(12);
  const int m = 5, kk = 70, n = 24, ld = 96, c0 = 16;
  std::vector<float> wide(static_cast<std::size_t>(m) * ld), b(static_cast<std::size_t>(kk) * n);
  for (float& v : wide) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> dense(static_cast<std::size_t>(m) * kk);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < kk; ++p) dense[i * kk + p] = wide[i * ld + c0 + p];
  }
  const k::ConstView view(wide.data() + c0, m, kk, ld);
  std::vector<float> c1(static_cast<std::size_t>(m) * n), c2(c1.size());
  k::gemm(view, k::ConstView(b, kk, n), k::View(c1, m, n));
  k::gemm(dense, b, c2, m, n, kk);
  EXPECT_TRUE(same_bits(c1, c2));

  std::vector<float> bt(static_cast<std::size_t>(n) * kk);
  for (float& v : bt) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> d1(static_cast<std::size_t>(m) * n), d2(d1.size()), d3(d1.size());
  k::gemm_nt(view, k::ConstView(bt, n, kk), k::View(d1, m, n));
  k::gemm_nt(dense, bt, d2, m, n, kk);
  EXPECT_TRUE(same_bits(d1, d2));
  // gemm_nt's blocked dot products add in ascending p, like one scalar
  // accumulator per element.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < kk; ++p) acc += dense[i * kk + p] * bt[j * kk + p];
      d3[i * n + j] = acc;
    }
  }
  EXPECT_TRUE(same_bits(d1, d3));
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(7);
  const int rows = 6, cols = 33;
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  for (auto& v : x) v = rng.uniform(-4, 4);
  k::softmax_rows(x, rows, cols);
  for (int r = 0; r < rows; ++r) {
    float sum = 0;
    for (int c = 0; c < cols; ++c) sum += x[static_cast<std::size_t>(r * cols + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Softmax, StableForLargeInputs) {
  std::vector<float> x{1000.0f, 1000.0f, 1000.0f, 999.0f};
  k::softmax_rows(x, 1, 4);
  for (const float v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(x[0], x[3]);
}

TEST(Softmax, ShiftInvariance) {
  std::vector<float> a{0.5f, -1.0f, 2.0f};
  std::vector<float> b{10.5f, 9.0f, 12.0f};  // a + 10
  k::softmax_rows(a, 1, 3);
  k::softmax_rows(b, 1, 3);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-6);
}

TEST(RmsNorm, UnitGammaGivesUnitRms) {
  util::Rng rng(9);
  const int cols = 64;
  std::vector<float> x(cols), gamma(cols, 1.0f), out(cols);
  for (auto& v : x) v = rng.uniform(-3, 3);
  k::rmsnorm_rows(x, gamma, out, 1, cols, 1e-6f);
  float ss = 0;
  for (const float v : out) ss += v * v;
  EXPECT_NEAR(std::sqrt(ss / cols), 1.0f, 1e-3);
}

TEST(RmsNorm, ScaleInvariance) {
  const int cols = 8;
  std::vector<float> x{1, 2, 3, 4, -1, -2, -3, -4};
  std::vector<float> x2(x);
  for (auto& v : x2) v *= 7.0f;
  std::vector<float> gamma(cols, 1.0f), o1(cols), o2(cols);
  k::rmsnorm_rows(x, gamma, o1, 1, cols, 0.0f);
  k::rmsnorm_rows(x2, gamma, o2, 1, cols, 0.0f);
  for (int i = 0; i < cols; ++i) EXPECT_NEAR(o1[static_cast<std::size_t>(i)], o2[static_cast<std::size_t>(i)], 1e-5);
}

TEST(LayerNorm, ZeroMeanUnitVar) {
  util::Rng rng(11);
  const int cols = 128;
  std::vector<float> x(cols), gamma(cols, 1.0f), beta(cols, 0.0f), out(cols);
  for (auto& v : x) v = rng.uniform(0, 10);
  k::layernorm_rows(x, gamma, beta, out, 1, cols, 1e-6f);
  float mean = 0;
  for (const float v : out) mean += v;
  mean /= cols;
  float var = 0;
  for (const float v : out) var += (v - mean) * (v - mean);
  var /= cols;
  EXPECT_NEAR(mean, 0.0f, 1e-4);
  EXPECT_NEAR(var, 1.0f, 1e-3);
}

TEST(LayerNorm, BetaShifts) {
  const int cols = 4;
  std::vector<float> x{1, 2, 3, 4}, gamma(cols, 1.0f), beta(cols, 5.0f), out(cols);
  k::layernorm_rows(x, gamma, beta, out, 1, cols, 1e-6f);
  float mean = 0;
  for (const float v : out) mean += v;
  EXPECT_NEAR(mean / cols, 5.0f, 1e-4);
}

TEST(Activations, GeluKnownValues) {
  std::vector<float> x{0.0f, 100.0f, -100.0f, 1.0f};
  k::gelu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 100.0f, 1e-3);
  EXPECT_NEAR(x[2], 0.0f, 1e-3);
  EXPECT_NEAR(x[3], 0.8413447f, 1e-4);  // x * Phi(1)
}

TEST(Activations, SiluKnownValues) {
  std::vector<float> x{0.0f, 100.0f};
  k::silu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 100.0f, 1e-3);
}

TEST(Activations, ReluClampsNegatives) {
  std::vector<float> x{-1.0f, 0.0f, 2.5f};
  k::relu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.5f);
}

TEST(Elementwise, AddAndMul) {
  std::vector<float> out{1, 2, 3};
  const std::vector<float> x{10, 20, 30};
  k::add_inplace(out, x);
  EXPECT_FLOAT_EQ(out[1], 22);
  k::mul_inplace(out, x);
  EXPECT_FLOAT_EQ(out[2], 990);
}

TEST(Rope, PositionZeroIsIdentity) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> orig(x);
  k::rope_apply(x, 1, 4, 0, 10000.0f);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)], orig[static_cast<std::size_t>(i)], 1e-6);
}

TEST(Rope, PreservesPairNorms) {
  util::Rng rng(13);
  const int dim = 64;
  std::vector<float> x(dim);
  for (auto& v : x) v = rng.uniform(-2, 2);
  const std::vector<float> orig(x);
  k::rope_apply(x, 1, dim, 37, 10000.0f);
  for (int j = 0; j < dim; j += 2) {
    const float n0 = orig[static_cast<std::size_t>(j)] * orig[static_cast<std::size_t>(j)] +
                     orig[static_cast<std::size_t>(j + 1)] * orig[static_cast<std::size_t>(j + 1)];
    const float n1 = x[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)] +
                     x[static_cast<std::size_t>(j + 1)] * x[static_cast<std::size_t>(j + 1)];
    EXPECT_NEAR(n0, n1, 1e-4);
  }
}

TEST(Rope, RelativePhaseProperty) {
  // Rotating the same vector at positions p and p+d: the dot product
  // between the two depends only on d (relative encoding).
  const int dim = 8;
  std::vector<float> base(dim, 0.5f);
  auto rotated = [&](int pos) {
    std::vector<float> v(base);
    k::rope_apply(v, 1, dim, pos, 10000.0f);
    return v;
  };
  auto dot = [&](const std::vector<float>& a, const std::vector<float>& b) {
    float s = 0;
    for (int i = 0; i < dim; ++i) s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    return s;
  };
  const float d1 = dot(rotated(3), rotated(7));
  const float d2 = dot(rotated(20), rotated(24));
  EXPECT_NEAR(d1, d2, 1e-4);
}

TEST(Rope, OddHeadDimRejected) {
  std::vector<float> x(3);
  EXPECT_THROW(k::rope_apply(x, 1, 3, 0, 10000.0f), Error);
}

TEST(Attention, UniformScoresAverageValues) {
  // Q orthogonal to all keys -> uniform probabilities -> output is the
  // mean of V rows.
  const int p = 4, s_kv = 3;
  const std::vector<float> q(p, 0.0f);
  std::vector<float> kmat(static_cast<std::size_t>(s_kv * p));
  std::vector<float> vmat{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3};
  util::Rng rng(17);
  for (auto& v : kmat) v = rng.uniform(-1, 1);
  std::vector<float> out(p);
  k::attention_head_ar(q, kmat, vmat, out, s_kv, p);
  for (const float v : out) EXPECT_NEAR(v, 2.0f, 1e-5);
}

TEST(Attention, SharpScoresSelectValue) {
  const int p = 2, s_kv = 2;
  const std::vector<float> q{100.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, -1.0f, 0.0f};  // key0 aligned, key1 anti
  const std::vector<float> vmat{7.0f, 8.0f, -5.0f, -6.0f};
  std::vector<float> out(p);
  k::attention_head_ar(q, kmat, vmat, out, s_kv, p);
  EXPECT_NEAR(out[0], 7.0f, 1e-3);
  EXPECT_NEAR(out[1], 8.0f, 1e-3);
}

TEST(Attention, CausalMaskBlocksFuture) {
  // Two queries, two keys; causal: row 0 may only see key 0.
  const int p = 2, s = 2;
  const std::vector<float> q{1.0f, 0.0f, 1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};  // key1 would dominate
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(static_cast<std::size_t>(s * p));
  k::attention_head(q, kmat, vmat, out, s, s, p, /*causal=*/true, /*pos_offset=*/0);
  // Row 0 can only attend to key 0 -> exactly v0.
  EXPECT_NEAR(out[0], 1.0f, 1e-5);
  EXPECT_NEAR(out[1], 1.0f, 1e-5);
  // Row 1 sees both; key1 dominates -> close to v1.
  EXPECT_GT(out[2], 5.0f);
}

TEST(Attention, BidirectionalSeesAll) {
  const int p = 2, s = 2;
  const std::vector<float> q{1.0f, 0.0f, 1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(static_cast<std::size_t>(s * p));
  k::attention_head(q, kmat, vmat, out, s, s, p, /*causal=*/false, /*pos_offset=*/0);
  EXPECT_GT(out[0], 5.0f);  // row 0 now also dominated by key 1
}

TEST(Attention, PosOffsetExtendsVisibility) {
  // With pos_offset=1, query row 0 is absolute position 1 and may see
  // keys 0 and 1.
  const int p = 2;
  const std::vector<float> q{1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(p);
  k::attention_head(q, kmat, vmat, out, 1, 2, p, /*causal=*/true, /*pos_offset=*/1);
  EXPECT_GT(out[0], 5.0f);
}

TEST(Attention, SegmentedKvMatchesOneSegmentBitForBit) {
  // K/V split into row segments, each in its own buffer with a wider
  // row stride (one head of a paged KV cache), give the one-segment
  // kernel's bits: prompt and decode queries, causal with offsets and
  // bidirectional, over every split shape a page table produces.
  constexpr int kP = 8;
  constexpr int kLd = 3 * kP;  // the head sits at column kP of wider rows
  constexpr int kKv = 64;
  util::Rng rng(0x5e9);
  std::vector<float> kmat(kKv * kP), vmat(kKv * kP);
  for (float& x : kmat) x = rng.uniform(-1.0f, 1.0f);
  for (float& x : vmat) x = rng.uniform(-1.0f, 1.0f);
  const std::vector<std::vector<int>> splits = {
      {64}, {16, 16, 16, 16}, {5, 17, 1, 41}, {63, 1}, std::vector<int>(kKv, 1)};
  struct Query {
    int rows;
    bool causal;
    int pos_offset;
  };
  for (const Query qs : {Query{8, true, kKv - 8}, Query{8, true, 20}, Query{1, true, kKv - 1},
                         Query{1, false, 0}, Query{8, false, 0}}) {
    std::vector<float> q(static_cast<std::size_t>(qs.rows) * kP);
    for (float& x : q) x = rng.uniform(-1.0f, 1.0f);
    const k::ConstView qv(q, qs.rows, kP);
    std::vector<float> scores(static_cast<std::size_t>(qs.rows) * kKv);
    std::vector<float> want(q.size());
    const k::ConstView whole_k(kmat, kKv, kP);
    const k::ConstView whole_v(vmat, kKv, kP);
    k::attention_head(qv, {&whole_k, 1}, {&whole_v, 1}, k::View(want, qs.rows, kP), qs.causal,
                      qs.pos_offset, scores);
    for (const auto& split : splits) {
      std::vector<std::vector<float>> pages;
      std::vector<k::ConstView> ks, vs;
      int row = 0;
      for (const int n : split) {
        std::vector<float>& page = pages.emplace_back(2 * static_cast<std::size_t>(n) * kLd);
        for (int r = 0; r < n; ++r) {
          std::memcpy(&page[static_cast<std::size_t>(r) * kLd + kP], &kmat[(row + r) * kP],
                      kP * sizeof(float));
          std::memcpy(&page[static_cast<std::size_t>(n + r) * kLd + kP], &vmat[(row + r) * kP],
                      kP * sizeof(float));
        }
        row += n;
      }
      for (std::size_t i = 0; i < split.size(); ++i) {
        const float* page = pages[i].data();
        ks.emplace_back(page + kP, split[i], kP, kLd);
        vs.emplace_back(page + static_cast<std::size_t>(split[i]) * kLd + kP, split[i], kP, kLd);
      }
      std::vector<float> got(q.size(), -1.0f);
      k::attention_head(qv, ks, vs, k::View(got, qs.rows, kP), qs.causal, qs.pos_offset,
                        scores);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << "rows " << qs.rows << " offset " << qs.pos_offset << " segments " << split.size();
    }
  }
}

TEST(Gemm, AccumulateContinuesTheSumBitForBit) {
  // gemm over the first K range and gemm_acc over the rest give gemm's
  // bits over the whole K, on every blocking path.
  util::Rng rng(0xacc);
  for (const int n : {4, 16, 24, 200}) {
    for (const int m : {1, 2, 3, 5}) {
      constexpr int kK = 37;
      std::vector<float> a(static_cast<std::size_t>(m) * kK), b(kK * static_cast<std::size_t>(n));
      for (float& x : a) x = rng.next_below(4) == 0 ? 0.0f : rng.uniform(-1.0f, 1.0f);
      for (float& x : b) x = rng.uniform(-1.0f, 1.0f);
      std::vector<float> want(static_cast<std::size_t>(m) * n), got(want.size());
      const k::ConstView av(a, m, kK);
      const k::ConstView bv(b, kK, n);
      k::gemm(av, bv, k::View(want, m, n));
      const k::View gv(got, m, n);
      k::gemm(av.col_range(0, 10), bv.row_range(0, 10), gv);
      k::gemm_acc(av.col_range(10, 11), bv.row_range(10, 11), gv);
      k::gemm_acc(av.col_range(11, kK), bv.row_range(11, kK), gv);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << "m " << m << " n " << n;
    }
  }
}
