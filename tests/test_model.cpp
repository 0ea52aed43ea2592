// Tests for the model layer: config presets (paper Sec. V-A), weight
// accounting, KV cache, and the reference Transformer — including the
// strongest functional invariant: autoregressive decoding with a KV
// cache must reproduce prompt-mode outputs row by row.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/reference_model.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::KvCache;
using model::ReferenceModel;
using model::Tensor;
using model::TransformerConfig;
using model::Weights;

namespace {

/// A reduced configuration so reference-model tests run in milliseconds.
TransformerConfig small_llama() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama-test";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.ar_context = 16;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

TransformerConfig small_bert() {
  TransformerConfig cfg = TransformerConfig::mobile_bert();
  cfg.name = "mobilebert-test";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 32;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.ar_context = 12;
  cfg.prompt_len = 12;
  cfg.validate();
  return cfg;
}

Tensor random_input(int rows, int cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(rows, cols);
  x.random_init(rng, 1.0f);
  return x;
}

}  // namespace

TEST(Config, TinyLlamaPresetMatchesPaper) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  EXPECT_EQ(cfg.embed_dim, 512);
  EXPECT_EQ(cfg.ffn_dim, 2048);
  EXPECT_EQ(cfg.num_heads, 8);
  EXPECT_EQ(cfg.num_layers, 8);
  EXPECT_EQ(cfg.proj_dim(), 512);
  EXPECT_EQ(cfg.ar_context, 128);
  EXPECT_EQ(cfg.prompt_len, 16);
  // One block: 4*E*PH + 2*E*F = 3,145,728 weight elements.
  EXPECT_EQ(cfg.block_weight_elems(), 3145728u);
}

TEST(Config, MobileBertPresetMatchesPaper) {
  const auto cfg = TransformerConfig::mobile_bert();
  EXPECT_EQ(cfg.embed_dim, 512);
  EXPECT_EQ(cfg.ffn_dim, 512);
  EXPECT_EQ(cfg.num_heads, 4);
  EXPECT_EQ(cfg.prompt_len, 268);
  EXPECT_EQ(cfg.proj_dim(), 512);
  EXPECT_EQ(cfg.block_weight_elems(), 1572864u);
  EXPECT_EQ(cfg.norm, model::NormKind::layernorm);
  EXPECT_EQ(cfg.mask, model::MaskKind::bidirectional);
}

TEST(Config, ScaledModelKeepsProjWidth) {
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  EXPECT_EQ(cfg.num_heads, 64);
  EXPECT_EQ(cfg.head_dim, 8);
  EXPECT_EQ(cfg.proj_dim(), 512);
  // Paper Sec. V-C: all other parameters unchanged -> same weight bytes.
  EXPECT_EQ(cfg.block_weight_elems(),
            TransformerConfig::tiny_llama_42m().block_weight_elems());
}

TEST(Config, ValidateCatchesBadConfigs) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = TransformerConfig::tiny_llama_42m();
  cfg.head_dim = 63;  // odd + rope
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(Config, ScaledModelRejectsNonDivisorHeads) {
  EXPECT_THROW(TransformerConfig::tiny_llama_scaled(33), Error);
}

TEST(Tensor, SliceColsExtractsHeads) {
  Tensor t(2, 6);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 6; ++c) t.at(r, c) = static_cast<float>(10 * r + c);
  }
  const Tensor s = t.slice_cols(2, 4);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_FLOAT_EQ(s.at(0, 0), 2);
  EXPECT_FLOAT_EQ(s.at(1, 1), 13);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a(1, 3), b(1, 3);
  a.at(0, 2) = 1.0f;
  b.at(0, 2) = -0.5f;
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 1.5f);
  Tensor c(2, 3);
  EXPECT_THROW((void)Tensor::max_abs_diff(a, c), Error);
}

TEST(Tensor, MaxAbsDiffNeverSwallowsNonFinite) {
  // std::max(mx, NaN) keeps mx, so a forward emitting NaN used to pass
  // every tolerance check. A non-finite element that is not bit-identical
  // on both sides now reads +inf.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(1, 3), b(1, 3);
  a.at(0, 1) = nan;
  EXPECT_EQ(Tensor::max_abs_diff(a, b), inf);
  EXPECT_EQ(Tensor::max_abs_diff(b, a), inf);
  b.at(0, 1) = nan;  // the same NaN bits on both sides
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0f);
  b.at(0, 1) = -nan;  // a NaN of another sign
  EXPECT_EQ(Tensor::max_abs_diff(a, b), inf);
  a.at(0, 1) = 0.0f;
  b.at(0, 1) = 0.0f;
  a.at(0, 2) = inf;
  EXPECT_EQ(Tensor::max_abs_diff(a, b), inf);
  b.at(0, 2) = inf;
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0f);
  b.at(0, 2) = -inf;
  EXPECT_EQ(Tensor::max_abs_diff(a, b), inf);
}

TEST(Weights, DeterministicForSameSeed) {
  const auto cfg = small_llama();
  const Weights w1(cfg, 99), w2(cfg, 99);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(w1.layer(0).wq, w2.layer(0).wq), 0.0f);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(w1.layer(1).w2, w2.layer(1).w2), 0.0f);
}

TEST(Weights, DifferentSeedsDiffer) {
  const auto cfg = small_llama();
  const Weights w1(cfg, 1), w2(cfg, 2);
  EXPECT_GT(Tensor::max_abs_diff(w1.layer(0).wq, w2.layer(0).wq), 0.0f);
}

TEST(Weights, ByteAccountingMatchesPaperFootprint) {
  // TinyLlama at 2 B/weight: one block = 6 MiB, full model = 48 MiB —
  // the numbers behind the paper's residency crossovers.
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const Weights w(cfg, 0);
  EXPECT_EQ(w.block_weight_bytes(2), 6291456u);
  EXPECT_EQ(w.total_weight_bytes(2), 50331648u);
}

TEST(KvCacheTest, AppendAndViews) {
  KvCache cache(4, 6);
  std::vector<float> k(6, 1.0f), v(6, 2.0f);
  cache.append(k, v);
  k.assign(6, 3.0f);
  v.assign(6, 4.0f);
  cache.append(k, v);
  EXPECT_EQ(cache.length(), 2);
  EXPECT_EQ(cache.k().size(), 12u);
  EXPECT_FLOAT_EQ(cache.k()[0], 1.0f);
  EXPECT_FLOAT_EQ(cache.v()[6], 4.0f);
  const auto ks = cache.k_view(2, 4);
  EXPECT_EQ(ks.rows, 2);
  EXPECT_EQ(ks.cols, 2);
  EXPECT_EQ(ks.ld, 6);
  EXPECT_FLOAT_EQ(ks.row(1)[0], 3.0f);
}

TEST(KvCacheTest, CapacityEnforced) {
  KvCache cache(1, 2);
  const std::vector<float> r(2, 0.0f);
  cache.append(r, r);
  EXPECT_THROW(cache.append(r, r), Error);
}

TEST(KvCacheTest, CapacityBytes) {
  KvCache cache(128, 512);
  // 2 * 128 * 512 * 1B = 128 KiB — one TinyLlama layer's cache at int8.
  EXPECT_EQ(cache.capacity_bytes(1), 131072u);
}

TEST(ReferenceModel, PromptOutputShape) {
  const auto cfg = small_llama();
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 21);
  const Tensor y = ref.forward_prompt(x);
  EXPECT_EQ(y.rows(), cfg.prompt_len);
  EXPECT_EQ(y.cols(), cfg.embed_dim);
}

TEST(ReferenceModel, OutputsAreFiniteAndNonTrivial) {
  const auto cfg = small_llama();
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  const Tensor x = random_input(4, cfg.embed_dim, 22);
  const Tensor y = ref.forward_prompt(x);
  float max_abs = 0.0f;
  for (const float v : y.span()) {
    ASSERT_TRUE(std::isfinite(v));
    max_abs = std::max(max_abs, std::abs(v));
  }
  EXPECT_GT(max_abs, 1e-3f);
}

// The paper's two modes must agree: decoding a sequence token-by-token
// through the KV cache reproduces the prompt-mode block outputs.
class ArPromptEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(ArPromptEquivalence, TokenByTokenMatchesPrompt) {
  const bool pre_norm = GetParam();
  auto cfg = small_llama();
  cfg.pre_norm = pre_norm;
  const Weights w(cfg, 31);
  const ReferenceModel ref(cfg, w);
  const int s = cfg.prompt_len;
  const Tensor x = random_input(s, cfg.embed_dim, 77);

  // Prompt mode over the full sequence (fresh caches so attention uses
  // the cache path, identical to AR).
  auto prompt_caches = ref.make_caches(cfg.ar_context);
  const Tensor y_prompt = ref.forward_prompt(x, &prompt_caches, 0);

  // AR mode: one token at a time.
  auto ar_caches = ref.make_caches(cfg.ar_context);
  for (int t = 0; t < s; ++t) {
    const Tensor xt = x.slice_rows(t, t + 1);
    const Tensor yt = ref.forward_ar(xt, ar_caches, t);
    for (int c = 0; c < cfg.embed_dim; ++c) {
      ASSERT_NEAR(yt.at(0, c), y_prompt.at(t, c), 2e-3f)
          << "pre_norm=" << pre_norm << " token " << t << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NormPlacements, ArPromptEquivalence, ::testing::Bool());

TEST(ReferenceModel, CausalMaskingBlocksFutureInfluence) {
  const auto cfg = small_llama();
  const Weights w(cfg, 13);
  const ReferenceModel ref(cfg, w);
  Tensor x = random_input(5, cfg.embed_dim, 41);
  const Tensor y1 = ref.forward_prompt(x);
  // Perturb the last row: earlier outputs must not change.
  for (int c = 0; c < cfg.embed_dim; ++c) x.at(4, c) += 1.0f;
  const Tensor y2 = ref.forward_prompt(x);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < cfg.embed_dim; ++c) {
      ASSERT_FLOAT_EQ(y1.at(r, c), y2.at(r, c)) << "row " << r;
    }
  }
  // The perturbed row itself must change.
  EXPECT_GT(Tensor::max_abs_diff(y1, y2), 1e-4f);
}

TEST(ReferenceModel, BidirectionalSeesFuture) {
  const auto cfg = small_bert();
  const Weights w(cfg, 13);
  const ReferenceModel ref(cfg, w);
  Tensor x = random_input(5, cfg.embed_dim, 43);
  const Tensor y1 = ref.forward_prompt(x);
  for (int c = 0; c < cfg.embed_dim; ++c) x.at(4, c) += 1.0f;
  const Tensor y2 = ref.forward_prompt(x);
  // In an encoder, earlier rows DO change when a later token changes.
  float diff_row0 = 0.0f;
  for (int c = 0; c < cfg.embed_dim; ++c) {
    diff_row0 = std::max(diff_row0, std::abs(y1.at(0, c) - y2.at(0, c)));
  }
  EXPECT_GT(diff_row0, 1e-5f);
}

TEST(ReferenceModel, LayerCountMismatchThrows) {
  const auto cfg_small = small_llama();
  auto cfg_other = cfg_small;
  cfg_other.num_layers = 3;
  const Weights w(cfg_small, 1);
  EXPECT_THROW(ReferenceModel(cfg_other, w), Error);
}

TEST(ReferenceModel, ArRequiresConsistentCachePosition) {
  const auto cfg = small_llama();
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  auto caches = ref.make_caches(cfg.ar_context);
  const Tensor x = random_input(1, cfg.embed_dim, 3);
  EXPECT_THROW((void)ref.forward_ar(x, caches, 5), Error);
}

TEST(ReferenceModel, RopeMakesOutputPositionDependent) {
  const auto cfg = small_llama();
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  const Tensor x = random_input(1, cfg.embed_dim, 3);
  auto c0 = ref.make_caches(cfg.ar_context);
  const Tensor y0 = ref.block_ar(x, 0, c0, 0);
  // Same token content at a later position (prefix of one other token).
  auto c1 = ref.make_caches(cfg.ar_context);
  const Tensor filler = random_input(1, cfg.embed_dim, 5);
  (void)ref.block_ar(filler, 0, c1, 0);
  const Tensor y1 = ref.block_ar(x, 0, c1, 1);
  EXPECT_GT(Tensor::max_abs_diff(y0, y1), 1e-5f);
}
