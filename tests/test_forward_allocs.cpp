// Allocation bounds of the functional forward, measured with a counting
// global operator new (this test is its own executable, so the counter
// sees only this program). A forward into a warmed workspace allocates
// nothing, and a steady-state decode step allocates a small constant
// that does not grow with the batch, the layer count or the chip count.
// Both hold for float and for int8 (A8W8) deployments.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "model/config.hpp"
#include "partition/distributed_block.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "util/rng.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace distmcu;
using model::TransformerConfig;
using partition::ForwardWorkspace;
using partition::RowGroup;
using runtime::BatchedEngine;
using runtime::DeploymentSpec;
using runtime::InferenceSession;

namespace {

TransformerConfig decoder(int layers) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "decoder";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = layers;
  cfg.vocab_size = 128;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

DeploymentSpec spec(int layers, int chips, bool int8 = false) {
  DeploymentSpec s;
  s.model = decoder(layers);
  s.chips = chips;
  s.prefill_chunk_tokens = 4;
  if (int8) {
    s.precision = runtime::Precision::int8;
    s.kv_layout = runtime::KvLayout::int8;
  }
  return s;
}

/// Allocations of a warmed paged forward (a chunk group plus a decode
/// group, each behind its page table in one row store) and of a warmed
/// forward_tokens over the same two requests. Later forwards reach more
/// pages than the warm-up did.
void expect_warmed_forwards_allocate_nothing(bool int8) {
  const InferenceSession session(spec(2, 4, int8));
  const int e = session.config().embed_dim;
  constexpr int kPageTokens = 4;
  const std::vector<std::size_t> offsets = session.block_executor().kv_row_offsets();
  const std::size_t stride = model::kv_page_floats(offsets, kPageTokens);
  std::vector<float> store(6 * stride);
  const std::vector<int> pages_a = {0, 2, 4, 5};
  const std::vector<int> pages_b = {3};
  const model::KvPageTable a{store.data(), stride, kPageTokens, pages_a, offsets};
  const model::KvPageTable b{store.data(), stride, kPageTokens, pages_b, offsets};
  util::Rng rng(7);
  std::vector<float> x(static_cast<std::size_t>(5 * e)), out(x.size());
  for (float& v : x) v = rng.uniform(-1.0f, 1.0f);
  ForwardWorkspace ws;
  // A chunk of 4 rows for one request and a decode row for another.
  const RowGroup groups[] = {{nullptr, 0, 4, a}, {nullptr, 0, 1, b}};
  session.forward(ws, x, out, groups, 0);  // warm-up: the workspace grows

  const RowGroup next[] = {{nullptr, 4, 4, a}, {nullptr, 1, 1, b}};
  const std::uint64_t before = g_allocs;
  session.forward(ws, x, out, next, 0);
  EXPECT_EQ(g_allocs - before, 0u);

  // The whole-stack path (embedding, every layer) too.
  const std::vector<int> ids = {1, 2, 3, 4, 5};
  const RowGroup third[] = {{nullptr, 8, 4, a}, {nullptr, 2, 1, b}};
  (void)session.forward_tokens(ws, ids, third);
  const RowGroup fourth[] = {{nullptr, 12, 4, a}, {nullptr, 3, 1, b}};
  const std::uint64_t before_stack = g_allocs;
  (void)session.forward_tokens(ws, ids, fourth);
  EXPECT_EQ(g_allocs - before_stack, 0u);
}

TEST(ForwardAllocs, WarmedForwardIntoExistingWorkspaceAllocatesNothing) {
  expect_warmed_forwards_allocate_nothing(false);
}

TEST(ForwardAllocs, WarmedInt8ForwardAllocatesNothing) {
  expect_warmed_forwards_allocate_nothing(true);
}

/// Allocations of one steady-state decode step: `batch` requests are
/// admitted and prefilled, one decode step warms up, then one decode
/// step is counted.
std::uint64_t steady_decode_step_allocs(int batch, int layers, int chips,
                                        bool int8 = false) {
  auto registry = std::make_shared<runtime::ModelRegistry>();
  (void)registry->add(spec(layers, chips, int8));
  BatchedEngine engine(*registry, {.total_kv_slots = batch});
  for (int i = 0; i < batch; ++i) {
    EXPECT_TRUE(engine.submit({.prompt = {1 + i, 2 + i, 3 + i}, .new_tokens = 40}).has_value());
  }
  // Admission + the single prefill chunk, then a warm-up decode step.
  for (int s = 0; s < 3; ++s) EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.active_requests(), batch);
  const std::uint64_t before = g_allocs;
  EXPECT_TRUE(engine.step());
  return g_allocs - before;
}

TEST(ForwardAllocs, SteadyDecodeStepAllocatesASmallConstant) {
  const std::uint64_t base = steady_decode_step_allocs(4, 2, 2);
  EXPECT_LE(base, 8u);
  EXPECT_EQ(steady_decode_step_allocs(8, 2, 2), base) << "grows with the batch";
  EXPECT_EQ(steady_decode_step_allocs(4, 4, 2), base) << "grows with the layer count";
  EXPECT_EQ(steady_decode_step_allocs(4, 2, 4), base) << "grows with the chip count";
}

TEST(ForwardAllocs, SteadyInt8DecodeStepAllocatesASmallConstant) {
  const std::uint64_t base = steady_decode_step_allocs(4, 2, 2, true);
  EXPECT_LE(base, 8u);
  EXPECT_EQ(steady_decode_step_allocs(8, 2, 2, true), base) << "grows with the batch";
  EXPECT_EQ(steady_decode_step_allocs(4, 4, 2, true), base) << "grows with the layer count";
  EXPECT_EQ(steady_decode_step_allocs(4, 2, 4, true), base) << "grows with the chip count";
}

}  // namespace
