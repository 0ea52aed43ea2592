// Tracer fast-path regression suite: a counters_only() tracer must
// aggregate at O(1) per record with ZERO Span materialization — no
// buffer ever allocates (capacity stays 0, not merely size) — while
// every totals query (per-chip/category occupancy, bytes, makespan,
// per-request and per-model attribution) stays exactly equal to a
// default buffered tracer fed the identical span stream. An engine-level
// cross-check runs the same serving workload under both modes and pins
// the aggregate equality end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "sim/tracer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace distmcu;
using distmcu::testing::registry_of;
using sim::Category;
using sim::Tracer;

namespace {

/// Feed both tracers one identical randomized span stream: mixed chips,
/// categories, request/model tags, and labels (the labels are what the
/// fast path must NOT copy).
void feed(Tracer& a, Tracer& b, std::uint64_t seed, int n_spans) {
  util::Rng rng(seed);
  Cycles t = 0;
  for (int i = 0; i < n_spans; ++i) {
    const int chip = static_cast<int>(rng.next_below(4));
    const auto cat = static_cast<Category>(rng.next_below(sim::kNumCategories));
    const Cycles begin = t + rng.next_below(50);
    const Cycles end = begin + 1 + rng.next_below(1000);
    const Bytes bytes = rng.next_below(4096);
    t = begin;
    const int request = static_cast<int>(rng.next_below(5)) - 1;  // -1..3
    const int model = static_cast<int>(rng.next_below(3)) - 1;    // -1..1
    const std::string label = "span-" + std::to_string(i);
    for (Tracer* tr : {&a, &b}) {
      tr->set_request(request);
      tr->set_model(model);
      tr->record(chip, cat, begin, end, bytes, label);
    }
  }
}

}  // namespace

TEST(TracerFastPath, CountersOnlyAllocatesNoSpans) {
  Tracer t = Tracer::counters_only();
  EXPECT_FALSE(t.buffering_spans());
  Tracer buffered;
  feed(t, buffered, /*seed=*/11, /*n_spans=*/500);
  // Zero allocations, not merely zero size: the span buffer never grew.
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.spans().capacity(), 0u);
  // Every record was still counted.
  EXPECT_EQ(t.recorded_spans(), 500u);
  EXPECT_EQ(buffered.spans().size(), 500u);
  EXPECT_EQ(buffered.recorded_spans(), 500u);
}

TEST(TracerFastPath, AggregatesMatchBufferedTracerExactly) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Tracer fast = Tracer::counters_only();
    Tracer buffered;
    feed(fast, buffered, seed, /*n_spans=*/400);
    for (std::size_t c = 0; c < sim::kNumCategories; ++c) {
      const auto cat = static_cast<Category>(c);
      EXPECT_EQ(fast.total(cat), buffered.total(cat));
      EXPECT_EQ(fast.total_bytes(cat), buffered.total_bytes(cat));
      for (int chip = 0; chip < 4; ++chip) {
        EXPECT_EQ(fast.total(chip, cat), buffered.total(chip, cat));
      }
    }
    EXPECT_EQ(fast.makespan(), buffered.makespan());
    for (int request = -1; request < 4; ++request) {
      EXPECT_EQ(fast.total_for_request(request),
                buffered.total_for_request(request));
    }
    for (int model = -1; model < 2; ++model) {
      EXPECT_EQ(fast.total_for_model(model), buffered.total_for_model(model));
    }
  }
}

TEST(TracerFastPath, ClearResetsBothModes) {
  Tracer fast = Tracer::counters_only();
  Tracer buffered;
  feed(fast, buffered, /*seed=*/5, /*n_spans=*/50);
  fast.clear();
  buffered.clear();
  for (Tracer* t : {&fast, &buffered}) {
    EXPECT_EQ(t->recorded_spans(), 0u);
    EXPECT_EQ(t->makespan(), 0u);
    EXPECT_EQ(t->total(Category::compute), 0u);
    EXPECT_EQ(t->total_for_request(sim::kNoRequest), 0u);
    EXPECT_TRUE(t->spans().empty());
  }
  // Mode survives clear().
  EXPECT_FALSE(fast.buffering_spans());
  EXPECT_TRUE(buffered.buffering_spans());
}

TEST(TracerFastPath, ServedWorkloadAggregatesIdenticalAcrossModes) {
  // End-to-end: the batched engine drives both tracer modes through the
  // same deterministic workload; the fast path must reproduce every
  // occupancy aggregate the buffered tracer derives from its spans.
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 64;
  cfg.ar_context = 24;
  cfg.prompt_len = 6;
  cfg.validate();
  const runtime::InferenceSession session(cfg, 4);

  const auto run = [&](Tracer& tracer) {
    runtime::BatchedEngine engine(registry_of(session),
                                  {.total_kv_slots = 2, .max_pending = 8},
                                  &tracer);
    (void)*engine.submit({.prompt = {1, 2, 3}, .new_tokens = 3,
                          .slo = {.priority = 0}});
    (void)*engine.submit({.prompt = {4, 5}, .new_tokens = 2,
                          .slo = {.priority = 1}});
    (void)*engine.submit(
        {.prompt = {6, 1, 2, 5}, .new_tokens = 4,
         .slo = {.priority = 0, .deadline_cycles = 2'000'000}});
    (void)engine.run_to_completion();
    return engine.stats().total_cycles;
  };

  Tracer fast = Tracer::counters_only();
  Tracer buffered;
  EXPECT_EQ(run(fast), run(buffered));

  EXPECT_GT(buffered.spans().size(), 0u);
  EXPECT_EQ(fast.spans().capacity(), 0u);
  EXPECT_EQ(fast.recorded_spans(), buffered.spans().size());
  for (std::size_t c = 0; c < sim::kNumCategories; ++c) {
    const auto cat = static_cast<Category>(c);
    EXPECT_EQ(fast.total(cat), buffered.total(cat));
    EXPECT_EQ(fast.total_bytes(cat), buffered.total_bytes(cat));
  }
  EXPECT_EQ(fast.makespan(), buffered.makespan());
  for (int request = 0; request < 3; ++request) {
    EXPECT_EQ(fast.total_for_request(request),
              buffered.total_for_request(request));
  }
}
