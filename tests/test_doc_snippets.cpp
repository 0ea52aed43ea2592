// Compile-and-run guard for the examples in docs/extending.md and
// README.md: every ```cpp fence of those documents appears below
// VERBATIM (the docs-snippet-sync rule of tools/lint_domain.py enforces
// the byte equality, modulo a uniform indent), and each example is
// driven through a real engine or router — so a documented example
// that stops compiling, or stops doing what the prose claims, fails CI
// instead of rotting quietly.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/deployment_analyzer.hpp"
#include "fleet/router.hpp"
#include "fleet/routing_policy.hpp"
#include "model/config.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/precision.hpp"
#include "runtime/scheduler.hpp"

using namespace distmcu;

namespace {

/// Cut-down decoder so the examples run in milliseconds; the policies
/// under test never see the model size.
model::TransformerConfig doc_cfg() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 32;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

/// Cut-down bidirectional encoder for the DeploymentSpec example.
model::TransformerConfig doc_bert_cfg() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 32;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

// --- docs/extending.md: "Custom Scheduler" ---

/// Admit the cheapest queued request first; ties fall back to submit
/// order (the queue is listed in submit order, so the first minimum
/// wins).
class ShortestJobFirst final : public runtime::Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "sjf"; }
  [[nodiscard]] std::size_t pick(const std::vector<Candidate>& queue,
                                 Cycles /*now*/) const override {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (queue[i].estimated_cost < queue[best].estimated_cost) best = i;
    }
    return best;
  }
};

// --- docs/extending.md: "Custom KvBudgetPolicy" ---

/// Hand any free page to whoever asks: maximum utilization, zero
/// isolation — the opposite extreme from StaticSplitPolicy.
class GreedyPoolPolicy final : public runtime::KvBudgetPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "greedy_pool"; }
  [[nodiscard]] bool may_acquire(runtime::ModelId /*tenant*/,
                                 const std::vector<TenantView>& /*tenants*/,
                                 int /*total_pages*/,
                                 int free_pages) const override {
    return free_pages > 0;
  }
};

// --- docs/extending.md: "Custom PreemptionPolicy" ---

/// Only ever evict best-effort work, preferring the smallest KV
/// checkpoint (least decode progress); decline rather than touch any
/// deadline-carrying request.
class BestEffortOnlyPreemption final : public runtime::PreemptionPolicy {
 public:
  [[nodiscard]] const char* name() const override {
    return "best_effort_only";
  }
  [[nodiscard]] int pick_victim(
      const std::vector<Victim>& victims,
      const runtime::Scheduler::Candidate& /*starved*/,
      Cycles /*now*/) const override {
    std::size_t best = victims.size();
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (victims[i].deadline_at != runtime::kNoDeadline) continue;
      if (best == victims.size() ||
          victims[i].generated < victims[best].generated) {
        best = i;
      }
    }
    return best == victims.size() ? -1 : static_cast<int>(best);
  }
};

// --- docs/extending.md: "Custom RoutingPolicy" ---

/// Send every request to the eligible node with the least outstanding
/// estimated work, ignoring this request's own cost and the link.
class LeastBacklogRouting final : public fleet::RoutingPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "least_backlog"; }
  [[nodiscard]] std::size_t pick(const std::vector<NodeView>& nodes,
                                 std::uint64_t /*submit_seq*/) const override {
    std::size_t best = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].eligible) continue;
      if (best == nodes.size() ||
          nodes[i].backlog_cycles < nodes[best].backlog_cycles) {
        best = i;
      }
    }
    return best;
  }
};

}  // namespace

// --- docs/extending.md: "Declaring a deployment: DeploymentSpec" ---

TEST(DocSnippets, DeploymentSpecDeclaresPrecisionPerTenant) {
  const model::TransformerConfig llama_cfg = doc_cfg();
  const model::TransformerConfig bert_cfg = doc_bert_cfg();

  runtime::DeploymentSpec llama;
  llama.model = llama_cfg;  // any validated TransformerConfig
  llama.chips = 4;
  llama.kv_layout = runtime::KvLayout::fp16;  // 16-bit KV entries

  runtime::DeploymentSpec bert;
  bert.model = bert_cfg;
  bert.chips = 2;
  bert.precision = runtime::Precision::int8;  // A8W8 compute + cost model
  bert.kv_layout = runtime::KvLayout::int8;   // packed 8-bit KV entries

  runtime::ModelRegistry registry;
  const runtime::ModelId lm = registry.add(llama);
  const runtime::ModelId bm = registry.add(bert);
  runtime::BatchedEngine engine(registry, {.total_kv_slots = 2});

  // The declared widths are visible per tenant through the engine.
  EXPECT_EQ(engine.model_precision(lm), runtime::Precision::fp16);
  EXPECT_EQ(engine.model_precision(bm), runtime::Precision::int8);
  EXPECT_EQ(engine.model_kv_elem_bits(lm),
            runtime::kv_layout_bits(runtime::KvLayout::fp16, 8));
  EXPECT_EQ(engine.model_kv_elem_bits(bm),
            runtime::kv_layout_bits(runtime::KvLayout::int8, 8));

  const auto gen = engine.submit(
      {.model = lm, .prompt = {1, 17, 42}, .new_tokens = 4});
  const auto enc = engine.submit(
      {.model = bm, .prompt = {7, 9, 11}, .new_tokens = 0});
  const auto results = engine.run_to_completion();

  ASSERT_TRUE(gen && enc);
  ASSERT_EQ(results.size(), 2u);
  // Precision never changes the content contract: each tenant's stream
  // is bit-exact with a dedicated session built from the same spec.
  const runtime::InferenceSession llama_solo(llama);
  const runtime::InferenceSession bert_solo(bert);
  for (const auto& r : results) {
    if (r.id == *gen) {
      EXPECT_EQ(r.gen.tokens, llama_solo.generate({1, 17, 42}, 4).tokens);
    }
    if (r.id == *enc) {
      EXPECT_EQ(r.gen.tokens, bert_solo.generate({7, 9, 11}, 0).tokens);
    }
  }
}

TEST(DocSnippets, ShortestJobFirstAdmitsCheapestFirst) {
  const runtime::InferenceSession session(doc_cfg(), 4);
  runtime::ModelRegistry registry;
  (void)registry.add(session, "tinyllama");
  runtime::BatchedEngine engine(registry, {
      .total_kv_slots = 1,
      .scheduler = std::make_shared<const ShortestJobFirst>()});
  EXPECT_STREQ(engine.scheduler().name(), "sjf");

  // One slot, three queued jobs: SJF must serve them cheapest-first
  // (c, b, a) regardless of submit order.
  const auto a = engine.submit({.prompt = {1, 2, 3}, .new_tokens = 6});
  const auto b = engine.submit({.prompt = {4, 5, 6}, .new_tokens = 5});
  const auto c = engine.submit({.prompt = {7, 8}, .new_tokens = 1});
  ASSERT_TRUE(a && b && c);
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].id, *c);
  EXPECT_EQ(results[1].id, *b);
  EXPECT_EQ(results[2].id, *a);
}

TEST(DocSnippets, GreedyPoolLendsEveryIdleSlot) {
  const runtime::InferenceSession llama(doc_cfg(), 4);
  const runtime::InferenceSession other(doc_cfg(), 2);
  runtime::ModelRegistry registry;
  const auto gen = registry.add(llama, "tinyllama", /*prefill_chunk_tokens=*/0,
                                /*kv_quota=*/1);
  (void)registry.add(other, "idle_tenant", /*prefill_chunk_tokens=*/0,
                     /*kv_quota=*/1);
  runtime::BatchedEngine engine(registry, {
      .total_kv_slots = 3,
      .kv_budget = std::make_shared<const GreedyPoolPolicy>()});

  // Three concurrent requests from a quota-1 tenant: a greedy pool must
  // lend both idle slots, so the high-water mark clears the quota.
  ASSERT_TRUE(
      engine.submit({.model = gen, .prompt = {1, 2, 3}, .new_tokens = 4}));
  ASSERT_TRUE(engine.submit({.model = gen, .prompt = {4, 5}, .new_tokens = 4}));
  ASSERT_TRUE(
      engine.submit({.model = gen, .prompt = {6, 7, 8}, .new_tokens = 4}));
  const auto results = engine.run_to_completion();
  EXPECT_EQ(results.size(), 3u);
  const auto stats = engine.stats();
  ASSERT_GT(stats.per_model.size(), static_cast<std::size_t>(gen));
  EXPECT_EQ(stats.per_model[gen].kv_quota, 1);
  EXPECT_GE(stats.per_model[gen].kv_in_use_high_water, 2);
  EXPECT_EQ(stats.peak_batch, 3);
}

TEST(DocSnippets, BestEffortOnlyPreemptionRescuesTheDeadline) {
  const runtime::InferenceSession session(doc_cfg(), 4);
  runtime::ModelRegistry registry;
  (void)registry.add(session, "tinyllama");

  // Probe the dedicated-service cost of each job on an idle engine.
  const auto solo_cycles = [&](int prompt0, int new_tokens) {
    runtime::BatchedEngine probe(registry, {.total_kv_slots = 1});
    (void)*probe.submit(
        {.prompt = {prompt0, 2, 3}, .new_tokens = new_tokens});
    (void)probe.run_to_completion();
    return probe.stats().total_cycles;
  };
  const Cycles long_cost = solo_cycles(1, 12);
  const Cycles short_cost = solo_cycles(5, 2);
  ASSERT_LT(short_cost, long_cost);

  runtime::BatchedEngine engine(registry, {
      .total_kv_slots = 1,
      .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
      .preemption = std::make_shared<const BestEffortOnlyPreemption>()});
  // The best-effort long job takes the only slot and decodes to about a
  // quarter of its run; the deadline job then arrives feasible if
  // started now but infeasible after the victim's natural release.
  const auto victim = engine.submit({.prompt = {1, 2, 3}, .new_tokens = 12});
  ASSERT_TRUE(victim);
  while (engine.stats().total_cycles < long_cost / 4) {
    ASSERT_TRUE(engine.step());
  }
  const auto urgent = engine.submit(
      {.prompt = {5, 2, 3},
       .new_tokens = 2,
       .slo = {.deadline_cycles = 2 * short_cost}});
  ASSERT_TRUE(urgent);
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 2u);

  const auto stats = engine.stats();
  EXPECT_GE(stats.preemptions, 1);
  EXPECT_GE(stats.resumes, 1);
  for (const auto& r : results) {
    if (r.id == *urgent) {
      EXPECT_FALSE(r.missed_deadline());
    }
    if (r.id == *victim) {
      // Eviction costs cycles, never tokens: the resumed stream is
      // bit-exact with a dedicated generate call.
      EXPECT_GE(r.times_evicted, 1);
      EXPECT_EQ(r.gen.tokens, session.generate({1, 2, 3}, 12).tokens);
    }
  }
}

TEST(DocSnippets, LeastBacklogRoutingPlacesOnTheIdleNode) {
  const runtime::InferenceSession big(doc_cfg(), 4);
  const runtime::InferenceSession small(doc_cfg(), 2);
  runtime::ModelRegistry reg_near;
  runtime::ModelRegistry reg_far;
  (void)reg_near.add(big, "tinyllama");
  (void)reg_far.add(small, "tinyllama");
  runtime::BatchedEngine fast_engine(reg_near, {.total_kv_slots = 2});
  runtime::BatchedEngine slow_engine(reg_far, {.total_kv_slots = 2});

  fleet::Router router(std::make_shared<const LeastBacklogRouting>());
  router.add_node(fast_engine, {.latency_cycles = 1'000}, "near");
  router.add_node(slow_engine, {.latency_cycles = 50'000}, "far");
  auto id = router.submit("tinyllama", {1, 17, 42}, 4,
                          {.deadline_cycles = 50'000'000}, /*at=*/0);
  const auto& results = router.run_to_completion();

  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(results.size(), 1u);
  // Both nodes idle: least-backlog picks the first eligible node.
  EXPECT_EQ(results[0].node, 0);
  EXPECT_FALSE(results[0].missed_deadline());

  const auto s = router.stats();
  EXPECT_EQ(s.offered, 1);
  EXPECT_EQ(s.placed, 1);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.routed, 1u);
  EXPECT_EQ(s.misrouted, 0u);
}

// --- README.md: "Library use" ---

TEST(DocSnippets, ReadmeLibraryUseServesTheDedicatedStream) {
  // The fence's includes and using-directive are no-ops here: both
  // headers are already included above.
  #include "runtime/batched_engine.hpp"
  #include "runtime/inference_session.hpp"

  using namespace distmcu;

  runtime::InferenceSession session(model::TransformerConfig::tiny_llama_42m(), 8);
  auto block = session.run_block(model::Mode::autoregressive);  // paper metric
  auto gen   = session.generate({1, 17, 42}, 16);               // one stream

  runtime::ModelRegistry registry;                              // many streams
  auto llama = registry.add(session, "tinyllama");
  runtime::BatchedEngine engine(registry, {.total_kv_slots = 3});
  auto id = engine.submit({.model = llama, .prompt = {1, 17, 42},
                           .new_tokens = 16});                  // nullopt = queue full
  auto results = engine.run_to_completion();

  EXPECT_GT(block.report.block_cycles, 0u);
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, gen.tokens);
}

// --- README.md: "Scheduling policies & SLOs" ---

TEST(DocSnippets, ReadmeDeadlineCarriesIntoTheResult) {
  const runtime::InferenceSession session(doc_cfg(), 4);
  runtime::ModelRegistry registry;
  auto llama = registry.add(session, "tinyllama", /*prefill_chunk_tokens=*/2);
  runtime::BatchedEngine engine(registry, {
      .total_kv_slots = 2,
      .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf)});
  auto id = engine.submit(
      {.model = llama,
       .prompt = {1, 17, 42},
       .new_tokens = 16,
       .slo = {.priority = 0, .deadline_cycles = 160'000'000}});

  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(engine.chunk_tokens(llama), 2);
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].slo.deadline_cycles, Cycles{160'000'000});
  EXPECT_EQ(results[0].gen.tokens, session.generate({1, 17, 42}, 16).tokens);
}

// --- README.md: "Preemption & overload control" ---

TEST(DocSnippets, ReadmeOverloadControlsServe) {
  const runtime::InferenceSession session(doc_cfg(), 4);
  runtime::ModelRegistry registry;
  (void)registry.add(session, "tinyllama");
  runtime::BatchedEngine engine(registry, {
      .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
      .fail_fast_deadlines = true,   // reject deadlines no schedule can meet
      .fair_shedding = true,         // overflow drops the heaviest tenant
      .preemption = std::make_shared<runtime::DeadlineAwarePreemption>()});

  EXPECT_STREQ(engine.scheduler().name(), "edf");
  ASSERT_TRUE(engine.submit({.prompt = {1, 2, 3}, .new_tokens = 4}));
  EXPECT_EQ(engine.run_to_completion().size(), 1u);
}

// --- README.md: "Multi-model serving" ---

TEST(DocSnippets, ReadmeMultiModelServesBothTenantsBitExact) {
  const model::TransformerConfig llama_cfg = doc_cfg();
  const model::TransformerConfig bert_cfg = doc_bert_cfg();
  runtime::InferenceSession llama(llama_cfg, 4);  // any validated configs
  runtime::InferenceSession bert(bert_cfg, 4);

  runtime::ModelRegistry registry;
  auto gen = registry.add(llama, "tinyllama", /*prefill_chunk_tokens=*/4,
                          /*kv_quota=*/2);
  auto cls = registry.add(bert, "mobilebert", /*prefill_chunk_tokens=*/8,
                          /*kv_quota=*/2);
  runtime::BatchedEngine engine(registry, {
      .total_kv_slots = 4,
      .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
      .kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark)});
  auto a = engine.submit(
      {.model = gen, .prompt = {1, 17, 42}, .new_tokens = 16});  // generation
  auto b = engine.submit({.model = cls,                          // classification
                          .prompt = {5, 9, 2, 8},
                          .new_tokens = 0,                       // (prefill-only)
                          .slo = {.deadline_cycles = 40'000'000}});

  ASSERT_TRUE(a && b);
  EXPECT_STREQ(engine.kv_budget().name(), "watermark");
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.id == *a) {
      EXPECT_EQ(r.gen.tokens, llama.generate({1, 17, 42}, 16).tokens);
    }
    if (r.id == *b) {
      EXPECT_EQ(r.gen.tokens, bert.generate({5, 9, 2, 8}, 0).tokens);
    }
  }
}

// --- README.md: "Fleet-scale serving" ---

TEST(DocSnippets, ReadmeFleetPlacesTheRequest) {
  const runtime::InferenceSession big(doc_cfg(), 4);
  const runtime::InferenceSession small(doc_cfg(), 2);
  runtime::ModelRegistry reg_a;
  runtime::ModelRegistry reg_b;
  (void)reg_a.add(big, "tinyllama");
  (void)reg_b.add(small, "tinyllama");
  runtime::BatchedEngine engine_a(reg_a, {.total_kv_slots = 2});
  runtime::BatchedEngine engine_b(reg_b, {.total_kv_slots = 2});
  fleet::Router router(fleet::make_routing_policy(
      fleet::RoutePolicy::cost_aware));
  router.add_node(engine_a, {.latency_cycles = 20'000,
                             .cycles_per_byte = 0.5}, "near");
  router.add_node(engine_b, {.latency_cycles = 400'000,
                             .cycles_per_byte = 2.0}, "far");
  auto id = router.submit("tinyllama", {1, 17, 42}, 16,
                          {.deadline_cycles = 80'000'000}, /*at=*/0);
  auto results = router.run_to_completion();

  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(router.stats().completed, 1);
}

// --- README.md: "Static analysis" ---

TEST(DocSnippets, ReadmeAnalyzerPassesACleanConfig) {
  const runtime::InferenceSession session(doc_cfg(), 4);
  runtime::ModelRegistry registry;
  (void)registry.add(session, "tinyllama");
  const runtime::BatchedEngine::MultiOptions opts{.total_kv_slots = 4};
  // 1. Library: analyze a config (optionally against a workload).
  analysis::Workload wl;
  wl.requests.push_back({.model = 0, .prompt_tokens = 8, .new_tokens = 16,
                         .deadline_cycles = 40'000'000, .count = 6});
  auto report = analysis::DeploymentAnalyzer::analyze(registry, opts, &wl);
  if (!report.ok()) std::cerr << report.to_text();

  // 2. Strict mode: refuse an unsound deployment at construction with
  //    structured diagnostics instead of whichever runtime throw fires
  //    first (also catches what plain construction accepts, e.g.
  //    DMCU-TRC-005 lane collisions).
  try {
    runtime::BatchedEngine engine(registry, {.total_kv_slots = 4,
                                             .strict = true});
  } catch (const analysis::AnalysisError& e) {
    if (e.report().has(analysis::kMemOverflow)) { /* shrink the cap */ }
  }

  EXPECT_TRUE(report.ok()) << report.to_text();
}
