// Tests for the batched serving runtime: continuous batching must keep
// every request's token stream bit-identical to an independent
// InferenceSession::generate call, aggregate cycle/energy accounting
// must sum to the per-request parts, the KV-cache pool must reject
// gracefully when exhausted, and the GenerationResult/BlockResult rate
// metrics must survive their zero-input edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "mem/arena.hpp"
#include "mem/paged_arena.hpp"
#include "model/kv_cache.hpp"
#include "dense_kv.hpp"
#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "sim/tracer.hpp"
#include "util/check.hpp"

using namespace distmcu;
using distmcu::testing::dedicated_kv;
using distmcu::testing::kv_rows_match;
using distmcu::testing::registry_of;
using model::TransformerConfig;
using runtime::BatchedEngine;
using runtime::GenerationResult;
using runtime::InferenceSession;
using runtime::RequestId;
using runtime::RequestResult;

namespace {

constexpr double kFreqHz = 500e6;

TransformerConfig small_llama() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 24;
  cfg.prompt_len = 4;
  cfg.validate();
  return cfg;
}

/// Full-width TinyLlama blocks (only the layer count and vocab are cut
/// for speed): at 4 chips this deployment is in the *streamed* regime,
/// where block weights are fetched from L3 during every decode step —
/// the case continuous batching exists for.
TransformerConfig streamed_llama() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 200;
  cfg.ar_context = 32;
  cfg.prompt_len = 4;
  cfg.validate();
  return cfg;
}

/// Mixed workload: prompts of different lengths decoding different
/// token counts, so requests finish at different steps.
struct Workload {
  std::vector<int> prompt;
  int new_tokens;
};

std::vector<Workload> mixed_workloads() {
  return {
      {{1, 2, 3}, 6},
      {{7}, 3},
      {{4, 9, 2, 11}, 8},
      {{5, 5}, 1},
  };
}

const RequestResult& result_for(const std::vector<RequestResult>& results,
                                RequestId id) {
  for (const auto& r : results) {
    if (r.id == id) return r;
  }
  throw Error("result_for: no such request id");
}

}  // namespace

TEST(BatchedEngine, TokensIdenticalToSequentialGenerate) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const auto workloads = mixed_workloads();

  for (int batch = 1; batch <= 4; ++batch) {
    BatchedEngine engine(registry_of(session), {.total_kv_slots = batch,
                                                .max_pending = 64});
    std::vector<RequestId> ids;
    for (const auto& w : workloads) {
      const auto id = engine.submit({.prompt = w.prompt,
                                     .new_tokens = w.new_tokens});
      ASSERT_TRUE(id.has_value());
      ids.push_back(*id);
    }
    const auto results = engine.run_to_completion();
    ASSERT_EQ(results.size(), workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto solo =
          session.generate(workloads[i].prompt, workloads[i].new_tokens);
      const auto& batched = result_for(results, ids[i]);
      EXPECT_EQ(batched.gen.tokens, solo.tokens)
          << "request " << i << " diverged at batch size " << batch;
      EXPECT_EQ(batched.gen.generated, solo.generated);
    }
  }
}

TEST(BatchedEngine, RequestsFinishAtDifferentSteps) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 4,
                                              .max_pending = 64});
  std::vector<RequestId> ids;
  for (const auto& w : mixed_workloads()) {
    ids.push_back(
        *engine.submit({.prompt = w.prompt, .new_tokens = w.new_tokens}));
  }
  const auto results = engine.run_to_completion();
  // All admitted together (batch covers the workload), so finish steps
  // order by token count: 1 < 3 < 6 < 8.
  EXPECT_LT(result_for(results, ids[3]).finished_step,
            result_for(results, ids[1]).finished_step);
  EXPECT_LT(result_for(results, ids[1]).finished_step,
            result_for(results, ids[0]).finished_step);
  EXPECT_LT(result_for(results, ids[0]).finished_step,
            result_for(results, ids[2]).finished_step);
  EXPECT_EQ(engine.stats().peak_batch, 4);
  EXPECT_EQ(engine.stats().completed, 4);
}

TEST(BatchedEngine, AggregateAccountingSumsToPerRequestParts) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 3,
                                              .max_pending = 64});
  for (const auto& w : mixed_workloads()) {
    (void)*engine.submit({.prompt = w.prompt, .new_tokens = w.new_tokens});
  }
  const auto results = engine.run_to_completion();

  Cycles cycle_sum = 0;
  double energy_sum = 0.0;
  int generated_sum = 0;
  for (const auto& r : results) {
    EXPECT_GT(r.gen.total_cycles, 0u);
    EXPECT_GT(r.gen.total_energy_mj, 0.0);
    cycle_sum += r.gen.total_cycles;
    energy_sum += r.gen.total_energy_mj;
    generated_sum += r.gen.generated;
  }
  // Cycles are attributed with integer remainder distribution: exact.
  EXPECT_EQ(cycle_sum, engine.stats().total_cycles);
  EXPECT_NEAR(energy_sum, engine.stats().total_energy_mj,
              1e-9 * energy_sum);
  EXPECT_EQ(generated_sum, engine.stats().total_generated);
  EXPECT_GT(engine.stats().aggregate_tokens_per_s(kFreqHz), 0.0);

  // Residence latency covers every step a request was in flight, so it
  // is at least the request's own attributed cost and the spans stay
  // inside the engine timeline.
  for (const auto& r : results) {
    EXPECT_GE(r.latency_cycles(), r.gen.total_cycles);
    EXPECT_LE(r.finished_at, engine.stats().total_cycles);
    EXPECT_GE(r.finished_at, r.admitted_at);
  }
}

TEST(BatchedEngine, SingleRequestMatchesGenerateCosts) {
  // At batch size 1 on a fully resident deployment nothing is shared
  // and nothing streams, so the serving cost model must collapse to
  // exactly the sequential generate accounting (the streamed overlap
  // case is covered by SingleStreamOverlapHidesStreamBehindCompute).
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 4});
  const std::vector<int> prompt{3, 1, 4};
  const auto id = engine.submit({.prompt = prompt, .new_tokens = 5});
  ASSERT_TRUE(id.has_value());
  const auto results = engine.run_to_completion();
  const auto solo = session.generate(prompt, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, solo.tokens);
  EXPECT_EQ(results[0].gen.total_cycles, solo.total_cycles);
  EXPECT_NEAR(results[0].gen.total_energy_mj, solo.total_energy_mj,
              1e-9 * solo.total_energy_mj);
  // Alone in the batch, residence latency equals the attributed cost.
  EXPECT_EQ(results[0].latency_cycles(), solo.total_cycles);
}

TEST(BatchedEngine, BatchingReducesAggregateCyclesVersusSequential) {
  // The point of continuous batching on a weight-streaming deployment:
  // B requests served together cost less than B independent runs,
  // because block weights stream once per step instead of once per
  // request.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  // Precondition for the win: weight streaming must be on the decode
  // latency path.
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);
  ASSERT_GT(ar.report.breakdown.dma_l3_l2, 0u);

  const std::vector<int> prompt{1, 2, 3};
  const int steps = 6;
  const int batch = 4;

  BatchedEngine engine(registry_of(session), {.total_kv_slots = batch,
                                              .max_pending = 64});
  for (int i = 0; i < batch; ++i) {
    (void)*engine.submit({.prompt = prompt, .new_tokens = steps});
  }
  (void)engine.run_to_completion();

  const auto solo = session.generate(prompt, steps);
  const Cycles sequential = solo.total_cycles * batch;
  EXPECT_LT(engine.stats().total_cycles, sequential);
  // The saving has two parts: the de-duplicated weight streaming (each
  // decode step fetches the block weights once instead of `batch`
  // times) plus whatever of the remaining single stream the prefetch
  // overlap hid behind compute — so the advantage must exceed the
  // de-duplication alone: (batch-1) streams per decode step.
  const Cycles stream =
      static_cast<Cycles>(cfg.num_layers) * ar.report.breakdown.dma_l3_l2;
  EXPECT_GT(sequential - engine.stats().total_cycles,
            static_cast<Cycles>(batch - 1) *
                static_cast<Cycles>(engine.stats().decode_steps) * stream);
}

// --- prefetch overlap (tentpole) ------------------------------------------

TEST(BatchedEngine, PrefetchOverlapConservation) {
  // The event-driven step timeline races the next step's weight
  // prefetch against the batch's compute: per decode step the engine
  // pays max(compute, stream) instead of compute + stream. Every cycle
  // of the serial stream must be accounted as either hidden behind
  // compute or as a visible stall, and per-request attribution must
  // still sum exactly to the aggregate.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const Cycles stream = ar.report.breakdown.dma_l3_l2 * layers;
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles * layers;
  ASSERT_GT(stream, 0u);

  const int batch = 3;
  const int steps = 5;
  BatchedEngine engine(registry_of(session), {.total_kv_slots = batch,
                                              .max_pending = 64});
  std::vector<RequestId> ids;
  for (int i = 0; i < batch; ++i) {
    ids.push_back(*engine.submit({.prompt = {1 + i, 9 - i},
                                  .new_tokens = steps}));
  }
  const auto results = engine.run_to_completion();
  const auto& stats = engine.stats();

  // Stream conservation: stall + hidden == one serial stream per
  // consuming step.
  EXPECT_EQ(stats.prefetch_stall_cycles + stats.stream_cycles_hidden,
            static_cast<Cycles>(stats.decode_steps) * stream);
  // All requests are admitted together and decode in lock-step, so the
  // serial-charging model is exactly reconstructible: total + hidden.
  EXPECT_EQ(stats.decode_steps, steps - 1);
  const Cycles serial =
      static_cast<Cycles>(batch) * prefill +
      static_cast<Cycles>(steps - 1) *
          (static_cast<Cycles>(batch) * per_req + stream);
  EXPECT_EQ(stats.total_cycles + stats.stream_cycles_hidden, serial);
  // First stream is staged; later steps stall only for the part of the
  // stream that batch compute cannot cover.
  const Cycles batch_compute = static_cast<Cycles>(batch) * per_req;
  const Cycles per_step_stall =
      stream > batch_compute ? stream - batch_compute : 0;
  EXPECT_EQ(stats.prefetch_stall_cycles,
            static_cast<Cycles>(steps - 2) * per_step_stall);

  // Exact-attribution invariant survives the overlap: per-request
  // cycles/energy sum to the aggregate.
  Cycles cycle_sum = 0;
  double energy_sum = 0.0;
  for (const auto& r : results) {
    cycle_sum += r.gen.total_cycles;
    energy_sum += r.gen.total_energy_mj;
  }
  EXPECT_EQ(cycle_sum, stats.total_cycles);
  EXPECT_NEAR(energy_sum, stats.total_energy_mj, 1e-9 * energy_sum);

  // Token streams stay bit-identical to dedicated generate calls.
  for (int i = 0; i < batch; ++i) {
    const auto solo = session.generate({1 + i, 9 - i}, steps);
    EXPECT_EQ(result_for(results, ids[i]).gen.tokens, solo.tokens);
  }
}

TEST(BatchedEngine, MidServingAdmissionKeepsConservation) {
  // A request admitted while a stream prefetch is in flight contends
  // with it for the L3 port (the prefill's own streaming pushes the
  // fetch back), so stalls can grow — but every conservation invariant
  // must survive the mixed prefill/decode regime.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);
  const Cycles stream = ar.report.breakdown.dma_l3_l2 *
                        static_cast<Cycles>(cfg.num_layers);

  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 8});
  std::vector<RequestId> ids;
  ids.push_back(*engine.submit({.prompt = {1, 2}, .new_tokens = 6}));
  ids.push_back(*engine.submit({.prompt = {3}, .new_tokens = 2}));
  // joins mid-serving
  ids.push_back(*engine.submit({.prompt = {4, 5}, .new_tokens = 4}));
  const auto results = engine.run_to_completion();
  const auto& stats = engine.stats();
  ASSERT_GT(result_for(results, ids[2]).admitted_step, 0);

  EXPECT_EQ(stats.prefetch_stall_cycles + stats.stream_cycles_hidden,
            static_cast<Cycles>(stats.decode_steps) * stream);
  Cycles cycle_sum = 0;
  for (const auto& r : results) cycle_sum += r.gen.total_cycles;
  EXPECT_EQ(cycle_sum, stats.total_cycles);
  const std::vector<std::vector<int>> prompts{{1, 2}, {3}, {4, 5}};
  const std::vector<int> lens{6, 2, 4};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(result_for(results, ids[i]).gen.tokens,
              session.generate(prompts[i], lens[i]).tokens);
  }
}

TEST(BatchedEngine, SingleStreamOverlapHidesStreamBehindCompute) {
  // B=1 on a streamed deployment: the engine's overlap model beats the
  // serial charging InferenceSession::generate uses, by exactly the
  // hidden stream cycles — while tokens and energy stay identical.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const Cycles stream = ar.report.breakdown.dma_l3_l2 * layers;
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  // Precondition for visible stalls: one request's compute cannot cover
  // the stream.
  ASSERT_GT(stream, per_req);

  const std::vector<int> prompt{2, 4, 6};
  const int steps = 6;
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 4});
  const auto id = engine.submit({.prompt = prompt, .new_tokens = steps});
  ASSERT_TRUE(id.has_value());
  const auto results = engine.run_to_completion();
  const auto solo = session.generate(prompt, steps);
  const auto& stats = engine.stats();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, solo.tokens);
  EXPECT_NEAR(results[0].gen.total_energy_mj, solo.total_energy_mj,
              1e-9 * solo.total_energy_mj);
  EXPECT_GT(stats.stream_cycles_hidden, 0u);
  EXPECT_EQ(stats.total_cycles, solo.total_cycles - stats.stream_cycles_hidden);
  // Staged first stream stalls nothing; each later step stalls for the
  // uncovered remainder.
  EXPECT_EQ(stats.prefetch_stall_cycles,
            static_cast<Cycles>(steps - 2) * (stream - per_req));
  EXPECT_EQ(results[0].latency_cycles(), stats.total_cycles);
}

TEST(BatchedEngine, NoStallWhenBatchComputeCoversStream) {
  // Acceptance property: prefetch_stall_cycles is nonzero ONLY when the
  // batch's compute cannot cover the stream. streamed_llama at 4 chips
  // has stream < 3x per-request compute, so B=3 decodes stall-free.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const Cycles stream = ar.report.breakdown.dma_l3_l2 * layers;
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  ASSERT_GT(stream, 0u);
  ASSERT_LE(stream, 3 * per_req);

  BatchedEngine engine(registry_of(session), {.total_kv_slots = 3,
                                              .max_pending = 8});
  for (int i = 0; i < 3; ++i) {
    (void)*engine.submit({.prompt = {1 + i}, .new_tokens = 5});
  }
  (void)engine.run_to_completion();
  EXPECT_EQ(engine.stats().prefetch_stall_cycles, 0u);
  EXPECT_EQ(engine.stats().stream_cycles_hidden,
            static_cast<Cycles>(engine.stats().decode_steps) * stream);
}

TEST(BatchedEngine, ContinuousAdmissionBackfillsFreedSlots) {
  // More requests than slots: late requests wait in the queue and join
  // the running batch as earlier ones finish (continuous batching, not
  // static batches).
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 64});
  const auto workloads = mixed_workloads();
  std::vector<RequestId> ids;
  for (const auto& w : workloads) {
    ids.push_back(
        *engine.submit({.prompt = w.prompt, .new_tokens = w.new_tokens}));
  }
  EXPECT_EQ(engine.pending_requests(), 4);

  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(engine.stats().peak_batch, 2);
  // The last two requests were admitted strictly after the first two.
  EXPECT_GT(result_for(results, ids[2]).admitted_step, 0);
  EXPECT_GT(result_for(results, ids[3]).admitted_step, 0);
  // Equivalence still holds for requests that joined mid-flight.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto solo =
        session.generate(workloads[i].prompt, workloads[i].new_tokens);
    EXPECT_EQ(result_for(results, ids[i]).gen.tokens, solo.tokens);
  }
}

TEST(BatchedEngine, SubmitRejectsGracefullyWhenQueueFull) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 1});
  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 4});
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(engine.step());  // admits A into the only KV slot
  const auto b = engine.submit({.prompt = {3, 4}, .new_tokens = 4});
  ASSERT_TRUE(b.has_value());  // queue has room again
  const auto c = engine.submit({.prompt = {5, 6}, .new_tokens = 4});
  EXPECT_FALSE(c.has_value());  // queue full: graceful reject, no throw
  EXPECT_EQ(engine.stats().rejected, 1);

  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(result_for(results, *a).gen.tokens, session.generate({1, 2}, 4).tokens);
  EXPECT_EQ(result_for(results, *b).gen.tokens, session.generate({3, 4}, 4).tokens);
}

TEST(BatchedEngine, MaxPendingZeroStillAdmitsUpToFreeSlots) {
  // Regression: max_pending bounds the QUEUE, not total submits. With
  // max_pending == 0 an idle engine must still accept whatever its free
  // KV slots can admit at the next step; only requests that would have
  // to wait behind a full batch are rejected.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 0});

  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 2});
  const auto b = engine.submit({.prompt = {3}, .new_tokens = 2});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // A third submit exceeds what the free slots can absorb: rejected.
  EXPECT_FALSE(engine.submit({.prompt = {5}, .new_tokens = 1}).has_value());
  EXPECT_EQ(engine.stats().rejected, 1);

  EXPECT_TRUE(engine.step());  // both admitted, batch now full
  // queue bound is 0
  EXPECT_FALSE(engine.submit({.prompt = {6}, .new_tokens = 1}).has_value());

  auto results = engine.run_to_completion();
  EXPECT_EQ(results.size(), 2u);
  // Drained: free slots absorb submits again.
  const auto e = engine.submit({.prompt = {7}, .new_tokens = 1});
  ASSERT_TRUE(e.has_value());
  (void)engine.run_to_completion();
  EXPECT_EQ(engine.stats().completed, 3);
  EXPECT_EQ(result_for(engine.finished(), *a).gen.tokens,
            session.generate({1, 2}, 2).tokens);
}

TEST(BatchedEngine, AdmittedAtExcludesEarlierSameStepPrefills) {
  // Regression: a request admitted after other requests' prefills in the
  // same step used to be stamped at the step START, charging it their
  // prefill cycles in latency_cycles(). It must be stamped at its own
  // position on the step timeline.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles *
      static_cast<Cycles>(cfg.num_layers);
  ASSERT_GT(prefill, 0u);

  BatchedEngine engine(registry_of(session), {.total_kv_slots = 3,
                                              .max_pending = 8});
  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 3});
  const auto b = engine.submit({.prompt = {3, 4}, .new_tokens = 3});
  const auto c = engine.submit({.prompt = {5, 6}, .new_tokens = 3});
  const auto results = engine.run_to_completion();

  const auto& ra = result_for(results, *a);
  const auto& rb = result_for(results, *b);
  const auto& rc = result_for(results, *c);
  // All joined at step 0, each at its own prefill position.
  EXPECT_EQ(ra.admitted_step, 0);
  EXPECT_EQ(rb.admitted_step, 0);
  EXPECT_EQ(ra.admitted_at, 0u);
  EXPECT_EQ(rb.admitted_at, prefill);
  EXPECT_EQ(rc.admitted_at, 2 * prefill);
  // Same workloads finish together, so the later-admitted request's
  // residence latency is strictly shorter by the earlier prefills.
  EXPECT_EQ(rb.finished_at, ra.finished_at);
  EXPECT_EQ(ra.latency_cycles() - rb.latency_cycles(), prefill);
}

TEST(BatchedEngine, FinishedAtExcludesWorkAfterFinalTokenCommit) {
  // Mirror of the admitted_at fix on the finish side: a request that
  // merely commits its final token at a step boundary must not be
  // charged that step's prefills/decode in latency_cycles().
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles * layers;

  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 8});
  // A keeps decoding past B's finish
  (void)*engine.submit({.prompt = {1, 2}, .new_tokens = 5});
  const auto b = engine.submit({.prompt = {3, 4}, .new_tokens = 2});
  const auto c = engine.submit({.prompt = {5, 6}, .new_tokens = 2});
  const auto results = engine.run_to_completion();

  // B commits its final token at the step-1 boundary; its residence
  // ends at step 0's end (two prefills + one 2-wide stall-free staged
  // decode phase), not at step 1's end where A keeps decoding.
  const auto& rb = result_for(results, *b);
  EXPECT_EQ(rb.finished_step, 1);
  EXPECT_EQ(rb.finished_at, 2 * prefill + 2 * per_req);
  // C only joins once B's slot frees at the next admission point.
  EXPECT_EQ(result_for(results, *c).admitted_step, 2);

  // Prefill-only requests end at their own prefill, even when another
  // request's prefill follows in the same step.
  BatchedEngine engine2(registry_of(session), {.total_kv_slots = 2,
                                               .max_pending = 8});
  const auto d = engine2.submit({.prompt = {7}, .new_tokens = 0});
  const auto e = engine2.submit({.prompt = {8}, .new_tokens = 0});
  const auto results2 = engine2.run_to_completion();
  EXPECT_EQ(result_for(results2, *d).finished_at, prefill);
  EXPECT_EQ(result_for(results2, *e).admitted_at, prefill);
  EXPECT_EQ(result_for(results2, *e).finished_at, 2 * prefill);
  EXPECT_EQ(result_for(results2, *d).latency_cycles(),
            result_for(results2, *e).latency_cycles());
}

TEST(BatchedEngine, SubmitValidatesLikeGenerate) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {});
  EXPECT_THROW((void)engine.submit({.prompt = {}, .new_tokens = 1}), Error);
  EXPECT_THROW((void)engine.submit({.prompt = {1}, .new_tokens = -1}), Error);
  EXPECT_THROW((void)engine.submit({.prompt = {1},
                                    .new_tokens = cfg.ar_context + 1}), Error);
  // Prefill cost/fit are derived from the static prompt shape, so
  // prompts beyond prompt_len are rejected rather than under-charged.
  const std::vector<int> long_prompt(
      static_cast<std::size_t>(cfg.prompt_len) + 1, 1);
  EXPECT_THROW((void)engine.submit({.prompt = long_prompt,
                                    .new_tokens = 1}), Error);
  // Bad options are rejected up front, before any pool construction.
  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 0,
                                                    .max_pending = 4}),
               Error);
  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 2,
                                                    .max_pending = -1}),
               Error);
}

TEST(BatchedEngine, ZeroNewTokensFinishesAfterPrefillOnly) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {});
  const auto id = engine.submit({.prompt = {1, 2, 3}, .new_tokens = 0});
  ASSERT_TRUE(id.has_value());
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(results[0].gen.generated, 0);
  EXPECT_GT(results[0].gen.total_cycles, 0u);  // prefill is still charged
  // Zero generated tokens must not divide by zero anywhere.
  EXPECT_EQ(results[0].gen.mj_per_token(), 0.0);
  EXPECT_GT(results[0].gen.tokens_per_s(kFreqHz), -1.0);
}

TEST(BatchedEngine, TracerAttributesChargesToRequests) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  sim::Tracer tracer;
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 8}, &tracer);
  const auto a = engine.submit({.prompt = {1, 2, 3}, .new_tokens = 4});
  const auto b = engine.submit({.prompt = {7, 8}, .new_tokens = 2});
  const auto results = engine.run_to_completion();

  // Every span carries its owning request; traced time per request
  // equals the attributed cycle accounting plus the scheduler-lane queue
  // wait (the sched.queue span from submit to admission).
  EXPECT_EQ(tracer.total_for_request(sim::kNoRequest), 0u);
  EXPECT_EQ(tracer.total_for_request(*a),
            result_for(results, *a).gen.total_cycles +
                result_for(results, *a).queue_delay_cycles());
  EXPECT_EQ(tracer.total_for_request(*b),
            result_for(results, *b).gen.total_cycles +
                result_for(results, *b).queue_delay_cycles());
  EXPECT_EQ(tracer.makespan(), engine.stats().total_cycles);
  // The tag resets after every engine charge.
  EXPECT_EQ(tracer.current_request(), sim::kNoRequest);
}

TEST(BatchedEngine, TracerLaysSpansOnPerRequestLanesWithOverlap) {
  // Regression: charges used to be serialized on one global cursor, so
  // concurrent batch members rendered strictly sequentially. Spans must
  // sit at their true engine-timeline positions, tagged per request, and
  // genuinely overlap within a step: the shared stream prefetch races
  // the batch's compute, and stall shares cover the same wait window.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  sim::Tracer tracer;
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 8}, &tracer);
  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 4});
  const auto b = engine.submit({.prompt = {7}, .new_tokens = 4});
  const auto results = engine.run_to_completion();
  const auto& stats = engine.stats();
  // Precondition: two-request compute cannot cover the stream, so every
  // non-staged step stalls.
  ASSERT_GT(stats.prefetch_stall_cycles, 0u);

  // Attribution still matches the trace exactly, per request (the
  // sched.queue span adds exactly the admission wait).
  EXPECT_EQ(tracer.total_for_request(*a),
            result_for(results, *a).gen.total_cycles +
                result_for(results, *a).queue_delay_cycles());
  EXPECT_EQ(tracer.total_for_request(*b),
            result_for(results, *b).gen.total_cycles +
                result_for(results, *b).queue_delay_cycles());
  EXPECT_EQ(tracer.makespan(), stats.total_cycles);

  // Untagged spans are exactly the consumed stream prefetches (the
  // first stream is staged, the final step issues none).
  int prefetch_spans = 0;
  for (const auto& span : tracer.spans()) {
    if (span.request != sim::kNoRequest) continue;
    EXPECT_EQ(span.category, sim::Category::dma_l3_l2);
    EXPECT_EQ(span.label, "weights.prefetch");
    ++prefetch_spans;
  }
  EXPECT_EQ(prefetch_spans, stats.decode_steps - 1);

  // Overlap 1: every prefetch DMA races request-tagged compute.
  // Overlap 2: both requests' stall shares sit in the same wait window.
  bool prefetch_overlaps_compute = false;
  bool stalls_overlap = false;
  const auto& spans = tracer.spans();
  for (const auto& s1 : spans) {
    for (const auto& s2 : spans) {
      const bool overlap = s1.begin < s2.end && s2.begin < s1.end;
      if (!overlap) continue;
      if (s1.request == sim::kNoRequest && s2.request != sim::kNoRequest) {
        prefetch_overlaps_compute = true;
      }
      if (s1.request == *a && s2.request == *b &&
          s1.label == "weights.stall" && s2.label == "weights.stall") {
        stalls_overlap = true;
      }
    }
  }
  EXPECT_TRUE(prefetch_overlaps_compute);
  EXPECT_TRUE(stalls_overlap);
}

// --- chunked prefill (tentpole) -------------------------------------------

TEST(BatchedEngineChunked, TokensIdenticalAcrossChunkSizes) {
  // The chunked functional path (one chunk per prefilling request per
  // step, KV prefix + pos_offset attention) must keep every token stream
  // bit-identical to a dedicated generate call, at any chunk size.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const auto workloads = mixed_workloads();

  for (const int chunk : {1, 2, 3, cfg.prompt_len}) {
    BatchedEngine engine(registry_of(session, chunk), {.total_kv_slots = 2,
                                                       .max_pending = 64});
    EXPECT_EQ(engine.chunk_tokens(0), chunk);
    std::vector<RequestId> ids;
    for (const auto& w : workloads) {
      ids.push_back(*engine.submit({.prompt = w.prompt,
                                    .new_tokens = w.new_tokens}));
    }
    const auto results = engine.run_to_completion();
    ASSERT_EQ(results.size(), workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto solo =
          session.generate(workloads[i].prompt, workloads[i].new_tokens);
      EXPECT_EQ(result_for(results, ids[i]).gen.tokens, solo.tokens)
          << "chunk size " << chunk << ", request " << i;
    }
  }
}

TEST(BatchedEngineChunked, MixedStepConservationIsExact) {
  // Heterogeneous steps (chunks + decodes co-scheduled) must preserve
  // every conservation invariant: per-request cycles/energy sum to the
  // aggregate, the decode stream splits into stall + hidden, and the
  // chunk-stream windows split into visible tails + hidden cycles.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);
  const Cycles stream =
      ar.report.breakdown.dma_l3_l2 * static_cast<Cycles>(cfg.num_layers);

  BatchedEngine engine(registry_of(session, 2), {.total_kv_slots = 2,
                                                 .max_pending = 8});
  std::vector<RequestId> ids;
  ids.push_back(*engine.submit({.prompt = {1, 2, 3, 4}, .new_tokens = 5}));
  ids.push_back(*engine.submit({.prompt = {9}, .new_tokens = 3}));
  // joins mid-serving
  ids.push_back(*engine.submit({.prompt = {5, 6, 7}, .new_tokens = 4}));
  const auto results = engine.run_to_completion();
  const auto& stats = engine.stats();
  ASSERT_GT(result_for(results, ids[2]).admitted_step, 0);
  ASSERT_GT(stats.prefill_steps, 0);

  Cycles cycle_sum = 0;
  double energy_sum = 0.0;
  for (const auto& r : results) {
    cycle_sum += r.gen.total_cycles;
    energy_sum += r.gen.total_energy_mj;
  }
  EXPECT_EQ(cycle_sum, stats.total_cycles);
  EXPECT_NEAR(energy_sum, stats.total_energy_mj, 1e-9 * energy_sum);
  EXPECT_EQ(stats.prefetch_stall_cycles + stats.stream_cycles_hidden,
            static_cast<Cycles>(stats.decode_steps) * stream);
  EXPECT_EQ(stats.prefill_stall_cycles + stats.prefill_cycles_hidden,
            stats.prefill_stream_cycles);
  EXPECT_GT(stats.prefill_stream_cycles, 0u);

  for (const auto& r : results) {
    EXPECT_GE(r.latency_cycles(), r.gen.total_cycles);
    EXPECT_LE(r.finished_at, stats.total_cycles);
  }
}

TEST(BatchedEngineChunked, ChunkedPromptPhaseBeatsSerialCharging) {
  // The point of the chunked model: prompt-phase weight streaming races
  // batch compute instead of being charged serially, and short prompts
  // stop paying the full static prefill shape. Same workload, same
  // deployment: the chunked engine's charged prompt cycles must be
  // strictly below the serial model's.
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);

  const auto run = [&](int chunk) {
    BatchedEngine engine(registry_of(session, chunk), {.total_kv_slots = 2,
                                                       .max_pending = 16});
    for (int i = 0; i < 4; ++i) {
      (void)*engine.submit({.prompt = {1 + i, 2, 3}, .new_tokens = 6});
    }
    (void)engine.run_to_completion();
    return engine.stats();
  };

  const auto serial = run(0);
  const auto chunked = run(cfg.prompt_len);
  EXPECT_EQ(serial.completed, 4);
  EXPECT_EQ(chunked.completed, 4);
  EXPECT_LT(chunked.prefill_cycles, serial.prefill_cycles);
  EXPECT_GT(chunked.prefill_cycles_hidden, 0u);
  // The hidden prompt streaming is exactly the serial model's charge
  // minus the chunked one (modulo the visible tails).
  EXPECT_LT(chunked.total_cycles, serial.total_cycles);
}

TEST(BatchedEngineChunked, SingleChunkStepStructureMatchesSerialMode) {
  // prefill_chunk_tokens >= prompt_len degenerates to one chunk per
  // prompt: step count, finish steps, and token streams all match the
  // serial mode — only the cost timeline differs (the chunk's stream
  // races the step instead of being charged inline).
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const auto workloads = mixed_workloads();

  BatchedEngine serial(registry_of(session), {.total_kv_slots = 2,
                                              .max_pending = 64});
  BatchedEngine chunked(registry_of(session, 1000), {.total_kv_slots = 2,
                                                     .max_pending = 64});
  EXPECT_EQ(chunked.chunk_tokens(0), cfg.prompt_len);
  std::vector<RequestId> sids, cids;
  for (const auto& w : workloads) {
    sids.push_back(*serial.submit({.prompt = w.prompt,
                                   .new_tokens = w.new_tokens}));
    cids.push_back(*chunked.submit({.prompt = w.prompt,
                                    .new_tokens = w.new_tokens}));
  }
  const auto sres = serial.run_to_completion();
  const auto cres = chunked.run_to_completion();
  EXPECT_EQ(serial.stats().steps, chunked.stats().steps);
  EXPECT_EQ(serial.stats().total_generated, chunked.stats().total_generated);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(result_for(sres, sids[i]).gen.tokens,
              result_for(cres, cids[i]).gen.tokens);
    EXPECT_EQ(result_for(sres, sids[i]).finished_step,
              result_for(cres, cids[i]).finished_step);
  }
}

TEST(BatchedEngineChunked, AdmittedAtIsOwnFirstChunkStart) {
  // The PR 2 admission-stamp guarantee generalizes to chunks: a request
  // admitted behind another's chunk in the same step is stamped at its
  // own chunk's serialized position, not the step start.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session, cfg.prompt_len),
      {.total_kv_slots = 3, .max_pending = 8});
  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 2});
  const auto b = engine.submit({.prompt = {3, 4}, .new_tokens = 2});
  const auto results = engine.run_to_completion();
  const auto& ra = result_for(results, *a);
  const auto& rb = result_for(results, *b);
  EXPECT_EQ(ra.admitted_step, 0);
  EXPECT_EQ(rb.admitted_step, 0);
  EXPECT_EQ(ra.admitted_at, 0u);
  EXPECT_GT(rb.admitted_at, ra.admitted_at);
  // Identical workloads finish together.
  EXPECT_EQ(ra.finished_at, rb.finished_at);
  EXPECT_GT(ra.latency_cycles(), rb.latency_cycles());
}

TEST(BatchedEngineChunked, ChunkedPromptFitAdmitsBatchesSerialModeCannot) {
  // Chunked prefill materializes chunk-shaped activations only, so under
  // a tight L2 the pool fit admits batches the full prompt shape would
  // reject — the MCUBERT-style memory-bounded scheduling win.
  auto cfg = small_llama();
  cfg.prompt_len = 96;
  cfg.ar_context = 128;
  cfg.validate();
  auto sys = runtime::SystemConfig::siracusa_system();
  sys.chip.l2_size = 88 * 1024ull;
  const InferenceSession session(cfg, 4, sys);

  // Full prompt shape: two KV sets do not fit next to the prefill plan.
  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 2,
                                                    .max_pending = 4}),
               PlanError);
  // Chunked prompt shape: they do.
  BatchedEngine ok(registry_of(session, 8), {.total_kv_slots = 2,
                                             .max_pending = 4});
  const auto a = ok.submit({.prompt = {1, 2, 3}, .new_tokens = 2});
  const auto b = ok.submit({.prompt = {4, 5}, .new_tokens = 2});
  const auto results = ok.run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(result_for(results, *a).gen.tokens,
            session.generate({1, 2, 3}, 2).tokens);
  EXPECT_EQ(result_for(results, *b).gen.tokens,
            session.generate({4, 5}, 2).tokens);
}

TEST(BatchedEngineChunked, ConstructsWhereFullPromptShapeCannotPlanAtAll) {
  // Regression: chunked construction used to measure the full
  // prompt-shape block anyway, so a deployment whose full-prompt
  // activations exceed L2 even in the streamed regime threw PlanError
  // despite the chunk shape fitting comfortably. Chunked mode must not
  // plan the full prompt shape at all.
  auto cfg = small_llama();
  cfg.prompt_len = 96;
  cfg.ar_context = 128;
  cfg.validate();
  auto sys = runtime::SystemConfig::siracusa_system();
  sys.chip.l2_size = 80 * 1024ull;
  const InferenceSession session(cfg, 4, sys);
  // Precondition: the full prompt shape cannot be planned even for a
  // single request, while decode mode is fine.
  EXPECT_THROW((void)session.run_block(model::Mode::prompt), PlanError);
  (void)session.run_block(model::Mode::autoregressive);

  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 1,
                                                    .max_pending = 4}),
               PlanError);
  BatchedEngine chunked(registry_of(session, 8), {.total_kv_slots = 1,
                                                  .max_pending = 4});
  const auto id = chunked.submit({.prompt = {1, 2, 3, 4, 5}, .new_tokens = 3});
  ASSERT_TRUE(id.has_value());
  const auto results = chunked.run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  // generate() on the tight deployment would itself plan the full prompt
  // shape (and throw); the functional numerics are platform-independent,
  // so cross-check tokens against the same model on a roomy L2.
  const InferenceSession roomy(cfg, 4);
  EXPECT_EQ(results[0].gen.tokens, roomy.generate({1, 2, 3, 4, 5}, 3).tokens);
}

TEST(BatchedEngineChunked, RejectsNegativeChunkTokens) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  EXPECT_THROW(BatchedEngine(registry_of(session, -1), {.total_kv_slots = 1,
                                                        .max_pending = 4}),
               Error);
}

// --- KV pool -----------------------------------------------------------------
// The suite is named for whole-request slots, which are the engine's
// default pages: one per request, spanning the context.

TEST(SlotArena, ExhaustionReturnsNulloptNotUB) {
  mem::Arena arena("l2.kv_pool", 4096);
  mem::PagedKvArena pages(arena, "kv_page", 2, 1024);
  EXPECT_EQ(arena.used(), 2048u);

  const auto p0 = pages.acquire();
  const auto p1 = pages.acquire();
  ASSERT_TRUE(p0.has_value());
  ASSERT_TRUE(p1.has_value());
  EXPECT_NE(*p0, *p1);
  EXPECT_EQ(pages.free(), 0);

  const auto p2 = pages.acquire();
  EXPECT_FALSE(p2.has_value());  // graceful reject

  pages.release(*p0, /*tenant=*/0);
  const auto p3 = pages.acquire();
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(*p3, *p0);  // lowest-free-index policy

  EXPECT_THROW(pages.release(*p1 + 5, 0), Error);  // out of range
  pages.release(*p1, 0);
  EXPECT_THROW(pages.release(*p1, 0), Error);  // double release
}

TEST(SlotArena, ReclaimIsOwnerCheckedAndCounted) {
  // The preemption path returns pages through reclaim(): an owner-
  // checked release that additionally counts the page as reclaimed,
  // per tenant and in total. A plain release never bumps the counters.
  mem::Arena arena("l2.kv_pool", 4096);
  mem::PagedKvArena pages(arena, "kv_page", 2, 1024);
  const auto p0 = pages.acquire(/*tenant=*/0);
  const auto p1 = pages.acquire(/*tenant=*/1);
  ASSERT_TRUE(p0.has_value() && p1.has_value());

  EXPECT_THROW(pages.reclaim(*p0, /*tenant=*/1), Error);  // cross-tenant
  EXPECT_EQ(pages.total_reclaimed(), 0);  // failed reclaim left no trace
  EXPECT_EQ(pages.tenant_in_use(0), 1);

  pages.reclaim(*p0, /*tenant=*/0);
  EXPECT_EQ(pages.tenant_reclaimed(0), 1);
  EXPECT_EQ(pages.tenant_reclaimed(1), 0);
  EXPECT_EQ(pages.total_reclaimed(), 1);
  EXPECT_EQ(pages.free(), 1);  // the page really freed

  pages.release(*p1, /*tenant=*/1);  // plain release: not a reclaim
  EXPECT_EQ(pages.tenant_reclaimed(1), 0);
  EXPECT_EQ(pages.total_reclaimed(), 1);
  // Unseen tenant ids read as zero, never UB.
  EXPECT_EQ(pages.tenant_reclaimed(7), 0);
}

TEST(SlotArena, PoolThatDoesNotFitThrowsPlanError) {
  mem::Arena arena("l2.kv_pool", 1024);
  EXPECT_THROW(mem::PagedKvArena(arena, "kv_page", 2, 1024), PlanError);
}

TEST(SlotArena, RejectsNonPositiveShapes) {
  mem::Arena arena("l2.kv_pool", 1024);
  EXPECT_THROW(mem::PagedKvArena(arena, "kv_page", -1, 64), Error);
  EXPECT_THROW(mem::PagedKvArena(arena, "kv_page", 0, 64), Error);
  EXPECT_THROW(mem::PagedKvArena(arena, "kv_page", 1, 0), Error);
}

TEST(BatchedEngine, PoolExceedingL2BudgetThrowsPlanError) {
  // Full-capacity KV sets for every slot must fit the worst-case chip's
  // L2 next to the single-request deployment plan; a batch that cannot
  // physically hold its caches is rejected at construction, not served
  // with fictitious memory.
  auto cfg = small_llama();
  cfg.ar_context = 24;
  cfg.validate();
  auto sys = runtime::SystemConfig::siracusa_system();
  sys.chip.l2_size = 80 * 1024ull;  // tight: fits a handful of KV sets
  const InferenceSession session(cfg, 4, sys);
  // A modest batch fits...
  BatchedEngine ok(registry_of(session), {.total_kv_slots = 2,
                                          .max_pending = 4});
  // ...but an absurd one must throw instead of overcommitting L2.
  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 10000,
                                                    .max_pending = 4}),
               PlanError);
}

TEST(BatchedEngine, PromptModePlanGatesThePoolToo) {
  // Prefill activations scale with prompt_len, so a batch can fit the
  // decode-mode plan while prefill cannot hold its caches: the fit
  // check must gate on both modes.
  auto cfg = small_llama();
  cfg.prompt_len = 96;
  cfg.ar_context = 128;
  cfg.validate();
  auto sys = runtime::SystemConfig::siracusa_system();
  sys.chip.l2_size = 88 * 1024ull;  // 24 KiB usable
  const InferenceSession session(cfg, 4, sys);

  const auto ar_mp = session.run_block(model::Mode::autoregressive).memory;
  const auto pr_mp = session.run_block(model::Mode::prompt).memory;
  // Precondition: two KV sets fit next to the decode plan but not next
  // to the prefill plan.
  ASSERT_LE(ar_mp.need() + ar_mp.kv_cache_bytes, ar_mp.l2_usable);
  ASSERT_GT(pr_mp.need() + pr_mp.kv_cache_bytes, pr_mp.l2_usable);

  BatchedEngine ok(registry_of(session), {.total_kv_slots = 1,
                                          .max_pending = 4});
  EXPECT_THROW(BatchedEngine(registry_of(session), {.total_kv_slots = 2,
                                                    .max_pending = 4}),
               PlanError);
}

TEST(KvCachePool, SlotsAreIndependentAndRecycled) {
  // The engine's KV store: one float buffer indexed by the pages of a
  // mem::PagedKvArena, each request's rows reached through its page
  // table. Requests' rows are independent, an append beyond a table
  // throws, and a released page is recycled to the next request.
  mem::Arena arena("kv", 4 * 64);
  mem::PagedKvArena pages(arena, "kv_page", 4, 64);
  // 2 chips x 1 layer, 8 columns each; pages of 2 positions.
  const std::vector<std::size_t> offsets = {0, 16, 32};
  constexpr int kPageTokens = 2;
  const std::size_t stride = model::kv_page_floats(offsets, kPageTokens);
  std::vector<float> store(4 * stride);
  const auto table = [&](const std::vector<int>& t) {
    return model::KvPageTable{store.data(), stride, kPageTokens, t, offsets};
  };
  const auto write = [&](const std::vector<int>& t, int positions, float value) {
    for (std::size_t i = 0; i < table(t).slices(); ++i) {
      const model::KvPageView kv = table(t).slice(i);
      for (int p = 0; p < positions; ++p) {
        std::fill(kv.k_row(p), kv.k_row(p) + kv.width, value);
        std::fill(kv.v_row(p), kv.v_row(p) + kv.width, -value);
      }
    }
  };
  const auto holds = [&](const std::vector<int>& t, int positions, float value) {
    for (std::size_t i = 0; i < table(t).slices(); ++i) {
      const model::KvPageView kv = table(t).slice(i);
      for (int p = 0; p < positions; ++p) {
        for (int c = 0; c < kv.width; ++c) {
          if (kv.k_row(p)[c] != value || kv.v_row(p)[c] != -value) return false;
        }
      }
    }
    return true;
  };

  const std::vector<int> a = {*pages.acquire(0), *pages.acquire(0)};
  const std::vector<int> b = {*pages.acquire(0)};
  write(a, 4, 1.0f);
  write(b, 2, 2.0f);
  EXPECT_TRUE(holds(a, 4, 1.0f));
  EXPECT_TRUE(holds(b, 2, 2.0f));  // the other request's rows untouched
  EXPECT_THROW((void)table(b).slice(0).k_row(2), Error);

  for (const int pg : a) pages.release(pg, 0);
  const std::vector<int> c = {*pages.acquire(0)};
  EXPECT_EQ(c.front(), a.front());  // lowest free page, recycled
  write(c, 2, 3.0f);
  EXPECT_TRUE(holds(c, 2, 3.0f));
  EXPECT_TRUE(holds(b, 2, 2.0f));
  EXPECT_EQ(pages.in_use(), 2);
}

// --- rate-metric edge cases (regressions) ---------------------------------

TEST(GenerationResultEdgeCases, ZeroTokensAndZeroCyclesAreFinite) {
  GenerationResult empty;
  EXPECT_EQ(empty.tokens_per_s(kFreqHz), 0.0);
  EXPECT_EQ(empty.mj_per_token(), 0.0);

  GenerationResult no_cycles;
  no_cycles.generated = 5;
  EXPECT_EQ(no_cycles.tokens_per_s(kFreqHz), 0.0);  // guard, not inf

  GenerationResult no_tokens;
  no_tokens.total_cycles = 1000;
  no_tokens.total_energy_mj = 3.0;
  EXPECT_EQ(no_tokens.tokens_per_s(kFreqHz), 0.0);
  EXPECT_EQ(no_tokens.mj_per_token(), 0.0);  // guard, not inf
}

TEST(GenerationResultEdgeCases, ServingStatsZeroGuards) {
  runtime::ServingStats stats;
  EXPECT_EQ(stats.aggregate_tokens_per_s(kFreqHz), 0.0);
  EXPECT_EQ(stats.mj_per_token(), 0.0);
}

TEST(BlockResultEdgeCases, ZeroCyclesEdpIsZero) {
  runtime::BlockResult block;  // default: zero cycles, zero energy
  EXPECT_EQ(block.edp_mj_ms(kFreqHz), 0.0);
  EXPECT_EQ(block.latency_ms(kFreqHz), 0.0);
  block.energy.core = 1e9;  // 1 mJ with zero cycles: EDP stays zero
  EXPECT_EQ(block.edp_mj_ms(kFreqHz), 0.0);
}

TEST(BatchedEngine, GenerateWithZeroNewTokensStaysConsistent) {
  // Session-level regression for the same edge: generate(prompt, 0)
  // must report zero generated tokens and finite rate metrics.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  const auto gen = session.generate({1, 2}, 0);
  EXPECT_EQ(gen.generated, 0);
  EXPECT_EQ(gen.tokens, (std::vector<int>{1, 2}));
  EXPECT_EQ(gen.mj_per_token(), 0.0);
  EXPECT_GT(gen.total_cycles, 0u);  // prefill cost
}

// --- overload safety: fail-fast, shedding, preemption ----------------------

TEST(BatchedEngine, SubmitRejectsOutOfRangeModelBeforeAnyCounter) {
  // Regression: the model-id guard must run before any per_model[...]
  // indexing on the reject path — a bad id throws and leaves the stats
  // and the queue exactly as they were.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 1});
  EXPECT_THROW((void)engine.submit({.model = 1, .prompt = {1, 2},
                                    .new_tokens = 1}), Error);
  EXPECT_THROW((void)engine.submit({.model = -1, .prompt = {1, 2},
                                    .new_tokens = 1}), Error);
  EXPECT_THROW((void)engine.submit({.model = 1000, .prompt = {1, 2},
                                    .new_tokens = 1}), Error);
  EXPECT_EQ(engine.stats().rejected, 0);
  EXPECT_EQ(engine.stats().per_model[0].rejected, 0);
  EXPECT_EQ(engine.stats().per_model[0].submitted, 0);
  EXPECT_EQ(engine.pending_requests(), 0);
  EXPECT_EQ(engine.last_rejection(), runtime::Rejection::none);
}

TEST(BatchedEngine, SaturatingDeadlineNeverWrapsIntoAMiss) {
  // Regression: submitted_at + deadline_cycles used to wrap for huge
  // relative deadlines, turning "practically no deadline" into an
  // absolute deadline in the past — reported missed on every request.
  // The saturating resolve pins it to the timeline's end instead.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 4});
  const auto a = engine.submit(
      {.prompt = {1, 2},
       .new_tokens = 3,
       .slo = {.priority = 0,
               .deadline_cycles = std::numeric_limits<Cycles>::max()}});
  ASSERT_TRUE(a.has_value());
  (void)engine.step();  // submitted_at now nonzero for the second request
  const auto b = engine.submit(
      {.prompt = {3, 4},
       .new_tokens = 3,
       .slo = {.priority = 0,
               .deadline_cycles = std::numeric_limits<Cycles>::max() - 1}});
  ASSERT_TRUE(b.has_value());
  const auto results = engine.run_to_completion();
  EXPECT_EQ(result_for(results, *a).deadline_at,
            std::numeric_limits<Cycles>::max());
  EXPECT_EQ(result_for(results, *b).deadline_at,
            std::numeric_limits<Cycles>::max());  // saturated, not wrapped
  EXPECT_FALSE(result_for(results, *a).missed_deadline());
  EXPECT_FALSE(result_for(results, *b).missed_deadline());
  EXPECT_EQ(engine.stats().slo_requests, 2);
  EXPECT_EQ(engine.stats().deadline_misses, 0);
}

TEST(BatchedEngine, FailFastRejectsHopelessDeadlinesDistinctly) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);

  // Default engine: a hopeless deadline is accepted and becomes a miss.
  BatchedEngine lax(registry_of(session), {.total_kv_slots = 1,
                                           .max_pending = 4});
  ASSERT_TRUE(
      lax.submit({.prompt = {1, 2}, .new_tokens = 2,
                  .slo = {.priority = 0, .deadline_cycles = 1}}).has_value());
  (void)lax.run_to_completion();
  EXPECT_EQ(lax.stats().deadline_misses, 1);

  // Fail-fast engine: the same submit is refused up front with its own
  // rejection reason, and never counts as an SLO miss.
  BatchedEngine strict(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 4,
                                              .fail_fast_deadlines = true});
  EXPECT_FALSE(
      strict.submit({.prompt = {1, 2}, .new_tokens = 2,
                     .slo = {.priority = 0, .deadline_cycles = 1}})
          .has_value());
  EXPECT_EQ(strict.last_rejection(), runtime::Rejection::hopeless_deadline);
  EXPECT_EQ(strict.stats().rejected, 1);
  EXPECT_EQ(strict.stats().rejected_hopeless_deadline, 1);
  EXPECT_EQ(strict.stats().rejected_queue_full, 0);
  EXPECT_EQ(strict.stats().deadline_misses, 0);
  EXPECT_EQ(strict.stats().slo_requests, 0);

  // A feasible deadline passes fail-fast; an accepted submit resets the
  // last-rejection readback. Queue-full rejects report their own reason.
  const auto ok = strict.submit(
      {.prompt = {1, 2}, .new_tokens = 2,
       .slo = {.priority = 0, .deadline_cycles = 1'000'000'000}});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(strict.last_rejection(), runtime::Rejection::none);
  (void)strict.step();  // the accepted request takes the only KV slot
  ASSERT_TRUE(strict.submit({.prompt = {3}, .new_tokens = 1}).has_value());
  ASSERT_TRUE(strict.submit({.prompt = {4}, .new_tokens = 1}).has_value());
  ASSERT_TRUE(strict.submit({.prompt = {5}, .new_tokens = 1}).has_value());
  // backlog now at max_pending
  ASSERT_TRUE(strict.submit({.prompt = {6}, .new_tokens = 1}).has_value());
  EXPECT_FALSE(strict.submit({.prompt = {7}, .new_tokens = 1}).has_value());
  EXPECT_EQ(strict.last_rejection(), runtime::Rejection::queue_full);
  EXPECT_EQ(strict.stats().rejected_queue_full, 1);
  // The reason split partitions the total.
  EXPECT_EQ(strict.stats().rejected, strict.stats().rejected_queue_full +
                                         strict.stats().rejected_hopeless_deadline);
}

TEST(BatchedEngine, SingleTenantSheddingRefusesTheNewcomer) {
  // Fair shedding drops the heaviest tenant's newest queued request —
  // and with one tenant the incoming request IS the heaviest tenant's
  // newest, so the submit is refused queue_full and nobody already
  // queued is shed (tail-drop semantics).
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 1,
                                              .max_pending = 1,
                                              .fair_shedding = true});
  ASSERT_TRUE(engine.submit({.prompt = {1, 2}, .new_tokens = 2}).has_value());
  (void)engine.step();
  ASSERT_TRUE(engine.submit({.prompt = {3, 4}, .new_tokens = 2}).has_value());
  EXPECT_FALSE(engine.submit({.prompt = {5, 6}, .new_tokens = 2}).has_value());
  EXPECT_EQ(engine.last_rejection(), runtime::Rejection::queue_full);
  EXPECT_EQ(engine.stats().shed, 0);
  EXPECT_TRUE(engine.shed_ids().empty());
  (void)engine.run_to_completion();
  EXPECT_EQ(engine.stats().completed, 2);
}

namespace {

/// The preemption round trip in one deterministic scenario: a long
/// best-effort request is checkpointed out of the only KV page when a
/// tight-deadline request would otherwise starve past its feasible
/// deadline; both token streams stay bit-identical to dedicated
/// generate() calls and the cycle/energy books still balance exactly.
void expect_preemption_round_trip(int kv_page_tokens) {
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const auto ar = session.run_block(model::Mode::autoregressive);
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles * layers;
  const Cycles est_b = prefill + per_req;  // prompt + (2-1) decode forwards

  BatchedEngine engine(
      registry_of(session),
      {.total_kv_slots = 1,
       .max_pending = 8,
       .scheduler = std::make_shared<runtime::EdfScheduler>(),
       .preemption = std::make_shared<runtime::DeadlineAwarePreemption>(),
       .kv_page_tokens = kv_page_tokens});
  // best-effort, long
  const auto a = engine.submit({.prompt = {1, 2}, .new_tokens = 12});
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(engine.step());  // A admitted, one decode forward in
  // B's deadline is feasible started now but blown by waiting for A's
  // ten remaining decode forwards — the preemption trigger.
  const auto b = engine.submit(
      {.prompt = {3, 4}, .new_tokens = 2,
       .slo = {.priority = 0, .deadline_cycles = est_b + 2 * per_req}});
  ASSERT_TRUE(b.has_value());
  // Each request's KV rows equal its dedicated run's at every boundary,
  // before the eviction and after the resume rewrote them into a page.
  const auto kv_a = dedicated_kv(session, {1, 2}, 12);
  const auto kv_b = dedicated_kv(session, {3, 4}, 2);
  while (engine.step()) {
    EXPECT_TRUE(kv_rows_match(engine, *a, kv_a));
    EXPECT_TRUE(kv_rows_match(engine, *b, kv_b));
  }
  const auto& results = engine.finished();
  ASSERT_EQ(results.size(), 2u);

  const auto& stats = engine.stats();
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.resumes, 1);
  EXPECT_GT(stats.preemption_cycles, 0u);
  EXPECT_EQ(stats.per_model[0].preemptions, 1);
  EXPECT_EQ(stats.per_model[0].resumes, 1);
  EXPECT_EQ(stats.per_model[0].kv_slots_reclaimed, 1);

  // B overtook A through the eviction and finished first.
  EXPECT_EQ(results[0].id, *b);
  EXPECT_EQ(result_for(results, *a).times_evicted, 1);
  EXPECT_EQ(result_for(results, *b).times_evicted, 0);

  // Bit-exact streams despite the checkpoint/restore round trip.
  EXPECT_EQ(result_for(results, *a).gen.tokens,
            session.generate({1, 2}, 12).tokens);
  EXPECT_EQ(result_for(results, *b).gen.tokens,
            session.generate({3, 4}, 2).tokens);

  // Exact conservation: the eviction/resume traffic is charged to A,
  // and per-request cycles/energy still sum to the engine totals.
  Cycles cycle_sum = 0;
  double energy_sum = 0.0;
  for (const auto& r : results) {
    cycle_sum += r.gen.total_cycles;
    energy_sum += r.gen.total_energy_mj;
  }
  EXPECT_EQ(cycle_sum, stats.total_cycles);
  EXPECT_NEAR(energy_sum, stats.total_energy_mj,
              1e-9 * std::max(1.0, stats.total_energy_mj));
}

}  // namespace

TEST(BatchedEngine, PreemptionEvictsAndResumesBitExact) {
  expect_preemption_round_trip(/*kv_page_tokens=*/0);
}

TEST(BatchedEngine, PreemptionFreesTheVictimsPageAndCacheSet) {
  // One full-context page per request with every page held: the eviction
  // must count the victim's page (its only KV store) as freed, or the
  // starved request never looks admissible and nothing is ever preempted.
  expect_preemption_round_trip(/*kv_page_tokens=*/streamed_llama().ar_context);
}

namespace {

/// Returns one past the end — the engine must reject it, not evict UB.
class OutOfRangePreemption final : public runtime::PreemptionPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "broken"; }
  [[nodiscard]] int pick_victim(const std::vector<Victim>& victims,
                                const runtime::Scheduler::Candidate&,
                                Cycles) const override {
    return static_cast<int>(victims.size());
  }
};

}  // namespace

TEST(BatchedEngine, OutOfRangeVictimPickIsRejected) {
  const auto cfg = streamed_llama();
  const InferenceSession session(cfg, 4);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const auto ar = session.run_block(model::Mode::autoregressive);
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles * layers;

  BatchedEngine engine(registry_of(session),
      {.total_kv_slots = 1, .max_pending = 8,
       .scheduler = std::make_shared<runtime::EdfScheduler>(),
       .preemption = std::make_shared<OutOfRangePreemption>()});
  ASSERT_TRUE(engine.submit({.prompt = {1, 2}, .new_tokens = 12}).has_value());
  EXPECT_TRUE(engine.step());
  ASSERT_TRUE(engine
                  .submit({.prompt = {3, 4},
                           .new_tokens = 2,
                           .slo = {.priority = 0,
                                   .deadline_cycles = prefill + 3 * per_req}})
                  .has_value());
  EXPECT_THROW((void)engine.step(), Error);
}

// ---- paged KV serving (kv_page_tokens > 0) ---------------------------------

TEST(BatchedEngine, PagedTokensIdenticalToSlotEngine) {
  // The paged arena changes only the *budget* granularity — every
  // request's token stream must stay bit-identical to both the slot
  // engine and a dedicated generate() call, for serial and chunked
  // prefill and across page sizes (including one clamped to the whole
  // context, which makes a page a slot).
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const auto workloads = mixed_workloads();
  for (const int chunk : {0, 2}) {
    for (const int page_tokens : {4, 6, 1000}) {
      BatchedEngine engine(registry_of(session, chunk),
          {.total_kv_slots = 16, .max_pending = 64,
           .kv_page_tokens = page_tokens});
      EXPECT_EQ(engine.page_tokens(0), std::min(page_tokens, cfg.ar_context));
      std::vector<RequestId> ids;
      for (const auto& w : workloads) {
        ids.push_back(
            *engine.submit({.prompt = w.prompt, .new_tokens = w.new_tokens}));
      }
      const auto results = engine.run_to_completion();
      ASSERT_EQ(results.size(), workloads.size());
      for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto solo = session.generate(workloads[i].prompt, workloads[i].new_tokens);
        EXPECT_EQ(result_for(results, ids[i]).gen.tokens, solo.tokens)
            << "chunk " << chunk << " page_tokens " << page_tokens;
      }
      // Everything returned to the pool.
      EXPECT_EQ(engine.kv_pages().in_use(), 0);
      EXPECT_EQ(engine.kv_pages().total_refs(), 0);
    }
  }
}

TEST(BatchedEngine, PagedAdmitsMoreThanSlotsAtEqualKvBytes) {
  // The tentpole win: at the SAME total KV byte budget, page-granular
  // admission charges short requests only the pages their length needs,
  // so strictly more of them run concurrently than under whole-request
  // slots.
  const auto cfg = small_llama();  // ar_context = 24
  const InferenceSession session(cfg, 4);
  constexpr int kSlots = 2;
  constexpr int kPageTokens = 6;
  constexpr int kPages = kSlots * 24 / kPageTokens;  // equal bytes: 8 pages

  BatchedEngine slot_engine(registry_of(session), {.total_kv_slots = kSlots,
                                                   .max_pending = 64});
  BatchedEngine paged_engine(registry_of(session),
      {.total_kv_slots = kPages, .max_pending = 64,
       .kv_page_tokens = kPageTokens});
  ASSERT_EQ(slot_engine.kv_pages().pool_bytes(),
            paged_engine.kv_pages().pool_bytes());

  // Six short requests: 2-token prompts decoding 3 tokens each peak at
  // 4 KV rows — one page — so all six fit the paged budget at once
  // while whole-context pages can never run more than two.
  std::vector<RequestId> slot_ids;
  std::vector<RequestId> paged_ids;
  for (int i = 0; i < 6; ++i) {
    slot_ids.push_back(*slot_engine.submit({.prompt = {i + 1, i + 2},
                                            .new_tokens = 3}));
    paged_ids.push_back(*paged_engine.submit({.prompt = {i + 1, i + 2},
                                              .new_tokens = 3}));
  }
  const auto slot_results = slot_engine.run_to_completion();
  const auto paged_results = paged_engine.run_to_completion();
  EXPECT_EQ(slot_engine.stats().peak_batch, kSlots);
  EXPECT_GT(paged_engine.stats().peak_batch, slot_engine.stats().peak_batch);
  EXPECT_EQ(paged_engine.stats().peak_batch, 6);

  // Same streams on both engines (and both drain clean).
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(result_for(paged_results, paged_ids[i]).gen.tokens,
              result_for(slot_results, slot_ids[i]).gen.tokens);
  }
  EXPECT_EQ(paged_engine.kv_pages().in_use(), 0);
}

TEST(BatchedEngine, PagedSubmitRejectsSequenceBeyondPageCap) {
  // A request whose full sequence can never fit the tenant's page cap is
  // a contract violation at submit (admitting it would livelock decode
  // growth), distinct from the graceful queue-full nullopt.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session),
                       {.total_kv_slots = 2,  // 2 pages * 6 tokens
                        .max_pending = 8,
                        .kv_page_tokens = 6});
  // 4 + 20 - 1 = 23 rows > 12 the cap covers, though well under the
  // model context.
  EXPECT_THROW((void)engine.submit({.prompt = {1, 2, 3, 4},
                                    .new_tokens = 20}), Error);
  // At the cap exactly: accepted.
  EXPECT_TRUE(engine.submit({.prompt = {1, 2, 3, 4},
                             .new_tokens = 9}).has_value());
  (void)engine.run_to_completion();
  EXPECT_EQ(engine.stats().completed, 1);
}

TEST(BatchedEngine, PagedPrefixSharingAdoptsBitExact) {
  // Prompts sharing a donated prefix adopt its read-only pages instead
  // of recomputing the shared prefill — streams stay bit-exact, the hit
  // counters fire, and a prefix ending mid-page forks copy-on-write.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session, 1), {.total_kv_slots = 24,
                                                 .max_pending = 16,
                                                 .kv_page_tokens = 2,
                                                 .prefix_sharing = true});
  // Donor: its full prompt registers as a shareable prefix (2 pages).
  const auto donor = engine.submit({.prompt = {1, 2, 3, 4}, .new_tokens = 3});
  ASSERT_TRUE(donor.has_value());
  auto results = engine.run_to_completion();
  EXPECT_EQ(engine.prefix_cache_entries(), 1);
  EXPECT_EQ(engine.prefix_cache_pages(), 2);
  // The registry's pins are the only occupancy surviving the drain.
  EXPECT_EQ(engine.kv_pages().in_use(), engine.prefix_cache_pages());
  EXPECT_EQ(engine.stats().prefix_hits, 0);

  // Adopter A shares 2 full prompt tokens = 1 full page; adopter B's
  // 3-token common prefix extends one row into its first private page —
  // a copy-on-write fork.
  const auto a = engine.submit({.prompt = {1, 2, 9, 10}, .new_tokens = 3});
  const auto b = engine.submit({.prompt = {1, 2, 3, 11}, .new_tokens = 3});
  ASSERT_TRUE(a.has_value() && b.has_value());
  const auto adopt_results = engine.run_to_completion();
  EXPECT_EQ(engine.stats().prefix_hits, 2);
  EXPECT_EQ(engine.stats().prefix_shared_tokens, 2 + 3);
  EXPECT_EQ(engine.stats().cow_forks, 1);
  // The adopters donated their own prompts on prefill completion, each
  // entry re-pinning the shared first page alongside one private page.
  EXPECT_EQ(engine.prefix_cache_entries(), 3);

  // Bit-exact despite the adoption (the donor too).
  EXPECT_EQ(result_for(results, *donor).gen.tokens,
            session.generate({1, 2, 3, 4}, 3).tokens);
  EXPECT_EQ(result_for(adopt_results, *a).gen.tokens,
            session.generate({1, 2, 9, 10}, 3).tokens);
  EXPECT_EQ(result_for(adopt_results, *b).gen.tokens,
            session.generate({1, 2, 3, 11}, 3).tokens);

  // Refcount conservation after the drain: only the registry holds
  // references (entries may share physical pages, so refs >= pages).
  EXPECT_EQ(engine.kv_pages().in_use(), engine.prefix_cache_pages());
  EXPECT_GE(engine.kv_pages().total_refs(),
            static_cast<long long>(engine.prefix_cache_pages()));
}

TEST(BatchedEngine, PagedKvRowsMatchDedicatedRunsAcrossCowForks) {
  // Every active request's KV rows, read through its page table, equal a
  // dedicated dense run's bit for bit at every step boundary — donors,
  // a page-aligned adopter, and copy-on-write forks whose adopted rows
  // past their shared pages come from the donor's pinned page or from
  // the entry's copy of the rows past its whole pages.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session, 1), {.total_kv_slots = 32,
                                                 .max_pending = 16,
                                                 .kv_page_tokens = 2,
                                                 .prefix_sharing = true});
  std::vector<std::pair<RequestId, std::vector<std::vector<model::KvCache>>>> live;
  const auto serve = [&](const std::vector<std::vector<int>>& prompts) {
    live.clear();
    for (const auto& p : prompts) {
      const auto id = engine.submit({.prompt = p, .new_tokens = 4});
      ASSERT_TRUE(id.has_value());
      live.emplace_back(*id, dedicated_kv(session, p, 4));
    }
    while (engine.step()) {
      for (const auto& [id, dense] : live) EXPECT_TRUE(kv_rows_match(engine, id, dense));
    }
  };
  // Donors: {1, 2, 3} pins one page and keeps row 2 past it;
  // {5, 6, 7, 8} pins two pages.
  serve({{1, 2, 3}, {5, 6, 7, 8}});
  EXPECT_EQ(engine.prefix_cache_entries(), 2);
  // {1, 2, 3, 4} adopts 3 rows: page 0 shared, row 2 from the entry's
  // copy. {5, 6, 7, 9} adopts 3 rows: page 0 shared, row 2 from the
  // donor's pinned page 1. {5, 6, 1, 1} adopts one whole page.
  serve({{1, 2, 3, 4}, {5, 6, 7, 9}, {5, 6, 1, 1}});
  EXPECT_EQ(engine.stats().prefix_hits, 3);
  EXPECT_EQ(engine.stats().cow_forks, 2);
  for (const auto& r : engine.finished()) {
    EXPECT_EQ(r.gen.tokens, session.generate(std::vector<int>(r.gen.tokens.begin(),
                                                              r.gen.tokens.end() - 4),
                                             4)
                                .tokens);
  }
}

TEST(BatchedEngine, PagedPrefixSharingSavesPromptCycles) {
  // The adoption skip is a *cost* win: serving the same prompt twice
  // with sharing on charges the second request fewer prefill cycles
  // than with sharing off, with identical tokens.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const std::vector<int> prompt{1, 2, 3, 4};
  auto serve_twice = [&](bool sharing) {
    BatchedEngine engine(registry_of(session, 1), {.total_kv_slots = 24,
                                                   .max_pending = 16,
                                                   .kv_page_tokens = 2,
                                                   .prefix_sharing = sharing});
    const auto first = engine.submit({.prompt = prompt, .new_tokens = 2});
    (void)engine.run_to_completion();
    const auto second = engine.submit({.prompt = prompt, .new_tokens = 2});
    (void)first;
    const auto results = engine.run_to_completion();
    return result_for(results, *second);
  };
  const auto shared = serve_twice(true);
  const auto cold = serve_twice(false);
  EXPECT_EQ(shared.gen.tokens, cold.gen.tokens);
  EXPECT_LT(shared.gen.total_cycles, cold.gen.total_cycles);
}

TEST(BatchedEngine, PagedAccessorsAreModeChecked) {
  // Default options: one page per request spanning the whole context,
  // and a pool of total_kv_slots full-context KV sets (one request's KV
  // at full context, as the tenant plan derives it) — the byte budget of
  // the historical whole-request slot pool.
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2});
  EXPECT_EQ(engine.page_tokens(0), cfg.ar_context);
  EXPECT_EQ(engine.kv_pages().capacity(), 2);
  EXPECT_EQ(engine.kv_pages().pool_bytes(),
            2 * runtime::plan_tenant(registry_of(session).entries()[0], 0).kv_token_bytes *
                static_cast<Bytes>(cfg.ar_context));
  EXPECT_EQ(engine.prefix_cache_pages(), 0);
  // prefix_sharing is inert at kv_page_tokens == 0: nothing registers.
  BatchedEngine sharing(registry_of(session, 2), {.total_kv_slots = 2,
                                                  .prefix_sharing = true});
  ASSERT_TRUE(sharing.submit({.prompt = {1, 2, 3, 4},
                              .new_tokens = 2}).has_value());
  (void)sharing.run_to_completion();
  EXPECT_EQ(sharing.prefix_cache_entries(), 0);
  EXPECT_EQ(sharing.kv_pages().in_use(), 0);
}
