// Multi-model serving invariants: one BatchedEngine multiplexing
// several deployed (model, chip-count) sessions over a shared KV arena
// must (a) keep per-model attribution EXACT — summed over models,
// attributed cycles/energy/tokens equal the engine totals, and each
// model's counters equal the sum over its own finished requests —
// (b) never leak a KV slot across models under the static-split budget
// policy, whatever the admission scheduler, (c) keep every request's
// token stream bit-identical to a dedicated InferenceSession::generate
// call on its own model, and (d) reduce exactly to the single-model
// engine when the registry holds one deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "invariant_env.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tenant_plan.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using runtime::BatchedEngine;
using runtime::InferenceSession;
using runtime::KvBudget;
using runtime::kNoDeadline;
using runtime::ModelId;
using runtime::ModelRegistry;
using runtime::RequestId;
using runtime::RequestResult;
using runtime::SchedulePolicy;
using runtime::ServingStats;
using runtime::SloSpec;

namespace {

/// Decoder-style generator (TinyLlama shape, cut down) — full-width on
/// 4 chips so decode weights stream from L3 and the per-model prefetch
/// channels carry real traffic.
model::TransformerConfig gen_cfg() {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = "gen";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 24;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

/// Encoder-style classifier (MobileBERT shape, cut down): layernorm,
/// bidirectional mask, no RoPE — served as prefill-only requests.
model::TransformerConfig enc_cfg() {
  model::TransformerConfig cfg;
  cfg.name = "enc";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 32;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 80;
  cfg.ar_context = 12;
  cfg.prompt_len = 8;
  cfg.norm = model::NormKind::layernorm;
  cfg.pos = model::PosEmbed::none;
  cfg.mask = model::MaskKind::bidirectional;
  cfg.validate();
  return cfg;
}

struct Sessions {
  InferenceSession gen{gen_cfg(), 4};
  InferenceSession enc{enc_cfg(), 2};
  Cycles gen_ar_stream = 0;
  Cycles enc_ar_stream = 0;

  Sessions() {
    gen_ar_stream = gen.run_block(model::Mode::autoregressive)
                        .report.breakdown.dma_l3_l2 *
                    static_cast<Cycles>(gen.config().num_layers);
    enc_ar_stream = enc.run_block(model::Mode::autoregressive)
                        .report.breakdown.dma_l3_l2 *
                    static_cast<Cycles>(enc.config().num_layers);
  }
};

Sessions& sessions() {
  static auto* s = new Sessions();
  return *s;
}

struct Job {
  ModelId model = 0;
  std::vector<int> prompt;
  int new_tokens = 0;
  int submit_after_step = 0;
  SloSpec slo;
  bool attempted = false;
  std::optional<RequestId> id;
};

/// Randomized mixed workload: generator jobs decode a few tokens,
/// encoder jobs are prefill-only (new_tokens == 0) half of the time.
std::vector<Job> make_jobs(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const auto& s = sessions();
  std::vector<Job> jobs;
  const int n_jobs = 4 + static_cast<int>(rng.next_below(5));
  for (int j = 0; j < n_jobs; ++j) {
    Job job;
    job.model = static_cast<ModelId>(rng.next_below(2));
    const auto& cfg =
        job.model == 0 ? s.gen.config() : s.enc.config();
    const int plen = 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(cfg.prompt_len)));
    for (int t = 0; t < plen; ++t) {
      job.prompt.push_back(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size))));
    }
    const int room = cfg.ar_context - plen;
    if (job.model == 1 && rng.next_below(2) == 0) {
      job.new_tokens = 0;  // encoder classification
    } else {
      job.new_tokens = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(std::min(room, 5)) + 1));
    }
    job.submit_after_step = static_cast<int>(rng.next_below(5));
    job.slo.priority = static_cast<int>(rng.next_below(3));
    if (rng.next_below(3) != 0) {
      job.slo.deadline_cycles = (1 + rng.next_below(48)) * 1'000'000;
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ModelRegistry make_registry(int gen_chunk, int enc_chunk, int gen_quota = 0,
                            int enc_quota = 0) {
  ModelRegistry reg;
  (void)reg.add(sessions().gen, "gen", gen_chunk, gen_quota);
  (void)reg.add(sessions().enc, "enc", enc_chunk, enc_quota);
  return reg;
}

/// Drive a workload with mid-serving arrivals; optionally probe a
/// per-step invariant between boundaries.
template <typename StepProbe>
std::vector<RequestResult> run_jobs(std::vector<Job>& jobs,
                                    BatchedEngine& engine,
                                    const StepProbe& probe) {
  int step_idx = 0;
  for (;;) {
    bool submitted_any = false;
    for (auto& job : jobs) {
      if (job.attempted || job.submit_after_step > step_idx) continue;
      job.id = engine.submit({.model = job.model, .prompt = job.prompt,
                              .new_tokens = job.new_tokens, .slo = job.slo});
      job.attempted = true;
      submitted_any = true;
    }
    const bool pending_arrivals = std::any_of(
        jobs.begin(), jobs.end(), [](const Job& j) { return !j.attempted; });
    const bool work = engine.step();
    probe(engine);
    ++step_idx;
    if (!work && !pending_arrivals && !submitted_any) break;
    if (step_idx > 500) {
      ADD_FAILURE() << "workload did not drain";
      break;
    }
  }
  return engine.finished();
}

std::vector<RequestResult> run_jobs(std::vector<Job>& jobs,
                                    BatchedEngine& engine) {
  return run_jobs(jobs, engine, [](const BatchedEngine&) {});
}

/// The per-model exact-attribution invariants, checked after a drain.
void check_per_model_attribution(const BatchedEngine& engine,
                                 const std::vector<RequestResult>& results) {
  const ServingStats& stats = engine.stats();
  ASSERT_EQ(static_cast<int>(stats.per_model.size()), engine.model_count());

  Cycles cycles_sum = 0;
  double energy_sum = 0.0;
  int generated_sum = 0;
  int completed_sum = 0;
  for (const auto& pm : stats.per_model) {
    cycles_sum += pm.attributed_cycles;
    energy_sum += pm.attributed_energy_mj;
    generated_sum += pm.total_generated;
    completed_sum += pm.completed;
  }
  // Sum of per-model cycles/energy equals the engine totals, exactly
  // for the integer cycles.
  EXPECT_EQ(cycles_sum, stats.total_cycles);
  EXPECT_NEAR(energy_sum, stats.total_energy_mj,
              1e-9 * std::max(1.0, energy_sum));
  EXPECT_EQ(generated_sum, stats.total_generated);
  EXPECT_EQ(completed_sum, stats.completed);

  // Each model's counters equal the sums over its own requests.
  for (ModelId m = 0; m < engine.model_count(); ++m) {
    const auto& pm = stats.per_model[static_cast<std::size_t>(m)];
    Cycles req_cycles = 0;
    double req_energy = 0.0;
    int req_generated = 0;
    int req_completed = 0;
    int req_slo = 0;
    int req_misses = 0;
    for (const auto& r : results) {
      if (r.model != m) continue;
      req_cycles += r.gen.total_cycles;
      req_energy += r.gen.total_energy_mj;
      req_generated += r.gen.generated;
      ++req_completed;
      if (r.deadline_at != kNoDeadline) {
        ++req_slo;
        if (r.missed_deadline()) ++req_misses;
      }
    }
    EXPECT_EQ(pm.attributed_cycles, req_cycles) << "model " << m;
    EXPECT_NEAR(pm.attributed_energy_mj, req_energy,
                1e-9 * std::max(1.0, req_energy));
    EXPECT_EQ(pm.total_generated, req_generated);
    EXPECT_EQ(pm.completed, req_completed);
    EXPECT_EQ(pm.slo_requests, req_slo);
    EXPECT_EQ(pm.deadline_misses, req_misses);
  }

  // Per-model decode-stream conservation: each model's stall + hidden
  // equals its decode phases times its own serial stream.
  const auto& s = sessions();
  const Cycles streams[] = {s.gen_ar_stream, s.enc_ar_stream};
  for (ModelId m = 0; m < engine.model_count(); ++m) {
    const auto& pm = stats.per_model[static_cast<std::size_t>(m)];
    EXPECT_EQ(pm.prefetch_stall_cycles + pm.stream_cycles_hidden,
              static_cast<Cycles>(pm.decode_steps) *
                  streams[static_cast<std::size_t>(m)])
        << "model " << m;
  }
}

}  // namespace

TEST(MultiModel, PerModelAttributionExactUnderEveryScheduler) {
  // Randomized mixed workloads across chunked/serial modes and all
  // three admission policies: attribution partitions exactly. Seed
  // count scales with DISTMCU_INVARIANT_SEEDS (nightly sweep).
  const std::uint64_t kSeeds = distmcu::testing::invariant_seed_count(12);
  distmcu::testing::SeedReproLog repro(
      "./test_multimodel", "MultiModel.PerModelAttributionExactUnderEveryScheduler");
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                   runtime::policy_name(policy));
      const int gen_chunk = seed % 2 == 0 ? 2 : 0;
      const int enc_chunk = seed % 3 == 0 ? 4 : 0;
      auto reg = make_registry(gen_chunk, enc_chunk);
      BatchedEngine engine(reg, {.total_kv_slots = 4,
                                 .max_pending = 16,
                                 .scheduler = runtime::make_scheduler(policy)});
      auto jobs = make_jobs(seed);
      const auto results = run_jobs(jobs, engine);
      int accepted = 0;
      for (const auto& j : jobs) accepted += j.id.has_value() ? 1 : 0;
      EXPECT_EQ(static_cast<int>(results.size()), accepted);
      EXPECT_EQ(engine.active_requests(), 0);
      EXPECT_EQ(engine.pending_requests(), 0);
      check_per_model_attribution(engine, results);
    }
    repro.end(seed);
  }
}

TEST(MultiModel, StaticSplitNeverHandsSlotsAcrossModels) {
  // Zero cross-model KV leakage: under the static split, at every step
  // boundary and at the end, no model ever held more slots than its
  // quota — under all three admission schedulers. Seed count scales
  // with DISTMCU_INVARIANT_SEEDS (nightly sweep).
  const std::uint64_t kSeeds = distmcu::testing::invariant_seed_count(10);
  distmcu::testing::SeedReproLog repro(
      "./test_multimodel", "MultiModel.StaticSplitNeverHandsSlotsAcrossModels");
  for (std::uint64_t seed = 100; seed < 100 + kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                   runtime::policy_name(policy));
      auto reg = make_registry(/*gen_chunk=*/2, /*enc_chunk=*/0,
                               /*gen_quota=*/2, /*enc_quota=*/1);
      BatchedEngine engine(reg, {.total_kv_slots = 3,
                                 .max_pending = 16,
                                 .scheduler = runtime::make_scheduler(policy)});
      EXPECT_STREQ(engine.kv_budget().name(), "static_split");
      auto jobs = make_jobs(seed);
      const auto probe = [](const BatchedEngine& e) {
        EXPECT_LE(e.kv_pages().tenant_in_use(0), e.model_kv_quota(0));
        EXPECT_LE(e.kv_pages().tenant_in_use(1), e.model_kv_quota(1));
      };
      (void)run_jobs(jobs, engine, probe);
      EXPECT_LE(engine.kv_pages().tenant_high_water(0), 2);
      EXPECT_LE(engine.kv_pages().tenant_high_water(1), 1);
      EXPECT_LE(engine.stats().per_model[0].kv_in_use_high_water, 2);
      EXPECT_LE(engine.stats().per_model[1].kv_in_use_high_water, 1);
      EXPECT_EQ(engine.kv_pages().in_use(), 0);
    }
    repro.end(seed);
  }
}

TEST(MultiModel, TokenStreamsMatchDedicatedGeneratePerModel) {
  // Functional isolation: whatever shares the batch, every request's
  // stream equals a dedicated generate call on its own model.
  const auto& s = sessions();
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    auto reg = make_registry(/*gen_chunk=*/3, /*enc_chunk=*/2);
    BatchedEngine engine(reg, {.total_kv_slots = 3, .max_pending = 16});
    auto jobs = make_jobs(seed);
    const auto results = run_jobs(jobs, engine);
    for (const auto& job : jobs) {
      if (!job.id.has_value()) continue;
      const auto it =
          std::find_if(results.begin(), results.end(),
                       [&](const RequestResult& r) { return r.id == *job.id; });
      ASSERT_NE(it, results.end());
      EXPECT_EQ(it->model, job.model);
      const auto solo = (job.model == 0 ? s.gen : s.enc)
                            .generate(job.prompt, job.new_tokens);
      EXPECT_EQ(it->gen.tokens, solo.tokens) << "seed " << seed;
    }
  }
}

TEST(MultiModel, DeterministicReplay) {
  for (const std::uint64_t seed : {7u, 21u}) {
    auto ra = make_registry(2, 0);
    auto rb = make_registry(2, 0);
    BatchedEngine ea(ra, {.total_kv_slots = 3, .max_pending = 16});
    BatchedEngine eb(rb, {.total_kv_slots = 3, .max_pending = 16});
    auto ja = make_jobs(seed);
    auto jb = make_jobs(seed);
    const auto out_a = run_jobs(ja, ea);
    const auto out_b = run_jobs(jb, eb);
    ASSERT_EQ(out_a.size(), out_b.size());
    EXPECT_EQ(ea.stats().total_cycles, eb.stats().total_cycles);
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_EQ(out_a[i].id, out_b[i].id);
      EXPECT_EQ(out_a[i].model, out_b[i].model);
      EXPECT_EQ(out_a[i].gen.tokens, out_b[i].gen.tokens);
      EXPECT_EQ(out_a[i].gen.total_cycles, out_b[i].gen.total_cycles);
      EXPECT_EQ(out_a[i].finished_at, out_b[i].finished_at);
    }
  }
}

TEST(MultiModel, WatermarkPolicyBorrowsIdleSlotsWithinReserves) {
  // Model 0 floods the engine while model 1 is idle: under the
  // watermark policy model 0 borrows past its quota (the static split
  // would cap it), and the whole arena still drains cleanly.
  auto reg = make_registry(/*gen_chunk=*/2, /*enc_chunk=*/0,
                           /*gen_quota=*/2, /*enc_quota=*/2);
  BatchedEngine engine(reg, {.total_kv_slots = 4,
                             .max_pending = 32,
                             .kv_budget = runtime::make_kv_budget(
                                 KvBudget::watermark)});
  EXPECT_STREQ(engine.kv_budget().name(), "watermark");
  EXPECT_EQ(engine.model_kv_cap(0), 4);  // borrowing policies cap at the arena
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.submit({.model = 0, .prompt = {1 + i, 2, 3},
                               .new_tokens = 4}).has_value());
  }
  (void)engine.run_to_completion();
  EXPECT_GT(engine.kv_pages().tenant_high_water(0), engine.model_kv_quota(0));
  EXPECT_EQ(engine.kv_pages().in_use(), 0);
  EXPECT_EQ(engine.stats().completed, 6);
}

TEST(MultiModel, WatermarkTenantsThatBothMustBorrowStillDrain) {
  // Three 8-token pages: "a" (quota 2) serves a 3-page sequence and "b"
  // (quota 1) a 2-page one, so both must borrow. Once an eviction leaves
  // both queued past their quotas on an idle engine, each one's queued
  // demand protects its reserve from the other's borrow; the engine must
  // still admit one of them and drain.
  ModelRegistry reg;
  (void)reg.add(sessions().gen, "a", /*prefill_chunk_tokens=*/2,
                /*kv_quota=*/2, /*max_resident=*/3);
  (void)reg.add(sessions().gen, "b", /*prefill_chunk_tokens=*/2,
                /*kv_quota=*/1, /*max_resident=*/2);
  BatchedEngine engine(reg, {.total_kv_slots = 3,
                             .kv_budget = runtime::make_kv_budget(
                                 KvBudget::watermark),
                             .kv_page_tokens = 8});
  const std::vector<int> pa = {1, 2, 3, 4, 5, 6};
  const std::vector<int> pb = {1, 2, 3, 4};
  ASSERT_TRUE(engine.submit({.model = 0, .prompt = pa,
                             .new_tokens = 17}).has_value());
  ASSERT_TRUE(engine.submit({.model = 1, .prompt = pb,
                             .new_tokens = 13}).has_value());
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  for (const RequestResult& r : results) {
    const auto& solo = r.model == 0 ? sessions().gen.generate(pa, 17)
                                    : sessions().gen.generate(pb, 13);
    EXPECT_EQ(r.gen.tokens, solo.tokens) << "model " << r.model;
  }
  EXPECT_EQ(engine.kv_pages().in_use(), 0);
}

TEST(MultiModel, ProportionalPolicyServesBothTenantsByDemand) {
  auto reg = make_registry(/*gen_chunk=*/2, /*enc_chunk=*/2);
  BatchedEngine engine(reg, {.total_kv_slots = 4,
                             .max_pending = 32,
                             .kv_budget = runtime::make_kv_budget(
                                 KvBudget::proportional)});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.submit({.model = 0, .prompt = {1 + i, 2},
                               .new_tokens = 3}).has_value());
    ASSERT_TRUE(engine.submit({.model = 1, .prompt = {3 + i, 4},
                               .new_tokens = 0}).has_value());
  }
  const auto results = engine.run_to_completion();
  EXPECT_EQ(static_cast<int>(results.size()), 10);
  check_per_model_attribution(engine, results);
  EXPECT_GE(engine.kv_pages().tenant_high_water(0), 1);
  EXPECT_GE(engine.kv_pages().tenant_high_water(1), 1);
}

TEST(MultiModel, EdfDeadlineOnOneModelPreemptsAdmissionOfAnother) {
  // Four long generator jobs queued ahead of one tight-deadline encoder
  // job, two shared slots under the proportional budget (both models'
  // candidates stay admissible, so the SCHEDULER decides the order):
  // FIFO admits the generators first and the encoder blows its deadline
  // in the queue; EDF admits the encoder at the first free slot and
  // meets it, at identical total work.
  const auto run = [&](SchedulePolicy policy) {
    auto reg = make_registry(/*gen_chunk=*/2, /*enc_chunk=*/0,
                             /*gen_quota=*/1, /*enc_quota=*/1);
    BatchedEngine engine(reg, {.total_kv_slots = 2,
                               .max_pending = 16,
                               .scheduler = runtime::make_scheduler(policy),
                               .kv_budget = runtime::make_kv_budget(
                                   KvBudget::proportional)});
    for (int i = 0; i < 4; ++i) {
      (void)*engine.submit(
          {.model = 0, .prompt = {1 + i, 5, 2, 8, 3, 9}, .new_tokens = 12,
           .slo = {.priority = 2, .deadline_cycles = kNoDeadline}});
    }
    (void)*engine.submit(
        {.model = 1, .prompt = {7, 4, 2}, .new_tokens = 0,
         .slo = {.priority = 0, .deadline_cycles = 2'000'000}});
    (void)engine.run_to_completion();
    return engine.stats();
  };
  const ServingStats fifo = run(SchedulePolicy::fifo);
  const ServingStats edf = run(SchedulePolicy::edf);
  EXPECT_EQ(fifo.per_model[1].deadline_misses, 1);
  EXPECT_EQ(edf.per_model[1].deadline_misses, 0);
  EXPECT_EQ(fifo.total_generated, edf.total_generated);
}

TEST(MultiModel, SubmitValidatesPerModelShapes) {
  auto reg = make_registry(0, 0);
  BatchedEngine engine(reg, {.total_kv_slots = 2, .max_pending = 4});
  // Model 1's prompt_len is 8; model 0's is 6 — the longer prompt is
  // valid only against model 1.
  const std::vector<int> long_prompt{1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW((void)engine.submit({.model = 0, .prompt = long_prompt,
                                    .new_tokens = 1}), Error);
  EXPECT_TRUE(engine.submit({.model = 1, .prompt = long_prompt,
                             .new_tokens = 1}).has_value());
  EXPECT_THROW((void)engine.submit({.model = 2, .prompt = {1},
                                    .new_tokens = 1}), Error);
  EXPECT_THROW((void)engine.submit({.model = -1, .prompt = {1},
                                    .new_tokens = 1}), Error);
}

TEST(MultiModel, RegistryValidation) {
  const auto& s = sessions();
  ModelRegistry reg;
  (void)reg.add(s.gen, "gen");
  EXPECT_THROW((void)reg.add(s.enc, "gen"), Error);  // duplicate name
  EXPECT_THROW((void)reg.add(s.enc, ""), Error);
  (void)reg.add(s.enc, "enc");
  EXPECT_EQ(reg.count(), 2);
  EXPECT_EQ(reg.find("enc"), 1);
  EXPECT_THROW((void)reg.find("absent"), Error);
  // Quotas exceeding the arena, or an arena too small to reserve one
  // slot per deployment, are construction errors.
  ModelRegistry over;
  (void)over.add(s.gen, "gen", 0, /*kv_quota=*/3);
  (void)over.add(s.enc, "enc", 0, /*kv_quota=*/2);
  EXPECT_THROW(BatchedEngine(over, {.total_kv_slots = 4}), Error);
  EXPECT_THROW(BatchedEngine(reg, {.total_kv_slots = 1}), Error);
}

// --- budget-policy unit tests ----------------------------------------------

namespace {

std::vector<runtime::KvBudgetPolicy::TenantView> views2(int in0, int pend0,
                                                        int q0, int in1,
                                                        int pend1, int q1,
                                                        int cap) {
  return {{0, in0, pend0, q0, cap}, {1, in1, pend1, q1, cap}};
}

}  // namespace

TEST(KvBudgetPolicy, StaticSplitGrantsOnlyWithinQuota) {
  runtime::StaticSplitPolicy p;
  EXPECT_FALSE(p.allows_borrowing());
  const auto v = views2(2, 5, 2, 0, 0, 2, 4);
  EXPECT_FALSE(p.may_acquire(0, v, 4, 2));  // at quota, slots free elsewhere
  EXPECT_TRUE(p.may_acquire(1, v, 4, 2));
}

TEST(KvBudgetPolicy, ProportionalAllowanceFollowsDemand) {
  runtime::ProportionalSharePolicy p;
  // Tenant 0 carries all the demand: its allowance covers the arena.
  EXPECT_TRUE(p.may_acquire(0, views2(3, 4, 2, 0, 0, 2, 4), 4, 1));
  // No demand at all -> no grant.
  EXPECT_FALSE(p.may_acquire(0, views2(0, 0, 2, 0, 0, 2, 4), 4, 4));
  // Equal demand -> equal allowances: tenant 0 at half the arena is
  // capped while tenant 1 below its share is granted.
  EXPECT_FALSE(p.may_acquire(0, views2(2, 2, 2, 0, 4, 2, 4), 4, 2));
  EXPECT_TRUE(p.may_acquire(1, views2(2, 2, 2, 0, 4, 2, 4), 4, 2));
}

TEST(KvBudgetPolicy, WatermarkProtectsUnmetReservesOfDemandingTenants) {
  runtime::WatermarkBorrowPolicy p;
  // Under quota: always granted.
  EXPECT_TRUE(p.may_acquire(0, views2(1, 3, 2, 0, 0, 2, 4), 4, 1));
  // Borrow with the other tenant idle: granted down to the last slot.
  EXPECT_TRUE(p.may_acquire(0, views2(3, 3, 2, 0, 0, 2, 4), 4, 1));
  // Borrow while the other tenant has pending demand and 2 unmet
  // reserve slots: refused unless enough stays free.
  EXPECT_FALSE(p.may_acquire(0, views2(2, 3, 2, 0, 2, 2, 4), 4, 2));
  EXPECT_TRUE(p.may_acquire(0, views2(2, 3, 2, 0, 2, 2, 6), 6, 4));
  // Headroom raises the bar.
  runtime::WatermarkBorrowPolicy strict({.headroom = 2});
  EXPECT_FALSE(strict.may_acquire(0, views2(2, 3, 2, 0, 2, 2, 6), 6, 4));
}

TEST(KvShares, EveryUnfaultedShareHoldsAtLeastOnePage) {
  // derive_kv_shares has exactly two faults; whenever neither fires,
  // every tenant must get a quota of at least one page and a cap inside
  // the arena (within its quota when the policy never borrows). Random
  // registries mix explicit and unset quotas and caps, total pages and
  // borrowing on and off.
  const std::uint64_t kSeeds = distmcu::testing::invariant_seed_count(2000);
  util::Rng rng(0x6b76u);
  int clean = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const int total = static_cast<int>(rng.next_below(13));
    const bool borrowing = rng.next_below(2) == 1;
    std::vector<runtime::ModelDeployment> entries(1 + rng.next_below(5));
    int explicit_sum = 0;
    int unset = 0;
    for (auto& e : entries) {
      e.kv_quota = static_cast<int>(rng.next_below(5));  // 0 = unset
      e.max_resident = static_cast<int>(rng.next_below(8));  // 0 = derived
      explicit_sum += e.kv_quota;
      unset += e.kv_quota == 0 ? 1 : 0;
    }
    const runtime::KvShares kv =
        runtime::derive_kv_shares(entries, total, borrowing);
    if (explicit_sum > total) {
      EXPECT_EQ(kv.fault, runtime::KvShares::Fault::oversubscribed);
      continue;
    }
    if (unset > total - explicit_sum) {
      EXPECT_EQ(kv.fault, runtime::KvShares::Fault::no_reserve);
      continue;
    }
    ASSERT_EQ(kv.fault, runtime::KvShares::Fault::none) << "seed " << seed;
    ASSERT_EQ(kv.shares.size(), entries.size()) << "seed " << seed;
    for (const runtime::KvShare& share : kv.shares) {
      EXPECT_GE(share.quota, 1) << "seed " << seed;
      EXPECT_GE(share.cap, 1) << "seed " << seed;
      EXPECT_LE(share.cap, total) << "seed " << seed;
      if (!borrowing) {
        EXPECT_LE(share.cap, share.quota) << "seed " << seed;
      }
    }
    ++clean;
  }
  // The sweep must actually reach the unfaulted derivation.
  EXPECT_GT(clean, static_cast<int>(kSeeds / 10));
}

// --- overload controls across tenants --------------------------------------

namespace {

const RequestResult& result_for(const std::vector<RequestResult>& results,
                                RequestId id) {
  for (const auto& r : results) {
    if (r.id == id) return r;
  }
  throw Error("result_for: no such request id");
}

}  // namespace

TEST(MultiModelServing, FairSheddingDropsTheHeaviestTenantsNewest) {
  auto reg = make_registry(0, 0);
  BatchedEngine engine(reg, {.total_kv_slots = 2,
                             .max_pending = 2,
                             .fair_shedding = true});

  // Four generator submits: two absorbable by the free slots, two of
  // backlog — the queue bound is now exactly reached.
  std::vector<RequestId> gen_ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = engine.submit({.model = 0, .prompt = {1, 2, 3},
                                   .new_tokens = 2});
    ASSERT_TRUE(id.has_value());
    gen_ids.push_back(*id);
  }

  // An encoder submit on the full queue sheds the generator tenant's
  // newest queued request instead of bouncing the newcomer.
  const auto enc_id = engine.submit({.model = 1, .prompt = {4, 5, 6, 7},
                                     .new_tokens = 0});
  ASSERT_TRUE(enc_id.has_value());
  EXPECT_EQ(engine.last_rejection(), runtime::Rejection::none);
  ASSERT_EQ(engine.shed_ids().size(), 1u);
  EXPECT_EQ(engine.shed_ids()[0], gen_ids.back());
  EXPECT_EQ(engine.stats().shed, 1);
  EXPECT_EQ(engine.stats().per_model[0].shed, 1);
  EXPECT_EQ(engine.stats().per_model[1].shed, 0);

  // The reverse direction: the generator tenant is itself the heaviest,
  // so its next submit is refused queue_full — fairness never churns
  // another tenant out for the aggressor.
  EXPECT_FALSE(engine.submit({.model = 0, .prompt = {9},
                              .new_tokens = 1}).has_value());
  EXPECT_EQ(engine.last_rejection(), runtime::Rejection::queue_full);
  EXPECT_EQ(engine.stats().shed, 1);
  EXPECT_EQ(engine.stats().rejected_queue_full, 1);

  while (engine.step()) {}
  const auto results = engine.finished();
  // Conservation: accepted == completed + shed; the shed id never
  // reaches the finished list.
  int accepted = 0;
  for (const auto& pm : engine.stats().per_model) accepted += pm.submitted;
  EXPECT_EQ(accepted, engine.stats().completed + engine.stats().shed);
  for (const auto& r : results) EXPECT_NE(r.id, engine.shed_ids()[0]);
  check_per_model_attribution(engine, results);
}

TEST(MultiModelServing, PreemptionReclaimsBorrowedSlotAcrossModels) {
  // Watermark borrowing lets the generator take the whole arena while
  // the encoder is idle; when an encoder deadline then arrives, the
  // preemption policy checkpoints a generator request out of the
  // borrowed slot, the arena reclaims it cross-model, and every token
  // stream still matches a dedicated generate() run bit-exactly.
  const auto& s = sessions();
  auto reg = make_registry(0, 0, /*gen_quota=*/1, /*enc_quota=*/1);
  BatchedEngine engine(
      reg,
      {.total_kv_slots = 2,
       .max_pending = 8,
       .scheduler = std::make_shared<runtime::EdfScheduler>(),
       .kv_budget = runtime::make_kv_budget(KvBudget::watermark),
       .preemption = std::make_shared<runtime::DeadlineAwarePreemption>()});

  const auto a = engine.submit({.model = 0, .prompt = {1, 2, 3},
                                .new_tokens = 10});
  const auto b = engine.submit({.model = 0, .prompt = {4, 5, 6},
                                .new_tokens = 10});
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_TRUE(engine.step());  // both admitted: quota slot + borrowed slot

  const auto gen_layers = static_cast<Cycles>(s.gen.config().num_layers);
  const auto gen_ar = s.gen.run_block(model::Mode::autoregressive);
  const Cycles gen_per_req =
      (gen_ar.report.block_cycles - gen_ar.report.breakdown.dma_l3_l2) *
      gen_layers;
  const Cycles enc_prefill =
      s.enc.run_block(model::Mode::prompt).report.block_cycles *
      static_cast<Cycles>(s.enc.config().num_layers);

  // Feasible if admitted promptly, lost if it waits out a generator.
  const auto c = engine.submit(
      {.model = 1, .prompt = {7, 8, 9, 10}, .new_tokens = 0,
       .slo = {.priority = 0, .deadline_cycles = enc_prefill + gen_per_req}});
  ASSERT_TRUE(c.has_value());

  while (engine.step()) {}
  const auto results = engine.finished();
  ASSERT_EQ(results.size(), 3u);

  const auto& stats = engine.stats();
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.resumes, 1);
  EXPECT_EQ(stats.per_model[0].preemptions, 1);
  EXPECT_EQ(stats.per_model[0].kv_slots_reclaimed, 1);
  EXPECT_EQ(stats.per_model[1].preemptions, 0);
  EXPECT_EQ(stats.per_model[1].kv_slots_reclaimed, 0);

  // One generator took the checkpoint round trip; streams unharmed.
  const auto& ra = result_for(results, *a);
  const auto& rb = result_for(results, *b);
  EXPECT_EQ(ra.times_evicted + rb.times_evicted, 1);
  EXPECT_EQ(ra.gen.tokens, s.gen.generate({1, 2, 3}, 10).tokens);
  EXPECT_EQ(rb.gen.tokens, s.gen.generate({4, 5, 6}, 10).tokens);
  EXPECT_EQ(result_for(results, *c).gen.tokens,
            s.enc.generate({7, 8, 9, 10}, 0).tokens);
  check_per_model_attribution(engine, results);
}

TEST(MultiModel, PagedStaticSplitNeverHandsPagesAcrossModels) {
  // Paged tentpole, multi-model: with the shared arena in pages and
  // per-tenant page quotas, the static split must keep zero cross-model
  // page leakage at every step boundary under all three schedulers —
  // and the engine must drain to zero pages in use (no sharing here, so
  // no registry pins). Seed count scales with DISTMCU_INVARIANT_SEEDS.
  const std::uint64_t kSeeds = distmcu::testing::invariant_seed_count(8);
  distmcu::testing::SeedReproLog repro(
      "./test_multimodel", "MultiModel.PagedStaticSplitNeverHandsPagesAcrossModels");
  for (std::uint64_t seed = 300; seed < 300 + kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " policy " +
                   runtime::policy_name(policy));
      // Page size 4: a gen set is 6 pages, an enc set 3. Quotas cover
      // one full-context request each, in pages.
      auto reg = make_registry(/*gen_chunk=*/2, /*enc_chunk=*/0,
                               /*gen_quota=*/6, /*enc_quota=*/3);
      BatchedEngine engine(reg, {.total_kv_slots = 9,
                                 .max_pending = 16,
                                 .scheduler = runtime::make_scheduler(policy),
                                 .kv_page_tokens = 4});
      EXPECT_EQ(engine.page_tokens(0), 4);
      EXPECT_EQ(engine.page_tokens(1), 4);
      auto jobs = make_jobs(seed);
      const auto probe = [](const BatchedEngine& e) {
        EXPECT_LE(e.kv_pages().tenant_in_use(0), e.model_kv_quota(0));
        EXPECT_LE(e.kv_pages().tenant_in_use(1), e.model_kv_quota(1));
        EXPECT_GE(e.kv_pages().total_refs(),
                  static_cast<long long>(e.kv_pages().in_use()));
      };
      const auto results = run_jobs(jobs, engine, probe);
      EXPECT_LE(engine.kv_pages().tenant_high_water(0), 6);
      EXPECT_LE(engine.kv_pages().tenant_high_water(1), 3);
      EXPECT_EQ(engine.kv_pages().in_use(), 0);
      EXPECT_EQ(engine.kv_pages().total_refs(), 0);
      check_per_model_attribution(engine, results);

      // Streams stay per-model bit-exact through the paged budget.
      const auto& s = sessions();
      for (const auto& job : jobs) {
        if (!job.id.has_value()) continue;
        const auto& session = job.model == 0 ? s.gen : s.enc;
        EXPECT_EQ(result_for(results, *job.id).gen.tokens,
                  session.generate(job.prompt, job.new_tokens).tokens);
      }
    }
    repro.end(seed);
  }
}
