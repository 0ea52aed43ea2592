// Static deployment verifier suite:
//  * one golden test per diagnostic code — a seeded-bad configuration
//    must trigger exactly that code (and nothing else),
//  * strict-mode construction — configs that previously aborted at
//    runtime (PlanError mid-construction, Error at submit) are refused
//    at construction with the structured code, and a trace-lane
//    collision plain construction accepts is refused too,
//  * a randomized cross-check of the analyzer/engine equivalence: a
//    config the analyzer passes as clean constructs and drains the
//    serving-invariant conservation checks, and a config carrying a
//    CFG/KV/MEM error-severity diagnostic fails construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/deployment_analyzer.hpp"
#include "invariant_env.hpp"
#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using analysis::AnalysisError;
using analysis::AnalysisReport;
using analysis::DeploymentAnalyzer;
using analysis::Workload;
using runtime::BatchedEngine;
using runtime::InferenceSession;
using runtime::ModelRegistry;

namespace {

using distmcu::testing::invariant_seed_count;
using distmcu::testing::registry_of;
using distmcu::testing::SeedReproLog;

model::TransformerConfig tiny_cfg(int ar_context, int prompt_len) {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = ar_context;
  cfg.prompt_len = prompt_len;
  cfg.validate();
  return cfg;
}

/// Full-width blocks on 4 chips: decode weights stream from L3 every
/// step, so shallow batches are stall-bound (the DMCU-PORT-003 regime).
model::TransformerConfig streamed_cfg() {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 200;
  cfg.ar_context = 32;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

/// Suite-wide sessions (weights + plan + sharding are expensive).
const InferenceSession& tiny_session() {
  static const InferenceSession s(tiny_cfg(/*ar_context=*/24, /*prompt_len=*/6),
                                  4);
  return s;
}

const InferenceSession& streamed_session() {
  static const InferenceSession s(streamed_cfg(), 4);
  return s;
}

AnalysisReport analyze(const ModelRegistry& reg,
                       BatchedEngine::MultiOptions opts,
                       const Workload* wl = nullptr) {
  return DeploymentAnalyzer::analyze(reg, opts, wl);
}

/// The golden-test contract: the report's distinct code set is exactly
/// {code}.
void expect_exactly(const AnalysisReport& rep, const char* code) {
  ASSERT_FALSE(rep.diagnostics.empty()) << rep.to_text();
  EXPECT_EQ(rep.codes(), std::vector<std::string>{code}) << rep.to_text();
}

// ---------------------------------------------------------------------
// Golden tests: one seeded-bad config per diagnostic code.
// ---------------------------------------------------------------------

TEST(AnalysisGolden, CfgMalformedOptions) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny");
  const auto rep = analyze(reg, {.total_kv_slots = 0});
  expect_exactly(rep, analysis::kCfgMalformed);
  EXPECT_EQ(rep.errors(), 1);

  const auto rep2 = analyze(reg, {.total_kv_slots = 2, .max_pending = -1});
  expect_exactly(rep2, analysis::kCfgMalformed);

  const auto rep3 = analyze(ModelRegistry{}, {.total_kv_slots = 2});
  expect_exactly(rep3, analysis::kCfgMalformed);
}

TEST(AnalysisGolden, MemOverflowPooledKv) {
  // A fully L2-resident tiny model whose pooled KV cannot scale to a
  // 4096-set cap: the per-tenant fit check must overflow.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", /*prefill_chunk_tokens=*/0,
                /*kv_quota=*/4096, /*max_resident=*/4096);
  const auto rep = analyze(reg, {.total_kv_slots = 4096});
  expect_exactly(rep, analysis::kMemOverflow);
  EXPECT_GE(rep.errors(), 1);
}

TEST(AnalysisGolden, KvBudgetOversubscribed) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "a", 0, /*kv_quota=*/3);
  (void)reg.add(tiny_session(), "b", 0, /*kv_quota=*/2);
  const auto rep = analyze(reg, {.total_kv_slots = 4});
  expect_exactly(rep, analysis::kKvBudget);

  // No derivable reserve: 2 slots across three unset-quota deployments.
  ModelRegistry reg2;
  (void)reg2.add(tiny_session(), "a");
  (void)reg2.add(tiny_session(), "b");
  (void)reg2.add(tiny_session(), "c");
  const auto rep2 = analyze(reg2, {.total_kv_slots = 2});
  expect_exactly(rep2, analysis::kKvBudget);
}

TEST(AnalysisGolden, KvBudgetPhantomReserveWarns) {
  // quota 3 but max_resident 1: the 2-page phantom reserve can never be
  // occupied. Runs (warning), but flagged.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "a", 0, /*kv_quota=*/3, /*max_resident=*/1);
  (void)reg.add(tiny_session(), "b", 0, /*kv_quota=*/1);
  const auto rep = analyze(
      reg, {.total_kv_slots = 4,
            .kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark)});
  expect_exactly(rep, analysis::kKvBudget);
  EXPECT_EQ(rep.errors(), 0) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 1);
  EXPECT_TRUE(rep.ok());
}

TEST(AnalysisGolden, PortOversubscribedWarns) {
  // Full-width streamed deployment at batch 1: the per-step weight
  // stream exceeds one request's compute, so steady-state decode can
  // never hide it.
  ModelRegistry reg;
  (void)reg.add(streamed_session(), "streamed", 0, /*kv_quota=*/1,
                /*max_resident=*/1);
  const auto rep = analyze(reg, {.total_kv_slots = 1});
  expect_exactly(rep, analysis::kPortOversub);
  EXPECT_EQ(rep.errors(), 0) << rep.to_text();
  EXPECT_TRUE(rep.ok());
}

TEST(AnalysisGolden, SloInfeasibleDeadline) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, /*kv_quota=*/2,
                /*max_resident=*/2);
  Workload wl;
  wl.requests.push_back({.model = 0,
                         .prompt_tokens = 6,
                         .new_tokens = 4,
                         .deadline_cycles = 1,
                         .count = 1});
  const auto rep = analyze(reg, {.total_kv_slots = 2}, &wl);
  expect_exactly(rep, analysis::kSloInfeasible);
}

TEST(AnalysisGolden, TraceLaneCollision) {
  // Distinct registry names that collapse to one trace-lane/stats key.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny-llama", 0, 1, 1);
  (void)reg.add(tiny_session(), "tiny_llama", 0, 1, 1);
  const auto rep = analyze(reg, {.total_kv_slots = 2});
  expect_exactly(rep, analysis::kTraceCollision);

  ModelRegistry reg2;
  (void)reg2.add(tiny_session(), "bad name!", 0, 1, 1);
  const auto rep2 = analyze(reg2, {.total_kv_slots = 1});
  expect_exactly(rep2, analysis::kTraceCollision);
}

TEST(AnalysisGolden, RequestShape) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, /*kv_quota=*/2,
                /*max_resident=*/2);
  Workload wl;
  // Exactly submit()'s throw set: prompt beyond the static prefill
  // shape, context overflow, empty prompt, negative new_tokens,
  // unknown model.
  wl.requests.push_back({.model = 0, .prompt_tokens = 10, .new_tokens = 1});
  wl.requests.push_back({.model = 0, .prompt_tokens = 6, .new_tokens = 30});
  wl.requests.push_back({.model = 0, .prompt_tokens = 0, .new_tokens = 1});
  wl.requests.push_back({.model = 0, .prompt_tokens = 2, .new_tokens = -1});
  wl.requests.push_back({.model = 7, .prompt_tokens = 2, .new_tokens = 1});
  const auto rep = analyze(reg, {.total_kv_slots = 2}, &wl);
  expect_exactly(rep, analysis::kRequestShape);
  EXPECT_EQ(rep.errors(), 5) << rep.to_text();
}

TEST(AnalysisGolden, PagedConfig) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", /*prefill_chunk_tokens=*/2,
                /*kv_quota=*/4, /*max_resident=*/4);

  // Negative page size: error (the engine's constructor check).
  const auto rep = analyze(reg, {.total_kv_slots = 4, .kv_page_tokens = -1});
  expect_exactly(rep, analysis::kPagedConfig);
  EXPECT_GE(rep.errors(), 1);

  // prefix_sharing at kv_page_tokens == 0 (whole-context pages): the
  // flag is silently ignored by the engine — sound, but flagged.
  const auto rep2 =
      analyze(reg, {.total_kv_slots = 4, .prefix_sharing = true});
  expect_exactly(rep2, analysis::kPagedConfig);
  EXPECT_EQ(rep2.errors(), 0) << rep2.to_text();
  EXPECT_EQ(rep2.warnings(), 1);
  EXPECT_TRUE(rep2.ok());

  // A workload sequence whose full KV (prompt rows plus all but the
  // last decode row: 6 + 17 = 23 rows -> 6 four-token pages) exceeds
  // the tenant's 4-page cap: submit()'s livelock guard, statically.
  Workload wl;
  wl.requests.push_back({.model = 0, .prompt_tokens = 6, .new_tokens = 18});
  const auto rep3 =
      analyze(reg, {.total_kv_slots = 4, .kv_page_tokens = 4}, &wl);
  expect_exactly(rep3, analysis::kPagedConfig);
  EXPECT_EQ(rep3.errors(), 1) << rep3.to_text();

  // The same sequence under an 8-page cap fits: clean.
  ModelRegistry reg8;
  (void)reg8.add(tiny_session(), "tiny", /*prefill_chunk_tokens=*/2,
                 /*kv_quota=*/8, /*max_resident=*/8);
  const auto rep4 =
      analyze(reg8, {.total_kv_slots = 8, .kv_page_tokens = 4}, &wl);
  EXPECT_TRUE(rep4.ok()) << rep4.to_text();
  EXPECT_TRUE(rep4.codes().empty()) << rep4.to_text();
}

// ---------------------------------------------------------------------
// Report surfaces.
// ---------------------------------------------------------------------

TEST(AnalysisReportTest, CleanAndTextForms) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, 2, 2);
  const auto rep = analyze(reg, {.total_kv_slots = 2});
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.errors(), 0);
  EXPECT_EQ(rep.warnings(), 0);
  EXPECT_TRUE(rep.codes().empty());
  EXPECT_NE(rep.to_text().find("clean"), std::string::npos);

  const auto bad = analyze(reg, {.total_kv_slots = 0});
  const std::string text = bad.to_text();
  EXPECT_NE(text.find("DMCU-CFG-000"), std::string::npos);
  EXPECT_NE(text.find("error["), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
}

// ---------------------------------------------------------------------
// Strict-mode construction.
// ---------------------------------------------------------------------

TEST(AnalysisStrict, MemOverflowRefusedWithCode) {
  // Previously runtime-aborting: plain construction dies mid-build with
  // an unstructured PlanError from the pooled-KV fit check; strict mode
  // refuses the same config up front with the structured code.
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 4096;
  EXPECT_THROW(BatchedEngine(registry_of(tiny_session()), opts), PlanError);

  opts.strict = true;
  try {
    BatchedEngine engine(registry_of(tiny_session()), opts);
    FAIL() << "strict construction accepted an unsound deployment";
  } catch (const AnalysisError& e) {
    EXPECT_TRUE(e.report().has(analysis::kMemOverflow)) << e.what();
    EXPECT_GE(e.report().errors(), 1);
    EXPECT_NE(std::string(e.what()).find("DMCU-MEM-001"), std::string::npos);
  }
}

TEST(AnalysisStrict, QuotaOversubscriptionRefusedWithCode) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "a", 0, /*kv_quota=*/3);
  (void)reg.add(tiny_session(), "b", 0, /*kv_quota=*/2);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 4;
  EXPECT_THROW(BatchedEngine(reg, opts), Error);

  opts.strict = true;
  try {
    BatchedEngine engine(reg, opts);
    FAIL() << "strict construction accepted an oversubscribed budget";
  } catch (const AnalysisError& e) {
    EXPECT_TRUE(e.report().has(analysis::kKvBudget)) << e.what();
  }
}

TEST(AnalysisStrict, TraceCollisionRefusedOnlyUnderStrict) {
  // Plain construction accepts the colliding names (the registry only
  // rejects exact duplicates); strict mode refuses them.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny-llama", 0, 1, 1);
  (void)reg.add(tiny_session(), "tiny_llama", 0, 1, 1);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 2;
  EXPECT_NO_THROW(BatchedEngine(reg, opts));

  opts.strict = true;
  try {
    BatchedEngine engine(reg, opts);
    FAIL() << "strict construction accepted a trace-lane collision";
  } catch (const AnalysisError& e) {
    EXPECT_TRUE(e.report().has(analysis::kTraceCollision)) << e.what();
  }
}

TEST(AnalysisStrict, CleanConfigConstructsAndServes) {
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 2;
  opts.strict = true;
  BatchedEngine engine(registry_of(tiny_session()), opts);
  ASSERT_TRUE(engine.submit({.prompt = {1, 2, 3},
                             .new_tokens = 4}).has_value());
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.generated, 4);
}

TEST(AnalysisStrict, SubmitTimeThrowCaughtStatically) {
  // submit() throws on these shapes only at serving time; the analyzer
  // flags the same workload before any engine exists.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, 2, 2);
  BatchedEngine engine(reg, {.total_kv_slots = 2});
  EXPECT_THROW((void)engine.submit({.model = 0,
                                    .prompt = {1, 2, 3, 4, 5, 6, 7, 8},
                                    .new_tokens = 1}), Error);

  Workload wl;
  wl.requests.push_back({.model = 0, .prompt_tokens = 8, .new_tokens = 1});
  const auto rep = analyze(reg, {.total_kv_slots = 2}, &wl);
  EXPECT_TRUE(rep.has(analysis::kRequestShape)) << rep.to_text();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisStrict, PagedCleanConfigConstructsAndServes) {
  // The paged fit checks must mirror the engine's page-granular
  // derivations: a sound paged deployment (cap counts pages, not whole
  // sets) must pass strict construction — the slot-shaped formula would
  // false-positive here because a 6-page cap is only one context's KV.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", /*prefill_chunk_tokens=*/2,
                /*kv_quota=*/6, /*max_resident=*/6);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 6;  // six 4-token pages == one 24-token context
  opts.strict = true;
  opts.kv_page_tokens = 4;
  opts.prefix_sharing = true;
  BatchedEngine engine(reg, opts);
  ASSERT_TRUE(engine.submit({.model = 0, .prompt = {1, 2, 3},
                             .new_tokens = 4}).has_value());
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.generated, 4);
}

TEST(AnalysisStrict, NegativePageTokensRefusedWithCode) {
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, /*kv_quota=*/2,
                /*max_resident=*/2);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 2;
  opts.kv_page_tokens = -4;
  EXPECT_THROW(BatchedEngine(reg, opts), Error);

  opts.strict = true;
  try {
    BatchedEngine engine(reg, opts);
    FAIL() << "strict construction accepted a negative page size";
  } catch (const AnalysisError& e) {
    EXPECT_TRUE(e.report().has(analysis::kPagedConfig)) << e.what();
    EXPECT_NE(std::string(e.what()).find("DMCU-PAGE-007"),
              std::string::npos);
  }
}

TEST(AnalysisStrict, PagedSubmitLivelockCaughtStatically) {
  // submit() refuses a sequence whose full KV exceeds the tenant's page
  // cap only at serving time; the analyzer flags the same workload
  // before any engine exists.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, /*kv_quota=*/4,
                /*max_resident=*/4);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 4;
  opts.kv_page_tokens = 4;
  BatchedEngine engine(reg, opts);
  EXPECT_THROW((void)engine.submit({.model = 0, .prompt = {1, 2, 3, 4, 5, 6},
                                    .new_tokens = 18}), Error);

  Workload wl;
  wl.requests.push_back({.model = 0, .prompt_tokens = 6, .new_tokens = 18});
  const auto rep = analyze(reg, opts, &wl);
  EXPECT_TRUE(rep.has(analysis::kPagedConfig)) << rep.to_text();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisStrict, StaticSplitCapsMaxResidentAtTheQuota) {
  // The static split never grants a tenant more than its quota, so a
  // max_resident above it must not raise the page cap: a 2-page
  // sequence under a 1-page quota can never be admitted. submit() and
  // the analyzer must both refuse it instead of leaving it queued
  // forever.
  ModelRegistry reg;
  (void)reg.add(tiny_session(), "tiny", 0, /*kv_quota=*/1,
                /*max_resident=*/2);
  BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 2;
  opts.kv_page_tokens = 4;
  BatchedEngine engine(reg, opts);
  EXPECT_EQ(engine.model_kv_cap(0), 1);
  EXPECT_FALSE(engine.fits_page_cap(0, 3, 6));
  EXPECT_THROW((void)engine.submit({.model = 0, .prompt = {1, 2, 3},
                                    .new_tokens = 6}), Error);

  Workload wl;
  wl.requests.push_back({.model = 0, .prompt_tokens = 3, .new_tokens = 6});
  const auto rep = analyze(reg, opts, &wl);
  expect_exactly(rep, analysis::kPagedConfig);
  EXPECT_EQ(rep.diagnostics.front().entity, "workload request #0");
}

// ---------------------------------------------------------------------
// Randomized analyzer/engine equivalence cross-check.
// ---------------------------------------------------------------------

struct PoolEntry {
  const InferenceSession* session;
  int prompt_len;
  int ar_context;
};

const std::vector<PoolEntry>& session_pool() {
  static const auto* pool = [] {
    auto* v = new std::vector<PoolEntry>();
    static const InferenceSession tiny12(tiny_cfg(12, 4), 2);
    static const InferenceSession tiny48(tiny_cfg(48, 8), 4);
    v->push_back({&tiny_session(), 6, 24});
    v->push_back({&tiny12, 4, 12});
    v->push_back({&tiny48, 8, 48});
    return v;
  }();
  return *pool;
}

TEST(ServingInvariantsAnalysis, CleanConfigsServeBadConfigsThrow) {
  const std::uint64_t seeds = invariant_seed_count(/*fallback=*/120);
  SeedReproLog repro("./test_analysis",
                     "ServingInvariantsAnalysis.CleanConfigsServeBadConfigsThrow");
  int clean_seen = 0;
  int error_seen = 0;
  int refused_seen = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    repro.begin();
    util::Rng rng(0x9e3779b97f4a7c15ULL ^ seed);
    const int n_tenants = 1 + static_cast<int>(rng.next_below(3));
    ModelRegistry reg;
    std::vector<PoolEntry> picked;
    for (int t = 0; t < n_tenants; ++t) {
      const auto& entry =
          session_pool()[rng.next_below(session_pool().size())];
      picked.push_back(entry);
      (void)reg.add(*entry.session, "t" + std::to_string(t),
                    /*prefill_chunk_tokens=*/
                    static_cast<int>(rng.next_below(5)),
                    /*kv_quota=*/static_cast<int>(rng.next_below(5)),
                    /*max_resident=*/static_cast<int>(rng.next_below(5)));
    }
    BatchedEngine::MultiOptions opts;
    // Mostly small arenas; occasionally huge, so the pooled-KV L2
    // overflow branch (DMCU-MEM-001) is exercised too.
    opts.total_kv_slots = rng.next_below(8) == 0
                              ? 4096
                              : 1 + static_cast<int>(rng.next_below(8));
    opts.max_pending = 32;
    switch (rng.next_below(3)) {
      case 0:
        break;  // static split (default)
      case 1:
        opts.kv_budget =
            runtime::make_kv_budget(runtime::KvBudget::proportional);
        break;
      default:
        opts.kv_budget =
            runtime::make_kv_budget(runtime::KvBudget::watermark);
        break;
    }
    // Whole-context pages a third of the time, otherwise 1..16 tokens
    // (past some contexts, so the clamp to ar_context is drawn too).
    opts.kv_page_tokens =
        rng.next_below(3) == 0 ? 0 : 1 + static_cast<int>(rng.next_below(16));
    opts.prefix_sharing = rng.next_below(2) == 0;

    // The requests the engine will be offered, analyzed as the workload.
    struct Job {
      runtime::ModelId model;
      std::vector<int> prompt;
      int new_tokens;
    };
    std::vector<Job> jobs;
    Workload wl;
    const int n_jobs = 3 + static_cast<int>(rng.next_below(4));
    for (int j = 0; j < n_jobs; ++j) {
      const auto model = static_cast<runtime::ModelId>(
          rng.next_below(static_cast<std::uint64_t>(n_tenants)));
      const auto& entry = picked[static_cast<std::size_t>(model)];
      const int prompt_len = 1 + static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(entry.prompt_len)));
      std::vector<int> prompt;
      for (int p = 0; p < prompt_len; ++p) {
        prompt.push_back(static_cast<int>(rng.next_below(100)));
      }
      const int max_new = entry.ar_context - prompt_len;
      const int new_tokens = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(max_new) + 1));
      wl.requests.push_back(
          {.model = model, .prompt_tokens = prompt_len, .new_tokens = new_tokens});
      jobs.push_back({model, std::move(prompt), new_tokens});
    }

    const AnalysisReport rep = DeploymentAnalyzer::analyze(reg, opts, &wl);
    // KV-002 warnings alone are sound; per-request PAGE-007 errors are
    // checked against submit() below.
    const bool unsound = std::any_of(
        rep.diagnostics.begin(), rep.diagnostics.end(), [](const auto& d) {
          return d.severity == analysis::Severity::error &&
                 (d.code == analysis::kCfgMalformed ||
                  d.code == analysis::kKvBudget ||
                  d.code == analysis::kMemOverflow);
        });

    if (!unsound) {
      ++clean_seen;
      // Analyzer-clean must construct and drain with conservation, and
      // flag exactly the requests submit() refuses at the page cap.
      BatchedEngine engine(reg, opts);
      int accepted = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job& job = jobs[j];
        const bool fits = engine.fits_page_cap(
            job.model, static_cast<int>(job.prompt.size()), job.new_tokens);
        const bool flagged = std::any_of(
            rep.diagnostics.begin(), rep.diagnostics.end(),
            [&](const auto& d) {
              return d.code == analysis::kPagedConfig &&
                     d.entity == "workload request #" + std::to_string(j);
            });
        EXPECT_EQ(flagged, !fits)
            << "seed " << seed << " request " << j << ":\n"
            << rep.to_text();
        if (!fits) {
          ++refused_seen;
          EXPECT_THROW((void)engine.submit({.model = job.model,
                                            .prompt = job.prompt,
                                            .new_tokens = job.new_tokens}),
                       Error)
              << "seed " << seed << " request " << j;
          continue;
        }
        if (engine.submit({.model = job.model, .prompt = job.prompt,
                           .new_tokens = job.new_tokens})) ++accepted;
      }
      const auto results = engine.run_to_completion();
      EXPECT_EQ(static_cast<int>(results.size()), accepted)
          << "seed " << seed << ": accepted requests did not all complete";
      EXPECT_EQ(engine.stats().completed, accepted) << "seed " << seed;
      EXPECT_EQ(engine.kv_pages().in_use(), engine.prefix_cache_pages())
          << "seed " << seed << ": KV pages leaked";
      int generated = 0;
      for (const auto& r : results) generated += r.gen.generated;
      EXPECT_EQ(engine.stats().total_generated, generated)
          << "seed " << seed;
    } else {
      ++error_seen;
      // Analyzer-unsound (CFG/KV/MEM error) must fail construction.
      EXPECT_THROW(BatchedEngine(reg, opts), Error)
          << "seed " << seed
          << ": engine accepted a config the analyzer rejects:\n"
          << rep.to_text();
    }
    repro.end(seed);
  }
  // The generator must exercise every branch, or the property is vacuous.
  EXPECT_GT(clean_seen, 0);
  EXPECT_GT(error_seen, 0);
  EXPECT_GT(refused_seen, 0);
}

}  // namespace
