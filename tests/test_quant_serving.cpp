// Quantized serving-path invariants: precision as a per-deployment
// property, end to end. The randomized ServingInvariantsQuant sweeps
// ride the nightly high-seed job (DISTMCU_INVARIANT_SEEDS) and pin the
// tentpole property — an int8 tenant's token streams, served through
// BatchedEngine with real batching and chunked prefill, are
// bit-identical under any chip count and reduction tree shape, because
// the cross-chip reductions carry exact int32 partials. The
// deterministic suites cover the packed-KV capacity arithmetic, exact
// mixed-precision attribution, the DeploymentSpec registration surface
// (validation, session ownership outliving the registry), the unified
// submit(Request) surface with its legacy forwarding overloads, and
// that an int8 session outlives the spec it was built from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "invariant_env.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/precision.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using distmcu::testing::invariant_seed_count;
using distmcu::testing::registry_of;
using distmcu::testing::SeedReproLog;
using runtime::BatchedEngine;
using runtime::DeploymentSpec;
using runtime::InferenceSession;
using runtime::KvLayout;
using runtime::ModelRegistry;
using runtime::Precision;

namespace {

/// Full-width heads on a cut decoder: small enough for per-seed
/// numerics, wide enough that 1/2/4-chip shardings all differ.
model::TransformerConfig quant_cfg(int ar_context, int prompt_len) {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 256;
  cfg.ar_context = ar_context;
  cfg.prompt_len = prompt_len;
  cfg.validate();
  return cfg;
}

/// Cut bidirectional encoder (LayerNorm, no RoPE) for the
/// mixed-precision tenant.
model::TransformerConfig bert_cfg() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.num_layers = 1;
  cfg.ar_context = 32;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

DeploymentSpec int8_spec(int chips, bool flat_topology,
                         KvLayout layout = KvLayout::int8) {
  DeploymentSpec spec;
  spec.model = quant_cfg(/*ar_context=*/32, /*prompt_len=*/8);
  spec.chips = chips;
  spec.precision = Precision::int8;
  spec.kv_layout = layout;
  spec.prefill_chunk_tokens = 4;
  spec.system.flat_topology = flat_topology;
  return spec;
}

struct Job {
  std::vector<int> prompt;
  int new_tokens = 0;
};

std::vector<Job> random_jobs(util::Rng& rng, int vocab) {
  std::vector<Job> jobs(2 + static_cast<std::size_t>(rng.next_below(3)));
  for (auto& j : jobs) {
    j.prompt.resize(2 + static_cast<std::size_t>(rng.next_below(6)));
    for (auto& t : j.prompt) {
      t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vocab)));
    }
    j.new_tokens = 1 + static_cast<int>(rng.next_below(8));
  }
  return jobs;
}

/// Serve `jobs` on one prebuilt session and return the token streams in
/// submit order.
std::vector<std::vector<int>> serve(const InferenceSession& session,
                                    const std::vector<Job>& jobs) {
  BatchedEngine engine(registry_of(session), {.total_kv_slots = 2});
  std::vector<runtime::RequestId> ids;
  for (const auto& j : jobs) {
    auto id = engine.submit({.prompt = j.prompt, .new_tokens = j.new_tokens});
    EXPECT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  const auto results = engine.run_to_completion();
  EXPECT_EQ(results.size(), jobs.size());
  std::vector<std::vector<int>> streams(jobs.size());
  for (const auto& r : results) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (r.id == ids[i]) streams[i] = r.gen.tokens;
    }
  }
  return streams;
}

}  // namespace

TEST(ServingInvariantsQuant, RandomizedInt8StreamsChipAndTreeInvariant) {
  // One int8 model re-sharded three ways: 2 chips, 4 chips, and 4 chips
  // on a flat reduce tree. Randomized batched workloads must produce
  // bit-identical token streams on all three — through the real serving
  // path (admission, chunked prefill, batch interleaving), not just a
  // bare block forward.
  const InferenceSession two(int8_spec(2, /*flat_topology=*/false));
  const InferenceSession four(int8_spec(4, /*flat_topology=*/false));
  const InferenceSession four_flat(int8_spec(4, /*flat_topology=*/true));
  const int vocab = two.config().vocab_size;

  SeedReproLog repro(
      "./test_quant_serving",
      "ServingInvariantsQuant.RandomizedInt8StreamsChipAndTreeInvariant");
  const std::uint64_t seeds = invariant_seed_count(12);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    repro.begin();
    util::Rng rng(seed);
    const auto jobs = random_jobs(rng, vocab);
    const auto s2 = serve(two, jobs);
    const auto s4 = serve(four, jobs);
    const auto s4f = serve(four_flat, jobs);
    EXPECT_EQ(s2, s4) << "seed " << seed
                      << ": int8 streams changed with the chip count";
    EXPECT_EQ(s4, s4f) << "seed " << seed
                       << ": int8 streams changed with the tree shape";
    // And the served streams match the dedicated single-request path.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(s2[i],
                two.generate(jobs[i].prompt, jobs[i].new_tokens).tokens)
          << "seed " << seed << " job " << i;
    }
    repro.end(seed);
  }
}

TEST(ServingInvariantsQuant, PackedKvLayoutsMultiplyCapacityAtEqualPoolBytes) {
  // The same KV pool bytes hold 1 fp16 set, 2 int8 sets, or 4 int4
  // sets; the engine must admit exactly that many concurrent requests.
  struct Case {
    Precision p;
    KvLayout l;
    int slots;
  };
  const std::vector<Case> cases = {{Precision::fp16, KvLayout::fp16, 1},
                                   {Precision::int8, KvLayout::int8, 2},
                                   {Precision::int8, KvLayout::int4, 4}};
  std::vector<Bytes> pools;
  for (const auto& c : cases) {
    DeploymentSpec spec = int8_spec(2, /*flat_topology=*/false, c.l);
    spec.precision = c.p;
    const InferenceSession solo(spec);
    ModelRegistry reg;
    const auto m = reg.add(spec);
    BatchedEngine engine(reg, {.total_kv_slots = c.slots});
    EXPECT_EQ(engine.model_kv_elem_bits(m),
              runtime::kv_layout_bits(c.l, /*native_bits=*/8));
    pools.push_back(engine.kv_pages().pool_bytes());

    std::vector<runtime::RequestId> ids;
    for (int i = 0; i < 5; ++i) {
      auto id = engine.submit(
          {.model = m, .prompt = {3, 1 + i, 7}, .new_tokens = 3 + i % 2});
      ASSERT_TRUE(id.has_value());
      ids.push_back(*id);
    }
    const auto results = engine.run_to_completion();
    ASSERT_EQ(results.size(), ids.size());
    EXPECT_EQ(engine.stats().peak_batch, c.slots)
        << "layout " << runtime::kv_layout_name(c.l);
    EXPECT_EQ(engine.kv_pages().in_use(), 0);
    for (const auto& r : results) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (r.id != ids[i]) continue;
        const int ii = static_cast<int>(i);
        EXPECT_EQ(r.gen.tokens,
                  solo.generate({3, 1 + ii, 7}, 3 + ii % 2).tokens)
            << "layout " << runtime::kv_layout_name(c.l) << " job " << i;
      }
    }
  }
  EXPECT_EQ(pools[0], pools[1]);
  EXPECT_EQ(pools[1], pools[2]);
}

TEST(ServingInvariantsQuant, MixedPrecisionTenantsConserveExactly) {
  // fp16 decoder + int8 encoder in one registry and one arena: the
  // per-model stats must partition the engine totals exactly.
  DeploymentSpec llama;
  llama.model = quant_cfg(/*ar_context=*/32, /*prompt_len=*/8);
  llama.chips = 2;
  llama.kv_layout = KvLayout::fp16;
  DeploymentSpec bert;
  bert.model = bert_cfg();
  bert.chips = 2;
  bert.precision = Precision::int8;
  bert.kv_layout = KvLayout::int8;

  const InferenceSession llama_solo(llama);
  const InferenceSession bert_solo(bert);
  ModelRegistry reg;
  const auto lm = reg.add(llama);
  const auto bm = reg.add(bert);
  BatchedEngine engine(reg, {.total_kv_slots = 2});
  EXPECT_EQ(engine.model_precision(lm), Precision::fp16);
  EXPECT_EQ(engine.model_precision(bm), Precision::int8);

  std::vector<std::pair<runtime::RequestId, std::vector<int>>> expected;
  for (int i = 0; i < 3; ++i) {
    const std::vector<int> p = {5 + i, 9, 2};
    auto lid = engine.submit({.model = lm, .prompt = p, .new_tokens = 4});
    ASSERT_TRUE(lid.has_value());
    expected.emplace_back(*lid, llama_solo.generate(p, 4).tokens);
    auto bid = engine.submit({.model = bm, .prompt = p, .new_tokens = 0});
    ASSERT_TRUE(bid.has_value());
    expected.emplace_back(*bid, bert_solo.generate(p, 0).tokens);
  }
  const auto results = engine.run_to_completion();
  ASSERT_EQ(results.size(), expected.size());
  for (const auto& [id, toks] : expected) {
    for (const auto& r : results) {
      if (r.id == id) {
        EXPECT_EQ(r.gen.tokens, toks);
      }
    }
  }

  const auto stats = engine.stats();
  int generated = 0;
  int completed = 0;
  Cycles cycles = 0;
  double energy = 0.0;
  for (const auto& pm : stats.per_model) {
    generated += pm.total_generated;
    completed += pm.completed;
    cycles += pm.attributed_cycles;
    energy += pm.attributed_energy_mj;
  }
  EXPECT_EQ(generated, stats.total_generated);
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(cycles, stats.total_cycles);
  EXPECT_NEAR(energy, stats.total_energy_mj,
              1e-9 * std::fabs(stats.total_energy_mj));
  EXPECT_EQ(engine.kv_pages().in_use(), 0);
}

TEST(DeploymentSpecQuant, ValidateRejectsIncoherentCombinations) {
  // Packed-integer KV under float arithmetic: no quantizer runs.
  DeploymentSpec fp_int_kv;
  fp_int_kv.model = quant_cfg(32, 8);
  fp_int_kv.chips = 2;
  fp_int_kv.kv_layout = KvLayout::int8;
  EXPECT_THROW(fp_int_kv.validate(), Error);
  // The A8W8 block only supports plain-MLP FFNs.
  DeploymentSpec swiglu;
  swiglu.model = quant_cfg(32, 8);
  swiglu.model.ffn = model::FfnKind::swiglu;
  swiglu.chips = 2;
  swiglu.precision = Precision::int8;
  EXPECT_THROW(swiglu.validate(), Error);
  // The registry runs the same validation at registration.
  ModelRegistry reg;
  EXPECT_THROW((void)reg.add(fp_int_kv), Error);
  // A coherent spec passes and the session reflects it.
  const InferenceSession ok(int8_spec(2, false));
  EXPECT_EQ(ok.precision(), Precision::int8);
  EXPECT_EQ(ok.kv_layout(), KvLayout::int8);
}

TEST(DeploymentSpecQuant, RegistryOwnedSessionOutlivesRegistry) {
  // ModelRegistry::add(DeploymentSpec) builds the session; the engine
  // shares ownership, so a temporary registry — the common idiom — must
  // not leave the engine with dangling tenants.
  const DeploymentSpec spec = int8_spec(2, /*flat_topology=*/false);
  const InferenceSession solo(spec);
  std::unique_ptr<BatchedEngine> engine;
  runtime::ModelId m = 0;
  {
    ModelRegistry reg;
    m = reg.add(spec);
    engine = std::make_unique<BatchedEngine>(
        reg, BatchedEngine::MultiOptions{.total_kv_slots = 2});
  }  // registry (and its deployments) destroyed here
  auto id = engine->submit({.model = m, .prompt = {4, 8, 15}, .new_tokens = 5});
  ASSERT_TRUE(id.has_value());
  const auto results = engine->run_to_completion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, solo.generate({4, 8, 15}, 5).tokens);
}

TEST(QuantFfnOwnershipQuant, ValueSemanticsSurviveTheSourceObjects) {
  // An int8 InferenceSession owns its config, plan, shards, int8 weight
  // set and topology: a session built from a temporary spec (the
  // natural style) must work after every constructor argument is gone.
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 64;
  cfg.ffn_dim = 128;
  cfg.num_heads = 8;
  cfg.head_dim = 8;
  cfg.num_layers = 1;
  cfg.prompt_len = 4;
  cfg.act = model::Activation::relu;
  cfg.validate();
  const auto spec = [&] {
    runtime::DeploymentSpec s;
    s.model = cfg;
    s.chips = 2;
    s.precision = runtime::Precision::int8;
    s.kv_layout = runtime::KvLayout::int8;
    s.system.flat_topology = true;
    s.seed = 21;
    return s;
  };

  util::Rng rng(17);
  model::Tensor x(cfg.prompt_len, cfg.embed_dim);
  x.random_init(rng, 1.0f);

  std::optional<runtime::InferenceSession> session;
  session.emplace(spec());  // the spec temporary is destroyed here
  const model::Tensor y = session->forward(x, 0, nullptr, 0);

  const runtime::InferenceSession fresh(spec());
  EXPECT_EQ(model::Tensor::max_abs_diff(y, fresh.forward(x, 0, nullptr, 0)), 0.0f);
}
