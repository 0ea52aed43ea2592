// Randomized fleet-routing invariant suite: seeded heterogeneous fleets
// (node counts, chip counts, KV page configs, link models) serving
// seeded workloads under every built-in RoutingPolicy, asserting the
// request-conservation invariants of fleet::Router —
//   * offered == placed + rejected, with the rejection reasons
//     partitioning the rejects,
//   * routed == placed + misrouted across dispatch attempts,
//   * per node, attempts == placed + link_rejected + engine rejections,
//     and the per-node attempts sum exactly to the routed count,
//   * after a drain, placed == completed + shed and every completion's
//     fleet timeline (submit -> node finish -> response landing) is
//     consistent with the global clock,
// plus the functional property that routing decides placement, never
// content: every routed stream is bit-exact with a dedicated
// single-request engine on the same deployment. Deterministic
// single-node cases pin the link-infeasibility path (the engine never
// sees a request whose deadline the link alone exhausts) and the
// null hypothesis that a 1-node fleet over an ideal link serves
// exactly like the bare engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/router.hpp"
#include "fleet/routing_policy.hpp"
#include "invariant_env.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace distmcu;
using fleet::FleetRequestId;
using fleet::FleetResult;
using fleet::FleetStats;
using fleet::LinkModel;
using fleet::RoutePolicy;
using fleet::Router;
using runtime::BatchedEngine;
using runtime::InferenceSession;
using runtime::ModelRegistry;
using runtime::SloSpec;

namespace {

using distmcu::testing::invariant_seed_count;
using distmcu::testing::SeedReproLog;

constexpr int kPromptLen = 8;

model::TransformerConfig decoder_cfg() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama";
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 32;
  cfg.prompt_len = kPromptLen;
  cfg.validate();
  return cfg;
}

model::TransformerConfig encoder_cfg() {
  auto cfg = decoder_cfg();
  cfg.name = "tinybert";
  cfg.ffn_dim = 96;
  cfg.ar_context = kPromptLen;
  cfg.mask = model::MaskKind::bidirectional;
  cfg.validate();
  return cfg;
}

/// Sessions are expensive (weights + plan + sharding) and shareable
/// across engines, so the suite builds each partition variant once.
const InferenceSession& llama_session(int chips) {
  static const InferenceSession four(decoder_cfg(), 4);
  static const InferenceSession two(decoder_cfg(), 2);
  return chips == 4 ? four : two;
}

const InferenceSession& bert_session() {
  static const InferenceSession s(encoder_cfg(), 4);
  return s;
}

struct NodeSpec {
  int chips = 4;
  bool has_bert = false;
  int page_tokens = 4;
  int kv_pages = 16;
  LinkModel link;
};

struct Job {
  std::string model;
  std::vector<int> prompt;
  int new_tokens = 0;
  Cycles at = 0;
  SloSpec slo;
  std::optional<FleetRequestId> id;
};

struct Scenario {
  std::vector<NodeSpec> nodes;
  std::vector<Job> jobs;
  bool any_bert = false;
};

Scenario make_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  Scenario sc;
  const int n_nodes = 2 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n_nodes; ++i) {
    NodeSpec n;
    n.chips = rng.next_below(2) == 0 ? 4 : 2;
    n.has_bert = n.chips == 4 && rng.next_below(2) == 0;
    n.page_tokens = 2 << rng.next_below(3);  // 2, 4, 8
    n.kv_pages = 8 + static_cast<int>(rng.next_below(5)) * 8;
    n.link.latency_cycles = rng.next_below(20'000);
    n.link.cycles_per_byte = rng.next_double() * 2.0;
    sc.nodes.push_back(n);
    sc.any_bert = sc.any_bert || n.has_bert;
  }
  const auto& cfg = llama_session(4).config();
  const int n_jobs = 8 + static_cast<int>(rng.next_below(17));
  Cycles t = 0;
  for (int j = 0; j < n_jobs; ++j) {
    Job job;
    t += rng.next_below(400'000);
    job.at = t;
    const bool bert = rng.next_below(4) == 0;
    job.model = bert ? "tinybert" : "tinyllama";
    const int plen = 1 + static_cast<int>(rng.next_below(kPromptLen));
    for (int k = 0; k < plen; ++k) {
      job.prompt.push_back(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size))));
    }
    job.new_tokens =
        bert ? 0 : 1 + static_cast<int>(rng.next_below(5));
    job.slo.priority = static_cast<int>(rng.next_below(3));
    if (rng.next_below(3) != 0) {
      job.slo.deadline_cycles = (1 + rng.next_below(64)) * 1'000'000;
    }
    sc.jobs.push_back(std::move(job));
  }
  return sc;
}

/// A fresh fleet for one scenario: registries, engines, router. Engines
/// are borrowed by the router, so the bundle owns them together.
struct Fleet {
  std::vector<ModelRegistry> regs;
  std::vector<std::unique_ptr<BatchedEngine>> engines;
  std::unique_ptr<Router> router;
};

Fleet make_fleet(const Scenario& sc, RoutePolicy which) {
  Fleet f;
  f.regs.resize(sc.nodes.size());
  f.router = std::make_unique<Router>(fleet::make_routing_policy(which));
  for (std::size_t i = 0; i < sc.nodes.size(); ++i) {
    const NodeSpec& n = sc.nodes[i];
    (void)f.regs[i].add(llama_session(n.chips), "tinyllama",
                        /*prefill_chunk_tokens=*/4,
                        /*kv_quota=*/n.has_bert ? n.kv_pages * 3 / 4
                                                : n.kv_pages);
    if (n.has_bert) {
      (void)f.regs[i].add(bert_session(), "tinybert",
                          /*prefill_chunk_tokens=*/4,
                          /*kv_quota=*/n.kv_pages / 4);
    }
    f.engines.push_back(std::make_unique<BatchedEngine>(
        f.regs[i],
        BatchedEngine::MultiOptions{.total_kv_slots = n.kv_pages,
                                    .max_pending = 8,
                                    .kv_page_tokens = n.page_tokens,
                                    .prefix_sharing = (i % 2) == 0},
        nullptr));
    (void)f.router->add_node(*f.engines.back(), n.link);
  }
  return f;
}

void run_jobs(Scenario& sc, Router& router) {
  for (auto& job : sc.jobs) {
    job.id = router.submit(job.model, job.prompt, job.new_tokens, job.slo,
                           job.at);
  }
  (void)router.run_to_completion();
}

void check_conservation(const Scenario& sc, const Router& router,
                        std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const FleetStats s = router.stats();
  const auto& finished = router.finished();

  int placed = 0;
  for (const auto& job : sc.jobs) placed += job.id.has_value() ? 1 : 0;
  EXPECT_EQ(s.offered, static_cast<int>(sc.jobs.size()));
  EXPECT_EQ(s.placed, placed);
  EXPECT_EQ(s.offered, s.placed + s.rejected);
  EXPECT_EQ(s.rejected, s.rejected_no_model + s.rejected_all_nodes);
  EXPECT_EQ(s.routed, static_cast<std::uint64_t>(s.placed) + s.misrouted);
  EXPECT_EQ(s.placed, s.completed + s.shed);
  EXPECT_EQ(static_cast<int>(finished.size()), s.completed);

  // Per-node books: every dispatch is placed, link-refused, or
  // engine-refused, and the per-node sums reproduce the fleet counters.
  std::uint64_t attempts = 0;
  int node_placed = 0;
  int node_completed = 0;
  for (const auto& pn : s.per_node) {
    attempts += pn.attempts;
    node_placed += pn.placed;
    node_completed += pn.completed;
    EXPECT_EQ(pn.attempts,
              static_cast<std::uint64_t>(pn.placed) +
                  static_cast<std::uint64_t>(pn.link_rejected) +
                  static_cast<std::uint64_t>(pn.serving.rejected));
  }
  EXPECT_EQ(attempts, s.routed);
  EXPECT_EQ(node_placed, s.placed);
  EXPECT_EQ(node_completed, s.completed);

  // Fleet timeline: results land after their submit, the makespan is
  // the last landing, and the SLO books match the per-result verdicts.
  int misses = 0;
  int slo_requests = 0;
  Cycles last = 0;
  for (const FleetResult& f : finished) {
    EXPECT_GE(f.finished_at, f.submitted_at);
    last = std::max(last, f.finished_at);
    if (f.deadline_at != runtime::kNoDeadline) {
      ++slo_requests;
      misses += f.missed_deadline() ? 1 : 0;
    }
  }
  EXPECT_EQ(s.makespan, last);
  EXPECT_EQ(s.slo_requests, slo_requests);
  EXPECT_EQ(s.deadline_misses, misses);

  // Models nobody deploys can only be rejected for that reason.
  if (!sc.any_bert) {
    int bert_jobs = 0;
    for (const auto& job : sc.jobs) {
      bert_jobs += job.model == "tinybert" ? 1 : 0;
    }
    EXPECT_EQ(s.rejected_no_model, bert_jobs);
  }
}

}  // namespace

TEST(FleetServingInvariants, RandomizedFleetsConserveEveryRequest) {
  // Seeded heterogeneous fleets under all four routing policies (the
  // nightly job raises the seed count via DISTMCU_INVARIANT_SEEDS).
  const std::uint64_t kSeeds = invariant_seed_count(30);
  SeedReproLog repro("./test_fleet",
                     "FleetServingInvariants.RandomizedFleetsConserveEveryRequest");
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const auto which :
         {RoutePolicy::round_robin, RoutePolicy::join_shortest_queue,
          RoutePolicy::cost_aware, RoutePolicy::prefix_affinity}) {
      Scenario sc = make_scenario(seed);
      Fleet f = make_fleet(sc, which);
      run_jobs(sc, *f.router);
      SCOPED_TRACE(std::string("policy ") + fleet::route_policy_name(which));
      check_conservation(sc, *f.router, seed);
    }
    repro.end(seed);
  }
}

TEST(FleetServingInvariants, RoutedStreamsBitExactWithDedicatedEngine) {
  // Routing decides placement, never content: every completion's token
  // stream equals a dedicated generate() on the session its node runs.
  for (std::uint64_t seed = 500; seed < 512; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const auto which :
         {RoutePolicy::round_robin, RoutePolicy::prefix_affinity}) {
      Scenario sc = make_scenario(seed);
      Fleet f = make_fleet(sc, which);
      run_jobs(sc, *f.router);
      std::map<FleetRequestId, const Job*> by_id;
      for (const auto& job : sc.jobs) {
        if (job.id.has_value()) by_id[*job.id] = &job;
      }
      for (const FleetResult& r : f.router->finished()) {
        ASSERT_EQ(by_id.count(r.id), 1u);
        const Job& job = *by_id[r.id];
        const NodeSpec& n = sc.nodes[static_cast<std::size_t>(r.node)];
        const auto& session = job.model == "tinybert"
                                  ? bert_session()
                                  : llama_session(n.chips);
        EXPECT_EQ(r.result.gen.tokens,
                  session.generate(job.prompt, job.new_tokens).tokens)
            << "policy " << fleet::route_policy_name(which);
      }
    }
  }
}

TEST(FleetServingInvariants, FleetsAreDeterministic) {
  // Same seed, same policy -> identical placement, stamps, and streams.
  for (const std::uint64_t seed : {7u, 42u, 93u}) {
    Scenario sa = make_scenario(seed);
    Scenario sb = make_scenario(seed);
    Fleet fa = make_fleet(sa, RoutePolicy::cost_aware);
    Fleet fb = make_fleet(sb, RoutePolicy::cost_aware);
    run_jobs(sa, *fa.router);
    run_jobs(sb, *fb.router);
    const auto& ra = fa.router->finished();
    const auto& rb = fb.router->finished();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].node, rb[i].node);
      EXPECT_EQ(ra[i].finished_at, rb[i].finished_at);
      EXPECT_EQ(ra[i].result.gen.tokens, rb[i].result.gen.tokens);
    }
    const FleetStats a = fa.router->stats();
    const FleetStats b = fb.router->stats();
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.transfer_bytes, b.transfer_bytes);
    EXPECT_EQ(a.makespan, b.makespan);
  }
}

TEST(FleetServingInvariants, LinkInfeasibleDeadlineNeverReachesTheEngine) {
  // A deadline the link round trip alone exhausts is refused at the
  // router (link_rejected), not forwarded: the engine's own books stay
  // untouched and the reject is attributed to the all-nodes bucket.
  ModelRegistry reg;
  (void)reg.add(llama_session(4), "tinyllama", /*prefill_chunk_tokens=*/0,
                /*kv_quota=*/8);
  BatchedEngine engine(
      reg, BatchedEngine::MultiOptions{.total_kv_slots = 8, .max_pending = 4},
      nullptr);
  Router router(fleet::make_routing_policy(RoutePolicy::round_robin));
  (void)router.add_node(engine, LinkModel{.latency_cycles = 1'000'000});

  const auto id = router.submit("tinyllama", {1, 2, 3}, 2,
                                {.priority = 0, .deadline_cycles = 100'000},
                                /*at=*/0);
  EXPECT_FALSE(id.has_value());
  const FleetStats s = router.stats();
  EXPECT_EQ(s.offered, 1);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.rejected_all_nodes, 1);
  EXPECT_EQ(s.rejected_no_model, 0);
  EXPECT_EQ(s.per_node[0].link_rejected, 1);
  EXPECT_EQ(s.per_node[0].serving.rejected, 0);
  EXPECT_EQ(engine.pending_requests(), 0);
  EXPECT_EQ(engine.active_requests(), 0);

  // A generous deadline on the same link is placed and completes.
  const auto ok = router.submit("tinyllama", {1, 2, 3}, 2,
                                {.priority = 0, .deadline_cycles = 50'000'000},
                                /*at=*/0);
  ASSERT_TRUE(ok.has_value());
  (void)router.run_to_completion();
  EXPECT_EQ(router.stats().completed, 1);
}

TEST(FleetServingInvariants, UnknownModelRejectsWithoutDispatch) {
  ModelRegistry reg;
  (void)reg.add(llama_session(4), "tinyllama", 0, 8);
  BatchedEngine engine(
      reg, BatchedEngine::MultiOptions{.total_kv_slots = 8, .max_pending = 4},
      nullptr);
  Router router;
  (void)router.add_node(engine, LinkModel{});
  EXPECT_FALSE(router.submit("gpt5", {1}, 1, {}, 0).has_value());
  const FleetStats s = router.stats();
  EXPECT_EQ(s.rejected_no_model, 1);
  EXPECT_EQ(s.routed, 0u);
  EXPECT_EQ(s.per_node[0].attempts, 0u);
}

TEST(FleetServingInvariants, SingleNodeIdealLinkMatchesBareEngine) {
  // Null hypothesis: a 1-node fleet over an ideal link (zero latency,
  // zero per-byte cost) serves exactly like the engine driven directly —
  // same streams, same completion stamps, same deadline verdicts.
  Scenario sc = make_scenario(321);
  sc.nodes.resize(1);
  sc.nodes[0] = NodeSpec{.chips = 4, .has_bert = true, .page_tokens = 4,
                         .kv_pages = 32, .link = LinkModel{}};
  sc.any_bert = true;
  Fleet f = make_fleet(sc, RoutePolicy::round_robin);
  run_jobs(sc, *f.router);

  ModelRegistry reg;
  (void)reg.add(llama_session(4), "tinyllama", 4, 32 * 3 / 4);
  (void)reg.add(bert_session(), "tinybert", 4, 32 / 4);
  BatchedEngine solo(
      reg,
      BatchedEngine::MultiOptions{.total_kv_slots = 32,
                                  .max_pending = 8,
                                  .kv_page_tokens = 4,
                                  .prefix_sharing = true},
      nullptr);
  // Replay the identical workload on the bare engine, emulating the
  // router's timeline by hand: step to each arrival while the engine
  // has work, absorb idle gaps into an offset (the engine clock only
  // moves with work), and re-base each deadline onto the engine clock
  // exactly as the router's link-shrinking does (a no-op shrink here —
  // the link is ideal).
  Cycles offset = 0;
  for (const auto& job : sc.jobs) {
    while (util::sat_add(offset, solo.stats().total_cycles) < job.at) {
      if (solo.active_requests() + solo.pending_requests() == 0) {
        offset = job.at - solo.stats().total_cycles;
        break;
      }
      (void)solo.step();
    }
    const Cycles now = util::sat_add(offset, solo.stats().total_cycles);
    SloSpec node_slo{job.slo.priority, runtime::kNoDeadline};
    bool infeasible = false;
    if (job.slo.deadline_cycles != runtime::kNoDeadline) {
      const Cycles deadline_at = util::sat_add(job.at, job.slo.deadline_cycles);
      if (deadline_at <= now) {
        infeasible = true;
      } else {
        node_slo.deadline_cycles = deadline_at - now;
      }
    }
    if (!infeasible) {
      (void)solo.submit({.model = reg.find(job.model), .prompt = job.prompt,
                         .new_tokens = job.new_tokens, .slo = node_slo});
    }
  }
  (void)solo.run_to_completion();

  const FleetStats s = f.router->stats();
  // The ideal link still counts bytes, but charges no cycles for them.
  EXPECT_EQ(s.request_transfer_cycles, 0u);
  EXPECT_EQ(s.response_transfer_cycles, 0u);
  EXPECT_EQ(s.placed, solo.stats().completed + solo.stats().shed);
  EXPECT_EQ(s.completed, solo.stats().completed);
  ASSERT_EQ(f.router->finished().size(), solo.finished().size());
  for (std::size_t i = 0; i < solo.finished().size(); ++i) {
    EXPECT_EQ(f.router->finished()[i].result.gen.tokens,
              solo.finished()[i].gen.tokens);
  }
}
