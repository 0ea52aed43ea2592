// Cross-cutting property sweeps over the full pipeline: invariants that
// must hold for EVERY (model, mode, chip count) combination — breakdown
// accounting, traffic conservation, energy positivity, residency
// monotonicity, latency monotonicity, plan coverage — plus randomized
// configuration fuzzing of the planner.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "model/config.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "runtime/timed_simulation.hpp"
#include "sim/trace_export.hpp"
#include "util/check.hpp"
#include "sim/tracer.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using partition::PartitionPlan;
using partition::Residency;
using runtime::SystemConfig;
using runtime::TimedBlockSimulation;

namespace {

TransformerConfig config_by_name(const std::string& name) {
  if (name == "mobilebert") return TransformerConfig::mobile_bert();
  if (name == "scaled64") return TransformerConfig::tiny_llama_scaled(64);
  return TransformerConfig::tiny_llama_42m();
}

using FullSweepParam = std::tuple<std::string, int, int>;  // model, chips, mode

/// Deployable (model, chips) pairs in both modes: a chip needs at least
/// one head, so counts stop at the model's head count. The uneven counts
/// split heads unequally, which gives the timed simulation two distinct
/// per-chip op lists to price.
std::vector<FullSweepParam> full_sweep_params() {
  const std::pair<const char*, std::vector<int>> chip_counts[] = {
      {"tinyllama", {1, 2, 3, 4, 5, 7, 8}},
      {"mobilebert", {1, 2, 3, 4}},
      {"scaled64", {1, 2, 4, 8, 16, 24, 32, 40, 63, 64}},
  };
  std::vector<FullSweepParam> params;
  for (const auto& [name, counts] : chip_counts) {
    for (const int chips : counts) {
      for (const int mode : {0, 1}) params.emplace_back(name, chips, mode);
    }
  }
  return params;
}

std::string sweep_name(const ::testing::TestParamInfo<FullSweepParam>& info) {
  return std::get<0>(info.param) + "_c" + std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) == 0 ? "_ar" : "_prompt");
}

}  // namespace

class FullPipelineSweep : public ::testing::TestWithParam<FullSweepParam> {
 protected:
  void SetUp() override {
    cfg_ = config_by_name(std::get<0>(GetParam()));
    chips_ = std::get<1>(GetParam());
    mode_ = std::get<2>(GetParam()) == 0 ? Mode::autoregressive : Mode::prompt;
  }
  TransformerConfig cfg_;
  int chips_ = 1;
  Mode mode_ = Mode::autoregressive;
};

TEST_P(FullPipelineSweep, BreakdownSumsToLatency) {
  const auto rep = TimedBlockSimulation(SystemConfig::siracusa_system())
                       .run(PartitionPlan::create(cfg_, chips_), mode_);
  EXPECT_EQ(rep.breakdown.total(), rep.block_cycles);
}

TEST_P(FullPipelineSweep, TrafficConservation) {
  const auto plan = PartitionPlan::create(cfg_, chips_);
  const auto rep = TimedBlockSimulation(SystemConfig::siracusa_system())
                       .run(plan, mode_);
  // C2C traffic = 4 collective phases x (N-1) hops x payload.
  const Bytes payload = plan.sync_payload_elems(rep.mode == Mode::prompt
                                                    ? cfg_.prompt_len
                                                    : 1);
  EXPECT_EQ(rep.traffic.c2c, 4u * static_cast<Bytes>(chips_ - 1) * payload);
  // L3 traffic: streamed -> at least all weight bytes; double-buffered ->
  // exactly the prefetch; fully resident -> zero.
  const Bytes block_weights = cfg_.block_weight_elems() * 2;
  switch (rep.residency) {
    case Residency::streamed:
      EXPECT_GE(rep.traffic.l3_l2, block_weights);
      EXPECT_EQ(rep.prefetch_bytes, 0u);
      break;
    case Residency::double_buffered:
      EXPECT_EQ(rep.traffic.l3_l2, rep.prefetch_bytes);
      EXPECT_EQ(rep.prefetch_bytes, block_weights);
      break;
    case Residency::fully_resident:
      EXPECT_EQ(rep.traffic.l3_l2, 0u);
      break;
  }
  // Every weight byte of the block flows L2->L1 at least once.
  EXPECT_GE(rep.traffic.l2_l1, block_weights);
}

TEST_P(FullPipelineSweep, EnergyComponentsPositiveAndSumExactly) {
  const auto rep = TimedBlockSimulation(SystemConfig::siracusa_system())
                       .run(PartitionPlan::create(cfg_, chips_), mode_);
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  const auto e = em.compute(rep);
  EXPECT_GT(e.core, 0.0);
  EXPECT_GE(e.l3, 0.0);
  EXPECT_GT(e.l2, 0.0);
  EXPECT_GE(e.c2c, 0.0);
  EXPECT_DOUBLE_EQ(e.total(), e.core + e.l3 + e.l2 + e.c2c);
}

TEST_P(FullPipelineSweep, TCompBoundedByLatency) {
  const auto rep = TimedBlockSimulation(SystemConfig::siracusa_system())
                       .run(PartitionPlan::create(cfg_, chips_), mode_);
  for (const Cycles t : rep.t_comp) EXPECT_LE(t, rep.block_cycles);
}

TEST_P(FullPipelineSweep, TraceExportIsValidAndCoversMakespan) {
  sim::Tracer tracer;
  const auto rep = TimedBlockSimulation(SystemConfig::siracusa_system())
                       .run(PartitionPlan::create(cfg_, chips_), mode_, &tracer);
  EXPECT_GE(tracer.makespan(), rep.breakdown.compute);
  std::ostringstream os;
  sim::write_chrome_trace(tracer, 500e6, os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("chip 0"), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  long depth = 0;
  for (const char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FullPipelineSweep, ::testing::ValuesIn(full_sweep_params()), sweep_name);

// --- latency monotonicity across chip counts ------------------------------

class LatencyMonotone : public ::testing::TestWithParam<int> {};

TEST_P(LatencyMonotone, ScaledModelNeverSlowsDownWithMoreChips) {
  const int mode_i = GetParam();
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const TimedBlockSimulation sim(SystemConfig::siracusa_system());
  Cycles prev = ~0ull;
  for (int n : {1, 2, 4, 8, 16, 32}) {
    const auto rep = sim.run(PartitionPlan::create(cfg, n),
                             mode_i == 0 ? Mode::autoregressive : Mode::prompt);
    EXPECT_LT(rep.block_cycles, prev) << "n=" << n;
    prev = rep.block_cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, LatencyMonotone, ::testing::Values(0, 1));

// --- residency monotonicity ------------------------------------------------

TEST(ResidencyMonotone, NeverDowngradesWithMoreChips) {
  // More chips -> smaller shards -> the residency regime can only improve.
  const partition::MemoryPlanner planner(chip::ChipConfig::siracusa(),
                                         partition::PrecisionConfig{});
  for (const char* name : {"tinyllama", "mobilebert", "scaled64"}) {
    const auto cfg = config_by_name(name);
    int best = 0;  // 0 streamed, 1 db, 2 resident
    for (int n = 1; n <= cfg.num_heads; n *= 2) {
      const auto mp = planner.plan(PartitionPlan::create(cfg, n), Mode::autoregressive);
      const int level = static_cast<int>(mp.residency);
      EXPECT_GE(level, best) << name << " n=" << n;
      best = std::max(best, level);
    }
  }
}

// --- randomized configuration fuzzing --------------------------------------

TEST(PlannerFuzz, RandomConfigsAlwaysSatisfyInvariants) {
  util::Rng rng(20250610);
  const partition::MemoryPlanner planner(chip::ChipConfig::siracusa(),
                                         partition::PrecisionConfig{});
  int planned = 0;
  for (int trial = 0; trial < 200; ++trial) {
    TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
    cfg.name = "fuzz" + std::to_string(trial);
    cfg.num_heads = static_cast<int>(1 + rng.next_below(16));
    cfg.head_dim = static_cast<int>(2 + 2 * rng.next_below(32));
    cfg.embed_dim = static_cast<int>(16 * (1 + rng.next_below(32)));
    cfg.ffn_dim = static_cast<int>(16 * (1 + rng.next_below(128)));
    cfg.num_layers = static_cast<int>(1 + rng.next_below(12));
    cfg.ar_context = static_cast<int>(8 * (1 + rng.next_below(32)));
    cfg.prompt_len = static_cast<int>(1 + rng.next_below(64));
    cfg.ffn = rng.next_below(2) == 0 ? model::FfnKind::mlp : model::FfnKind::swiglu;
    cfg.validate();
    const int max_chips = std::min(cfg.num_heads, cfg.ffn_dim);
    const int chips = static_cast<int>(1 + rng.next_below(static_cast<std::uint64_t>(max_chips)));
    const auto plan = PartitionPlan::create(cfg, chips);  // validates internally

    // Shards tile the weights exactly.
    std::uint64_t sum = 0;
    for (int c = 0; c < chips; ++c) sum += plan.chip_block_weight_elems(c);
    ASSERT_EQ(sum, cfg.block_weight_elems()) << cfg.name;

    // The planner either decides a regime or reports a clean PlanError.
    try {
      const auto mp = planner.plan(plan, Mode::autoregressive);
      ASSERT_LE(mp.need_streamed(), mp.l2_usable) << cfg.name;
      if (mp.residency == Residency::fully_resident) {
        ASSERT_LE(mp.need_fully_resident(), mp.l2_usable);
      }
      ++planned;
    } catch (const PlanError&) {
      // Acceptable: KV/activations alone exceed L2 for this config.
    }
  }
  // The space must not be degenerate: most configs should plan fine.
  EXPECT_GT(planned, 150);
}

TEST(PlannerFuzz, TimedSimulationSurvivesRandomSmallConfigs) {
  util::Rng rng(777);
  const TimedBlockSimulation sim(SystemConfig::siracusa_system());
  for (int trial = 0; trial < 50; ++trial) {
    TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
    cfg.num_heads = static_cast<int>(1 + rng.next_below(8));
    cfg.head_dim = static_cast<int>(2 + 2 * rng.next_below(16));
    cfg.embed_dim = static_cast<int>(16 * (1 + rng.next_below(16)));
    cfg.ffn_dim = static_cast<int>(16 * (1 + rng.next_below(32)));
    cfg.prompt_len = static_cast<int>(1 + rng.next_below(32));
    cfg.validate();
    const int chips = static_cast<int>(1 + rng.next_below(static_cast<std::uint64_t>(cfg.num_heads)));
    const auto rep = sim.run(PartitionPlan::create(cfg, chips), Mode::prompt);
    ASSERT_EQ(rep.breakdown.total(), rep.block_cycles) << "trial " << trial;
    ASSERT_GT(rep.block_cycles, 0u);
  }
}
