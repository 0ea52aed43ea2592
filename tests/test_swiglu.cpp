// Tests for the SwiGLU FFN extension: the gated three-matrix FFN of the
// real Llama family must shard along F exactly like the plain MLP —
// numerically equivalent to the reference, with the extra gate matrix
// accounted in every byte count.
#include <gtest/gtest.h>

#include "model/reference_model.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "runtime/block_program.hpp"
#include "runtime/timed_simulation.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::FfnKind;
using model::Tensor;
using model::TransformerConfig;
using model::Weights;

namespace {
TransformerConfig swiglu_config() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama-swiglu-test";
  cfg.embed_dim = 48;
  cfg.ffn_dim = 96;
  cfg.num_heads = 4;
  cfg.head_dim = 12;
  cfg.num_layers = 2;
  cfg.ar_context = 16;
  cfg.prompt_len = 5;
  cfg.ffn = FfnKind::swiglu;
  cfg.act = model::Activation::silu;
  cfg.pre_norm = true;  // the authentic Llama block
  cfg.validate();
  return cfg;
}
}  // namespace

TEST(Swiglu, BlockWeightElemsCountGate) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  const auto mlp_elems = cfg.block_weight_elems();
  cfg.ffn = FfnKind::swiglu;
  // + one E x F matrix.
  EXPECT_EQ(cfg.block_weight_elems(), mlp_elems + 512u * 2048u);
}

TEST(Swiglu, WeightsAllocateGateOnlyWhenEnabled) {
  const auto cfg = swiglu_config();
  const Weights w(cfg, 3);
  EXPECT_EQ(w.layer(0).w3.size(),
            static_cast<std::size_t>(cfg.embed_dim * cfg.ffn_dim));
  auto mlp_cfg = cfg;
  mlp_cfg.ffn = FfnKind::mlp;
  const Weights wm(mlp_cfg, 3);
  EXPECT_EQ(wm.layer(0).w3.size(), 0u);
}

TEST(Swiglu, GateChangesTheOutput) {
  const auto cfg = swiglu_config();
  auto mlp_cfg = cfg;
  mlp_cfg.ffn = FfnKind::mlp;
  const Weights w(cfg, 5);
  const Weights wm(mlp_cfg, 5);
  const model::ReferenceModel ref(cfg, w);
  const model::ReferenceModel ref_m(mlp_cfg, wm);
  util::Rng rng(9);
  Tensor x(cfg.prompt_len, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  EXPECT_GT(Tensor::max_abs_diff(ref.block_prompt(x, 0), ref_m.block_prompt(x, 0)),
            1e-4f);
}

class SwigluDistributed : public ::testing::TestWithParam<int> {};

TEST_P(SwigluDistributed, MatchesReferenceAcrossChips) {
  const int n = GetParam();
  const auto cfg = swiglu_config();
  const Weights w(cfg, 11);
  const model::ReferenceModel ref(cfg, w);
  const auto plan = partition::PartitionPlan::create(cfg, n);
  const partition::ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n, 4);
  const partition::DistributedBlock block(cfg, w, shards, plan, topo);

  util::Rng rng(13);
  Tensor x(cfg.prompt_len, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  const Tensor y_ref = ref.block_prompt(x, 0);
  const Tensor y = block.forward(x, 0, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y_ref, y), 5e-4f) << "chips=" << n;
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, SwigluDistributed, ::testing::Values(1, 2, 3, 4));

TEST(Swiglu, ShardsSumExactlyWithGate) {
  const auto cfg = swiglu_config();
  const Weights w(cfg, 17);
  for (int n : {1, 2, 4}) {
    const auto plan = partition::PartitionPlan::create(cfg, n);
    const partition::ShardedWeights shards(w, plan);
    EXPECT_EQ(shards.layer_elem_sum(0), cfg.block_weight_elems()) << "n=" << n;
  }
}

TEST(Swiglu, BlockProgramEmitsGateOps) {
  const auto cfg = swiglu_config();
  const auto plan = partition::PartitionPlan::create(cfg, 2);
  const auto prog = runtime::build_block_program(plan, partition::PrecisionConfig{},
                                                 model::Mode::prompt);
  bool saw_w3 = false, saw_mul = false;
  for (const auto& op : prog.ffn.ops(0)) {
    if (op.label == "ffn_w3") saw_w3 = true;
    if (op.label == "ffn_gate_mul") saw_mul = true;
  }
  EXPECT_TRUE(saw_w3);
  EXPECT_TRUE(saw_mul);
  // The op weight bytes must still match the plan exactly (the builder
  // asserts this internally; double-check from outside).
  EXPECT_EQ(prog.chip_weight_bytes(0), plan.chip_block_weight_elems(0) * 2);
}

TEST(Swiglu, ResidencyShiftsWithTheExtraMatrix) {
  // TinyLlama with SwiGLU at F=2048 adds 2 MiB per block: at 8 chips the
  // double-buffered regime no longer fits and the deployment streams —
  // the planner must notice.
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.ffn = FfnKind::swiglu;
  const auto plan = partition::PartitionPlan::create(cfg, 8);
  const partition::MemoryPlanner planner(chip::ChipConfig::siracusa(),
                                         partition::PrecisionConfig{});
  const auto mp = planner.plan(plan, model::Mode::autoregressive);
  EXPECT_EQ(mp.residency, partition::Residency::streamed);
  // 16 chips restore the double-buffered regime.
  const auto plan16 = partition::PartitionPlan::create(
      TransformerConfig::tiny_llama_scaled(16), 16);
  auto cfg16 = TransformerConfig::tiny_llama_scaled(16);
  cfg16.ffn = FfnKind::swiglu;
  const auto mp16 = planner.plan(partition::PartitionPlan::create(cfg16, 16),
                                 model::Mode::autoregressive);
  EXPECT_EQ(mp16.residency, partition::Residency::double_buffered);
}

TEST(Swiglu, TimedSimulationRuns) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.ffn = FfnKind::swiglu;
  const auto plan = partition::PartitionPlan::create(cfg, 8);
  const runtime::TimedBlockSimulation sim(runtime::SystemConfig::siracusa_system());
  const auto rep = sim.run(plan, model::Mode::autoregressive);
  EXPECT_EQ(rep.breakdown.total(), rep.block_cycles);
  // The gate adds compute and traffic relative to the plain MLP.
  const auto rep_mlp =
      sim.run(partition::PartitionPlan::create(TransformerConfig::tiny_llama_42m(), 8),
              model::Mode::autoregressive);
  EXPECT_GT(rep.block_cycles, rep_mlp.block_cycles);
}
