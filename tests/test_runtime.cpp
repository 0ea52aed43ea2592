// Tests for the timed simulation layer: block-program lowering, timing
// invariants, breakdown accounting, traffic cross-checks against the
// functional executor, and the energy model identity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "energy/energy_model.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "runtime/block_program.hpp"
#include "runtime/timed_simulation.hpp"
#include "sim/tracer.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using partition::PartitionPlan;
using partition::PrecisionConfig;
using partition::Residency;
using runtime::BlockProgram;
using runtime::LatencyAccounting;
using runtime::RunReport;
using runtime::SystemConfig;
using runtime::TimedBlockSimulation;

namespace {
SystemConfig default_sys() { return SystemConfig::siracusa_system(); }

RunReport run_default(const TransformerConfig& cfg, int chips, Mode mode) {
  const auto plan = PartitionPlan::create(cfg, chips);
  return TimedBlockSimulation(default_sys()).run(plan, mode);
}
}  // namespace

TEST(BlockProgram, WeightBytesMatchPlannerShard) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  for (int n : {1, 2, 4, 8}) {
    const auto plan = PartitionPlan::create(cfg, n);
    const auto prog = runtime::build_block_program(plan, PrecisionConfig{}, Mode::prompt);
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(prog.chip_weight_bytes(c), plan.chip_block_weight_elems(c) * 2)
          << "n=" << n << " chip=" << c;
    }
  }
}

TEST(BlockProgram, ArUsesSingleRowAndFullContext) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  const auto prog =
      runtime::build_block_program(plan, PrecisionConfig{}, Mode::autoregressive);
  EXPECT_EQ(prog.seq_len, 1);
  EXPECT_EQ(prog.attention_span, 128);
  // Payload: 1 x 512 x 1 B.
  EXPECT_EQ(prog.sync_payload_bytes, 512u);
}

TEST(BlockProgram, PromptUsesSequence) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  const auto prog = runtime::build_block_program(plan, PrecisionConfig{}, Mode::prompt);
  EXPECT_EQ(prog.seq_len, 16);
  EXPECT_EQ(prog.attention_span, 16);
  EXPECT_EQ(prog.sync_payload_bytes, 16u * 512u);
}

TEST(BlockProgram, PerHeadAttentionKernels) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  // 1 chip: 8 heads -> 3 ops each, plus 3 projections + 2 rope + 1 out
  // proj = 30 MHSA ops; FFN adds 3.
  const auto plan1 = PartitionPlan::create(cfg, 1);
  const auto prog1 = runtime::build_block_program(plan1, PrecisionConfig{}, Mode::prompt);
  EXPECT_EQ(prog1.chip_num_ops(0), 33u);
  // 8 chips: 1 head each -> 3+2+3+1 + 3 = 12 ops.
  const auto plan8 = PartitionPlan::create(cfg, 8);
  const auto prog8 = runtime::build_block_program(plan8, PrecisionConfig{}, Mode::prompt);
  EXPECT_EQ(prog8.chip_num_ops(0), 12u);
}

TEST(BlockProgram, KernelNamesCarryTheGlobalHeadIndex) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  // 3 chips: heads [0,3), [3,6), [6,8).
  const auto plan = PartitionPlan::create(cfg, 3);
  const auto prog = runtime::build_block_program(plan, PrecisionConfig{}, Mode::prompt);
  std::vector<std::string> names;
  for (const auto& op : prog.mhsa.ops(2)) {
    names.push_back(op.name(prog.mhsa.chips[2].first_head));
  }
  const std::vector<std::string> want = {
      "q_proj", "k_proj", "v_proj", "rope_q", "rope_k", "scores_h6", "softmax_h6",
      "context_h6", "scores_h7", "softmax_h7", "context_h7", "out_proj"};
  EXPECT_EQ(names, want);
  // Chips 0 and 1 own three heads each: one class list, different names.
  ASSERT_EQ(prog.mhsa.classes.size(), 2u);
  EXPECT_EQ(prog.mhsa.chips[0].cls, prog.mhsa.chips[1].cls);
  EXPECT_EQ(&prog.mhsa.ops(0), &prog.mhsa.ops(1));
  const auto& a = prog.mhsa.ops(0);
  EXPECT_NE(a[5].name(prog.mhsa.chips[0].first_head),
            a[5].name(prog.mhsa.chips[1].first_head));
  EXPECT_NE(prog.mhsa.chips[0].cls, prog.mhsa.chips[2].cls);
  EXPECT_NE(a.front().n, prog.mhsa.ops(2).front().n);
}

TEST(BlockProgram, BertSkipsRope) {
  const auto cfg = TransformerConfig::mobile_bert();
  const auto plan = PartitionPlan::create(cfg, 4);
  const auto prog = runtime::build_block_program(plan, PrecisionConfig{}, Mode::prompt);
  // 3 proj + 1 head * 3 + 1 out = 7 MHSA ops (no rope), + 3 FFN.
  EXPECT_EQ(prog.chip_num_ops(0), 10u);
  EXPECT_EQ(prog.attention_span, 268);
}

TEST(BlockProgram, KvBytesScaleWithContext) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  const auto prog =
      runtime::build_block_program(plan, PrecisionConfig{}, Mode::autoregressive);
  // Per chip: one head, scores+context each read T*P*1B = 128*64.
  EXPECT_EQ(prog.chip_kv_bytes(0), 2u * 128u * 64u);
}

namespace {

void expect_same_report(const RunReport& a, const RunReport& b, const std::string& where) {
  EXPECT_EQ(a.block_cycles, b.block_cycles) << where;
  EXPECT_EQ(a.residency, b.residency) << where;
  EXPECT_EQ(a.breakdown.compute, b.breakdown.compute) << where;
  EXPECT_EQ(a.breakdown.dma_l3_l2, b.breakdown.dma_l3_l2) << where;
  EXPECT_EQ(a.breakdown.dma_l2_l1, b.breakdown.dma_l2_l1) << where;
  EXPECT_EQ(a.breakdown.c2c, b.breakdown.c2c) << where;
  EXPECT_EQ(a.traffic.l3_l2, b.traffic.l3_l2) << where;
  EXPECT_EQ(a.traffic.l2_l1, b.traffic.l2_l1) << where;
  EXPECT_EQ(a.traffic.c2c, b.traffic.c2c) << where;
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes) << where;
  EXPECT_EQ(a.t_comp, b.t_comp) << where;
}

}  // namespace

// Class lowering over the sweep's models (plus a SwiGLU TinyLlama for the
// gated FFN), every chip count the plan allows (uneven splits included),
// both modes, and a seeded attention-span override: each chip's class
// list must be the slice it owns, and the per-head kernels of all chips
// must serve every head exactly once.
TEST(BlockProgram, ClassListsLowerEveryChipOfTheSweepGrid) {
  TransformerConfig swiglu = TransformerConfig::tiny_llama_42m();
  swiglu.ffn = model::FfnKind::swiglu;
  const TransformerConfig models[] = {TransformerConfig::tiny_llama_42m(),
                                      TransformerConfig::mobile_bert(),
                                      TransformerConfig::tiny_llama_scaled(64), swiglu};
  const PrecisionConfig prec;
  const TimedBlockSimulation sim(default_sys());
  util::Rng rng(26);
  for (const TransformerConfig& cfg : models) {
    const bool rope = cfg.pos == model::PosEmbed::rope;
    const std::size_t ffn_ops = cfg.ffn == model::FfnKind::swiglu ? 5 : 3;
    for (int n = 1; n <= cfg.num_heads; ++n) {
      const auto plan = PartitionPlan::create(cfg, n);
      for (const Mode mode : {Mode::autoregressive, Mode::prompt}) {
        const int rows = mode == Mode::prompt ? cfg.prompt_len : 1;
        const int drawn =
            rows + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.ar_context)));
        for (const int span : {0, drawn}) {
          const std::string where = cfg.name + " n=" + std::to_string(n) + " " +
                                    model::mode_name(mode) + " span=" + std::to_string(span);
          const BlockProgram prog = runtime::build_block_program(plan, prec, mode, span);
          ASSERT_EQ(prog.num_chips(), n) << where;
          EXPECT_LE(prog.mhsa.classes.size(), 2u) << where;
          EXPECT_LE(prog.ffn.classes.size(), 2u) << where;
          // [label][global head] -> chips serving it.
          std::vector<std::vector<int>> served(
              3, std::vector<int>(static_cast<std::size_t>(cfg.num_heads)));
          for (int c = 0; c < n; ++c) {
            const int heads = plan.slice(c).num_heads();
            EXPECT_EQ(prog.chip_weight_bytes(c),
                      plan.chip_block_weight_elems(c) * prec.weight_bytes)
                << where << " chip " << c;
            EXPECT_EQ(prog.mhsa.ops(c).size(),
                      static_cast<std::size_t>(3 + (rope ? 2 : 0) + 3 * heads + 1))
                << where << " chip " << c;
            EXPECT_EQ(prog.ffn.ops(c).size(), ffn_ops) << where << " chip " << c;
            const int first = prog.mhsa.chips[static_cast<std::size_t>(c)].first_head;
            for (const auto& op : prog.mhsa.ops(c)) {
              if (op.head < 0) continue;
              ASSERT_LT(op.head, heads) << where << " chip " << c;
              const std::size_t which = op.label == "scores" ? 0 : op.label == "softmax" ? 1 : 2;
              ++served[which][static_cast<std::size_t>(first + op.head)];
            }
          }
          for (const auto& per_head : served) {
            for (const int count : per_head) EXPECT_EQ(count, 1) << where;
          }
          sim::Tracer tracer;
          expect_same_report(sim.run(plan, mode, &tracer, span),
                             sim.run(plan, mode, nullptr, span), where);
        }
      }
    }
  }
}

// --- timed simulation ----------------------------------------------------

TEST(TimedSim, BreakdownSumsToLatency) {
  for (int n : {1, 2, 4, 8}) {
    const auto rep = run_default(TransformerConfig::tiny_llama_42m(), n,
                                 Mode::autoregressive);
    EXPECT_EQ(rep.breakdown.total(), rep.block_cycles) << "n=" << n;
  }
}

TEST(TimedSim, MoreChipsNeverSlower) {
  Cycles prev = ~0ull;
  for (int n : {1, 2, 4, 8}) {
    const auto rep = run_default(TransformerConfig::tiny_llama_42m(), n, Mode::prompt);
    EXPECT_LT(rep.block_cycles, prev) << "n=" << n;
    prev = rep.block_cycles;
  }
}

TEST(TimedSim, SuperLinearSpeedupAtResidencyCrossover) {
  // The paper's headline: the jump from streamed (4 chips) to
  // double-buffered (8 chips) yields more than 2x.
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto r4 = run_default(cfg, 4, Mode::autoregressive);
  const auto r8 = run_default(cfg, 8, Mode::autoregressive);
  EXPECT_EQ(r4.residency, Residency::streamed);
  EXPECT_EQ(r8.residency, Residency::double_buffered);
  const double jump = static_cast<double>(r4.block_cycles) /
                      static_cast<double>(r8.block_cycles);
  EXPECT_GT(jump, 4.0);
}

TEST(TimedSim, ArIsMemoryBoundSingleChip) {
  // Paper Fig. 4a: "in autoregressive mode, accessing memory is the main
  // contributor to overall runtime".
  const auto rep = run_default(TransformerConfig::tiny_llama_42m(), 1,
                               Mode::autoregressive);
  EXPECT_GT(rep.breakdown.dma_l3_l2, rep.breakdown.compute * 10);
}

TEST(TimedSim, PromptIsComputeBoundAtEightChips) {
  // Paper Fig. 4b: "in prompt mode, computation is the largest
  // contributor".
  const auto rep = run_default(TransformerConfig::tiny_llama_42m(), 8, Mode::prompt);
  EXPECT_GT(rep.breakdown.compute, rep.breakdown.dma_l2_l1);
  EXPECT_GT(rep.breakdown.compute, rep.breakdown.c2c);
  EXPECT_EQ(rep.breakdown.dma_l3_l2, 0u);
}

TEST(TimedSim, NoSteadyStateL3TrafficWhenResident) {
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const auto rep = run_default(cfg, 32, Mode::autoregressive);
  EXPECT_EQ(rep.residency, Residency::fully_resident);
  EXPECT_EQ(rep.traffic.l3_l2, 0u);
  EXPECT_EQ(rep.prefetch_bytes, 0u);
}

TEST(TimedSim, DoubleBufferedChargesPrefetchToEnergyNotLatency) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);

  SystemConfig paper_sys = default_sys();
  paper_sys.accounting = LatencyAccounting::single_block_resident;
  const auto paper_rep = TimedBlockSimulation(paper_sys).run(plan, Mode::autoregressive);
  // Prefetch traffic equals one full block of weights (2 B each).
  EXPECT_EQ(paper_rep.prefetch_bytes, cfg.block_weight_elems() * 2);
  EXPECT_EQ(paper_rep.traffic.l3_l2, paper_rep.prefetch_bytes);
  EXPECT_EQ(paper_rep.breakdown.dma_l3_l2, 0u);

  SystemConfig ss_sys = default_sys();
  ss_sys.accounting = LatencyAccounting::steady_state;
  const auto ss_rep = TimedBlockSimulation(ss_sys).run(plan, Mode::autoregressive);
  // Steady state: the block cannot outrun its successor's prefetch
  // (786 KiB at 1 B/cycle ~ 800 kcycles > block compute).
  EXPECT_GT(ss_rep.block_cycles, paper_rep.block_cycles);
  EXPECT_GT(ss_rep.breakdown.dma_l3_l2, 0u);
}

TEST(TimedSim, TrafficMatchesFunctionalCommRecord) {
  // The timed simulation and the functional executor must derive the
  // same C2C traffic from the same plan.
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const int n = 8;
  const auto plan = PartitionPlan::create(cfg, n);
  const auto rep = run_default(cfg, n, Mode::prompt);

  const model::Weights w(cfg, 3);
  const partition::ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n, 4);
  const partition::DistributedBlock block(cfg, w, shards, plan, topo);
  util::Rng rng(1);
  model::Tensor x(cfg.prompt_len, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  partition::CommRecord comm;
  (void)block.forward(x, 0, nullptr, 0, &comm);

  // CommRecord counts elements; the timed report counts bytes at
  // act_bytes = 1 B per element.
  EXPECT_EQ(rep.traffic.c2c, comm.total_hop_elems);
}

TEST(TimedSim, TracerTimelineCoversAllCategories) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  sim::Tracer tracer;
  (void)TimedBlockSimulation(default_sys()).run(plan, Mode::prompt, &tracer);
  EXPECT_GT(tracer.total(sim::Category::compute), 0u);
  EXPECT_GT(tracer.total_bytes(sim::Category::chip_to_chip), 0u);
  EXPECT_GT(tracer.total_bytes(sim::Category::dma_l3_l2), 0u);  // prefetch spans
  EXPECT_GT(tracer.spans().size(), 50u);
}

TEST(TimedSim, FlatTopologySlowerAtScale) {
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const auto plan = PartitionPlan::create(cfg, 64);
  SystemConfig flat = default_sys();
  flat.flat_topology = true;
  const auto r_flat = TimedBlockSimulation(flat).run(plan, Mode::prompt);
  const auto r_hier = TimedBlockSimulation(default_sys()).run(plan, Mode::prompt);
  EXPECT_GT(r_flat.block_cycles, r_hier.block_cycles);
  EXPECT_GT(r_flat.breakdown.c2c, r_hier.breakdown.c2c);
}

TEST(TimedSim, TCompPerChipPositiveAndBounded) {
  const auto rep = run_default(TransformerConfig::tiny_llama_42m(), 8, Mode::prompt);
  ASSERT_EQ(rep.t_comp.size(), 8u);
  for (const Cycles t : rep.t_comp) {
    EXPECT_GT(t, 0u);
    EXPECT_LE(t, rep.block_cycles);
  }
}

// --- energy model --------------------------------------------------------

TEST(Energy, EquationIdentity) {
  // E = N_C2C*E_C2C + sum_j [P*T_comp + N_L3*E_L3 + N_L2*E_L2] — verify
  // against a hand-computed report.
  RunReport rep;
  rep.t_comp = {500000, 250000};  // cycles at 500 MHz -> 1 ms, 0.5 ms
  rep.traffic.l3_l2 = 1000000;
  rep.traffic.l2_l1 = 2000000;
  rep.traffic.c2c = 3000;
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  const auto e = em.compute(rep);
  // Core: 104 mW * 1.5 ms = 0.156 mJ = 1.56e8 pJ.
  EXPECT_NEAR(e.core, 1.56e8, 1e3);
  EXPECT_DOUBLE_EQ(e.l3, 1e8);   // 1e6 B * 100 pJ
  EXPECT_DOUBLE_EQ(e.l2, 4e6);   // 2e6 B * 2 pJ
  EXPECT_DOUBLE_EQ(e.c2c, 3e5);  // 3e3 B * 100 pJ
  EXPECT_NEAR(e.total(), 1.56e8 + 1e8 + 4e6 + 3e5, 1e3);
}

TEST(Energy, EdpIsEnergyTimesDelay) {
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  energy::EnergyBreakdown e;
  e.core = 1e9;  // 1 mJ
  // 500k cycles = 1 ms -> EDP = 1 mJ*ms.
  EXPECT_DOUBLE_EQ(em.edp_mj_ms(e, 500000), 1.0);
}

TEST(Energy, EightChipArSimilarEnergyToSingleChip) {
  // Paper abstract: similar energy per inference at 8 chips, EDP
  // improvement ~ speedup.
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  const auto r1 = run_default(cfg, 1, Mode::autoregressive);
  const auto r8 = run_default(cfg, 8, Mode::autoregressive);
  const double e1 = em.compute(r1).total_mj();
  const double e8 = em.compute(r8).total_mj();
  EXPECT_NEAR(e8 / e1, 1.0, 0.1);      // "similar energy"
  EXPECT_LT(e8, e1);                   // slightly lower (Fig. 5a)
}

TEST(Energy, FullyResidentCutsEnergy) {
  // Paper Sec. V-C: at 32+ chips double-buffering is no longer required,
  // "resulting in a further energy reduction" (Fig. 5a).
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  const auto r16 = run_default(cfg, 16, Mode::autoregressive);
  const auto r32 = run_default(cfg, 32, Mode::autoregressive);
  EXPECT_LT(em.compute(r32).total_mj(), em.compute(r16).total_mj());
}

TEST(Energy, MobileBertFourChipsSlightlyMoreEnergy)
{
  // Paper Fig. 5c: "using 4 chips results in a slight increase in
  // inference energy" from kernel-utilization loss.
  const auto cfg = TransformerConfig::mobile_bert();
  const energy::EnergyModel em(chip::ChipConfig::siracusa(), noc::LinkConfig{});
  const double e1 = em.compute(run_default(cfg, 1, Mode::prompt)).total_mj();
  const double e4 = em.compute(run_default(cfg, 4, Mode::prompt)).total_mj();
  EXPECT_GT(e4, e1);
  EXPECT_LT(e4 / e1, 1.10);  // "slight"
}
