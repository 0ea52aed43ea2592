// Tests for the partitioning plan, weight sharder and memory planner —
// including the zero-duplication proof and the residency crossovers the
// paper's super-linear speedups hinge on (DESIGN.md §1).
#include <gtest/gtest.h>

#include <set>

#include "chip/chip_config.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "util/check.hpp"

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using model::Weights;
using partition::MemoryPlan;
using partition::MemoryPlanner;
using partition::PartitionPlan;
using partition::PrecisionConfig;
using partition::Residency;
using partition::ShardedWeights;

namespace {
MemoryPlanner default_planner() {
  return MemoryPlanner(chip::ChipConfig::siracusa(), PrecisionConfig{});
}
}  // namespace

TEST(Plan, SingleChipOwnsEverything) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 1);
  EXPECT_EQ(plan.slice(0).num_heads(), 8);
  EXPECT_EQ(plan.slice(0).f_width(), 2048);
  EXPECT_EQ(plan.chip_block_weight_elems(0), cfg.block_weight_elems());
}

TEST(Plan, EvenSplitAcrossEightChips) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(plan.slice(c).num_heads(), 1);
    EXPECT_EQ(plan.slice(c).f_width(), 256);
    EXPECT_EQ(plan.proj_width(c), 64);
  }
}

TEST(Plan, UnevenHeadCountsGoToLowChips) {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.num_heads = 6;
  cfg.validate();
  const auto plan = PartitionPlan::create(cfg, 4);
  EXPECT_EQ(plan.slice(0).num_heads(), 2);
  EXPECT_EQ(plan.slice(1).num_heads(), 2);
  EXPECT_EQ(plan.slice(2).num_heads(), 1);
  EXPECT_EQ(plan.slice(3).num_heads(), 1);
  // Chip 0 is the worst case.
  EXPECT_EQ(plan.max_chip_block_weight_elems(), plan.chip_block_weight_elems(0));
}

TEST(Plan, RejectsMoreChipsThanHeads) {
  const auto cfg = TransformerConfig::tiny_llama_42m();  // 8 heads
  EXPECT_THROW(PartitionPlan::create(cfg, 16), Error);
  // The paper's fix: scale the head count, then 16..64 chips work.
  const auto scaled = TransformerConfig::tiny_llama_scaled(64);
  EXPECT_NO_THROW(PartitionPlan::create(scaled, 64));
}

TEST(Plan, TwoSyncsPerBlockStructuralConstant) {
  EXPECT_EQ(PartitionPlan::kSyncsPerBlock, 2);
}

// Property sweep: shards partition the weights exactly for any chip count.
class PlanCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanCoverageTest, ShardsSumToBlockTotalWithoutOverlap) {
  const int n = GetParam();
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const auto plan = PartitionPlan::create(cfg, n);
  std::uint64_t sum = 0;
  std::set<int> heads_seen;
  for (int c = 0; c < n; ++c) {
    sum += plan.chip_block_weight_elems(c);
    for (int h = plan.slice(c).head_begin; h < plan.slice(c).head_end; ++h) {
      EXPECT_TRUE(heads_seen.insert(h).second) << "head " << h << " duplicated";
    }
  }
  EXPECT_EQ(sum, cfg.block_weight_elems());
  EXPECT_EQ(heads_seen.size(), static_cast<std::size_t>(cfg.num_heads));
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, PlanCoverageTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 32, 64));

TEST(Sharder, ShardShapesMatchPlan) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const Weights w(cfg, 5);
  const auto plan = PartitionPlan::create(cfg, 4);
  const ShardedWeights shards(w, plan);
  const auto& s = shards.shard(1, 0);
  EXPECT_EQ(s.wq.rows(), 512);
  EXPECT_EQ(s.wq.cols(), 128);  // 2 heads * 64
  EXPECT_EQ(s.wo.rows(), 128);
  EXPECT_EQ(s.wo.cols(), 512);
  EXPECT_EQ(s.w1.cols(), 512);  // F/4
  EXPECT_EQ(s.w2.rows(), 512);
}

TEST(Sharder, ShardValuesComeFromTheRightColumns) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const Weights w(cfg, 5);
  const auto plan = PartitionPlan::create(cfg, 8);
  const ShardedWeights shards(w, plan);
  // Chip 3 owns head 3 -> columns [192, 256) of WQ.
  const auto& s = shards.shard(3, 2);
  EXPECT_FLOAT_EQ(s.wq.at(17, 5), w.layer(2).wq.at(17, 192 + 5));
  EXPECT_FLOAT_EQ(s.wo.at(5, 17), w.layer(2).wo.at(192 + 5, 17));
  // Chip 3 owns F columns [768, 1024).
  EXPECT_FLOAT_EQ(s.w1.at(100, 7), w.layer(2).w1.at(100, 768 + 7));
  EXPECT_FLOAT_EQ(s.w2.at(7, 100), w.layer(2).w2.at(768 + 7, 100));
}

TEST(Sharder, ZeroDuplicationAcrossChips) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const Weights w(cfg, 5);
  for (int n : {1, 2, 4, 8}) {
    const auto plan = PartitionPlan::create(cfg, n);
    const ShardedWeights shards(w, plan);
    for (int l = 0; l < cfg.num_layers; ++l) {
      EXPECT_EQ(shards.layer_elem_sum(l), cfg.block_weight_elems())
          << "n=" << n << " layer=" << l;
    }
  }
}

// --- Memory planner: the paper's residency crossovers -------------------

struct ResidencyCase {
  const char* label;
  int chips;
  Mode mode;
  Residency expected;
};

// Without a printer GoogleTest dumps the struct's raw bytes, which include
// the label pointer, so the discovered test name would change from run to
// run under address-space randomisation.
void PrintTo(const ResidencyCase& tc, std::ostream* os) { *os << tc.label; }

class ResidencyTest : public ::testing::TestWithParam<ResidencyCase> {};

TEST_P(ResidencyTest, MatchesPaperCrossover) {
  const auto& tc = GetParam();
  TransformerConfig cfg;
  if (std::string(tc.label).find("bert") != std::string::npos) {
    cfg = TransformerConfig::mobile_bert();
  } else if (std::string(tc.label).find("scaled") != std::string::npos) {
    cfg = TransformerConfig::tiny_llama_scaled(64);
  } else {
    cfg = TransformerConfig::tiny_llama_42m();
  }
  const auto plan = PartitionPlan::create(cfg, tc.chips);
  const MemoryPlan mp = default_planner().plan(plan, tc.mode);
  EXPECT_EQ(mp.residency, tc.expected)
      << tc.label << " chips=" << tc.chips << "\n" << mp.describe();
}

INSTANTIATE_TEST_SUITE_P(
    PaperCrossovers, ResidencyTest,
    ::testing::Values(
        // TinyLlama AR: streamed through 4 chips, double-buffered at 8
        // (paper Fig. 4a: super-linear speedup appears at 8).
        ResidencyCase{"llama-ar-1", 1, Mode::autoregressive, Residency::streamed},
        ResidencyCase{"llama-ar-2", 2, Mode::autoregressive, Residency::streamed},
        ResidencyCase{"llama-ar-4", 4, Mode::autoregressive, Residency::streamed},
        ResidencyCase{"llama-ar-8", 8, Mode::autoregressive, Residency::double_buffered},
        // Prompt mode: same crossover (paper Fig. 4b).
        ResidencyCase{"llama-pr-4", 4, Mode::prompt, Residency::streamed},
        ResidencyCase{"llama-pr-8", 8, Mode::prompt, Residency::double_buffered},
        // MobileBERT: crossover at 4 chips (paper Fig. 4c).
        ResidencyCase{"bert-1", 1, Mode::prompt, Residency::streamed},
        ResidencyCase{"bert-2", 2, Mode::prompt, Residency::streamed},
        ResidencyCase{"bert-4", 4, Mode::prompt, Residency::double_buffered},
        // Scaled 64-head model (paper Sec. V-C): double-buffered at 8-16,
        // fully resident at 32-64 ("with 32 chips, all model weights fit
        // on-chip, and double-buffering is no longer required").
        ResidencyCase{"scaled-ar-8", 8, Mode::autoregressive, Residency::double_buffered},
        ResidencyCase{"scaled-ar-16", 16, Mode::autoregressive, Residency::double_buffered},
        ResidencyCase{"scaled-ar-32", 32, Mode::autoregressive, Residency::fully_resident},
        ResidencyCase{"scaled-ar-64", 64, Mode::autoregressive, Residency::fully_resident},
        ResidencyCase{"scaled-pr-16", 16, Mode::prompt, Residency::double_buffered},
        ResidencyCase{"scaled-pr-32", 32, Mode::prompt, Residency::fully_resident}),
    [](const ::testing::TestParamInfo<ResidencyCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MemoryPlanner, ByteAccountingTinyLlamaEightChips) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  const MemoryPlan mp = default_planner().plan(plan, Mode::autoregressive);
  EXPECT_EQ(mp.weight_shard_bytes, 786432u);           // 6 MiB / 8 chips
  EXPECT_EQ(mp.kv_cache_bytes, 131072u);               // 8L * 2 * 128 * 64 * 1B
  EXPECT_EQ(mp.all_blocks_bytes, 8u * 786432u);
  EXPECT_TRUE(mp.uses_kv_cache);
  EXPECT_EQ(mp.seq_len, 1);
  EXPECT_EQ(mp.attention_span, 128);
}

TEST(MemoryPlanner, EncoderHasNoKvCache) {
  const auto cfg = TransformerConfig::mobile_bert();
  const auto plan = PartitionPlan::create(cfg, 4);
  const MemoryPlan mp = default_planner().plan(plan, Mode::prompt);
  EXPECT_FALSE(mp.uses_kv_cache);
  EXPECT_EQ(mp.kv_cache_bytes, 0u);
  EXPECT_EQ(mp.seq_len, 268);
}

TEST(MemoryPlanner, Int8WeightsShiftCrossoverEarlier) {
  // The precision ablation (DESIGN.md): with 1-byte weights TinyLlama
  // would already double-buffer at 4 chips — the reason the paper's
  // crossover at 8 pins the deployment to 2-byte weights.
  PrecisionConfig p8;
  p8.weight_bytes = 1;
  const MemoryPlanner planner(chip::ChipConfig::siracusa(), p8);
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 4);
  EXPECT_EQ(planner.plan(plan, Mode::autoregressive).residency,
            Residency::double_buffered);
}

TEST(MemoryPlanner, Fp32WeightsPushCrossoverLater) {
  PrecisionConfig p32;
  p32.weight_bytes = 4;
  const MemoryPlanner planner(chip::ChipConfig::siracusa(), p32);
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  EXPECT_EQ(planner.plan(plan, Mode::autoregressive).residency, Residency::streamed);
}

TEST(MemoryPlanner, ThrowsWhenNothingFits) {
  chip::ChipConfig tiny = chip::ChipConfig::siracusa();
  tiny.l2_size = 128 * 1024;
  tiny.l2_runtime_reserve = 0;
  tiny.l1_tile_budget = 16 * 1024;
  const MemoryPlanner planner(tiny, PrecisionConfig{});
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 1);
  EXPECT_THROW((void)planner.plan(plan, Mode::autoregressive), PlanError);
}

TEST(MemoryPlanner, DescribeMentionsRegime) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = PartitionPlan::create(cfg, 8);
  const MemoryPlan mp = default_planner().plan(plan, Mode::autoregressive);
  const std::string desc = mp.describe();
  EXPECT_NE(desc.find("double-buffered"), std::string::npos);
  EXPECT_NE(desc.find("KV cache"), std::string::npos);
}
