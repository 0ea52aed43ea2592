// The partitioning scheme's functional correctness: distributed execution
// across N chips must reproduce the single-chip reference bit-for-bit up
// to float reduction-order tolerance, for every chip count, both modes,
// both norm placements, and across multi-layer stacks with KV caches.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "model/reference_model.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::KvCache;
using model::ReferenceModel;
using model::Tensor;
using model::TransformerConfig;
using model::Weights;
using partition::CommRecord;
using partition::DistributedBlock;
using partition::PartitionPlan;
using partition::ShardedWeights;

namespace {

TransformerConfig test_config(bool bert, bool pre_norm, int heads = 8) {
  TransformerConfig cfg =
      bert ? TransformerConfig::mobile_bert() : TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 64;
  cfg.ffn_dim = bert ? 64 : 128;
  cfg.num_heads = heads;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.ar_context = 24;
  cfg.prompt_len = 6;
  cfg.pre_norm = pre_norm;
  cfg.validate();
  return cfg;
}

Tensor random_input(int rows, int cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(rows, cols);
  x.random_init(rng, 1.0f);
  return x;
}

constexpr float kTol = 5e-4f;  // float reduction-order tolerance

}  // namespace

// Sweep: (chips, bert?, pre_norm?) — prompt mode, single block.
class DistributedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(DistributedEquivalence, PromptBlockMatchesReference) {
  const auto [n_chips, bert, pre_norm] = GetParam();
  const auto cfg = test_config(bert, pre_norm);
  const Weights w(cfg, 101);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, n_chips);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n_chips, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 55);
  const Tensor y_ref = ref.block_prompt(x, 0);
  const Tensor y_dist = block.forward(x, 0, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y_ref, y_dist), kTol)
      << "chips=" << n_chips << " bert=" << bert << " pre_norm=" << pre_norm;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
      return "chips" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_bert" : "_llama") +
             (std::get<2>(info.param) ? "_prenorm" : "_postnorm");
    });

TEST(DistributedBlockTest, MultiLayerStackMatchesReference) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 4);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(4, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 9);
  const Tensor y_ref = ref.forward_prompt(x);
  Tensor y = x;
  for (int l = 0; l < cfg.num_layers; ++l) y = block.forward(y, l, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y_ref, y), 4 * kTol);
}

// Autoregressive decoding with per-chip KV cache slices must agree with
// the reference's full cache — the partitioned cache is the paper's
// mechanism for keeping attention entirely chip-local.
class DistributedArEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DistributedArEquivalence, TokenByTokenWithPartitionedKvCache) {
  const int n_chips = GetParam();
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 31);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, n_chips);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n_chips, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  auto ref_caches = ref.make_caches(cfg.ar_context);
  auto chip_caches = block.make_chip_caches(cfg.ar_context);

  const int steps = 5;
  for (int t = 0; t < steps; ++t) {
    const Tensor xt = random_input(1, cfg.embed_dim, 1000 + static_cast<std::uint64_t>(t));
    Tensor y_ref = xt, y_dist = xt;
    for (int l = 0; l < cfg.num_layers; ++l) {
      y_ref = ref.block_ar(y_ref, l, ref_caches, t);
      y_dist = block.forward(y_dist, l, &chip_caches, t);
    }
    ASSERT_LE(Tensor::max_abs_diff(y_ref, y_dist), 4 * kTol)
        << "chips=" << n_chips << " token=" << t;
  }
  // Per-chip caches hold disjoint slices summing to the full cache width.
  int total_dim = 0;
  for (int c = 0; c < n_chips; ++c) total_dim += chip_caches[static_cast<std::size_t>(c)][0].dim();
  EXPECT_EQ(total_dim, cfg.proj_dim());
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, DistributedArEquivalence,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistributedBlockTest, CommRecordCountsTwoSyncsPerBlock) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 8);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(8, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  CommRecord comm;
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);
  (void)block.forward(x, 0, nullptr, 0, &comm);
  EXPECT_EQ(comm.reduces, 2);
  EXPECT_EQ(comm.broadcasts, 2);
  EXPECT_EQ(comm.synchronizations(), PartitionPlan::kSyncsPerBlock);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(cfg.prompt_len) * static_cast<std::uint64_t>(cfg.embed_dim);
  EXPECT_EQ(comm.payload_elems, payload);
  // 7 hops per reduce/broadcast for 8 chips; 4 collective phases total.
  EXPECT_EQ(comm.total_hop_elems, 7u * payload * 4u);
}

TEST(DistributedBlockTest, SingleChipHasNoCommunication) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 1);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(1, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  CommRecord comm;
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);
  (void)block.forward(x, 0, nullptr, 0, &comm);
  EXPECT_EQ(comm.total_hop_elems, 0u);
}

TEST(DistributedBlockTest, GroupSizeDoesNotChangeNumerics) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 8);
  const ShardedWeights shards(w, plan);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);

  const auto topo4 = noc::Topology::hierarchical(8, 4);
  const auto topo2 = noc::Topology::hierarchical(8, 2);
  const auto flat = noc::Topology::flat(8);
  const DistributedBlock b4(cfg, w, shards, plan, topo4);
  const DistributedBlock b2(cfg, w, shards, plan, topo2);
  const DistributedBlock bf(cfg, w, shards, plan, flat);
  const Tensor y4 = b4.forward(x, 0, nullptr, 0);
  const Tensor y2 = b2.forward(x, 0, nullptr, 0);
  const Tensor yf = bf.forward(x, 0, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y4, y2), kTol);
  EXPECT_LE(Tensor::max_abs_diff(y4, yf), kTol);
}

TEST(DistributedBlockTest, UnevenHeadDistributionStillCorrect) {
  // 8 heads on 3 chips: 3+3+2 — remainder handling must not corrupt
  // results.
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 77);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 3);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(3, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 13);
  EXPECT_LE(Tensor::max_abs_diff(ref.block_prompt(x, 0), block.forward(x, 0, nullptr, 0)),
            kTol);
}

TEST(DistributedBlockTest, SixtyFourChipScaledModel) {
  // The scaling-study configuration: 64 heads on 64 chips, one head each.
  auto cfg = test_config(false, false, /*heads=*/64);
  const Weights w(cfg, 19);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 64);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(64, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 23);
  EXPECT_LE(Tensor::max_abs_diff(ref.block_prompt(x, 0), block.forward(x, 0, nullptr, 0)),
            2 * kTol);
}

TEST(PagedForward, PageTablesMatchDenseOneGroupForwardsBitForBit) {
  // A row group naming its KV by page table, its pages scattered in
  // reverse over a shared row store, gives the dense one-group
  // forward's outputs and KV rows bit for bit: prompt rows, a chunk at
  // an offset and decode rows, at page sizes 1, 3, 16 and the whole
  // context, float and int8 KV, on an even and an uneven head split.
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 64;
  cfg.ar_context = 24;
  cfg.prompt_len = 8;
  cfg.validate();
  struct Step {
    int rows;
    int pos;
  };
  constexpr Step kSteps[] = {{5, 0}, {3, 5}, {1, 8}, {1, 9}};
  constexpr int kRows = 10;
  for (const bool int8 : {false, true}) {
    for (const int chips : {2, 3}) {
      runtime::DeploymentSpec spec;
      spec.model = cfg;
      spec.chips = chips;
      if (int8) {
        spec.precision = runtime::Precision::int8;
        spec.kv_layout = runtime::KvLayout::int8;
      }
      const runtime::InferenceSession s(spec);
      const std::vector<std::size_t> offsets = s.block_executor().kv_row_offsets();
      for (const int pt : {1, 3, 16, cfg.ar_context}) {
        SCOPED_TRACE("int8 " + std::to_string(int8) + " chips " + std::to_string(chips) +
                     " page_tokens " + std::to_string(pt));
        const int n_pages = (cfg.ar_context + pt - 1) / pt;
        const std::size_t stride = model::kv_page_floats(offsets, pt);
        std::vector<float> store(static_cast<std::size_t>(n_pages + 1) * stride, 7.0f);
        std::vector<int> table;
        for (int i = n_pages; i >= 1; --i) table.push_back(i);
        const model::KvPageTable pages{store.data(), stride, pt, table, offsets};
        auto dense = s.make_chip_caches(cfg.ar_context);
        util::Rng rng(0x9a6e);
        partition::ForwardWorkspace ws;
        for (int l = 0; l < cfg.num_layers; ++l) {
          for (const Step& st : kSteps) {
            Tensor x(st.rows, cfg.embed_dim);
            x.random_init(rng, 1.0f);
            const Tensor want = s.forward(x, l, &dense, st.pos);
            Tensor got(st.rows, cfg.embed_dim);
            const partition::RowGroup group{nullptr, st.pos, st.rows, pages};
            s.forward(ws, x.span(), got.span(), {&group, 1}, l);
            EXPECT_TRUE(std::equal(got.span().begin(), got.span().end(), want.span().begin()))
                << "layer " << l << " rows at " << st.pos;
          }
        }
        for (int c = 0; c < chips; ++c) {
          for (int l = 0; l < cfg.num_layers; ++l) {
            const auto cu = static_cast<std::size_t>(c);
            const auto lu = static_cast<std::size_t>(l);
            const model::KvPageView kv = pages.slice(cu * dense[cu].size() + lu);
            const model::KvCache& d = dense[cu][lu];
            ASSERT_EQ(d.length(), kRows);
            ASSERT_EQ(kv.width, d.dim());
            for (int p = 0; p < kRows; ++p) {
              const auto w = static_cast<std::size_t>(kv.width);
              const auto at = static_cast<std::size_t>(p) * w;
              EXPECT_TRUE(std::equal(kv.k_row(p), kv.k_row(p) + w, d.k().begin() + at) &&
                          std::equal(kv.v_row(p), kv.v_row(p) + w, d.v().begin() + at))
                  << "chip " << c << " layer " << l << " position " << p;
            }
          }
        }
      }
    }
  }
}
