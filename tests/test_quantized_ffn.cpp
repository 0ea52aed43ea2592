// Tests for the A8W8 block (DistributedBlock given an Int8Weights set):
// accuracy against the float block, the deployment-critical property
// that int32 partial-sum reduction is bit-exact for every topology and
// chip count (float reductions drift with tree shape; integers do not),
// and that stacking row groups, each with its own activation scales,
// changes no bit of any group's outputs or KV rows.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::Tensor;
using model::TransformerConfig;
using model::Weights;
using partition::DistributedBlock;
using partition::Int8Weights;

namespace {

constexpr int kKvBits = 8;

TransformerConfig ffn_config() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 64;
  cfg.ffn_dim = 128;
  cfg.num_heads = 8;
  cfg.head_dim = 8;
  cfg.num_layers = 1;
  cfg.prompt_len = 4;
  cfg.act = model::Activation::relu;  // quantization-friendly
  cfg.validate();
  return cfg;
}

Tensor random_input(const TransformerConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(cfg.prompt_len, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  return x;
}

/// One deployment's block over `n` chips and `topo`, float when `int8`
/// is false. Owns everything the block references.
struct Block {
  Block(const TransformerConfig& cfg, const Weights& w, int n, const noc::Topology& t,
        bool int8)
      : plan(partition::PartitionPlan::create(cfg, n)),
        shards(w, plan),
        topo(t),
        q8(cfg, shards, kKvBits),
        block(cfg, w, shards, plan, topo, int8 ? &q8 : nullptr) {}

  partition::PartitionPlan plan;
  partition::ShardedWeights shards;
  noc::Topology topo;
  Int8Weights q8;
  DistributedBlock block;
};

/// A prompt of `x` at position 0, then one decode row against its KV:
/// both outputs and every chip's cached K/V rows, back to back (the
/// caches in head order, so any chip grouping yields the same vector).
std::vector<float> block_outputs(const Block& b, const Tensor& x) {
  auto caches = b.block.make_chip_caches(x.rows() + 1);
  std::vector<float> out;
  for (const Tensor& in : {x, x.slice_rows(0, 1)}) {
    const int pos = caches[0][0].length();
    const Tensor y = b.block.forward(in, 0, &caches, pos);
    out.insert(out.end(), y.span().begin(), y.span().end());
  }
  for (const bool keys : {true, false}) {
    for (int r = 0; r < caches[0][0].length(); ++r) {
      for (const auto& chip : caches) {
        const auto dim = static_cast<std::size_t>(chip[0].dim());
        const auto row = (keys ? chip[0].k() : chip[0].v())
                             .subspan(static_cast<std::size_t>(r) * dim, dim);
        out.insert(out.end(), row.begin(), row.end());
      }
    }
  }
  return out;
}

}  // namespace

class QuantFfnAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(QuantFfnAccuracy, CloseToFloatReference) {
  const int n = GetParam();
  const auto cfg = ffn_config();
  const Weights w(cfg, 42);
  const auto topo = noc::Topology::hierarchical(n, 4);
  const Block q(cfg, w, n, topo, true);
  const Block f(cfg, w, n, topo, false);

  const Tensor x = random_input(cfg, 5);
  const Tensor y_q = q.block.forward(x, 0, nullptr, 0);
  const Tensor y_f = f.block.forward(x, 0, nullptr, 0);

  // Relative accuracy: int8 with dynamic activation scales should stay
  // within a few percent of the float block's output range.
  float range = 0.0f;
  for (const float v : y_f.span()) range = std::max(range, std::fabs(v));
  EXPECT_LE(Tensor::max_abs_diff(y_q, y_f), 0.05f * range) << "chips=" << n;
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, QuantFfnAccuracy, ::testing::Values(1, 2, 4, 8));

TEST(QuantFfn, BitExactAcrossTopologies) {
  // The int32 reduce makes the distributed result independent of tree
  // shape, bit for bit — the property float partials cannot offer.
  const auto cfg = ffn_config();
  const Weights w(cfg, 7);
  const Tensor x = random_input(cfg, 9);

  std::vector<std::vector<float>> outs;
  for (const auto& topo : {noc::Topology::hierarchical(8, 4),
                           noc::Topology::hierarchical(8, 2), noc::Topology::flat(8)}) {
    outs.push_back(block_outputs(Block(cfg, w, 8, topo, true), x));
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(outs[0], outs[2]);
}

TEST(QuantFfn, SingleChipMatchesMultiChipBits) {
  // Zero-duplication sharding + int32 accumulation: the 8-chip partial
  // sums must reproduce the 1-chip accumulator exactly (same products,
  // different order only), and so every output and KV bit.
  const auto cfg = ffn_config();
  const Weights w(cfg, 11);
  const Tensor x = random_input(cfg, 13);

  auto run = [&](int n) {
    return block_outputs(Block(cfg, w, n, noc::Topology::hierarchical(n, 4), true), x);
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(QuantFfn, RejectsSwiglu) {
  auto cfg = ffn_config();
  cfg.ffn = model::FfnKind::swiglu;
  runtime::DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 2;
  spec.precision = runtime::Precision::int8;
  EXPECT_THROW(runtime::InferenceSession{spec}, Error);

  const Weights w(cfg, 1);
  const auto plan = partition::PartitionPlan::create(cfg, 2);
  const partition::ShardedWeights shards(w, plan);
  EXPECT_THROW(Int8Weights(cfg, shards, kKvBits), Error);
}

TEST(QuantFfn, StackedGroupsMatchOneGroupForwardsBitForBit) {
  // Each row group keeps its own activation scales, and the int32 GEMM
  // sums every row on its own, so one stacked forward equals the groups
  // run one at a time — outputs and KV rows — even next to a group 100x
  // larger than the rest, whose absmax would swamp a stack-wide scale.
  auto cfg = ffn_config();
  cfg.num_layers = 2;
  cfg.ar_context = 16;
  cfg.validate();
  runtime::DeploymentSpec spec;
  spec.model = cfg;
  spec.chips = 3;
  spec.precision = runtime::Precision::int8;
  spec.kv_layout = runtime::KvLayout::int8;
  const runtime::InferenceSession s(spec);
  const int e = cfg.embed_dim;

  // Three requests: a decode row after a 3-row prefix, a 3-row chunk at
  // offset 2, and a fresh 2-row prompt scaled 100x.
  auto stacked = std::vector{s.make_chip_caches(cfg.ar_context),
                             s.make_chip_caches(cfg.ar_context),
                             s.make_chip_caches(cfg.ar_context)};
  auto alone = stacked;
  util::Rng rng(3);
  for (const auto& [request, rows] : {std::pair{0, 3}, std::pair{1, 2}}) {
    Tensor prefix(rows, e);
    prefix.random_init(rng, 1.0f);
    for (int l = 0; l < cfg.num_layers; ++l) {
      (void)s.forward(prefix, l, &stacked[static_cast<std::size_t>(request)], 0);
      (void)s.forward(prefix, l, &alone[static_cast<std::size_t>(request)], 0);
    }
  }
  const int rows[] = {1, 3, 2};
  const int pos[] = {3, 2, 0};
  Tensor x(6, e);
  x.random_init(rng, 1.0f);
  for (float& v : x.span().last(static_cast<std::size_t>(2 * e))) v *= 100.0f;

  for (int l = 0; l < cfg.num_layers; ++l) {
    std::vector<partition::RowGroup> groups;
    for (std::size_t g = 0; g < 3; ++g) groups.push_back({&stacked[g], pos[g], rows[g]});
    partition::ForwardWorkspace ws;
    Tensor y(6, e);
    s.forward(ws, x.span(), y.span(), groups, l);

    int row0 = 0;
    for (std::size_t g = 0; g < 3; ++g) {
      const Tensor yg =
          s.forward(x.slice_rows(row0, row0 + rows[g]), l, &alone[g], pos[g]);
      const Tensor ys = y.slice_rows(row0, row0 + rows[g]);
      EXPECT_EQ(std::vector<float>(ys.span().begin(), ys.span().end()),
                std::vector<float>(yg.span().begin(), yg.span().end()))
          << "layer " << l << " group " << g;
      row0 += rows[g];
    }
  }
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t c = 0; c < stacked[g].size(); ++c) {
      for (std::size_t l = 0; l < stacked[g][c].size(); ++l) {
        const model::KvCache& a = stacked[g][c][l];
        const model::KvCache& b = alone[g][c][l];
        ASSERT_EQ(a.length(), b.length());
        EXPECT_TRUE(std::equal(a.k().begin(), a.k().end(), b.k().begin()) &&
                    std::equal(a.v().begin(), a.v().end(), b.v().begin()))
            << "request " << g << " chip " << c << " layer " << l;
      }
    }
  }
}
