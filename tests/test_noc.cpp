// Tests for the hierarchical topology, numeric collectives, and the timed
// collective executor (port serialization = the group-of-4 contention
// behaviour the paper's Fig. 1 is designed around).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "chip/chip_config.hpp"
#include "noc/collectives.hpp"
#include "noc/topology.hpp"
#include "sim/tracer.hpp"

using namespace distmcu;
using noc::CollectiveTimer;
using noc::LinkConfig;
using noc::Topology;

TEST(Topology, SingleChipHasNoStages) {
  const auto t = Topology::hierarchical(1, 4);
  EXPECT_TRUE(t.reduce_stages().empty());
  EXPECT_EQ(t.hops_per_reduce(), 0u);
}

TEST(Topology, EightChipsTwoStages) {
  const auto t = Topology::hierarchical(8, 4);
  ASSERT_EQ(t.reduce_stages().size(), 2u);
  // Stage 0: members -> leaders {0,4}; stage 1: leader 4 -> root 0.
  EXPECT_EQ(t.reduce_stages()[0].size(), 6u);
  EXPECT_EQ(t.reduce_stages()[1].size(), 1u);
  EXPECT_EQ(t.reduce_stages()[1][0].src, 4);
  EXPECT_EQ(t.reduce_stages()[1][0].dst, 0);
  EXPECT_EQ(t.root(), 0);
}

TEST(Topology, SixtyFourChipsThreeStages) {
  const auto t = Topology::hierarchical(64, 4);
  ASSERT_EQ(t.reduce_stages().size(), 3u);
  EXPECT_EQ(t.reduce_stages()[0].size(), 48u);
  EXPECT_EQ(t.reduce_stages()[1].size(), 12u);
  EXPECT_EQ(t.reduce_stages()[2].size(), 3u);
  EXPECT_EQ(t.hops_per_reduce(), 63u);
}

TEST(Topology, NonPowerOfTwoCounts) {
  for (int n : {2, 3, 5, 6, 7, 12, 17}) {
    const auto t = Topology::hierarchical(n, 4);
    EXPECT_EQ(t.hops_per_reduce(), static_cast<std::size_t>(n - 1)) << "n=" << n;
  }
}

TEST(Topology, BroadcastMirrorsReduce) {
  const auto t = Topology::hierarchical(8, 4);
  const auto bc = t.broadcast_stages();
  ASSERT_EQ(bc.size(), 2u);
  EXPECT_EQ(bc[0].size(), 1u);
  EXPECT_EQ(bc[0][0].src, 0);
  EXPECT_EQ(bc[0][0].dst, 4);
  EXPECT_EQ(bc[1].size(), 6u);
}

TEST(Topology, FlatIsSingleStage) {
  const auto t = Topology::flat(8);
  ASSERT_EQ(t.reduce_stages().size(), 1u);
  EXPECT_EQ(t.reduce_stages()[0].size(), 7u);
}

TEST(Topology, RejectsBadArguments) {
  EXPECT_THROW(Topology::hierarchical(0, 4), Error);
  EXPECT_THROW(Topology::hierarchical(4, 1), Error);
}

// --- numeric collectives -------------------------------------------------

class NumericCollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(NumericCollectiveTest, AllReduceSumsEveryChip) {
  const int n = GetParam();
  const auto topo = Topology::hierarchical(n, 4);
  const std::size_t len = 64;
  std::vector<std::vector<int>> storage(static_cast<std::size_t>(n));
  std::vector<std::span<int>> views;
  int expected = 0;
  for (int c = 0; c < n; ++c) {
    storage[static_cast<std::size_t>(c)].assign(len, c + 1);
    expected += c + 1;
    views.emplace_back(storage[static_cast<std::size_t>(c)]);
  }
  noc::all_reduce_numeric(topo, views);
  for (int c = 0; c < n; ++c) {
    for (const int v : storage[static_cast<std::size_t>(c)]) {
      ASSERT_EQ(v, expected) << "chip " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, NumericCollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 32, 64));

TEST(NumericCollective, FlatAndHierarchicalAgree) {
  const std::size_t len = 16;
  auto run = [&](const Topology& topo) {
    std::vector<std::vector<int>> storage(8);
    std::vector<std::span<int>> views;
    for (int c = 0; c < 8; ++c) {
      storage[static_cast<std::size_t>(c)].assign(len, 3 * c + 7);
      views.emplace_back(storage[static_cast<std::size_t>(c)]);
    }
    noc::all_reduce_numeric(topo, views);
    return storage[0];
  };
  EXPECT_EQ(run(Topology::hierarchical(8, 4)), run(Topology::flat(8)));
}

TEST(NumericCollective, FloatReduceMatchesSequentialSum) {
  const auto topo = Topology::hierarchical(4, 4);
  std::vector<std::vector<float>> storage(4);
  std::vector<std::span<float>> views;
  for (int c = 0; c < 4; ++c) {
    storage[static_cast<std::size_t>(c)] = {0.5f * static_cast<float>(c), 1.0f};
    views.emplace_back(storage[static_cast<std::size_t>(c)]);
  }
  noc::reduce_numeric(topo, views);
  EXPECT_FLOAT_EQ(storage[0][0], 0.0f + 0.5f + 1.0f + 1.5f);
  EXPECT_FLOAT_EQ(storage[0][1], 4.0f);
}

TEST(NumericCollective, SizeMismatchThrows) {
  const auto topo = Topology::hierarchical(2, 4);
  std::vector<int> a(4), b(5);
  std::vector<std::span<int>> views{std::span<int>(a), std::span<int>(b)};
  EXPECT_THROW(noc::reduce_numeric(topo, views), Error);
}

// --- timed collectives ---------------------------------------------------

namespace {
LinkConfig test_link() {
  LinkConfig l;
  l.bandwidth_bytes_per_cycle = 1.0;
  l.setup_cycles = 100;
  l.energy_pj_per_byte = 100.0;
  return l;
}
}  // namespace

TEST(CollectiveTimer, GroupMembersSerializeOnLeaderIngress) {
  const auto topo = Topology::hierarchical(4, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  const std::vector<Cycles> ready(4, 0);
  const auto r = timer.reduce(ready, 1000);
  // Three hops into chip 0's ingress port: at least 3*(100+1000) cycles
  // of pure link time plus accumulation.
  EXPECT_GE(r.finish, 3u * 1100u);
  EXPECT_EQ(r.num_transfers, 3u);
  EXPECT_EQ(r.c2c_bytes, 3000u);
  EXPECT_GT(r.accumulate_compute, 0u);
}

TEST(CollectiveTimer, ReduceWaitsForLateChips) {
  const auto topo = Topology::hierarchical(2, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  const auto r = timer.reduce({0, 5000}, 100);
  EXPECT_GE(r.finish, 5000u + 100u + 100u);
}

TEST(CollectiveTimer, BroadcastReachesAllChips) {
  const auto topo = Topology::hierarchical(8, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  const auto b = timer.broadcast(0, 512);
  EXPECT_EQ(b.chip_ready.size(), 8u);
  EXPECT_EQ(b.chip_ready[0], 0u);  // root already holds the data
  for (std::size_t c = 1; c < b.chip_ready.size(); ++c) EXPECT_GT(b.chip_ready[c], 0u);
  EXPECT_EQ(b.num_transfers, 7u);
  EXPECT_EQ(b.c2c_bytes, 7u * 512u);
  EXPECT_EQ(b.accumulate_compute, 0u);
}

TEST(CollectiveTimer, BroadcastFollowsTheMirroredSchedule) {
  // The timer walks the reduce stages in reverse instead of copying
  // broadcast_stages(); its hops must still come out in mirror order.
  for (const Topology& topo : {Topology::hierarchical(11, 3), Topology::hierarchical(64, 4),
                               Topology::hierarchical(9, 2), Topology::flat(5)}) {
    CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
    sim::Tracer tracer;
    (void)timer.broadcast(0, 64, &tracer);
    std::vector<int> mirrored;
    for (const auto& stage : topo.broadcast_stages()) {
      for (const auto& hop : stage) mirrored.push_back(hop.dst);
    }
    std::vector<int> traced;
    for (const auto& span : tracer.spans()) traced.push_back(span.chip);
    EXPECT_EQ(traced, mirrored) << topo.num_chips() << " chips";
  }
}

TEST(CollectiveTimer, HierarchicalBeatsFlatForManyChips) {
  // The motivation for groups of four (paper Sec. IV): an all-to-one
  // reduce serializes N-1 transfers on the root ingress, the hierarchy
  // parallelizes groups.
  const Bytes bytes = 4096;
  const std::vector<Cycles> ready(32, 0);
  CollectiveTimer hier(Topology::hierarchical(32, 4), test_link(),
                       chip::ChipConfig::siracusa().timing);
  CollectiveTimer flat(Topology::flat(32), test_link(),
                       chip::ChipConfig::siracusa().timing);
  const auto rh = hier.reduce(ready, bytes);
  const auto rf = flat.reduce(ready, bytes);
  EXPECT_LT(rh.finish, rf.finish);
}

TEST(CollectiveTimer, SingleChipIsFree) {
  const auto topo = Topology::hierarchical(1, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  const auto r = timer.reduce({42}, 1 << 20);
  EXPECT_EQ(r.finish, 42u);
  EXPECT_EQ(r.c2c_bytes, 0u);
  const auto b = timer.broadcast(42, 1 << 20);
  EXPECT_EQ(b.finish, 42u);
}

TEST(CollectiveTimer, TracerRecordsC2CSpans) {
  const auto topo = Topology::hierarchical(4, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  sim::Tracer tracer;
  const std::vector<Cycles> ready(4, 0);
  timer.reduce(ready, 256, &tracer);
  EXPECT_EQ(tracer.total_bytes(sim::Category::chip_to_chip), 3u * 256u);
  EXPECT_GT(tracer.total(0, sim::Category::compute), 0u);  // accumulates on root
}

TEST(CollectiveTimer, BackToBackCollectivesContend) {
  const auto topo = Topology::hierarchical(4, 4);
  CollectiveTimer timer(topo, test_link(), chip::ChipConfig::siracusa().timing);
  const std::vector<Cycles> ready(4, 0);
  const auto first = timer.reduce(ready, 1000);
  // Issuing the same reduce again with ready=0 must queue behind the
  // first one's port occupancy.
  const auto second = timer.reduce(ready, 1000);
  EXPECT_GT(second.finish, first.finish);
  timer.reset();
  const auto third = timer.reduce(ready, 1000);
  EXPECT_EQ(third.finish, first.finish);
}
