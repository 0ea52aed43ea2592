// Golden pin of TimedBlockSimulation::run: the full RunReport over a grid
// of models, chip counts (even and uneven head splits), modes, attention
// spans, reduction topologies, L2 sizes and latency-accounting modes is
// compared field by field against values recorded from the reference
// implementation. Unlike the self-consistency properties (breakdown sums,
// traffic conservation), this catches any change to the numbers the cost
// model produces. A traced run must return the same report as an
// untraced one, and a few Chrome traces are pinned by content hash so
// span labels and timestamps stay byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "runtime/timed_simulation.hpp"
#include "sim/trace_export.hpp"
#include "sim/tracer.hpp"

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using partition::PartitionPlan;
using runtime::LatencyAccounting;
using runtime::RunReport;
using runtime::SystemConfig;
using runtime::TimedBlockSimulation;

namespace {

/// Half the Siracusa L2: pushes each pair one residency regime down
/// (fully resident -> double-buffered -> streamed) while every block
/// still fits in the streamed regime.
constexpr Bytes kSmallL2 = 1024 * 1024ull;

struct GoldenCase {
  const char* model;
  int chips;
  Mode mode;
  int span_override;  // 0: mode-derived attention span
  int group_size;     // 0: flat topology
  Bytes l2_size;      // 0: the Siracusa default
  LatencyAccounting accounting;
};

TransformerConfig model_by_name(const std::string& name) {
  if (name == "mobilebert") return TransformerConfig::mobile_bert();
  if (name == "scaled64") return TransformerConfig::tiny_llama_scaled(64);
  return TransformerConfig::tiny_llama_42m();
}

SystemConfig system_for(const GoldenCase& gc) {
  SystemConfig sys = SystemConfig::siracusa_system();
  if (gc.group_size == 0) {
    sys.flat_topology = true;
  } else {
    sys.group_size = gc.group_size;
  }
  if (gc.l2_size != 0) sys.chip.l2_size = gc.l2_size;
  sys.accounting = gc.accounting;
  return sys;
}

/// The grid: every (model, chips) pair — uneven splits give two op-list
/// shapes — in both modes and both accounting modes on the default
/// system; then each pair under the other reduction topologies, under a
/// small L2 (streamed and double-buffered regimes), and with a widened
/// attention span.
std::vector<GoldenCase> golden_grid() {
  struct Pair {
    const char* model;
    int chips;
  };
  const Pair pairs[] = {{"tinyllama", 3},  {"tinyllama", 5},  {"tinyllama", 7},
                        {"tinyllama", 8},  {"mobilebert", 3}, {"mobilebert", 4},
                        {"scaled64", 24},  {"scaled64", 40},  {"scaled64", 63}};
  const Mode modes[] = {Mode::autoregressive, Mode::prompt};
  const LatencyAccounting accountings[] = {LatencyAccounting::single_block_resident,
                                           LatencyAccounting::steady_state};
  std::vector<GoldenCase> grid;
  for (const Pair& p : pairs) {
    for (const Mode m : modes) {
      for (const LatencyAccounting acc : accountings) {
        grid.push_back({p.model, p.chips, m, 0, 4, 0, acc});
        grid.push_back({p.model, p.chips, m, 0, 4, kSmallL2, acc});
      }
      for (const int g : {2, 3, 8, 0}) {
        grid.push_back({p.model, p.chips, m, 0, g, 0,
                        LatencyAccounting::single_block_resident});
      }
      const TransformerConfig cfg = model_by_name(p.model);
      const int rows = m == Mode::prompt ? cfg.prompt_len : 1;
      grid.push_back({p.model, p.chips, m, rows + 40, 4, 0,
                      LatencyAccounting::single_block_resident});
    }
  }
  return grid;
}

std::string case_key(const GoldenCase& gc) {
  std::ostringstream os;
  os << gc.model << " c" << gc.chips << ' ' << model::mode_name(gc.mode);
  if (gc.span_override != 0) os << " span" << gc.span_override;
  if (gc.group_size == 0) {
    os << " flat";
  } else {
    os << " g" << gc.group_size;
  }
  if (gc.l2_size != 0) os << " l2=" << gc.l2_size / 1024 << "K";
  os << (gc.accounting == LatencyAccounting::steady_state ? " steady" : " single");
  return os.str();
}

/// Every pinned RunReport field on one line. Per-chip t_comp is
/// run-length encoded as value*count runs.
std::string digest(const RunReport& r) {
  std::ostringstream os;
  os << partition::residency_name(r.residency) << " blk=" << r.block_cycles
     << " bd=" << r.breakdown.compute << '/' << r.breakdown.dma_l3_l2 << '/'
     << r.breakdown.dma_l2_l1 << '/' << r.breakdown.c2c << " tr=" << r.traffic.l2_l1
     << '/' << r.traffic.l3_l2 << '/' << r.traffic.c2c << " pf=" << r.prefetch_bytes
     << " tc=";
  for (std::size_t i = 0; i < r.t_comp.size();) {
    std::size_t j = i;
    while (j < r.t_comp.size() && r.t_comp[j] == r.t_comp[i]) ++j;
    if (i != 0) os << ',';
    os << r.t_comp[i];
    if (j - i > 1) os << '*' << (j - i);
    i = j;
  }
  return os.str();
}

RunReport run_case(const GoldenCase& gc, sim::Tracer* tracer = nullptr) {
  const PartitionPlan plan = PartitionPlan::create(model_by_name(gc.model), gc.chips);
  return TimedBlockSimulation(system_for(gc)).run(plan, gc.mode, tracer, gc.span_override);
}

/// FNV-1a over the exported Chrome trace.
std::uint64_t trace_hash(const sim::Tracer& tracer) {
  std::ostringstream os;
  sim::write_chrome_trace(tracer, 500e6, os);
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

const char* const kGolden[] = {
#include "timed_simulation_golden.inc"
};

}  // namespace

TEST(TimedSimulationGolden, GridCoversEveryRegime) {
  bool seen[3] = {false, false, false};
  for (const GoldenCase& gc : golden_grid()) {
    seen[static_cast<int>(run_case(gc).residency)] = true;
  }
  EXPECT_TRUE(seen[static_cast<int>(partition::Residency::streamed)]);
  EXPECT_TRUE(seen[static_cast<int>(partition::Residency::double_buffered)]);
  EXPECT_TRUE(seen[static_cast<int>(partition::Residency::fully_resident)]);
}

TEST(TimedSimulationGolden, RunReportMatchesPinnedValues) {
  const std::vector<GoldenCase> grid = golden_grid();
  ASSERT_EQ(grid.size(), std::size(kGolden));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string line = case_key(grid[i]) + " | " + digest(run_case(grid[i]));
    EXPECT_EQ(line, kGolden[i]) << "golden case " << i;
  }
}

TEST(TimedSimulationGolden, TracedRunReturnsTheSameReport) {
  for (const GoldenCase& gc : golden_grid()) {
    sim::Tracer tracer;
    EXPECT_EQ(digest(run_case(gc, &tracer)), digest(run_case(gc))) << case_key(gc);
    sim::Tracer counters = sim::Tracer::counters_only();
    EXPECT_EQ(digest(run_case(gc, &counters)), digest(run_case(gc))) << case_key(gc);
  }
}

TEST(TimedSimulationGolden, TraceBytesArePinned) {
  struct Pinned {
    GoldenCase gc;
    std::uint64_t hash;
  };
  const Pinned pinned[] = {
      {{"tinyllama", 3, Mode::autoregressive, 0, 4, 0,
        LatencyAccounting::single_block_resident},
       0xad5df38decbbb838ull},
      {{"mobilebert", 3, Mode::prompt, 0, 4, kSmallL2, LatencyAccounting::steady_state},
       0xe9a62f870349adafull},
      {{"scaled64", 40, Mode::prompt, 0, 3, kSmallL2,
        LatencyAccounting::single_block_resident},
       0xe5d7ca81108b00e7ull},
      {{"scaled64", 63, Mode::autoregressive, 200, 0, 0,
        LatencyAccounting::single_block_resident},
       0x32047a59b2d1241eull},
  };
  for (const Pinned& p : pinned) {
    sim::Tracer tracer;
    (void)run_case(p.gc, &tracer);
    EXPECT_EQ(trace_hash(tracer), p.hash) << case_key(p.gc);
  }
}
