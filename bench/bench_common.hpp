#ifndef DISTMCU_BENCH_COMMON_HPP
#define DISTMCU_BENCH_COMMON_HPP

// Shared harness pieces for the per-figure benches: the Fig. 4-style
// runtime-breakdown sweep and small formatting helpers. Each bench
// prints the same rows/series the paper reports; the paper-fidelity
// ledger (ROADMAP.md item 5) is to record the measured values next to the
// paper's.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "energy/energy_model.hpp"
#include "model/config.hpp"
#include "partition/plan.hpp"
#include "runtime/timed_simulation.hpp"
#include "util/table.hpp"

namespace distmcu::bench {

/// Minimal JSON string escaping for the benches' emitters (quotes and
/// backslashes; emitted strings are config names and metric labels).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The benches' only CLI surface: `--json <path>` selects the
/// machine-readable output file. Returns the empty string when the flag
/// is absent; exits with a usage message on anything unrecognized.
inline std::string parse_json_flag(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      std::exit(2);
    }
  }
  return path;
}

struct SweepPoint {
  int chips = 1;
  runtime::RunReport report;
  energy::EnergyBreakdown energy;
  double speedup = 1.0;
};

/// Run the Fig. 4 sweep: one Transformer block per chip count.
inline std::vector<SweepPoint> sweep_chips(const model::TransformerConfig& cfg,
                                           model::Mode mode,
                                           const std::vector<int>& chip_counts,
                                           const runtime::SystemConfig& sys =
                                               runtime::SystemConfig::siracusa_system()) {
  const runtime::TimedBlockSimulation sim(sys);
  const energy::EnergyModel em(sys.chip, sys.link);
  std::vector<SweepPoint> out;
  double base = 0.0;
  for (const int n : chip_counts) {
    SweepPoint p;
    p.chips = n;
    p.report = sim.run(partition::PartitionPlan::create(cfg, n), mode);
    p.energy = em.compute(p.report);
    if (out.empty()) base = static_cast<double>(p.report.block_cycles);
    p.speedup = base / static_cast<double>(p.report.block_cycles);
    out.push_back(std::move(p));
  }
  return out;
}

/// Print the Fig. 4 panel: stacked runtime breakdown (cycles) per chip
/// count plus the speedup series against linear scaling.
inline void print_fig4_panel(const std::string& title,
                             const std::vector<SweepPoint>& points,
                             std::ostream& os = std::cout) {
  os << title << "\n";
  util::Table table({"chips", "residency", "runtime_cycles", "computation",
                     "dma_l3_l2", "dma_l2_l1", "chip_to_chip", "speedup",
                     "linear_scaling"});
  for (const auto& p : points) {
    table.row()
        .add(p.chips)
        .add(partition::residency_name(p.report.residency))
        .add(p.report.block_cycles)
        .add(p.report.breakdown.compute)
        .add(p.report.breakdown.dma_l3_l2)
        .add(p.report.breakdown.dma_l2_l1)
        .add(p.report.breakdown.c2c)
        .add(p.speedup, 2)
        .add(p.chips);
  }
  table.print(os);
  os << "\nCSV:\n";
  table.write_csv(os);
  os << "\n";
}

}  // namespace distmcu::bench

#endif  // DISTMCU_BENCH_COMMON_HPP
