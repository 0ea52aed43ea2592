#ifndef DISTMCU_RUNTIME_TIMED_SIMULATION_HPP
#define DISTMCU_RUNTIME_TIMED_SIMULATION_HPP

#include <vector>

#include "chip/chip_config.hpp"
#include "mem/traffic.hpp"
#include "model/config.hpp"
#include "noc/topology.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "runtime/block_program.hpp"
#include "sim/tracer.hpp"
#include "util/units.hpp"

namespace distmcu::runtime {

/// How block latency is reported (DESIGN.md "Calibration decisions"):
///  * single_block_resident — the paper's methodology: one block's
///    latency with its weights staged in L2; the next-block prefetch is
///    charged to energy and traffic but not to latency;
///  * steady_state — the latency of a block in a long-running inference,
///    where a double-buffered block cannot finish before its successor's
///    prefetch completes (exposed by the A2 ablation bench).
enum class LatencyAccounting { single_block_resident, steady_state };

/// Full multi-chip system description.
struct SystemConfig {
  chip::ChipConfig chip = chip::ChipConfig::siracusa();
  noc::LinkConfig link;
  int group_size = 4;  // hierarchical reduce fan-in (paper Fig. 1)
  partition::PrecisionConfig precision;
  LatencyAccounting accounting = LatencyAccounting::single_block_resident;
  bool flat_topology = false;  // ablation: all-to-one reduce

  /// The paper's platform: a network of Siracusa chips with MIPI links.
  [[nodiscard]] static SystemConfig siracusa_system();
};

/// Runtime attribution in the categories of the paper's Fig. 4 stacked
/// bars. Sums exactly to the block latency.
struct Breakdown {
  Cycles compute = 0;
  Cycles dma_l3_l2 = 0;
  Cycles dma_l2_l1 = 0;
  Cycles c2c = 0;

  [[nodiscard]] Cycles total() const { return compute + dma_l3_l2 + dma_l2_l1 + c2c; }
};

/// Everything one simulated block execution produces; the energy model
/// consumes traffic + per-chip compute time, the benches consume the
/// rest.
struct RunReport {
  int num_chips = 1;
  model::Mode mode = model::Mode::autoregressive;
  partition::Residency residency = partition::Residency::streamed;

  Cycles block_cycles = 0;
  Breakdown breakdown;

  /// Bytes moved, summed over all chips (l3_l2 includes prefetch).
  mem::TrafficCounter traffic;
  /// Next-block prefetch portion of traffic.l3_l2.
  Bytes prefetch_bytes = 0;

  /// Active cluster cycles per chip — the T_comp,j of the paper's
  /// energy equation.
  std::vector<Cycles> t_comp;

  [[nodiscard]] Cycles t_comp_total() const;
  [[nodiscard]] double ms(double freq_hz) const {
    return util::cycles_to_ms(block_cycles, freq_hz);
  }
};

/// Replays a BlockProgram against the platform model: kernel-cycle costs
/// from chip::KernelTiming, synchronous L3 tile fetches in the streamed
/// regime, L2->L1 tile DMA overlapped with compute, and the hierarchical
/// collectives with port contention. Chips whose op lists share a cost
/// shape are priced once per phase. Optionally records spans into a
/// tracer for timeline inspection; traced and untraced runs share the
/// same priced ops and return the same report.
class TimedBlockSimulation {
 public:
  explicit TimedBlockSimulation(SystemConfig sys);

  /// `attention_span_override` (see build_block_program) costs a prompt
  /// chunk that attends to a cached prefix longer than its own rows; 0
  /// keeps the mode-derived span.
  [[nodiscard]] RunReport run(const partition::PartitionPlan& plan, model::Mode mode,
                              sim::Tracer* tracer = nullptr,
                              int attention_span_override = 0) const;

  [[nodiscard]] const SystemConfig& system() const { return sys_; }

 private:
  SystemConfig sys_;
};

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_TIMED_SIMULATION_HPP
