#ifndef DISTMCU_NOC_COLLECTIVES_HPP
#define DISTMCU_NOC_COLLECTIVES_HPP

#include <span>
#include <vector>

#include "chip/kernel_timing.hpp"
#include "noc/topology.hpp"
#include "sim/resource.hpp"
#include "sim/tracer.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace distmcu::noc {

/// ---------------------------------------------------------------------
/// Numeric collectives
/// ---------------------------------------------------------------------
/// These execute the hierarchical schedule on real per-chip buffers and
/// are used by the functional distributed block. Accumulation follows
/// the schedule order, so results are bit-deterministic; with integer
/// element types they are also reduction-order invariant, which the
/// property tests exploit.

/// Reduce all chip buffers into the root's buffer (dst += src per hop).
template <typename T>
void reduce_numeric(const Topology& topo, std::vector<std::span<T>>& buffers) {
  DISTMCU_CHECK(buffers.size() == static_cast<std::size_t>(topo.num_chips()),
              "reduce_numeric: buffer count != chip count");
  for (const auto& stage : topo.reduce_stages()) {
    for (const auto& hop : stage) {
      auto& dst = buffers[static_cast<std::size_t>(hop.dst)];
      const auto& src = buffers[static_cast<std::size_t>(hop.src)];
      DISTMCU_CHECK(dst.size() == src.size(), "reduce_numeric: buffer size mismatch");
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
    }
  }
}

/// Copy the root's buffer to every chip along the mirrored schedule:
/// the reduce stages walked in reverse with each hop's ends swapped
/// (Topology::broadcast_stages() without materializing the copy).
template <typename T>
void broadcast_numeric(const Topology& topo, std::vector<std::span<T>>& buffers) {
  DISTMCU_CHECK(buffers.size() == static_cast<std::size_t>(topo.num_chips()),
              "broadcast_numeric: buffer count != chip count");
  const auto& stages = topo.reduce_stages();
  for (auto stage = stages.rbegin(); stage != stages.rend(); ++stage) {
    for (const auto& hop : *stage) {
      auto& dst = buffers[static_cast<std::size_t>(hop.src)];
      const auto& src = buffers[static_cast<std::size_t>(hop.dst)];
      DISTMCU_CHECK(dst.size() == src.size(), "broadcast_numeric: buffer size mismatch");
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
    }
  }
}

/// All-reduce: reduce to root then broadcast back. After the call every
/// chip holds the full sum.
template <typename T>
void all_reduce_numeric(const Topology& topo, std::vector<std::span<T>>& buffers) {
  reduce_numeric(topo, buffers);
  broadcast_numeric(topo, buffers);
}

/// ---------------------------------------------------------------------
/// Timed collectives
/// ---------------------------------------------------------------------

/// Timing outcome of one collective phase.
struct CollectiveTiming {
  /// When the result is available: at the root (reduce) or on the last
  /// chip (broadcast).
  Cycles finish = 0;
  /// Per-chip availability of the collective's result/contribution.
  std::vector<Cycles> chip_ready;
  /// Bytes that crossed chip-to-chip links (counted once per hop).
  Bytes c2c_bytes = 0;
  std::size_t num_transfers = 0;
  /// Total cluster-active cycles spent accumulating partial sums,
  /// summed over chips (feeds the P*T_comp energy term).
  Cycles accumulate_compute = 0;
  /// Per-chip share of `accumulate_compute` (accumulation runs on the
  /// hop destinations — group leaders and the root).
  std::vector<Cycles> accumulate_per_chip;
};

/// Replays a Topology's reduce/broadcast schedule against per-chip
/// ingress/egress link ports (sim::Resource), so that hops sharing a
/// port serialize exactly as the paper describes for the group-of-four
/// reduction ("sending all partial outputs to one specific chip of the
/// group"). Port occupancy persists across calls, making back-to-back
/// collectives on the same links contend realistically.
class CollectiveTimer {
 public:
  CollectiveTimer(Topology topo, const LinkConfig& link, const chip::TimingConfig& timing);

  /// Time a reduce of `bytes` per partial buffer. `ready[i]` is the cycle
  /// chip i's partial output becomes available. Optionally traces
  /// chip-to-chip spans (attributed to the destination chip) and
  /// accumulate spans.
  CollectiveTiming reduce(const std::vector<Cycles>& ready, Bytes bytes,
                          sim::Tracer* tracer = nullptr);

  /// Time a broadcast of `bytes` from the root, ready at `root_ready`.
  CollectiveTiming broadcast(Cycles root_ready, Bytes bytes,
                             sim::Tracer* tracer = nullptr);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const LinkConfig& link() const { return link_; }

  /// Release all port reservations (new measurement window).
  void reset();

 private:
  Topology topo_;
  LinkConfig link_;
  chip::KernelTiming timing_;
  std::vector<sim::Resource> in_ports_;
  std::vector<sim::Resource> out_ports_;
};

}  // namespace distmcu::noc

#endif  // DISTMCU_NOC_COLLECTIVES_HPP
