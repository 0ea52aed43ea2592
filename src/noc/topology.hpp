#ifndef DISTMCU_NOC_TOPOLOGY_HPP
#define DISTMCU_NOC_TOPOLOGY_HPP

#include <vector>

#include "util/units.hpp"

namespace distmcu::noc {

/// MIPI chip-to-chip link parameters (paper Sec. II-B / V-A): 0.5 GB/s
/// (1 B per 500 MHz cycle), 100 pJ/B, plus a per-transfer setup cost for
/// link wake-up / packetization / handshake (~4 us; calibration
/// constant, swept by the all-reduce ablation bench).
struct LinkConfig {
  double bandwidth_bytes_per_cycle = 1.0;
  Cycles setup_cycles = 2000;
  double energy_pj_per_byte = 100.0;
};

/// One point-to-point hop in a collective stage.
struct Transfer {
  int src = 0;
  int dst = 0;
};

/// A stage is a set of transfers that are logically concurrent; hops
/// sharing a destination serialize on the destination's ingress port at
/// simulation time (Resource arbitration), not in the schedule itself.
using Stage = std::vector<Transfer>;

/// Hierarchical reduction topology in groups of `group_size` (paper
/// Fig. 1: groups of four for improved scalability). Chips are grouped
/// consecutively; the first chip of each group is the group leader; the
/// leaders recursively form the next level until a single root (chip 0)
/// remains.
///
/// `reduce_stages()` sends members toward leaders level by level;
/// `broadcast_stages()` is the exact mirror. An all-reduce is a reduce
/// followed by a broadcast — the paper's two synchronizations per
/// Transformer block are two such all-reduces.
class Topology {
 public:
  /// Builds the hierarchy for `n_chips` >= 1 (any count, not just powers
  /// of two; trailing partial groups are allowed). `group_size` >= 2.
  [[nodiscard]] static Topology hierarchical(int n_chips, int group_size = 4);

  /// Flat all-to-one topology (the non-scalable alternative the paper
  /// rejects; kept for the ablation bench).
  [[nodiscard]] static Topology flat(int n_chips);

  [[nodiscard]] int num_chips() const { return num_chips_; }
  [[nodiscard]] int group_size() const { return group_size_; }
  [[nodiscard]] int root() const { return 0; }

  [[nodiscard]] const std::vector<Stage>& reduce_stages() const { return reduce_stages_; }
  /// The mirrored schedule as a copy. The collectives walk
  /// reduce_stages() in reverse instead; tests compare against this.
  [[nodiscard]] std::vector<Stage> broadcast_stages() const;

  /// Total number of point-to-point hops in one reduce (== one
  /// broadcast). For a hierarchy this is n_chips - 1.
  [[nodiscard]] std::size_t hops_per_reduce() const;

 private:
  Topology(int n_chips, int group_size, std::vector<Stage> stages);

  int num_chips_;
  int group_size_;
  std::vector<Stage> reduce_stages_;
};

}  // namespace distmcu::noc

#endif  // DISTMCU_NOC_TOPOLOGY_HPP
