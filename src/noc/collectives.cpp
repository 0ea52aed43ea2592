#include "noc/collectives.hpp"

#include <algorithm>
#include <utility>

namespace distmcu::noc {

CollectiveTimer::CollectiveTimer(Topology topo, const LinkConfig& link,
                                 const chip::TimingConfig& timing)
    : topo_(std::move(topo)), link_(link), timing_(timing) {
  // Every port shares the link's bandwidth and setup cost, so ports are
  // named by direction only.
  const auto n = static_cast<std::size_t>(topo_.num_chips());
  in_ports_.assign(n, sim::Resource("c2c_in", link.bandwidth_bytes_per_cycle,
                                    link.setup_cycles));
  out_ports_.assign(n, sim::Resource("c2c_out", link.bandwidth_bytes_per_cycle,
                                     link.setup_cycles));
}

CollectiveTiming CollectiveTimer::reduce(const std::vector<Cycles>& ready, Bytes bytes,
                                         sim::Tracer* tracer) {
  DISTMCU_CHECK(ready.size() == static_cast<std::size_t>(topo_.num_chips()),
              "CollectiveTimer::reduce: ready size != chip count");
  CollectiveTiming out;
  out.chip_ready = ready;
  out.accumulate_per_chip.assign(static_cast<std::size_t>(topo_.num_chips()), 0);

  // Elements to accumulate per hop: the partial buffers are activation
  // tensors; the accumulate cost model only needs the element count, and
  // collective payloads use the activation precision (1 B) so bytes ==
  // elements. Using bytes directly keeps the timer precision-agnostic.
  const auto acc = timing_.accumulate(static_cast<std::int64_t>(std::max<Bytes>(bytes, 1)), 1);

  for (const auto& stage : topo_.reduce_stages()) {
    for (const auto& hop : stage) {
      auto& src_out = out_ports_[static_cast<std::size_t>(hop.src)];
      auto& dst_in = in_ports_[static_cast<std::size_t>(hop.dst)];
      const Cycles src_ready = out.chip_ready[static_cast<std::size_t>(hop.src)];
      const Cycles start =
          std::max(src_out.earliest_start(src_ready), dst_in.earliest_start(src_ready));
      src_out.occupy(start, bytes);
      const Cycles arrived = dst_in.occupy(start, bytes);
      // The destination folds the incoming partial into its own buffer;
      // it must have produced its own partial first.
      const Cycles acc_start =
          std::max(arrived, out.chip_ready[static_cast<std::size_t>(hop.dst)]);
      const Cycles acc_done = acc_start + acc.compute_cycles + acc.overhead_cycles;
      out.chip_ready[static_cast<std::size_t>(hop.dst)] = acc_done;
      out.c2c_bytes += bytes;
      ++out.num_transfers;
      out.accumulate_compute += acc.compute_cycles;
      out.accumulate_per_chip[static_cast<std::size_t>(hop.dst)] += acc.compute_cycles;
      if (tracer != nullptr) {
        tracer->record(hop.dst, sim::Category::chip_to_chip, start, arrived, bytes,
                       "reduce hop");
        tracer->record(hop.dst, sim::Category::compute, acc_start, acc_done, 0,
                       "reduce accumulate");
      }
    }
  }
  out.finish = out.chip_ready[static_cast<std::size_t>(topo_.root())];
  return out;
}

CollectiveTiming CollectiveTimer::broadcast(Cycles root_ready, Bytes bytes,
                                            sim::Tracer* tracer) {
  CollectiveTiming out;
  out.chip_ready.assign(static_cast<std::size_t>(topo_.num_chips()), root_ready);
  out.accumulate_per_chip.assign(static_cast<std::size_t>(topo_.num_chips()), 0);

  // The mirrored schedule: reduce stages in reverse, each hop's ends
  // swapped (Topology::broadcast_stages() without materializing it).
  const auto& stages = topo_.reduce_stages();
  for (auto stage = stages.rbegin(); stage != stages.rend(); ++stage) {
    for (const auto& hop : *stage) {
      const int from = hop.dst;
      const int to = hop.src;
      auto& src_out = out_ports_[static_cast<std::size_t>(from)];
      auto& dst_in = in_ports_[static_cast<std::size_t>(to)];
      const Cycles src_ready = out.chip_ready[static_cast<std::size_t>(from)];
      const Cycles start =
          std::max(src_out.earliest_start(src_ready), dst_in.earliest_start(src_ready));
      src_out.occupy(start, bytes);
      const Cycles arrived = dst_in.occupy(start, bytes);
      out.chip_ready[static_cast<std::size_t>(to)] = arrived;
      out.c2c_bytes += bytes;
      ++out.num_transfers;
      if (tracer != nullptr) {
        tracer->record(to, sim::Category::chip_to_chip, start, arrived, bytes,
                       "broadcast hop");
      }
    }
  }
  out.finish = *std::max_element(out.chip_ready.begin(), out.chip_ready.end());
  return out;
}

void CollectiveTimer::reset() {
  for (auto& p : in_ports_) p.reset();
  for (auto& p : out_ports_) p.reset();
}

}  // namespace distmcu::noc
