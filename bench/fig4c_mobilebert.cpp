// Reproduces paper Fig. 4(c): MobileBERT encoder (S=268) on 1-4 chips.
//
// Paper's headline for this panel: 4.7x speedup at 4 chips from the
// suppression of off-chip transfers to L3. Our platform model lands at
// ~4x (gap analysis pending in ROADMAP.md item 5: the serialized MIPI
// ingress of the 134-KiB partial-output payloads costs more here than in
// the paper's measurement).
#include <iostream>

#include "bench_common.hpp"

using namespace distmcu;

int main() {
  const auto cfg = model::TransformerConfig::mobile_bert();
  const auto points = bench::sweep_chips(cfg, model::Mode::prompt, {1, 2, 4});
  bench::print_fig4_panel("Fig. 4(c) — MobileBERT encoder (S=268), one block", points);

  const auto& p4 = points.back();
  std::cout << "paper reports: 4.7x at 4 chips (super-linear)\n"
            << "measured:      " << p4.speedup << "x at 4 chips\n"
            << "shape check:   "
            << (p4.speedup > 3.8 && points[1].speedup < 2.0 ? "PASS" : "FAIL")
            << " (crossover at 4 chips; 1-2 chips L3-streamed)\n";
  return 0;
}
