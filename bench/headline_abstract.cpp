// Reproduces the paper's abstract/headline metrics side by side with our
// measurements:
//   * TinyLlama AR, 8 chips: 0.64 mJ, 0.54 ms per block, 26.1x speedup,
//     27.2x EDP improvement vs a single chip;
//   * TinyLlama prompt, 8 chips: 9.9x;
//   * MobileBERT, 4 chips: 38.8 ms runtime, 4.7x speedup;
//   * scaled-up model, 64 chips: 60.1x, 1.3x energy reduction.
// Absolute values depend on the substituted platform model; the bands
// checked here are the paper's qualitative claims (see the paper-fidelity
// ledger, ROADMAP.md item 5).
//
// --json <path> writes the rows machine-readably for CI artifacts.
// Stable schema (doubles round-trip exact; consumers key on "schema"
// and ignore unknown keys):
//
//   {"schema": "distmcu.headline.v1",
//    "metrics": [{"metric": "...", "paper": x, "measured": x,
//                 "band_pass": true|false}],
//    "all_bands_pass": true|false}
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"

using namespace distmcu;

namespace {
struct Row {
  const char* metric;
  double paper;
  double measured;
  bool pass;
};
}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  const auto sys = runtime::SystemConfig::siracusa_system();
  const double freq = sys.chip.freq_hz;
  const auto llama = model::TransformerConfig::tiny_llama_42m();
  const auto scaled = model::TransformerConfig::tiny_llama_scaled(64);
  const auto bert = model::TransformerConfig::mobile_bert();

  const auto ar = bench::sweep_chips(llama, model::Mode::autoregressive, {1, 8});
  const auto pr = bench::sweep_chips(llama, model::Mode::prompt, {1, 8});
  const auto mb = bench::sweep_chips(bert, model::Mode::prompt, {1, 4});
  const auto sc = bench::sweep_chips(scaled, model::Mode::autoregressive,
                                     {1, 16, 32, 64});

  const double ar_ms = util::cycles_to_ms(ar[1].report.block_cycles, freq);
  const double ar_mj = ar[1].energy.total_mj();
  const double edp1 = ar[0].energy.total_mj() *
                      util::cycles_to_ms(ar[0].report.block_cycles, freq);
  const double edp8 = ar_mj * ar_ms;
  const double mb_ms = util::cycles_to_ms(mb[1].report.block_cycles, freq);
  const double sc_energy_ratio =
      sc[1].energy.total_mj() / sc[3].energy.total_mj();  // 16-chip DB vs 64 resident

  std::vector<Row> rows{
      {"TinyLlama AR 8-chip energy/block [mJ]", 0.64, ar_mj,
       ar_mj > 0.3 && ar_mj < 1.3},
      {"TinyLlama AR 8-chip latency/block [ms]", 0.54, ar_ms,
       ar_ms > 0.25 && ar_ms < 1.1},
      {"TinyLlama AR speedup @8 [x]", 26.1, ar[1].speedup,
       ar[1].speedup > 16 && ar[1].speedup < 36},
      {"TinyLlama AR EDP improvement @8 [x]", 27.2, edp1 / edp8,
       edp1 / edp8 > 16 && edp1 / edp8 < 40},
      {"TinyLlama prompt speedup @8 [x]", 9.9, pr[1].speedup,
       pr[1].speedup > 8 && pr[1].speedup < 14},
      {"MobileBERT 4-chip runtime/block [ms]", 38.8, mb_ms,
       mb_ms > 19 && mb_ms < 80},
      {"MobileBERT speedup @4 [x]", 4.7, mb[1].speedup,
       mb[1].speedup > 3.8 && mb[1].speedup < 5.5},
      {"Scaled-up AR speedup @64 [x]", 60.1, sc[3].speedup,
       sc[3].speedup > 45 && sc[3].speedup < 64},
      {"Scaled-up energy reduction (resident vs DB) [x]", 1.3, sc_energy_ratio,
       sc_energy_ratio > 1.2},
  };

  std::cout << "Headline metrics — paper vs this reproduction\n";
  util::Table table({"metric", "paper", "measured", "band_check"});
  bool all = true;
  for (const auto& r : rows) {
    table.row().add(r.metric).add(r.paper, 2).add(r.measured, 2)
        .add(r.pass ? "PASS" : "FAIL");
    all = all && r.pass;
  }
  table.print(std::cout);
  std::cout << "\noverall: " << (all ? "ALL BANDS PASS" : "SOME BANDS FAIL")
            << "  (bands are tracked in ROADMAP.md item 5; absolute values use "
               "the substituted analytic platform model)\n";

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot open --json path " << json_path << "\n";
      return 2;
    }
    os.precision(17);
    os << "{\n  \"schema\": \"distmcu.headline.v1\",\n  \"metrics\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      os << (i == 0 ? "" : ",") << "\n    {\"metric\": \""
         << bench::json_escape(r.metric)
         << "\", \"paper\": " << r.paper << ", \"measured\": " << r.measured
         << ", \"band_pass\": " << (r.pass ? "true" : "false") << "}";
    }
    os << "\n  ],\n  \"all_bands_pass\": " << (all ? "true" : "false")
       << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
