// Quantized serving envelope: the SAME burst workload through three
// single-tenant deployments at IDENTICAL total KV pool bytes —
//   fp16     : float block, 16-bit KV entries (the fidelity baseline),
//   int8     : A8W8 quantized block, packed 8-bit KV entries,
//   int8+kv4 : A8W8 block with packed 4-bit KV entries —
// plus a mixed registry (fp16 TinyLlama next to an int8 MobileBERT
// encoder) sharing one arena. Every tenant is registered through the
// unified DeploymentSpec surface; precision is a property of the
// deployment, not of the call sites.
//
// What the bench demonstrates (and self-gates):
//   * capacity: at equal KV pool bytes the int8 layout admits >= 2x the
//     fp16 layout's concurrent requests (peak_batch) and int4 >= 4x —
//     pages cost proportionally fewer bytes, so the same silicon
//     holds more resident requests;
//   * envelope: tokens/s and mJ/token per config from the per-precision
//     cost model (1-byte weights and int8-rate MACs for int8 tenants);
//   * bit-exactness: every served stream matches the dedicated
//     single-request InferenceSession::generate of the same spec;
//   * invariance: the int8 token streams are bit-identical on 2 and 4
//     chips and across reduction tree shapes (flat vs hierarchical) —
//     the int32 all-reduce carries exact partials, so the deployment
//     can be re-sharded without changing a single token;
//   * conservation: the mixed registry's per-model stats partition the
//     engine totals exactly (tokens, cycles, energy) and no KV unit
//     leaks after the drain.
//
// --json <path> writes the machine-readable result used by the CI
// perf-regression gate (tools/check_bench_regression.py compares it
// against bench/baselines/quant_baseline.json). Stable schema:
//
//   {
//     "schema": "distmcu.quant.v1",
//     "freq_hz": F,
//     "model": {"name": "...", "chips": n, "ar_context": n,
//               "prompt_len": n, "chunk": n},
//     "jobs": n,
//     "kv_pool_bytes": N,          // identical across the three configs
//     "configs": [
//       {"config": "fp16" | "int8" | "int8+kv4",
//        "precision": "fp16" | "int8", "kv_layout": "...",
//        "kv_elem_bits": n, "kv_units": n,
//        "peak_batch": n, "completed": n, "total_cycles": n,
//        "tokens_per_s": x, "mj_per_token": x,
//        "bit_exact": true, "units_leaked": 0}],
//     "int8_capacity_gain_vs_fp16": x,   // >= 2.0 gated in CI
//     "int4_capacity_gain_vs_fp16": x,   // >= 4.0 gated in CI
//     "chip_invariant": true,        // int8 streams, 2 vs 4 chips
//     "reduction_invariant": true,   // int8 streams, tree vs flat
//     "mixed": {"models": n, "completed": n, "total_cycles": n,
//               "conserved": true, "units_leaked": 0}
//   }
//
// Integer fields are exact simulated cycles/counts; doubles are emitted
// with enough digits to round-trip. Additive fields may appear in later
// versions; consumers must key on "schema" and ignore unknown keys.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace distmcu;

namespace {

constexpr int kChips = 2;      // main comparison; invariance re-runs on 4
constexpr int kFp16Slots = 1;  // fp16 KV sets the shared pool is sized for
constexpr int kChunk = 4;      // prefill chunk tokens
constexpr int kJobs = 10;

/// Full-width TinyLlama blocks (layer count and vocabulary cut so the
/// functional numerics stay quick); 64-token context, 8-token prompts.
model::TransformerConfig llama_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama";
  cfg.num_layers = 4;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

/// MobileBERT-style encoder (bidirectional, LayerNorm, no positional
/// rotation), cut to two layers; requests are prefill-only.
model::TransformerConfig bert_model() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.name = "mobilebert";
  cfg.num_layers = 2;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

std::vector<int> job_prompt() { return {11, 7, 3, 9, 2, 5, 13, 4}; }
int job_new_tokens(int i) { return 6 + (i * 3) % 7; }

runtime::DeploymentSpec llama_spec(runtime::Precision p, runtime::KvLayout l,
                                   int chips, bool flat_topology) {
  runtime::DeploymentSpec spec;
  spec.model = llama_model();
  spec.chips = chips;
  spec.precision = p;
  spec.kv_layout = l;
  spec.prefill_chunk_tokens = kChunk;
  spec.system.flat_topology = flat_topology;
  return spec;
}

struct ConfigResult {
  std::string config;
  runtime::Precision precision = runtime::Precision::fp16;
  runtime::KvLayout layout = runtime::KvLayout::native;
  int kv_elem_bits = 0;
  int kv_units = 0;
  Bytes pool_bytes = 0;
  runtime::ServingStats stats;
  double tokens_per_s = 0.0;
  double mj_per_token = 0.0;
  bool bit_exact = true;
  int units_leaked = 0;
  /// Token streams in job order, for the cross-config invariance checks.
  std::vector<std::vector<int>> streams;
};

/// Serve the burst on one single-tenant deployment registered through
/// DeploymentSpec; the registry is a local temporary, so the engine's
/// shared session ownership is exercised on every run.
ConfigResult run_config(const std::string& name, runtime::Precision p,
                        runtime::KvLayout l, int chips, int slots,
                        bool flat_topology, double freq_hz) {
  ConfigResult out;
  out.config = name;
  out.precision = p;
  out.layout = l;
  out.kv_units = slots;

  const runtime::DeploymentSpec spec = llama_spec(p, l, chips, flat_topology);
  // Dedicated single-request references: the served streams must match
  // these bit-exactly no matter how the batch interleaves.
  const runtime::InferenceSession solo(spec);
  std::vector<runtime::GenerationResult> refs;
  refs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    refs.push_back(solo.generate(job_prompt(), job_new_tokens(i)));
  }

  runtime::ModelRegistry reg;
  const runtime::ModelId m = reg.add(spec);
  runtime::BatchedEngine engine(reg, {.total_kv_slots = slots});
  out.kv_elem_bits = engine.model_kv_elem_bits(m);
  out.pool_bytes = engine.kv_pages().pool_bytes();

  std::vector<runtime::RequestId> ids;
  ids.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    ids.push_back(*engine.submit(
        {.model = m, .prompt = job_prompt(), .new_tokens = job_new_tokens(i)}));
  }
  const auto results = engine.run_to_completion();
  util::check(results.size() == static_cast<std::size_t>(kJobs),
              "not every job completed");
  out.streams.resize(static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    for (const auto& r : results) {
      if (r.id != ids[static_cast<std::size_t>(i)]) continue;
      out.streams[static_cast<std::size_t>(i)] = r.gen.tokens;
      if (r.gen.tokens != refs[static_cast<std::size_t>(i)].tokens) {
        out.bit_exact = false;
      }
    }
  }
  out.stats = engine.stats();
  out.tokens_per_s = out.stats.aggregate_tokens_per_s(freq_hz);
  out.mj_per_token = out.stats.mj_per_token();
  out.units_leaked = engine.kv_pages().in_use();
  return out;
}

struct MixedResult {
  runtime::ServingStats stats;
  bool conserved = true;
  bool bit_exact = true;
  int units_leaked = 0;
  int models = 0;
};

/// Mixed-precision registry: fp16 TinyLlama decoding next to an int8
/// MobileBERT encoder in ONE shared arena. The gate is exact
/// attribution — per-model tokens/cycles/energy partition the engine
/// totals — plus per-stream bit-exactness and a leak-free drain.
MixedResult run_mixed(double freq_hz) {
  (void)freq_hz;
  MixedResult out;
  runtime::DeploymentSpec llama =
      llama_spec(runtime::Precision::fp16, runtime::KvLayout::fp16, kChips,
                 /*flat_topology=*/false);
  runtime::DeploymentSpec bert;
  bert.model = bert_model();
  bert.chips = kChips;
  bert.precision = runtime::Precision::int8;
  bert.kv_layout = runtime::KvLayout::int8;

  const runtime::InferenceSession llama_solo(llama);
  const runtime::InferenceSession bert_solo(bert);

  runtime::ModelRegistry reg;
  const runtime::ModelId lm = reg.add(llama);
  const runtime::ModelId bm = reg.add(bert);
  // One resident set per tenant: the fp16 TinyLlama set alone costs 4x
  // the int8 MobileBERT set, and both must co-reside under the L2 roof.
  runtime::BatchedEngine engine(reg, {.total_kv_slots = 2});
  out.models = engine.model_count();

  constexpr int kEach = 4;
  std::vector<std::pair<runtime::RequestId, std::vector<int>>> expected;
  for (int i = 0; i < kEach; ++i) {
    const auto lid = *engine.submit({.model = lm,
                                     .prompt = job_prompt(),
                                     .new_tokens = job_new_tokens(i)});
    expected.emplace_back(
        lid, llama_solo.generate(job_prompt(), job_new_tokens(i)).tokens);
    const auto bid =
        *engine.submit({.model = bm, .prompt = job_prompt(), .new_tokens = 0});
    expected.emplace_back(bid,
                          bert_solo.generate(job_prompt(), 0).tokens);
  }
  const auto results = engine.run_to_completion();
  util::check(results.size() == expected.size(), "mixed burst did not drain");
  for (const auto& [id, toks] : expected) {
    for (const auto& r : results) {
      if (r.id == id && r.gen.tokens != toks) out.bit_exact = false;
    }
  }

  out.stats = engine.stats();
  int generated = 0;
  int completed = 0;
  Cycles cycles = 0;
  double energy = 0.0;
  for (const auto& pm : out.stats.per_model) {
    generated += pm.total_generated;
    completed += pm.completed;
    cycles += pm.attributed_cycles;
    energy += pm.attributed_energy_mj;
  }
  if (generated != out.stats.total_generated ||
      completed != out.stats.completed || cycles != out.stats.total_cycles) {
    out.conserved = false;
  }
  // Energy sums in doubles; attribution is exact up to summation order.
  if (std::fabs(energy - out.stats.total_energy_mj) >
      1e-9 * std::max(1.0, std::fabs(out.stats.total_energy_mj))) {
    out.conserved = false;
  }
  out.units_leaked = engine.kv_pages().in_use();
  return out;
}

void write_json(const std::string& path, double freq_hz,
                const std::vector<ConfigResult>& configs, double gain8,
                double gain4, bool chip_invariant, bool reduction_invariant,
                const MixedResult& mixed) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open --json path " << path << "\n";
    std::exit(2);
  }
  os.precision(17);
  os << "{\n  \"schema\": \"distmcu.quant.v1\",\n"
     << "  \"freq_hz\": " << freq_hz << ",\n"
     << "  \"model\": {\"name\": \"tinyllama\", \"chips\": " << kChips
     << ", \"ar_context\": 64, \"prompt_len\": 8, \"chunk\": " << kChunk
     << "},\n"
     << "  \"jobs\": " << kJobs << ",\n"
     << "  \"kv_pool_bytes\": " << configs.front().pool_bytes
     << ",\n  \"configs\": [";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& r = configs[i];
    os << (i == 0 ? "" : ",") << "\n    {\"config\": \""
       << bench::json_escape(r.config) << "\""
       << ", \"precision\": \"" << runtime::precision_name(r.precision)
       << "\", \"kv_layout\": \"" << runtime::kv_layout_name(r.layout)
       << "\", \"kv_elem_bits\": " << r.kv_elem_bits
       << ", \"kv_units\": " << r.kv_units
       << ",\n     \"peak_batch\": " << r.stats.peak_batch
       << ", \"completed\": " << r.stats.completed
       << ", \"total_cycles\": " << r.stats.total_cycles
       << ", \"tokens_per_s\": " << r.tokens_per_s
       << ", \"mj_per_token\": " << r.mj_per_token
       << ",\n     \"bit_exact\": " << (r.bit_exact ? "true" : "false")
       << ", \"units_leaked\": " << r.units_leaked << "}";
  }
  os << "\n  ],\n  \"int8_capacity_gain_vs_fp16\": " << gain8
     << ",\n  \"int4_capacity_gain_vs_fp16\": " << gain4
     << ",\n  \"chip_invariant\": " << (chip_invariant ? "true" : "false")
     << ",\n  \"reduction_invariant\": "
     << (reduction_invariant ? "true" : "false") << ",\n  \"mixed\": {"
     << "\"models\": " << mixed.models
     << ", \"completed\": " << mixed.stats.completed
     << ", \"total_cycles\": " << mixed.stats.total_cycles
     << ", \"conserved\": " << (mixed.conserved ? "true" : "false")
     << ", \"units_leaked\": " << mixed.units_leaked << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  const double freq_hz = 500e6;

  std::cout << "Quantized serving envelope — " << kJobs
            << "-request burst through one KV pool sized for " << kFp16Slots
            << " fp16 full-context set(s), re-declared per precision via "
               "DeploymentSpec\n\n";

  // The capacity ladder: the SAME pool bytes hold 1 fp16 set, 2 int8
  // sets, or 4 int4 sets — precision multiplies concurrency.
  const std::vector<ConfigResult> configs = {
      run_config("fp16", runtime::Precision::fp16, runtime::KvLayout::fp16,
                 kChips, kFp16Slots, false, freq_hz),
      run_config("int8", runtime::Precision::int8, runtime::KvLayout::int8,
                 kChips, 2 * kFp16Slots, false, freq_hz),
      run_config("int8+kv4", runtime::Precision::int8, runtime::KvLayout::int4,
                 kChips, 4 * kFp16Slots, false, freq_hz),
  };
  const ConfigResult& fp16 = configs[0];
  const ConfigResult& int8 = configs[1];
  const ConfigResult& int4 = configs[2];

  // The whole comparison is at equal silicon: identical pool bytes.
  util::check(fp16.pool_bytes == int8.pool_bytes &&
                  int8.pool_bytes == int4.pool_bytes,
              "KV pools differ across configs; the comparison is void");

  // Re-shard the int8 deployment: 4 chips (deeper reduce tree) and a
  // flat 4-chip topology (different reduction order). The int32
  // all-reduce is exact, so the token streams must not move by one bit.
  const ConfigResult int8_c4 =
      run_config("int8@4chips", runtime::Precision::int8,
                 runtime::KvLayout::int8, 4, 2 * kFp16Slots, false, freq_hz);
  const ConfigResult int8_c4_flat =
      run_config("int8@4chips/flat", runtime::Precision::int8,
                 runtime::KvLayout::int8, 4, 2 * kFp16Slots, true, freq_hz);
  const bool chip_invariant = int8.streams == int8_c4.streams;
  const bool reduction_invariant = int8_c4.streams == int8_c4_flat.streams;

  const MixedResult mixed = run_mixed(freq_hz);

  util::Table table({"config", "kv_bits", "kv_units", "peak_batch",
                     "total_mcyc", "tokens_per_s", "mj_per_token",
                     "bit_exact"});
  for (const ConfigResult& r : configs) {
    table.row()
        .add(r.config)
        .add(r.kv_elem_bits)
        .add(r.kv_units)
        .add(r.stats.peak_batch)
        .add(static_cast<double>(r.stats.total_cycles) / 1e6, 2)
        .add(r.tokens_per_s, 1)
        .add(r.mj_per_token, 4)
        .add(r.bit_exact ? "yes" : "NO");
  }
  table.print(std::cout);

  const double gain8 = static_cast<double>(int8.stats.peak_batch) /
                       static_cast<double>(fp16.stats.peak_batch);
  const double gain4 = static_cast<double>(int4.stats.peak_batch) /
                       static_cast<double>(fp16.stats.peak_batch);
  std::cout << "\nsame " << fp16.pool_bytes
            << "-byte KV pool: int8 admits " << int8.stats.peak_batch
            << " concurrent requests where fp16 admits "
            << fp16.stats.peak_batch << " (" << gain8 << "x), int4 "
            << int4.stats.peak_batch << " (" << gain4
            << "x).\nint8 streams bit-identical across 2 vs 4 chips: "
            << (chip_invariant ? "yes" : "NO")
            << "; across reduction tree shapes: "
            << (reduction_invariant ? "yes" : "NO")
            << ".\nmixed fp16+int8 registry: " << mixed.stats.completed
            << " completed, attribution conserved: "
            << (mixed.conserved ? "yes" : "NO") << ".\n";

  // --- self-gate ---------------------------------------------------------
  bool ok = true;
  for (const ConfigResult& r : configs) {
    if (!r.bit_exact) {
      std::cout << "FAIL: " << r.config
                << " streams diverged from the dedicated engine\n";
      ok = false;
    }
    if (r.units_leaked != 0) {
      std::cout << "FAIL: " << r.config << " leaked " << r.units_leaked
                << " KV unit(s) after the drain\n";
      ok = false;
    }
    if (r.stats.completed != kJobs) {
      std::cout << "FAIL: " << r.config << " completed " << r.stats.completed
                << "/" << kJobs << "\n";
      ok = false;
    }
  }
  if (gain8 < 2.0) {
    std::cout << "FAIL: int8 capacity gain " << gain8
              << "x below 2x at equal KV bytes\n";
    ok = false;
  }
  if (gain4 < 4.0) {
    std::cout << "FAIL: int4 capacity gain " << gain4
              << "x below 4x at equal KV bytes\n";
    ok = false;
  }
  if (!chip_invariant) {
    std::cout << "FAIL: int8 streams changed with the chip count\n";
    ok = false;
  }
  if (!reduction_invariant) {
    std::cout << "FAIL: int8 streams changed with the reduction tree\n";
    ok = false;
  }
  if (!mixed.conserved || !mixed.bit_exact || mixed.units_leaked != 0) {
    std::cout << "FAIL: mixed-precision registry broke conservation "
                 "(conserved="
              << mixed.conserved << ", bit_exact=" << mixed.bit_exact
              << ", leaked=" << mixed.units_leaked << ")\n";
    ok = false;
  }

  std::cout << "\nCSV:\n";
  table.write_csv(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, freq_hz, configs, gain8, gain4, chip_invariant,
               reduction_invariant, mixed);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
