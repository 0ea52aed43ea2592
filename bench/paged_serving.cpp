// Paged-KV serving bench: the same prefix-heavy workload through three
// engines at IDENTICAL total KV bytes — "slot": the default
// kv_page_tokens of 0, one whole-context page per request; page-granular
// KV (admission charges only the pages a request's current length
// needs, decode grows page by page); and paged KV with copy-on-write
// prefix sharing (requests repeating the registered system prompt adopt
// its read-only pages instead of recomputing the shared prefill).
//
// The point of small pages is concurrency at equal silicon: with
// whole-context pages every admitted request reserves one full-context
// KV set, so two sets admit two requests — while the paged engine
// carves the same two sets into pages and admits every request whose
// *current* footprint fits. The bench gates peak_batch strictly higher under paging, every
// stream bit-exact against the dedicated single-request engine, and
// zero pages leaked after the drain. The prefix run must additionally
// register hits and finish in fewer cycles than cold paging (the
// adopted chunks are prefill work never executed).
//
// --json <path> writes the machine-readable result used by the CI
// perf-regression gate (tools/check_bench_regression.py compares it
// against bench/baselines/paging_baseline.json). Stable schema:
//
//   {
//     "schema": "distmcu.paging.v1",
//     "freq_hz": F,
//     "model": {"name": "...", "chips": n, "ar_context": n,
//               "prompt_len": n, "chunk": n},
//     "jobs": n, "page_tokens": n,
//     "kv_pool_bytes": N,          // identical across all three configs
//     "configs": [
//       {"config": "slot" | "paged" | "paged+prefix",
//        "kv_units": n,            // pages (whole-context for "slot")
//        "peak_batch": n, "completed": n, "total_cycles": n,
//        "tokens_per_s": x, "bit_exact": true, "pages_leaked": 0,
//        "prefix_hits": n, "prefix_shared_tokens": n, "cow_forks": n}],
//     "peak_batch_gain_vs_slot": x,      // > 1.0 gated in CI
//     "prefix_prompt_cycles_saved": n    // paged - paged+prefix cycles
//   }
//
// Integer fields are exact simulated cycles/counts; doubles are emitted
// with enough digits to round-trip. Additive fields may appear in later
// versions; consumers must key on "schema" and ignore unknown keys.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace distmcu;

namespace {

constexpr int kSlots = 2;        // full-context KV sets in the shared arena
constexpr int kPageTokens = 4;   // page size in token positions
constexpr int kChunk = 4;        // prefill chunk (adoption floors to this)
constexpr int kJobs = 12;

/// Full-width TinyLlama blocks (layer count and vocabulary cut so the
/// functional numerics stay quick) on 4 chips; 64-token context so one
/// KV set is 16 four-token pages.
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

/// Every job opens with the same 8-token system prompt — the
/// prefix-sharing registry's bread and butter — and decodes a
/// job-specific number of tokens.
std::vector<int> job_prompt() { return {11, 7, 3, 9, 2, 5, 13, 4}; }
int job_new_tokens(int i) { return 6 + (i * 3) % 7; }

struct ConfigResult {
  std::string config;
  int kv_units = 0;
  Bytes pool_bytes = 0;
  runtime::ServingStats stats;
  double tokens_per_s = 0.0;
  bool bit_exact = true;
  int pages_leaked = 0;
};

ConfigResult run_config(const runtime::InferenceSession& session,
                        const std::string& name, int page_tokens,
                        bool prefix_sharing, double freq_hz,
                        const std::vector<runtime::GenerationResult>& solo) {
  ConfigResult out;
  out.config = name;
  const bool paged = page_tokens > 0;
  out.kv_units = paged
                     ? kSlots * (session.config().ar_context / page_tokens)
                     : kSlots;
  runtime::ModelRegistry reg;
  (void)reg.add(session, "tinyllama", kChunk);
  runtime::BatchedEngine engine(reg,
                                {.total_kv_slots = out.kv_units,
                                 .max_pending = 64,
                                 .kv_page_tokens = page_tokens,
                                 .prefix_sharing = prefix_sharing});
  out.pool_bytes = engine.kv_pages().pool_bytes();
  // One warm-up request first (its completed prefill registers the
  // system prompt in the prefix cache), then the burst: every burst
  // request can adopt the registered pages instead of recomputing them.
  std::vector<runtime::RequestId> ids;
  ids.push_back(*engine.submit({.prompt = job_prompt(),
                                .new_tokens = job_new_tokens(0)}));
  (void)engine.run_to_completion();
  for (int i = 1; i < kJobs; ++i) {
    ids.push_back(*engine.submit({.prompt = job_prompt(),
                                  .new_tokens = job_new_tokens(i)}));
  }
  // run_to_completion returns the engine-lifetime finished list, so the
  // second call's return value covers the warm-up request too.
  const auto results = engine.run_to_completion();
  util::check(results.size() == static_cast<std::size_t>(kJobs),
              "not every job completed");
  for (int i = 0; i < kJobs; ++i) {
    for (const auto& r : results) {
      if (r.id != ids[static_cast<std::size_t>(i)]) continue;
      if (r.gen.tokens != solo[static_cast<std::size_t>(i)].tokens) {
        out.bit_exact = false;
      }
    }
  }
  out.stats = engine.stats();
  out.tokens_per_s = out.stats.aggregate_tokens_per_s(freq_hz);
  out.pages_leaked = engine.kv_pages().in_use() - engine.prefix_cache_pages();
  return out;
}

void write_json(const std::string& path, double freq_hz, Bytes pool_bytes,
                const std::vector<ConfigResult>& configs,
                double peak_gain, Cycles prefix_saved) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open --json path " << path << "\n";
    std::exit(2);
  }
  os.precision(17);
  os << "{\n  \"schema\": \"distmcu.paging.v1\",\n"
     << "  \"freq_hz\": " << freq_hz << ",\n"
     << "  \"model\": {\"name\": \"tinyllama\", \"chips\": 4, "
        "\"ar_context\": 64, \"prompt_len\": 8, \"chunk\": "
     << kChunk << "},\n"
     << "  \"jobs\": " << kJobs << ",\n"
     << "  \"page_tokens\": " << kPageTokens << ",\n"
     << "  \"kv_pool_bytes\": " << pool_bytes << ",\n  \"configs\": [";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& r = configs[i];
    os << (i == 0 ? "" : ",") << "\n    {\"config\": \""
       << bench::json_escape(r.config) << "\""
       << ", \"kv_units\": " << r.kv_units
       << ", \"peak_batch\": " << r.stats.peak_batch
       << ", \"completed\": " << r.stats.completed
       << ", \"total_cycles\": " << r.stats.total_cycles
       << ", \"tokens_per_s\": " << r.tokens_per_s
       << ",\n     \"bit_exact\": " << (r.bit_exact ? "true" : "false")
       << ", \"pages_leaked\": " << r.pages_leaked
       << ", \"prefix_hits\": " << r.stats.prefix_hits
       << ", \"prefix_shared_tokens\": " << r.stats.prefix_shared_tokens
       << ", \"cow_forks\": " << r.stats.cow_forks << "}";
  }
  os << "\n  ],\n  \"peak_batch_gain_vs_slot\": " << peak_gain
     << ",\n  \"prefix_prompt_cycles_saved\": " << prefix_saved << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  const double freq_hz = 500e6;

  const runtime::InferenceSession session(llama_model(), 4);

  std::cout << "Paged-KV serving — 1 warm-up + " << kJobs - 1
            << "-request burst repeating one system prompt through "
            << kSlots << " full-context KV sets (= " << kSlots * 16
            << " pages of " << kPageTokens << " tokens)\n\n";

  // Dedicated single-request references: every engine's streams must
  // match these bit-exactly regardless of paging or sharing.
  std::vector<runtime::GenerationResult> solo;
  for (int i = 0; i < kJobs; ++i) {
    solo.push_back(session.generate(job_prompt(), job_new_tokens(i)));
  }

  const std::vector<ConfigResult> configs = {
      run_config(session, "slot", 0, false, freq_hz, solo),
      run_config(session, "paged", kPageTokens, false, freq_hz, solo),
      run_config(session, "paged+prefix", kPageTokens, true, freq_hz, solo),
  };
  const ConfigResult& slot = configs[0];
  const ConfigResult& paged = configs[1];
  const ConfigResult& shared = configs[2];

  // The whole comparison is at equal silicon: identical pool bytes.
  util::check(slot.pool_bytes == paged.pool_bytes &&
                  paged.pool_bytes == shared.pool_bytes,
              "KV pools differ across configs; the comparison is void");

  util::Table table({"config", "kv_units", "peak_batch", "total_mcyc",
                     "tokens_per_s", "prefix_hits", "bit_exact"});
  for (const ConfigResult& r : configs) {
    table.row()
        .add(r.config)
        .add(r.kv_units)
        .add(r.stats.peak_batch)
        .add(static_cast<double>(r.stats.total_cycles) / 1e6, 2)
        .add(r.tokens_per_s, 1)
        .add(r.stats.prefix_hits)
        .add(r.bit_exact ? "yes" : "NO");
  }
  table.print(std::cout);

  const double peak_gain = static_cast<double>(paged.stats.peak_batch) /
                           static_cast<double>(slot.stats.peak_batch);
  const Cycles prefix_saved =
      paged.stats.total_cycles - shared.stats.total_cycles;
  std::cout << "\nsame " << kSlots
            << "-set KV arena: paging admits " << paged.stats.peak_batch
            << " concurrent requests where slots admit "
            << slot.stats.peak_batch << " (" << peak_gain
            << "x), because admission charges only the pages the current "
               "length needs.\nprefix sharing adopts the system prompt's "
               "pages on "
            << shared.stats.prefix_hits << " request(s) ("
            << shared.stats.prefix_shared_tokens
            << " tokens adopted, " << shared.stats.cow_forks
            << " CoW fork(s)) and saves " << prefix_saved
            << " cycles of repeated prefill.\n";

  // --- self-gate ---------------------------------------------------------
  bool ok = true;
  for (const ConfigResult& r : configs) {
    if (!r.bit_exact) {
      std::cout << "FAIL: " << r.config
                << " streams diverged from the dedicated engine\n";
      ok = false;
    }
    if (r.pages_leaked != 0) {
      std::cout << "FAIL: " << r.config << " leaked " << r.pages_leaked
                << " KV unit(s) after the drain\n";
      ok = false;
    }
    if (r.stats.completed != kJobs) {
      std::cout << "FAIL: " << r.config << " completed " << r.stats.completed
                << "/" << kJobs << "\n";
      ok = false;
    }
  }
  if (paged.stats.peak_batch <= slot.stats.peak_batch) {
    std::cout << "FAIL: paged peak batch " << paged.stats.peak_batch
              << " not above the slot engine's " << slot.stats.peak_batch
              << " at equal KV bytes\n";
    ok = false;
  }
  if (shared.stats.prefix_hits < 1) {
    std::cout << "FAIL: prefix sharing never hit on the repeated prompt\n";
    ok = false;
  }
  if (shared.stats.total_cycles >= paged.stats.total_cycles) {
    std::cout << "FAIL: prefix sharing saved no cycles ("
              << shared.stats.total_cycles << " vs cold "
              << paged.stats.total_cycles << ")\n";
    ok = false;
  }

  std::cout << "\nCSV:\n";
  table.write_csv(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, freq_hz, slot.pool_bytes, configs, peak_gain,
               prefix_saved);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
