// Multi-model serving bench: one BatchedEngine multiplexing a TinyLlama
// generator next to a MobileBERT classifier (the paper's own Table 1
// pairing) over ONE shared KV arena, versus the two isolated
// single-model engines time-sharing the same silicon at the same total
// KV budget.
//
// The mixed engine wins twice: the models' weight streams race each
// other's compute on the shared L3 port (one model's sub-phase covers
// the other's prefetch, so decode stalls shrink below what either
// isolated engine can hide), and the idle tail disappears (whichever
// workload drains first stops occupying the grid). The first table
// sweeps every isolated split (a, S-a) of the shared budget; the mixed
// run must meet or beat the BEST split on served requests/s — and under
// the static-split budget policy no model may ever hold more slots than
// its quota (zero cross-model KV leakage, checked and emitted).
//
// The second table reruns a bursty workload (generator burst ahead of a
// late classifier trickle) under each KV budget policy — static split /
// proportional-to-load / watermark borrowing — showing the borrowing
// policies soak up the idle tenant's slots and finish sooner.
//
// --json <path> writes the machine-readable result used by the CI
// perf-regression gate (tools/check_bench_regression.py compares it
// against bench/baselines/multimodel_baseline.json). Stable schema:
//
//   {
//     "schema": "distmcu.multimodel.v1",
//     "freq_hz": F, "total_kv_slots": S,
//     "models": [{"model": "...", "chips": n, "chunk": n, "kv_quota": n}],
//     "mixed": [            // same workload under two budget policies
//       {"policy": "static_split" | "watermark", "total_cycles": n,
//        "requests_per_s": x, "tokens_per_s": x,
//        "kv_cross_leak_slots": 0,   // static: max(0, high_water - quota)
//        "kv_borrowed_slots": n,     // borrowing: sanctioned quota excess
//        "per_model": [{"model": "...", "completed": n,
//          "generated": n, "attributed_cycles": n,
//          "attributed_energy_mj": x, "deadline_misses": n,
//          "kv_quota": n, "kv_high_water": n}]}],
//     "isolated": [{"llama_slots": a, "bert_slots": b, "total_cycles": n,
//                   "requests_per_s": x, "tokens_per_s": x}],
//     "best_isolated_requests_per_s": x,
//     "speedup_vs_best_isolated": x,   // >= 1.0 gated in CI
//     "budget_policies": [{"policy": "...", "total_cycles": n,
//       "requests_per_s": x, "llama_kv_high_water": n,
//       "bert_kv_high_water": n}]
//   }
//
// Integer fields are exact simulated cycles/counts; doubles are emitted
// with enough digits to round-trip. Additive fields may appear in later
// versions; consumers must key on "schema" and ignore unknown keys.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/scheduler.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace distmcu;

namespace {

constexpr int kTotalSlots = 4;
constexpr int kLlamaJobs = 8;
constexpr int kBertJobs = 8;
constexpr int kDecodeTokens = 12;

/// Full-width TinyLlama blocks (layer count and vocabulary cut so the
/// functional numerics stay quick). At 4 chips this deployment streams
/// block weights from L3 on every decode step — the regime where both
/// continuous batching and the cross-model overlap buy throughput.
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

/// MobileBERT blocks (E = F = 512, 4 heads of 128) at the paper's
/// 4-chip deployment, cut to 4 layers and a 16-token sequence; served
/// as prefill-only classification requests (new_tokens == 0).
model::TransformerConfig bert_model() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.num_layers = 4;
  cfg.vocab_size = 512;
  cfg.ar_context = 16;
  cfg.prompt_len = 16;
  cfg.validate();
  return cfg;
}

std::vector<int> llama_prompt(int i) {
  return {1 + i, 7 + i % 3, 3, 9, 2 + i % 5, 5};
}

std::vector<int> bert_prompt(int i) {
  std::vector<int> p;
  for (int t = 0; t < 16; ++t) p.push_back(1 + (7 * i + 3 * t) % 500);
  return p;
}

struct MixedResult {
  runtime::KvBudget policy{};
  runtime::ServingStats stats;
  double requests_per_s = 0.0;
  double tokens_per_s = 0.0;
  /// Static split: slots a model held beyond its quota — must be zero
  /// (the budget never hands one model's share to another). Borrowing
  /// policies report the same excess as kv_borrowed_slots instead: a
  /// sanctioned loan of idle capacity, returned at completion.
  int leak_slots = 0;
  int borrowed_slots = 0;
};

/// The headline mixed workload: all jobs queued up front, FIFO
/// admission, the budget policy under test partitioning the arena.
MixedResult run_mixed(const runtime::InferenceSession& llama,
                      const runtime::InferenceSession& bert,
                      runtime::KvBudget policy, double freq_hz) {
  runtime::ModelRegistry reg;
  const auto lid = reg.add(llama, "tinyllama", /*prefill_chunk_tokens=*/4,
                           /*kv_quota=*/2);
  const auto bid = reg.add(bert, "mobilebert", /*prefill_chunk_tokens=*/8,
                           /*kv_quota=*/2);
  runtime::BatchedEngine engine(reg,
                                {.total_kv_slots = kTotalSlots,
                                 .max_pending = 64,
                                 .kv_budget = runtime::make_kv_budget(policy)});
  for (int i = 0; i < std::max(kLlamaJobs, kBertJobs); ++i) {
    // Interleaved submit order so neither model owns the queue head.
    if (i < kLlamaJobs) {
      (void)*engine.submit({.model = lid, .prompt = llama_prompt(i),
                            .new_tokens = kDecodeTokens});
    }
    if (i < kBertJobs) {
      (void)*engine.submit({.model = bid, .prompt = bert_prompt(i),
                            .new_tokens = 0});
    }
  }
  (void)engine.run_to_completion();
  MixedResult out;
  out.policy = policy;
  out.stats = engine.stats();
  const double secs = util::cycles_to_s(out.stats.total_cycles, freq_hz);
  out.requests_per_s = static_cast<double>(out.stats.completed) / secs;
  out.tokens_per_s = out.stats.aggregate_tokens_per_s(freq_hz);
  for (const auto& pm : out.stats.per_model) {
    const int excess = std::max(0, pm.kv_in_use_high_water - pm.kv_quota);
    if (policy == runtime::KvBudget::static_split) {
      out.leak_slots += excess;
    } else {
      out.borrowed_slots += excess;
    }
  }
  return out;
}

struct IsolatedRow {
  int llama_slots = 0;
  int bert_slots = 0;
  Cycles total_cycles = 0;
  double requests_per_s = 0.0;
  double tokens_per_s = 0.0;
};

/// Isolated baseline at one split: each model gets its own engine with
/// its share of the KV slots; the two serve their workloads one after
/// the other on the same grid (no co-scheduling, no cross-model
/// overlap), so the cost is the sum of the two engines' cycles.
IsolatedRow run_isolated(const runtime::InferenceSession& llama,
                         const runtime::InferenceSession& bert,
                         int llama_slots, double freq_hz) {
  IsolatedRow row;
  row.llama_slots = llama_slots;
  row.bert_slots = kTotalSlots - llama_slots;

  runtime::ModelRegistry lreg;
  (void)lreg.add(llama, "tinyllama", /*prefill_chunk_tokens=*/4);
  runtime::BatchedEngine lengine(
      lreg, {.total_kv_slots = llama_slots, .max_pending = 64});
  for (int i = 0; i < kLlamaJobs; ++i) {
    (void)*lengine.submit({.prompt = llama_prompt(i),
                           .new_tokens = kDecodeTokens});
  }
  (void)lengine.run_to_completion();

  runtime::ModelRegistry breg;
  (void)breg.add(bert, "mobilebert", /*prefill_chunk_tokens=*/8);
  runtime::BatchedEngine bengine(
      breg, {.total_kv_slots = row.bert_slots, .max_pending = 64});
  for (int i = 0; i < kBertJobs; ++i) {
    (void)*bengine.submit({.prompt = bert_prompt(i), .new_tokens = 0});
  }
  (void)bengine.run_to_completion();

  row.total_cycles =
      lengine.stats().total_cycles + bengine.stats().total_cycles;
  const double secs = util::cycles_to_s(row.total_cycles, freq_hz);
  row.requests_per_s =
      static_cast<double>(lengine.stats().completed +
                          bengine.stats().completed) /
      secs;
  row.tokens_per_s =
      static_cast<double>(lengine.stats().total_generated +
                          bengine.stats().total_generated) /
      secs;
  return row;
}

struct PolicyRow {
  runtime::KvBudget policy{};
  runtime::ServingStats stats;
  double requests_per_s = 0.0;
};

/// Bursty workload for the budget-policy table: a generator burst is
/// queued up front while the classifier trickles in late, so a
/// borrowing policy can lend the idle classifier slots to the burst.
PolicyRow run_policy_scenario(const runtime::InferenceSession& llama,
                              const runtime::InferenceSession& bert,
                              runtime::KvBudget policy, double freq_hz) {
  runtime::ModelRegistry reg;
  const auto lid = reg.add(llama, "tinyllama", 4, /*kv_quota=*/2);
  const auto bid = reg.add(bert, "mobilebert", 8, /*kv_quota=*/2);
  runtime::BatchedEngine engine(
      reg, {.total_kv_slots = kTotalSlots,
            .max_pending = 64,
            .kv_budget = runtime::make_kv_budget(policy)});
  for (int i = 0; i < kLlamaJobs; ++i) {
    (void)*engine.submit({.model = lid, .prompt = llama_prompt(i),
                          .new_tokens = kDecodeTokens});
  }
  // The classifier jobs arrive once the burst is underway.
  int submitted_bert = 0;
  int steps = 0;
  bool work = true;
  while (work || submitted_bert < 2) {
    if (steps >= 12 && submitted_bert < 2) {
      (void)*engine.submit({.model = bid, .prompt = bert_prompt(submitted_bert),
                            .new_tokens = 0});
      ++submitted_bert;
    }
    work = engine.step();
    ++steps;
    util::check(steps < 10000, "policy scenario did not drain");
  }
  PolicyRow row;
  row.policy = policy;
  row.stats = engine.stats();
  row.requests_per_s =
      static_cast<double>(row.stats.completed) /
      util::cycles_to_s(row.stats.total_cycles, freq_hz);
  return row;
}

void write_json(const std::string& path, double freq_hz,
                const std::vector<MixedResult>& mixed_rows,
                double headline_rps,
                const std::vector<IsolatedRow>& isolated,
                double best_isolated_rps,
                const std::vector<PolicyRow>& policies) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open --json path " << path << "\n";
    std::exit(2);
  }
  os.precision(17);
  os << "{\n  \"schema\": \"distmcu.multimodel.v1\",\n"
     << "  \"freq_hz\": " << freq_hz << ",\n"
     << "  \"total_kv_slots\": " << kTotalSlots << ",\n  \"models\": [\n"
     << "    {\"model\": \"tinyllama\", \"chips\": 4, \"chunk\": 4, "
        "\"kv_quota\": 2},\n"
     << "    {\"model\": \"mobilebert\", \"chips\": 4, \"chunk\": 8, "
        "\"kv_quota\": 2}\n  ],\n";
  os << "  \"mixed\": [";
  for (std::size_t i = 0; i < mixed_rows.size(); ++i) {
    const MixedResult& mixed = mixed_rows[i];
    os << (i == 0 ? "" : ",") << "\n    {\"policy\": \""
       << runtime::kv_budget_name(mixed.policy) << "\""
       << ", \"total_cycles\": " << mixed.stats.total_cycles
       << ", \"requests_per_s\": " << mixed.requests_per_s
       << ", \"tokens_per_s\": " << mixed.tokens_per_s
       << ", \"kv_cross_leak_slots\": " << mixed.leak_slots
       << ", \"kv_borrowed_slots\": " << mixed.borrowed_slots
       << ",\n     \"per_model\": [";
    for (std::size_t m = 0; m < mixed.stats.per_model.size(); ++m) {
      const auto& pm = mixed.stats.per_model[m];
      os << (m == 0 ? "" : ",") << "\n       {\"model\": \""
         << bench::json_escape(pm.model)
         << "\", \"completed\": " << pm.completed
         << ", \"generated\": " << pm.total_generated
         << ", \"attributed_cycles\": " << pm.attributed_cycles
         << ", \"attributed_energy_mj\": " << pm.attributed_energy_mj
         << ", \"deadline_misses\": " << pm.deadline_misses
         << ", \"kv_quota\": " << pm.kv_quota
         << ", \"kv_high_water\": " << pm.kv_in_use_high_water << "}";
    }
    os << "\n    ]}";
  }
  os << "\n  ],\n  \"isolated\": [";
  for (std::size_t i = 0; i < isolated.size(); ++i) {
    const auto& r = isolated[i];
    os << (i == 0 ? "" : ",") << "\n    {\"llama_slots\": " << r.llama_slots
       << ", \"bert_slots\": " << r.bert_slots
       << ", \"total_cycles\": " << r.total_cycles
       << ", \"requests_per_s\": " << r.requests_per_s
       << ", \"tokens_per_s\": " << r.tokens_per_s << "}";
  }
  os << "\n  ],\n  \"best_isolated_requests_per_s\": " << best_isolated_rps
     << ",\n  \"speedup_vs_best_isolated\": "
     << headline_rps / best_isolated_rps
     << ",\n  \"budget_policies\": [";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& p = policies[i];
    os << (i == 0 ? "" : ",") << "\n    {\"policy\": \""
       << runtime::kv_budget_name(p.policy) << "\""
       << ", \"total_cycles\": " << p.stats.total_cycles
       << ", \"requests_per_s\": " << p.requests_per_s
       << ", \"llama_kv_high_water\": "
       << p.stats.per_model[0].kv_in_use_high_water
       << ", \"bert_kv_high_water\": "
       << p.stats.per_model[1].kv_in_use_high_water << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);
  const double freq_hz = 500e6;

  const runtime::InferenceSession llama(llama_model(), 4);
  const runtime::InferenceSession bert(bert_model(), 4);

  std::cout << "Multi-model serving — " << kLlamaJobs << " TinyLlama "
            << "generations (" << kDecodeTokens << " tokens) + " << kBertJobs
            << " MobileBERT classifications through " << kTotalSlots
            << " shared KV slots\n\n";

  // --- mixed engine (two budget policies) vs every isolated split --------
  // The static-split run proves the zero-leakage discipline; the
  // watermark run is the headline throughput number — the shared arena
  // adapts to the llama-heavy workload instead of idling bert's share.
  const std::vector<MixedResult> mixed_rows = {
      run_mixed(llama, bert, runtime::KvBudget::static_split, freq_hz),
      run_mixed(llama, bert, runtime::KvBudget::watermark, freq_hz)};
  const MixedResult& mixed_static = mixed_rows[0];
  const MixedResult& mixed_headline = mixed_rows[1];

  util::Table table({"serving", "llama_slots", "bert_slots", "total_mcyc",
                     "requests_per_s", "llama_tok_per_s"});
  std::vector<IsolatedRow> isolated;
  double best_isolated_rps = 0.0;
  for (int a = 1; a < kTotalSlots; ++a) {
    const IsolatedRow row = run_isolated(llama, bert, a, freq_hz);
    best_isolated_rps = std::max(best_isolated_rps, row.requests_per_s);
    table.row()
        .add("isolated")
        .add(row.llama_slots)
        .add(row.bert_slots)
        .add(static_cast<double>(row.total_cycles) / 1e6, 2)
        .add(row.requests_per_s, 1)
        .add(row.tokens_per_s, 1);
    isolated.push_back(row);
  }
  for (const MixedResult& mixed : mixed_rows) {
    table.row()
        .add(std::string("mixed/") + runtime::kv_budget_name(mixed.policy))
        .add("-")
        .add("-")
        .add(static_cast<double>(mixed.stats.total_cycles) / 1e6, 2)
        .add(mixed.requests_per_s, 1)
        .add(mixed.tokens_per_s, 1);
  }
  table.print(std::cout);
  std::cout << "\nmixed co-schedules both models on one engine: each model's "
               "weight stream\nraces the other model's compute on the shared "
               "L3 port, and neither workload\nleaves the grid idle while the "
               "other drains. speedup vs best isolated split: "
            << mixed_headline.requests_per_s / best_isolated_rps << "x\n";

  std::cout << "\nPer-model attribution (mixed, watermark):\n\n";
  util::Table per_model({"model", "completed", "generated", "attr_mcyc",
                         "attr_mj", "kv_quota", "kv_high_water"});
  for (const auto& pm : mixed_headline.stats.per_model) {
    per_model.row()
        .add(pm.model)
        .add(pm.completed)
        .add(pm.total_generated)
        .add(static_cast<double>(pm.attributed_cycles) / 1e6, 2)
        .add(pm.attributed_energy_mj, 3)
        .add(pm.kv_quota)
        .add(pm.kv_in_use_high_water);
  }
  per_model.print(std::cout);
  std::cout << "\nkv_cross_leak_slots = " << mixed_static.leak_slots
            << " (static split: no model ever held more than its quota); "
            << "the watermark run\nborrowed "
            << mixed_headline.borrowed_slots
            << " sanctioned slot(s) of idle capacity instead.\n";

  // --- budget policies on the bursty workload ----------------------------
  std::cout << "\nKV budget policies — " << kLlamaJobs
            << "-job generator burst, classifier arriving late:\n\n";
  util::Table policy_table({"policy", "total_mcyc", "requests_per_s",
                            "llama_kv_hw", "bert_kv_hw"});
  std::vector<PolicyRow> policies;
  for (const auto policy :
       {runtime::KvBudget::static_split, runtime::KvBudget::proportional,
        runtime::KvBudget::watermark}) {
    const PolicyRow row = run_policy_scenario(llama, bert, policy, freq_hz);
    policy_table.row()
        .add(runtime::kv_budget_name(row.policy))
        .add(static_cast<double>(row.stats.total_cycles) / 1e6, 2)
        .add(row.requests_per_s, 1)
        .add(row.stats.per_model[0].kv_in_use_high_water)
        .add(row.stats.per_model[1].kv_in_use_high_water);
    policies.push_back(row);
  }
  policy_table.print(std::cout);
  std::cout << "\nborrowing policies lend the idle classifier slots to the "
               "generator burst\n(llama_kv_hw > its quota) and return them "
               "when the classifier arrives.\n";

  // --- self-gate ---------------------------------------------------------
  bool ok = true;
  if (mixed_headline.requests_per_s < best_isolated_rps) {
    std::cout << "FAIL: mixed requests/s " << mixed_headline.requests_per_s
              << " below best isolated " << best_isolated_rps << "\n";
    ok = false;
  }
  if (mixed_static.leak_slots != 0) {
    std::cout << "FAIL: static split leaked " << mixed_static.leak_slots
              << " KV slots across models\n";
    ok = false;
  }

  std::cout << "\nCSV:\n";
  table.write_csv(std::cout);
  policy_table.write_csv(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, freq_hz, mixed_rows, mixed_headline.requests_per_s,
               isolated, best_isolated_rps, policies);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
