// Static deployment verifier CLI: runs analysis::DeploymentAnalyzer
// over every shipped bench/example deployment configuration (or one
// selected with --config) and prints the structured diagnostics. Exits
// nonzero when any configuration carries an error-severity diagnostic,
// so CI can gate merges on "every shipped config analyzes clean".
//
// --json <path> additionally writes the machine-readable report used by
// the CI key-check gate (tools/check_bench_regression.py compares it
// against bench/baselines/analysis_baseline.json). Stable schema:
//
//   {
//     "schema": "distmcu.analysis.v1",
//     "configs": [
//       {"config": "<name>", "errors": n, "warnings": n, "ok": b,
//        "codes": ["DMCU-...-..."],       // distinct, sorted
//        "diagnostics": [
//          {"code": "...", "severity": "note|warning|error",
//           "entity": "...", "message": "...", "hint": "..."}]}],
//     "total_errors": n, "total_warnings": n, "all_ok": b
//   }
//
// Additive fields may appear in later versions; consumers must key on
// "schema" and ignore unknown keys.
#include <functional>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/deployment_analyzer.hpp"
#include "model/config.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/scheduler.hpp"

using namespace distmcu;

namespace {

/// bench/serving_throughput.cpp's deployment: full-width TinyLlama
/// blocks, layer count and vocabulary cut, streamed regime at 4 chips.
model::TransformerConfig serving_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 4;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

/// bench/multimodel_serving.cpp's second tenant: a MobileBERT encoder
/// deployment sharing the arena with the generator.
model::TransformerConfig encoder_model() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.num_layers = 4;
  cfg.vocab_size = 512;
  cfg.ar_context = 16;
  cfg.prompt_len = 16;
  cfg.validate();
  return cfg;
}

/// examples/batched_serving.cpp's quick-run deployment.
model::TransformerConfig example_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 32;
  cfg.prompt_len = 4;
  cfg.validate();
  return cfg;
}

/// bench/fleet_serving.cpp's decoder: invariant-suite-sized blocks,
/// 64-token context, 12-token system prompts.
model::TransformerConfig fleet_decoder_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 128;
  cfg.ar_context = 64;
  cfg.prompt_len = 12;
  cfg.validate();
  return cfg;
}

/// bench/fleet_serving.cpp's encoder, deployed on the 4-chip nodes only.
model::TransformerConfig fleet_encoder_model() {
  auto cfg = fleet_decoder_model();
  cfg.ffn_dim = 96;
  cfg.ar_context = 16;
  cfg.mask = model::MaskKind::bidirectional;
  cfg.validate();
  return cfg;
}

struct NamedConfig {
  std::string name;
  std::function<analysis::AnalysisReport()> run;
};

/// One analyzed configuration per shipped bench/example engine setup.
/// Sessions are constructed once and shared across the configs that
/// reuse the same deployment (exactly like the benches do).
std::vector<NamedConfig> shipped_configs() {
  auto serving = std::make_shared<runtime::InferenceSession>(serving_model(), 4);
  auto encoder = std::make_shared<runtime::InferenceSession>(encoder_model(), 4);
  auto example = std::make_shared<runtime::InferenceSession>(example_model(), 4);

  std::vector<NamedConfig> configs;

  // bench/serving_throughput.cpp batch sweep (B in {1, 2, 4, 8}).
  for (const int batch : {1, 2, 4, 8}) {
    configs.push_back({"serving_batch" + std::to_string(batch),
                       [serving, batch] {
                         runtime::ModelRegistry reg;
                         (void)reg.add(*serving, "tinyllama",
                                       /*prefill_chunk_tokens=*/0,
                                       /*kv_quota=*/batch,
                                       /*max_resident=*/batch);
                         return analysis::DeploymentAnalyzer::analyze(
                             reg, {.total_kv_slots = batch,
                                   .max_pending = 64});
                       }});
  }

  // bench/serving_throughput.cpp SLO scenario: chunked prefill, two KV
  // slots, deadline-mixed workload (the bench's EDF-meets-deadlines
  // setup — four long best-effort backgrounds, six tight interactives).
  configs.push_back(
      {"serving_slo_chunked", [serving] {
         runtime::ModelRegistry reg;
         (void)reg.add(*serving, "tinyllama", /*prefill_chunk_tokens=*/2,
                       /*kv_quota=*/2, /*max_resident=*/2);
         analysis::Workload wl;
         wl.requests.push_back({.model = 0,
                                .prompt_tokens = 8,
                                .new_tokens = 16,
                                .deadline_cycles = runtime::kNoDeadline,
                                .count = 4});
         wl.requests.push_back({.model = 0,
                                .prompt_tokens = 2,
                                .new_tokens = 3,
                                .deadline_cycles = 160'000'000,
                                .count = 6});
         return analysis::DeploymentAnalyzer::analyze(
             reg, {.total_kv_slots = 2, .max_pending = 64}, &wl);
       }});

  // bench/serving_throughput.cpp overload scenario: two tenants over
  // one deployment, watermark borrowing, EDF. The workload carries the
  // *intended-feasible* classes (the bench additionally offers
  // deliberately-hopeless deadlines to exercise fail-fast; those are
  // rejected traffic, not deployment intent).
  configs.push_back(
      {"serving_overload", [serving] {
         runtime::ModelRegistry reg;
         (void)reg.add(*serving, "background");
         (void)reg.add(*serving, "interactive");
         runtime::BatchedEngine::MultiOptions opts;
         opts.total_kv_slots = 2;
         opts.max_pending = 12;
         opts.kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark);
         opts.fail_fast_deadlines = true;
         opts.fair_shedding = true;
         analysis::Workload wl;
         wl.requests.push_back({.model = 0,
                                .prompt_tokens = 8,
                                .new_tokens = 16,
                                .deadline_cycles = runtime::kNoDeadline,
                                .count = 16});
         wl.requests.push_back({.model = 1,
                                .prompt_tokens = 2,
                                .new_tokens = 3,
                                .deadline_cycles = 160'000'000,
                                .count = 7});
         return analysis::DeploymentAnalyzer::analyze(reg, opts, &wl);
       }});

  // bench/multimodel_serving.cpp mixed engine: TinyLlama generator +
  // MobileBERT encoder sharing 4 KV slots, static split and watermark.
  const auto multimodel = [serving, encoder](
                              std::shared_ptr<const runtime::KvBudgetPolicy>
                                  budget) {
    runtime::ModelRegistry reg;
    (void)reg.add(*serving, "tinyllama", /*prefill_chunk_tokens=*/4,
                  /*kv_quota=*/2);
    (void)reg.add(*encoder, "mobilebert", /*prefill_chunk_tokens=*/8,
                  /*kv_quota=*/2);
    analysis::Workload wl;
    wl.requests.push_back({.model = 0,
                           .prompt_tokens = 8,
                           .new_tokens = 8,
                           .deadline_cycles = runtime::kNoDeadline,
                           .count = 6});
    wl.requests.push_back({.model = 1,
                           .prompt_tokens = 16,
                           .new_tokens = 0,
                           .deadline_cycles = runtime::kNoDeadline,
                           .count = 6});
    return analysis::DeploymentAnalyzer::analyze(
        reg, {.total_kv_slots = 4, .kv_budget = std::move(budget)}, &wl);
  };
  configs.push_back({"multimodel_static", [multimodel] {
                       return multimodel(nullptr);
                     }});
  configs.push_back(
      {"multimodel_watermark", [multimodel] {
         return multimodel(
             runtime::make_kv_budget(runtime::KvBudget::watermark));
       }});

  // examples/batched_serving.cpp: fully L2-resident quick-run config.
  configs.push_back(
      {"example_batched", [example] {
         runtime::ModelRegistry reg;
         (void)reg.add(*example, "tinyllama", /*prefill_chunk_tokens=*/2,
                       /*kv_quota=*/2, /*max_resident=*/2);
         analysis::Workload wl;
         wl.requests.push_back({.model = 0,
                                .prompt_tokens = 4,
                                .new_tokens = 6,
                                .deadline_cycles = runtime::kNoDeadline,
                                .count = 4});
         return analysis::DeploymentAnalyzer::analyze(
             reg, {.total_kv_slots = 2, .max_pending = 8}, &wl);
       }});

  // bench/quant_serving.cpp mixed registry: an fp16 TinyLlama decoder
  // next to an int8 MobileBERT encoder in one arena, registered through
  // DeploymentSpec so the analyzer prices each tenant's KV bytes at its
  // declared packed width.
  configs.push_back(
      {"quant_mixed", [] {
         runtime::DeploymentSpec llama;
         llama.model = serving_model();
         llama.model.name = "tinyllama";
         llama.chips = 2;
         llama.kv_layout = runtime::KvLayout::fp16;
         llama.prefill_chunk_tokens = 4;
         runtime::DeploymentSpec bert;
         bert.model = encoder_model();
         bert.model.name = "mobilebert";
         bert.model.num_layers = 2;
         bert.chips = 2;
         bert.precision = runtime::Precision::int8;
         bert.kv_layout = runtime::KvLayout::int8;
         runtime::ModelRegistry reg;
         (void)reg.add(llama);
         (void)reg.add(bert);
         analysis::Workload wl;
         wl.requests.push_back({.model = 0,
                                .prompt_tokens = 8,
                                .new_tokens = 8,
                                .deadline_cycles = runtime::kNoDeadline,
                                .count = 4});
         wl.requests.push_back({.model = 1,
                                .prompt_tokens = 16,
                                .new_tokens = 0,
                                .deadline_cycles = runtime::kNoDeadline,
                                .count = 4});
         return analysis::DeploymentAnalyzer::analyze(
             reg, {.total_kv_slots = 2, .max_pending = 16}, &wl);
       }});

  // bench/paged_serving.cpp: one single-model engine per KV layout at
  // equal pool bytes — two whole-context pages, then 32 four-token
  // pages without and with prefix sharing. The workload carries the
  // longest job (the one the page-cap guard binds on).
  struct PagedShape {
    const char* name;
    int pages;
    int page_tokens;
    bool prefix_sharing;
  };
  for (const PagedShape& p : {PagedShape{"paged_whole_context", 2, 0, false},
                              PagedShape{"paged_pages", 32, 4, false},
                              PagedShape{"paged_prefix", 32, 4, true}}) {
    configs.push_back({p.name, [serving, p] {
                         runtime::ModelRegistry reg;
                         (void)reg.add(*serving, "tinyllama",
                                       /*prefill_chunk_tokens=*/4,
                                       /*kv_quota=*/p.pages,
                                       /*max_resident=*/p.pages);
                         analysis::Workload wl;
                         wl.requests.push_back(
                             {.model = 0,
                              .prompt_tokens = 8,
                              .new_tokens = 12,
                              .deadline_cycles = runtime::kNoDeadline,
                              .count = 12});
                         return analysis::DeploymentAnalyzer::analyze(
                             reg,
                             {.total_kv_slots = p.pages,
                              .max_pending = 64,
                              .kv_page_tokens = p.page_tokens,
                              .prefix_sharing = p.prefix_sharing},
                             &wl);
                       }});
  }

  // bench/fleet_serving.cpp: its two node shapes, both paged with
  // prefix sharing — a 4-chip node serving the decoder and the encoder
  // from 48 four-token pages, and a 2-chip decoder-only node with 24
  // eight-token pages. The workload carries the fleet-wide classes at
  // their longest shapes and their deadlines.
  auto fleet_decoder4 =
      std::make_shared<runtime::InferenceSession>(fleet_decoder_model(), 4);
  auto fleet_decoder2 =
      std::make_shared<runtime::InferenceSession>(fleet_decoder_model(), 2);
  auto fleet_encoder4 =
      std::make_shared<runtime::InferenceSession>(fleet_encoder_model(), 4);
  const analysis::SloRequest fleet_decode{.model = 0,
                                          .prompt_tokens = 12,
                                          .new_tokens = 9,
                                          .deadline_cycles = 3'000'000,
                                          .count = 600};
  configs.push_back(
      {"fleet_fast_node", [fleet_decoder4, fleet_encoder4, fleet_decode] {
         runtime::ModelRegistry reg;
         (void)reg.add(*fleet_decoder4, "tinyllama",
                       /*prefill_chunk_tokens=*/4, /*kv_quota=*/36);
         (void)reg.add(*fleet_encoder4, "tinybert",
                       /*prefill_chunk_tokens=*/4, /*kv_quota=*/12);
         analysis::Workload wl;
         wl.requests.push_back(fleet_decode);
         wl.requests.push_back({.model = 1,
                                .prompt_tokens = 12,
                                .new_tokens = 0,
                                .deadline_cycles = 2'200'000,
                                .count = 200});
         return analysis::DeploymentAnalyzer::analyze(
             reg,
             {.total_kv_slots = 48,
              .max_pending = 24,
              .kv_page_tokens = 4,
              .prefix_sharing = true},
             &wl);
       }});
  configs.push_back(
      {"fleet_slow_node", [fleet_decoder2, fleet_decode] {
         runtime::ModelRegistry reg;
         (void)reg.add(*fleet_decoder2, "tinyllama",
                       /*prefill_chunk_tokens=*/4, /*kv_quota=*/24);
         analysis::Workload wl;
         wl.requests.push_back(fleet_decode);
         return analysis::DeploymentAnalyzer::analyze(
             reg,
             {.total_kv_slots = 24,
              .max_pending = 24,
              .kv_page_tokens = 8,
              .prefix_sharing = true},
             &wl);
       }});

  return configs;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void write_json(const std::string& path,
                const std::vector<std::string>& names,
                const std::vector<analysis::AnalysisReport>& reports) {
  std::ofstream os(path);
  int total_errors = 0;
  int total_warnings = 0;
  os << "{\n  \"schema\": \"distmcu.analysis.v1\",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& rep = reports[i];
    total_errors += rep.errors();
    total_warnings += rep.warnings();
    os << "    {\"config\": \"" << json_escape(names[i]) << "\", \"errors\": "
       << rep.errors() << ", \"warnings\": " << rep.warnings()
       << ", \"ok\": " << (rep.ok() ? "true" : "false") << ",\n"
       << "     \"codes\": [";
    const auto codes = rep.codes();
    for (std::size_t c = 0; c < codes.size(); ++c) {
      os << (c > 0 ? ", " : "") << "\"" << json_escape(codes[c]) << "\"";
    }
    os << "],\n     \"diagnostics\": [";
    for (std::size_t d = 0; d < rep.diagnostics.size(); ++d) {
      const auto& diag = rep.diagnostics[d];
      os << (d > 0 ? ",\n       " : "\n       ") << "{\"code\": \""
         << json_escape(diag.code) << "\", \"severity\": \""
         << analysis::severity_name(diag.severity) << "\", \"entity\": \""
         << json_escape(diag.entity) << "\",\n        \"message\": \""
         << json_escape(diag.message) << "\", \"hint\": \""
         << json_escape(diag.hint) << "\"}";
    }
    os << (rep.diagnostics.empty() ? "]}" : "\n     ]}")
       << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"total_errors\": " << total_errors
     << ",\n  \"total_warnings\": " << total_warnings << ",\n  \"all_ok\": "
     << (total_errors == 0 ? "true" : "false") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--config" && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::cerr << "usage: analyze [--json <path>] [--config <name>]\n";
      return 2;
    }
  }

  auto configs = shipped_configs();
  std::vector<std::string> names;
  std::vector<analysis::AnalysisReport> reports;
  bool matched = false;
  for (const auto& cfg : configs) {
    if (!only.empty() && cfg.name != only) continue;
    matched = true;
    std::cout << "== " << cfg.name << " ==\n";
    analysis::AnalysisReport rep = cfg.run();
    std::cout << rep.to_text() << "\n";
    names.push_back(cfg.name);
    reports.push_back(std::move(rep));
  }
  if (!only.empty() && !matched) {
    std::cerr << "analyze: no config named '" << only << "'\n";
    return 2;
  }

  if (!json_path.empty()) {
    write_json(json_path, names, reports);
    std::cout << "wrote " << json_path << "\n";
  }

  int total_errors = 0;
  for (const auto& rep : reports) total_errors += rep.errors();
  if (total_errors > 0) {
    std::cerr << "analyze: " << total_errors
              << " error-severity diagnostic(s) across shipped configs\n";
    return 1;
  }
  return 0;
}
