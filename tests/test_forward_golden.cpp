// Golden pin of the functional forward: the float bit patterns of
// InferenceSession::forward outputs and of the KV caches they fill, the
// token streams of generate() (hidden states of encode() for
// bidirectional models), and BatchedEngine streams under chunked and
// serial prefill, prefix sharing, preemption and mixed float/int8
// tenants are hashed (FNV-1a) and compared against values recorded from
// the reference implementation. Every other forward check is a
// max_abs_diff tolerance; this one catches a single flipped bit in any
// output the served streams depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/tensor.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::TransformerConfig;
using runtime::BatchedEngine;
using runtime::DeploymentSpec;
using runtime::InferenceSession;

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void floats(std::span<const float> xs) {
    for (const float x : xs) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      bytes(&bits, sizeof bits);
    }
  }
  void ints(const std::vector<int>& xs) {
    for (const int x : xs) bytes(&x, sizeof x);
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << h_;
    return os.str();
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// distbench's full-width TinyLlama-42M block cut to two layers.
TransformerConfig tinyllama() {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama";
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

/// The fleet bench's E = 32 decoder.
TransformerConfig fleet_llama() {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "fleetllama";
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

/// The fleet bench's bidirectional encoder.
TransformerConfig tinybert() {
  auto cfg = fleet_llama();
  cfg.name = "tinybert";
  cfg.ffn_dim = 96;
  cfg.ar_context = 16;
  cfg.mask = model::MaskKind::bidirectional;
  cfg.validate();
  return cfg;
}

/// Eight heads, so 3 and 5 chips split heads (and F) unevenly.
TransformerConfig uneven_llama() {
  auto cfg = fleet_llama();
  cfg.name = "uneven";
  cfg.embed_dim = 64;
  cfg.ffn_dim = 160;
  cfg.num_heads = 8;
  cfg.head_dim = 8;
  cfg.ar_context = 32;
  cfg.validate();
  return cfg;
}

/// Post-norm MobileBERT blocks (paper Fig. 3) cut to two layers.
TransformerConfig mobilebert() {
  auto cfg = TransformerConfig::mobile_bert();
  cfg.name = "mobilebert";
  cfg.num_layers = 2;
  cfg.vocab_size = 256;
  cfg.ar_context = 32;
  cfg.prompt_len = 16;
  cfg.validate();
  return cfg;
}

/// Pre-norm SwiGLU block (the authentic Llama FFN).
TransformerConfig swiglu() {
  auto cfg = TransformerConfig::tiny_llama_42m();
  cfg.name = "swiglu";
  cfg.embed_dim = 48;
  cfg.ffn_dim = 96;
  cfg.num_heads = 4;
  cfg.head_dim = 12;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 16;
  cfg.prompt_len = 5;
  cfg.ffn = model::FfnKind::swiglu;
  cfg.act = model::Activation::silu;
  cfg.pre_norm = true;
  cfg.validate();
  return cfg;
}

/// distbench's int8 MobileBERT encoder.
TransformerConfig int8_bert() {
  auto cfg = TransformerConfig::mobile_bert();
  cfg.name = "int8bert";
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 64;
  cfg.validate();
  return cfg;
}

/// Pre-norm variant of the fleet decoder.
TransformerConfig prenorm_fleet() {
  auto cfg = fleet_llama();
  cfg.name = "prenormfleet";
  cfg.pre_norm = true;
  cfg.validate();
  return cfg;
}

struct Deployment {
  const char* key;
  TransformerConfig (*model)();
  int chips;
  bool int8;
  int chunk;
  runtime::KvLayout kv = runtime::KvLayout::int8;  // int8 deployments only
};

const Deployment kDeployments[] = {
    {"tinyllama c8", tinyllama, 8, false, 4},
    {"fleet c2", fleet_llama, 2, false, 4},
    {"fleet c4", fleet_llama, 4, false, 4},
    {"tinybert c2", tinybert, 2, false, 4},
    {"uneven c3", uneven_llama, 3, false, 3},
    {"uneven c5", uneven_llama, 5, false, 2},
    {"mobilebert c4", mobilebert, 4, false, 8},
    {"swiglu c3", swiglu, 3, false, 2},
    {"int8bert c4", int8_bert, 4, true, 16},
    {"int8 uneven c3", uneven_llama, 3, true, 3},
    {"int8 prenorm fleet c2", prenorm_fleet, 2, true, 4, runtime::KvLayout::int4},
};

DeploymentSpec spec_of(const Deployment& d) {
  DeploymentSpec spec;
  spec.model = d.model();
  spec.chips = d.chips;
  spec.prefill_chunk_tokens = d.chunk;
  if (d.int8) {
    spec.precision = runtime::Precision::int8;
    spec.kv_layout = d.kv;
  }
  return spec;
}

bool bidirectional(const TransformerConfig& cfg) {
  return cfg.mask == model::MaskKind::bidirectional;
}

void hash_caches(Fnv& h, const std::vector<std::vector<model::KvCache>>& caches) {
  for (const auto& chip : caches) {
    for (const auto& cache : chip) {
      h.u64(static_cast<std::uint64_t>(cache.length()));
      h.floats(cache.k());
      h.floats(cache.v());
    }
  }
}

/// Prompt rows at position 0, a chunk at an offset, then two decode rows,
/// through the first and the last layer against one cache set; then one
/// cache-free forward (encode's shape). Hashes every output and the
/// caches after them.
std::string forward_digest(const InferenceSession& s) {
  const TransformerConfig& cfg = s.config();
  util::Rng rng(0x90de);
  auto caches = s.make_chip_caches(cfg.ar_context);
  Fnv out;
  const auto step = [&](int rows, int layer, int pos) {
    model::Tensor x(rows, cfg.embed_dim);
    x.random_init(rng, 1.0f);
    out.floats(s.forward(x, layer, &caches, pos).span());
  };
  for (const int layer : {0, cfg.num_layers - 1}) {
    step(5, layer, 0);
    step(3, layer, 5);
    step(1, layer, 8);
    step(1, layer, 9);
  }
  Fnv kv;
  hash_caches(kv, caches);
  model::Tensor x(6, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  Fnv enc;
  enc.floats(s.forward(x, 0, nullptr, 0).span());
  return "out=" + out.hex() + " kv=" + kv.hex() + " nocache=" + enc.hex();
}

std::vector<int> prompt_of(int len, int salt, int vocab) {
  std::vector<int> p;
  for (int i = 0; i < len; ++i) p.push_back(1 + (salt * 37 + i * 11) % (vocab - 1));
  return p;
}

/// generate() streams for decoders, encode() hidden states for encoders.
std::string generate_digest(const InferenceSession& s) {
  const TransformerConfig& cfg = s.config();
  Fnv h;
  if (bidirectional(cfg)) {
    h.floats(s.encode(prompt_of(cfg.prompt_len, 3, cfg.vocab_size)).span());
  } else {
    h.ints(s.generate(prompt_of(std::min(5, cfg.prompt_len), 1, cfg.vocab_size), 6).tokens);
    h.ints(s.generate(prompt_of(1, 2, cfg.vocab_size), 3).tokens);
  }
  return h.hex();
}

struct Submit {
  runtime::ModelId model;
  std::vector<int> prompt;
  int new_tokens;
  runtime::SloSpec slo{};
};

/// Streams, attributed cycles and finish stamps of every finished
/// request, in id order, plus the engine's totals.
std::string engine_digest(BatchedEngine& engine, const std::vector<Submit>& wave1,
                          const std::vector<Submit>& wave2 = {}) {
  for (const auto* wave : {&wave1, &wave2}) {
    for (const Submit& s : *wave) {
      EXPECT_TRUE(engine.submit({.model = s.model,
                                 .prompt = s.prompt,
                                 .new_tokens = s.new_tokens,
                                 .slo = s.slo})
                      .has_value());
    }
    (void)engine.run_to_completion();
  }
  std::vector<runtime::RequestResult> results = engine.finished();
  std::sort(results.begin(), results.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  Fnv h;
  for (const auto& r : results) {
    h.u64(static_cast<std::uint64_t>(r.id));
    h.u64(static_cast<std::uint64_t>(r.model));
    h.ints(r.gen.tokens);
    h.u64(r.gen.total_cycles);
    h.u64(r.finished_at);
    h.u64(static_cast<std::uint64_t>(r.times_evicted));
  }
  const auto& st = engine.stats();
  h.u64(st.total_cycles);
  h.u64(static_cast<std::uint64_t>(st.total_generated));
  std::ostringstream os;
  os << "n=" << results.size() << " gen=" << st.total_generated
     << " pre=" << st.preemptions << " hits=" << st.prefix_hits << " h=" << h.hex();
  return os.str();
}

/// `n` decode requests of staggered prompt and output lengths.
std::vector<Submit> decoders(const TransformerConfig& cfg, int n, int salt,
                             runtime::ModelId model = 0) {
  std::vector<Submit> out;
  for (int i = 0; i < n; ++i) {
    const int len = 1 + (i * 3 + salt) % cfg.prompt_len;
    const int gen = 2 + (i * 5 + salt) % 5;
    out.push_back({model, prompt_of(len, salt + i, cfg.vocab_size), gen});
  }
  return out;
}

std::vector<std::string> engine_lines() {
  std::vector<std::string> lines;
  const auto single = [](const DeploymentSpec& spec, BatchedEngine::MultiOptions opts) {
    auto reg = std::make_shared<runtime::ModelRegistry>();
    (void)reg->add(spec);
    return std::make_pair(reg, opts);
  };
  // Chunked prefill, 1-8 concurrent requests, on every decoder.
  for (const Deployment& d : kDeployments) {
    const DeploymentSpec spec = spec_of(d);
    if (bidirectional(spec.model)) continue;
    for (const int n : {1, 3, 8}) {
      auto [reg, opts] = single(spec, {.total_kv_slots = 8});
      BatchedEngine engine(*reg, opts);
      lines.push_back(std::string("engine chunked ") + d.key + " x" + std::to_string(n) +
                      " | " + engine_digest(engine, decoders(spec.model, n, n)));
    }
  }
  // Serial prefill (whole prompt at admission) with a queue behind 4 slots.
  for (const Deployment& d : {kDeployments[1], kDeployments[4]}) {
    DeploymentSpec spec = spec_of(d);
    spec.prefill_chunk_tokens = 0;
    auto [reg, opts] = single(spec, {.total_kv_slots = 4});
    BatchedEngine engine(*reg, opts);
    lines.push_back(std::string("engine serial ") + d.key + " x6 | " +
                    engine_digest(engine, decoders(spec.model, 6, 2)));
  }
  // Encoders: prefill-only requests, float and int8.
  for (const Deployment& d : {kDeployments[3], kDeployments[6], kDeployments[8]}) {
    const DeploymentSpec spec = spec_of(d);
    auto [reg, opts] = single(spec, {.total_kv_slots = 4});
    BatchedEngine engine(*reg, opts);
    std::vector<Submit> wave;
    for (int i = 0; i < 5; ++i) {
      wave.push_back({0,
                      prompt_of(spec.model.prompt_len - (i % 3), i, spec.model.vocab_size),
                      0});
    }
    lines.push_back(std::string("engine encoder ") + d.key + " x5 | " +
                    engine_digest(engine, wave));
  }
  // Paged prefix sharing: a donor wave, then adopters sharing its prompt
  // prefix at page and mid-page boundaries.
  for (const Deployment& d : {kDeployments[2], kDeployments[4]}) {
    const DeploymentSpec spec = spec_of(d);
    auto [reg, opts] = single(spec, {.total_kv_slots = 48,
                                     .kv_page_tokens = 4,
                                     .prefix_sharing = true});
    BatchedEngine engine(*reg, opts);
    const int vocab = spec.model.vocab_size;
    const std::vector<int> sys = prompt_of(10, 7, vocab);
    std::vector<Submit> donors = {{0, sys, 4}};
    std::vector<Submit> adopters;
    for (int i = 0; i < 6; ++i) {
      std::vector<int> p(sys.begin(), sys.begin() + 4 + i);
      p.push_back(1 + (i * 13) % (vocab - 1));
      adopters.push_back({0, p, 2 + i % 3});
    }
    lines.push_back(std::string("engine prefix ") + d.key + " x7 | " +
                    engine_digest(engine, donors, adopters));
  }
  // Preemption: a best-effort long request is checkpointed out of the only
  // slot for a deadline request, then resumed.
  const auto preempt = [&](const Deployment& d, int chunk) {
    DeploymentSpec spec = spec_of(d);
    spec.prefill_chunk_tokens = chunk;
    const InferenceSession probe(spec);
    const auto layers = static_cast<Cycles>(spec.model.num_layers);
    const auto ar = probe.run_block(model::Mode::autoregressive);
    const Cycles per_req =
        (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
    const Cycles prefill = probe.run_block(model::Mode::prompt).report.block_cycles * layers;
    auto [reg, opts] =
        single(spec, {.total_kv_slots = 1,
                      .max_pending = 8,
                      .scheduler = std::make_shared<runtime::EdfScheduler>(),
                      .preemption = std::make_shared<runtime::DeadlineAwarePreemption>()});
    BatchedEngine engine(*reg, opts);
    const int vocab = spec.model.vocab_size;
    const int ctx = spec.model.ar_context;
    EXPECT_TRUE(engine.submit({.prompt = prompt_of(2, 1, vocab), .new_tokens = ctx - 4})
                    .has_value());
    EXPECT_TRUE(engine.step());
    EXPECT_TRUE(engine.step());
    const std::vector<Submit> urgent = {
        {0, prompt_of(2, 2, vocab), 2,
         {.priority = 0, .deadline_cycles = 2 * prefill + 4 * per_req}}};
    lines.push_back(std::string("engine preempt ") + d.key + " chunk" +
                    std::to_string(chunk) + " | " + engine_digest(engine, urgent));
    EXPECT_GE(engine.stats().preemptions, 1) << d.key;
  };
  for (const Deployment& d : {kDeployments[2], kDeployments[7]}) {
    for (const int chunk : {0, d.chunk}) preempt(d, chunk);
  }
  // Two tenants in one engine: a float decoder next to the int8 encoder.
  {
    auto reg = std::make_shared<runtime::ModelRegistry>();
    const DeploymentSpec llama = spec_of(kDeployments[2]);
    const DeploymentSpec bert = spec_of(kDeployments[8]);
    (void)reg->add(llama);
    (void)reg->add(bert);
    BatchedEngine engine(*reg, {.total_kv_slots = 6});
    std::vector<Submit> wave = decoders(llama.model, 5, 4, 0);
    for (int i = 0; i < 3; ++i) {
      wave.push_back({1, prompt_of(bert.model.prompt_len - 5 * i, 9 + i, bert.model.vocab_size),
                      0});
    }
    lines.push_back("engine mixed fleet c4 + int8bert c4 x8 | " + engine_digest(engine, wave));
  }
  // An int8 decoder: preemption checkpoints and resumes fake-quantized KV.
  preempt(kDeployments[9], kDeployments[9].chunk);
  return lines;
}

std::vector<std::string> all_lines() {
  std::vector<std::string> lines;
  for (const Deployment& d : kDeployments) {
    const InferenceSession s(spec_of(d));
    lines.push_back(std::string("forward ") + d.key + " | " + forward_digest(s));
    lines.push_back(std::string("generate ") + d.key + " | " + generate_digest(s));
  }
  const auto eng = engine_lines();
  lines.insert(lines.end(), eng.begin(), eng.end());
  return lines;
}

const char* const kGolden[] = {
#include "forward_golden.inc"
};

}  // namespace

TEST(ForwardGolden, OutputsCachesAndStreamsMatchPinnedHashes) {
  const std::vector<std::string> lines = all_lines();
  if (lines.size() != std::size(kGolden)) {
    // The grid changed: print the actual lines in .inc form for review.
    for (const auto& l : lines) std::cout << '"' << l << "\",\n";
  }
  ASSERT_EQ(lines.size(), std::size(kGolden));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kGolden[i]) << "golden line " << i;
  }
}
