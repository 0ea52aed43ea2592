#include "runtime/inference_session.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::runtime {

InferenceSession::InferenceSession(model::TransformerConfig cfg, int n_chips,
                                   SystemConfig sys, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      sys_(std::move(sys)),
      weights_(cfg_, seed),
      embedding_(cfg_, seed),
      plan_(partition::PartitionPlan::create(cfg_, n_chips)),
      shards_(weights_, plan_),
      topo_(sys_.flat_topology ? noc::Topology::flat(n_chips)
                               : noc::Topology::hierarchical(n_chips, sys_.group_size)),
      sim_(sys_),
      energy_(sys_.chip, sys_.link) {
  block_ = std::make_unique<partition::DistributedBlock>(cfg_, weights_, shards_, plan_,
                                                         topo_);
}

namespace {
SystemConfig spec_system(const DeploymentSpec& spec) {
  spec.validate();
  SystemConfig sys = spec.system;
  sys.precision = precision_numerics(spec.precision, sys.precision);
  return sys;
}
}  // namespace

InferenceSession::InferenceSession(const DeploymentSpec& spec)
    : InferenceSession(spec.model, spec.chips, spec_system(spec), spec.seed) {
  precision_ = spec.precision;
  kv_layout_ = spec.kv_layout;
  if (precision_ == Precision::int8) {
    // The int8 weight set is the precision: the block given it runs A8W8.
    int8_ = std::make_unique<partition::Int8Weights>(cfg_, shards_, kv_elem_bits());
    block_ = std::make_unique<partition::DistributedBlock>(cfg_, weights_, shards_, plan_,
                                                           topo_, int8_.get());
  }
}

BlockResult InferenceSession::run_block(model::Mode mode) const {
  BlockResult out;
  out.report = sim_.run(plan_, mode);
  out.energy = energy_.compute(out.report);
  const partition::MemoryPlanner planner(sys_.chip, sys_.precision);
  out.memory = planner.plan(plan_, mode);
  return out;
}

BlockResult InferenceSession::run_prompt_chunk(int chunk_tokens,
                                               int attention_span) const {
  return run_prompt_chunks(chunk_tokens, {attention_span}).front();
}

std::vector<BlockResult> InferenceSession::run_prompt_chunks(
    int chunk_tokens, const std::vector<int>& attention_spans) const {
  DISTMCU_CHECK(chunk_tokens > 0,
              "run_prompt_chunks: chunk_tokens must be positive");
  DISTMCU_CHECK(!attention_spans.empty(),
              "run_prompt_chunks: need at least one attention span");
  // A chunk is a prompt-mode block at its own static shape: prompt_len
  // becomes the chunk length while the attention span tracks the cached
  // prefix. The partition (head/F slices) is shape-independent, so the
  // chunk plan shards identically to the deployment's — and both it and
  // the memory plan are shared across all spans.
  model::TransformerConfig chunk_cfg = cfg_;
  chunk_cfg.prompt_len = chunk_tokens;
  chunk_cfg.validate();
  const auto chunk_plan =
      partition::PartitionPlan::create(chunk_cfg, plan_.num_chips());
  const partition::MemoryPlanner planner(sys_.chip, sys_.precision);
  const partition::MemoryPlan memory =
      planner.plan(chunk_plan, model::Mode::prompt);

  std::vector<BlockResult> out;
  out.reserve(attention_spans.size());
  for (const int span : attention_spans) {
    DISTMCU_CHECK(span >= chunk_tokens,
                "run_prompt_chunks: attention_span must cover the chunk");
    BlockResult r;
    r.report = sim_.run(chunk_plan, model::Mode::prompt, nullptr, span);
    r.energy = energy_.compute(r.report);
    r.memory = memory;
    r.memory.attention_span = span;
    out.push_back(std::move(r));
  }
  return out;
}

void InferenceSession::forward(partition::ForwardWorkspace& ws, std::span<const float> x,
                               std::span<float> out,
                               std::span<const partition::RowGroup> groups,
                               int layer) const {
  block_->forward(ws, x, out, groups, layer);
}

model::Tensor InferenceSession::forward(
    const model::Tensor& x, int layer,
    std::vector<std::vector<model::KvCache>>* chip_caches, int pos_offset) const {
  partition::ForwardWorkspace ws;
  model::Tensor out(x.rows(), x.cols());
  const partition::RowGroup group{chip_caches, pos_offset, x.rows()};
  forward(ws, x.span(), out.span(), {&group, 1}, layer);
  return out;
}

std::span<const float> InferenceSession::forward_tokens(
    partition::ForwardWorkspace& ws, std::span<const int> ids,
    std::span<const partition::RowGroup> groups) const {
  const std::size_t size = ids.size() * static_cast<std::size_t>(cfg_.embed_dim);
  embedding_.lookup(ids, partition::ForwardWorkspace::take(ws.x, size));
  for (int l = 0; l < cfg_.num_layers; ++l) {
    forward(ws, partition::ForwardWorkspace::take(ws.x, size),
            partition::ForwardWorkspace::take(ws.y, size), groups, l);
    ws.x.swap(ws.y);
  }
  return partition::ForwardWorkspace::take(ws.x, size);
}

GenerationResult InferenceSession::generate(const std::vector<int>& prompt,
                                            int new_tokens) const {
  DISTMCU_CHECK(!prompt.empty(), "generate: prompt must not be empty");
  DISTMCU_CHECK(new_tokens >= 0, "generate: new_tokens must be >= 0");
  DISTMCU_CHECK(static_cast<int>(prompt.size()) + new_tokens <= cfg_.ar_context,
              "generate: sequence exceeds the model's context length");

  GenerationResult out;
  out.tokens = prompt;

  // Per-block costs from the timed model, reused for every layer/token.
  const BlockResult prompt_cost = run_block(model::Mode::prompt);
  const BlockResult ar_cost = run_block(model::Mode::autoregressive);
  const auto layers = static_cast<Cycles>(cfg_.num_layers);

  auto caches = make_chip_caches(cfg_.ar_context);
  partition::ForwardWorkspace ws;
  const int e = cfg_.embed_dim;
  // Greedy token after the last row of a forward's hidden states.
  const auto greedy_last = [&](std::span<const float> h) {
    const int rows = static_cast<int>(h.size()) / e;
    int next = 0;
    embedding_.greedy_rows(kernels::ConstView(h, rows, e).row_range(rows - 1, rows),
                           ws.logits, {&next, 1});
    return next;
  };

  // --- prefill: run the prompt through all layers (prompt mode) -------
  partition::RowGroup group{&caches, 0, static_cast<int>(prompt.size())};
  int next = greedy_last(forward_tokens(ws, prompt, {&group, 1}));
  out.total_cycles += prompt_cost.report.block_cycles * layers;
  out.total_energy_mj += prompt_cost.energy_mj() * static_cast<double>(layers);

  // --- decode: one token at a time against the KV caches --------------
  group.pos_offset = static_cast<int>(prompt.size());
  group.rows = 1;
  for (int t = 0; t < new_tokens; ++t) {
    out.tokens.push_back(next);
    ++out.generated;
    if (t + 1 == new_tokens) break;
    next = greedy_last(forward_tokens(ws, {&next, 1}, {&group, 1}));
    out.total_cycles += ar_cost.report.block_cycles * layers;
    out.total_energy_mj += ar_cost.energy_mj() * static_cast<double>(layers);
    ++group.pos_offset;
  }
  return out;
}

model::Tensor InferenceSession::encode(const std::vector<int>& tokens) const {
  DISTMCU_CHECK(static_cast<int>(tokens.size()) == cfg_.prompt_len,
              "encode: token count must equal the configured sequence length (" +
                  std::to_string(cfg_.prompt_len) + ")");
  partition::ForwardWorkspace ws;
  const partition::RowGroup group{nullptr, 0, cfg_.prompt_len};
  const std::span<const float> h = forward_tokens(ws, tokens, {&group, 1});
  model::Tensor out(cfg_.prompt_len, cfg_.embed_dim);
  std::copy(h.begin(), h.end(), out.span().begin());
  return out;
}

}  // namespace distmcu::runtime
