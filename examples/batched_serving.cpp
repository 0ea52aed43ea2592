// Batched serving walkthrough: submit a handful of generation requests
// with mixed prompt lengths to one deployed (model, chip-count) system,
// let them share the batch with continuous admission, and show that
// every stream matches what a dedicated InferenceSession::generate call
// would have produced — while the aggregate cost is lower than serving
// them one after another.
#include <iostream>
#include <map>
#include <vector>

#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/scheduler.hpp"

using namespace distmcu;

namespace {

/// Full-width TinyLlama blocks (layer count and vocabulary cut for a
/// quick demo); at 4 chips the weights stream from L3 every decode
/// step, so sharing them across the batch shows up in the aggregate.
model::TransformerConfig demo_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 32;
  cfg.prompt_len = 4;
  cfg.validate();
  return cfg;
}

void print_tokens(const std::vector<int>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::cout << (i == 0 ? "" : " ") << tokens[i];
  }
}

}  // namespace

int main() {
  const auto cfg = demo_model();
  const double freq_hz = 500e6;
  const runtime::InferenceSession session(cfg, 4);

  // Two KV slots serving three requests: the third waits in the queue
  // and joins the batch when the short request finishes.
  runtime::ModelRegistry registry;
  (void)registry.add(session, cfg.name);
  runtime::BatchedEngine engine(registry,
                                {.total_kv_slots = 2, .max_pending = 8});
  struct Job {
    runtime::RequestId id;
    std::vector<int> prompt;
    int new_tokens;
  };
  std::vector<Job> jobs;
  for (const auto& [prompt, n] :
       std::vector<std::pair<std::vector<int>, int>>{
           {{1, 2, 3}, 8}, {{9}, 3}, {{4, 7, 7, 2}, 6}}) {
    const auto id = engine.submit({.prompt = prompt, .new_tokens = n});
    if (!id) {
      std::cout << "request rejected (queue full)\n";
      continue;
    }
    jobs.push_back({*id, prompt, n});
  }

  const auto results = engine.run_to_completion();
  const auto& stats = engine.stats();

  std::cout << "KV pool: " << engine.kv_arena().memory_map() << "\n";
  Cycles sequential_cycles = 0;
  std::map<runtime::RequestId, std::vector<int>> solo_tokens;
  for (const auto& r : results) {
    for (const auto& job : jobs) {
      if (job.id != r.id) continue;
      const auto solo = session.generate(job.prompt, job.new_tokens);
      sequential_cycles += solo.total_cycles;
      solo_tokens[job.id] = solo.tokens;
      std::cout << "request " << r.id << " (admitted step " << r.admitted_step
                << ", finished step " << r.finished_step << ")\n  tokens: ";
      print_tokens(r.gen.tokens);
      std::cout << "\n  matches dedicated generate(): "
                << (r.gen.tokens == solo.tokens ? "yes" : "NO") << "\n";
    }
  }

  std::cout << "\naggregate: " << stats.total_generated << " tokens in "
            << stats.steps << " steps, "
            << stats.aggregate_tokens_per_s(freq_hz) << " tok/s, "
            << stats.mj_per_token() << " mJ/token\n";
  std::cout << "batched cycles: " << stats.total_cycles
            << " vs sequential serving: " << sequential_cycles << "\n";
  std::cout << "prefetch overlap: " << stats.stream_cycles_hidden
            << " stream cycles hidden behind compute, "
            << stats.prefetch_stall_cycles
            << " stalled (visible) across " << stats.decode_steps
            << " decode steps\n";

  // --- chunked prefill: the same workload, prompts split into 2-token
  // chunks co-scheduled with decode steps. The chunks' own weight
  // streaming races the step's compute on the shared L3 port instead of
  // being charged serially per request.
  runtime::ModelRegistry chunked_registry;
  (void)chunked_registry.add(session, cfg.name, /*prefill_chunk_tokens=*/2);
  runtime::BatchedEngine chunked(chunked_registry,
                                 {.total_kv_slots = 2, .max_pending = 8});
  for (const auto& job : jobs) {
    (void)chunked.submit({.prompt = job.prompt, .new_tokens = job.new_tokens});
  }
  const auto chunked_results = chunked.run_to_completion();
  const auto& cs = chunked.stats();
  // The fresh engine reissues the same ids in submit order, so the
  // reference streams computed above apply directly.
  bool all_match = true;
  for (const auto& r : chunked_results) {
    const auto solo = solo_tokens.find(r.id);
    all_match &= solo != solo_tokens.end() && r.gen.tokens == solo->second;
  }
  std::cout << "\nchunked prefill (chunk = 2 tokens):\n"
            << "  tokens still match dedicated generate(): "
            << (all_match ? "yes" : "NO") << "\n"
            << "  prompt phase charged " << cs.prefill_cycles
            << " cycles vs " << stats.prefill_cycles
            << " under serial prefill ("
            << cs.prefill_cycles_hidden
            << " prompt-stream cycles hidden behind batch compute, "
            << cs.prefill_stall_cycles << " visible)\n"
            << "  total: " << cs.total_cycles << " cycles across "
            << cs.steps << " steps (" << cs.prefill_steps
            << " ran prompt chunks)\n";

  // --- latency-aware scheduling: one long best-effort job submitted
  // ahead of two short deadline jobs, served with a single KV slot so
  // the admission order decides who waits. FIFO drains the long job
  // first and both deadlines blow in the queue; EDF admits the deadline
  // jobs ahead — same total work, different miss counts. Token streams
  // stay bit-identical to generate() under any admission order.
  const Cycles deadline = 40'000'000;
  struct SloJob {
    std::vector<int> prompt;
    int new_tokens;
    runtime::SloSpec slo;
  };
  const std::vector<SloJob> slo_jobs{
      {{1, 2, 3}, 12, {.priority = 2, .deadline_cycles = runtime::kNoDeadline}},
      {{9}, 2, {.priority = 0, .deadline_cycles = deadline}},
      {{4, 7}, 2, {.priority = 0, .deadline_cycles = deadline}},
  };
  std::cout << "\nlatency-aware scheduling (1 KV slot, deadline "
            << deadline << " cycles):\n";
  for (const auto policy :
       {runtime::SchedulePolicy::fifo, runtime::SchedulePolicy::edf}) {
    runtime::BatchedEngine sched_engine(
        chunked_registry,
        {.total_kv_slots = 1,
         .max_pending = 8,
         .scheduler = runtime::make_scheduler(policy)});
    std::map<runtime::RequestId, const SloJob*> by_id;
    for (const auto& job : slo_jobs) {
      by_id[*sched_engine.submit({.prompt = job.prompt,
                                  .new_tokens = job.new_tokens,
                                  .slo = job.slo})] = &job;
    }
    const auto sched_results = sched_engine.run_to_completion();
    const auto& ss = sched_engine.stats();
    bool match = true;
    for (const auto& r : sched_results) {
      const SloJob& job = *by_id.at(r.id);
      match &= r.gen.tokens == session.generate(job.prompt, job.new_tokens).tokens;
    }
    std::cout << "  " << runtime::policy_name(policy) << ": "
              << ss.deadline_misses << "/" << ss.slo_requests
              << " deadline misses, p95 queue delay " << ss.queue_delay_p95
              << " cycles, total " << ss.total_cycles << " cycles, streams "
              << (match ? "match generate()" : "MISMATCH") << "\n";
  }
  std::cout << "  (EDF admits the deadline jobs ahead of the queued "
               "best-effort job.)\n";
  return 0;
}
