// Serving-throughput bench: aggregate tokens/s, energy per token, and
// mean per-request latency of the batched engine at batch sizes
// B in {1, 2, 4, 8}, against the B=1 (sequential serving) baseline AND
// against the serial-charging cost model (compute + stream per step).
// Continuous batching shares each decode step's block-weight streaming
// across the batch, and the engine overlaps the next step's weight
// prefetch with the batch's compute, so a step costs
// max(compute, stream) — prefetch_stall_cycles is the remainder the
// batch could not hide and shrinks to zero as B grows.
//
// The second table sweeps the chunked-prefill step model on the same
// default workload: prompts split into fixed-size chunks, co-scheduled
// with decodes, the chunks' own weight streaming racing the step's
// compute on the shared L3 port. prompt_mcyc — what the engine actually
// charges for the prompt phase — must drop strictly below the serial
// model's (chunk 0) charge once chunking is on.
//
// The third table runs a deadline-mixed workload (long best-effort
// background jobs submitted ahead of short interactive jobs with tight
// deadlines) under each admission policy — fifo / priority / edf — and
// reports deadline misses and the queueing-delay distribution. EDF must
// cut the miss count versus FIFO at equal-or-better aggregate
// throughput; the bench exits nonzero if it does not, so CI catches a
// scheduling regression even without the JSON gate.
//
// The fourth table drives an identical overloaded offered load — a
// burst of long best-effort background jobs from one tenant, then
// tight-deadline interactive jobs from a second tenant, then a second
// background flood that jams the bounded queue — through three engine
// configurations: the non-preemptive EDF engine, EDF + deadline-aware
// preemption (checkpoint/evict/resume), and the full overload stack
// (preemption + fail-fast rejection + fair load shedding). Preemption
// must cut the deadline misses, and the full stack must cut them
// further (hopeless deadlines are refused at submit instead of
// counting as misses); the bench exits nonzero otherwise.
//
// --json <path> additionally writes the machine-readable result used by
// the CI perf-regression gate (tools/check_bench_regression.py compares
// it against bench/baselines/serving_baseline.json). Stable schema:
//
//   {
//     "schema": "distmcu.serving.v2",
//     "model": "<config name>", "chips": N, "freq_hz": F,
//     "batch_sweep": [            // first table, one row per batch size
//       {"batch": B, "tokens_per_s": x, "total_cycles": n,
//        "stall_cycles": n, "hidden_cycles": n, "mj_per_token": x}],
//     "chunk_sweep": [            // second table, one row per chunk size
//       {"chunk": C, "total_cycles": n, "prefill_cycles": n,
//        "prefill_stall_cycles": n, "tokens_per_s": x}],
//     "slo_policies": [           // third table, one row per policy
//       {"policy": "fifo|priority|edf", "total_cycles": n,
//        "tokens_per_s": x, "slo_requests": n, "deadline_misses": n,
//        "miss_rate": x, "queue_delay_p50": n, "queue_delay_p95": n,
//        "queue_delay_p99": n}],
//     "overload": [               // fourth table, one row per config
//       {"config": "edf|edf+preempt|edf+preempt+failfast+shed",
//        "offered": n, "accepted": n, "completed": n,
//        "deadline_misses": n, "miss_rate": x,
//        "rejected_queue_full": n, "rejected_hopeless": n, "shed": n,
//        "preemptions": n, "resumes": n, "preemption_cycles": n,
//        "queue_depth_peak": n, "total_cycles": n, "tokens_per_s": x}]
//   }
//
// Integer fields are exact simulated cycles/counts; doubles are emitted
// with enough digits to round-trip. Additive fields may appear in later
// versions; consumers must key on "schema" and ignore unknown keys.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
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

/// Full-width TinyLlama blocks with the layer count and vocabulary cut
/// so the functional numerics stay quick. At 4 chips this deployment
/// streams block weights from L3 on every decode step — the regime
/// where continuous batching buys throughput.
model::TransformerConfig bench_model() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 4;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

struct BatchRow {
  int batch = 0;
  double tok_s = 0.0;
  runtime::ServingStats stats;
};

struct ChunkRow {
  int chunk = 0;
  runtime::ServingStats stats;
  double tok_s = 0.0;
};

struct PolicyRow {
  runtime::SchedulePolicy policy{};
  runtime::ServingStats stats;
  double tok_s = 0.0;
};

/// Deadline-mixed workload: four long best-effort background jobs
/// (full 8-token prompts, 16 decode tokens, priority class 2, no
/// deadline) submitted AHEAD of six short interactive jobs (2-token
/// prompts, 3 decode tokens, priority class 0, tight deadline) into two
/// KV slots with chunked prefill. FIFO admits the backgrounds first and
/// every interactive blows its deadline in the queue; a latency-aware
/// policy admits the interactives ahead and meets them, at the same
/// total work (the even background count keeps the final batch full
/// under every admission order, so throughput is an apples-to-apples
/// comparison).
PolicyRow run_slo_scenario(const runtime::InferenceSession& session,
                           runtime::SchedulePolicy policy,
                           Cycles interactive_deadline, double freq_hz) {
  runtime::ModelRegistry reg;
  (void)reg.add(session, session.config().name, /*prefill_chunk_tokens=*/2);
  runtime::BatchedEngine engine(
      reg, {.total_kv_slots = 2,
            .max_pending = 64,
            .scheduler = runtime::make_scheduler(policy)});
  for (int i = 0; i < 4; ++i) {
    (void)*engine.submit(
        {.prompt = {1 + i, 7 + i, 3, 9, 2 + i, 5, 8, 4}, .new_tokens = 16,
         .slo = {.priority = 2, .deadline_cycles = runtime::kNoDeadline}});
  }
  for (int i = 0; i < 6; ++i) {
    (void)*engine.submit(
        {.prompt = {20 + i, 11}, .new_tokens = 3,
         .slo = {.priority = 0, .deadline_cycles = interactive_deadline}});
  }
  (void)engine.run_to_completion();
  return {policy, engine.stats(),
          engine.stats().aggregate_tokens_per_s(freq_hz)};
}

struct OverloadRow {
  std::string config;
  int offered = 0;
  int accepted = 0;
  runtime::ServingStats stats;
  double tok_s = 0.0;
};

struct OverloadJob {
  int step = 0;  ///< engine step at which the job is offered
  runtime::ModelId model = 0;
  std::vector<int> prompt;
  int new_tokens = 0;
  runtime::SloSpec slo;
  bool attempted = false;
};

/// One fixed offered load, identical across the engine configurations:
/// a burst of long background jobs from tenant 0 saturates both KV
/// slots (borrowing tenant 1's reserve under the watermark policy),
/// tight-deadline interactive jobs from tenant 1 arrive mid-serving —
/// including two with hopeless sub-service deadlines — and a second
/// background flood jams the bounded queue before a late interactive
/// wave that only fair shedding can still seat.
std::vector<OverloadJob> overload_jobs(Cycles fg_deadline) {
  std::vector<OverloadJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({0, 0, {1 + i, 7 + i, 3, 9, 2 + i, 5, 8, 4}, 16,
                    {.priority = 2, .deadline_cycles = runtime::kNoDeadline}});
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back({2, 1, {20 + i, 11}, 3,
                    {.priority = 0, .deadline_cycles = fg_deadline}});
  }
  for (int i = 0; i < 2; ++i) {
    jobs.push_back({3, 1, {30 + i, 13}, 3,
                    {.priority = 0, .deadline_cycles = 1'000}});
  }
  for (int i = 0; i < 10; ++i) {
    jobs.push_back({4, 0, {40 + i, 9 - (i % 3), 3, 7}, 16,
                    {.priority = 2, .deadline_cycles = runtime::kNoDeadline}});
  }
  for (int i = 0; i < 3; ++i) {
    jobs.push_back({6, 1, {50 + i, 17}, 3,
                    {.priority = 0, .deadline_cycles = fg_deadline}});
  }
  return jobs;
}

OverloadRow run_overload(const runtime::InferenceSession& session,
                         std::string config, bool preempt, bool failfast,
                         bool fair_shed, Cycles fg_deadline, double freq_hz) {
  // Two tenants over one deployment: the tenancy (and the shed/reclaim
  // fairness) is what is under test, not a second model's cost profile.
  runtime::ModelRegistry reg;
  (void)reg.add(session, "background");
  (void)reg.add(session, "interactive");
  runtime::BatchedEngine::MultiOptions opts;
  opts.total_kv_slots = 2;
  opts.max_pending = 12;
  opts.scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf);
  opts.kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark);
  opts.fail_fast_deadlines = failfast;
  opts.fair_shedding = fair_shed;
  if (preempt) {
    opts.preemption = std::make_shared<runtime::DeadlineAwarePreemption>();
  }
  runtime::BatchedEngine engine(reg, opts);

  auto jobs = overload_jobs(fg_deadline);
  OverloadRow row;
  row.config = std::move(config);
  row.offered = static_cast<int>(jobs.size());
  int step = 0;
  for (;;) {
    bool submitted_any = false;
    for (auto& job : jobs) {
      if (job.attempted || job.step > step) continue;
      if (engine.submit({.model = job.model, .prompt = job.prompt,
                         .new_tokens = job.new_tokens, .slo = job.slo})) {
        ++row.accepted;
      }
      job.attempted = true;
      submitted_any = true;
    }
    const bool pending_arrivals = std::any_of(
        jobs.begin(), jobs.end(), [](const auto& j) { return !j.attempted; });
    const bool work = engine.step();
    ++step;
    if (!work && !pending_arrivals && !submitted_any) break;
    util::check(step <= 5000, "overload scenario did not drain");
  }
  row.stats = engine.stats();
  row.tok_s = row.stats.aggregate_tokens_per_s(freq_hz);
  // Conservation across the overload machinery, whatever the config:
  // every offered request is accounted for exactly once.
  util::check(row.accepted + row.stats.rejected == row.offered,
              "overload: offered != accepted + rejected");
  util::check(row.stats.completed + row.stats.shed == row.accepted,
              "overload: accepted != completed + shed");
  return row;
}

/// Minimal JSON emission (objects with number/string members only);
/// max_digits10 keeps the doubles round-trip exact for the gate.
void write_json(const std::string& path, const model::TransformerConfig& cfg,
                int n_chips, double freq_hz,
                const std::vector<BatchRow>& batches,
                const std::vector<ChunkRow>& chunks,
                const std::vector<PolicyRow>& policies,
                const std::vector<OverloadRow>& overload) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open --json path " << path << "\n";
    std::exit(2);
  }
  os.precision(17);
  os << "{\n  \"schema\": \"distmcu.serving.v2\",\n"
     << "  \"model\": \"" << bench::json_escape(cfg.name) << "\",\n"
     << "  \"chips\": " << n_chips << ",\n"
     << "  \"freq_hz\": " << freq_hz << ",\n  \"batch_sweep\": [";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto& b = batches[i];
    os << (i == 0 ? "" : ",") << "\n    {\"batch\": " << b.batch
       << ", \"tokens_per_s\": " << b.tok_s
       << ", \"total_cycles\": " << b.stats.total_cycles
       << ", \"stall_cycles\": " << b.stats.prefetch_stall_cycles
       << ", \"hidden_cycles\": " << b.stats.stream_cycles_hidden
       << ", \"mj_per_token\": " << b.stats.mj_per_token() << "}";
  }
  os << "\n  ],\n  \"chunk_sweep\": [";
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    os << (i == 0 ? "" : ",") << "\n    {\"chunk\": " << c.chunk
       << ", \"total_cycles\": " << c.stats.total_cycles
       << ", \"prefill_cycles\": " << c.stats.prefill_cycles
       << ", \"prefill_stall_cycles\": " << c.stats.prefill_stall_cycles
       << ", \"tokens_per_s\": " << c.tok_s << "}";
  }
  os << "\n  ],\n  \"slo_policies\": [";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& p = policies[i];
    os << (i == 0 ? "" : ",") << "\n    {\"policy\": \""
       << runtime::policy_name(p.policy) << "\""
       << ", \"total_cycles\": " << p.stats.total_cycles
       << ", \"tokens_per_s\": " << p.tok_s
       << ", \"slo_requests\": " << p.stats.slo_requests
       << ", \"deadline_misses\": " << p.stats.deadline_misses
       << ", \"miss_rate\": " << p.stats.deadline_miss_rate()
       << ", \"queue_delay_p50\": " << p.stats.queue_delay_p50
       << ", \"queue_delay_p95\": " << p.stats.queue_delay_p95
       << ", \"queue_delay_p99\": " << p.stats.queue_delay_p99 << "}";
  }
  os << "\n  ],\n  \"overload\": [";
  for (std::size_t i = 0; i < overload.size(); ++i) {
    const auto& o = overload[i];
    os << (i == 0 ? "" : ",") << "\n    {\"config\": \""
       << bench::json_escape(o.config) << "\""
       << ", \"offered\": " << o.offered
       << ", \"accepted\": " << o.accepted
       << ", \"completed\": " << o.stats.completed
       << ", \"deadline_misses\": " << o.stats.deadline_misses
       << ", \"miss_rate\": " << o.stats.deadline_miss_rate()
       << ", \"rejected_queue_full\": " << o.stats.rejected_queue_full
       << ", \"rejected_hopeless\": " << o.stats.rejected_hopeless_deadline
       << ", \"shed\": " << o.stats.shed
       << ", \"preemptions\": " << o.stats.preemptions
       << ", \"resumes\": " << o.stats.resumes
       << ", \"preemption_cycles\": " << o.stats.preemption_cycles
       << ", \"queue_depth_peak\": " << o.stats.queue_depth_peak
       << ", \"total_cycles\": " << o.stats.total_cycles
       << ", \"tokens_per_s\": " << o.tok_s << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_flag(argc, argv);

  const auto cfg = bench_model();
  const int n_chips = 4;
  const int decode_tokens = 12;
  const double freq_hz = 500e6;
  const runtime::InferenceSession session(cfg, n_chips);

  std::cout << "Batched serving throughput — " << cfg.name << " on " << n_chips
            << " chips, " << decode_tokens << " decode tokens per request\n\n";

  util::Table table({"batch", "requests", "steps", "agg_tok_per_s",
                     "speedup_vs_b1", "overlap_gain", "stall_mcyc",
                     "mean_req_latency_ms", "mj_per_token"});
  std::vector<BatchRow> batch_rows;
  double base_tok_s = 0.0;
  for (const int batch : {1, 2, 4, 8}) {
    runtime::ModelRegistry reg;
    (void)reg.add(session, cfg.name);
    runtime::BatchedEngine engine(reg,
                                  {.total_kv_slots = batch, .max_pending = 64});
    for (int i = 0; i < batch; ++i) {
      // Distinct prompts so the streams differ per request.
      (void)*engine.submit({.prompt = {1 + i, 7 + i, 3},
                            .new_tokens = decode_tokens});
    }
    const auto results = engine.run_to_completion();

    double latency_ms_sum = 0.0;
    for (const auto& r : results) {
      // Residence time in the batch — grows with contention, unlike the
      // attributed cost share in r.gen.
      latency_ms_sum += util::cycles_to_ms(r.latency_cycles(), freq_hz);
    }
    const auto& stats = engine.stats();
    const double tok_s = stats.aggregate_tokens_per_s(freq_hz);
    if (base_tok_s == 0.0) base_tok_s = tok_s;
    // What the serial-charging model (compute + stream per step) would
    // have reported: the overlap's win is the hidden stream time.
    const Cycles serial_cycles = stats.total_cycles + stats.stream_cycles_hidden;
    const double overlap_gain = static_cast<double>(serial_cycles) /
                                static_cast<double>(stats.total_cycles);

    table.row()
        .add(batch)
        .add(static_cast<int>(results.size()))
        .add(stats.steps)
        .add(tok_s, 1)
        .add(tok_s / base_tok_s, 2)
        .add(overlap_gain, 3)
        .add(static_cast<double>(stats.prefetch_stall_cycles) / 1e6, 2)
        .add(latency_ms_sum / static_cast<double>(results.size()), 3)
        .add(stats.mj_per_token(), 4);
    batch_rows.push_back({batch, tok_s, stats});
  }
  table.print(std::cout);
  std::cout << "\nstall_mcyc is nonzero only while the batch's compute cannot\n"
               "cover the shared weight stream; overlap_gain compares against\n"
               "the serial-charging model (compute + stream per step).\n";

  // --- chunked prefill sweep --------------------------------------------
  // Continuous arrivals (more requests than KV slots, half-length
  // prompts) so prompt chunks genuinely co-schedule with decode steps.
  std::cout << "\nChunked prefill — " << 2 * 4
            << " requests of 4-token prompts through 4 KV slots, chunk "
               "size swept (0 = serial prefill model):\n\n";
  util::Table chunk_table({"chunk", "steps", "prefill_steps", "prompt_mcyc",
                           "prompt_gain", "hidden_mcyc", "tail_mcyc",
                           "total_mcyc", "agg_tok_per_s"});
  std::vector<ChunkRow> chunk_rows;
  double serial_prompt_mcyc = 0.0;
  Cycles serial_prompt_cycles = 0;
  for (const int chunk : {0, 2, 4, 8}) {
    runtime::ModelRegistry reg;
    (void)reg.add(session, cfg.name, chunk);
    runtime::BatchedEngine engine(reg,
                                  {.total_kv_slots = 4, .max_pending = 64});
    for (int i = 0; i < 8; ++i) {
      (void)*engine.submit({.prompt = {1 + i, 9 - i, 3, 7},
                            .new_tokens = decode_tokens});
    }
    (void)engine.run_to_completion();
    const auto& stats = engine.stats();
    const double prompt_mcyc =
        static_cast<double>(stats.prefill_cycles) / 1e6;
    if (chunk == 0) {
      serial_prompt_mcyc = prompt_mcyc;
      serial_prompt_cycles = stats.prefill_cycles;
    }
    chunk_table.row()
        .add(chunk)
        .add(stats.steps)
        .add(stats.prefill_steps)
        .add(prompt_mcyc, 2)
        .add(serial_prompt_mcyc / prompt_mcyc, 2)
        .add(static_cast<double>(stats.prefill_cycles_hidden) / 1e6, 2)
        .add(static_cast<double>(stats.prefill_stall_cycles) / 1e6, 2)
        .add(static_cast<double>(stats.total_cycles) / 1e6, 2)
        .add(stats.aggregate_tokens_per_s(freq_hz), 1);
    chunk_rows.push_back({chunk, stats, stats.aggregate_tokens_per_s(freq_hz)});
    if (chunk > 0 && stats.prefill_cycles >= serial_prompt_cycles) {
      std::cout << "WARNING: chunk " << chunk
                << " did not beat the serial prompt charge\n";
    }
  }
  chunk_table.print(std::cout);
  std::cout << "\nprompt_mcyc is the prompt-phase charge (chunk compute + "
               "visible stream\ntails); its drop versus chunk 0 is the "
               "chunked model's win — the chunk\nstreams' port windows "
               "(service + FIFO queueing) hide behind batch compute\n"
               "(hidden_mcyc) and short prompts stop paying the full "
               "static prefill shape.\n";

  // --- scheduling policies under a deadline-mixed workload ---------------
  // Interactive deadline: ample for the jobs' own service (several times
  // the estimate) but far below the backgrounds' drain time, so the miss
  // counts isolate the ADMISSION ORDER, not the deadline tightness.
  const Cycles interactive_deadline = 160'000'000;
  std::cout << "\nScheduling policies — 4 long best-effort jobs submitted "
               "ahead of 6 short\ninteractive jobs (deadline "
            << static_cast<double>(interactive_deadline) / 1e6
            << " Mcyc), 2 KV slots, chunked prefill:\n\n";
  util::Table slo_table({"policy", "total_mcyc", "agg_tok_per_s", "slo_reqs",
                         "misses", "miss_rate", "qdelay_p50_mcyc",
                         "qdelay_p95_mcyc", "qdelay_p99_mcyc"});
  std::vector<PolicyRow> policy_rows;
  for (const auto policy :
       {runtime::SchedulePolicy::fifo, runtime::SchedulePolicy::priority,
        runtime::SchedulePolicy::edf}) {
    const PolicyRow row =
        run_slo_scenario(session, policy, interactive_deadline, freq_hz);
    slo_table.row()
        .add(runtime::policy_name(row.policy))
        .add(static_cast<double>(row.stats.total_cycles) / 1e6, 2)
        .add(row.tok_s, 1)
        .add(row.stats.slo_requests)
        .add(row.stats.deadline_misses)
        .add(row.stats.deadline_miss_rate(), 2)
        .add(static_cast<double>(row.stats.queue_delay_p50) / 1e6, 2)
        .add(static_cast<double>(row.stats.queue_delay_p95) / 1e6, 2)
        .add(static_cast<double>(row.stats.queue_delay_p99) / 1e6, 2);
    policy_rows.push_back(row);
  }
  slo_table.print(std::cout);
  std::cout << "\nSame work under every policy — only the admission order "
               "differs. EDF\nadmits the tight deadlines ahead of the queued "
               "best-effort jobs and must\ncut the miss count at "
               "equal-or-better aggregate throughput.\n";

  const auto row_for = [&policy_rows](runtime::SchedulePolicy p) -> const PolicyRow& {
    for (const auto& row : policy_rows) {
      if (row.policy == p) return row;
    }
    throw Error("serving_throughput: policy row missing");
  };
  const auto& fifo = row_for(runtime::SchedulePolicy::fifo);
  const auto& edf = row_for(runtime::SchedulePolicy::edf);
  bool ok = true;
  if (edf.stats.deadline_misses >= fifo.stats.deadline_misses) {
    std::cout << "FAIL: EDF misses (" << edf.stats.deadline_misses
              << ") not below FIFO (" << fifo.stats.deadline_misses << ")\n";
    ok = false;
  }
  if (edf.tok_s < fifo.tok_s) {
    std::cout << "FAIL: EDF throughput " << edf.tok_s << " below FIFO "
              << fifo.tok_s << "\n";
    ok = false;
  }

  // --- overload: preemption, fail-fast, fair shedding --------------------
  // Interactive deadline: generous for the jobs' own service plus one
  // checkpoint round trip, far below the background drain — so the miss
  // deltas isolate the overload machinery.
  const auto ar_block = session.run_block(model::Mode::autoregressive);
  const Cycles ar_serial = ar_block.report.block_cycles *
                           static_cast<Cycles>(cfg.num_layers);
  const Cycles prefill_serial =
      session.run_block(model::Mode::prompt).report.block_cycles *
      static_cast<Cycles>(cfg.num_layers);
  const Cycles fg_deadline = prefill_serial + 6 * ar_serial;
  std::cout << "\nOverload — identical offered load (6 long background, then "
               "tight-deadline\ninteractive arrivals incl. 2 hopeless, then a "
               "10-job background flood into a\n12-deep queue over 2 shared "
               "KV slots, watermark borrowing, EDF admission):\n\n";
  util::Table ovl_table({"config", "offered", "accepted", "completed",
                         "misses", "rej_full", "rej_hopeless", "shed",
                         "preempt", "qpeak", "agg_tok_per_s"});
  std::vector<OverloadRow> overload_rows;
  overload_rows.push_back(run_overload(session, "edf", /*preempt=*/false,
                                       /*failfast=*/false, /*fair_shed=*/false,
                                       fg_deadline, freq_hz));
  overload_rows.push_back(run_overload(session, "edf+preempt",
                                       /*preempt=*/true, /*failfast=*/false,
                                       /*fair_shed=*/false, fg_deadline,
                                       freq_hz));
  overload_rows.push_back(run_overload(session, "edf+preempt+failfast+shed",
                                       /*preempt=*/true, /*failfast=*/true,
                                       /*fair_shed=*/true, fg_deadline,
                                       freq_hz));
  for (const auto& o : overload_rows) {
    ovl_table.row()
        .add(o.config)
        .add(o.offered)
        .add(o.accepted)
        .add(o.stats.completed)
        .add(o.stats.deadline_misses)
        .add(o.stats.rejected_queue_full)
        .add(o.stats.rejected_hopeless_deadline)
        .add(o.stats.shed)
        .add(o.stats.preemptions)
        .add(o.stats.queue_depth_peak)
        .add(o.tok_s, 1);
  }
  ovl_table.print(std::cout);
  std::cout << "\nPreemption checkpoints a borrowed-slot background job out "
               "of the arena so\nthe interactive deadlines are served in "
               "time; fail-fast converts the\nhopeless deadlines into "
               "rejections instead of misses; fair shedding seats\nthe late "
               "interactive wave by dropping the flooding tenant's newest "
               "backlog.\n";

  const auto& nonpre = overload_rows[0];
  const auto& pre = overload_rows[1];
  const auto& full = overload_rows[2];
  if (pre.stats.deadline_misses >= nonpre.stats.deadline_misses) {
    std::cout << "FAIL: preemption misses (" << pre.stats.deadline_misses
              << ") not below non-preemptive (" << nonpre.stats.deadline_misses
              << ")\n";
    ok = false;
  }
  if (full.stats.deadline_misses > pre.stats.deadline_misses) {
    std::cout << "FAIL: full overload stack misses ("
              << full.stats.deadline_misses << ") above preemption-only ("
              << pre.stats.deadline_misses << ")\n";
    ok = false;
  }
  if (pre.stats.preemptions == 0 || full.stats.preemptions == 0) {
    std::cout << "FAIL: preemptive configs never preempted\n";
    ok = false;
  }
  if (full.stats.shed == 0) {
    std::cout << "FAIL: fair shedding never shed on the jammed queue\n";
    ok = false;
  }
  if (full.stats.rejected_hopeless_deadline == 0) {
    std::cout << "FAIL: fail-fast never rejected the hopeless deadlines\n";
    ok = false;
  }

  std::cout << "\nCSV:\n";
  table.write_csv(std::cout);
  chunk_table.write_csv(std::cout);
  slo_table.write_csv(std::cout);
  ovl_table.write_csv(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, cfg, n_chips, freq_hz, batch_rows, chunk_rows,
               policy_rows, overload_rows);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
