// distbench: the repository benchmark's four workloads (see README.md).
//
//   distbench --workload <name> --seed <n> --trace <0|1>
//
// Every workload generates its inputs from --seed, builds the deployment
// through the public API, and serves a fixed number of passes of
// identical work: the workload's pass count untraced, or one untraced
// and one traced pass. Simulated metrics come from the first pass and
// must repeat bit-for-bit in every later pass; host metrics are medians
// over passes. Token streams and conservation algebra are verified after
// the timed phase. A traced run writes its spans next to the binary, to
// traces/<workload>-seed<n>.json. The last stdout line is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// carrying the end-to-end metrics (untraced) or the per-layer metrics
// (traced). Exit status is nonzero on any correctness violation.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "fleet/router.hpp"
#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "model/config.hpp"
#include "model/tensor.hpp"
#include "partition/memory_planner.hpp"
#include "partition/plan.hpp"
#include "quant/int_kernels.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/deployment_spec.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/timed_simulation.hpp"
#include "sim/tracer.hpp"
#include "util/rng.hpp"

// ---- allocation counter ----------------------------------------------------
// Counts every heap allocation in this binary (library included), so the
// traced run can report allocations per engine step and per fleet submit.
// The process is single-threaded.
namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line so GCC does not pair the inlined free() with operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace distmcu;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used. A workload runs single-threaded, so
/// this is the host time the benchmark itself took; unlike wall time it
/// does not grow while other processes hold the CPU. Set-up and serving
/// times are read on this clock, spans and layer replays on `Clock`.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const double kFreqHz = runtime::SystemConfig::siracusa_system().chip.freq_hz;

double ms(Cycles c) { return util::cycles_to_ms(c, kFreqHz); }

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return pct(std::move(v), 0.5); }

// ---- metrics -----------------------------------------------------------------

/// The benchmark's metric vocabulary; BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"host_req_per_s", "req/s"},
    {"peak_rss_mb", "MB"},      {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},       {"slo_attainment", "share"},
    {"mj_per_req", "mJ"},       {"capacity_rps", "req/s"},
    {"paper_gap_pct", "%"},
};

constexpr MetricDef kPerLayer[] = {
    {"kernels.gemm_gmacs", "GMAC/s"},
    {"kernels.gemm_chunk_gmacs", "GMAC/s"},
    {"kernels.gemm_nt_gmacs", "GMAC/s"},
    {"kernels.attn_ar_us", "us"},
    {"quant.gemm_i8_gmacs", "GMAC/s"},
    {"quant.fwd_chunk_us", "us"},
    {"partition.fwd_decode_us", "us"},
    {"partition.fwd_chunk_us", "us"},
    {"engine.step_us.p50", "us"},
    {"engine.step_us.p99", "us"},
    {"engine.decode_step_us.p50", "us"},
    {"engine.prefill_step_us.p50", "us"},
    {"engine.host_share", "share"},
    {"engine.allocs_per_step", "count"},
    {"fleet.submit_us.p50", "us"},
    {"fleet.submit_us.p99", "us"},
    {"fleet.drain_s", "s"},
    {"fleet.allocs_per_submit", "count"},
    {"setup.session_s", "s"},
    {"setup.engine_s", "s"},
    {"sweep.plan_us", "us"},
    {"sweep.sim_us", "us"},
    {"sweep.energy_us", "us"},
    {"engine.steps", "count"},
    {"engine.decode_steps", "count"},
    {"engine.prefill_steps", "count"},
    {"engine.batch_mean", "count"},
    {"engine.peak_batch", "count"},
    {"engine.queue_delay_p50_ms", "ms"},
    {"engine.queue_delay_p99_ms", "ms"},
    {"prefetch.stall_ms", "ms"},
    {"prefetch.hidden_ms", "ms"},
    {"prefill.stall_ms", "ms"},
    {"prefill.hidden_ms", "ms"},
    {"engine.preemptions", "count"},
    {"engine.preemption_ms", "ms"},
    {"engine.rejected_hopeless", "count"},
    {"engine.rejected_queue_full", "count"},
    {"engine.shed", "count"},
    {"kv.occupancy_peak", "share"},
    {"kv.prefix_hit_rate", "share"},
    {"kv.prefix_shared_tokens", "count"},
    {"kv.cow_forks", "count"},
    {"fleet.misroute_rate", "share"},
    {"fleet.link_ms", "ms"},
    {"fleet.node_placed_share.max", "share"},
    {"fleet.node_placed_share.min", "share"},
    {"block.compute_ms", "ms"},
    {"block.dma_l3_l2_ms", "ms"},
    {"block.dma_l2_l1_ms", "ms"},
    {"block.c2c_ms", "ms"},
    {"block.sched_ms", "ms"},
    {"paper.gap.llama_ar_energy", "%"},
    {"paper.gap.llama_ar_latency", "%"},
    {"paper.gap.llama_ar_speedup", "%"},
    {"paper.gap.llama_ar_edp", "%"},
    {"paper.gap.llama_prompt_speedup", "%"},
    {"paper.gap.bert_runtime", "%"},
    {"paper.gap.bert_speedup", "%"},
    {"paper.gap.scaled_speedup", "%"},
    {"paper.gap.scaled_energy", "%"},
    {"sweep.resident_share", "share"},
    {"lat.samples", "count"},
    {"generator.lateness_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Name -> value, in insertion order of first set.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    for (auto& [n, v] : values_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& [n, v] : values_) {
      if (n == name) return v;
    }
    return 0.0;
  }
  void merge(const Metrics& other) {
    for (const auto& [n, v] : other.values_) set(n, v);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// ---- host spans (traced passes) ------------------------------------------

/// In-memory span recorder around the benchmark's calls into each layer:
/// name, start, end, parent span, and a request id where one exists.
/// Spans beyond kMaxSpans are counted but not kept; per-layer metrics are
/// aggregated separately and never depend on the cap.
class SpanTrace {
 public:
  static constexpr std::size_t kMaxSpans = 100'000;

  int open(const char* name, long long request = -1) {
    int idx = -1;
    if (spans_.size() < kMaxSpans) {
      idx = static_cast<int>(spans_.size());
      spans_.push_back({name, now_us(), 0.0,
                        stack_.empty() ? -1 : stack_.back(), request});
    } else {
      ++dropped_;
    }
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  [[nodiscard]] bool write(const std::string& path, const std::string& title) const {
    std::ofstream os(path);
    if (!os) return false;
    os.precision(17);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
       << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
          "\"args\": {\"name\": \""
       << title << "\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
         << "\"tid\": 1, \"ts\": " << s.begin_us
         << ", \"dur\": " << (s.end_us - s.begin_us) << ", \"args\": {\"id\": "
         << i << ", \"parent\": " << s.parent << ", \"request\": " << s.request
         << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    const char* name;
    double begin_us;
    double end_us;
    int parent;
    long long request;
  };
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::size_t dropped_ = 0;
};

/// Run `fn`; when `tr` is set, record it as a span and return its host
/// duration in microseconds (0 untraced — untraced passes read no clock).
template <class Fn>
double timed(SpanTrace* tr, const char* name, long long request, Fn&& fn) {
  if (tr == nullptr) {
    fn();
    return 0.0;
  }
  const int s = tr->open(name, request);
  const auto t0 = Clock::now();
  fn();
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  tr->close(s);
  return us;
}

// ---- paper distance ----------------------------------------------------------

struct PaperRow {
  const char* key;
  double paper;
  double measured;
  [[nodiscard]] double gap_pct() const {
    return std::fabs(measured - paper) / paper * 100.0;
  }
};

/// One block per chip count on the default platform.
std::vector<runtime::BlockResult> chip_sweep(const model::TransformerConfig& cfg,
                                             model::Mode mode,
                                             const std::vector<int>& chips) {
  const auto sys = runtime::SystemConfig::siracusa_system();
  const runtime::TimedBlockSimulation sim(sys);
  const energy::EnergyModel em(sys.chip, sys.link);
  std::vector<runtime::BlockResult> out;
  for (const int n : chips) {
    runtime::BlockResult r;
    r.report = sim.run(partition::PartitionPlan::create(cfg, n), mode);
    r.energy = em.compute(r.report);
    out.push_back(std::move(r));
  }
  return out;
}

/// The nine numbers of the paper's abstract (the rows of
/// bench/headline_abstract.cpp), measured through the library API.
std::vector<PaperRow> paper_rows() {
  const auto llama = model::TransformerConfig::tiny_llama_42m();
  const auto ar = chip_sweep(llama, model::Mode::autoregressive, {1, 8});
  const auto pr = chip_sweep(llama, model::Mode::prompt, {1, 8});
  const auto mb = chip_sweep(model::TransformerConfig::mobile_bert(),
                             model::Mode::prompt, {1, 4});
  const auto sc = chip_sweep(model::TransformerConfig::tiny_llama_scaled(64),
                             model::Mode::autoregressive, {1, 16, 64});
  const auto speedup = [](const auto& v, std::size_t i) {
    return static_cast<double>(v[0].report.block_cycles) /
           static_cast<double>(v[i].report.block_cycles);
  };
  const double ar_ms = ms(ar[1].report.block_cycles);
  const double edp1 = ar[0].energy.total_mj() * ms(ar[0].report.block_cycles);
  const double edp8 = ar[1].energy.total_mj() * ar_ms;
  return {
      {"llama_ar_energy", 0.64, ar[1].energy.total_mj()},
      {"llama_ar_latency", 0.54, ar_ms},
      {"llama_ar_speedup", 26.1, speedup(ar, 1)},
      {"llama_ar_edp", 27.2, edp1 / edp8},
      {"llama_prompt_speedup", 9.9, speedup(pr, 1)},
      {"bert_runtime", 38.8, ms(mb[1].report.block_cycles)},
      {"bert_speedup", 4.7, speedup(mb, 1)},
      {"scaled_speedup", 60.1, speedup(sc, 2)},
      {"scaled_energy", 1.3, sc[1].energy.total_mj() / sc[2].energy.total_mj()},
  };
}

/// paper_gap_pct (mean of the nine row gaps) and paper.gap.<row>.
void set_paper_metrics(Metrics& m, const std::vector<PaperRow>& rows) {
  double gap = 0.0;
  for (const PaperRow& r : rows) {
    m.set(std::string("paper.gap.") + r.key, r.gap_pct());
    gap += r.gap_pct() / static_cast<double>(rows.size());
  }
  m.set("paper_gap_pct", gap);
}

// ---- workload plumbing -------------------------------------------------------

/// One generated request: the only thing the program under test receives.
struct Arrival {
  std::string model;  // deployment name
  std::vector<int> prompt;
  int new_tokens = 0;
  Cycles due = 0;       // simulated time the request is due
  Cycles deadline = 0;  // relative to `due`
};

/// A completed request, kept for the verification phase.
struct Served {
  int deployment = 0;  // index into Workload::deployments()
  const Arrival* arrival = nullptr;
  std::size_t ordinal = 0;  // offered order across the pass
  std::vector<int> tokens;
};

/// What one pass produced.
struct Outcome {
  double host_s = 0.0;  // timed serving phase, CPU seconds
  double units = 0.0;   // completed requests / evaluated design points
  int attempted = 0;
  std::vector<std::string> violations;
  std::vector<std::string> notes;  // human-readable detail lines
  Metrics sim;   // simulated metrics, end-to-end and per-layer
  Metrics host;  // host per-layer metrics (traced passes only)
  std::vector<Served> served;
};

struct SetupTimes {
  double session_s = 0.0;
  double engine_s = 0.0;
  [[nodiscard]] double total() const { return session_s + engine_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Passes an untraced run serves. A constant of the workload, so every
  /// commit and every host measures the same work.
  [[nodiscard]] virtual int passes() const = 0;
  /// Generate the seeded inputs (untimed).
  virtual void make_inputs(std::uint64_t seed) = 0;
  /// Build a fresh deployment: sessions, then engines (timed).
  virtual SetupTimes setup() = 0;
  /// Serve one pass over the deployment built by the last setup().
  virtual Outcome run(SpanTrace* tr) = 0;
  /// Deployments a served stream can come from (verification oracles).
  [[nodiscard]] virtual std::vector<runtime::DeploymentSpec> deployments() const {
    return {};
  }
  /// Traced runs: kernel/partition replays at the deployment's shapes.
  virtual void replay_layers(Metrics& /*host*/) {}
};

// ---- open-loop single-engine load --------------------------------------------

/// Latency/SLO summary of a request set, shared by every serving workload.
void latency_metrics(Metrics& m, const std::vector<double>& lat_ms, int offered,
                     int met) {
  m.set("lat_p50_ms", pct(lat_ms, 0.50));
  m.set("lat_p99_ms", pct(lat_ms, 0.99));
  m.set("lat.samples", static_cast<double>(lat_ms.size()));
  m.set("slo_attainment", offered == 0 ? 0.0 : static_cast<double>(met) / offered);
}

/// Simulated per-layer values every engine (or fleet node) exposes.
void serving_layer_metrics(Metrics& m, const std::vector<const runtime::ServingStats*>& all,
                           const std::vector<const sim::Tracer*>& tracers) {
  double steps = 0, dsteps = 0, psteps = 0, peak = 0, pstall = 0, phid = 0;
  double fstall = 0, fhid = 0, pre = 0, pre_cyc = 0, hopeless = 0, qfull = 0;
  double shed = 0, hits = 0, shared = 0, forks = 0, admissions = 0, occ = 0;
  for (const runtime::ServingStats* s : all) {
    steps += s->steps;
    dsteps += s->decode_steps;
    psteps += s->prefill_steps;
    peak = std::max(peak, static_cast<double>(s->peak_batch));
    pstall += static_cast<double>(s->prefetch_stall_cycles);
    phid += static_cast<double>(s->stream_cycles_hidden);
    fstall += static_cast<double>(s->prefill_stall_cycles);
    fhid += static_cast<double>(s->prefill_cycles_hidden);
    pre += s->preemptions;
    pre_cyc += static_cast<double>(s->preemption_cycles);
    hopeless += s->rejected_hopeless_deadline;
    qfull += s->rejected_queue_full;
    shed += s->shed;
    hits += s->prefix_hits;
    shared += static_cast<double>(s->prefix_shared_tokens);
    forks += s->cow_forks;
    admissions += s->completed + s->resumes;
    for (const auto& pm : s->per_model) {
      if (pm.kv_cap > 0) {
        occ = std::max(occ, static_cast<double>(pm.kv_in_use_high_water) / pm.kv_cap);
      }
    }
  }
  const double to_ms = 1e3 / kFreqHz;
  m.set("engine.steps", steps);
  m.set("engine.decode_steps", dsteps);
  m.set("engine.prefill_steps", psteps);
  m.set("engine.peak_batch", peak);
  m.set("prefetch.stall_ms", pstall * to_ms);
  m.set("prefetch.hidden_ms", phid * to_ms);
  m.set("prefill.stall_ms", fstall * to_ms);
  m.set("prefill.hidden_ms", fhid * to_ms);
  m.set("engine.preemptions", pre);
  m.set("engine.preemption_ms", pre_cyc * to_ms);
  m.set("engine.rejected_hopeless", hopeless);
  m.set("engine.rejected_queue_full", qfull);
  m.set("engine.shed", shed);
  m.set("kv.occupancy_peak", occ);
  m.set("kv.prefix_hit_rate", admissions == 0 ? 0.0 : hits / admissions);
  m.set("kv.prefix_shared_tokens", shared);
  m.set("kv.cow_forks", forks);
  const std::pair<const char*, sim::Category> cats[] = {
      {"block.compute_ms", sim::Category::compute},
      {"block.dma_l3_l2_ms", sim::Category::dma_l3_l2},
      {"block.dma_l2_l1_ms", sim::Category::dma_l2_l1},
      {"block.c2c_ms", sim::Category::chip_to_chip},
      {"block.sched_ms", sim::Category::sched}};
  for (const auto& [name, cat] : cats) {
    double total = 0;
    for (const sim::Tracer* t : tracers) total += static_cast<double>(t->total(cat));
    m.set(name, total * to_ms);
  }
}

/// Exact conservation and attribution algebra of one drained engine.
void check_engine_algebra(const runtime::BatchedEngine& eng, int offered,
                          std::vector<std::string>& bad) {
  const runtime::ServingStats& s = eng.stats();
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back("engine: " + what);
  };
  expect(offered == s.completed + s.rejected + s.shed,
         "offered != completed + rejected + shed");
  expect(s.rejected == s.rejected_queue_full + s.rejected_hopeless_deadline,
         "rejected split does not sum");
  expect(static_cast<int>(eng.finished().size()) == s.completed,
         "finished() size != completed");
  expect(static_cast<int>(eng.shed_ids().size()) == s.shed, "shed_ids size != shed");
  expect(s.prefill_cycles_hidden + s.prefill_stall_cycles == s.prefill_stream_cycles,
         "prefill stream window does not split into hidden + stall");
  int completed = 0, generated = 0, shed = 0, rejected = 0, submitted = 0;
  Cycles cycles = 0;
  double energy = 0.0;
  for (const auto& pm : s.per_model) {
    completed += pm.completed;
    generated += pm.total_generated;
    shed += pm.shed;
    rejected += pm.rejected;
    submitted += pm.submitted;
    cycles += pm.attributed_cycles;
    energy += pm.attributed_energy_mj;
  }
  expect(completed == s.completed, "per-model completed does not sum");
  expect(generated == s.total_generated, "per-model tokens do not sum");
  expect(shed == s.shed, "per-model shed does not sum");
  expect(rejected == s.rejected, "per-model rejected does not sum");
  expect(submitted == offered - s.rejected, "per-model submitted does not sum");
  expect(cycles == s.total_cycles, "per-model cycles do not sum to total_cycles");
  expect(std::fabs(energy - s.total_energy_mj) <=
             1e-9 * std::max(1.0, std::fabs(s.total_energy_mj)),
         "per-model energy does not sum to total_energy_mj");
}

/// Serve `arrivals` (sorted by due time) as an open loop on one engine.
/// The engine clock only moves with work, so an idle gap before an
/// arrival is absorbed into `offset` (engine global time = offset + engine
/// clock); a busy engine reaches a due time only at a step boundary, and
/// the difference is the generator's lateness. Latency runs from the due time
/// to the request's last token; the deadline the engine sees is shortened
/// by the lateness so it stays anchored at the due time. Served streams
/// are tagged with their ModelId, the index of their deployment.
Outcome drive_engine(runtime::BatchedEngine& eng, const sim::Tracer& tracer,
                     const std::vector<Arrival>& arrivals, SpanTrace* tr) {
  Outcome out;
  out.attempted = static_cast<int>(arrivals.size());
  struct Placed {
    std::size_t arrival = 0;
    Cycles offset = 0;
  };
  std::map<runtime::RequestId, Placed> placed;
  std::map<std::string, runtime::ModelId> model_ids;
  for (runtime::ModelId m = 0; m < eng.model_count(); ++m) {
    model_ids[eng.model_name(m)] = m;
  }
  std::vector<double> lateness_ms, step_us, decode_us, prefill_us;
  double batch_sum = 0.0;
  std::uint64_t step_allocs = 0;
  Cycles offset = 0;
  const auto now = [&] { return offset + eng.stats().total_cycles; };
  const auto busy = [&] { return eng.active_requests() + eng.pending_requests() > 0; };
  const auto step = [&] {
    const int p0 = eng.stats().prefill_steps;
    const int d0 = eng.stats().decode_steps;
    const std::size_t f0 = eng.finished().size();
    const std::uint64_t a0 = g_allocs;
    const double us = timed(tr, "engine.step", -1, [&] { (void)eng.step(); });
    batch_sum += eng.active_requests() +
                 static_cast<double>(eng.finished().size() - f0);
    if (tr == nullptr) return;
    step_allocs += g_allocs - a0;
    step_us.push_back(us);
    if (eng.stats().prefill_steps > p0) {
      prefill_us.push_back(us);
    } else if (eng.stats().decode_steps > d0) {
      decode_us.push_back(us);
    }
  };

  const auto t0 = Clock::now();
  const double c0 = cpu_now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    while (now() < a.due && busy()) step();
    if (now() < a.due) offset = a.due - eng.stats().total_cycles;
    const Cycles late = now() - a.due;
    lateness_ms.push_back(ms(late));
    const runtime::SloSpec slo{.priority = 0,
                               .deadline_cycles = a.deadline > late ? a.deadline - late : 1};
    std::optional<runtime::RequestId> id;
    timed(tr, "engine.submit", static_cast<long long>(i), [&] {
      id = eng.submit({.model = model_ids.at(a.model),
                       .prompt = a.prompt,
                       .new_tokens = a.new_tokens,
                       .slo = slo});
    });
    if (id.has_value()) placed[*id] = {i, offset};
  }
  while (busy()) step();
  out.host_s = cpu_now() - c0;
  const double wall_s = since(t0);

  const runtime::ServingStats& s = eng.stats();
  std::vector<double> lat_ms, queue_ms;
  int met = 0;
  for (const runtime::RequestResult& r : eng.finished()) {
    const auto it = placed.find(r.id);
    if (it == placed.end()) {
      out.violations.push_back("engine finished a request that was never submitted");
      continue;
    }
    const Arrival& a = arrivals[it->second.arrival];
    const Cycles finish = it->second.offset + r.finished_at;
    lat_ms.push_back(ms(finish - a.due));
    queue_ms.push_back(ms(r.queue_delay_cycles()));
    if (finish <= a.due + a.deadline) ++met;
    out.served.push_back({r.model, &a, it->second.arrival, r.gen.tokens});
  }
  check_engine_algebra(eng, out.attempted, out.violations);
  out.units = s.completed;

  latency_metrics(out.sim, lat_ms, out.attempted, met);
  out.sim.set("mj_per_req", s.completed == 0 ? 0.0 : s.total_energy_mj / s.completed);
  out.sim.set("capacity_rps", s.total_cycles == 0
                                  ? 0.0
                                  : s.completed / util::cycles_to_s(s.total_cycles, kFreqHz));
  serving_layer_metrics(out.sim, {&s}, {&tracer});
  out.sim.set("engine.batch_mean", s.steps == 0 ? 0.0 : batch_sum / s.steps);
  out.sim.set("engine.queue_delay_p50_ms", pct(queue_ms, 0.50));
  out.sim.set("engine.queue_delay_p99_ms", pct(queue_ms, 0.99));
  out.sim.set("generator.lateness_p99_ms", pct(lateness_ms, 0.99));

  if (tr != nullptr) {
    double step_total = 0.0;
    for (const double us : step_us) step_total += us;
    out.host.set("engine.step_us.p50", pct(step_us, 0.50));
    out.host.set("engine.step_us.p99", pct(step_us, 0.99));
    out.host.set("engine.decode_step_us.p50", pct(decode_us, 0.50));
    out.host.set("engine.prefill_step_us.p50", pct(prefill_us, 0.50));
    out.host.set("engine.host_share", step_total * 1e-6 / wall_s);
    out.host.set("engine.allocs_per_step",
                 step_us.empty() ? 0.0
                                 : static_cast<double>(step_allocs) / step_us.size());
  }
  return out;
}

// ---- layer replays (traced runs) ---------------------------------------------

/// Median host microseconds per call of `fn`, over five ~10 ms batches.
template <class Fn>
double per_call_us(Fn&& fn) {
  const auto batch = [&](int reps) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) fn();
    return since(t0);
  };
  int reps = 1;
  double t = batch(reps);
  while (t < 2e-3 && reps < (1 << 24)) {
    reps *= 2;
    t = batch(reps);
  }
  reps = std::max(1, static_cast<int>(reps * 1e-2 / t));
  std::vector<double> us;
  for (int i = 0; i < 5; ++i) us.push_back(batch(reps) / reps * 1e6);
  return median(us);
}

template <class T>
std::vector<T> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<T> v(n);
  for (T& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      x = rng.uniform(-1.0f, 1.0f);
    } else {
      x = static_cast<T>(static_cast<int>(rng.next_below(255)) - 127);
    }
  }
  return v;
}

/// Chip 0's shard (the largest) of one block under `plan`.
struct Shard {
  int e = 0, pw = 0, fw = 0, p = 0, span = 0;
  explicit Shard(const partition::PartitionPlan& plan)
      : e(plan.config().embed_dim),
        pw(plan.proj_width(0)),
        fw(plan.slice(0).f_width()),
        p(plan.config().head_dim),
        span(std::max(1, plan.config().ar_context / 2)) {}
};

/// Float kernels at the per-chip shard shapes: the six block projections
/// at decode (m = 1) and chunk (m = chunk) height, the chunk's Q*K^T
/// scores over half the context, and one decode attention head.
void replay_float_kernels(const partition::PartitionPlan& plan, int chunk, Metrics& host) {
  const Shard s(plan);
  util::Rng rng(0xd15b);
  const auto sz = [](int a, int b) { return static_cast<std::size_t>(a) * b; };
  const auto w_e_pw = random_vec<float>(sz(s.e, s.pw), rng);
  const auto w_pw_e = random_vec<float>(sz(s.pw, s.e), rng);
  const auto w_e_fw = random_vec<float>(sz(s.e, s.fw), rng);
  const auto w_fw_e = random_vec<float>(sz(s.fw, s.e), rng);
  for (const int m : {1, chunk}) {
    const auto x_e = random_vec<float>(sz(m, s.e), rng);
    const auto x_pw = random_vec<float>(sz(m, s.pw), rng);
    const auto x_fw = random_vec<float>(sz(m, s.fw), rng);
    std::vector<float> o_pw(sz(m, s.pw)), o_e(sz(m, s.e)), o_fw(sz(m, s.fw));
    const double us = per_call_us([&] {
      for (int q = 0; q < 3; ++q) kernels::gemm(x_e, w_e_pw, o_pw, m, s.pw, s.e);
      kernels::gemm(x_pw, w_pw_e, o_e, m, s.e, s.pw);
      kernels::gemm(x_e, w_e_fw, o_fw, m, s.fw, s.e);
      kernels::gemm(x_fw, w_fw_e, o_e, m, s.e, s.fw);
    });
    const double macs = static_cast<double>(m) * (4.0 * s.e * s.pw + 2.0 * s.e * s.fw);
    host.set(m == 1 ? "kernels.gemm_gmacs" : "kernels.gemm_chunk_gmacs", macs / us * 1e-3);
  }
  const auto q = random_vec<float>(sz(chunk, s.p), rng);
  const auto k = random_vec<float>(sz(s.span, s.p), rng);
  const auto v = random_vec<float>(sz(s.span, s.p), rng);
  std::vector<float> scores(sz(chunk, s.span)), out(static_cast<std::size_t>(s.p));
  const double nt_us =
      per_call_us([&] { kernels::gemm_nt(q, k, scores, chunk, s.span, s.p); });
  host.set("kernels.gemm_nt_gmacs",
           static_cast<double>(chunk) * s.span * s.p / nt_us * 1e-3);
  host.set("kernels.attn_ar_us", per_call_us([&] {
             kernels::attention_head_ar(std::span<const float>(q).first(
                                            static_cast<std::size_t>(s.p)),
                                        k, v, out, s.span, s.p);
           }));
}

/// The A8W8 GEMMs (attention output, FFN up and down) at chunk height.
void replay_int8_gemm(const partition::PartitionPlan& plan, int chunk, Metrics& host) {
  const Shard s(plan);
  util::Rng rng(0x18);
  const auto sz = [](int a, int b) { return static_cast<std::size_t>(a) * b; };
  const auto x_pw = random_vec<std::int8_t>(sz(chunk, s.pw), rng);
  const auto x_e = random_vec<std::int8_t>(sz(chunk, s.e), rng);
  const auto x_fw = random_vec<std::int8_t>(sz(chunk, s.fw), rng);
  const auto w_pw_e = random_vec<std::int8_t>(sz(s.pw, s.e), rng);
  const auto w_e_fw = random_vec<std::int8_t>(sz(s.e, s.fw), rng);
  const auto w_fw_e = random_vec<std::int8_t>(sz(s.fw, s.e), rng);
  std::vector<std::int32_t> o_e(sz(chunk, s.e)), o_fw(sz(chunk, s.fw));
  const double us = per_call_us([&] {
    quant::gemm_i8_i32(x_pw, w_pw_e, o_e, chunk, s.e, s.pw);
    quant::gemm_i8_i32(x_e, w_e_fw, o_fw, chunk, s.fw, s.e);
    quant::gemm_i8_i32(x_fw, w_fw_e, o_e, chunk, s.e, s.fw);
  });
  const double macs = static_cast<double>(chunk) * (s.pw * s.e + 2.0 * s.e * s.fw);
  host.set("quant.gemm_i8_gmacs", macs / us * 1e-3);
}

/// One layer's distributed forward (InferenceSession::forward, so int8
/// sessions run the quantized block): a prompt chunk at position 0, then
/// single-row decodes against the chunk's KV. Medians in microseconds.
std::pair<double, double> replay_forward(const runtime::InferenceSession& s, int chunk) {
  const int e = s.config().embed_dim;
  util::Rng rng(0xf0);
  model::Tensor xc(chunk, e), x1(1, e);
  xc.random_init(rng, 1.0f);
  x1.random_init(rng, 1.0f);
  auto caches = s.make_chip_caches(s.config().ar_context);
  const int decodes = std::min(8, s.config().ar_context - chunk);
  std::vector<double> chunk_us, decode_us;
  const auto t0 = Clock::now();
  while (chunk_us.size() < 5 || (since(t0) < 0.2 && chunk_us.size() < 200)) {
    for (auto& chip : caches) {
      for (auto& layer : chip) layer.reset();
    }
    auto t = Clock::now();
    (void)s.forward(xc, 0, &caches, 0);
    chunk_us.push_back(since(t) * 1e6);
    for (int j = 0; j < decodes; ++j) {
      t = Clock::now();
      (void)s.forward(x1, 0, &caches, chunk + j);
      decode_us.push_back(since(t) * 1e6);
    }
  }
  return {median(chunk_us), median(decode_us)};
}

// ---- deployments -------------------------------------------------------------

constexpr int kPageTokens = 16;
constexpr int kLlamaChunk = 4;
constexpr int kBertChunk = 16;

/// Full-width TinyLlama-42M blocks cut to two layers, vocab 512, ctx 64.
model::TransformerConfig tinyllama() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = "tinyllama";
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

/// MobileBERT blocks (E = F = 512) cut to two layers; 64-token inputs.
model::TransformerConfig mobilebert() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.name = "mobilebert";
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = 64;
  cfg.validate();
  return cfg;
}

runtime::DeploymentSpec llama_spec(int chips) {
  runtime::DeploymentSpec spec;
  spec.model = tinyllama();
  spec.chips = chips;
  spec.prefill_chunk_tokens = kLlamaChunk;
  return spec;
}

runtime::DeploymentSpec bert_int8_spec(int chips) {
  runtime::DeploymentSpec spec;
  spec.model = mobilebert();
  spec.chips = chips;
  spec.precision = runtime::Precision::int8;
  spec.kv_layout = runtime::KvLayout::int8;
  spec.prefill_chunk_tokens = kBertChunk;
  return spec;
}

/// Seed-derived generator; `stream` separates independent input streams.
util::Rng seeded(std::uint64_t seed, std::uint64_t stream) {
  return util::Rng(seed * 0x9e3779b97f4a7c15ull + stream);
}

/// `n` uniforms in [0, 1). Each run of `block` consecutive values holds
/// one draw from each stratum [k/block, (k+1)/block), in seeded order.
/// Drawing a workload's random quantities this way gives every seed, and
/// every stretch of `block` requests, the same mix (offered load, lengths,
/// deadlines) and leaves only the order within a stretch to the seed.
/// That keeps the simulated metrics, tails included, steady across seeds.
std::vector<double> strata(util::Rng& rng, std::size_t n, std::size_t block) {
  std::vector<double> u;
  u.reserve(n);
  while (u.size() < n) {
    const std::size_t m = std::min(block, n - u.size());
    const std::size_t first = u.size();
    for (std::size_t k = 0; k < m; ++k) {
      u.push_back((static_cast<double>(k) + rng.next_double()) / static_cast<double>(m));
    }
    for (std::size_t k = m - 1; k > 0; --k) {
      std::swap(u[first + k], u[first + rng.next_below(k + 1)]);
    }
  }
  return u;
}

/// Exponential inter-arrival gap in cycles with the given mean, at
/// quantile `u`.
Cycles exp_gap(double u, double mean_cycles) {
  return static_cast<Cycles>(mean_cycles * -std::log(1.0 - u));
}

/// The integer lo..hi at quantile `u`.
int pick(double u, int lo, int hi) {
  return std::min(hi, lo + static_cast<int>(u * (hi - lo + 1)));
}

/// A prompt of `len` tokens (ids 1..vocab-1) no earlier request used.
std::vector<int> unique_prompt(util::Rng& rng, std::set<std::vector<int>>& seen, int len,
                               int vocab) {
  for (;;) {
    std::vector<int> p(static_cast<std::size_t>(len));
    for (int& t : p) t = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vocab - 1)));
    if (seen.insert(p).second) return p;
  }
}

/// Engine-backed workload state: one registry, one engine, its tracer.
class EngineWorkload : public Workload {
 protected:
  SetupTimes build(const std::vector<runtime::DeploymentSpec>& specs,
                   const runtime::BatchedEngine::MultiOptions& opts) {
    SetupTimes t;
    engine_.reset();
    double c0 = cpu_now();
    registry_ = std::make_unique<runtime::ModelRegistry>();
    for (const auto& spec : specs) (void)registry_->add(spec);
    t.session_s = cpu_now() - c0;
    c0 = cpu_now();
    tracer_ = sim::Tracer::counters_only();
    engine_ = std::make_unique<runtime::BatchedEngine>(*registry_, opts, &tracer_);
    t.engine_s = cpu_now() - c0;
    return t;
  }
  [[nodiscard]] const runtime::InferenceSession& session(runtime::ModelId m) const {
    return *registry_->entry(m).session;
  }

  std::unique_ptr<runtime::ModelRegistry> registry_;
  sim::Tracer tracer_ = sim::Tracer::counters_only();
  std::unique_ptr<runtime::BatchedEngine> engine_;
  std::vector<Arrival> arrivals_;
};

// ---- llama_decode --------------------------------------------------------------

/// Kernel-bound decode: 8 chips hold every weight on-chip, prompts are
/// unique, and there is one engine — prefix sharing, preemption, L3
/// prefetch and routing have nothing to do.
class LlamaDecode final : public EngineWorkload {
 public:
  static constexpr std::size_t kRequests = 1000;
  static constexpr int kChips = 8;
  /// Arrivals per stratified stretch (see strata()). The p99 rests on the
  /// ten slowest requests; stretches of 50 let it move 20% between seeds,
  /// stretches of 10 about 8%.
  static constexpr std::size_t kStretch = 10;

  [[nodiscard]] int passes() const override { return 1; }

  void make_inputs(std::uint64_t seed) override {
    build({llama_spec(kChips)}, options());
    // Open loop: exponential gaps at 70% of the idle engine's service
    // rate for the request-shape mix; deadline 4x the request's estimate.
    double mean_est = 0.0;
    for (int p = 4; p <= 8; ++p) {
      for (int n = 4; n <= 12; ++n) {
        mean_est += static_cast<double>(engine_->estimate_cost(0, p, n)) / 45.0;
      }
    }
    util::Rng rng = seeded(seed, 1);
    const auto gap = strata(rng, kRequests, kStretch);
    const auto len = strata(rng, kRequests, kStretch);
    const auto gen = strata(rng, kRequests, kStretch);
    std::set<std::vector<int>> seen;
    Cycles t = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      t += exp_gap(gap[i], mean_est / 0.7);
      Arrival a{.model = "tinyllama",
                .prompt = unique_prompt(rng, seen, pick(len[i], 4, 8), 512),
                .new_tokens = pick(gen[i], 4, 12),
                .due = t};
      a.deadline = 4 * engine_->estimate_cost(
                           0, static_cast<int>(a.prompt.size()), a.new_tokens);
      arrivals_.push_back(std::move(a));
    }
  }
  SetupTimes setup() override { return build({llama_spec(kChips)}, options()); }
  Outcome run(SpanTrace* tr) override {
    Outcome out = drive_engine(*engine_, tracer_, arrivals_, tr);
    if (tracer_.total(sim::Category::dma_l3_l2) != 0) {
      out.violations.push_back("llama_decode: weights streamed from L3 (dma_l3_l2 > 0)");
    }
    if (engine_->stats().prefix_hits != 0) {
      out.violations.push_back("llama_decode: prefix cache hit on unique prompts");
    }
    return out;
  }
  [[nodiscard]] std::vector<runtime::DeploymentSpec> deployments() const override {
    return {llama_spec(kChips)};
  }
  void replay_layers(Metrics& host) override {
    replay_float_kernels(session(0).plan(), kLlamaChunk, host);
    replay_int8_gemm(session(0).plan(), kLlamaChunk, host);
    const auto [chunk_us, decode_us] = replay_forward(session(0), kLlamaChunk);
    host.set("partition.fwd_chunk_us", chunk_us);
    host.set("partition.fwd_decode_us", decode_us);
  }

 private:
  static runtime::BatchedEngine::MultiOptions options() {
    return {.total_kv_slots = 64,
            .max_pending = 1024,
            .kv_page_tokens = kPageTokens,
            .prefix_sharing = true};
  }
};

// ---- mixed_burst ---------------------------------------------------------------

/// Two tenants on one 4-chip engine under on/off overload: an fp16
/// TinyLlama whose weights stream from L3 every decode step and an int8
/// MobileBERT encoder (prefill-only). EDF, watermark borrowing,
/// deadline-aware preemption, fail-fast and fair shedding all fire.
class MixedBurst final : public EngineWorkload {
 public:
  static constexpr std::size_t kRequests = 1100;
  static constexpr int kChips = 4;
  static constexpr std::size_t kBurst = 50;

  [[nodiscard]] int passes() const override { return 3; }

  void make_inputs(std::uint64_t seed) override {
    build(specs(), options());
    util::Rng rng = seeded(seed, 2);
    // Exactly half of each burst goes to each tenant, in seeded order.
    const auto side = strata(rng, kRequests, kBurst);
    // Capacity: the idle engine's service rate for the 50/50 mix.
    double llama_est = 0.0, bert_est = 0.0;
    for (int p = 4; p <= 8; ++p) {
      for (int n = kMinNew; n <= kMaxNew; ++n) {
        llama_est += static_cast<double>(engine_->estimate_cost(0, p, n)) /
                     (5.0 * (kMaxNew - kMinNew + 1));
      }
    }
    for (int p = kBertMinPrompt; p <= kBertMaxPrompt; ++p) {
      bert_est += static_cast<double>(engine_->estimate_cost(1, p, 0)) /
                  (kBertMaxPrompt - kBertMinPrompt + 1);
    }
    const double mean_est = 0.5 * (llama_est + bert_est);
    const auto gap = strata(rng, kRequests, kBurst);
    // Each tenant draws its lengths and deadlines from stretches of half a
    // burst, so every burst offers each tenant the same mix.
    const std::array<std::vector<double>, 2> len = {strata(rng, kRequests / 2, kBurst / 2),
                                                    strata(rng, kRequests / 2, kBurst / 2)};
    const std::array<std::vector<double>, 2> slo = {strata(rng, kRequests / 2, kBurst / 2),
                                                    strata(rng, kRequests / 2, kBurst / 2)};
    const auto gen = strata(rng, kRequests / 2, kBurst / 2);
    std::array<std::size_t, 2> drawn{};  // requests so far, per tenant
    std::set<std::vector<int>> seen;
    Cycles t = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      // On/off: 50 arrivals at 3x capacity, then 50 at 0.3x, so the
      // engine drains between bursts.
      const double load = (i / kBurst) % 2 == 0 ? 3.0 : 0.3;
      t += exp_gap(gap[i], mean_est / load);
      Arrival a;
      a.due = t;
      const bool llama = side[i] >= 0.5;
      const std::size_t tenant = llama ? 0 : 1;
      const std::size_t k = drawn[tenant]++;
      if (llama) {
        a.model = "tinyllama";
        a.prompt = unique_prompt(rng, seen, pick(len[0][k], 4, 8), 512);
        a.new_tokens = pick(gen[k], kMinNew, kMaxNew);
      } else {
        a.model = "mobilebert";
        a.prompt =
            unique_prompt(rng, seen, pick(len[1][k], kBertMinPrompt, kBertMaxPrompt), 512);
      }
      // Absolute SLOs: 120-400 ms for a generation, 50-200 ms for an
      // encoder pass. One request in twenty instead asks for less than its
      // idle-engine cost, which fail-fast refuses.
      const double u = slo[tenant][k] * 20.0;
      if (u < 1.0) {
        const auto est = engine_->estimate_cost(llama ? 0 : 1,
                                                static_cast<int>(a.prompt.size()), a.new_tokens);
        a.deadline = static_cast<Cycles>((0.5 + 0.45 * u) * est);
      } else {
        const double lo_ms = llama ? 120.0 : 50.0;
        const double hi_ms = llama ? 400.0 : 200.0;
        a.deadline = static_cast<Cycles>(
            (lo_ms + (hi_ms - lo_ms) * (u - 1.0) / 19.0) * kFreqHz * 1e-3);
      }
      arrivals_.push_back(std::move(a));
    }
  }
  SetupTimes setup() override { return build(specs(), options()); }
  Outcome run(SpanTrace* tr) override {
    Outcome out = drive_engine(*engine_, tracer_, arrivals_, tr);
    const runtime::ServingStats& s = engine_->stats();
    if (s.preemptions == 0) out.violations.push_back("mixed_burst: no preemption fired");
    if (s.rejected_hopeless_deadline == 0) {
      out.violations.push_back("mixed_burst: fail-fast never rejected");
    }
    if (s.prefetch_stall_cycles + s.stream_cycles_hidden == 0) {
      out.violations.push_back("mixed_burst: no weight streaming from L3");
    }
    return out;
  }
  [[nodiscard]] std::vector<runtime::DeploymentSpec> deployments() const override {
    return specs();
  }
  void replay_layers(Metrics& host) override {
    replay_float_kernels(session(0).plan(), kLlamaChunk, host);
    replay_int8_gemm(session(1).plan(), kBertChunk, host);
    const auto [chunk_us, decode_us] = replay_forward(session(0), kLlamaChunk);
    host.set("partition.fwd_chunk_us", chunk_us);
    host.set("partition.fwd_decode_us", decode_us);
    host.set("quant.fwd_chunk_us", replay_forward(session(1), kBertChunk).first);
  }

 private:
  static constexpr int kBertMinPrompt = 8;
  static constexpr int kBertMaxPrompt = 24;
  static constexpr int kMinNew = 2;
  static constexpr int kMaxNew = 10;

  static std::vector<runtime::DeploymentSpec> specs() {
    return {llama_spec(kChips), bert_int8_spec(kChips)};
  }
  static runtime::BatchedEngine::MultiOptions options() {
    return {.total_kv_slots = 12,
            .max_pending = 16,
            .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
            .kv_budget = runtime::make_kv_budget(runtime::KvBudget::watermark),
            .fail_fast_deadlines = true,
            .fair_shedding = true,
            .preemption = std::make_shared<runtime::DeadlineAwarePreemption>(),
            .kv_page_tokens = kPageTokens};
  }
};

// ---- fleet_prefix --------------------------------------------------------------

/// The bench/fleet_serving.cpp fleet under prefix-affinity routing, run
/// as a capacity ladder: six rates, each a cold fleet serving its own
/// arrivals (common random numbers: one set of gaps, rescaled per rung).
class FleetPrefix final : public Workload {
 public:
  static constexpr std::size_t kPerRung = 10'000;
  static constexpr int kGroups = 16;
  static constexpr int kPromptLen = 12;
  static constexpr double kMeanGap = 85'000.0;  // r0: fleet_serving's rate
  static constexpr double kRungs[] = {0.6, 0.8, 1.0, 1.2, 1.4, 1.6};
  static constexpr std::size_t kNominal = 1;  // the 0.8 x r0 rung, below the knee
  static constexpr double kP99LimitMs = 6.0;
  static constexpr std::size_t kStretch = 50;  // arrivals per stratified stretch

  [[nodiscard]] int passes() const override { return 3; }

  void make_inputs(std::uint64_t seed) override {
    util::Rng rng = seeded(seed, 3);
    const auto gap = strata(rng, kPerRung, kStretch);
    const auto kind = strata(rng, kPerRung, kStretch);
    const auto group = strata(rng, kPerRung, kStretch);
    const auto gen = strata(rng, kPerRung, kStretch);
    std::vector<Arrival> base;
    for (std::size_t i = 0; i < kPerRung; ++i) {
      // A quarter of the requests are prefill-only encoder passes.
      const bool bert = kind[i] < 0.25;
      Arrival a{.model = bert ? "tinybert" : "tinyllama",
                .prompt = group_prompt(pick(group[i], 0, kGroups - 1))};
      a.new_tokens = bert ? 0 : pick(gen[i], 4, 9);
      a.deadline = bert ? 2'200'000 : 3'000'000;
      base.push_back(std::move(a));
    }
    for (std::size_t r = 0; r < std::size(kRungs); ++r) {
      double t = 0.0;
      for (std::size_t i = 0; i < kPerRung; ++i) {
        t += kMeanGap * -std::log(1.0 - gap[i]) / kRungs[r];
        Arrival a = base[i];
        a.due = static_cast<Cycles>(t);
        rungs_[r].push_back(std::move(a));
      }
    }
  }

  SetupTimes setup() override {
    SetupTimes t;
    for (auto& f : fleets_) f.reset();
    for (auto& f : fleets_) {
      f = std::make_unique<Fleet>();
      f->tracers.reserve(8);
      for (int i = 0; i < 8; ++i) {
        const bool near = i < 4;
        double c0 = cpu_now();
        runtime::ModelRegistry reg;
        const int pages = near ? 48 : 24;
        auto llama = spec(llama_cfg(), near ? 4 : 2);
        llama.kv_quota = near ? pages * 3 / 4 : pages;
        (void)reg.add(llama);
        if (near) {
          auto bert = spec(bert_cfg(), 4);
          bert.kv_quota = pages / 4;
          (void)reg.add(bert);
        }
        t.session_s += cpu_now() - c0;
        c0 = cpu_now();
        f->tracers.push_back(sim::Tracer::counters_only());
        f->engines.push_back(std::make_unique<runtime::BatchedEngine>(
            reg,
            runtime::BatchedEngine::MultiOptions{.total_kv_slots = pages,
                                                 .max_pending = 24,
                                                 .kv_page_tokens = near ? 4 : 8,
                                                 .prefix_sharing = true},
            &f->tracers.back()));
        (void)f->router.add_node(*f->engines.back(), near ? kNear : kFar,
                                 (near ? "near" : "far") + std::to_string(i));
        t.engine_s += cpu_now() - c0;
      }
    }
    return t;
  }

  Outcome run(SpanTrace* tr) override {
    Outcome out;
    std::vector<double> submit_us;
    double drain_s = 0.0;
    std::uint64_t submit_allocs = 0;
    const double c0 = cpu_now();
    for (std::size_t r = 0; r < std::size(kRungs); ++r) {
      Fleet& f = *fleets_[r];
      const std::vector<Arrival>& arrivals = rungs_[r];
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival& a = arrivals[i];
        const std::uint64_t a0 = g_allocs;
        std::optional<fleet::FleetRequestId> id;
        const double us = timed(tr, "fleet.submit", static_cast<long long>(i), [&] {
          id = f.router.submit(a.model, a.prompt, a.new_tokens,
                               {.priority = 0, .deadline_cycles = a.deadline}, a.due);
        });
        if (tr != nullptr) {
          submit_us.push_back(us);
          submit_allocs += g_allocs - a0;
        }
        if (id.has_value()) {
          f.arrival_of.resize(static_cast<std::size_t>(*id) + 1, 0);
          f.arrival_of[static_cast<std::size_t>(*id)] = i;
        }
      }
      drain_s += timed(tr, "fleet.drain", -1, [&] { (void)f.router.run_to_completion(); }) * 1e-6;
    }
    out.host_s = cpu_now() - c0;

    int capacity_rung = -1;
    for (std::size_t r = 0; r < std::size(kRungs); ++r) {
      Fleet& f = *fleets_[r];
      const std::vector<Arrival>& arrivals = rungs_[r];
      const fleet::FleetStats s = f.router.stats();
      check_fleet_algebra(f, s, static_cast<int>(arrivals.size()), out.violations);
      std::vector<double> lat_ms, queue_ms;
      int met = 0;
      for (const fleet::FleetResult& fr : f.router.finished()) {
        const std::size_t i = f.arrival_of[static_cast<std::size_t>(fr.id)];
        const Arrival& a = arrivals[i];
        lat_ms.push_back(ms(fr.finished_at - a.due));
        queue_ms.push_back(ms(fr.result.queue_delay_cycles()));
        if (fr.finished_at <= a.due + a.deadline) ++met;
        const bool near = fr.node < 4;
        out.served.push_back({fr.result.model == 1 ? 2 : (near ? 0 : 1), &a,
                              r * kPerRung + i, fr.result.gen.tokens});
      }
      out.attempted += s.offered;
      out.units += s.completed;
      const double p99 = pct(lat_ms, 0.99);
      if (p99 <= kP99LimitMs && s.rejected + s.shed == 0) {
        capacity_rung = static_cast<int>(r);
      }
      char note[160];
      std::snprintf(note, sizeof note,
                    "rung %.1fx r0: p50 %.3f ms, p99 %.3f ms over %zu, rejected %d, shed %d",
                    kRungs[r], pct(lat_ms, 0.5), p99, lat_ms.size(), s.rejected, s.shed);
      out.notes.emplace_back(note);
      if (r != kNominal) continue;

      latency_metrics(out.sim, lat_ms, s.offered, met);
      double energy = 0.0;
      std::vector<const runtime::ServingStats*> stats;
      std::vector<const sim::Tracer*> tracers;
      double max_share = 0.0, min_share = 1.0;
      for (std::size_t n = 0; n < s.per_node.size(); ++n) {
        energy += s.per_node[n].serving.total_energy_mj;
        stats.push_back(&s.per_node[n].serving);
        tracers.push_back(&f.tracers[n]);
        const double share = s.placed == 0 ? 0.0
                                           : static_cast<double>(s.per_node[n].placed) / s.placed;
        max_share = std::max(max_share, share);
        min_share = std::min(min_share, share);
      }
      out.sim.set("mj_per_req", s.completed == 0 ? 0.0 : energy / s.completed);
      serving_layer_metrics(out.sim, stats, tracers);
      out.sim.set("engine.queue_delay_p50_ms", pct(queue_ms, 0.50));
      out.sim.set("engine.queue_delay_p99_ms", pct(queue_ms, 0.99));
      out.sim.set("fleet.misroute_rate",
                  s.routed == 0 ? 0.0 : static_cast<double>(s.misrouted) / s.routed);
      out.sim.set("fleet.link_ms",
                  s.placed == 0 ? 0.0
                                : ms(s.request_transfer_cycles + s.response_transfer_cycles) /
                                      s.placed);
      out.sim.set("fleet.node_placed_share.max", max_share);
      out.sim.set("fleet.node_placed_share.min", min_share);
      if (out.sim.get("kv.prefix_shared_tokens") == 0.0) {
        out.violations.push_back("fleet_prefix: no prefix-cache hits");
      }
    }
    if (capacity_rung < 0) {
      out.violations.push_back("fleet_prefix: no ladder rung met the p99 limit");
    } else {
      out.sim.set("capacity_rps",
                  kRungs[static_cast<std::size_t>(capacity_rung)] * kFreqHz / kMeanGap);
    }
    if (tr != nullptr) {
      out.host.set("fleet.submit_us.p50", pct(submit_us, 0.50));
      out.host.set("fleet.submit_us.p99", pct(submit_us, 0.99));
      out.host.set("fleet.drain_s", drain_s);
      out.host.set("fleet.allocs_per_submit",
                   submit_us.empty() ? 0.0
                                     : static_cast<double>(submit_allocs) / submit_us.size());
    }
    return out;
  }

  [[nodiscard]] std::vector<runtime::DeploymentSpec> deployments() const override {
    return {spec(llama_cfg(), 4), spec(llama_cfg(), 2), spec(bert_cfg(), 4)};
  }
  void replay_layers(Metrics& host) override {
    const runtime::InferenceSession s(spec(llama_cfg(), 4));
    replay_float_kernels(s.plan(), kLlamaChunk, host);
    replay_int8_gemm(s.plan(), kLlamaChunk, host);
    const auto [chunk_us, decode_us] = replay_forward(s, kLlamaChunk);
    host.set("partition.fwd_chunk_us", chunk_us);
    host.set("partition.fwd_decode_us", decode_us);
  }

 private:
  struct Fleet {
    std::vector<sim::Tracer> tracers;
    std::vector<std::unique_ptr<runtime::BatchedEngine>> engines;
    fleet::Router router{fleet::make_routing_policy(fleet::RoutePolicy::prefix_affinity)};
    std::vector<std::size_t> arrival_of;  // fleet request id -> arrival index
  };

  static constexpr fleet::LinkModel kNear{.latency_cycles = 2'000, .cycles_per_byte = 0.5};
  static constexpr fleet::LinkModel kFar{.latency_cycles = 12'000, .cycles_per_byte = 3.0};

  /// Invariant-suite-sized decoder blocks (E = 32) so per-request
  /// bookkeeping, not kernels, dominates host time.
  static model::TransformerConfig llama_cfg() {
    auto cfg = model::TransformerConfig::tiny_llama_42m();
    cfg.name = "tinyllama";
    cfg.embed_dim = 32;
    cfg.ffn_dim = 64;
    cfg.num_heads = 4;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.vocab_size = 128;
    cfg.ar_context = 64;
    cfg.prompt_len = kPromptLen;
    cfg.validate();
    return cfg;
  }
  static model::TransformerConfig bert_cfg() {
    auto cfg = llama_cfg();
    cfg.name = "tinybert";
    cfg.ffn_dim = 96;
    cfg.ar_context = 16;
    cfg.mask = model::MaskKind::bidirectional;
    cfg.validate();
    return cfg;
  }
  static runtime::DeploymentSpec spec(model::TransformerConfig cfg, int chips) {
    runtime::DeploymentSpec s;
    s.model = std::move(cfg);
    s.chips = chips;
    s.prefill_chunk_tokens = kLlamaChunk;
    return s;
  }
  /// One of kGroups shared 12-token system prompts.
  static std::vector<int> group_prompt(int group) {
    std::vector<int> p;
    for (int i = 0; i < kPromptLen; ++i) p.push_back(1 + (group * 31 + i * 7) % 127);
    return p;
  }

  static void check_fleet_algebra(const Fleet& f, const fleet::FleetStats& s, int offered,
                                  std::vector<std::string>& bad) {
    const auto expect = [&](bool ok, const std::string& what) {
      if (!ok) bad.push_back("fleet: " + what);
    };
    expect(s.offered == offered, "offered != submits");
    expect(s.offered == s.placed + s.rejected, "offered != placed + rejected");
    expect(s.rejected == s.rejected_no_model + s.rejected_all_nodes,
           "rejected split does not sum");
    expect(s.routed == static_cast<std::uint64_t>(s.placed) + s.misrouted,
           "routed != placed + misrouted");
    expect(s.placed == s.completed + s.shed, "placed != completed + shed");
    expect(static_cast<int>(f.router.finished().size()) == s.completed,
           "finished() size != completed");
    std::uint64_t attempts = 0;
    int placed = 0, completed = 0;
    for (std::size_t n = 0; n < s.per_node.size(); ++n) {
      const auto& pn = s.per_node[n];
      attempts += pn.attempts;
      placed += pn.placed;
      completed += pn.completed;
      expect(pn.attempts == static_cast<std::uint64_t>(pn.placed) +
                                static_cast<std::uint64_t>(pn.link_rejected) +
                                static_cast<std::uint64_t>(pn.serving.rejected),
             "node attempts != placed + link_rejected + rejected");
      check_engine_algebra(*f.engines[n], pn.placed + pn.serving.rejected, bad);
    }
    expect(attempts == s.routed, "node attempts do not sum to routed");
    expect(placed == s.placed, "node placed does not sum");
    expect(completed == s.completed, "node completed does not sum");
  }

  std::array<std::vector<Arrival>, std::size(kRungs)> rungs_;
  std::array<std::unique_ptr<Fleet>, std::size(kRungs)> fleets_;
};

// ---- paper_sweep ---------------------------------------------------------------

/// Design-space sweep of the paper's cost model. The seed draws
/// kChipPlatforms chip platforms (`bw_l3_l2`, `l2_size`, latency
/// accounting). Every point draws a model and mode, a chip count, one of
/// those chip platforms and its own network (link bandwidth,
/// `group_size`, `flat_topology`), so no point repeats and a memo cache
/// cannot win. Host time is all planning, timed simulation and energy
/// accounting.
class PaperSweep final : public Workload {
 public:
  static constexpr int kPoints = 300'000;

  [[nodiscard]] int passes() const override { return 5; }

  void make_inputs(std::uint64_t seed) override {
    util::Rng rng = seeded(seed, 4);
    static constexpr int kGroupSizes[] = {2, 3, 4, 8};
    chip_systems_.resize(kChipPlatforms);
    for (runtime::SystemConfig& sys : chip_systems_) {
      sys = runtime::SystemConfig::siracusa_system();
      sys.chip.bw_l3_l2 = 0.25 + 1.75 * rng.next_double();
      sys.chip.l2_size = static_cast<Bytes>(1536 + 64 * rng.next_below(41)) * 1024;
      sys.accounting = rng.next_below(2) == 0 ? runtime::LatencyAccounting::steady_state
                                              : runtime::LatencyAccounting::single_block_resident;
    }
    points_.resize(kPoints);
    for (Point& p : points_) {
      p.variant = static_cast<std::uint8_t>(rng.next_below(4));
      p.chips = static_cast<std::uint8_t>(1 + rng.next_below(kMaxChips[p.variant]));
      p.chip_platform = static_cast<std::uint16_t>(rng.next_below(kChipPlatforms));
      p.link_bw = 0.25f + 1.75f * static_cast<float>(rng.next_double());
      p.group_size = static_cast<std::uint8_t>(kGroupSizes[rng.next_below(4)]);
      p.flat = rng.next_below(8) == 0;
    }
  }

  /// Set-up: the model shapes, and the one-chip block of every variant on
  /// every chip platform, which each point's speedup is read against. A
  /// single chip sends nothing over a link, so the base runs on the
  /// default network.
  SetupTimes setup() override {
    const double c0 = cpu_now();
    cfgs_ = {model::TransformerConfig::tiny_llama_42m(),
             model::TransformerConfig::tiny_llama_42m(),
             model::TransformerConfig::mobile_bert(),
             model::TransformerConfig::tiny_llama_scaled(64)};
    base_cycles_.assign(cfgs_.size() * kChipPlatforms, 0);
    for (std::size_t v = 0; v < cfgs_.size(); ++v) {
      const auto plan1 = partition::PartitionPlan::create(cfgs_[v], 1);
      for (int c = 0; c < kChipPlatforms; ++c) {
        base_cycles_[v * kChipPlatforms + c] =
            runtime::TimedBlockSimulation(chip_systems_[c]).run(plan1, kModes[v]).block_cycles;
      }
    }
    return {.session_s = cpu_now() - c0, .engine_s = 0.0};
  }

  Outcome run(SpanTrace* tr) override {
    Outcome out;
    out.attempted = kPoints;
    std::vector<double> lat_ms;
    lat_ms.reserve(points_.size());
    double energy = 0.0, busy_s = 0.0, plan_us = 0.0, sim_us = 0.0, energy_us = 0.0;
    int linear = 0, resident = 0, streamed = 0, bad_sum = 0, bad_one = 0;
    runtime::Breakdown total;
    const double c0 = cpu_now();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      runtime::SystemConfig sys = chip_systems_[p.chip_platform];
      sys.link.bandwidth_bytes_per_cycle = p.link_bw;
      sys.group_size = p.group_size;
      sys.flat_topology = p.flat;
      std::optional<partition::PartitionPlan> plan;
      runtime::RunReport report;
      energy::EnergyBreakdown e;
      const auto id = static_cast<long long>(i);
      plan_us += timed(tr, "sweep.plan", id, [&] {
        plan.emplace(partition::PartitionPlan::create(cfgs_[p.variant], p.chips));
      });
      sim_us += timed(tr, "sweep.sim", id, [&] {
        report = runtime::TimedBlockSimulation(sys).run(*plan, kModes[p.variant]);
      });
      energy_us += timed(tr, "sweep.energy", id, [&] {
        e = energy::EnergyModel(sys.chip, sys.link).compute(report);
      });

      const Cycles base = base_cycles_[p.variant * kChipPlatforms + p.chip_platform];
      const double block_ms = ms(report.block_cycles);
      lat_ms.push_back(block_ms);
      energy += e.total_mj();
      busy_s += block_ms * 1e-3;
      // Linear speedup, read as a latency target: the one-chip latency
      // divided by the chip count.
      if (report.block_cycles * p.chips <= base) ++linear;
      if (report.breakdown.total() != report.block_cycles) ++bad_sum;
      if (p.chips == 1 && report.block_cycles != base) ++bad_one;
      resident += report.residency == partition::Residency::fully_resident ? 1 : 0;
      streamed += report.residency == partition::Residency::streamed ? 1 : 0;
      total.compute += report.breakdown.compute;
      total.dma_l3_l2 += report.breakdown.dma_l3_l2;
      total.dma_l2_l1 += report.breakdown.dma_l2_l1;
      total.c2c += report.breakdown.c2c;
    }
    out.host_s = cpu_now() - c0;
    out.units = static_cast<double>(points_.size());

    if (bad_sum > 0) {
      out.violations.push_back("paper_sweep: " + std::to_string(bad_sum) +
                               " breakdowns do not sum to block_cycles");
    }
    if (bad_one > 0) {
      out.violations.push_back("paper_sweep: " + std::to_string(bad_one) +
                               " one-chip points whose network changed their latency");
    }
    if (resident == 0 || streamed == 0) {
      out.violations.push_back("paper_sweep: resident and streamed points must both appear");
    }
    const double n = static_cast<double>(points_.size());
    latency_metrics(out.sim, lat_ms, kPoints, linear);
    out.sim.set("mj_per_req", energy / n);
    out.sim.set("capacity_rps", n / busy_s);
    out.sim.set("sweep.resident_share", resident / n);
    out.sim.set("block.compute_ms", ms(total.compute));
    out.sim.set("block.dma_l3_l2_ms", ms(total.dma_l3_l2));
    out.sim.set("block.dma_l2_l1_ms", ms(total.dma_l2_l1));
    out.sim.set("block.c2c_ms", ms(total.c2c));
    if (tr != nullptr) {
      out.host.set("sweep.plan_us", plan_us / n);
      out.host.set("sweep.sim_us", sim_us / n);
      out.host.set("sweep.energy_us", energy_us / n);
    }
    return out;
  }

 private:
  struct Point {
    std::uint8_t variant = 0;
    std::uint8_t chips = 1;
    std::uint8_t group_size = 4;
    bool flat = false;
    std::uint16_t chip_platform = 0;
    float link_bw = 1.0f;
  };
  /// TinyLlama AR, TinyLlama prompt, MobileBERT prompt, scaled-64 AR;
  /// chip counts run 1..heads.
  static constexpr model::Mode kModes[] = {model::Mode::autoregressive, model::Mode::prompt,
                                           model::Mode::prompt, model::Mode::autoregressive};
  static constexpr std::uint64_t kMaxChips[] = {8, 8, 4, 64};
  static constexpr int kChipPlatforms = 512;

  std::vector<runtime::SystemConfig> chip_systems_;  // default network
  std::vector<Point> points_;
  std::vector<model::TransformerConfig> cfgs_;
  std::vector<Cycles> base_cycles_;  // [variant * kChipPlatforms + chip platform]
};

// ---- harness -------------------------------------------------------------------

/// Bit-exact check of served streams against dedicated
/// InferenceSession::generate calls, memoized by (deployment, prompt,
/// new_tokens): every request whose reference is memoized is checked, and
/// a reference is computed for every eighth request by offered order.
struct Verification {
  int checked = 0;
  int mismatched = 0;
};

Verification verify(const Workload& w, std::vector<Served>& served, SpanTrace* tr) {
  const std::vector<runtime::DeploymentSpec> specs = w.deployments();
  std::vector<std::unique_ptr<runtime::InferenceSession>> oracles(specs.size());
  std::map<std::tuple<int, std::vector<int>, int>, std::vector<int>> memo;
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) { return a.ordinal < b.ordinal; });
  Verification v;
  for (const Served& s : served) {
    const auto key = std::make_tuple(s.deployment, s.arrival->prompt, s.arrival->new_tokens);
    auto it = memo.find(key);
    if (it == memo.end()) {
      if (s.ordinal % 8 != 0) continue;
      auto& oracle = oracles[static_cast<std::size_t>(s.deployment)];
      if (oracle == nullptr) {
        oracle = std::make_unique<runtime::InferenceSession>(
            specs[static_cast<std::size_t>(s.deployment)]);
      }
      std::vector<int> tokens;
      timed(tr, "verify.generate", static_cast<long long>(s.ordinal), [&] {
        tokens = oracle->generate(s.arrival->prompt, s.arrival->new_tokens).tokens;
      });
      it = memo.emplace(key, std::move(tokens)).first;
    }
    ++v.checked;
    if (it->second != s.tokens) ++v.mismatched;
  }
  return v;
}

/// FNV-1a over a pass's simulated metrics and served streams.
std::uint64_t digest(const Outcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : o.sim.values()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(bits);
  }
  for (const Served& s : o.served) {
    mix(s.ordinal);
    for (const int t : s.tokens) mix(static_cast<std::uint64_t>(t));
  }
  return h;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "llama_decode") return std::make_unique<LlamaDecode>();
  if (name == "mixed_burst") return std::make_unique<MixedBurst>();
  if (name == "fleet_prefix") return std::make_unique<FleetPrefix>();
  if (name == "paper_sweep") return std::make_unique<PaperSweep>();
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::filesystem::path trace_file;  // <binary dir>/traces/<workload>-seed<n>.json
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload llama_decode|mixed_burst|fleet_prefix|paper_sweep"
               " [--seed N] [--trace 0|1]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (make_workload(a.workload) == nullptr) usage(argv[0]);
  a.trace_file = std::filesystem::path(argv[0]).parent_path() / "traces" /
                 (a.workload + "-seed" + std::to_string(a.seed) + ".json");
  return a;
}

void print_json(bool correct, int attempted, int failed, const Metrics& m,
                const MetricDef* defs, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, m.get(defs[i].name), defs[i].unit);
  }
  std::printf("}}\n");
}

/// Set-ups per run, passes included; setup_s is their median.
constexpr std::size_t kSetups = 25;

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  std::cout << "# distbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << std::endl;
  w->make_inputs(args.seed);

  SpanTrace spans;
  Outcome first;
  std::uint64_t first_digest = 0;
  std::vector<std::string> violations;
  std::vector<double> setup_s, session_s, engine_s, untraced_s, untraced_rate, traced_s;
  Metrics host;
  // A traced run serves one untraced and one traced pass, for the overhead.
  const int passes = args.trace ? 2 : w->passes();
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = args.trace && pass == 1;
    const SetupTimes st = w->setup();
    Outcome o = w->run(traced ? &spans : nullptr);
    setup_s.push_back(st.total());
    session_s.push_back(st.session_s);
    engine_s.push_back(st.engine_s);
    if (traced) {
      traced_s.push_back(o.host_s);
      host.merge(o.host);
    } else {
      untraced_s.push_back(o.host_s);
      untraced_rate.push_back(o.units / o.host_s);
    }
    const std::uint64_t d = digest(o);
    if (pass == 0) {
      first = std::move(o);
      first_digest = d;
    } else if (d != first_digest) {
      violations.push_back("simulated results differ between passes of one seed");
    }
  }
  // Set-up time is a median over a fixed number of builds.
  while (setup_s.size() < kSetups) {
    const SetupTimes st = w->setup();
    setup_s.push_back(st.total());
    session_s.push_back(st.session_s);
    engine_s.push_back(st.engine_s);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  if (args.trace) {
    const int s = spans.open("replay.layers");
    w->replay_layers(host);
    spans.close(s);
  }
  const Verification v = verify(*w, first.served, args.trace ? &spans : nullptr);
  violations.insert(violations.end(), first.violations.begin(), first.violations.end());
  // Every failed check counts once; each mismatched stream counts itself.
  int failed = static_cast<int>(violations.size()) + v.mismatched;
  if (v.mismatched > 0) {
    violations.push_back(std::to_string(v.mismatched) +
                         " served streams differ from dedicated generate()");
  }

  Metrics m = first.sim;
  m.merge(host);
  m.set("setup_s", median(setup_s));
  m.set("setup.session_s", median(session_s));
  m.set("setup.engine_s", median(engine_s));
  m.set("host_req_per_s", median(untraced_rate));
  m.set("peak_rss_mb", rss_mb);
  set_paper_metrics(m, paper_rows());
  if (args.trace) {
    m.set("trace.overhead_pct", (median(traced_s) / median(untraced_s) - 1.0) * 100.0);
  }
  for (const MetricDef& d : kEndToEnd) {
    if (!(std::isfinite(m.get(d.name)) && m.get(d.name) > 0.0)) {
      violations.push_back(std::string("end-to-end metric ") + d.name + " is not positive");
      ++failed;
    }
  }

  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const std::size_t n = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("  %-32s %16.6g %s\n", defs[i].name, m.get(defs[i].name), defs[i].unit);
  }
  std::printf("  latency samples %.0f (p99 has %.0f beyond it); generator lateness p99 %.4g ms\n",
              m.get("lat.samples"), std::floor(m.get("lat.samples") * 0.01),
              m.get("generator.lateness_p99_ms"));
  std::printf("  %d pass(es); serving host s:", passes);
  for (const double s : untraced_s) std::printf(" %.3f", s);
  for (const double s : traced_s) std::printf(" %.3f(traced)", s);
  std::printf("\n  %d streams verified, %d mismatched\n", v.checked, v.mismatched);
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_file.parent_path(), ec);
    if (spans.write(args.trace_file.string(), "distbench " + args.workload)) {
      std::printf("  trace: %zu spans (%zu dropped) -> %s\n", spans.size(), spans.dropped(),
                  args.trace_file.c_str());
    } else {
      violations.push_back("cannot write trace file " + args.trace_file.string());
      ++failed;
    }
  }
  for (const std::string& note : first.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& bad : violations) std::printf("  VIOLATION: %s\n", bad.c_str());
  std::fflush(stdout);
  const bool correct = violations.empty();
  print_json(correct, first.attempted, failed, m, defs, n);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "distbench: " << e.what() << "\n";
    return 1;
  }
}
