// Golden-trace regression tests for sim/trace_export.cpp: the emitted
// Chrome JSON must parse, every duration span must be well-formed,
// serving spans must land on the per-request lane matching their tagged
// request id, spans within one lane must never overlap (the FIFO L3
// port and the serialized step timeline guarantee this), and lane
// metadata must exist exactly for the lanes that carry spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "partition/plan.hpp"
#include "registry_of.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/timed_simulation.hpp"
#include "sim/trace_export.hpp"
#include "sim/tracer.hpp"

using namespace distmcu;
using distmcu::testing::registry_of;

namespace {

/// 1 MHz makes cycles_to_us the identity, so timestamps in the JSON are
/// exact integers in double precision and lane-overlap checks need no
/// tolerance.
constexpr double kFreqHz = 1e6;

struct TraceEvent {
  std::string name;
  std::string ph;
  double ts = -1.0;
  double dur = -1.0;
  int pid = -1;
  int tid = -1;
  long long request = sim::kNoRequest;
  bool has_request = false;
};

/// Minimal parser for the exporter's machine-generated JSON: splits the
/// top-level traceEvents array into objects and extracts scalar fields
/// by key. Not a general JSON parser — tight enough that structural
/// regressions (unbalanced braces, missing quotes) fail the tests.
std::vector<TraceEvent> parse_trace(const std::string& json) {
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u)
      << "trace must open with the traceEvents array";
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces";

  std::vector<TraceEvent> events;
  std::size_t pos = json.find('[');
  while ((pos = json.find('{', pos + 1)) != std::string::npos) {
    // Find the matching close brace (args nest one level deep).
    int d = 0;
    std::size_t end = pos;
    for (; end < json.size(); ++end) {
      if (json[end] == '{') ++d;
      if (json[end] == '}' && --d == 0) break;
    }
    const std::string obj = json.substr(pos, end - pos + 1);
    pos = end;

    const auto field = [&obj](const std::string& key) -> std::string {
      const std::string tag = "\"" + key + "\":";
      const std::size_t at = obj.find(tag);
      if (at == std::string::npos) return {};
      std::size_t v = at + tag.size();
      std::size_t stop = v;
      if (obj[v] == '"') {
        stop = obj.find('"', v + 1) + 1;
      } else {
        while (stop < obj.size() && obj[stop] != ',' && obj[stop] != '}') {
          ++stop;
        }
      }
      std::string raw = obj.substr(v, stop - v);
      if (!raw.empty() && raw.front() == '"') raw = raw.substr(1, raw.size() - 2);
      return raw;
    };

    TraceEvent ev;
    ev.name = field("name");
    ev.ph = field("ph");
    if (const auto s = field("ts"); !s.empty()) ev.ts = std::stod(s);
    if (const auto s = field("dur"); !s.empty()) ev.dur = std::stod(s);
    if (const auto s = field("pid"); !s.empty()) ev.pid = std::stoi(s);
    if (const auto s = field("tid"); !s.empty()) ev.tid = std::stoi(s);
    if (const auto s = field("request"); !s.empty()) {
      ev.request = std::stoll(s);
      ev.has_request = true;
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::string export_trace(const sim::Tracer& tracer) {
  std::ostringstream os;
  sim::write_chrome_trace(tracer, kFreqHz, os);
  return os.str();
}

void check_serving_trace(const std::vector<TraceEvent>& events) {
  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> lanes;
  std::map<std::pair<int, int>, std::string> lane_names;
  int x_events = 0;
  for (const auto& ev : events) {
    if (ev.ph == "M") {
      if (ev.name == "thread_name") {
        lane_names[{ev.pid, ev.tid}] = "named";
      }
      continue;
    }
    ASSERT_EQ(ev.ph, "X") << "only duration and metadata events expected";
    ++x_events;
    // Well-formed spans.
    EXPECT_GE(ev.ts, 0.0);
    EXPECT_GE(ev.dur, 0.0);
    EXPECT_GE(ev.pid, 0);
    EXPECT_GE(ev.tid, 0);
    ASSERT_TRUE(ev.has_request);
    // The lane IS the request: serving spans must sit on the per-request
    // track derived from their tagged id; untagged spans stay on the
    // category tracks.
    if (ev.request != sim::kNoRequest) {
      EXPECT_EQ(ev.tid,
                static_cast<int>(sim::kNumCategories) +
                    static_cast<int>(ev.request));
    } else {
      EXPECT_LT(ev.tid, static_cast<int>(sim::kNumCategories));
    }
    lanes[{ev.pid, ev.tid}].push_back(&ev);
  }
  EXPECT_GT(x_events, 0);

  // Per-lane spans never overlap: charges within one request serialize,
  // and DMA-lane spans are FIFO port service windows.
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ts < b->ts;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1]->ts + spans[i - 1]->dur, spans[i]->ts)
          << "overlap on lane pid=" << lane.first << " tid=" << lane.second
          << " between '" << spans[i - 1]->name << "' and '"
          << spans[i]->name << "'";
    }
    // Every populated lane has its metadata row (and request lanes only
    // exist where spans do).
    EXPECT_TRUE(lane_names.count(lane))
        << "no thread_name for pid=" << lane.first << " tid=" << lane.second;
  }
  // Request-lane metadata is emitted only for populated lanes.
  for (const auto& [lane, name] : lane_names) {
    if (lane.second >= static_cast<int>(sim::kNumCategories)) {
      EXPECT_TRUE(lanes.count(lane))
          << "phantom request lane pid=" << lane.first
          << " tid=" << lane.second;
    }
  }
}

model::TransformerConfig trace_cfg() {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 200;
  cfg.ar_context = 32;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

}  // namespace

TEST(TraceExportGolden, ServingTraceSerialMode) {
  const auto cfg = trace_cfg();
  const runtime::InferenceSession session(cfg, 4);
  sim::Tracer tracer;
  runtime::BatchedEngine engine(registry_of(session),
      {.total_kv_slots = 2, .max_pending = 8}, &tracer);
  (void)*engine.submit({.prompt = {1, 2, 3}, .new_tokens = 5});
  (void)*engine.submit({.prompt = {7}, .new_tokens = 3});
  (void)*engine.submit({.prompt = {4, 5}, .new_tokens = 2});
  (void)engine.run_to_completion();

  const auto events = parse_trace(export_trace(tracer));
  check_serving_trace(events);
}

TEST(TraceExportGolden, ServingTraceChunkedMode) {
  // The chunked step model adds prompt-chunk spans in the request lanes
  // and chunk-stream service windows on the DMA lane; all lane
  // guarantees must survive the heterogeneous steps.
  const auto cfg = trace_cfg();
  const runtime::InferenceSession session(cfg, 4);
  sim::Tracer tracer;
  runtime::BatchedEngine engine(
      registry_of(session, 2), {.total_kv_slots = 2, .max_pending = 8},
      &tracer);
  (void)*engine.submit({.prompt = {1, 2, 3, 4, 5}, .new_tokens = 4});
  (void)*engine.submit({.prompt = {7}, .new_tokens = 5});
  (void)*engine.submit({.prompt = {4, 5, 6}, .new_tokens = 0});
  (void)engine.run_to_completion();

  const auto events = parse_trace(export_trace(tracer));
  check_serving_trace(events);

  // The chunked model's signature spans are present: tagged prompt
  // chunks and the untagged chunk-stream DMA windows.
  int chunk_spans = 0;
  int stream_spans = 0;
  for (const auto& ev : events) {
    if (ev.name == "prefill.chunk") {
      ++chunk_spans;
      EXPECT_NE(ev.request, sim::kNoRequest);
    }
    if (ev.name == "prompt.stream") {
      ++stream_spans;
      EXPECT_EQ(ev.request, sim::kNoRequest);
    }
  }
  EXPECT_GT(chunk_spans, 3);  // 5-token prompt at C=2 alone takes 3 chunks
  EXPECT_GT(stream_spans, 0);
}

TEST(TraceExportGolden, ServingTraceCarriesSchedulerLaneSpans) {
  // Deadline-scheduled serving adds sched-category spans on the request
  // lanes: a queue-wait span per delayed admission and an instant
  // deadline-miss marker. All lane guarantees (per-request tids, no
  // overlap within a lane) must hold with the new category present.
  const auto cfg = trace_cfg();
  const runtime::InferenceSession session(cfg, 4);
  sim::Tracer tracer;
  runtime::BatchedEngine engine(
      registry_of(session, 2),
      {.total_kv_slots = 1,
       .max_pending = 8,
       .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf)},
      &tracer);
  // The long best-effort job is admitted... after the deadline job under
  // EDF; the hopeless 1-cycle deadline guarantees a miss marker.
  (void)*engine.submit(
      {.prompt = {1, 2, 3}, .new_tokens = 6,
       .slo = {.priority = 1, .deadline_cycles = runtime::kNoDeadline}});
  (void)*engine.submit({.prompt = {7}, .new_tokens = 2,
                        .slo = {.priority = 0, .deadline_cycles = 1}});
  (void)engine.run_to_completion();
  ASSERT_GT(engine.stats().deadline_misses, 0);

  const auto events = parse_trace(export_trace(tracer));
  check_serving_trace(events);

  int queue_spans = 0;
  int miss_markers = 0;
  for (const auto& ev : events) {
    if (ev.name == "sched.queue") {
      ++queue_spans;
      EXPECT_NE(ev.request, sim::kNoRequest);
      EXPECT_GT(ev.dur, 0.0);
    }
    if (ev.name == "sched.deadline.miss") {
      ++miss_markers;
      EXPECT_NE(ev.request, sim::kNoRequest);
      EXPECT_EQ(ev.dur, 0.0);
    }
  }
  // One KV slot, two requests: whichever is admitted second waited.
  EXPECT_GE(queue_spans, 1);
  EXPECT_EQ(miss_markers, engine.stats().deadline_misses);
}

TEST(TraceExportGolden, BlockSimulationTraceIsWellFormed) {
  // The block-level timed simulation shares the exporter; its spans are
  // untagged and must stay on the category lanes of their chip.
  const auto cfg = trace_cfg();
  const auto plan = partition::PartitionPlan::create(cfg, 4);
  const auto sys = runtime::SystemConfig::siracusa_system();
  sim::Tracer tracer;
  (void)runtime::TimedBlockSimulation(sys).run(
      plan, model::Mode::autoregressive, &tracer);
  ASSERT_FALSE(tracer.spans().empty());

  const auto events = parse_trace(export_trace(tracer));
  int x_events = 0;
  for (const auto& ev : events) {
    if (ev.ph != "X") continue;
    ++x_events;
    EXPECT_GE(ev.ts, 0.0);
    EXPECT_GE(ev.dur, 0.0);
    EXPECT_EQ(ev.request, sim::kNoRequest);
    EXPECT_LT(ev.tid, static_cast<int>(sim::kNumCategories));
  }
  EXPECT_EQ(x_events, static_cast<int>(tracer.spans().size()));
}

TEST(TraceExportGolden, EmptyTracerProducesValidEmptyTrace) {
  sim::Tracer tracer;
  const std::string json = export_trace(tracer);
  EXPECT_EQ(json, "{\"traceEvents\":[]}");
}

TEST(TraceExportGolden, ServingTraceCarriesEvictResumeSpans) {
  // Preemptive serving adds checkpoint traffic to the request lanes:
  // a sched.evict span when the victim is checkpointed out of its KV
  // slot and a sched.resume span when it is restored, plus a second
  // sched.queue span covering the re-queue wait between them. Lane
  // guarantees (per-request tids, no overlap) must survive all three.
  const auto cfg = trace_cfg();
  const runtime::InferenceSession session(cfg, 4);
  const auto layers = static_cast<Cycles>(cfg.num_layers);
  const auto ar = session.run_block(model::Mode::autoregressive);
  const Cycles per_req =
      (ar.report.block_cycles - ar.report.breakdown.dma_l3_l2) * layers;
  const Cycles prefill =
      session.run_block(model::Mode::prompt).report.block_cycles * layers;

  sim::Tracer tracer;
  runtime::BatchedEngine engine(
      registry_of(session),
      {.total_kv_slots = 1,
       .max_pending = 8,
       .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
       .preemption = std::make_shared<runtime::DeadlineAwarePreemption>()},
      &tracer);
  // long, best-effort
  const auto a = *engine.submit({.prompt = {1, 2, 3}, .new_tokens = 12});
  EXPECT_TRUE(engine.step());
  // Feasible if admitted promptly, lost if it waits out request A.
  (void)*engine.submit(
      {.prompt = {7}, .new_tokens = 2,
       .slo = {.priority = 0, .deadline_cycles = prefill + 3 * per_req}});
  (void)engine.run_to_completion();
  ASSERT_EQ(engine.stats().preemptions, 1);
  ASSERT_EQ(engine.stats().resumes, 1);

  const auto events = parse_trace(export_trace(tracer));
  check_serving_trace(events);

  int evict_spans = 0;
  int resume_spans = 0;
  for (const auto& ev : events) {
    if (ev.name == "sched.evict") {
      ++evict_spans;
      EXPECT_EQ(ev.request, static_cast<long long>(a));
      EXPECT_GT(ev.dur, 0.0);  // checkpoint bytes cross the L3 port
      EXPECT_EQ(ev.pid, 0);    // single-model: sched spans stay on chip 0
    }
    if (ev.name == "sched.resume") {
      ++resume_spans;
      EXPECT_EQ(ev.request, static_cast<long long>(a));
      EXPECT_GT(ev.dur, 0.0);
      EXPECT_EQ(ev.pid, 0);
    }
  }
  EXPECT_EQ(evict_spans, 1);
  EXPECT_EQ(resume_spans, 1);
}

TEST(TraceExportGolden, MultiModelMissMarkersLandOnTheModelsLane) {
  // Regression: sched.deadline.miss markers used to hard-code chip 0,
  // so in a multi-model trace every model's misses piled onto model 0's
  // process row. They must land on the finishing request's own model
  // lane (pid == model id) like every other sched-category span.
  const auto cfg = trace_cfg();
  const runtime::InferenceSession session(cfg, 4);
  runtime::ModelRegistry reg;
  (void)reg.add(session, "a");
  (void)reg.add(session, "b");
  sim::Tracer tracer;
  runtime::BatchedEngine engine(reg, {.total_kv_slots = 2, .max_pending = 8},
                                &tracer);
  // best-effort on model 0
  (void)*engine.submit({.model = 0, .prompt = {1, 2, 3}, .new_tokens = 2});
  // Hopeless deadline on model 1 guarantees exactly one miss there.
  (void)*engine.submit({.model = 1, .prompt = {7}, .new_tokens = 2,
                        .slo = {.priority = 0, .deadline_cycles = 1}});
  (void)engine.run_to_completion();
  ASSERT_EQ(engine.stats().deadline_misses, 1);
  ASSERT_EQ(engine.stats().per_model[1].deadline_misses, 1);

  const auto events = parse_trace(export_trace(tracer));
  check_serving_trace(events);

  int miss_markers = 0;
  for (const auto& ev : events) {
    if (ev.name != "sched.deadline.miss") continue;
    ++miss_markers;
    EXPECT_EQ(ev.pid, 1) << "miss marker must ride its model's lane";
    EXPECT_NE(ev.request, sim::kNoRequest);
  }
  EXPECT_EQ(miss_markers, 1);
}
