#ifndef DISTMCU_RUNTIME_BATCHED_ENGINE_HPP
#define DISTMCU_RUNTIME_BATCHED_ENGINE_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/arena.hpp"
#include "mem/paged_arena.hpp"
#include "model/kv_cache.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_budget.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/prefetch_pipeline.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tenant_plan.hpp"
#include "sim/tracer.hpp"
#include "util/quantile_reservoir.hpp"

namespace distmcu::runtime {

/// Why the engine's last submit() returned nullopt (none after an
/// accepted submit). Distinguishing the backpressure reject from the
/// fail-fast one lets a client retry queue_full later but re-plan a
/// hopeless_deadline — resubmitting the same SLO would be refused again
/// even on an idle engine.
enum class Rejection {
  none,
  /// The queue backlog beyond the free KV pages reached max_pending
  /// (and fair shedding, when enabled, found nobody heavier to shed).
  queue_full,
  /// Fail-fast: the cost model proves the deadline unattainable even if
  /// the request started immediately on an idle engine.
  hopeless_deadline,
};

/// Final outcome of one served request. `gen` carries the request's own
/// token stream (bit-identical to an independent
/// InferenceSession::generate call with the same prompt) plus the
/// cycles/energy attributed to this request by the serving cost model.
struct RequestResult {
  RequestId id = -1;
  /// Deployed model this request ran against (0 in single-model serving).
  ModelId model = 0;
  GenerationResult gen;
  int admitted_step = -1;
  int finished_step = -1;
  /// Engine-timeline timestamps: residence in the batch, from the start
  /// of the request's own first prompt work (after earlier same-step
  /// prompt work of other requests) to the boundary at which its final
  /// token was committed — its own prefill end for new_tokens == 0,
  /// otherwise the end of its last decode phase. Other requests' work
  /// outside that span is never charged to it. Unlike the attributed
  /// cycles in `gen`, the span grows with batch contention.
  Cycles admitted_at = 0;
  Cycles finished_at = 0;
  /// SLO accounting: the spec the request was submitted with, its submit
  /// stamp, and its absolute deadline (kNoDeadline when none). The
  /// queueing delay is the admission wait — from submit to the start of
  /// the request's own first prompt work.
  SloSpec slo;
  Cycles submitted_at = 0;
  Cycles deadline_at = kNoDeadline;
  /// Times the request was preempted (checkpointed out of its KV pages)
  /// before completing; 0 on the non-preemptive path. Its token stream
  /// is bit-identical either way — eviction costs cycles, not tokens.
  int times_evicted = 0;

  [[nodiscard]] Cycles latency_cycles() const { return finished_at - admitted_at; }
  [[nodiscard]] Cycles queue_delay_cycles() const {
    return admitted_at - submitted_at;
  }
  /// Attained latency vs the deadline: submit-to-finish, which includes
  /// the queueing delay the scheduler controls.
  [[nodiscard]] Cycles attained_cycles() const {
    return finished_at - submitted_at;
  }
  [[nodiscard]] bool missed_deadline() const {
    return deadline_at != kNoDeadline && finished_at > deadline_at;
  }
};

/// Per-deployed-model slice of the serving metrics. Attribution is
/// exact: summed over models, attributed cycles/energy equal the
/// engine-wide totals, and generated-token counts partition
/// ServingStats::total_generated.
struct ModelServingStats {
  std::string model;  ///< registry deployment name
  int submitted = 0;  ///< accepted submits (rejects counted separately)
  int completed = 0;
  int rejected = 0;
  int total_generated = 0;
  /// Cycles/energy charged to this model's requests (its compute, its
  /// stall shares, its prompt streams) — live running sums, equal to the
  /// sum over its RequestResults once the engine drains.
  Cycles attributed_cycles = 0;
  double attributed_energy_mj = 0.0;
  /// Steps in which this model ran prompt work / a decode phase.
  int prefill_steps = 0;
  int decode_steps = 0;
  int slo_requests = 0;
  int deadline_misses = 0;
  /// Overload-path counters: accepted-then-shed requests, evictions of
  /// this model's running requests, their later resumes, and the KV
  /// pages reclaimed from this tenant by those evictions (== preemptions
  /// once the engine drains when every request holds one page).
  int shed = 0;
  int preemptions = 0;
  int resumes = 0;
  int kv_slots_reclaimed = 0;
  /// This model's share of the decode-stream race: stall + hidden ==
  /// decode_steps * (its per-step serial weight stream).
  Cycles prefetch_stall_cycles = 0;
  Cycles stream_cycles_hidden = 0;
  /// Shared-KV-arena occupancy in pages: the static-split reserve, the
  /// hard cap, and the most pages this model ever held at once. Under the
  /// static-split policy high_water <= quota always (zero cross-model
  /// leakage); borrowing policies may exceed the quota up to the cap.
  int kv_quota = 0;
  int kv_cap = 0;
  int kv_in_use_high_water = 0;
};

/// Aggregate serving metrics across all requests the engine processed.
/// total_cycles is the engine's simulated wall-clock; per-request
/// attributed cycles sum to it exactly (the visible remainder of the
/// shared weight stream is distributed deterministically).
struct ServingStats {
  Cycles total_cycles = 0;
  double total_energy_mj = 0.0;
  int total_generated = 0;
  int steps = 0;
  /// Steps in which at least one request ran a decode forward (and the
  /// batch consumed one shared block-weight stream per decoding model).
  int decode_steps = 0;
  /// Steps in which at least one request ran prompt work (a chunk in the
  /// chunked model, a whole prompt in the serial compatibility mode).
  int prefill_steps = 0;
  int peak_batch = 0;
  int completed = 0;
  int rejected = 0;
  /// Split of `rejected` by reason: backpressure vs fail-fast. Always
  /// rejected == rejected_queue_full + rejected_hopeless_deadline.
  int rejected_queue_full = 0;
  int rejected_hopeless_deadline = 0;
  /// Requests accepted at submit but dropped from the queue by fair
  /// load shedding before admission (never served, never completed).
  /// Conservation: submitted == completed + shed once the engine
  /// drains; offered == submitted + rejected.
  int shed = 0;
  /// Preemption totals: evictions, resumes, and the checkpoint traffic
  /// both directions cost on the engine timeline (cycles attributed to
  /// the evicted requests themselves).
  int preemptions = 0;
  int resumes = 0;
  Cycles preemption_cycles = 0;
  /// Deepest the pending queue ever got (evicted requests re-entering
  /// the queue count toward it).
  int queue_depth_peak = 0;
  /// Decode cycles the batch spent waiting for the next step's weight
  /// prefetch to land — nonzero only when the step's compute (prompt
  /// chunks included) cannot cover the stream. Per decoding model and
  /// step: max(0, stream - covering compute).
  Cycles prefetch_stall_cycles = 0;
  /// Serial stream cycles hidden behind compute by the prefetch overlap;
  /// `total_cycles + stream_cycles_hidden` is what the serial-charging
  /// cost model (compute + stream per step) would have reported.
  /// Invariant: prefetch_stall_cycles + stream_cycles_hidden == the sum
  /// over decode phases of the consuming model's per-step serial stream
  /// (decode_steps * stream in single-model serving).
  Cycles stream_cycles_hidden = 0;
  /// Prompt-phase cycles actually charged to requests: chunk compute
  /// plus the visible stream tails in the chunked model, whole prompts
  /// (compute + stream serially) in the compatibility mode. The chunked
  /// model's prompt-phase win over serial charging is
  /// (admissions * full prompt cost) - prefill_cycles.
  Cycles prefill_cycles = 0;
  /// Chunked model only: the prompt-chunk streams' port *windows* —
  /// from each step's start to the moment its chunk DMAs land, so FIFO
  /// queueing behind an in-flight decode fetch counts toward the window
  /// alongside the chunks' own service time. The window splits exactly
  /// into the part the step's compute covered (hidden) and the visible
  /// remainder that extended the step (stall, charged to the prefilling
  /// requests). Invariant:
  /// prefill_cycles_hidden + prefill_stall_cycles ==
  /// prefill_stream_cycles.
  Cycles prefill_stream_cycles = 0;
  Cycles prefill_cycles_hidden = 0;
  Cycles prefill_stall_cycles = 0;
  /// SLO accounting over *finished* requests: how many carried a
  /// deadline, how many finished past it, and the queueing-delay
  /// distribution (submit to the request's own first prompt work) by
  /// nearest-rank percentile over all finished requests. Refreshed at
  /// every completion, so mid-serving reads are consistent snapshots.
  int slo_requests = 0;
  int deadline_misses = 0;
  Cycles queue_delay_total = 0;
  Cycles queue_delay_p50 = 0;
  Cycles queue_delay_p95 = 0;
  Cycles queue_delay_p99 = 0;
  /// Prefix sharing only (all zero without it): admissions that
  /// adopted a registered prompt prefix, the prompt tokens those
  /// adoptions skipped recomputing, and how many adoptions forked
  /// copy-on-write mid-page (the adopted rows extend into the new
  /// request's first private page).
  int prefix_hits = 0;
  long long prefix_shared_tokens = 0;
  int cow_forks = 0;
  /// Per-deployed-model breakdowns, indexed by ModelId (one entry for
  /// the single-model engine). Exact partition of the engine totals.
  std::vector<ModelServingStats> per_model;

  [[nodiscard]] double deadline_miss_rate() const {
    return slo_requests == 0
               ? 0.0
               : static_cast<double>(deadline_misses) /
                     static_cast<double>(slo_requests);
  }
  [[nodiscard]] double aggregate_tokens_per_s(double freq_hz) const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(total_generated) /
                                   util::cycles_to_s(total_cycles, freq_hz);
  }
  [[nodiscard]] double mj_per_token() const {
    return total_generated == 0 ? 0.0 : total_energy_mj / total_generated;
  }
};

/// Batched serving runtime over one or more deployed InferenceSessions:
/// accepts many concurrent generation requests — each tagged with the
/// deployed model it targets — and multiplexes them over the shared
/// silicon with continuous batching; requests join and leave the running
/// batch at token boundaries, never mid-block.
///
/// A ModelRegistry deploys N (model::Config, chip-count, block program)
/// sessions, each with its own chunked- or serial-prefill mode and cost
/// decomposition, while every KV page comes from ONE shared,
/// tenant-tagged, refcounted mem::PagedKvArena partitioned by a
/// pluggable KvBudgetPolicy (static split / proportional-to-load /
/// watermark borrowing). A single-model engine is the same engine with
/// one deployment, which owns the whole arena under the static split:
///
///   ModelRegistry reg;
///   auto llama = reg.add(llama_session, "tinyllama", /*chunk=*/4);
///   auto bert  = reg.add(bert_session, "mobilebert", /*chunk=*/8);
///   BatchedEngine engine(reg, {.total_kv_slots = 4});
///   auto a = engine.submit({.model = llama, .prompt = {1, 7, 3},
///                           .new_tokens = 12});
///   auto b = engine.submit({.model = bert, .prompt = {5, 9, 2, 4}});
///   auto results = engine.run_to_completion();
///
/// Functional contract: every request appends and attends to its own KV
/// rows through its page table, so its token stream is bit-identical to
/// an independent InferenceSession::generate call regardless of what else
/// shares the batch — across models included.
///
/// Cost model (per engine step, from TimedBlockSimulation block
/// reports): a step is a heterogeneous multi-model batch. Models take
/// fixed-order sub-phases on the shared grid; within a model's
/// sub-phase the single-model step semantics apply unchanged — prompt
/// chunks (or serially charged whole prompts at admission), then the
/// decode phase gated on that model's staged weights. Every model owns
/// one prefetch *channel* on the shared runtime::PrefetchPipeline L3
/// port: its next decode-weight fetch is issued at its decode start and
/// serializes FIFO behind every other model's in-flight streams, so
/// cross-model port contention — and the cross-model overlap win, where
/// one model's compute covers another model's weight stream — emerges
/// from the port rather than from scheduling logic. Streaming energy is
/// charged in full per consumed step: overlap hides time, not DMA
/// activity.
///
/// Admission is a single queue ranked by the pluggable runtime::Scheduler
/// across all models (per-model cost estimates feed EDF feasibility, so
/// a deadline on one model's request can preempt admission of
/// another's), gated by the KvBudgetPolicy: whenever KV pages free up
/// the engine offers the scheduler exactly the pending requests whose
/// model may take the pages their first step needs under the policy. By
/// default admission is non-preemptive — once admitted, a request keeps
/// its pages to completion. Configuring a PreemptionPolicy lifts that:
/// when a pending request's feasible deadline would be lost waiting for
/// a natural release, a running victim is checkpointed out of its pages
/// (KV contents + position, charged as L3 traffic on the shared port)
/// and later re-admitted to resume with a bit-identical token stream.
///
/// The KV rows live in one page-indexed row store beside a tenant-tagged
/// mem::PagedKvArena that charges the byte reservation to a shared
/// mem::Arena (uniform pages sized for the largest tenant's page — the
/// MCUBERT-style static shared-pool discipline). By default a page spans
/// a model's whole context, so each request holds exactly one. Admission
/// beyond the budget queues and submits beyond the queue bound are
/// rejected gracefully (nullopt, no UB).
/// Construction throws PlanError when any model's cap of resident KV
/// pages does not fit its deployment's L2 next to the single-request
/// plan the memory planner already validated.
class BatchedEngine {
 public:
  /// Engine options. Per-model knobs (chunk size, quota, cap) live on
  /// the ModelRegistry entries.
  struct MultiOptions {
    /// Shared KV arena size in pages, partitioned across the deployed
    /// models by the budget policy. Must cover at least one page per
    /// deployment.
    int total_kv_slots = 4;
    /// Bound on the *queue* — the backlog beyond what the free KV pages
    /// can absorb at the next admission point. max_pending == 0 still
    /// accepts submits an idle engine can admit directly.
    int max_pending = 64;
    /// Admission-ordering policy; null selects the built-in FIFO
    /// scheduler (bit-exact with the pre-scheduler engine). Policies are
    /// stateless, so one instance may be shared across engines; see
    /// runtime::make_scheduler for the built-in set.
    std::shared_ptr<const Scheduler> scheduler = nullptr;
    /// Shared-arena partitioning policy; null selects the built-in
    /// static split (each model owns exactly its quota).
    std::shared_ptr<const KvBudgetPolicy> kv_budget = nullptr;
    /// Fail-fast admission control: refuse at submit() any deadline the
    /// cost model proves unattainable even on an idle engine (reported
    /// as Rejection::hopeless_deadline, distinct from queue_full). Off
    /// by default — the default config stays bit-exact with the
    /// non-preemptive engine.
    bool fail_fast_deadlines = false;
    /// Fair load shedding under sustained overload: when the bounded
    /// queue is full, a submit sheds the newest queued request of the
    /// tenant with the deepest backlog instead of rejecting the
    /// newcomer — unless the newcomer's own tenant is (one of) the
    /// heaviest, in which case the submit is rejected queue_full as
    /// before. Off by default.
    bool fair_shedding = false;
    /// Eviction policy enabling preemptive serving: when a pending
    /// request's feasible deadline would be missed by waiting for the
    /// earliest natural release, the engine checkpoints a running
    /// victim out of its KV pages (to be resumed later, bit-exactly).
    /// Null disables preemption entirely (the default).
    std::shared_ptr<const PreemptionPolicy> preemption = nullptr;
    /// Strict construction: run analysis::DeploymentAnalyzer over the
    /// configuration first and refuse any error-severity diagnostic by
    /// throwing analysis::AnalysisError (which carries the structured
    /// report, stable codes included) instead of whichever unstructured
    /// Error/PlanError plain construction would have hit first — and
    /// reject unsound configs plain construction accepts at all, such as
    /// trace-lane key collisions (DMCU-TRC-005). Off by default.
    bool strict = false;
    /// KV page size in token positions (the vLLM layout against a fixed
    /// L2 budget), clamped per tenant to its ar_context. Admission
    /// charges only the pages a request's current length needs, and
    /// decode grows the mapping page by page. 0 (the default) makes one
    /// page span each tenant's whole context, so each request holds
    /// exactly one page. Quotas and caps count pages.
    int kv_page_tokens = 0;
    /// Requests of a chunked-prefill deployment whose prompts share a
    /// registered common prefix adopt its read-only KV pages
    /// copy-on-write (per-page refcounts) instead of recomputing the
    /// shared prefill. Needs kv_page_tokens > 0; ignored at 0, where a
    /// page spans the whole context and no prompt fills one.
    bool prefix_sharing = false;
  };

  /// The engine over `registry` (every borrowed session must outlive the
  /// engine). `tracer`, when non-null, receives one span per charge with
  /// the owning request id — and, when more than one model is deployed,
  /// the model id — tagged.
  explicit BatchedEngine(const ModelRegistry& registry, MultiOptions opts,
                         sim::Tracer* tracer = nullptr);

  /// One queued generation request — THE submit surface. Designated
  /// initializers name every field at the call site, so routers, benches
  /// and docs stop hand-assembling positional argument lists:
  ///
  ///   engine.submit({.model = m, .prompt = {1, 2, 3}, .new_tokens = 8,
  ///                  .slo = {.priority = 1}});
  struct Request {
    ModelId model = 0;
    std::vector<int> prompt;
    /// 0 serves encoder-style prefill-only work (e.g. MobileBERT
    /// classification).
    int new_tokens = 0;
    /// Priority class and completion deadline relative to the
    /// submit-time engine timeline; the configured Scheduler orders
    /// admission on it across models, and ServingStats tracks
    /// attainment under every policy.
    SloSpec slo{};
  };

  /// Queue `req` against its deployed model. Throws distmcu::Error on
  /// contract violations (unknown model, empty prompt, context
  /// overflow, prompt longer than that deployment's static prefill
  /// shape `prompt_len`) exactly like InferenceSession::generate;
  /// returns nullopt when the queue backlog beyond the free KV pages
  /// reaches max_pending (graceful backpressure — rejects are not SLO
  /// misses; see last_rejection()).
  [[nodiscard]] std::optional<RequestId> submit(Request req);

  /// The admission policy in effect (the built-in FIFO instance when the
  /// options carried none).
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  /// The KV partitioning policy in effect (the built-in static split
  /// when the options carried none).
  [[nodiscard]] const KvBudgetPolicy& kv_budget() const { return *budget_; }
  /// Why the most recent submit() returned nullopt (none after an
  /// accepted submit).
  [[nodiscard]] Rejection last_rejection() const { return last_rejection_; }
  /// Ids of requests accepted at submit but later dropped by fair load
  /// shedding, in shed order. Disjoint from finished() — conservation
  /// is submitted == completed + shed once the engine drains.
  [[nodiscard]] const std::vector<RequestId>& shed_ids() const {
    return shed_ids_;
  }

  /// Advance one token boundary: admit pending requests into free KV
  /// pages under the budget policy, then give every deployed model its
  /// sub-phase — advance its prefilling requests by one prompt chunk
  /// (the whole prompt at admission when chunking is disabled for it)
  /// and decode one token for every of its active requests past
  /// prefill. Returns false when no work remains.
  bool step();

  /// Drain the engine and return all finished requests (order of
  /// completion).
  [[nodiscard]] std::vector<RequestResult> run_to_completion();

  [[nodiscard]] const ServingStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RequestResult>& finished() const {
    return finished_;
  }
  [[nodiscard]] int active_requests() const { return static_cast<int>(active_.size()); }
  [[nodiscard]] int pending_requests() const { return static_cast<int>(pending_.size()); }
  [[nodiscard]] const mem::Arena& kv_arena() const { return kv_arena_; }
  /// The shared, tenant-tagged KV budget arena.
  [[nodiscard]] const mem::PagedKvArena& kv_pages() const { return kv_pages_; }
  /// Effective page size of one deployed model in token positions
  /// (kv_page_tokens clamped to its ar_context; its ar_context at 0).
  [[nodiscard]] int page_tokens(ModelId m) const;
  /// Whether a request of this shape on model `m` can hold its whole KV
  /// (every prompt row and every decode row but the last) within the
  /// model's page cap. submit() refuses one that cannot: it would be
  /// admitted, grown to the cap and evicted forever.
  [[nodiscard]] bool fits_page_cap(ModelId m, int prompt_tokens,
                                   int new_tokens) const;
  /// Pages currently pinned by registered prompt prefixes (prefix
  /// sharing only; the only occupancy that survives a drain).
  [[nodiscard]] int prefix_cache_pages() const;
  /// Registered prompt-prefix entries across all tenants.
  [[nodiscard]] int prefix_cache_entries() const;
  /// Read-only compact copy of active request `id`'s KV rows, read in
  /// position order through its page table: the n positions it has
  /// written, laid out [chip][layer][K|V][n][proj_width(chip)]. Empty
  /// when `id` is not active.
  [[nodiscard]] std::vector<float> kv_rows(RequestId id) const;

  [[nodiscard]] int model_count() const { return static_cast<int>(tenants_.size()); }
  [[nodiscard]] const std::string& model_name(ModelId m) const;
  /// Static-split reserve / hard cap of one deployed model, in pages.
  [[nodiscard]] int model_kv_quota(ModelId m) const;
  [[nodiscard]] int model_kv_cap(ModelId m) const;
  /// Effective prompt-chunk size of one deployed model (0 = serial
  /// prefill).
  [[nodiscard]] int chunk_tokens(ModelId m) const;

  /// Idle-engine service-demand estimate for one request shape on a
  /// deployed model — the same block-program estimate EDF admission,
  /// fail-fast and preemption already rank on, exposed so a fleet
  /// router can compare placement cost across heterogeneous nodes
  /// without submitting. Same shape contract as submit(): 1 <=
  /// prompt_tokens <= the deployment's prefill length, new_tokens >= 0.
  [[nodiscard]] Cycles estimate_cost(ModelId m, int prompt_tokens,
                                     int new_tokens) const;

  /// Longest prompt prefix (in tokens) this engine's CoW prefix cache
  /// already holds for `prompt` on model `m` — 0 when prefix sharing is
  /// off or nothing matches. Fleet prefix-affinity routing steers a
  /// request to the node with the deepest match so its prefill rides
  /// the shared pages instead of recomputing.
  [[nodiscard]] int prefix_match_tokens(ModelId m,
                                        const std::vector<int>& prompt) const;

  /// Static model shape of one deployment (prompt_len / ar_context
  /// bound what submit() accepts; fleet routing pre-filters on them).
  [[nodiscard]] const model::TransformerConfig& model_config(ModelId m) const;

  /// Declared arithmetic precision / KV storage layout of one deployed
  /// model (fleet routing filters nodes on precision capability).
  [[nodiscard]] Precision model_precision(ModelId m) const;
  [[nodiscard]] KvLayout model_kv_layout(ModelId m) const;
  /// Bits one stored KV entry of model `m` costs in the shared arena —
  /// the per-precision scale factor of every KV byte count (pages and
  /// checkpoint DMA).
  [[nodiscard]] int model_kv_elem_bits(ModelId m) const;

 private:
  /// One request in flight (queued, active, or checkpointed): the
  /// public Request payload plus the engine's scheduling, attribution,
  /// KV-residency, and preemption state.
  struct Inflight {
    RequestId id = -1;
    ModelId model = 0;
    std::vector<int> prompt;
    int new_tokens = 0;
    std::vector<int> tokens;
    int generated = 0;
    int prefill_pos = 0;  // prompt tokens already prefilled (chunked mode)
    int pos = 0;          // absolute position of the next decoded token
    int next = -1;        // pending token, emitted at the next boundary
    Cycles cycles = 0;    // attributed simulated cost
    double energy_mj = 0.0;
    int admitted_step = -1;
    /// Engine timeline at the start of the request's own first prompt
    /// work — after earlier same-step work of other requests, so
    /// latency_cycles() never charges it their cycles.
    Cycles admitted_at = 0;
    /// SLO state: the submitted spec, the submit-time stamp the queueing
    /// delay is measured from, the spec's deadline resolved to the
    /// absolute engine timeline, and the cost-model service estimate the
    /// scheduler ranks on.
    SloSpec slo;
    Cycles submitted_at = 0;
    Cycles deadline_at = kNoDeadline;
    Cycles estimated_cost = 0;
    /// Timeline at the request's last completed work (its prefill
    /// chunks, then each decode phase end); finished_at is stamped from
    /// it so a request that merely commits its final token is not
    /// charged the rest of the step.
    Cycles work_done_at = 0;
    /// Preemption state: a compact copy of every KV row written before
    /// eviction (model::KvPageTable::compact; tokens, pos and next stay
    /// in this struct), the filled bytes the checkpoint and its resume
    /// each move over the L3 port, and how many times the request has
    /// been evicted so far. Empty on the non-preempted path.
    std::optional<std::vector<float>> checkpoint;
    Bytes checkpoint_bytes = 0;
    int times_evicted = 0;
    /// Page state: the request's page table (physical page
    /// indices in token order — adopted shared-prefix pages first, then
    /// its private pages), how many of the leading entries are adopted
    /// shared pages, and — across an eviction — how many leading token
    /// positions stayed resident in shared pages (their KV is not in
    /// the checkpoint; resume re-references or re-fetches them).
    std::vector<int> pages;
    int shared_pages = 0;
    int shared_resident_tokens = 0;
    /// True once the request's first own work was attributed (refines
    /// admitted_at exactly once even when an adopted prefix makes its
    /// first chunk start past prefill_pos 0).
    bool started = false;

    [[nodiscard]] bool prefill_done() const {
      return prefill_pos >= static_cast<int>(prompt.size());
    }
    /// Token positions whose KV rows the request has written.
    [[nodiscard]] int written_rows() const { return prefill_done() ? pos : prefill_pos; }
    /// Start the output stream once the prompt is prefilled, its whole
    /// length reserved so decode steps never reallocate it.
    void start_stream() {
      tokens.reserve(prompt.size() + static_cast<std::size_t>(new_tokens));
      tokens.assign(prompt.begin(), prompt.end());
      pos = static_cast<int>(prompt.size());
    }
  };

  /// One request's prompt chunk in a chunked step.
  struct ChunkRun {
    std::size_t req;  // index into active_
    int chunk;        // chunk position (indexes chunk_costs)
    bool first;       // the request's first chunk (admission point)
  };

  /// One deployed model's serving state: its session, its TenantPlan
  /// (block-program cost decomposition and page sizing; the fit plans
  /// are dropped once construction has checked them), its KV row
  /// layout, and its staged-weights prefetch channel. Index in tenants_ ==
  /// ModelId == PagedKvArena tenant tag == pipeline channel.
  struct Tenant : TenantPlan {
    const InferenceSession* session = nullptr;
    /// Keeps a registry-owned session alive for the engine's lifetime
    /// (registries are routinely temporaries once add(DeploymentSpec)
    /// owns the sessions); null for legacy caller-owned sessions.
    std::shared_ptr<const InferenceSession> owned_session;
    std::string name;

    /// Row layout of this model's pages in the engine's row store
    /// (model::KvPageTable::row_offsets).
    std::vector<std::size_t> kv_row_offsets;
    int quota = 0;  // static-split reserve, in pages
    int cap = 0;    // hard ceiling on concurrent pages

    /// One registered shareable prompt prefix: its token string, the
    /// read-only physical pages holding its whole pages' KV (each
    /// add_ref'd by the registry itself, so they stay resident while
    /// registered), a compact copy of the rows past them (fewer than a
    /// page; a fork ending there adopts them), and an LRU stamp from the
    /// engine's monotone prefix clock.
    struct PrefixEntry {
      std::vector<int> tokens;
      std::vector<int> pages;
      std::vector<float> tail;
      std::uint64_t last_use = 0;
    };
    /// Registered prefixes of this tenant (prefix_sharing only), bounded
    /// at kPrefixCacheCap entries, tenant-LRU evicted on overflow.
    std::vector<PrefixEntry> prefix_cache;

    /// The in-flight stream DMA this model's next decode step will
    /// consume; traced at consumption time so speculative fetches never
    /// appear. Zero-width before its first decode step (weights staged).
    Cycles pending_fetch_start = 0;
    Cycles pending_fetch_ready = 0;
    /// Worst-case stall the pending fetch can inflict on its consuming
    /// step, recorded at issue: its port completion past the issuing
    /// step's end (genuine FIFO queueing behind other tenants' traffic
    /// plus the uncovered part of this model's own stream). Opaque port
    /// spans (KV checkpoints) push in-flight fetches and engine time in
    /// lockstep, so the margin never grows after issue.
    Cycles pending_fetch_margin = 0;

    /// The tenant's stacked forward: a workspace that grows on first use
    /// (never sized at construction), the row groups and tokens of the
    /// stack being assembled, and the greedy token of each decoded row.
    partition::ForwardWorkspace ws;
    std::vector<partition::RowGroup> stack_groups;
    std::vector<int> stack_ids;
    std::vector<int> stack_next;
    /// A step's prompt chunks, decode rows and finishers (indices into
    /// active_), kept so a steady step does not allocate them.
    std::vector<ChunkRun> chunk_runs;
    std::vector<std::size_t> decode_runs;
    std::vector<std::size_t> finishers;
  };

  /// Per-tenant bound on registered prompt prefixes; beyond it the
  /// tenant-LRU entry is dropped at donation time.
  static constexpr int kPrefixCacheCap = 8;

  /// Plan `dep` and check its L2 fit at `share.cap` resident pages.
  [[nodiscard]] static Tenant build_tenant(const ModelDeployment& dep,
                                           KvShare share, int kv_page_tokens);

  /// Admit pending requests into free pages under the budget policy;
  /// serial-prefill models charge their whole prompt here and set
  /// serial_admitted_[m].
  void admit_pending(int step_idx, double& step_energy);
  /// Index into pending_ of the scheduler's choice among budget-
  /// admissible requests, or -1 when nothing may be admitted.
  /// With `alone`, each request is judged as if its tenant were the
  /// only one with queued demand (the idle engine's deadlock breaker).
  [[nodiscard]] int pick_admissible_pending(bool alone = false);
  /// Budget-policy snapshot of every tenant's occupancy and queued
  /// demand (shared by admission, preemption, and page growth), built in
  /// a reused buffer that the next call overwrites.
  [[nodiscard]] const std::vector<KvBudgetPolicy::TenantView>& budget_views()
      const;
  /// Whether the budget would grant `p` its first step's pages right
  /// now, given the snapshot (false when too few pages are free or p's
  /// model is at cap).
  [[nodiscard]] bool admissible_now(
      const Inflight& p, const std::vector<KvBudgetPolicy::TenantView>& views,
      int free_pages) const;
  /// Whether evicting `victim` would let the budget admit `starved`
  /// (simulates the post-eviction snapshot of `views`; cross-model
  /// reclaim of watermark-borrowed pages included).
  [[nodiscard]] bool admits_after_evicting(
      const Inflight& starved, const Inflight& victim,
      const std::vector<KvBudgetPolicy::TenantView>& views) const;

  // ---- page machinery -------------------------------------------------
  /// Pages `n` token positions occupy for model `m` (ceil division).
  [[nodiscard]] int pages_for_tokens(ModelId m, int n) const;
  /// KV rows request `r` will have resident by the end of the step now
  /// being planned — the page requirement admission and growth must
  /// cover before running it. Counts the same-step first-decode row
  /// exactly when the engine's commit loop appends it (new_tokens >= 2).
  [[nodiscard]] int tokens_after_step(const Inflight& r) const;
  /// Admission plan of one pending request: total pages its
  /// first step needs, how many of them an adoptable registered prefix
  /// (or, on resume, still-resident shared pages) provides, which
  /// registry entry that is (-1 none), and the prompt tokens adoption
  /// skips recomputing.
  struct AdmitPlan {
    int need_pages = 0;
    int shared_pages = 0;
    int entry = -1;
    int shared_tokens = 0;
  };
  [[nodiscard]] AdmitPlan plan_admission(const Inflight& p) const;
  /// Whether the budget policy would grant tenant `m` `n` more pages in
  /// sequence from the snapshot (each grant re-asks the policy with the
  /// occupancy advanced, mirroring how admission actually acquires).
  [[nodiscard]] bool can_grant_pages(
      ModelId m, const std::vector<KvBudgetPolicy::TenantView>& snapshot,
      int free_pages, int n) const;
  /// Acquire one budget page for tenant `m`, dropping LRU prefix-cache
  /// entries (their pages are the only reclaimable occupancy) until the
  /// policy grants or nothing is left to drop.
  [[nodiscard]] std::optional<int> acquire_page_for(ModelId m);
  /// Decode-time page growth, run between preemption and admission: give
  /// every active request the pages this step's new KV rows need; a
  /// request that cannot be grown is evicted (checkpointed to resume
  /// later) rather than served out of budget.
  void grow_active(int step_idx, double& step_energy);
  /// Drop the least-recently-used prefix-cache entry (of tenant `only`,
  /// or across all tenants when -1), releasing its page references;
  /// false when no matching entry is registered.
  bool drop_lru_prefix_entry(ModelId only = -1);
  /// Register a just-prefilled prompt as a shareable prefix (chunked
  /// tenants with prefix_sharing): add_ref its full pages and copy the
  /// rows past them into the entry.
  void donate_prefix(const Inflight& r);
  /// The page table of `pages` of tenant `t` in the row store.
  [[nodiscard]] model::KvPageTable page_table(const Tenant& t,
                                              std::span<const int> pages) const;
  /// Longest-common-prefix length of two token strings.
  [[nodiscard]] static int common_prefix(const std::vector<int>& a,
                                         const std::vector<int>& b);
  /// Cost-model estimate of a request's service demand still ahead of
  /// it (remaining prefill chunks plus remaining decode forwards).
  [[nodiscard]] Cycles remaining_cost(const Inflight& r) const;
  /// Preemption driver, run at the top of each step: while a pending
  /// feasible deadline would be starved past its deadline by waiting
  /// for the earliest natural release, offer the policy the
  /// running requests whose eviction would unblock it (bounded by the
  /// step's initial batch size).
  void maybe_preempt(int step_idx, double& step_energy);
  /// One trigger evaluation + eviction; true when a victim was evicted.
  bool attempt_preemption(int step_idx, double& step_energy);
  /// Checkpoint active_[idx] out of its KV pages: copy its written KV
  /// rows, charge the checkpoint traffic to it on the L3 port, reclaim its
  /// tenant-tagged pages, and push it back to pending_ to resume later.
  void evict_active(std::size_t idx, int step_idx, double& step_energy);
  /// Fair load shedding on a full queue: drop the newest non-
  /// checkpointed queued request of the heaviest tenant (counting the
  /// incoming request toward `incoming`'s tenant). False — and no
  /// shed — when incoming's own tenant is among the heaviest.
  bool shed_for_model(ModelId incoming);
  /// Trace lane (pid) for scheduler-category spans: the owning model in
  /// multi-model traces, chip 0 in single-model traces (bit-exact with
  /// the historical single-model layout).
  [[nodiscard]] int sched_chip(ModelId m) const {
    return trace_models_ ? static_cast<int>(m) : 0;
  }
  /// One model's slice of the step: chunk runs, token commits, decode
  /// forwards, and its advance on the shared pipeline (its own channel).
  void run_subphase(ModelId m, int step_idx, double& step_energy,
                    bool& step_prefill, bool& step_decode);
  void subphase_serial(ModelId m, int step_idx, double& step_energy,
                       bool& step_decode);
  void subphase_chunked(ModelId m, int step_idx, double& step_energy,
                        bool& step_prefill, bool& step_decode);
  /// Exact attribution of one model's decode phase, shared by both
  /// sub-phase modes: per-request compute at its serialized slot,
  /// integer stall shares in the wait window (remainder to the earliest
  /// admitted), token commits at the phase boundary, and the model's
  /// stall/hidden conservation counters. Pre: `decoders` is non-empty
  /// and `sp` consumed the model's staged weights.
  /// `stall_bound` is the consumed fetch's issue-time margin (worst
  /// case stall, see Tenant::pending_fetch_margin), captured before the
  /// pending-fetch fields were overwritten by this step's own issue.
  void charge_decode_phase(ModelId m, const std::vector<std::size_t>& decoders,
                           const PrefetchPipeline::StepSpan& sp,
                           Cycles stall_bound, double& step_energy,
                           bool& step_decode);
  /// Trace the admission decision on the request's lane: its queue wait
  /// as a sched-category span ending at the (final) admitted_at stamp.
  void trace_admission(const Inflight& r);
  void finish(Inflight& r, int step_idx);
  /// Charge `cycles`/`energy` to a request (and its model's attribution
  /// counters) and, when tracing, lay a tagged span at
  /// [begin, begin + cycles] on the engine timeline — spans of different
  /// requests get their own trace lanes and may overlap within a step.
  /// `chip` is the trace pid (sched-category spans route through
  /// sched_chip; everything else stays on chip 0).
  void charge(Inflight& r, Cycles cycles, double energy_mj, sim::Category cat,
              const char* label, Cycles begin, int chip = 0);
  /// Append `toks` at absolute position `pos_offset`, against r's page
  /// table, to its tenant's stack as one row group.
  void stack_rows(const Inflight& r, std::span<const int> toks, int pos_offset);
  /// Embed the tenant's stack and run it through every layer in one
  /// stacked forward — the functional path shared by prefills (whole
  /// prompts and chunks) and decode steps. Empties the stack and returns
  /// the final hidden states [rows, E] (valid until the next forward).
  [[nodiscard]] std::span<const float> run_stack(Tenant& t);
  /// Greedy token after row `row` of a run_stack result.
  [[nodiscard]] static int greedy_at(Tenant& t, std::span<const float> h, int row);
  /// Run the tenant's stack of single decode rows, one per request of
  /// `rows` (indices into active_, in stack order): one forward and one
  /// LM-head GEMM over all of them, then each request takes its next
  /// token and advances one position.
  void decode_stack(Tenant& t, const std::vector<std::size_t>& rows);

  [[nodiscard]] const Tenant& tenant(ModelId m) const;

  /// Effective engine-level options (keeps the policy shared_ptrs
  /// alive for the engine's lifetime). prefix_sharing is cleared at
  /// kv_page_tokens == 0, where no prompt fills a whole-context page.
  MultiOptions opts_;
  sim::Tracer* tracer_;

  std::vector<Tenant> tenants_;
  /// True once more than one model is deployed: charges additionally
  /// tag the tracer with the owning model so traces grow per-model
  /// request lanes (single-model traces are unchanged).
  bool trace_models_ = false;

  /// Shared KV budget: uniform refcounted pages sized for the largest
  /// tenant's page, charged to one arena.
  Bytes slab_bytes_ = 0;
  mem::Arena kv_arena_;
  mem::PagedKvArena kv_pages_;
  /// The KV rows themselves: one float buffer of kv_pages_.capacity()
  /// pages, each kv_page_stride_ floats — the largest tenant's page, the
  /// way slab_bytes_ sizes the arena — indexed by the same page numbers.
  std::size_t kv_page_stride_ = 0;
  std::vector<float> kv_rows_;

  /// Effective admission/budget policies: the configured ones, or the
  /// process-wide FIFO / static-split instances.
  const Scheduler* scheduler_ = nullptr;
  const KvBudgetPolicy* budget_ = nullptr;

  std::deque<Inflight> pending_;
  std::vector<Inflight> active_;
  std::vector<RequestResult> finished_;
  ServingStats stats_;
  /// Queueing delays of finished requests: a bounded reservoir (exact
  /// below its capacity, uniform sample beyond) so the percentile
  /// snapshot in ServingStats refreshes at every completion in O(cap)
  /// with O(1) memory regardless of how many requests the engine serves.
  util::QuantileReservoir queue_delays_;
  RequestId next_id_ = 0;
  /// Monotone LRU clock for the prefix registry (engine steps are the
  /// only time source; no wall clock).
  std::uint64_t prefix_clock_ = 0;
  /// Outcome of the most recent submit(), for clients distinguishing
  /// backpressure from fail-fast refusal.
  Rejection last_rejection_ = Rejection::none;
  /// Requests dropped by fair load shedding, in shed order.
  std::vector<RequestId> shed_ids_;
  /// Admission and preemption scratch, reused across steps so a steady
  /// step does not allocate: the budget snapshot, its post-eviction,
  /// per-grant and tenant-alone copies, the scheduler's candidate queue
  /// with each
  /// candidate's pending_ index, and which models admitted serial
  /// prompt work this step.
  mutable std::vector<KvBudgetPolicy::TenantView> views_;
  mutable std::vector<KvBudgetPolicy::TenantView> evict_views_;
  mutable std::vector<KvBudgetPolicy::TenantView> grant_views_;
  std::vector<KvBudgetPolicy::TenantView> alone_views_;
  std::vector<Scheduler::Candidate> sched_queue_;
  std::vector<int> pending_index_;
  std::vector<char> serial_admitted_;

  /// Step timeline: every model's decode compute races its next weight
  /// stream on its own staged channel; all DMAs serialize on the one
  /// FIFO L3 port. The port is normalized (1 byte == 1 cycle of the
  /// measured serial stream, no extra setup) because the block reports
  /// already include the per-tile DMA setup costs the timed simulation
  /// charged.
  PrefetchPipeline pipeline_;
};

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_BATCHED_ENGINE_HPP
