#include "runtime/batched_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ranges>

#include "analysis/deployment_analyzer.hpp"
#include "util/check.hpp"

namespace distmcu::runtime {

namespace {

/// Re-check one deployment's memory plan with `cap_pages` KV pages
/// resident: the memory planner validated a single request's KV against
/// the worst-case chip's L2, so swap the plan's single-set KV term for
/// the worst page residency at the deployment's packed width.
void check_pool_fits(const FitPlan& fp, int cap_pages, Bytes chip_page_bytes,
                     const std::string& model) {
  const Bytes need = resident_need(
      fp.plan, static_cast<Bytes>(cap_pages) * chip_page_bytes);
  DISTMCU_CHECK_PLAN(
      need <= fp.plan.l2_usable,
      "BatchedEngine['" + model + "']: " + std::to_string(cap_pages) +
          " resident KV pages need " + util::format_bytes(need) + " of L2 in " +
          fp.mode + " mode but only " + util::format_bytes(fp.plan.l2_usable) +
          " is usable; lower max_resident/total_kv_slots, kv_page_tokens, "
          "or ar_context");
}

/// The effective budget policy: the configured one, or the process-wide
/// static split (policies are stateless, so sharing it is safe).
const KvBudgetPolicy* resolve_budget(const BatchedEngine::MultiOptions& opts) {
  static const StaticSplitPolicy kDefaultBudget;
  return opts.kv_budget != nullptr ? opts.kv_budget.get() : &kDefaultBudget;
}

}  // namespace

BatchedEngine::Tenant BatchedEngine::build_tenant(const ModelDeployment& dep,
                                                  KvShare share,
                                                  int kv_page_tokens) {
  Tenant t;
  static_cast<TenantPlan&>(t) = plan_tenant(dep, kv_page_tokens);
  t.session = dep.session;
  t.owned_session = dep.owned_session;
  t.name = dep.name;
  t.quota = share.quota;
  t.cap = share.cap;

  // Validate the resident-KV fit for both serving phases.
  for (const FitPlan& fp : t.fit_plans) {
    check_pool_fits(fp, t.cap, t.chip_page_bytes, t.name);
  }
  t.kv_row_offsets = t.session->block_executor().kv_row_offsets();
  return t;
}

BatchedEngine::BatchedEngine(const ModelRegistry& registry, MultiOptions opts,
                             sim::Tracer* tracer)
    : opts_(std::move(opts)),
      tracer_(tracer),
      tenants_([&] {
        // Strict mode gates construction on the static analyzer BEFORE
        // any of the ad-hoc checks below, so an unsound deployment is
        // refused with structured diagnostics (stable codes, entities,
        // hints) rather than whichever unstructured throw fires first.
        if (opts_.strict) {
          analysis::AnalysisReport rep =
              analysis::DeploymentAnalyzer::analyze(registry, opts_);
          if (!rep.ok()) {
            // Render before the move: function arguments are unsequenced,
            // so to_text() inside the call could see a moved-from report.
            std::string text =
                "BatchedEngine(strict): deployment is unsound\n" +
                rep.to_text();
            throw analysis::AnalysisError(text, std::move(rep));
          }
        }
        DISTMCU_CHECK(registry.count() > 0,
                    "BatchedEngine: registry holds no deployments");
        DISTMCU_CHECK(opts_.total_kv_slots > 0,
                    "BatchedEngine: total_kv_slots must be positive");
        DISTMCU_CHECK(opts_.max_pending >= 0,
                    "BatchedEngine: max_pending must be >= 0");
        DISTMCU_CHECK(opts_.kv_page_tokens >= 0,
                    "BatchedEngine: kv_page_tokens must be >= 0");
        // Every deployment must end up with at least one reserved page
        // so the static split can always drain it.
        const auto& entries = registry.entries();
        const KvShares kv = derive_kv_shares(
            entries, opts_.total_kv_slots,
            resolve_budget(opts_)->allows_borrowing());
        DISTMCU_CHECK(kv.fault != KvShares::Fault::oversubscribed,
                      "BatchedEngine: deployment quotas (" +
                          std::to_string(kv.explicit_sum) +
                          ") exceed total_kv_slots (" +
                          std::to_string(opts_.total_kv_slots) + ")");
        DISTMCU_CHECK(kv.fault != KvShares::Fault::no_reserve,
                      "BatchedEngine: total_kv_slots leaves no KV page for "
                      "some deployment; raise total_kv_slots or lower quotas");
        std::vector<Tenant> out;
        out.reserve(entries.size());
        for (std::size_t m = 0; m < entries.size(); ++m) {
          out.push_back(
              build_tenant(entries[m], kv.shares[m], opts_.kv_page_tokens));
        }
        return out;
      }()),
      trace_models_(tenants_.size() > 1),
      slab_bytes_([&] {
        // Uniform pages across tenants, sized for the largest, so page
        // indices stay interchangeable across models.
        Bytes slab = 0;
        for (const Tenant& t : tenants_) {
          slab = std::max(slab, t.kv_token_bytes * static_cast<Bytes>(t.page_tokens));
        }
        return slab;
      }()),
      // Size the arena for total_kv_slots aligned page reservations
      // exactly.
      kv_arena_("l2.kv_pool",
                static_cast<Bytes>(opts_.total_kv_slots) *
                    mem::Arena::align_up(slab_bytes_,
                                         mem::Arena::kDefaultAlignment)),
      kv_pages_(kv_arena_, "kv_page", opts_.total_kv_slots, slab_bytes_),
      kv_page_stride_(std::ranges::max(tenants_ | std::views::transform([](const Tenant& t) {
                        return model::kv_page_floats(t.kv_row_offsets, t.page_tokens);
                      }))),
      kv_rows_(static_cast<std::size_t>(opts_.total_kv_slots) * kv_page_stride_),
      pipeline_(1.0, 0, static_cast<int>(tenants_.size())) {
  // A whole-context page never fills from a prompt, so sharing has
  // nothing to donate without an explicit page size.
  opts_.prefix_sharing = opts_.prefix_sharing && opts_.kv_page_tokens > 0;
  // Admission policy: the configured scheduler, or the process-wide FIFO
  // instance (policies are stateless, so sharing it is safe).
  static const FifoScheduler kDefaultFifo;
  scheduler_ =
      opts_.scheduler != nullptr ? opts_.scheduler.get() : &kDefaultFifo;
  budget_ = resolve_budget(opts_);

  // Cross-tenant L2 fit: the per-tenant checks above validated each
  // model next to its OWN cap of KV pages; with several tenants the
  // shared arena can hold other models' KV at the same time, so every
  // deployment must also fit its working set next to the worst-case
  // co-resident KV the budget can produce — the arena's pages filled
  // greedily with the largest per-chip page footprints, each tenant
  // bounded by its cap. (Per-chip units throughout, matching the
  // planner's l2_usable.)
  if (tenants_.size() > 1) {
    std::vector<std::pair<Bytes, int>> kv_loads;
    for (const Tenant& t : tenants_) {
      kv_loads.emplace_back(t.chip_page_bytes, t.cap);
    }
    const Bytes worst_kv =
        worst_resident_kv(std::move(kv_loads), opts_.total_kv_slots);
    for (const Tenant& t : tenants_) {
      for (const FitPlan& fp : t.fit_plans) {
        const Bytes need_beside = resident_need(fp.plan, worst_kv);
        DISTMCU_CHECK_PLAN(
            need_beside <= fp.plan.l2_usable,
            "BatchedEngine['" + t.name +
                "']: worst-case co-resident KV of all tenants (" +
                util::format_bytes(worst_kv) + "/chip) plus the " + fp.mode +
                "-mode working set needs " + util::format_bytes(need_beside) +
                " of L2 but only " + util::format_bytes(fp.plan.l2_usable) +
                " is usable; lower total_kv_slots, tenant caps, or "
                "ar_context");
      }
    }
  }

  stats_.per_model.resize(tenants_.size());
  for (std::size_t m = 0; m < tenants_.size(); ++m) {
    stats_.per_model[m].model = tenants_[m].name;
    stats_.per_model[m].kv_quota = tenants_[m].quota;
    stats_.per_model[m].kv_cap = tenants_[m].cap;
    // The fit plans only serve the construction-time checks above.
    tenants_[m].fit_plans.clear();
    tenants_[m].fit_plans.shrink_to_fit();
  }
}

int BatchedEngine::page_tokens(ModelId m) const { return tenant(m).page_tokens; }

bool BatchedEngine::fits_page_cap(ModelId m, int prompt_tokens,
                                  int new_tokens) const {
  const Tenant& t = tenant(m);
  return runtime::fits_page_cap(t.page_tokens, t.cap, prompt_tokens,
                                new_tokens);
}

int BatchedEngine::prefix_cache_pages() const {
  // Distinct physical pages: entries of one tenant may share leading
  // pages (an adopter re-donating a longer prompt re-references them).
  std::vector<int> pages;
  for (const Tenant& t : tenants_) {
    for (const Tenant::PrefixEntry& e : t.prefix_cache) {
      pages.insert(pages.end(), e.pages.begin(), e.pages.end());
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return static_cast<int>(pages.size());
}

std::vector<float> BatchedEngine::kv_rows(RequestId id) const {
  std::vector<float> rows;
  for (const Inflight& r : active_) {
    if (r.id != id) continue;
    const auto pages = page_table(tenants_[static_cast<std::size_t>(r.model)], r.pages);
    model::copy_kv_rows(pages, 0, pages.compact(rows, r.written_rows()), 0, r.written_rows());
  }
  return rows;
}

model::KvPageTable BatchedEngine::page_table(const Tenant& t,
                                             std::span<const int> pages) const {
  // Writable rows from a const engine: kv_rows only reads through them.
  return {const_cast<float*>(kv_rows_.data()), kv_page_stride_, t.page_tokens, pages,
          t.kv_row_offsets};
}

int BatchedEngine::prefix_cache_entries() const {
  int n = 0;
  for (const Tenant& t : tenants_) {
    n += static_cast<int>(t.prefix_cache.size());
  }
  return n;
}

Cycles BatchedEngine::estimate_cost(ModelId m, int prompt_tokens,
                                    int new_tokens) const {
  const Tenant& t = tenant(m);
  DISTMCU_CHECK(prompt_tokens >= 1 &&
                    prompt_tokens <= t.session->config().prompt_len,
                "estimate_cost: prompt_tokens outside the deployment's "
                "prefill shape");
  DISTMCU_CHECK(new_tokens >= 0, "estimate_cost: new_tokens must be >= 0");
  return estimate_request_cost(t, prompt_tokens, new_tokens);
}

const model::TransformerConfig& BatchedEngine::model_config(ModelId m) const {
  return tenant(m).session->config();
}

int BatchedEngine::prefix_match_tokens(ModelId m,
                                       const std::vector<int>& prompt) const {
  // Empty (prefix sharing off, or nothing donated yet) naturally reports
  // no affinity.
  int best = 0;
  for (const Tenant::PrefixEntry& e : tenant(m).prefix_cache) {
    best = std::max(best, common_prefix(e.tokens, prompt));
  }
  return best;
}

int BatchedEngine::pages_for_tokens(ModelId m, int n) const {
  const int pt = tenant(m).page_tokens;
  return (n + pt - 1) / pt;
}

int BatchedEngine::common_prefix(const std::vector<int>& a,
                                 const std::vector<int>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<int>(i);
}

int BatchedEngine::tokens_after_step(const Inflight& r) const {
  const Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
  const int len = static_cast<int>(r.prompt.size());
  // The same-step first decode appends a KV row only when another
  // forward is needed: the committed token itself comes from the prefill
  // output without a row, and the final token of a stream is committed
  // without a forward (generate's composition).
  const int first_decode_row = r.new_tokens >= 2 ? 1 : 0;
  if (!r.prefill_done()) {
    if (t.chunk_tokens <= 0) return len + first_decode_row;
    const int after = std::min(r.prefill_pos + t.chunk_tokens, len);
    return after >= len ? len + first_decode_row : after;
  }
  return r.pos + (r.generated + 1 < r.new_tokens ? 1 : 0);
}

BatchedEngine::AdmitPlan BatchedEngine::plan_admission(
    const Inflight& p) const {
  const Tenant& t = tenants_[static_cast<std::size_t>(p.model)];
  const int pt = t.page_tokens;
  AdmitPlan plan;

  if (p.checkpoint.has_value()) {
    // Resume: the leading shared_resident_tokens rows (page-aligned by
    // construction at eviction) can be re-referenced from any registry
    // entry whose prompt still matches; otherwise they are refetched
    // from the L3 backing store into private pages.
    // A8W8 rows also depend on the other rows of their prefill chunk
    // (one activation scale per row group), so an int8 request takes back
    // only an entry of its own prompt, whose rows are its own.
    const int sp = p.shared_resident_tokens / pt;
    plan.shared_tokens = p.shared_resident_tokens;
    const bool rows_need_whole_prompt = t.session->precision() == Precision::int8;
    if (sp > 0) {
      for (std::size_t i = 0; i < t.prefix_cache.size(); ++i) {
        const Tenant::PrefixEntry& e = t.prefix_cache[i];
        if (rows_need_whole_prompt && e.tokens != p.prompt) continue;
        if (static_cast<int>(e.pages.size()) >= sp &&
            common_prefix(e.tokens, p.prompt) >= p.shared_resident_tokens) {
          plan.entry = static_cast<int>(i);
          plan.shared_pages = sp;
          break;
        }
      }
    }
    plan.need_pages = pages_for_tokens(p.model, tokens_after_step(p));
    return plan;
  }

  // Fresh admission: adopt the registered prefix with the longest common
  // prompt prefix, rounded DOWN to a chunk boundary (the last chunk is
  // always recomputed so the prefill output feeding the first decode
  // exists) — and capped at len-1 for the same reason.
  int adopted = 0;
  if (opts_.prefix_sharing && t.chunk_tokens > 0) {
    const int len = static_cast<int>(p.prompt.size());
    int best = 0;
    int entry = -1;
    for (std::size_t i = 0; i < t.prefix_cache.size(); ++i) {
      const int l =
          std::min(common_prefix(t.prefix_cache[i].tokens, p.prompt), len - 1);
      if (l > best) {
        best = l;
        entry = static_cast<int>(i);
      }
    }
    adopted = (best / t.chunk_tokens) * t.chunk_tokens;
    if (adopted > 0 && entry >= 0) {
      plan.entry = entry;
      plan.shared_tokens = adopted;
      // Full pages only: a prefix ending mid-page forks copy-on-write —
      // the partial page's rows are copied into the request's first
      // private page rather than shared.
      plan.shared_pages = std::min(
          adopted / pt,
          static_cast<int>(
              t.prefix_cache[static_cast<std::size_t>(entry)].pages.size()));
    } else {
      adopted = 0;
    }
  }

  // Page requirement of the request's first step, prefill_pos advanced
  // to the adopted prefix.
  const int len = static_cast<int>(p.prompt.size());
  const int first_decode_row = p.new_tokens >= 2 ? 1 : 0;
  int after = 0;
  if (t.chunk_tokens > 0) {
    const int a = std::min(adopted + t.chunk_tokens, len);
    after = a >= len ? len + first_decode_row : a;
  } else {
    after = len + first_decode_row;
  }
  plan.need_pages = pages_for_tokens(p.model, after);
  return plan;
}

bool BatchedEngine::can_grant_pages(
    ModelId m, const std::vector<KvBudgetPolicy::TenantView>& snapshot,
    int free_pages, int n) const {
  // Simulate n sequential grants exactly the way admission acquires
  // them: each grant advances the tenant's occupancy and re-asks the
  // policy, so a policy that would cut the tenant off mid-way refuses
  // the whole admission (a half-admitted request would deadlock).
  const Tenant& t = tenants_[static_cast<std::size_t>(m)];
  std::vector<KvBudgetPolicy::TenantView>& views = grant_views_;
  views.assign(snapshot.begin(), snapshot.end());
  auto& v = views[static_cast<std::size_t>(m)];
  for (int i = 0; i < n; ++i) {
    if (free_pages <= 0 || v.in_use >= t.cap) return false;
    if (!budget_->may_acquire(m, views, kv_pages_.capacity(), free_pages)) {
      return false;
    }
    ++v.in_use;
    --free_pages;
  }
  return true;
}

const BatchedEngine::Tenant& BatchedEngine::tenant(ModelId m) const {
  DISTMCU_CHECK(m >= 0 && m < model_count(),
              "BatchedEngine: ModelId out of range");
  return tenants_[static_cast<std::size_t>(m)];
}

const std::string& BatchedEngine::model_name(ModelId m) const {
  return tenant(m).name;
}
int BatchedEngine::model_kv_quota(ModelId m) const { return tenant(m).quota; }
int BatchedEngine::model_kv_cap(ModelId m) const { return tenant(m).cap; }
int BatchedEngine::chunk_tokens(ModelId m) const {
  return tenant(m).chunk_tokens;
}

Precision BatchedEngine::model_precision(ModelId m) const {
  return tenant(m).session->precision();
}
KvLayout BatchedEngine::model_kv_layout(ModelId m) const {
  return tenant(m).session->kv_layout();
}
int BatchedEngine::model_kv_elem_bits(ModelId m) const {
  return tenant(m).kv_elem_bits;
}

std::optional<RequestId> BatchedEngine::submit(Request req) {
  // The model guard must stay ahead of every per_model[...] index below:
  // an unknown id must throw, not corrupt another deployment's counters.
  DISTMCU_CHECK(req.model >= 0 && req.model < model_count(),
              "submit: unknown model id " + std::to_string(req.model));
  const Tenant& t = tenants_[static_cast<std::size_t>(req.model)];
  DISTMCU_CHECK(!req.prompt.empty(), "submit: prompt must not be empty");
  DISTMCU_CHECK(req.new_tokens >= 0, "submit: new_tokens must be >= 0");
  DISTMCU_CHECK(static_cast<int>(req.prompt.size()) + req.new_tokens <=
                  t.session->config().ar_context,
              "submit: sequence exceeds the model's context length");
  // Prefill cost and the construction-time L2 fit were both derived from
  // the deployment's static prompt shape, so longer prompts would be
  // silently under-charged and under-validated.
  DISTMCU_CHECK(
      static_cast<int>(req.prompt.size()) <= t.session->config().prompt_len,
      "submit: prompt exceeds the deployment's prefill length (" +
          std::to_string(t.session->config().prompt_len) + ")");
  // Livelock guard: a sequence whose full KV can never fit the tenant's
  // page cap would be admitted, grown until the cap, and evicted
  // forever. Refuse it up front like the context checks above.
  const int prompt_tokens = static_cast<int>(req.prompt.size());
  DISTMCU_CHECK(fits_page_cap(req.model, prompt_tokens, req.new_tokens),
                "submit: sequence needs " +
                    std::to_string(sequence_pages(t.page_tokens, prompt_tokens,
                                                  req.new_tokens)) +
                    " KV pages but model '" + t.name + "' is capped at " +
                    std::to_string(t.cap));

  last_rejection_ = Rejection::none;
  auto& pm = stats_.per_model[static_cast<std::size_t>(req.model)];
  const Cycles submitted_at = pipeline_.now();
  // Saturating resolve: a near-max relative deadline must pin to the
  // timeline's end (never missed), not wrap into the past (always
  // "missed" and, under fail-fast, always refused).
  const Cycles deadline_at =
      req.slo.deadline_cycles != kNoDeadline
          ? util::sat_add(submitted_at, req.slo.deadline_cycles)
          : kNoDeadline;
  const Cycles est = estimate_request_cost(
      t, static_cast<int>(req.prompt.size()), req.new_tokens);

  // Fail-fast: refuse a deadline the request's own service demand
  // already blows on an idle engine — queueing and batching only add to
  // it, so accepting would just burn pages on a guaranteed miss.
  if (opts_.fail_fast_deadlines && deadline_at != kNoDeadline &&
      util::sat_add(submitted_at, est) > deadline_at) {
    last_rejection_ = Rejection::hopeless_deadline;
    ++stats_.rejected;
    ++stats_.rejected_hopeless_deadline;
    ++pm.rejected;
    return std::nullopt;
  }

  // max_pending bounds the *queue*: only the backlog beyond what the
  // free KV pages can absorb at the next admission point counts against
  // it, so an idle engine with a free page admits even at
  // max_pending == 0. On a full queue fair shedding (when enabled) may
  // drop a heavier tenant's newest queued request to make room.
  const int backlog = static_cast<int>(pending_.size()) - kv_pages_.free();
  if (backlog >= opts_.max_pending &&
      !(opts_.fair_shedding && shed_for_model(req.model))) {
    last_rejection_ = Rejection::queue_full;
    ++stats_.rejected;
    ++stats_.rejected_queue_full;
    ++pm.rejected;
    return std::nullopt;
  }
  Inflight r;
  r.id = next_id_++;
  r.model = req.model;
  r.prompt = std::move(req.prompt);
  r.new_tokens = req.new_tokens;
  r.slo = req.slo;
  r.submitted_at = submitted_at;
  r.deadline_at = deadline_at;
  r.estimated_cost = est;
  const RequestId id = r.id;
  pending_.push_back(std::move(r));
  ++pm.submitted;
  stats_.queue_depth_peak =
      std::max(stats_.queue_depth_peak, static_cast<int>(pending_.size()));
  return id;
}

const std::vector<KvBudgetPolicy::TenantView>& BatchedEngine::budget_views()
    const {
  views_.resize(tenants_.size());
  for (std::size_t m = 0; m < tenants_.size(); ++m) {
    views_[m] = {.model = static_cast<ModelId>(m),
                 .in_use = kv_pages_.tenant_in_use(static_cast<ModelId>(m)),
                 .pending = 0,
                 .quota = tenants_[m].quota,
                 .cap = tenants_[m].cap};
  }
  for (const Inflight& p : pending_) {
    ++views_[static_cast<std::size_t>(p.model)].pending;
  }
  return views_;
}

bool BatchedEngine::admissible_now(
    const Inflight& p, const std::vector<KvBudgetPolicy::TenantView>& views,
    int free_pages) const {
  if (free_pages <= 0) return false;
  // The whole first-step page requirement (net of adoptable shared
  // pages) must be grantable at once. It always includes a private
  // page (checked at admission), so a tenant's active requests never
  // outnumber its pages, nor its cap.
  const AdmitPlan plan = plan_admission(p);
  return can_grant_pages(p.model, views, free_pages,
                         plan.need_pages - plan.shared_pages);
}

bool BatchedEngine::admits_after_evicting(
    const Inflight& starved, const Inflight& victim,
    const std::vector<KvBudgetPolicy::TenantView>& views) const {
  // Post-eviction snapshot: the victim's pages free and it rejoins the
  // queue; then ask whether the budget would grant the starved request
  // admission (a watermark-borrowed victim page repays the reserve
  // cross-model, which is exactly what makes this reclaim useful). Only
  // the victim's sole-referenced pages return to the pool; pages shared
  // with the prefix registry or other requests stay resident.
  evict_views_.assign(views.begin(), views.end());
  auto& vv = evict_views_[static_cast<std::size_t>(victim.model)];
  int freed = 0;
  for (const int pg : victim.pages) {
    if (kv_pages_.refcount(pg) == 1) ++freed;
  }
  vv.in_use -= freed;
  ++vv.pending;
  return admissible_now(starved, evict_views_, kv_pages_.free() + freed);
}

Cycles BatchedEngine::remaining_cost(const Inflight& r) const {
  const Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
  Cycles est = 0;
  if (!r.prefill_done()) {
    if (t.chunk_tokens > 0) {
      const int len = static_cast<int>(r.prompt.size());
      const int n_chunks = (len + t.chunk_tokens - 1) / t.chunk_tokens;
      for (int ci = r.prefill_pos / t.chunk_tokens; ci < n_chunks; ++ci) {
        const ChunkCost& cc = t.chunk_costs[static_cast<std::size_t>(ci)];
        est += cc.compute + cc.stream;
      }
    } else {
      est = t.prompt_cycles;
    }
    if (r.new_tokens > 1) {
      est += static_cast<Cycles>(r.new_tokens - 1) * t.ar_per_req_cycles;
    }
    return est;
  }
  // Mid-decode: generate's composition leaves new_tokens - 1 - generated
  // forwards ahead of a request whose next token is already pending.
  const int decode_left = std::max(0, r.new_tokens - r.generated - 1);
  return static_cast<Cycles>(decode_left) * t.ar_per_req_cycles;
}

void BatchedEngine::maybe_preempt(int step_idx, double& step_energy) {
  if (opts_.preemption == nullptr) return;
  // Bound the evictions per step by the step's initial batch size so a
  // pathological policy cannot loop the step forever.
  int evict_budget = static_cast<int>(active_.size());
  while (evict_budget-- > 0 && !pending_.empty() && !active_.empty()) {
    if (!attempt_preemption(step_idx, step_energy)) break;
  }
}

bool BatchedEngine::attempt_preemption(int step_idx, double& step_energy) {
  const Cycles now = pipeline_.now();
  const auto& views = budget_views();
  const int free_pages = kv_pages_.free();

  // Starved = pending with a deadline the cost estimator says is
  // feasible started now, but that the budget will not admit right now.
  // Earliest such deadline first (lowest id on ties).
  int starved_idx = -1;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Inflight& p = pending_[i];
    if (p.deadline_at == kNoDeadline) continue;
    if (util::sat_add(now, p.estimated_cost) > p.deadline_at) continue;
    if (admissible_now(p, views, free_pages)) continue;
    const auto si = static_cast<std::size_t>(starved_idx);
    if (starved_idx < 0 || p.deadline_at < pending_[si].deadline_at ||
        (p.deadline_at == pending_[si].deadline_at &&
         p.id < pending_[si].id)) {
      starved_idx = static_cast<int>(i);
    }
  }
  if (starved_idx < 0) return false;
  const Inflight& s = pending_[static_cast<std::size_t>(starved_idx)];

  // Victims: mid-decode running requests whose eviction actually
  // unblocks the starved request under the budget.
  std::vector<std::size_t> victim_idx;
  std::vector<PreemptionPolicy::Victim> victims;
  Cycles min_rem = std::numeric_limits<Cycles>::max();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const Inflight& v = active_[i];
    if (!v.prefill_done() || v.new_tokens == 0 || v.generated >= v.new_tokens) {
      continue;
    }
    if (!admits_after_evicting(s, v, views)) continue;
    PreemptionPolicy::Victim pv;
    pv.id = v.id;
    pv.model = v.model;
    pv.priority = v.slo.priority;
    pv.deadline_at = v.deadline_at;
    pv.remaining_cost = remaining_cost(v);
    pv.generated = v.generated;
    pv.new_tokens = v.new_tokens;
    pv.borrowed = kv_pages_.tenant_in_use(v.model) >
                  tenants_[static_cast<std::size_t>(v.model)].quota;
    pv.times_evicted = v.times_evicted;
    min_rem = std::min(min_rem, pv.remaining_cost);
    victims.push_back(pv);
    victim_idx.push_back(i);
  }
  if (victims.empty()) return false;

  // The trigger proper: preempt only when waiting for the earliest
  // natural release among the helpful victims would blow the starved
  // deadline that is attainable today.
  if (util::sat_add(util::sat_add(now, min_rem), s.estimated_cost) <=
      s.deadline_at) {
    return false;
  }

  Scheduler::Candidate c;
  c.id = s.id;
  c.model = s.model;
  c.priority = s.slo.priority;
  c.deadline_at = s.deadline_at;
  c.submitted_at = s.submitted_at;
  c.submit_seq = s.id;
  c.estimated_cost = s.estimated_cost;
  const int pick = opts_.preemption->pick_victim(victims, c, now);
  if (pick < 0) return false;
  DISTMCU_CHECK(pick < static_cast<int>(victims.size()),
              std::string("BatchedEngine: preemption policy '") +
                  opts_.preemption->name() +
                  "' returned an out-of-range victim index");
  evict_active(victim_idx[static_cast<std::size_t>(pick)], step_idx,
               step_energy);
  return true;
}

void BatchedEngine::evict_active(std::size_t idx, int /*step_idx*/,
                                 double& step_energy) {
  Inflight r = std::move(active_[idx]);
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(idx));
  Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
  const int written = r.written_rows();
  r.checkpoint_bytes = static_cast<Bytes>(written) * t.kv_token_bytes;
  // Rows resident in shared pages are not checkpoint traffic: the pages
  // stay mapped under the prefix registry (or other sharers) and a
  // resume re-references them. Only whole leading shared pages count — a
  // partial private page's rows must move either way — and the shared
  // span is kept page-aligned so the resume bookkeeping stays exact.
  int lead = 0;
  while (lead < static_cast<int>(r.pages.size()) &&
         kv_pages_.refcount(r.pages[static_cast<std::size_t>(lead)]) >= 2) {
    ++lead;
  }
  const int pt = t.page_tokens;
  const int shared_tok = std::min((written / pt) * pt, lead * pt);
  r.checkpoint_bytes -= static_cast<Bytes>(shared_tok) * t.kv_token_bytes;
  r.shared_resident_tokens = shared_tok;
  // Every written row is copied, shared ones included: the registry may
  // drop the prefix while the request is out (the resume then charges
  // those rows as restore traffic).
  const model::KvPageTable pages = page_table(t, r.pages);
  r.checkpoint.emplace();
  model::copy_kv_rows(pages, 0, pages.compact(*r.checkpoint, written), 0, written);
  // Checkpoint traffic: the filled KV moves out through the chip's L3
  // DMA model (setup + bytes at the L3<->L2 bandwidth), charged to the
  // evicted request itself; in-flight staged fetches are pushed back by
  // exactly the advance, so the one-stream stall bound of every later
  // decode phase holds.
  const Cycles c =
      r.checkpoint_bytes > 0
          ? t.session->system().chip.l3_dma_cycles(r.checkpoint_bytes)
          : Cycles{0};
  const double e = util::pj_to_mj(static_cast<double>(r.checkpoint_bytes) *
                                  t.session->system().chip.e_l3_pj_per_byte);
  charge(r, c, e, sim::Category::sched, "sched.evict", pipeline_.now(),
         sched_chip(r.model));
  if (c > 0) pipeline_.advance_opaque(c, c);
  step_energy += e;
  stats_.preemption_cycles += c;
  r.work_done_at = pipeline_.now();

  auto& pm = stats_.per_model[static_cast<std::size_t>(r.model)];
  for (const int pg : r.pages) kv_pages_.reclaim(pg, r.model);
  r.pages.clear();
  r.shared_pages = 0;
  pm.kv_slots_reclaimed = kv_pages_.tenant_reclaimed(r.model);
  ++r.times_evicted;
  ++stats_.preemptions;
  ++pm.preemptions;
  // Future admission ranks on what is left of it — the remaining decode
  // demand plus the resume restore it now owes.
  r.estimated_cost = util::sat_add(remaining_cost(r), c);
  pending_.push_back(std::move(r));
  stats_.queue_depth_peak =
      std::max(stats_.queue_depth_peak, static_cast<int>(pending_.size()));
}

bool BatchedEngine::shed_for_model(ModelId incoming) {
  // Per-tenant fairness: the deepest backlog (counting the incoming
  // request toward its own tenant) gives up its newest queued request.
  // When the incoming tenant is itself among the heaviest, shedding
  // somebody else for it would be churn, not fairness — refuse and let
  // the caller reject queue_full. Checkpointed (evicted) requests are
  // never shed: their already-charged service would be orphaned.
  std::vector<int> depth(tenants_.size(), 0);
  for (const Inflight& p : pending_) ++depth[static_cast<std::size_t>(p.model)];
  ++depth[static_cast<std::size_t>(incoming)];
  int max_depth = 0;
  for (const int d : depth) max_depth = std::max(max_depth, d);
  if (depth[static_cast<std::size_t>(incoming)] == max_depth) return false;
  int victim = -1;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Inflight& p = pending_[i];
    if (depth[static_cast<std::size_t>(p.model)] != max_depth) continue;
    if (p.checkpoint.has_value()) continue;
    if (victim < 0 || p.id > pending_[static_cast<std::size_t>(victim)].id) {
      victim = static_cast<int>(i);
    }
  }
  if (victim < 0) return false;
  const Inflight shed = std::move(pending_[static_cast<std::size_t>(victim)]);
  pending_.erase(pending_.begin() + victim);
  ++stats_.shed;
  ++stats_.per_model[static_cast<std::size_t>(shed.model)].shed;
  shed_ids_.push_back(shed.id);
  return true;
}

int BatchedEngine::pick_admissible_pending(bool alone) {
  // Budget snapshot: everybody's occupancy and queued demand.
  const auto& views = budget_views();
  const int free_pages = kv_pages_.free();

  // The scheduler ranks exactly the requests the budget would grant
  // admission to right now — so a deadline on one model can preempt
  // admission of another model's request, but never overdraw that
  // model's share (the whole first-step page set or nothing).
  std::vector<Scheduler::Candidate>& queue = sched_queue_;
  std::vector<int>& pending_index = pending_index_;
  queue.clear();
  pending_index.clear();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Inflight& p = pending_[i];
    if (alone) {
      alone_views_.assign(views.begin(), views.end());
      for (KvBudgetPolicy::TenantView& v : alone_views_) {
        if (v.model != p.model) v.pending = 0;
      }
    }
    if (!admissible_now(p, alone ? alone_views_ : views, free_pages)) continue;
    Scheduler::Candidate c;
    c.id = p.id;
    c.model = p.model;
    c.priority = p.slo.priority;
    c.deadline_at = p.deadline_at;
    c.submitted_at = p.submitted_at;
    // Ids are issued monotonically at submit, so they double as the
    // policies' FIFO tie-break sequence.
    c.submit_seq = p.id;
    c.estimated_cost = p.estimated_cost;
    queue.push_back(c);
    pending_index.push_back(static_cast<int>(i));
  }
  if (queue.empty()) return -1;
  const std::size_t idx = scheduler_->pick(queue, pipeline_.now());
  DISTMCU_CHECK(idx < queue.size(),
              std::string("BatchedEngine: scheduler '") + scheduler_->name() +
                  "' returned an out-of-range queue index");
  return pending_index[idx];
}

void BatchedEngine::trace_admission(const Inflight& r) {
  if (tracer_ == nullptr || r.admitted_at <= r.submitted_at) return;
  tracer_->set_request(r.id);
  if (trace_models_) tracer_->set_model(r.model);
  tracer_->record(sched_chip(r.model), sim::Category::sched, r.submitted_at,
                  r.admitted_at, 0, "sched.queue");
  tracer_->set_request(sim::kNoRequest);
  if (trace_models_) tracer_->set_model(sim::kNoModel);
}

void BatchedEngine::charge(Inflight& r, Cycles cycles, double energy_mj,
                           sim::Category cat, const char* label, Cycles begin,
                           int chip) {
  r.cycles += cycles;
  r.energy_mj += energy_mj;
  auto& pm = stats_.per_model[static_cast<std::size_t>(r.model)];
  pm.attributed_cycles += cycles;
  pm.attributed_energy_mj += energy_mj;
  if (tracer_ != nullptr && cycles > 0) {
    tracer_->set_request(r.id);
    if (trace_models_) tracer_->set_model(r.model);
    tracer_->record(chip, cat, begin, begin + cycles, 0, label);
    tracer_->set_request(sim::kNoRequest);
    if (trace_models_) tracer_->set_model(sim::kNoModel);
  }
}

void BatchedEngine::finish(Inflight& r, int step_idx) {
  // Owner-checked page release; shared prefix pages just drop one
  // reference and stay resident for the registry / other sharers.
  for (const int pg : r.pages) kv_pages_.release(pg, r.model);
  r.pages.clear();
  r.shared_pages = 0;
  RequestResult out;
  out.id = r.id;
  out.model = r.model;
  out.admitted_step = r.admitted_step;
  out.finished_step = step_idx;
  out.admitted_at = r.admitted_at;
  // The boundary at which the final token was committed: the request's
  // own last completed work, not the end of a step other requests are
  // still filling.
  out.finished_at = r.work_done_at;
  out.slo = r.slo;
  out.submitted_at = r.submitted_at;
  out.deadline_at = r.deadline_at;
  out.times_evicted = r.times_evicted;
  out.gen.tokens = std::move(r.tokens);
  out.gen.generated = r.generated;
  out.gen.total_cycles = r.cycles;
  out.gen.total_energy_mj = r.energy_mj;

  auto& pm = stats_.per_model[static_cast<std::size_t>(r.model)];

  // SLO accounting: attained-vs-deadline and the queueing-delay
  // distribution, refreshed so stats() is a consistent snapshot at every
  // completion.
  const Cycles queue_delay = out.queue_delay_cycles();
  stats_.queue_delay_total += queue_delay;
  queue_delays_.insert(queue_delay);
  stats_.queue_delay_p50 = queue_delays_.percentile(50.0);
  stats_.queue_delay_p95 = queue_delays_.percentile(95.0);
  stats_.queue_delay_p99 = queue_delays_.percentile(99.0);
  if (out.deadline_at != kNoDeadline) {
    ++stats_.slo_requests;
    ++pm.slo_requests;
    if (out.missed_deadline()) {
      ++stats_.deadline_misses;
      ++pm.deadline_misses;
      // Instant marker on the request's own lane — routed to its
      // model's scheduler lane in multi-model traces rather than pinned
      // to chip 0 — at the moment the deadline was finally blown (its
      // own finish boundary).
      if (tracer_ != nullptr) {
        tracer_->set_request(out.id);
        if (trace_models_) tracer_->set_model(out.model);
        tracer_->record(sched_chip(out.model), sim::Category::sched,
                        out.finished_at, out.finished_at, 0,
                        "sched.deadline.miss");
        tracer_->set_request(sim::kNoRequest);
        if (trace_models_) tracer_->set_model(sim::kNoModel);
      }
    }
  }

  finished_.push_back(std::move(out));
  ++stats_.completed;
  ++pm.completed;
}

void BatchedEngine::stack_rows(const Inflight& r, std::span<const int> toks,
                               int pos_offset) {
  Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
  t.stack_groups.push_back(
      {nullptr, pos_offset, static_cast<int>(toks.size()), page_table(t, r.pages)});
  t.stack_ids.insert(t.stack_ids.end(), toks.begin(), toks.end());
}

std::span<const float> BatchedEngine::run_stack(Tenant& t) {
  const std::span<const float> h =
      t.session->forward_tokens(t.ws, t.stack_ids, t.stack_groups);
  t.stack_groups.clear();
  t.stack_ids.clear();
  return h;
}

int BatchedEngine::greedy_at(Tenant& t, std::span<const float> h, int row) {
  const int e = t.session->config().embed_dim;
  const kernels::ConstView rows(h, static_cast<int>(h.size()) / e, e);
  int next = 0;
  t.session->embedding().greedy_rows(rows.row_range(row, row + 1), t.ws.logits,
                                     {&next, 1});
  return next;
}

void BatchedEngine::admit_pending(int step_idx, double& step_energy) {
  // A prefix registry pinning EVERY page would stall admission forever on
  // an otherwise idle engine: the loop below never runs with no free
  // page, so its deadlock guard never fires. Small pools (few pages, long
  // whole-page prompts) reach this; evict pins until a page frees up.
  while (active_.empty() && !pending_.empty() && kv_pages_.free() == 0 &&
         drop_lru_prefix_entry()) {
  }
  while (!pending_.empty() && kv_pages_.free() > 0) {
    int pi = pick_admissible_pending();
    if (pi < 0) {
      // Deadlock guard: with nothing running, the only occupancy free
      // admission could be waiting on is the prefix registry's page
      // pins — drop the least-recently-used entry and retry; registered
      // prefixes must never starve live work.
      if (!active_.empty()) break;
      if (drop_lru_prefix_entry()) continue;
      // Every page is free now, so a borrowing policy can only be
      // refusing on other tenants' queued demand: two tenants that each
      // need to borrow (a resumed request past its quota) would protect
      // each other's reserve forever. Judge each request as if its
      // tenant queued alone; what even that refuses can never be
      // admitted, a configuration error rather than a transient.
      pi = pick_admissible_pending(/*alone=*/true);
      DISTMCU_CHECK(pi >= 0,
                    "BatchedEngine: pending request can never be admitted "
                    "(first-step page demand exceeds what the budget policy "
                    "grants its tenant); raise the tenant's quota or lower "
                    "kv_page_tokens");
    }
    Inflight r = std::move(pending_[static_cast<std::size_t>(pi)]);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pi));
    Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
    // Re-plan after the pick: nothing changed since admissible_now saw
    // the request (no registry drops happen mid-loop), so the plan the
    // budget approved is the plan acquired below.
    const AdmitPlan plan = plan_admission(r);
    // The premise that lets page accounting alone bound a tenant's
    // active requests by its cap: every admission holds a private page.
    DISTMCU_CHECK(plan.need_pages > plan.shared_pages,
                  "BatchedEngine['" + t.name + "']: admission plan grants no private page");
    const bool resuming = r.checkpoint.has_value();
    if (!resuming) {
      r.admitted_step = step_idx;
      // The request's own position on the step timeline: prefills of
      // requests admitted earlier this step have already advanced the
      // pipeline, so their cycles never leak into this request's
      // residence latency. (Chunked models refine the stamp to the start
      // of the request's own first chunk. A resumed request keeps its
      // first-admission stamps — queue delay and residence latency span
      // the whole life of the request, evictions included.)
      r.admitted_at = pipeline_.now();
    }
    auto& pm = stats_.per_model[static_cast<std::size_t>(r.model)];

    Bytes restore_bytes = r.checkpoint_bytes;
    if (plan.entry >= 0 && plan.shared_pages > 0) {
      // Shared prefix pages first (token order), one new reference each;
      // the physical pages stay charged to this same tenant.
      Tenant::PrefixEntry& e =
          t.prefix_cache[static_cast<std::size_t>(plan.entry)];
      for (int k = 0; k < plan.shared_pages; ++k) {
        const int pg = e.pages[static_cast<std::size_t>(k)];
        kv_pages_.add_ref(pg);
        r.pages.push_back(pg);
      }
      r.shared_pages = plan.shared_pages;
      e.last_use = ++prefix_clock_;
      if (!resuming) {
        // Copy-on-write fork: adopt the donor's rows bit-exactly and skip
        // their prefill chunks entirely — that skip IS the prefix-sharing
        // win, so no cycles are charged here.
        r.prefill_pos = plan.shared_tokens;
        ++stats_.prefix_hits;
        stats_.prefix_shared_tokens += plan.shared_tokens;
        if (plan.shared_tokens > plan.shared_pages * t.page_tokens) {
          ++stats_.cow_forks;
        }
      }
    } else if (resuming && r.shared_resident_tokens > 0) {
      // The registry dropped the prefix while this request was out: its
      // shared rows now come back from the L3 backing store (which holds
      // every checkpointed block) into private pages, alongside the
      // checkpoint itself.
      restore_bytes += static_cast<Bytes>(r.shared_resident_tokens) * t.kv_token_bytes;
    }
    if (resuming) r.shared_resident_tokens = 0;
    // Private pages up to the first step's requirement; growth takes over
    // page-by-page from the next step on.
    const int need = pages_for_tokens(r.model, tokens_after_step(r));
    while (static_cast<int>(r.pages.size()) < need) {
      const auto pg = kv_pages_.acquire(r.model);
      DISTMCU_CHECK(pg.has_value(),
                  "BatchedEngine: admission without a free page");
      r.pages.push_back(*pg);
    }
    pm.kv_in_use_high_water = kv_pages_.tenant_high_water(r.model);
    // Rows the shared pages do not hold: a fork's adopted rows past its
    // whole pages (from the donor's pinned page, or the entry's tail
    // past its pages) into its first private page; a resume's rows from
    // its checkpoint.
    const model::KvPageTable pages = page_table(t, r.pages);
    const int shared_rows = r.shared_pages * t.page_tokens;
    if (resuming) {
      const int n = r.written_rows();
      model::copy_kv_rows(pages.compact(*r.checkpoint, n), shared_rows, pages, shared_rows,
                          n - shared_rows);
    } else if (r.prefill_pos > shared_rows) {
      Tenant::PrefixEntry& e = t.prefix_cache[static_cast<std::size_t>(plan.entry)];
      const int whole = static_cast<int>(e.pages.size()) * t.page_tokens;
      const int n = r.prefill_pos - shared_rows;
      if (shared_rows < whole) {
        model::copy_kv_rows(page_table(t, e.pages), shared_rows, pages, shared_rows, n);
      } else {
        model::copy_kv_rows(pages.compact(e.tail, static_cast<int>(e.tokens.size()) - whole),
                            shared_rows - whole, pages, shared_rows, n);
      }
    }

    if (resuming) {
      // Resume (its rows were written back above): charge the restore
      // traffic symmetrically to the eviction; the
      // request then rejoins decode at the next boundary with its
      // pending token intact, so its stream is bit-exact.
      const Cycles resume_begin = pipeline_.now();
      const Cycles c =
          restore_bytes > 0
              ? t.session->system().chip.l3_dma_cycles(restore_bytes)
              : Cycles{0};
      const double e =
          util::pj_to_mj(static_cast<double>(restore_bytes) *
                         t.session->system().chip.e_l3_pj_per_byte);
      // The re-queue wait, as a second sched.queue span on the
      // request's lane: eviction end to re-admission (never overlapping
      // the first — the eviction span sits between them).
      if (tracer_ != nullptr && resume_begin > r.work_done_at) {
        tracer_->set_request(r.id);
        if (trace_models_) tracer_->set_model(r.model);
        tracer_->record(sched_chip(r.model), sim::Category::sched,
                        r.work_done_at, resume_begin, 0, "sched.queue");
        tracer_->set_request(sim::kNoRequest);
        if (trace_models_) tracer_->set_model(sim::kNoModel);
      }
      charge(r, c, e, sim::Category::sched, "sched.resume", resume_begin,
             sched_chip(r.model));
      if (c > 0) pipeline_.advance_opaque(c, c);
      step_energy += e;
      stats_.preemption_cycles += c;
      r.work_done_at = pipeline_.now();
      r.checkpoint.reset();
      r.checkpoint_bytes = 0;
      ++stats_.resumes;
      ++pm.resumes;
      active_.push_back(std::move(r));
      continue;
    }

    if (t.chunk_tokens > 0) {
      active_.push_back(std::move(r));
      continue;
    }

    // Serial-prefill compatibility mode: the whole prompt is charged in
    // full at admission. Prefill advances the timeline without touching
    // the staged decode weights; an in-flight stream prefetch keeps
    // draining underneath, except while the prefill's own L3 streaming
    // occupies the port.
    r.started = true;
    trace_admission(r);
    stack_rows(r, r.prompt, 0);
    const std::span<const float> h = run_stack(t);
    r.prefill_pos = static_cast<int>(r.prompt.size());
    r.start_stream();
    charge(r, t.prompt_cycles, t.prompt_energy_mj, sim::Category::compute,
           "prefill", r.admitted_at);
    stats_.prefill_cycles += t.prompt_cycles;
    pipeline_.advance_opaque(t.prompt_cycles, t.prompt_stream_cycles);
    r.work_done_at = pipeline_.now();
    step_energy += t.prompt_energy_mj;
    serial_admitted_[static_cast<std::size_t>(r.model)] = 1;

    if (r.new_tokens == 0) {
      finish(r, step_idx);
    } else {
      r.next = greedy_at(t, h, r.prefill_pos - 1);
      active_.push_back(std::move(r));
    }
  }
}

bool BatchedEngine::drop_lru_prefix_entry(ModelId only) {
  int best_m = -1;
  int best_e = -1;
  std::uint64_t best_use = 0;
  for (std::size_t m = 0; m < tenants_.size(); ++m) {
    if (only >= 0 && static_cast<ModelId>(m) != only) continue;
    const auto& cache = tenants_[m].prefix_cache;
    for (std::size_t e = 0; e < cache.size(); ++e) {
      if (best_m < 0 || cache[e].last_use < best_use) {
        best_m = static_cast<int>(m);
        best_e = static_cast<int>(e);
        best_use = cache[e].last_use;
      }
    }
  }
  if (best_m < 0) return false;
  Tenant& t = tenants_[static_cast<std::size_t>(best_m)];
  Tenant::PrefixEntry entry =
      std::move(t.prefix_cache[static_cast<std::size_t>(best_e)]);
  t.prefix_cache.erase(t.prefix_cache.begin() + best_e);
  // Registry pins release through the owning tenant; a page still
  // referenced by an active adopter (or a sibling entry) stays resident.
  for (const int pg : entry.pages) {
    kv_pages_.release(pg, static_cast<ModelId>(best_m));
  }
  return true;
}

std::optional<int> BatchedEngine::acquire_page_for(ModelId m) {
  const Tenant& t = tenants_[static_cast<std::size_t>(m)];
  for (;;) {
    const auto& views = budget_views();
    const int free_pages = kv_pages_.free();
    if (free_pages > 0 && views[static_cast<std::size_t>(m)].in_use < t.cap &&
        budget_->may_acquire(m, views, kv_pages_.capacity(), free_pages)) {
      return kv_pages_.acquire(m);
    }
    // Denied. With no free page, any tenant's registry pin can return
    // one to the pool; with free pages but a budget refusal, only this
    // tenant's own pins repay its occupancy. Each round drops one entry
    // (or gives up), so the loop terminates.
    const bool dropped =
        free_pages <= 0 ? drop_lru_prefix_entry() : drop_lru_prefix_entry(m);
    if (!dropped) return std::nullopt;
  }
}

void BatchedEngine::grow_active(int step_idx, double& step_energy) {
  // Decode-time (and chunk-time) page growth, budget-gated exactly like
  // admission so the per-tenant invariants stay page-granular: a request
  // whose next step needs a page the policy will not grant is
  // checkpointed out (to resume once pages free up) rather than served
  // out of budget.
  std::size_t i = 0;
  while (i < active_.size()) {
    Inflight& r = active_[i];
    const int need = pages_for_tokens(r.model, tokens_after_step(r));
    bool grown = true;
    while (static_cast<int>(r.pages.size()) < need) {
      const auto pg = acquire_page_for(r.model);
      if (!pg.has_value()) {
        grown = false;
        break;
      }
      r.pages.push_back(*pg);
      stats_.per_model[static_cast<std::size_t>(r.model)]
          .kv_in_use_high_water = kv_pages_.tenant_high_water(r.model);
    }
    if (grown) {
      ++i;
    } else {
      evict_active(i, step_idx, step_energy);  // index now names the next
    }
  }
}

void BatchedEngine::donate_prefix(const Inflight& r) {
  Tenant& t = tenants_[static_cast<std::size_t>(r.model)];
  const int len = static_cast<int>(r.prompt.size());
  const int k = len / t.page_tokens;  // whole pages only
  if (k <= 0) return;
  // An exact-duplicate prompt refreshes the existing entry instead of
  // pinning a second copy of the same pages.
  for (Tenant::PrefixEntry& e : t.prefix_cache) {
    if (e.tokens == r.prompt) {
      e.last_use = ++prefix_clock_;
      return;
    }
  }
  if (static_cast<int>(t.prefix_cache.size()) >= kPrefixCacheCap) {
    (void)drop_lru_prefix_entry(r.model);
  }
  Tenant::PrefixEntry e;
  e.tokens = r.prompt;
  e.pages.assign(r.pages.begin(), r.pages.begin() + k);
  for (const int pg : e.pages) kv_pages_.add_ref(pg);
  // The donor never rewrites rows below its prompt length (KV is append-
  // only), so the pinned pages stay read-only by construction. The rows
  // past them sit in the donor's private page, which it frees when it
  // finishes: the entry keeps its own copy for forks that end there.
  // Donation itself costs nothing — the pages simply stay resident.
  const int whole = k * t.page_tokens;
  const model::KvPageTable pages = page_table(t, r.pages);
  model::copy_kv_rows(pages, whole, pages.compact(e.tail, len - whole), 0, len - whole);
  e.last_use = ++prefix_clock_;
  t.prefix_cache.push_back(std::move(e));
}

// --------------------------------------------------------------------------
// Serial-prefill sub-phase (this model's prompts were charged at
// admission): one token commit + decode forward per active request.
// --------------------------------------------------------------------------

void BatchedEngine::subphase_serial(ModelId m, int step_idx,
                                    double& step_energy, bool& step_decode) {
  Tenant& t = tenants_[static_cast<std::size_t>(m)];
  auto& pm = stats_.per_model[static_cast<std::size_t>(m)];

  // Emit one token per active request of this model; a request that
  // emits its final token leaves without running another forward,
  // mirroring InferenceSession::generate exactly. Survivors are
  // compacted in place, keeping their order.
  std::vector<std::size_t>& decoders = t.decode_runs;  // into compacted active_
  decoders.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Inflight& r = active_[i];
    if (r.model == m) {
      r.tokens.push_back(r.next);
      ++r.generated;
      ++stats_.total_generated;
      ++pm.total_generated;
      if (r.generated == r.new_tokens) {
        finish(r, step_idx);
        continue;
      }
      stack_rows(r, {&r.next, 1}, r.pos);
      decoders.push_back(kept);
    }
    if (kept != i) active_[kept] = std::move(r);
    ++kept;
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());
  if (decoders.empty()) return;
  decode_stack(t, decoders);

  // Decode phase: this model's serialized forwards race the weight
  // stream its previous decode step prefetched on its own channel, and
  // the prefetch for its NEXT step is issued the moment this phase
  // starts. Only the unhidden stall lands on the step; it is attributed
  // in equal integer shares (remainder cycles to the earliest admitted)
  // so per-request cycles still sum to the aggregate exactly. Streaming
  // energy is charged in full regardless of overlap — the DMA runs
  // either way.
  const auto b = static_cast<Cycles>(decoders.size());
  const Cycles compute = b * t.ar_per_req_cycles;
  // Skip the speculative fetch when this is provably the model's last
  // decode step.
  bool work_remains = false;
  for (const Inflight& p : pending_) {
    if (p.model == m) {
      work_remains = true;
      break;
    }
  }
  for (std::size_t j = 0; j < decoders.size() && !work_remains; ++j) {
    const Inflight& r = active_[decoders[j]];
    work_remains = r.generated + 1 < r.new_tokens;
  }
  const Bytes next_stream =
      work_remains ? static_cast<Bytes>(t.ar_shared_cycles) : Bytes{0};
  const auto sp =
      pipeline_.advance_step(/*prefill_compute=*/0, /*prefill_stream_bytes=*/0,
                             /*consume_staged=*/true, compute, next_stream, m);

  // Trace the stream DMA this phase consumed (issued during an earlier
  // step, so it overlaps whatever ran since) and remember the one just
  // issued for the step that will consume it.
  if (tracer_ != nullptr && t.pending_fetch_ready > t.pending_fetch_start) {
    if (trace_models_) tracer_->set_model(m);
    tracer_->record(0, sim::Category::dma_l3_l2, t.pending_fetch_start,
                    t.pending_fetch_ready, t.stream_bytes_per_step,
                    "weights.prefetch");
    if (trace_models_) tracer_->set_model(sim::kNoModel);
  }
  const Cycles consumed_margin = t.pending_fetch_margin;
  t.pending_fetch_start = sp.fetch_start;
  t.pending_fetch_ready = sp.fetch_ready;
  t.pending_fetch_margin =
      sp.fetch_ready > sp.end ? sp.fetch_ready - sp.end : Cycles{0};

  charge_decode_phase(m, decoders, sp, consumed_margin, step_energy,
                      step_decode);
}

void BatchedEngine::charge_decode_phase(
    ModelId m, const std::vector<std::size_t>& decoders,
    const PrefetchPipeline::StepSpan& sp, Cycles stall_bound,
    double& step_energy, bool& step_decode) {
  Tenant& t = tenants_[static_cast<std::size_t>(m)];
  auto& pm = stats_.per_model[static_cast<std::size_t>(m)];

  // Per-request decode compute at its serialized slot on the phase
  // timeline; the stall shares all sit in the wait window at the start
  // of the phase (the step start in serial mode, past the prompt chunks
  // in chunked mode), overlapping across the requests' trace lanes.
  const auto d = static_cast<Cycles>(decoders.size());
  const Cycles share = sp.stall / d;
  const Cycles rem = sp.stall % d;
  const double e_share =
      t.ar_shared_energy_mj / static_cast<double>(decoders.size());
  const Cycles decode_end = sp.decode_start + d * t.ar_per_req_cycles;
  for (std::size_t j = 0; j < decoders.size(); ++j) {
    Inflight& r = active_[decoders[j]];
    charge(r, t.ar_per_req_cycles, t.ar_per_req_energy_mj,
           sim::Category::compute, "decode",
           sp.decode_start + static_cast<Cycles>(j) * t.ar_per_req_cycles);
    const Cycles c = share + (static_cast<Cycles>(j) < rem ? 1 : 0);
    charge(r, c, e_share, sim::Category::dma_l3_l2, "weights.stall",
           sp.decode_begin);
    // Tokens commit at the decode phase boundary, whichever serialized
    // slot the request ran in; work already extended past it (a
    // chunk-stream tail share in this very step) is kept.
    r.work_done_at = std::max(r.work_done_at, decode_end);
  }
  step_energy += static_cast<double>(d) * t.ar_per_req_energy_mj +
                 t.ar_shared_energy_mj;
  step_decode = true;
  ++pm.decode_steps;
  // With the port to itself a model never stalls longer than its own
  // serial stream (double buffering); behind other tenants' traffic the
  // honest bound is the consumed fetch's issue-time margin, which only
  // shrinks between issue and consume.
  DISTMCU_CHECK(sp.stall <= std::max(t.ar_shared_cycles, stall_bound),
              "BatchedEngine: decode stall exceeded the consumed fetch's "
              "port latency");
  const Cycles hidden =
      sp.stall < t.ar_shared_cycles ? t.ar_shared_cycles - sp.stall : Cycles{0};
  stats_.prefetch_stall_cycles += sp.stall;
  stats_.stream_cycles_hidden += hidden;
  pm.prefetch_stall_cycles += sp.stall;
  pm.stream_cycles_hidden += hidden;
}

// --------------------------------------------------------------------------
// Chunked-prefill sub-phase (this model's prompts advance one chunk per
// step, co-scheduled with its decodes in heterogeneous steps).
// --------------------------------------------------------------------------

void BatchedEngine::decode_stack(Tenant& t, const std::vector<std::size_t>& rows) {
  const std::span<const float> h = run_stack(t);
  const int e = t.session->config().embed_dim;
  t.stack_next.resize(rows.size());
  t.session->embedding().greedy_rows(
      kernels::ConstView(h, static_cast<int>(rows.size()), e), t.ws.logits, t.stack_next);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    Inflight& r = active_[rows[j]];
    r.next = t.stack_next[j];
    ++r.pos;
  }
}

void BatchedEngine::subphase_chunked(ModelId m, int step_idx,
                                     double& step_energy, bool& step_prefill,
                                     bool& step_decode) {
  Tenant& t = tenants_[static_cast<std::size_t>(m)];
  auto& pm = stats_.per_model[static_cast<std::size_t>(m)];

  // ---- functional work -------------------------------------------------
  // Every prefilling request of this model advances one chunk; a request
  // completing its final chunk joins this step's token commit (its
  // prefill output IS its first forward, mirroring the serial mode and
  // generate()).
  std::vector<ChunkRun>& chunk_runs = t.chunk_runs;
  chunk_runs.clear();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Inflight& r = active_[i];
    if (r.model != m || r.prefill_done()) continue;
    // First own work, not first chunk position: an adopted prefix starts
    // the request past prefill_pos 0, but its admission stamp still
    // belongs at its own first chunk.
    const bool first = !r.started;
    r.started = true;
    const int begin = r.prefill_pos;
    const int end = std::min(begin + t.chunk_tokens, static_cast<int>(r.prompt.size()));
    stack_rows(r, std::span<const int>(r.prompt).subspan(
                      static_cast<std::size_t>(begin), static_cast<std::size_t>(end - begin)),
               begin);
    chunk_runs.push_back({i, begin / t.chunk_tokens, first});
  }
  if (!chunk_runs.empty()) {
    // All of this model's prompt chunks in one stacked forward; each
    // request then advances past its chunk in admission order.
    const std::span<const float> h = run_stack(t);
    int row_end = 0;
    for (const ChunkRun& cr : chunk_runs) {
      Inflight& r = active_[cr.req];
      const int len = static_cast<int>(r.prompt.size());
      const int end = std::min(r.prefill_pos + t.chunk_tokens, len);
      row_end += end - r.prefill_pos;
      r.prefill_pos = end;
      if (!r.prefill_done()) continue;
      r.start_stream();
      if (r.new_tokens > 0) r.next = greedy_at(t, h, row_end - 1);
      if (opts_.prefix_sharing) donate_prefix(r);
    }
  }

  std::vector<std::size_t>& decode_runs = t.decode_runs;  // ran a decode forward
  std::vector<std::size_t>& finishers = t.finishers;      // leave at this boundary
  decode_runs.clear();
  finishers.clear();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Inflight& r = active_[i];
    if (r.model != m || !r.prefill_done()) continue;
    if (r.new_tokens == 0) {
      // Prefill-only request (encoder classification): done at its own
      // last chunk.
      finishers.push_back(i);
      continue;
    }
    r.tokens.push_back(r.next);
    ++r.generated;
    ++stats_.total_generated;
    ++pm.total_generated;
    if (r.generated == r.new_tokens) {
      finishers.push_back(i);
      continue;
    }
    stack_rows(r, {&r.next, 1}, r.pos);
    decode_runs.push_back(i);
  }
  if (!decode_runs.empty()) decode_stack(t, decode_runs);

  // ---- step cost through the multi-consumer pipeline -------------------
  Cycles prefill_compute = 0;
  Cycles prefill_stream = 0;
  Bytes prefill_l3_bytes = 0;
  for (const auto& cr : chunk_runs) {
    const ChunkCost& cc = t.chunk_costs[static_cast<std::size_t>(cr.chunk)];
    prefill_compute += cc.compute;
    prefill_stream += cc.stream;
    prefill_l3_bytes += cc.l3_bytes;
  }
  const auto d = static_cast<Cycles>(decode_runs.size());
  const bool any_decode = !decode_runs.empty();

  if (!chunk_runs.empty() || any_decode) {
    // Speculative fetch for this model's next decode step, issued only
    // from steps that consume a stream themselves (a pure-prefill step
    // leaves the staged weights untouched). Decode work remains while
    // anything of this model in the queue or the batch will still run a
    // decode forward.
    bool decode_work_remains = false;
    for (const Inflight& p : pending_) {
      if (p.model == m) {
        decode_work_remains = true;
        break;
      }
    }
    for (std::size_t i = 0; i < active_.size() && !decode_work_remains; ++i) {
      if (active_[i].model != m) continue;
      if (std::find(finishers.begin(), finishers.end(), i) !=
          finishers.end()) {
        continue;
      }
      const Inflight& r = active_[i];
      decode_work_remains = r.prefill_done() ? r.generated + 1 < r.new_tokens
                                             : r.new_tokens > 1;
    }
    const Bytes next_stream = any_decode && decode_work_remains
                                  ? static_cast<Bytes>(t.ar_shared_cycles)
                                  : Bytes{0};

    const auto sp = pipeline_.advance_step(
        prefill_compute, static_cast<Bytes>(prefill_stream), any_decode,
        d * t.ar_per_req_cycles, next_stream, m);

    // Trace the chunk streams' port service window (untagged by request:
    // the DMA is a shared-port activity; the visible tail is charged per
    // request below) and the consumed decode prefetch.
    if (tracer_ != nullptr && prefill_stream > 0) {
      if (trace_models_) tracer_->set_model(m);
      tracer_->record(0, sim::Category::dma_l3_l2, sp.chunk_stream_start,
                      sp.chunk_ready, prefill_l3_bytes, "prompt.stream");
      if (trace_models_) tracer_->set_model(sim::kNoModel);
    }
    Cycles consumed_margin = 0;
    if (any_decode) {
      if (tracer_ != nullptr && t.pending_fetch_ready > t.pending_fetch_start) {
        if (trace_models_) tracer_->set_model(m);
        tracer_->record(0, sim::Category::dma_l3_l2, t.pending_fetch_start,
                        t.pending_fetch_ready, t.stream_bytes_per_step,
                        "weights.prefetch");
        if (trace_models_) tracer_->set_model(sim::kNoModel);
      }
      consumed_margin = t.pending_fetch_margin;
      t.pending_fetch_start = sp.fetch_start;
      t.pending_fetch_ready = sp.fetch_ready;
      t.pending_fetch_margin =
          sp.fetch_ready > sp.end ? sp.fetch_ready - sp.end : Cycles{0};
    }

    // ---- exact attribution --------------------------------------------
    // Prompt chunks at their serialized slots from the sub-phase start.
    Cycles cum = sp.begin;
    for (const auto& cr : chunk_runs) {
      Inflight& r = active_[cr.req];
      const ChunkCost& cc = t.chunk_costs[static_cast<std::size_t>(cr.chunk)];
      if (cr.first) {
        r.admitted_at = cum;
        trace_admission(r);
      }
      charge(r, cc.compute, cc.energy_mj, sim::Category::compute,
             "prefill.chunk", cum);
      cum += cc.compute;
      r.work_done_at = cum;
      step_energy += cc.energy_mj;
    }
    // The visible chunk-stream tail lands on the prefilling requests in
    // equal integer shares (remainder to the earliest admitted), all in
    // the tail window past the compute.
    if (sp.prefill_tail > 0) {
      const auto pn = static_cast<Cycles>(chunk_runs.size());
      const Cycles share = sp.prefill_tail / pn;
      const Cycles rem = sp.prefill_tail % pn;
      const Cycles tail_begin = sp.end - sp.prefill_tail;
      for (std::size_t j = 0; j < chunk_runs.size(); ++j) {
        Inflight& r = active_[chunk_runs[j].req];
        const Cycles c = share + (static_cast<Cycles>(j) < rem ? 1 : 0);
        charge(r, c, 0.0, sim::Category::dma_l3_l2, "prompt.stall",
               tail_begin);
        r.work_done_at = sp.end;
      }
    }
    // Decode forwards after the stall window, as in the serial mode;
    // the chunk-stream tail belongs to the prefilling requests, not the
    // decoders.
    if (any_decode) {
      charge_decode_phase(m, decode_runs, sp, consumed_margin, step_energy,
                          step_decode);
    }
    if (!chunk_runs.empty()) {
      step_prefill = true;
      ++pm.prefill_steps;
      stats_.prefill_cycles += prefill_compute + sp.prefill_tail;
      stats_.prefill_stream_cycles += sp.prefill_window;
      stats_.prefill_stall_cycles += sp.prefill_tail;
      stats_.prefill_cycles_hidden += sp.prefill_window - sp.prefill_tail;
    }
  }

  // ---- retire finished requests at the boundary ------------------------
  // Survivors are compacted in place, keeping their order.
  if (!finishers.empty()) {
    std::size_t f = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (f < finishers.size() && finishers[f] == i) {
        finish(active_[i], step_idx);
        ++f;
        continue;
      }
      if (kept != i) active_[kept] = std::move(active_[i]);
      ++kept;
    }
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                  active_.end());
  }
}

void BatchedEngine::run_subphase(ModelId m, int step_idx, double& step_energy,
                                 bool& step_prefill, bool& step_decode) {
  if (tenants_[static_cast<std::size_t>(m)].chunk_tokens > 0) {
    subphase_chunked(m, step_idx, step_energy, step_prefill, step_decode);
  } else {
    subphase_serial(m, step_idx, step_energy, step_decode);
  }
}

bool BatchedEngine::step() {
  if (pending_.empty() && active_.empty()) return false;
  const int step_idx = stats_.steps;
  double step_energy = 0.0;

  maybe_preempt(step_idx, step_energy);
  // Grow running requests to this step's page needs before admission, so
  // admission never out-competes work already in flight for the pages
  // its next token requires.
  grow_active(step_idx, step_energy);
  serial_admitted_.assign(tenants_.size(), 0);
  admit_pending(step_idx, step_energy);
  bool step_prefill = false;
  bool step_decode = false;
  for (std::size_t m = 0; m < tenants_.size(); ++m) {
    if (serial_admitted_[m] != 0) {
      step_prefill = true;
      ++stats_.per_model[m].prefill_steps;
    }
  }
  stats_.peak_batch =
      std::max(stats_.peak_batch, static_cast<int>(active_.size()));

  // Fixed-order model sub-phases: the grid is time-multiplexed between
  // the deployments within a step, while their weight streams race each
  // other's compute on the shared L3 port.
  for (ModelId m = 0; m < model_count(); ++m) {
    run_subphase(m, step_idx, step_energy, step_prefill, step_decode);
  }
  if (step_prefill) ++stats_.prefill_steps;
  if (step_decode) ++stats_.decode_steps;

  stats_.total_cycles = pipeline_.now();
  stats_.total_energy_mj += step_energy;
  ++stats_.steps;
  return !(pending_.empty() && active_.empty());
}

std::vector<RequestResult> BatchedEngine::run_to_completion() {
  while (step()) {
  }
  return finished_;
}

}  // namespace distmcu::runtime
