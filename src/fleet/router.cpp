#include "fleet/router.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace distmcu::fleet {

Cycles LinkModel::transfer_cycles(Bytes payload) const {
  DISTMCU_CHECK(cycles_per_byte >= 0.0,
                "LinkModel: cycles_per_byte must be >= 0");
  const auto serialize = static_cast<Cycles>(
      std::ceil(cycles_per_byte * static_cast<double>(payload)));
  return util::sat_add(latency_cycles, serialize);
}

Bytes LinkModel::request_bytes(int prompt_tokens) const {
  return util::sat_add(header_bytes,
                       bytes_per_token * static_cast<Bytes>(prompt_tokens));
}

Bytes LinkModel::response_bytes(int generated_tokens) const {
  return util::sat_add(header_bytes,
                       bytes_per_token * static_cast<Bytes>(generated_tokens));
}

Router::Router(std::shared_ptr<const RoutingPolicy> policy)
    : policy_(policy != nullptr
                  ? std::move(policy)
                  : make_routing_policy(RoutePolicy::round_robin)) {}

int Router::add_node(runtime::BatchedEngine& engine, LinkModel link,
                     std::string name) {
  const int index = static_cast<int>(nodes_.size());
  Node n;
  n.engine = &engine;
  n.link = link;
  n.name = name.empty() ? "node" + std::to_string(index) : std::move(name);
  for (runtime::ModelId m = 0; m < engine.model_count(); ++m) {
    const auto [it, inserted] = n.models.emplace(engine.model_name(m), m);
    DISTMCU_CHECK(inserted, "Router: node '" + n.name +
                                "' deploys model '" + it->first + "' twice");
  }
  nodes_.push_back(std::move(n));
  return index;
}

const std::string& Router::node_name(int node) const {
  DISTMCU_CHECK(node >= 0 && node < node_count(),
                "Router: unknown node index " + std::to_string(node));
  return nodes_[static_cast<std::size_t>(node)].name;
}

Cycles Router::node_now(const Node& n) const {
  return util::sat_add(n.offset, n.engine->stats().total_cycles);
}

void Router::advance(Node& n, Cycles target) {
  while (node_now(n) < target) {
    if (n.engine->active_requests() + n.engine->pending_requests() == 0) {
      // Idle gap: the engine clock only moves with work, so the offset
      // absorbs the wait until the next arrival.
      n.offset = target - n.engine->stats().total_cycles;
      break;
    }
    (void)n.engine->step();
    drain_completions(n);
    drain_shed(n);
  }
}

void Router::drain_completions(Node& n) {
  const auto& done = n.engine->finished();
  while (n.consumed_finished < done.size()) {
    const runtime::RequestResult& r = done[n.consumed_finished++];
    const auto it = n.in_flight.find(r.id);
    DISTMCU_CHECK(it != n.in_flight.end(),
                  "Router: node '" + n.name +
                      "' finished a request the router never placed");
    const InFlight f = it->second;
    n.in_flight.erase(it);

    // Completion processing happens after the very step that finished
    // the request, before any idle gap can bump the offset — so the
    // offset still holds the value it had while the request was in
    // flight.
    const Cycles node_finish = util::sat_add(n.offset, r.finished_at);
    const Cycles fleet_finish =
        util::sat_add(node_finish, f.response_link_cycles);

    n.outstanding_est = n.outstanding_est >= f.est_cost
                            ? n.outstanding_est - f.est_cost
                            : 0;
    ++n.completed;
    ++completed_;
    n.transfer_cycles =
        util::sat_add(n.transfer_cycles, f.response_link_cycles);
    response_transfer_cycles_ =
        util::sat_add(response_transfer_cycles_, f.response_link_cycles);
    transfer_bytes_ = util::sat_add(transfer_bytes_, f.response_bytes);
    if (f.deadline_at != runtime::kNoDeadline) {
      ++slo_requests_;
      if (fleet_finish > f.deadline_at) ++deadline_misses_;
    }
    makespan_ = std::max(makespan_, fleet_finish);

    FleetResult out;
    out.id = f.id;
    out.node = static_cast<int>(&n - nodes_.data());
    out.node_request = r.id;
    out.result = r;
    out.submitted_at = f.submitted_at;
    out.deadline_at = f.deadline_at;
    out.finished_at = fleet_finish;
    finished_.push_back(std::move(out));
  }
}

void Router::drain_shed(Node& n) {
  const auto& shed = n.engine->shed_ids();
  while (n.consumed_shed < shed.size()) {
    const runtime::RequestId id = shed[n.consumed_shed++];
    const auto it = n.in_flight.find(id);
    DISTMCU_CHECK(it != n.in_flight.end(),
                  "Router: node '" + n.name +
                      "' shed a request the router never placed");
    n.outstanding_est = n.outstanding_est >= it->second.est_cost
                            ? n.outstanding_est - it->second.est_cost
                            : 0;
    n.in_flight.erase(it);
    ++shed_;
  }
}

RoutingPolicy::NodeView Router::view_for(const Node& n, int index,
                                         const std::string& model,
                                         const std::vector<int>& prompt,
                                         int new_tokens) const {
  RoutingPolicy::NodeView v;
  v.node = index;
  v.queue_depth = n.engine->pending_requests() + n.engine->active_requests();
  v.active = n.engine->active_requests();
  v.backlog_cycles = n.outstanding_est;

  const auto it = n.models.find(model);
  if (it == n.models.end()) return v;  // ineligible: model not deployed
  const runtime::ModelId m = it->second;
  // Shape eligibility: a deployment whose static prefill shape or
  // context cannot take this request would throw at submit (a contract
  // violation, not a reject), so the router filters it out up front.
  const auto& cfg = n.engine->model_config(m);
  const int prompt_tokens = static_cast<int>(prompt.size());
  if (prompt_tokens < 1 || prompt_tokens > cfg.prompt_len ||
      prompt_tokens + new_tokens > cfg.ar_context) {
    return v;
  }
  // Same livelock guard as submit: the full sequence must fit the
  // tenant's page cap or submit would throw.
  if (!n.engine->fits_page_cap(m, prompt_tokens, new_tokens)) return v;

  v.eligible = true;
  v.precision = n.engine->model_precision(m);
  v.kv_elem_bits = n.engine->model_kv_elem_bits(m);
  v.est_cost = n.engine->estimate_cost(m, prompt_tokens, new_tokens);
  v.prefix_match_tokens = n.engine->prefix_match_tokens(m, prompt);
  if (v.prefix_match_tokens > 0) {
    v.prefix_saved_cycles =
        n.engine->estimate_cost(m, v.prefix_match_tokens, 0);
  }
  v.link_cycles =
      util::sat_add(n.link.transfer_cycles(n.link.request_bytes(prompt_tokens)),
                    n.link.transfer_cycles(n.link.response_bytes(new_tokens)));
  return v;
}

std::optional<FleetRequestId> Router::submit(const std::string& model,
                                             const std::vector<int>& prompt,
                                             int new_tokens,
                                             runtime::SloSpec slo, Cycles at) {
  DISTMCU_CHECK(at >= last_submit_at_,
                "Router: submit times must be non-decreasing (got " +
                    std::to_string(at) + " after " +
                    std::to_string(last_submit_at_) + ")");
  DISTMCU_CHECK(!nodes_.empty(), "Router: no nodes registered");
  last_submit_at_ = at;
  ++offered_;
  const std::uint64_t seq = static_cast<std::uint64_t>(next_id_);

  // Advance the whole fleet to the arrival so the policy ranks a
  // coherent snapshot (same-time arrivals advance nothing — the batch
  // path of the event loop).
  for (Node& n : nodes_) advance(n, at);

  std::vector<RoutingPolicy::NodeView> views;
  views.reserve(nodes_.size());
  int eligible = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    views.push_back(view_for(nodes_[i], static_cast<int>(i), model, prompt,
                             new_tokens));
    eligible += views.back().eligible ? 1 : 0;
  }
  if (eligible == 0) {
    ++rejected_;
    ++rejected_no_model_;
    return std::nullopt;
  }

  const Cycles deadline_at =
      slo.deadline_cycles != runtime::kNoDeadline
          ? util::sat_add(at, slo.deadline_cycles)
          : runtime::kNoDeadline;

  while (eligible > 0) {
    const std::size_t pick = policy_->pick(views, seq);
    DISTMCU_CHECK(pick < views.size() && views[pick].eligible,
                  "Router: policy '" + std::string(policy_->name()) +
                      "' picked an ineligible node");
    Node& n = nodes_[pick];
    const runtime::ModelId m = n.models.at(model);

    ++routed_;
    ++n.attempts;

    // The request rides the node's link; dispatch charges the request
    // transfer whether or not the node accepts (a refusal still moved
    // the bytes).
    const Bytes req_bytes =
        n.link.request_bytes(static_cast<int>(prompt.size()));
    const Cycles req_link = n.link.transfer_cycles(req_bytes);
    n.transfer_cycles = util::sat_add(n.transfer_cycles, req_link);
    request_transfer_cycles_ =
        util::sat_add(request_transfer_cycles_, req_link);
    transfer_bytes_ = util::sat_add(transfer_bytes_, req_bytes);

    const Cycles arrival = util::sat_add(at, req_link);
    advance(n, arrival);
    const Cycles now = node_now(n);

    const Bytes resp_bytes = n.link.response_bytes(new_tokens);
    const Cycles resp_link = n.link.transfer_cycles(resp_bytes);

    // The node must finish early enough for the response transfer to
    // still make the fleet deadline; shrink the node-side deadline by
    // the return trip. A budget the link alone exhausts is refused
    // here, before the engine sees it.
    runtime::SloSpec node_slo{slo.priority, runtime::kNoDeadline};
    bool link_infeasible = false;
    if (deadline_at != runtime::kNoDeadline) {
      const Cycles reply_by =
          deadline_at > resp_link ? deadline_at - resp_link : 0;
      if (reply_by <= now) {
        link_infeasible = true;
      } else {
        node_slo.deadline_cycles = reply_by - now;
      }
    }

    std::optional<runtime::RequestId> placed;
    if (!link_infeasible) {
      placed = n.engine->submit({.model = m,
                                 .prompt = prompt,
                                 .new_tokens = new_tokens,
                                 .slo = node_slo});
    }
    if (!placed.has_value()) {
      ++misrouted_;
      if (link_infeasible) ++n.link_rejected;
      views[pick].eligible = false;
      --eligible;
      continue;
    }

    InFlight f;
    f.id = next_id_;
    f.submitted_at = at;
    f.deadline_at = deadline_at;
    f.est_cost = views[pick].est_cost;
    f.response_link_cycles = resp_link;
    f.response_bytes = resp_bytes;
    n.in_flight.emplace(*placed, f);
    n.outstanding_est = util::sat_add(n.outstanding_est, f.est_cost);
    ++n.placed;
    ++placed_;
    return next_id_++;
  }

  ++rejected_;
  ++rejected_all_nodes_;
  ++next_id_;  // a rejected request still consumed its fleet sequence
  return std::nullopt;
}

const std::vector<FleetResult>& Router::run_to_completion() {
  bool any = true;
  while (any) {
    any = false;
    for (Node& n : nodes_) {
      if (n.engine->active_requests() + n.engine->pending_requests() == 0) {
        continue;
      }
      any = true;
      (void)n.engine->step();
      drain_completions(n);
      drain_shed(n);
    }
  }
  return finished_;
}

FleetStats Router::stats() const {
  FleetStats s;
  s.offered = offered_;
  s.placed = placed_;
  s.rejected = rejected_;
  s.rejected_no_model = rejected_no_model_;
  s.rejected_all_nodes = rejected_all_nodes_;
  s.routed = routed_;
  s.misrouted = misrouted_;
  s.completed = completed_;
  s.shed = shed_;
  s.slo_requests = slo_requests_;
  s.deadline_misses = deadline_misses_;
  s.request_transfer_cycles = request_transfer_cycles_;
  s.response_transfer_cycles = response_transfer_cycles_;
  s.transfer_bytes = transfer_bytes_;
  s.makespan = makespan_;
  s.per_node.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    FleetStats::Node out;
    out.name = n.name;
    out.attempts = n.attempts;
    out.placed = n.placed;
    out.link_rejected = n.link_rejected;
    out.completed = n.completed;
    out.transfer_cycles = n.transfer_cycles;
    out.serving = n.engine->stats();
    s.per_node.push_back(std::move(out));
  }
  return s;
}

}  // namespace distmcu::fleet
