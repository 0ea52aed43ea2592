#include "runtime/timed_simulation.hpp"

#include <algorithm>
#include <cmath>

#include "chip/kernel_timing.hpp"
#include "noc/collectives.hpp"
#include "util/check.hpp"

namespace distmcu::runtime {

SystemConfig SystemConfig::siracusa_system() { return SystemConfig{}; }

Cycles RunReport::t_comp_total() const {
  Cycles sum = 0;
  for (const Cycles t : t_comp) sum += t;
  return sum;
}

namespace {

/// Cost of one op on one chip, split into the parts the breakdown needs.
/// Model (DESIGN.md §3):
///   duration = [L3 fetch, streamed regime only] + launch overhead
///              + max(compute, L2->L1 tile DMA)
/// The L3 fetch is synchronous because the streamed regime by definition
/// lacks the L2 space to double-buffer it; the tile DMA overlaps with
/// compute via L1 double-buffering.
struct OpCost {
  Cycles duration = 0;
  Cycles l3_part = 0;       // -> Fig.4 "DMA L3<->L2"
  Cycles l2l1_part = 0;     // -> "DMA L2<->L1"
  Cycles compute_part = 0;  // -> "Computation"
  Cycles active = 0;        // cluster-active cycles (energy T_comp)
  Bytes l1_bytes = 0;
  Bytes l3_bytes = 0;

  /// Sum of a run of ops (every field is an integer, so sums are exact).
  OpCost& operator+=(const OpCost& o) {
    duration += o.duration;
    l3_part += o.l3_part;
    l2l1_part += o.l2l1_part;
    compute_part += o.compute_part;
    active += o.active;
    l1_bytes += o.l1_bytes;
    l3_bytes += o.l3_bytes;
    return *this;
  }
};

OpCost cost_op(const KernelOp& op, const chip::KernelTiming& timing,
               const chip::ChipConfig& cc, const partition::PrecisionConfig& prec,
               bool streamed) {
  chip::KernelCost kc;
  const Bytes ab = prec.act_bytes;
  Bytes act_bytes = 0;
  switch (op.kind) {
    case OpKind::gemm: {
      kc = timing.gemm(op.m, op.n, op.k, prec.mac_precision, 1, 1);
      act_bytes = static_cast<Bytes>(op.m * op.k + op.m * op.n) * ab;
      break;
    }
    case OpKind::softmax:
      kc = timing.softmax(op.m, op.n, 1);
      act_bytes = static_cast<Bytes>(2 * op.m * op.n) * ab;
      break;
    case OpKind::norm:
      kc = timing.norm(op.m, op.n, 1);
      act_bytes = static_cast<Bytes>(2 * op.m * op.n) * ab;
      break;
    case OpKind::elementwise:
      kc = timing.elementwise(op.n, 1);
      act_bytes = static_cast<Bytes>(2 * op.n) * ab;
      break;
    case OpKind::rope:
      kc = timing.rope(op.m, op.n, 1);
      act_bytes = static_cast<Bytes>(2 * op.m * op.n) * ab;
      break;
  }

  OpCost out;
  // Stationary operands (weights, KV slices) plus streaming activations
  // all flow through L1 via the cluster DMA.
  out.l1_bytes = op.weight_bytes + op.kv_bytes + act_bytes;
  const auto l1_dma = cc.dma_setup_l1 + static_cast<Cycles>(std::ceil(
                          static_cast<double>(out.l1_bytes) / cc.bw_l2_l1));
  if (streamed) {
    // Streamed regime: L2 cannot hold the block, so weights, the KV
    // cache AND activation intermediates live off-chip ("off-chip memory
    // is required to hold model weights and intermediate tensors of the
    // current block", paper Sec. V-B) — every operand byte crosses the
    // L3 interface synchronously.
    out.l3_bytes = op.weight_bytes + op.kv_bytes + act_bytes;
    out.l3_part = cc.l3_dma_cycles(out.l3_bytes);
  }
  const Cycles body = std::max(kc.compute_cycles, l1_dma);
  out.duration = out.l3_part + kc.overhead_cycles + body;
  // Winner-takes-the-max attribution keeps the stacked bars readable:
  // an op shows up as DMA-bound or compute-bound, matching how GVSoC
  // traces read.
  if (kc.compute_cycles >= l1_dma) {
    out.compute_part = kc.overhead_cycles + body;
  } else {
    out.compute_part = kc.overhead_cycles;
    out.l2l1_part = body;
  }
  // Active cluster time is pure compute: kernel prologues (DMA
  // programming, tile setup) run on Siracusa's fabric controller while
  // the cluster cores are clock-gated, so they are not charged to the
  // P*T_comp energy term.
  out.active = kc.compute_cycles;
  return out;
}

/// One class list of a phase, priced once: the cost of each op (replayed
/// for trace spans) and their sum (the totals of every chip of the class).
struct PricedClass {
  std::vector<OpCost> costs;
  OpCost sum;
};

struct PhaseResult {
  std::vector<Cycles> end;
  std::vector<Breakdown> contrib;
};

}  // namespace

TimedBlockSimulation::TimedBlockSimulation(SystemConfig sys) : sys_(std::move(sys)) {
  DISTMCU_CHECK(sys_.group_size >= 2, "SystemConfig: group_size must be >= 2");
}

RunReport TimedBlockSimulation::run(const partition::PartitionPlan& plan,
                                    model::Mode mode, sim::Tracer* tracer,
                                    int attention_span_override) const {
  const partition::MemoryPlanner planner(sys_.chip, sys_.precision);
  const partition::MemoryPlan mp = planner.plan(plan, mode);
  const bool streamed = mp.residency == partition::Residency::streamed;
  const BlockProgram prog =
      build_block_program(plan, sys_.precision, mode, attention_span_override);
  const int n = plan.num_chips();
  const chip::KernelTiming timing(sys_.chip.timing);
  noc::CollectiveTimer ctimer(sys_.flat_topology
                                  ? noc::Topology::flat(n)
                                  : noc::Topology::hierarchical(n, sys_.group_size),
                              sys_.link, sys_.chip.timing);
  const noc::Topology& topo = ctimer.topology();

  RunReport rep;
  rep.num_chips = n;
  rep.mode = mode;
  rep.residency = mp.residency;
  rep.t_comp.assign(static_cast<std::size_t>(n), 0);

  auto run_phase = [&](const std::vector<Cycles>& start, const PhaseProgram& phase) {
    std::vector<PricedClass> priced(phase.classes.size());
    for (std::size_t k = 0; k < priced.size(); ++k) {
      PricedClass& pc = priced[k];
      pc.costs.reserve(phase.classes[k].size());
      for (const KernelOp& op : phase.classes[k]) {
        pc.sum += pc.costs.emplace_back(
            cost_op(op, timing, sys_.chip, sys_.precision, streamed));
      }
    }
    PhaseResult res;
    res.end.resize(static_cast<std::size_t>(n));
    res.contrib.resize(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      const PhaseProgram::Chip& chip = phase.chips[static_cast<std::size_t>(c)];
      const PricedClass& pc = priced[static_cast<std::size_t>(chip.cls)];
      const Cycles t0 = start[static_cast<std::size_t>(c)];
      if (tracer != nullptr) {
        const std::vector<KernelOp>& ops = phase.ops(c);
        Cycles t = t0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const OpCost& oc = pc.costs[i];
          const std::string name = ops[i].name(chip.first_head);
          if (oc.l3_part > 0) {
            tracer->record(c, sim::Category::dma_l3_l2, t, t + oc.l3_part, oc.l3_bytes,
                           name + ":l3");
          }
          tracer->record(c, sim::Category::compute, t + oc.l3_part, t + oc.duration, 0,
                         name);
          t += oc.duration;
        }
      }
      const OpCost& sum = pc.sum;
      rep.traffic.l2_l1 += sum.l1_bytes;
      rep.traffic.l3_l2 += sum.l3_bytes;
      rep.t_comp[static_cast<std::size_t>(c)] += sum.active;
      res.end[static_cast<std::size_t>(c)] = t0 + sum.duration;
      res.contrib[static_cast<std::size_t>(c)] = {.compute = sum.compute_part,
                                                  .dma_l3_l2 = sum.l3_part,
                                                  .dma_l2_l1 = sum.l2l1_part};
    }
    return res;
  };

  auto run_root_ops = [&](Cycles start, const std::vector<KernelOp>& ops) {
    Cycles t = start;
    for (const KernelOp& op : ops) {
      const OpCost oc = cost_op(op, timing, sys_.chip, sys_.precision, /*streamed=*/false);
      rep.traffic.l2_l1 += oc.l1_bytes;
      rep.t_comp[static_cast<std::size_t>(topo.root())] += oc.active;
      if (tracer != nullptr) {
        tracer->record(topo.root(), sim::Category::compute, t, t + oc.duration, 0,
                       op.name());
      }
      t += oc.duration;
    }
    return t;
  };

  auto fold_accumulates = [&](const noc::CollectiveTiming& ct) {
    for (int c = 0; c < n; ++c) {
      rep.t_comp[static_cast<std::size_t>(c)] +=
          ct.accumulate_per_chip[static_cast<std::size_t>(c)];
    }
  };

  // ---- timeline -------------------------------------------------------
  const std::vector<Cycles> zeros(static_cast<std::size_t>(n), 0);
  const PhaseResult ph_a = run_phase(zeros, prog.mhsa);
  const Cycles a_end = *std::max_element(ph_a.end.begin(), ph_a.end.end());

  const auto red1 = ctimer.reduce(ph_a.end, prog.sync_payload_bytes, tracer);
  fold_accumulates(red1);
  rep.traffic.c2c += red1.c2c_bytes;

  const Cycles mid_end = run_root_ops(red1.finish, prog.root_mid);

  const auto bc1 = ctimer.broadcast(mid_end, prog.sync_payload_bytes, tracer);
  rep.traffic.c2c += bc1.c2c_bytes;

  const PhaseResult ph_b = run_phase(bc1.chip_ready, prog.ffn);
  const Cycles b_end = *std::max_element(ph_b.end.begin(), ph_b.end.end());

  const auto red2 = ctimer.reduce(ph_b.end, prog.sync_payload_bytes, tracer);
  fold_accumulates(red2);
  rep.traffic.c2c += red2.c2c_bytes;

  const Cycles end_end = run_root_ops(red2.finish, prog.root_end);

  const auto bc2 = ctimer.broadcast(end_end, prog.sync_payload_bytes, tracer);
  rep.traffic.c2c += bc2.c2c_bytes;
  Cycles block_end = bc2.finish;

  // ---- next-block prefetch (double-buffered regime) --------------------
  Cycles prefetch_end = 0;
  if (mp.residency == partition::Residency::double_buffered) {
    for (int c = 0; c < n; ++c) {
      const Bytes shard =
          plan.chip_block_weight_elems(c) * sys_.precision.weight_bytes;
      rep.prefetch_bytes += shard;
      const auto dur = sys_.chip.l3_dma_cycles(shard);
      prefetch_end = std::max(prefetch_end, dur);
      if (tracer != nullptr) {
        tracer->record(c, sim::Category::dma_l3_l2, 0, dur, shard, "prefetch_next_block");
      }
    }
    rep.traffic.l3_l2 += rep.prefetch_bytes;
  }
  if (sys_.accounting == LatencyAccounting::steady_state) {
    block_end = std::max(block_end, prefetch_end);
  }
  rep.block_cycles = block_end;

  // ---- breakdown attribution (segment walk) ----------------------------
  // Each wall-clock segment of the block is attributed to the categories
  // of the chip on its critical path, scaled so segments sum exactly to
  // the block latency (Fig. 4 stacked bars).
  Breakdown bd;
  auto attribute_phase = [&](const PhaseResult& ph, Cycles seg_duration) {
    const auto critical = static_cast<std::size_t>(
        std::max_element(ph.end.begin(), ph.end.end()) - ph.end.begin());
    const Breakdown& cb = ph.contrib[critical];
    const Cycles cb_total = cb.total();
    if (cb_total == 0 || seg_duration == 0) {
      bd.compute += seg_duration;
      return;
    }
    const double scale = static_cast<double>(seg_duration) / static_cast<double>(cb_total);
    const auto l3 = static_cast<Cycles>(static_cast<double>(cb.dma_l3_l2) * scale);
    const auto l2 = static_cast<Cycles>(static_cast<double>(cb.dma_l2_l1) * scale);
    const auto cc = static_cast<Cycles>(static_cast<double>(cb.c2c) * scale);
    bd.dma_l3_l2 += l3;
    bd.dma_l2_l1 += l2;
    bd.c2c += cc;
    bd.compute += seg_duration - l3 - l2 - cc;  // remainder keeps the sum exact
  };

  attribute_phase(ph_a, a_end);
  bd.c2c += red1.finish - a_end;
  bd.compute += mid_end - red1.finish;
  bd.c2c += bc1.finish - mid_end;
  attribute_phase(ph_b, b_end - bc1.finish);
  bd.c2c += red2.finish - b_end;
  bd.compute += end_end - red2.finish;
  bd.c2c += bc2.finish - end_end;
  if (block_end > bc2.finish) bd.dma_l3_l2 += block_end - bc2.finish;  // prefetch stall
  rep.breakdown = bd;
  DISTMCU_CHECK(rep.breakdown.total() == rep.block_cycles,
              "TimedBlockSimulation: breakdown does not sum to block latency");
  return rep;
}

}  // namespace distmcu::runtime
