#!/usr/bin/env python3
"""CI perf-regression gate for the machine-readable benches.

Compares a fresh ``<bench> --json`` run against its checked-in baseline
under ``bench/baselines/`` and exits nonzero on regression. The handler
is selected by the baseline's ``schema`` field; the candidate must carry
the same schema:

* ``distmcu.serving.v2`` (serving_throughput): batch_sweep rows (matched
  by batch size) bound tokens_per_s below and total_cycles/mj_per_token
  above baseline by ``--tolerance``; chunk_sweep rows likewise;
  slo_policies rows additionally pin deadline_misses (the workload is
  deterministic, so any increase is a scheduling regression) and check
  the cross-policy invariant that EDF keeps strictly fewer misses than
  FIFO at equal-or-better throughput. Overload rows (matched by engine
  config) have every admission/shedding/preemption counter
  pinned exactly, cycle/throughput fields bounded by ``--tolerance``,
  and the cross-config invariants that preemption strictly cuts
  deadline misses versus the non-preemptive engine at identical offered
  load, the full overload stack never misses more than preemption
  alone, and fail-fast/shedding actually reject and shed on the
  overloaded workload.
* ``distmcu.headline.v1`` (headline_abstract): metrics rows (matched by
  name) must stay within ``--tolerance`` of the baseline measurement in
  BOTH directions, a band that passed in the baseline must still pass,
  and all_bands_pass must hold.
* ``distmcu.multimodel.v1`` (multimodel_serving): mixed rows (matched by
  budget policy) bound requests_per_s/tokens_per_s below and
  total_cycles above baseline, kv_cross_leak_slots must be zero, each
  model's completed/generated counts are pinned exactly, and the shared
  arena must keep speedup_vs_best_isolated >= 1.
* ``distmcu.paging.v1`` (paged_serving): configs rows (matched by
  engine config) bound tokens_per_s below and total_cycles above
  baseline, with peak_batch / completed / bit_exact / pages_leaked /
  prefix_hits / cow_forks pinned exactly, plus the cross-config
  invariants that the paged engine admits strictly more concurrent
  requests than the slot engine at equal KV bytes, every config's
  streams stay bit-exact with zero pages leaked, and prefix sharing
  registers hits and strictly cuts cycles versus cold paging.
* ``distmcu.fleet.v1`` (fleet_serving): policies rows (matched by
  routing policy) pin every conservation counter exactly (offered ==
  placed + rejected, routed == placed + misrouted, placed == completed
  + shed, all re-derived by the gate itself) along with deadline_misses,
  prefix counters, bit_exact and conservation_ok; cycle/transfer fields
  are drift-bounded; per-node rows (matched by node name) pin
  attempts/placed/completed/rejected/link_rejected; and the
  cross-policy invariants hold that a cost- or prefix-aware router
  strictly beats round-robin on deadline misses at identical offered
  load and that prefix affinity lands more prefix-cache hits than
  round-robin.
* ``distmcu.quant.v1`` (quant_serving): configs rows (matched by
  precision config) bound tokens_per_s below and total_cycles /
  mj_per_token above baseline, with precision / kv_layout /
  kv_elem_bits / kv_units / peak_batch / completed / bit_exact /
  units_leaked pinned exactly, plus the cross-config invariants —
  re-derived by the gate itself — that at equal KV pool bytes the int8
  layout admits >= 2x and the int4 layout >= 4x the fp16 engine's
  concurrent requests, int8 costs strictly less energy per token than
  fp16, every config's streams stay bit-exact with zero KV units
  leaked, the int8 streams are invariant across chip counts and
  reduction tree shapes, and the mixed fp16+int8 registry conserves
  per-model attribution without leaks.
* ``distmcu.analysis.v1`` (analyze): configs rows (matched by config
  name) pin errors/warnings/ok and the sorted diagnostic-code list
  exactly (the analyzer is deterministic — any new code on a shipped
  config is a soundness change, not drift), and the report must keep
  all_ok true with zero total_errors.

Structural strictness: every section, row, and metric field present in
the BASELINE must exist in the candidate — a missing key fails the gate
with a clear message instead of silently passing (or crashing with a
bare KeyError).

The simulator is an analytic, integer-cycle model seeded
deterministically, so current and baseline numbers agree exactly when
the code is unchanged; the tolerance only absorbs intentional small
drifts (retuned constants) without letting real regressions through.
Regenerate a baseline with, e.g.:

    ./build/serving_throughput --json bench/baselines/serving_baseline.json
    ./build/headline_abstract --json bench/baselines/headline_baseline.json
    ./build/multimodel_serving --json bench/baselines/multimodel_baseline.json
    ./build/paged_serving --json bench/baselines/paging_baseline.json
    ./build/fleet_serving --json bench/baselines/fleet_baseline.json
    ./build/quant_serving --json bench/baselines/quant_baseline.json

Uses only the Python standard library.
"""

import argparse
import json
import sys

SERVING_V2_SCHEMA = "distmcu.serving.v2"
HEADLINE_SCHEMA = "distmcu.headline.v1"
MULTIMODEL_SCHEMA = "distmcu.multimodel.v1"
ANALYSIS_SCHEMA = "distmcu.analysis.v1"
PAGING_SCHEMA = "distmcu.paging.v1"
FLEET_SCHEMA = "distmcu.fleet.v1"
QUANT_SCHEMA = "distmcu.quant.v1"


def fail(errors, msg):
    errors.append(msg)


def require(errors, doc, key, ctx):
    """Fetch doc[key], failing the gate with a clear message when the
    baseline expects a key the candidate does not carry."""
    if not isinstance(doc, dict) or key not in doc:
        fail(errors, f"{ctx}: required key '{key}' missing from candidate "
                     f"JSON (present in baseline)")
        return None
    return doc[key]


def index_rows(errors, section, rows, key):
    out = {}
    for i, row in enumerate(rows):
        k = require(errors, row, key, f"{section}[{i}]")
        if k is not None:
            out[k] = row
    return out


def check_rows(errors, section, current, baseline, key, lower_is_better,
               higher_is_better, tol, pinned=()):
    """Field-wise drift bounds for baseline-keyed row lists. Fields in
    `pinned` must match the baseline exactly (deterministic counts)."""
    if current is None:
        return
    cur = index_rows(errors, f"current.{section}", current, key)
    base = index_rows(errors, f"baseline.{section}", baseline, key)
    missing = sorted(set(base) - set(cur))
    if missing:
        fail(errors, f"{section}: baseline rows missing from candidate: "
                     f"{missing}")
        return
    if set(cur) != set(base):
        fail(errors, f"{section}: row keys differ "
                     f"(current {sorted(cur)} vs baseline {sorted(base)})")
        return
    for k, brow in base.items():
        crow = cur[k]
        ctx = f"{section}[{key}={k}]"
        for field in higher_is_better:
            cval = require(errors, crow, field, ctx)
            if cval is None:
                continue
            if cval < brow[field] * (1.0 - tol):
                fail(errors,
                     f"{ctx}.{field}: {cval:.6g} fell more than {tol:.0%} "
                     f"below baseline {brow[field]:.6g}")
        for field in lower_is_better:
            cval = require(errors, crow, field, ctx)
            if cval is None:
                continue
            if cval > brow[field] * (1.0 + tol):
                fail(errors,
                     f"{ctx}.{field}: {cval:.6g} grew more than {tol:.0%} "
                     f"above baseline {brow[field]:.6g}")
        for field in pinned:
            cval = require(errors, crow, field, ctx)
            if cval is None:
                continue
            if cval != brow[field]:
                fail(errors, f"{ctx}.{field}: {cval!r} != baseline "
                             f"{brow[field]!r} on the deterministic workload")


def check_serving(errors, current, baseline, tol):
    check_rows(errors, "batch_sweep",
               require(errors, current, "batch_sweep", "current"),
               baseline["batch_sweep"], "batch",
               lower_is_better=("total_cycles", "mj_per_token"),
               higher_is_better=("tokens_per_s",), tol=tol)
    check_rows(errors, "chunk_sweep",
               require(errors, current, "chunk_sweep", "current"),
               baseline["chunk_sweep"], "chunk",
               lower_is_better=("total_cycles",),
               higher_is_better=("tokens_per_s",), tol=tol)
    slo = require(errors, current, "slo_policies", "current")
    check_rows(errors, "slo_policies", slo,
               baseline["slo_policies"], "policy",
               lower_is_better=("total_cycles", "queue_delay_p95"),
               higher_is_better=("tokens_per_s",), tol=tol)
    if slo is None:
        return ""

    policies = index_rows(errors, "current.slo_policies", slo, "policy")
    base_policies = index_rows(errors, "baseline.slo_policies",
                               baseline["slo_policies"], "policy")
    for name, brow in base_policies.items():
        row = policies.get(name)
        if row is None:
            continue  # already reported by check_rows
        misses = require(errors, row, "deadline_misses",
                         f"slo_policies[{name}]")
        if misses is not None and misses > brow["deadline_misses"]:
            fail(errors,
                 f"slo_policies[{name}]: deadline_misses rose "
                 f"{brow['deadline_misses']} -> {misses} on the "
                 f"deterministic workload")
    fifo, edf = policies.get("fifo"), policies.get("edf")
    if fifo is None or edf is None:
        fail(errors, "slo_policies: fifo/edf rows missing")
        return ""
    fifo_misses = require(errors, fifo, "deadline_misses",
                          "slo_policies[fifo]")
    edf_misses = require(errors, edf, "deadline_misses", "slo_policies[edf]")
    fifo_tok = require(errors, fifo, "tokens_per_s", "slo_policies[fifo]")
    edf_tok = require(errors, edf, "tokens_per_s", "slo_policies[edf]")
    if None in (fifo_misses, edf_misses, fifo_tok, edf_tok):
        return ""
    if edf_misses >= fifo_misses:
        fail(errors,
             f"invariant: EDF misses ({edf_misses}) not below "
             f"FIFO ({fifo_misses})")
    if edf_tok < fifo_tok * (1.0 - 1e-9):
        fail(errors,
             f"invariant: EDF throughput {edf_tok:.6g} below "
             f"FIFO {fifo_tok:.6g}")
    return f"EDF {edf_misses} vs FIFO {fifo_misses} misses"


def check_serving_v2(errors, current, baseline, tol):
    """The sweep and SLO tables plus the overload section: pinned
    admission-control counters per engine config and the preemption
    miss-cut invariants."""
    slo_summary = check_serving(errors, current, baseline, tol)
    overload = require(errors, current, "overload", "current")
    check_rows(errors, "overload", overload, baseline["overload"], "config",
               lower_is_better=("total_cycles", "preemption_cycles"),
               higher_is_better=("tokens_per_s",), tol=tol,
               pinned=("offered", "accepted", "completed", "deadline_misses",
                       "rejected_queue_full", "rejected_hopeless", "shed",
                       "preemptions", "resumes", "queue_depth_peak"))
    if overload is None:
        return slo_summary
    rows = index_rows(errors, "current.overload", overload, "config")
    plain = rows.get("edf")
    pre = rows.get("edf+preempt")
    full = rows.get("edf+preempt+failfast+shed")
    if plain is None or pre is None or full is None:
        fail(errors, "overload: expected configs edf / edf+preempt / "
                     "edf+preempt+failfast+shed")
        return slo_summary
    vals = {}
    for name, row in (("edf", plain), ("pre", pre), ("full", full)):
        for field in ("deadline_misses", "preemptions", "shed",
                      "rejected_hopeless"):
            vals[(name, field)] = require(errors, row, field,
                                          f"overload[{name}]")
    if None in vals.values():
        return slo_summary
    if vals[("pre", "deadline_misses")] >= vals[("edf", "deadline_misses")]:
        fail(errors,
             f"invariant: preemption misses "
             f"({vals[('pre', 'deadline_misses')]}) not below the "
             f"non-preemptive engine ({vals[('edf', 'deadline_misses')]}) "
             f"at identical offered load")
    if vals[("full", "deadline_misses")] > vals[("pre", "deadline_misses")]:
        fail(errors,
             f"invariant: full overload stack misses "
             f"({vals[('full', 'deadline_misses')]}) above preemption-only "
             f"({vals[('pre', 'deadline_misses')]})")
    for name in ("pre", "full"):
        if vals[(name, "preemptions")] < 1:
            fail(errors, f"invariant: overload[{name}] never preempted on "
                         f"the overloaded workload")
    if vals[("full", "shed")] < 1:
        fail(errors, "invariant: fair shedding never shed under overload")
    if vals[("full", "rejected_hopeless")] < 1:
        fail(errors, "invariant: fail-fast never rejected a hopeless "
                     "deadline under overload")
    overload_summary = (f"overload misses {vals[('edf', 'deadline_misses')]}"
                        f" -> {vals[('pre', 'deadline_misses')]}"
                        f" -> {vals[('full', 'deadline_misses')]}")
    return (f"{slo_summary}; {overload_summary}" if slo_summary
            else overload_summary)


def check_headline(errors, current, baseline, tol):
    metrics = require(errors, current, "metrics", "current")
    if metrics is None:
        return ""
    cur = index_rows(errors, "current.metrics", metrics, "metric")
    base = index_rows(errors, "baseline.metrics", baseline["metrics"],
                      "metric")
    missing = sorted(set(base) - set(cur))
    if missing:
        fail(errors, f"metrics: baseline metrics missing from candidate: "
                     f"{missing}")
        return ""
    passing = 0
    for name, brow in base.items():
        crow = cur[name]
        ctx = f"metrics[{name}]"
        measured = require(errors, crow, "measured", ctx)
        band = require(errors, crow, "band_pass", ctx)
        if measured is not None:
            lo = brow["measured"] - abs(brow["measured"]) * tol
            hi = brow["measured"] + abs(brow["measured"]) * tol
            if not (lo <= measured <= hi):
                fail(errors,
                     f"{ctx}.measured: {measured:.6g} drifted more than "
                     f"{tol:.0%} from baseline {brow['measured']:.6g}")
        if band is not None:
            if brow["band_pass"] and not band:
                fail(errors, f"{ctx}: band_pass regressed true -> false")
            passing += bool(band)
    all_pass = require(errors, current, "all_bands_pass", "current")
    if all_pass is not None and baseline.get("all_bands_pass") and not all_pass:
        fail(errors, "all_bands_pass regressed true -> false")
    return f"{passing}/{len(base)} bands pass"


def check_multimodel(errors, current, baseline, tol):
    mixed = require(errors, current, "mixed", "current")
    check_rows(errors, "mixed", mixed, baseline["mixed"], "policy",
               lower_is_better=("total_cycles",),
               higher_is_better=("requests_per_s", "tokens_per_s"), tol=tol,
               pinned=("kv_cross_leak_slots",))
    if mixed is not None:
        for row in mixed:
            name = row.get("policy", "?")
            ctx = f"mixed[{name}]"
            leak = require(errors, row, "kv_cross_leak_slots", ctx)
            if leak not in (None, 0):
                fail(errors, f"{ctx}: kv_cross_leak_slots = {leak} "
                             f"(cross-model KV leakage)")
            per_model = require(errors, row, "per_model", ctx)
            base_row = next((b for b in baseline["mixed"]
                             if b.get("policy") == name), None)
            if per_model is None or base_row is None:
                continue
            check_rows(errors, f"{ctx}.per_model", per_model,
                       base_row["per_model"], "model",
                       lower_is_better=("attributed_cycles",),
                       higher_is_better=(), tol=tol,
                       pinned=("completed", "generated"))
    check_rows(errors, "isolated",
               require(errors, current, "isolated", "current"),
               baseline["isolated"], "llama_slots",
               lower_is_better=("total_cycles",),
               higher_is_better=("requests_per_s",), tol=tol)
    check_rows(errors, "budget_policies",
               require(errors, current, "budget_policies", "current"),
               baseline["budget_policies"], "policy",
               lower_is_better=("total_cycles",),
               higher_is_better=("requests_per_s",), tol=tol)
    speedup = require(errors, current, "speedup_vs_best_isolated", "current")
    if speedup is not None and speedup < 1.0 - 1e-9:
        fail(errors,
             f"invariant: mixed serving ({speedup:.4f}x) fell below the "
             f"best isolated single-model split at equal total KV slots")
    if speedup is None:
        return ""
    return f"mixed {speedup:.3f}x vs best isolated split"


def check_analysis(errors, current, baseline, tol):
    """Static-analyzer report gate: diagnostics are deterministic, so
    everything is pinned — no drift tolerance applies."""
    del tol  # no tolerance-bounded fields in an analysis report
    configs = require(errors, current, "configs", "current")
    check_rows(errors, "configs", configs, baseline["configs"], "config",
               lower_is_better=(), higher_is_better=(),
               tol=0.0, pinned=("errors", "warnings", "ok"))
    if configs is not None:
        cur = index_rows(errors, "current.configs", configs, "config")
        base = index_rows(errors, "baseline.configs", baseline["configs"],
                          "config")
        for name, brow in base.items():
            crow = cur.get(name)
            if crow is None:
                continue  # already reported by check_rows
            codes = require(errors, crow, "codes", f"configs[{name}]")
            if codes is not None and sorted(codes) != sorted(brow["codes"]):
                fail(errors,
                     f"configs[{name}].codes: {sorted(codes)} != baseline "
                     f"{sorted(brow['codes'])} (diagnostic set changed)")
    total = require(errors, current, "total_errors", "current")
    all_ok = require(errors, current, "all_ok", "current")
    if total not in (None, 0):
        fail(errors, f"total_errors = {total}: a shipped config carries "
                     f"error-severity diagnostics")
    if all_ok is False:
        fail(errors, "all_ok regressed to false")
    n = len(baseline["configs"])
    warns = current.get("total_warnings", "?")
    return f"{n} configs clean, {warns} warning(s)"


def check_paging(errors, current, baseline, tol):
    """Paged-KV serving gate: concurrency/correctness counters are
    deterministic and pinned; cycle/throughput fields drift-bounded."""
    configs = require(errors, current, "configs", "current")
    check_rows(errors, "configs", configs, baseline["configs"], "config",
               lower_is_better=("total_cycles",),
               higher_is_better=("tokens_per_s",), tol=tol,
               pinned=("kv_units", "peak_batch", "completed", "bit_exact",
                       "pages_leaked", "prefix_hits", "cow_forks"))
    if configs is None:
        return ""
    rows = index_rows(errors, "current.configs", configs, "config")
    slot = rows.get("slot")
    paged = rows.get("paged")
    shared = rows.get("paged+prefix")
    if slot is None or paged is None or shared is None:
        fail(errors, "configs: expected configs slot / paged / paged+prefix")
        return ""
    vals = {}
    for name, row in (("slot", slot), ("paged", paged), ("shared", shared)):
        for field in ("peak_batch", "bit_exact", "pages_leaked",
                      "total_cycles", "prefix_hits"):
            vals[(name, field)] = require(errors, row, field,
                                          f"configs[{name}]")
    if None in vals.values():
        return ""
    for name in ("slot", "paged", "shared"):
        if vals[(name, "bit_exact")] is not True:
            fail(errors, f"invariant: configs[{name}] streams diverged from "
                         f"the dedicated single-request engine")
        if vals[(name, "pages_leaked")] != 0:
            fail(errors, f"invariant: configs[{name}] leaked "
                         f"{vals[(name, 'pages_leaked')]} KV unit(s)")
    if vals[("paged", "peak_batch")] <= vals[("slot", "peak_batch")]:
        fail(errors,
             f"invariant: paged peak batch ({vals[('paged', 'peak_batch')]}) "
             f"not above the slot engine ({vals[('slot', 'peak_batch')]}) "
             f"at equal KV bytes")
    if vals[("shared", "prefix_hits")] < 1:
        fail(errors, "invariant: prefix sharing never hit on the "
                     "repeated-prompt workload")
    if vals[("shared", "total_cycles")] >= vals[("paged", "total_cycles")]:
        fail(errors,
             f"invariant: prefix sharing saved no cycles "
             f"({vals[('shared', 'total_cycles')]} vs cold "
             f"{vals[('paged', 'total_cycles')]})")
    return (f"paged admits {vals[('paged', 'peak_batch')]} vs slot "
            f"{vals[('slot', 'peak_batch')]}, "
            f"{vals[('shared', 'prefix_hits')]} prefix hits")


def check_fleet(errors, current, baseline, tol):
    """Fleet-router gate: request-conservation counters are deterministic
    and pinned (and re-derived here, so a tampered baseline cannot hide a
    leak); cycle/transfer fields drift-bounded; plus the cross-policy
    invariants that routing intelligence pays for itself."""
    policies = require(errors, current, "policies", "current")
    check_rows(errors, "policies", policies, baseline["policies"], "policy",
               lower_is_better=("makespan_cycles", "request_transfer_cycles",
                               "response_transfer_cycles"),
               higher_is_better=(), tol=tol,
               pinned=("offered", "placed", "rejected", "routed", "misrouted",
                       "completed", "shed", "slo_requests", "deadline_misses",
                       "transfer_bytes", "prefix_hits", "prefix_shared_tokens",
                       "bit_exact", "conservation_ok"))
    if policies is None:
        return ""
    rows = index_rows(errors, "current.policies", policies, "policy")
    base_rows = index_rows(errors, "baseline.policies", baseline["policies"],
                           "policy")
    for name, row in rows.items():
        ctx = f"policies[{name}]"
        vals = {f: require(errors, row, f, ctx)
                for f in ("offered", "placed", "rejected", "routed",
                          "misrouted", "completed", "shed", "bit_exact",
                          "conservation_ok", "per_node")}
        if None in vals.values():
            continue
        if vals["offered"] != vals["placed"] + vals["rejected"]:
            fail(errors, f"{ctx}: offered ({vals['offered']}) != placed "
                         f"({vals['placed']}) + rejected ({vals['rejected']})")
        if vals["routed"] != vals["placed"] + vals["misrouted"]:
            fail(errors, f"{ctx}: routed ({vals['routed']}) != placed "
                         f"({vals['placed']}) + misrouted "
                         f"({vals['misrouted']})")
        if vals["placed"] != vals["completed"] + vals["shed"]:
            fail(errors, f"{ctx}: placed ({vals['placed']}) != completed "
                         f"({vals['completed']}) + shed ({vals['shed']})")
        if vals["bit_exact"] is not True:
            fail(errors, f"{ctx}: routed streams diverged from the "
                         f"dedicated single-node engine")
        if vals["conservation_ok"] is not True:
            fail(errors, f"{ctx}: in-bench conservation audit failed")
        brow = base_rows.get(name)
        if brow is not None:
            check_rows(errors, f"{ctx}.per_node", vals["per_node"],
                       brow["per_node"], "name",
                       lower_is_better=("total_cycles",),
                       higher_is_better=(), tol=tol,
                       pinned=("attempts", "placed", "completed", "rejected",
                               "link_rejected"))
    rr = rows.get("round_robin")
    cost = rows.get("cost_aware")
    prefix = rows.get("prefix_affinity")
    if rr is None or cost is None or prefix is None:
        fail(errors, "policies: expected round_robin / cost_aware / "
                     "prefix_affinity rows")
        return ""
    vals = {}
    for name, row in (("rr", rr), ("cost", cost), ("prefix", prefix)):
        for field in ("deadline_misses", "prefix_hits", "offered"):
            vals[(name, field)] = require(errors, row, field,
                                          f"policies[{name}]")
    if None in vals.values():
        return ""
    if len({vals[(n, "offered")] for n in ("rr", "cost", "prefix")}) != 1:
        fail(errors, "invariant: policies compared at different offered load")
    best = min(vals[("cost", "deadline_misses")],
               vals[("prefix", "deadline_misses")])
    if best >= vals[("rr", "deadline_misses")]:
        fail(errors,
             f"invariant: neither cost-aware "
             f"({vals[('cost', 'deadline_misses')]}) nor prefix-affinity "
             f"({vals[('prefix', 'deadline_misses')]}) routing beats "
             f"round-robin ({vals[('rr', 'deadline_misses')]}) on deadline "
             f"misses at identical offered load")
    if vals[("prefix", "prefix_hits")] <= vals[("rr", "prefix_hits")]:
        fail(errors,
             f"invariant: prefix-affinity hits "
             f"({vals[('prefix', 'prefix_hits')]}) not above round-robin "
             f"({vals[('rr', 'prefix_hits')]})")
    return (f"misses rr {vals[('rr', 'deadline_misses')]} vs cost "
            f"{vals[('cost', 'deadline_misses')]} vs prefix "
            f"{vals[('prefix', 'deadline_misses')]}")


def check_quant(errors, current, baseline, tol):
    """Quantized-serving gate: capacity/correctness counters are
    deterministic and pinned; cycle/throughput fields drift-bounded; plus
    the cross-config invariants the precision envelope promises."""
    configs = require(errors, current, "configs", "current")
    check_rows(errors, "configs", configs, baseline["configs"], "config",
               lower_is_better=("total_cycles", "mj_per_token"),
               higher_is_better=("tokens_per_s",), tol=tol,
               pinned=("precision", "kv_layout", "kv_elem_bits", "kv_units",
                       "peak_batch", "completed", "bit_exact",
                       "units_leaked"))
    if configs is None:
        return ""
    rows = index_rows(errors, "current.configs", configs, "config")
    fp16 = rows.get("fp16")
    int8 = rows.get("int8")
    int4 = rows.get("int8+kv4")
    if fp16 is None or int8 is None or int4 is None:
        fail(errors, "configs: expected configs fp16 / int8 / int8+kv4")
        return ""
    vals = {}
    for name, row in (("fp16", fp16), ("int8", int8), ("int4", int4)):
        for field in ("peak_batch", "bit_exact", "units_leaked",
                      "mj_per_token"):
            vals[(name, field)] = require(errors, row, field,
                                          f"configs[{name}]")
    for field in ("chip_invariant", "reduction_invariant"):
        vals[(field,)] = require(errors, current, field, "current")
    mixed = require(errors, current, "mixed", "current")
    if mixed is not None:
        for field in ("conserved", "units_leaked", "completed"):
            vals[("mixed", field)] = require(errors, mixed, field, "mixed")
    if None in vals.values() or mixed is None:
        return ""
    for name in ("fp16", "int8", "int4"):
        if vals[(name, "bit_exact")] is not True:
            fail(errors, f"invariant: configs[{name}] streams diverged from "
                         f"the dedicated single-request engine")
        if vals[(name, "units_leaked")] != 0:
            fail(errors, f"invariant: configs[{name}] leaked "
                         f"{vals[(name, 'units_leaked')]} KV unit(s)")
    # Re-derive the capacity gains instead of trusting the reported
    # ratios; a tampered baseline cannot hide a shrunken envelope.
    if vals[("int8", "peak_batch")] < 2 * vals[("fp16", "peak_batch")]:
        fail(errors,
             f"invariant: int8 peak batch ({vals[('int8', 'peak_batch')]}) "
             f"below 2x the fp16 engine ({vals[('fp16', 'peak_batch')]}) "
             f"at equal KV bytes")
    if vals[("int4", "peak_batch")] < 4 * vals[("fp16", "peak_batch")]:
        fail(errors,
             f"invariant: int4 peak batch ({vals[('int4', 'peak_batch')]}) "
             f"below 4x the fp16 engine ({vals[('fp16', 'peak_batch')]}) "
             f"at equal KV bytes")
    if vals[("int8", "mj_per_token")] >= vals[("fp16", "mj_per_token")]:
        fail(errors,
             f"invariant: int8 energy/token "
             f"({vals[('int8', 'mj_per_token')]}) not below fp16 "
             f"({vals[('fp16', 'mj_per_token')]})")
    if vals[("chip_invariant",)] is not True:
        fail(errors, "invariant: int8 token streams changed with the chip "
                     "count (int32 all-reduce no longer exact)")
    if vals[("reduction_invariant",)] is not True:
        fail(errors, "invariant: int8 token streams changed with the "
                     "reduction tree shape")
    if vals[("mixed", "conserved")] is not True:
        fail(errors, "invariant: mixed fp16+int8 registry broke per-model "
                     "attribution conservation")
    if vals[("mixed", "units_leaked")] != 0:
        fail(errors, f"invariant: mixed registry leaked "
                     f"{vals[('mixed', 'units_leaked')]} KV unit(s)")
    return (f"int8 admits {vals[('int8', 'peak_batch')]} and int4 "
            f"{vals[('int4', 'peak_batch')]} vs fp16 "
            f"{vals[('fp16', 'peak_batch')]} at equal KV bytes")


HANDLERS = {
    SERVING_V2_SCHEMA: check_serving_v2,
    HEADLINE_SCHEMA: check_headline,
    MULTIMODEL_SCHEMA: check_multimodel,
    ANALYSIS_SCHEMA: check_analysis,
    PAGING_SCHEMA: check_paging,
    FLEET_SCHEMA: check_fleet,
    QUANT_SCHEMA: check_quant,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="BENCH_*.json from this build")
    ap.add_argument("baseline", help="checked-in bench/baselines/*.json")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="relative drift allowed on cycle/throughput fields "
                         "(default 0.05)")
    args = ap.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    errors = []
    schema = baseline.get("schema")
    handler = HANDLERS.get(schema)
    if handler is None:
        fail(errors, f"baseline: unknown schema {schema!r} "
                     f"(expected one of {sorted(HANDLERS)})")
    if current.get("schema") != schema:
        fail(errors, f"current: schema {current.get('schema')!r} != "
                     f"baseline {schema!r}")
    summary = ""
    if not errors:
        summary = handler(errors, current, baseline, args.tolerance)

    if errors:
        print("PERF REGRESSION GATE FAILED:")
        print("\n".join(f"  - {e}" for e in errors))
        return 1
    print(f"perf gate OK [{schema}]: {args.current} within "
          f"{args.tolerance:.0%} of {args.baseline}"
          + (f" ({summary})" if summary else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
