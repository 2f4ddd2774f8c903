"""Arithmetic of the perfbench benchmark: percentiles, span self time,
and the per-pass / per-run aggregation that turns driver output into
the end-to-end and per-layer metrics.  No I/O except reading a Chrome
trace file; run.py does the launching and printing."""

import json
import math
import statistics

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

# Optimizer phases, as the flight recorder names their spans.
OPT_PHASES = ("local", "licm", "reassociate", "home_promotion", "strength",
              "regalloc", "sched")
FRONTEND_PHASES = ("frontend.parse", "frontend.unroll", "frontend.lower")


def nearest_rank(samples, pct):
    """(value, samples beyond it) of the nearest-rank percentile."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, pct):
    """The pct-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (too few to say anything about the tail)."""
    value, beyond = nearest_rank(samples, pct)
    return value if beyond >= MIN_BEYOND else None


def self_times(events):
    """Self time per complete ("X") event: its duration minus the part
    its child spans on the same thread cover.  Children are the spans
    nested inside it; on one thread they nest and never straddle, so the
    direct children are disjoint and their (clipped) durations add up.

    Returns [(event, self_us, scope)] in input order, where scope is the
    name of the innermost enclosing-or-own span named "perfbench.*" (an
    op or a probe), or None outside them."""
    by_tid = {}
    for index, e in enumerate(events):
        if e.get("ph") == "X":
            by_tid.setdefault((e.get("pid"), e.get("tid")), []).append(index)
    child_us = [0.0] * len(events)
    scope = [None] * len(events)
    for indices in by_tid.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []  # (index, end)
        for i in indices:
            start = events[i]["ts"]
            end = start + events[i]["dur"]
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack:
                parent, parent_end = stack[-1]
                child_us[parent] += max(0.0, min(end, parent_end) - start)
                scope[i] = scope[parent]
            if events[i]["name"].startswith("perfbench."):
                scope[i] = events[i]["name"]
            stack.append((i, end))
    return [(e, max(0.0, e["dur"] - child_us[i]), scope[i])
            for i, e in enumerate(events) if e.get("ph") == "X"]


def span_totals(events, scope="perfbench.op"):
    """name -> {"count", "self_us", "total_us"} over the complete
    events inside `scope` (the op spans, leaving out the probes)."""
    totals = {}
    for e, self_us, where in self_times(events):
        if where != scope:
            continue
        t = totals.setdefault(e["name"],
                              {"count": 0, "self_us": 0.0, "total_us": 0.0})
        t["count"] += 1
        t["self_us"] += self_us
        t["total_us"] += e["dur"]
    return totals


def load_trace_events(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["traceEvents"]


def summarize_pass(p):
    """Per-pass numbers from one driver JSON object."""
    ms = [op["ms"] for op in p["ops"]]
    out = {
        "wall_s": p["wall_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "setup_s": p["setup_s"],
        "ops": len(ms),
        "failed": p["failed"],
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": tail_percentile(ms, 90),
        "op_ms_max": max(ms),
        "utilization": sum(ms) / (p["jobs"] * p["wall_s"] * 1000.0),
    }
    if "instructions" in p:
        out["sim_minstr_per_s"] = p["instructions"] / p["wall_s"] / 1e6
    return out


def median_of(summaries, key):
    values = [s[key] for s in summaries if s.get(key) is not None]
    return statistics.median(values) if values else None


def per_layer(plain, traced, traces):
    """The per-layer metrics a traced run measured.

    plain/traced: driver JSON of the untraced and traced passes;
    traces: the op-scoped span totals of each traced pass.  Layers the
    workload does not exercise are left out; run.py reports them as 0.
    """
    m = {}
    # bench: artifact wall time, timed from outside the child.
    times = {}
    for p in plain:
        if p["workload"] == "paper_regen":
            for op in p["ops"]:
                times.setdefault(op["id"], []).append(op["ms"] / 1000.0)
    for name, values in times.items():
        m["bench.%s.s" % name] = statistics.median(values)

    # frontend / opt: span self time per compile, summed over passes.
    compiles = sum(t.get("frontend.parse", {}).get("count", 0)
                   for t in traces)
    if compiles:
        def per_compile(names):
            us = sum(t.get(n, {}).get("self_us", 0.0) for t in traces
                     for n in names)
            return us / 1000.0 / compiles

        m["frontend.ms"] = per_compile(FRONTEND_PHASES)
        for name in FRONTEND_PHASES:
            m[name + ".ms"] = per_compile([name])
        m["opt.ms"] = per_compile(OPT_PHASES)
        for name in OPT_PHASES:
            m["opt.%s.ms" % name] = per_compile([name])

    # sim: the probe calls made beside every taxonomy cell.
    probes = [p["probe"] for p in traced if "probe" in p]
    if probes:
        instr = sum(pr["instructions"] for pr in probes)
        exec_ms = sum(pr["exec_ms"] for pr in probes)
        timed_ms = sum(pr["timed_ms"] for pr in probes)
        m["sim.exec.lower_ms"] = (sum(pr["lower_ms"] for pr in probes) /
                                  sum(pr["cells"] for pr in probes))
        m["sim.exec.ns_per_instr"] = exec_ms * 1e6 / instr
        m["sim.issue.ns_per_instr"] = (timed_ms - exec_ms) * 1e6 / instr
        # Simulated counts are deterministic (simulated_counts_agree
        # checks it), so the first pass's stand for all.
        first = probes[0]
        m["sim.issue.instructions"] = first["instructions"]
        m["sim.issue.base_cycles"] = first["base_cycles"]
        m["sim.issue.lost_slots"] = first["lost_slots"]
        for cause, slots in first["stalls"].items():
            m["sim.issue.stall." + cause] = slots

    # study: what Study::timedRun spends outside compile and simulation.
    lookups = sum(p.get("trace_cache_lookups", 0) for p in plain)
    if lookups:
        op = [t["perfbench.op"] for t in traces if "perfbench.op" in t]
        if op:
            m["study.self_ms"] = (sum(t["self_us"] for t in op) / 1000.0 /
                                  sum(t["count"] for t in op))
        m["study.trace_hit_ratio"] = (
            sum(p["trace_cache_hits"] for p in plain) / lookups)

    # study.sweep and tracing overhead: the in-process closed loop.
    if traced:
        plain_sum = [summarize_pass(p) for p in plain]
        m["study.sweep.utilization"] = median_of(plain_sum, "utilization")
        m["study.sweep.op_ms_max"] = median_of(plain_sum, "op_ms_max")
        m["support.trace.overhead_ratio"] = (
            median_of([summarize_pass(p) for p in traced], "op_ms_p50") /
            median_of(plain_sum, "op_ms_p50"))
    return m


def simulated_counts_agree(traced):
    """True when every traced pass reports identical simulated counts."""
    keys = ("instructions", "base_cycles", "lost_slots", "stalls")
    probes = [tuple(json.dumps(p["probe"][k], sort_keys=True) for k in keys)
              for p in traced if "probe" in p]
    return len(set(probes)) <= 1
