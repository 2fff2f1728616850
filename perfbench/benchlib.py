"""Pure logic of the UPEC-SSC benchmark: workload table, output checks,
trace aggregation and metric assembly. run.py does the process handling;
everything here works on plain data so the tests can drive it directly.
"""

import hashlib
import json
import statistics

# Each workload: how perfbench_driver runs it, and the result every run must
# reproduce. The digest covers persistent_hits, full_cex and final_s (see
# outcome_digest); waveform presence is checked, its contents are not.
WORKLOADS = {
    "alg1-detect-pub4-priv2-t1": {
        "driver_args": ["--alg", "1", "--pub-words", "4", "--priv-words", "2",
                        "--threads", "1"],
        "threads": 1,
        "expect": {"verdict": "vulnerable", "final_k": 1, "waveform": True,
                   "digest": "0c38990b255ffb2f"},
    },
    "alg2-secure-pub2-priv2-t2": {
        "driver_args": ["--alg", "2", "--pub-words", "2", "--priv-words", "2",
                        "--threads", "2", "--countermeasure"],
        "threads": 2,
        "expect": {"verdict": "secure", "final_k": 3, "waveform": False,
                   "digest": "3ed59229e7fb2818"},
    },
}

# Solver work counters that must repeat exactly at threads=1.
SAT_COUNTERS = ("conflicts", "propagations", "decisions", "solve_calls", "restarts")

PER_LAYER_UNITS = {
    "soc.build_s": "s",
    "upec.context_s": "s",
    "upec.report_s": "s",
    "upec.waveform_s": "s",
    "upec.waveform_share": "ratio",
    "upec.iterations": "count",
    "upec.final_k": "count",
    "upec.pruned_candidates": "count",
    "encode.store_clauses": "count",
    "encode.register_candidates_s": "s",
    "encode.touch_probes_s": "s",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.decisions": "count",
    "sat.solve_calls": "count",
    "sat.restarts": "count",
    "sat.props_per_cpu_s": "1/s",
    "sat.solve_main_s": "s",
    "sat.solve_main_count": "count",
    "sat.solve_main_share": "ratio",
    "sat.solve_inproc_s": "s",
    "sat.solve_inproc_count": "count",
    "sat.solve_inproc_max_s": "s",
    "sat.sync_s": "s",
    "sat.simplify_s": "s",
    "sat.simplify.eliminated_vars": "count",
    "sat.simplify.output_clauses": "count",
    "sat.channel.exported": "count",
    "sat.channel.imported": "count",
    "ipc.sweep_self_s": "s",
    "ipc.worker_busy_share": "ratio",
    "util.trace_overhead": "ratio",
}

def outcome_digest(persistent_hits, full_cex, final_s):
    """Order-insensitive digest of a verification's state-variable sets."""
    canon = json.dumps({"persistent_hits": sorted(persistent_hits),
                        "full_cex": sorted(full_cex),
                        "final_s": sorted(final_s)},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def outcome(record):
    """What one driver verification record says the engine answered."""
    report = json.loads(record["json_report"])
    final_k = report.get("final_k", 1)  # Alg. 1 checks the k=1 window
    return {
        "verdict": report["verdict"],
        "timed_out": report["timed_out"],
        "final_k": final_k,
        "waveform": report["waveform"],
        "digest": outcome_digest(report["persistent_hits"], report["full_cex"],
                                 record["final_s"]),
        "text_verdict": "verdict: " + report["verdict"] in record["text_report"],
    }


def check_outcome(record, expect):
    """Problems of one verification against the workload's expected result;
    an empty list means the run is correct."""
    try:
        got = outcome(record)
    except (KeyError, ValueError) as exc:
        return ["unreadable report: %r" % (exc,)]
    problems = []
    if got["verdict"] == "unknown":
        problems.append("verdict is unknown")
    if got["timed_out"]:
        problems.append("run timed out")
    for key in ("verdict", "final_k", "waveform", "digest"):
        if got[key] != expect[key]:
            problems.append("%s: expected %r, got %r" % (key, expect[key], got[key]))
    if not got["text_verdict"]:
        problems.append("text report lacks the verdict line")
    return problems


def sat_counters(record):
    metrics = json.loads(record["json_report"])["metrics"]
    return tuple(metrics.get("sat.solver.total." + k, 0) for k in SAT_COUNTERS)


def span_events(trace_doc):
    """Complete ("X") events of a Chrome trace document as
    (name, tid, ts_us, dur_us) tuples."""
    return [(e["name"], e["tid"], e["ts"], e["dur"])
            for e in trace_doc["traceEvents"] if e.get("ph") == "X"]


def aggregate_spans(events):
    """Count, total, self and max microseconds per span name. A span's self
    time is its duration minus what its direct children on the same thread
    cover; spans on other threads never count as children."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev[1], []).append(ev)
    agg = {}
    for spans in by_tid.values():
        # Parents before children: earlier start first, longer first on ties.
        spans.sort(key=lambda e: (e[2], -e[3]))
        stack = []  # open spans as [name, end_us, self_us]
        for name, _tid, ts, dur in spans:
            end = ts + dur
            while stack and stack[-1][1] <= ts:
                closed = stack.pop()
                agg[closed[0]]["self_us"] += closed[2]
            if stack:
                stack[-1][2] -= min(end, stack[-1][1]) - ts
            a = agg.setdefault(name, {"count": 0, "total_us": 0, "self_us": 0, "max_us": 0})
            a["count"] += 1
            a["total_us"] += dur
            a["max_us"] = max(a["max_us"], dur)
            stack.append([name, end, dur])
        for name, _end, self_us in stack:
            agg[name]["self_us"] += self_us
    return agg


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(setups, verifies):
    """End-to-end metrics from untraced driver records, each the only step of
    its own driver process: `setups` holds every record whose setup counts,
    `verifies` the verification records."""
    return {
        "verify_s": metric(statistics.median(r["verify_s"] for r in verifies), "s"),
        "verify_cpu_s": metric(statistics.median(r["verify_cpu_s"] for r in verifies), "s"),
        "setup_s": metric(statistics.median(r["build_s"] + r["context_s"] for r in setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in verifies), "MB"),
    }


def per_layer_metrics(traced, untraced, threads):
    """Per-layer metrics, low medians (always a measured sample) over the
    traced records. Times inside the
    engine come from each record's aggregated `spans`; the driver's own
    timings of its calls come from the record. The BCP rate and the tracing
    overhead also use the untraced records of the same run."""
    def med(fn, records=traced):
        return statistics.median_low(fn(r) for r in records)

    def span(name, field="total_us"):
        return lambda r: r["spans"].get(name, {}).get(field, 0) / 1e6

    def count(name):
        return lambda r: r["spans"].get(name, {}).get("count", 0)

    def counter(name):
        return lambda r: json.loads(r["json_report"])["metrics"].get(name, 0)

    def iterations(r):
        report = json.loads(r["json_report"])
        induction = report.get("induction") or {}
        return len(report["iterations"]) + induction.get("iterations", 0)

    def busy_share(r):
        sweep = span("scheduler.sweep")(r)
        return span("solve.inproc")(r) / (threads * sweep) if sweep > 0 else 0.0

    def props_per_cpu(r):
        return counter("sat.solver.total.propagations")(r) / r["verify_cpu_s"]

    verify_traced = med(lambda r: r["verify_s"])
    values = {
        "soc.build_s": med(lambda r: r["build_s"]),
        "upec.context_s": med(lambda r: r["context_s"]),
        "upec.report_s": med(lambda r: r["report_s"] + r["json_s"]),
        "upec.waveform_s": med(span("upec.waveform")),
        "upec.waveform_share": med(span("upec.waveform")) / verify_traced,
        "upec.iterations": med(iterations),
        "upec.final_k": med(lambda r: outcome(r)["final_k"]),
        "upec.pruned_candidates": med(counter("upec.sweep.pruned_candidates")),
        "encode.store_clauses": med(lambda r: r["store_clauses"]),
        "encode.register_candidates_s": med(span("encode.register_candidates")),
        "encode.touch_probes_s": med(span("encode.touch_probes")),
        "sat.props_per_cpu_s": med(props_per_cpu, untraced),
        "sat.solve_main_s": med(span("solve.main")),
        "sat.solve_main_count": med(count("solve.main")),
        "sat.solve_main_share": med(span("solve.main")) / verify_traced,
        "sat.solve_inproc_s": med(span("solve.inproc")),
        "sat.solve_inproc_count": med(count("solve.inproc")),
        "sat.solve_inproc_max_s": med(span("solve.inproc", "max_us")),
        "sat.sync_s": med(span("sync.inproc")),
        "sat.simplify_s": med(span("simplify.run")),
        "sat.simplify.eliminated_vars": med(counter("sat.simplify.eliminated_vars")),
        "sat.simplify.output_clauses": med(counter("sat.simplify.output_clauses")),
        "sat.channel.exported": med(counter("sat.channel.exported")),
        "sat.channel.imported": med(counter("sat.channel.imported")),
        "ipc.sweep_self_s": med(span("scheduler.sweep", "self_us")),
        "ipc.worker_busy_share": med(busy_share),
        "util.trace_overhead": verify_traced / med(lambda r: r["verify_s"], untraced) - 1.0,
    }
    for k in SAT_COUNTERS:
        values["sat." + k] = med(counter("sat.solver.total." + k))
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
