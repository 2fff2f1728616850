"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def report(verdict="vulnerable", timed_out=False, waveform=True, hits=("a",),
           cex=("a", "b"), counters=(10, 200, 30, 4, 5), **extra):
    metrics = {"sat.solver.total." + k: v for k, v in zip(benchlib.SAT_COUNTERS, counters)}
    metrics.update({"upec.sweep.pruned_candidates": 3, "sat.simplify.eliminated_vars": 0,
                    "sat.simplify.output_clauses": 0, "sat.channel.exported": 0,
                    "sat.channel.imported": 0})
    doc = {"verdict": verdict, "timed_out": timed_out, "waveform": waveform,
           "persistent_hits": list(hits), "full_cex": list(cex),
           "iterations": [{}, {}], "metrics": metrics}
    doc.update(extra)
    return json.dumps(doc)


def record(verdict="vulnerable", final_s=("a", "b", "c"), verify_s=2.0, **kwargs):
    return {"build_s": 1e-4, "context_s": 2e-5, "verify_s": verify_s,
            "verify_cpu_s": verify_s, "report_s": 1e-4,
            "json_s": 1e-5, "store_clauses": 1234, "peak_rss_mb": 20.5,
            "final_s": list(final_s), "text_report": "verdict: %s  (total 1 s)\n" % verdict,
            "json_report": report(verdict=verdict, **kwargs)}


ONE_THREAD = "alg1-detect-pub4-priv2-t1"
TWO_THREADS = "alg2-secure-pub2-priv2-t2"


def parse_result_line(line):
    """Parses and validates the benchmark's last output line."""
    doc = json.loads(line)
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %r" % (sorted(doc),))
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError("%s is not a count" % key)
    if doc["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, entry in doc["metrics"].items():
        if sorted(entry) != ["unit", "value"] or not isinstance(entry["value"], (int, float)):
            raise ValueError("metric %s malformed" % name)
    return doc


def expectation(rec):
    got = benchlib.outcome(rec)
    return {k: got[k] for k in ("verdict", "final_k", "waveform", "digest")}


class SpanAggregation(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        events = [
            ("A", 1, 0, 100),
            ("B", 1, 10, 30),
            ("C", 1, 15, 10),
            ("D", 1, 50, 40),
            ("B", 1, 95, 5),
            ("E", 2, 20, 60),  # another thread: never a child of A
        ]
        agg = benchlib.aggregate_spans(events)
        self.assertEqual(agg["A"], {"count": 1, "total_us": 100, "self_us": 25, "max_us": 100})
        self.assertEqual(agg["B"], {"count": 2, "total_us": 35, "self_us": 25, "max_us": 30})
        self.assertEqual(agg["C"]["self_us"], 10)
        self.assertEqual(agg["D"]["self_us"], 40)
        self.assertEqual(agg["E"]["self_us"], 60)

    def test_chrome_trace_events(self):
        doc = {"traceEvents": [
            {"name": "solve.main", "ph": "X", "ts": 5, "dur": 7, "tid": 1},
            {"name": "solver.main.conflicts", "ph": "C", "ts": 6, "tid": 1},
            {"name": "mark", "ph": "i", "ts": 8, "tid": 1},
        ]}
        self.assertEqual(benchlib.span_events(doc), [("solve.main", 1, 5, 7)])


class OutputCheck(unittest.TestCase):
    def test_matching_run_passes(self):
        rec = record()
        self.assertEqual(benchlib.check_outcome(rec, expectation(rec)), [])

    def test_wrong_expectation_fires(self):
        rec = record()
        for key, wrong in (("verdict", "secure"), ("final_k", 3), ("waveform", False),
                           ("digest", "0000000000000000")):
            expect = dict(expectation(rec), **{key: wrong})
            problems = benchlib.check_outcome(rec, expect)
            self.assertEqual(len(problems), 1, key)
            self.assertTrue(problems[0].startswith(key), problems)

    def test_digest_covers_every_set(self):
        base = benchlib.outcome(record())["digest"]
        self.assertNotEqual(base, benchlib.outcome(record(hits=("b",)))["digest"])
        self.assertNotEqual(base, benchlib.outcome(record(cex=("a",)))["digest"])
        self.assertNotEqual(base, benchlib.outcome(record(final_s=("a",)))["digest"])

    def test_unknown_or_timed_out_fails(self):
        expect = expectation(record())
        self.assertIn("verdict is unknown",
                      benchlib.check_outcome(record(verdict="unknown"), expect))
        self.assertIn("run timed out",
                      benchlib.check_outcome(record(timed_out=True), expect))

    def test_unreadable_report_fails(self):
        rec = record()
        rec["json_report"] = "{"
        self.assertTrue(benchlib.check_outcome(rec, expectation(record())))


class Determinism(unittest.TestCase):
    def test_counters_must_repeat_at_one_thread(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "counters.json")
            same = [record(), record()]
            self.assertEqual(run.check_determinism(ONE_THREAD, same, store), [])
            # The first clean run is remembered; a later run must match it.
            drifted = [record(counters=(11, 200, 30, 4, 5))]
            self.assertTrue(run.check_determinism(ONE_THREAD, drifted, store))
            mixed = [record(), record(counters=(11, 200, 30, 4, 5))]
            self.assertTrue(run.check_determinism(ONE_THREAD, mixed, store))

    def test_counters_may_vary_with_two_threads(self):
        with tempfile.TemporaryDirectory() as tmp:
            mixed = [record(), record(counters=(11, 200, 30, 4, 5))]
            store = os.path.join(tmp, "counters.json")
            self.assertEqual(run.check_determinism(TWO_THREADS, mixed, store), [])


class ResultLine(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.declared = json.load(f)

    def declared_units(self, section):
        return {m["name"]: m["unit"] for m in self.declared[section]}

    def parse_back(self, metrics):
        line = benchlib.result_line(True, 3, 0, metrics)
        self.assertEqual(len(line.splitlines()), 1)
        doc = parse_result_line(line)
        self.assertEqual(doc["attempted"], 3)
        return {name: entry["unit"] for name, entry in doc["metrics"].items()}

    def test_end_to_end_line_matches_declaration(self):
        recs = [record(verify_s=2.0), record(verify_s=3.0), record(verify_s=9.0)]
        metrics = benchlib.end_to_end_metrics(recs, recs)
        self.assertEqual(metrics["verify_s"]["value"], 3.0)
        self.assertEqual(self.parse_back(metrics), self.declared_units("end_to_end"))

    def test_per_layer_line_matches_declaration(self):
        traced = [record(verify_s=2.2)]
        traced[0]["spans"] = {"solve.main": {"count": 4, "total_us": 2_000_000,
                                             "self_us": 2_000_000, "max_us": 900_000}}
        metrics = benchlib.per_layer_metrics(traced, [record(verify_s=2.0)], threads=1)
        self.assertAlmostEqual(metrics["util.trace_overhead"]["value"], 0.1)
        self.assertEqual(metrics["sat.solve_main_count"]["value"], 4)
        self.assertEqual(metrics["upec.iterations"]["value"], 2)
        self.assertEqual(self.parse_back(metrics), self.declared_units("per_layer"))

    def test_malformed_lines_are_refused(self):
        good = json.loads(benchlib.result_line(True, 1, 0, {}))
        for bad in (dict(good, extra=1), dict(good, attempted=0), dict(good, correct=1),
                    dict(good, metrics={"x": {"value": "1", "unit": "s"}})):
            with self.assertRaises(ValueError):
                parse_result_line(json.dumps(bad))


if __name__ == "__main__":
    unittest.main()
