"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

The reference test builds the benchmark (first run: about a minute)
and runs one short compile_sweep pass against a corrupted copy of the
references.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import measure  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(measure.nearest_rank(samples, 50), (50, 50))
        self.assertEqual(measure.nearest_rank(samples, 90), (90, 10))
        self.assertEqual(measure.nearest_rank([7.0], 90), (7.0, 0))

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples leave exactly 10 beyond p90; 99 leave 9.
        self.assertEqual(measure.tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(measure.tail_percentile(list(range(99)), 90))
        # A taxonomy pass (104 cells) and a compile pass (248) qualify,
        # a paper_regen pass (13 artifacts) does not.
        self.assertIsNotNone(measure.tail_percentile(list(range(104)), 90))
        self.assertIsNotNone(measure.tail_percentile(list(range(248)), 90))
        self.assertIsNone(measure.tail_percentile(list(range(13)), 90))

    def test_order_does_not_matter(self):
        a = [5.0, 1.0, 9.0, 3.0] * 30
        self.assertEqual(measure.tail_percentile(a, 90),
                         measure.tail_percentile(sorted(a), 90))


def span(name, ts, dur, tid=0):
    return {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": 1,
            "tid": tid}


class SelfTime(unittest.TestCase):
    def self_of(self, events):
        return {e["name"]: s for e, s, _ in measure.self_times(events)}

    def test_nested_spans(self):
        events = [
            span("perfbench.op", 0.0, 100.0),
            span("compile", 10.0, 20.0),
            span("execute", 40.0, 20.0),
            span("bytecode", 45.0, 5.0),
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0},
        ]
        self.assertEqual(self.self_of(events),
                         {"perfbench.op": 60.0, "compile": 20.0,
                          "execute": 15.0, "bytecode": 5.0})

    def test_threads_do_not_nest_into_each_other(self):
        events = [span("op", 0.0, 100.0, tid=0),
                  span("op", 10.0, 50.0, tid=1),
                  span("compile", 20.0, 10.0, tid=1)]
        got = [s for _, s, _ in measure.self_times(events)]
        self.assertEqual(got, [100.0, 40.0, 10.0])

    def test_back_to_back_children_and_unsorted_input(self):
        events = [span("b", 50.0, 50.0), span("a", 0.0, 50.0),
                  span("op", 0.0, 100.0)]
        self.assertEqual(self.self_of(events),
                         {"op": 0.0, "a": 50.0, "b": 50.0})

    def test_scope_separates_ops_from_probes(self):
        events = [span("cell", 0.0, 300.0),
                  span("perfbench.op", 0.0, 100.0),
                  span("bytecode", 10.0, 50.0),
                  span("perfbench.probe", 100.0, 200.0),
                  span("bytecode", 110.0, 150.0)]
        scopes = [(e["name"], where)
                  for e, _, where in measure.self_times(events)]
        self.assertEqual(scopes, [("cell", None),
                                  ("perfbench.op", "perfbench.op"),
                                  ("bytecode", "perfbench.op"),
                                  ("perfbench.probe", "perfbench.probe"),
                                  ("bytecode", "perfbench.probe")])
        totals = measure.span_totals(events)
        self.assertEqual(totals["bytecode"],
                         {"count": 1, "self_us": 50.0, "total_us": 50.0})
        self.assertNotIn("cell", totals)

    def test_span_totals(self):
        events = [span("perfbench.op", 0.0, 100.0), span("licm", 10.0, 5.0),
                  span("perfbench.op", 200.0, 10.0),
                  span("licm", 201.0, 2.0)]
        totals = measure.span_totals(events)
        self.assertEqual(totals["perfbench.op"],
                         {"count": 2, "self_us": 103.0, "total_us": 110.0})
        self.assertEqual(totals["licm"]["self_us"], 7.0)


class CorruptedReference(unittest.TestCase):
    def test_mismatch_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            refs = os.path.join(tmp, "refs")
            shutil.copytree(os.path.join(PERFBENCH, "refs"), refs)
            path = os.path.join(refs, "compile_sweep.tsv")
            with open(path) as f:
                lines = f.read().splitlines()
            cell, digest = lines[1].split("\t")
            lines[1] = cell + "\t" + "0" * len(digest)
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            r = subprocess.run(
                [sys.executable, os.path.join(PERFBENCH, "run.py"),
                 "--workload", "compile_sweep", "--seed", "3",
                 "--seconds", "0", "--trace", "0", "--refs", refs],
                capture_output=True, text=True)
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("FAILED op " + cell, r.stdout)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)
        ratio = [line for line in r.stdout.splitlines()
                 if line.strip().startswith("fail_ratio")]
        self.assertEqual(len(ratio), 1)
        self.assertNotEqual(ratio[0].split()[1], "0")


if __name__ == "__main__":
    unittest.main()
