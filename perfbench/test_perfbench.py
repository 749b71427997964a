#!/usr/bin/env python3
"""Tests of the host benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

The DAG-generator and printed-metrics tests build and run the harness
(a few tens of seconds); the rest are pure arithmetic.
"""

import decimal
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(199), 90)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(256), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(95, 200), 10)
        self.assertEqual(stats.samples_beyond(95, 199), 9)
        self.assertEqual(stats.samples_beyond(99.9, 10000), 10)

    def test_interpolated_percentile_and_median(self):
        values = [4, 1, 3, 2, 5]
        self.assertEqual(stats.percentile(values, 50), 3)
        self.assertAlmostEqual(stats.percentile(values, 95), 4.8)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.median([1, 2, 3, 4]), 2.5)


def span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "start": start, "end": end,
            "name": name, "job": -1}


class SelfTime(unittest.TestCase):
    def setUp(self):
        # root [0,10] <- a [1,3] <- a1 [1.5,2]
        #             <- b [2,5]  (overlaps a)
        #             <- c [6,7]
        self.spans = [span(0, -1, 0, 10), span(1, 0, 1, 3),
                      span(2, 1, 1.5, 2), span(3, 0, 2, 5),
                      span(4, 0, 6, 7)]

    def test_self_time_subtracts_union_of_children(self):
        self_time = stats.self_times(self.spans)
        self.assertAlmostEqual(self_time[0], 10 - 5)
        self.assertAlmostEqual(self_time[1], 2 - 0.5)
        self.assertAlmostEqual(self_time[2], 0.5)
        self.assertAlmostEqual(self_time[3], 3)
        # Self times add up to the root's length plus the time where
        # the siblings a and b overlap.
        self.assertAlmostEqual(sum(self_time.values()), 10 + 1)

    def test_coverage_counts_direct_children(self):
        self.assertAlmostEqual(stats.coverage(self.spans[0], self.spans),
                               0.5)
        self.assertAlmostEqual(stats.coverage(self.spans[1], self.spans),
                               0.25)

    def test_chrome_round_trip(self):
        doc = {"traceEvents": [
            {"name": "p", "ph": "X", "ts": 0, "dur": 2e6, "pid": 1,
             "tid": 0, "args": {"id": 0, "parent": -1, "job": -1}},
            {"name": "c", "ph": "X", "ts": 5e5, "dur": 1e6, "pid": 1,
             "tid": 3, "args": {"id": 1, "parent": 0, "job": 2}}]}
        spans = stats.spans_from_chrome(doc)
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.0)
        self.assertEqual(spans[1]["job"], 2)


def job(key, cycles, checksum="1", group="g", ok=True, kind="run"):
    return {"key": key, "kind": kind, "ms": 1.0, "cycles": cycles,
            "pes": 2, "checksum": checksum, "group": group, "ok": ok,
            "hit": False}


def pass_of(jobs, workload="fig9", counters=None):
    return {"workload": workload, "traced": False, "wall_s": 1.0,
            "setup_s": 0.5, "layers": {},
            "counters": counters, "jobs": jobs}


class FailureAccounting(unittest.TestCase):
    goldens = {"default_seed": 42, "fig9": {"a": [10, "1"]}}

    def test_clean_run(self):
        passes = [pass_of([job("a", 10), job("b", 20)])] * 2
        self.assertEqual(run.check_passes(passes, [], 42, self.goldens)[:2],
                         (4, 0))

    def test_each_kind_of_miss_counts_once(self):
        passes = [
            pass_of([job("a", 10), job("b", 20)]),
            pass_of([job("a", 10, ok=False), job("b", 21)]),
            pass_of([job("a", 10), job("b", 20, checksum="2")]),
        ]
        verify = [{"key": "standalone/j0", "ok": False}]
        attempted, failed, notes = run.check_passes(passes, verify, 7,
                                                    self.goldens)
        self.assertEqual((attempted, failed), (7, 4), notes)

    def test_goldens_apply_only_at_the_default_seed(self):
        passes = [pass_of([job("a", 11)])]
        self.assertEqual(run.check_passes(passes, [], 42,
                                          self.goldens)[1], 1)
        self.assertEqual(run.check_passes(passes, [], 43,
                                          self.goldens)[1], 0)

    def test_counters_must_repeat(self):
        passes = [pass_of([], counters={"l1Hits": 1}),
                  pass_of([], counters={"l1Hits": 2})]
        self.assertEqual(run.check_passes(passes, [], 1, {"default_seed": 42}),
                         (2, 1, ["fig9: counters differ between passes"]))


class Goldens(unittest.TestCase):
    def setUp(self):
        self.g = load("goldens.json")

    def test_fig9_cells_reproduce_the_experiments_table(self):
        # bench_fig9_em3d prints us/edge to 3 decimals; the table rounds
        # that to 2.
        versions = ["Simple", "Bundle", "Unroll", "Get", "Put", "Bulk"]
        for pct, row in self.g["fig9_table_us_per_edge"].items():
            for version, expected in zip(versions, row):
                cycles = self.g["fig9"][f"{int(pct) / 100:.1f}/{version}"][0]
                us = cycles * 6667 / 1e6 / self.g["fig9_edges_per_pe"]
                two = decimal.Decimal(f"{us:.3f}").quantize(
                    decimal.Decimal("0.01"), decimal.ROUND_HALF_UP)
                self.assertEqual(float(two), expected, (pct, version))

    def test_fig9_table_matches_experiments_md(self):
        path = os.path.join(ROOT, "EXPERIMENTS.md")
        if not os.path.exists(path):
            self.skipTest("EXPERIMENTS.md not present")
        with open(path) as fh:
            text = fh.read()
        section = text[text.index("## Figure 9"):]
        for pct, row in self.g["fig9_table_us_per_edge"].items():
            m = re.search(r"^\| %s \|(.*)\|$" % pct, section, re.M)
            self.assertIsNotNone(m, pct)
            self.assertEqual([float(x) for x in m.group(1).split("|")], row)

    def test_weak16k_sums_to_the_committed_row(self):
        cells = self.g["weak16k"].values()
        row = self.g["weak16k_row"]
        self.assertEqual(sum(c[0] for c in cells), row["sim_cycles"])
        self.assertEqual(sum(float(c[1]) for c in cells), row["checksum"])
        path = os.path.join(ROOT, "BENCH_sim_speed.json")
        if os.path.exists(path):
            with open(path) as fh:
                committed = [r for r in json.load(fh)["weak_scaling"]
                             if r["pes"] == row["pes"]]
            self.assertEqual(committed[0]["sim_cycles"], row["sim_cycles"])
            self.assertEqual(committed[0]["checksum"], row["checksum"])

    def test_ladder_rungs_share_one_checksum_per_app(self):
        for app in ("bsort", "qcd"):
            sums = {v[1] for k, v in self.g["ladders"].items()
                    if k.startswith(app + "/")}
            self.assertEqual(len(sums), 1, app)


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        b = benchmark_json()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in b["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in b["per_layer"]],
            [m[:3] for m in run.PER_LAYER])
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))

    def test_every_layer_metric_has_a_home_that_measures_it(self):
        for name, _, _, where in run.PER_LAYER:
            self.assertTrue(set(where) <= set(run.WORKLOADS + run.UNGATED),
                            name)
        self.assertEqual(run.homes_needed("fig9"),
                         ["weak16k", "ladders", "serve"])
        self.assertEqual(run.homes_needed("serve"),
                         ["fig9", "weak16k", "ladders"])


def bench(*args):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        *args], cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    return r.returncode, r.stdout


class Harness(unittest.TestCase):
    """Builds and runs the harness."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("harness does not build")

    def dags(self, seed):
        r = subprocess.run([run.HARNESS, "--check-dags", "--seed", str(seed)],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 0, r.stdout)
        return r.stdout.split("\n")[:-1]

    def test_dag_generator_is_seeded_and_every_graph_lowers(self):
        a, b, c = self.dags(5), self.dags(5), self.dags(6)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), 256)
        modes = [line.split()[0] for line in a]
        self.assertEqual(modes.count("predict"), 64)
        simulate = [line.split()[1] for line in a
                    if line.startswith("simulate")]
        self.assertEqual(len(simulate) - len(set(simulate)), 32)
        for line in a:
            _, _, size, levels = line.split()
            self.assertEqual(levels, "8")
            self.assertGreater(int(size), 8000)

    def check_printed(self, trace, table):
        code, out = bench("--workload", "serve", "--seed", "3",
                          "--seconds", "0.5", "--trace", str(trace))
        self.assertEqual(code, 0, out)
        last = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(sorted(last), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertTrue(last["correct"], out)
        self.assertEqual(last["failed"], 0)
        self.assertEqual({n: v["unit"] for n, v in last["metrics"].items()},
                         {m["name"]: m["unit"] for m in table})
        for name, metric in last["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_printed(0, benchmark_json()["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_printed(1, benchmark_json()["per_layer"])


if __name__ == "__main__":
    unittest.main()
