#!/usr/bin/env python3
"""Tests of the repository benchmark, on its seconds-long smoke mode.

    python3 perfbench/test_perfbench.py

Run from anywhere; each test starts perfbench/run.py from the checkout
root, which builds the benchmark on first use.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

SHAPES = ("d2_flip25", "d2_flip1", "d4_flip2")
# The workload's own end-to-end names, printed in the table.
TABLE_METRICS = {
    "passive_cold": {"points_per_s": "points/s", "failed_share": "ratio"},
    "serve_sessions": {
        "sessions_per_s": "1/s", "step_ms.p50": "ms", "step_ms.p99": "ms",
        "session_ms.p50": "ms", "round_trips_per_session": "count",
        "probes_per_session": "count", "err_over_kstar": "ratio",
        "failed_share": "ratio"},
    "inc_stream": {
        "deltas_per_s": "1/s", "delta_us.p50": "us", "delta_us.p99": "us",
        "checkpoint_ms.p50": "ms", "failed_share": "ratio"},
}
COMMON_LAYERS = {
    "data.generate_s", "util.pool_tasks", "util.pool_wait_us.p50",
    "util.pool_run_us.p50", "graph.dinic_phases", "graph.augmenting_paths",
    "passive.dense_builds", "passive.sparse_builds",
    "obs.trace_overhead_share"}


def layer_names_measured_by(workload):
    """Per-layer metrics the workload itself measures (the rest read 0)."""
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    if workload == "passive_cold":
        own = {n for n in names if n.endswith(SHAPES)}
    elif workload == "serve_sessions":
        own = {n for n in names if n.startswith(("active.", "net."))} | {
            "core.decompose_us.p50", "core.chain_count.mean",
            "passive.sigma_solve_us.p50",
            "graph.matching_augmentations_per_session"}
    else:
        own = {n for n in names if n.startswith("inc.")}
    return own | COMMON_LAYERS


def run_bench(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def table(stdout):
    """name -> (value, unit, samples) from the printed metric table."""
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            rows[fields[0]] = (float(fields[1]), fields[2], int(fields[3][2:]))
    return rows


class SmokeTest(unittest.TestCase):

    def check_run(self, workload, trace):
        run = run_bench(workload, trace)
        self.assertEqual(run.returncode, 0, run.stderr)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], run.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"], metric["name"])
        rows = table(run.stdout)
        self.assertIn("seed=5", run.stdout)
        if trace:
            for name in layer_names_measured_by(workload):
                self.assertIn(name, rows, name)
        else:
            for metric in declared:
                self.assertGreater(rows[metric["name"]][0], 0, metric["name"])
            for name, unit in TABLE_METRICS[workload].items():
                self.assertEqual(rows[name][1], unit, name)
                self.assertGreater(rows[name][2], 0, name)
            self.assertEqual(rows["failed_share"][0], 0)
        return rows

    def test_passive_cold(self):
        self.check_run("passive_cold", 0)
        rows = self.check_run("passive_cold", 1)
        for shape in SHAPES:
            self.assertGreater(rows["passive.pipeline_ms." + shape][0], 0)

    def test_serve_sessions(self):
        self.check_run("serve_sessions", 0)
        rows = self.check_run("serve_sessions", 1)
        self.assertGreater(rows["net.frames_per_session"][0], 0)

    def test_inc_stream(self):
        self.check_run("inc_stream", 0)
        rows = self.check_run("inc_stream", 1)
        self.assertGreater(rows["inc.augment_calls"][0], 0)

    def test_corrupted_served_answer_fails(self):
        run = run_bench("serve_sessions", 0, "--inject-fault")
        self.assertEqual(run.returncode, 0, run.stderr)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(table(run.stdout)["failed_share"][0], 0)

    def test_refuses_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            run = run_bench("passive_cold", 0, cwd=bare)
            self.assertNotEqual(run.returncode, 0)
            self.assertNotIn('"correct"', run.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
