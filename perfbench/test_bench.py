#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

Each test runs perfbench/run.py with a short measuring time (every run still
does at least three units of work), so the whole file takes a few minutes.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import build_dir  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1234

WORKLOADS = ("modeled_sweep", "live_insitu", "live_intransit")


def run(workload, trace=0, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc


def table(proc):
    """The metric table above the result line: name -> value."""
    rows = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            rows[parts[0]] = float(parts[1])
    return rows


class Benchmark(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = run(w, 1)

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_end_to_end_names_match_spec(self):
        # Every workload prints every end-to-end metric, and none is 0.
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            code, result, proc = run(workload)
            self.assertEqual(code, 0, proc.stderr)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(set(result["metrics"]), set(spec), workload)
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], spec[name])
                self.assertGreater(metric["value"], 0, name)

    def test_per_layer_names_match_spec(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload, (code, result, proc) in self.traced.items():
            self.assertEqual(code, 0, proc.stderr)
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(set(result["metrics"]), set(spec), workload)
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], spec[name])

    def test_traced_outputs_equal_untraced(self):
        # In-process, every traced unit is checked against the untraced
        # units; across processes, the traced counts equal the pins taken
        # from untraced units.
        pins = {}
        for line in (HERE / "pins.txt").read_text().splitlines():
            if line and not line.startswith("#"):
                w, seed, key, value = line.split()
                if int(seed) == DEFAULT_SEED:
                    pins[(w, key)] = float(value)
        pairs = [("live_insitu", "amr.boxes", "boxes_sum", 1),
                 ("live_intransit", "amr.boxes", "boxes_sum", 1),
                 ("live_insitu", "viz.triangles", "triangles", 1),
                 ("live_insitu", "viz.cells_scanned", "cells_scanned", 1),
                 ("live_intransit", "analysis.reduced_MB", "reduced_bytes", 1e6),
                 ("modeled_sweep", "runtime.virtual_tts_s.static-insitu",
                  "static-insitu.tts_s", 1)]
        for workload, metric, key, scale in pairs:
            code, result, proc = self.traced[workload]
            self.assertEqual(code, 0, proc.stderr)
            self.assertTrue(result["correct"])
            # The result line has all digits; the table above it ten.
            if metric in result["metrics"]:
                self.assertEqual(result["metrics"][metric]["value"], pins[(workload, key)] / scale)
            else:
                self.assertAlmostEqual(table(proc)[metric] / (pins[(workload, key)] / scale),
                                       1.0, places=8, msg=metric)

    def test_perturbed_pin_fails(self):
        bad = build_dir() / "perturbed_pins.txt"
        bad.parent.mkdir(parents=True, exist_ok=True)
        lines = (HERE / "pins.txt").read_text().splitlines()
        out, done = [], False
        for line in lines:
            parts = line.split()
            if not done and parts[:1] == ["live_insitu"] and parts[2] == "triangles":
                parts[3] = str(int(float(parts[3])) + 1)
                line, done = " ".join(parts), True
            out.append(line)
        self.assertTrue(done, "no live_insitu triangles pin to perturb")
        bad.write_text("\n".join(out) + "\n")
        code, result, _ = run("live_insitu", 0, "--pins", str(bad))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
