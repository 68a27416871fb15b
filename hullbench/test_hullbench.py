#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 hullbench/test_hullbench.py

* every workload, at smoke size, prints every metric BENCHMARK.json names
  for its mode (end-to-end untraced, per-layer traced), each with its unit,
  and passes its correctness gate; the traced run writes its span file;
* a planted wrong facet set (one facet dropped before every comparison)
  fails the correctness gate: correct is false and the exit code is not 0;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  command exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
BUILD = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def run(workload, trace, *extra, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "2",
                              "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        return metrics

    def test_every_metric_printed_with_its_unit(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                metrics = self.check_result(run(w["name"], 0), BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(run(w["name"], 1), BENCH["per_layer"])
                with open(os.path.join(BUILD, "traces", f"{w['name']}-7.json")) as f:
                    spans = json.load(f)["traceEvents"]
                names = {s["name"] for s in spans}
                for want in ("hull.run", "hull.run_t1", "engine.insert_batch",
                             "engine.delete_batch", "query.block", "service.start",
                             "service.stop", "service.frame.query"):
                    self.assertIn(want, names)

    def test_planted_wrong_facet_set_fails_the_gate(self):
        proc = run("ball", 0, "--plant", "drop-facet")
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("correctness check failed", proc.stderr)

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(BUILD, "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        cmd = BENCH["command"] + ["--workload", "ball", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
