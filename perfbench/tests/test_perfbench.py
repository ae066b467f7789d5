#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py        # from the checkout root

Builds the driver through perfbench/run.py (into $CARGO_TARGET_DIR, default
.bench_build) and runs every workload briefly; takes a few minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def bench(workload, seed, trace, *extra):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), *extra)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]), json.loads(lines[-2])


def outputs(workload, seed, *extra):
    proc = run("--workload", workload, "--seed", str(seed), "--dump-outputs",
               *extra)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return dict(line.split(" ", 1) for line in proc.stdout.splitlines()
                if line and not line.startswith("#"))


def reference(workload):
    with open(os.path.join(PERFBENCH, "reference", workload + ".txt")) as f:
        return dict(line.rstrip("\n").split(" ", 1) for line in f
                    if line.strip() and not line.startswith("#"))


class ShortRun(unittest.TestCase):
    def test_every_metric_with_unit_on_every_workload(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc, result, record = bench(workload, 1, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(record["seed"], 1)
                    self.assertEqual(record["failed_op_frac"], 0)
                    for field in ("cpu_model", "nproc", "pool_threads",
                                  "simd_path", "compiler", "build_type",
                                  "commit"):
                        self.assertIn(field, record["fingerprint"])


class PerturbedReference(unittest.TestCase):
    def test_mismatch_fails_the_op_and_the_command(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref_dir = os.path.join(tmp, "reference")
            shutil.copytree(os.path.join(PERFBENCH, "reference"), ref_dir)
            path = os.path.join(ref_dir, "serve_fleet.txt")
            with open(path) as f:
                text = f.read()
            line = next(l for l in text.splitlines()
                        if l.startswith("serve.energy_j "))
            value = float(line.split()[1])
            with open(path, "w") as f:
                f.write(text.replace(line, f"serve.energy_j {value * 1.001!r}"))
            proc, result, record = bench("serve_fleet", 0, 0,
                                         "--reference-dir", ref_dir)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["failed_op_frac"], 0)


class TracedDriver(unittest.TestCase):
    def test_traced_outputs_equal_experiment_run(self):
        for workload in WORKLOADS:
            for seed in (0, 5):
                with self.subTest(workload=workload, seed=seed):
                    untraced = outputs(workload, seed)
                    self.assertEqual(outputs(workload, seed, "--traced"),
                                     untraced)
                    if seed == 0:
                        self.assertEqual(untraced, reference(workload))

    def test_one_host_thread_reference_equals_pooled_run(self):
        self.assertEqual(outputs("snapshot_io", 3, "--threads", "1"),
                         outputs("snapshot_io", 3))


class GoldenCrossCheck(unittest.TestCase):
    """Seed 0 reproduces the CLI's case study 1 and serve fleet."""

    def test_paper_cases_reference_matches_energy_golden(self):
        with open(os.path.join(ROOT, "tools", "golden",
                               "ENERGY_profile_case1.json")) as f:
            golden = json.load(f)
        ref = reference("paper_cases")
        self.assertEqual(float(ref["case1.sync.virtual_s"]),
                         golden["duration_s"])
        self.assertEqual(float(ref["case1.sync.attributed_j"]),
                         golden["total_j"])

    def test_serve_fleet_builder_matches_serve_golden(self):
        with open(os.path.join(ROOT, "tools", "golden",
                               "SERVE_profile_case1.json")) as f:
            golden = json.load(f)
        out = outputs("serve_fleet", 0, "--fleet", "8x4")
        self.assertEqual(float(out["serve.virtual_s"]), golden["duration_s"])
        self.assertEqual(float(out["serve.energy_j"]), golden["energy_j"])
        self.assertEqual(float(out["serve.peak_w"]), golden["peak_power_w"])
        self.assertEqual(float(out["serve.single_viewer_j"]),
                         golden["single_viewer_j"])
        self.assertEqual(int(out["serve.frames_delivered"]),
                         golden["frames_delivered"])
        for row in golden["per_viewer"]:
            self.assertEqual(
                float(out[f"serve.viewer.{row['viewer']}.total_j"]),
                row["total_j"])


class Refusals(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_cases", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_compare_refuses_different_hosts(self):
        record = {"workload": "serve_fleet", "trace": 0,
                  "fingerprint": {"cpu_model": "A", "nproc": 4,
                                  "pool_threads": 4, "simd_path": "avx2",
                                  "compiler": "c++", "build_type": "Release",
                                  "commit": "x"},
                  "result": {"metrics": {"op_p50_s": {"value": 1.0,
                                                      "unit": "s"}}}}
        other = json.loads(json.dumps(record))
        other["fingerprint"]["nproc"] = 8
        same_host = json.loads(json.dumps(record))
        same_host["fingerprint"]["commit"] = "y"
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, r in enumerate((record, other, same_host)):
                paths.append(os.path.join(tmp, f"{i}.jsonl"))
                with open(paths[-1], "w") as f:
                    f.write(json.dumps(r) + "\n")
            compare = os.path.join(PERFBENCH, "compare.py")
            refused = subprocess.run([sys.executable, compare, paths[0],
                                      paths[1]], capture_output=True, text=True)
            accepted = subprocess.run([sys.executable, compare, paths[0],
                                       paths[2]], capture_output=True,
                                      text=True)
        self.assertEqual(refused.returncode, 2)
        self.assertIn("nproc", refused.stderr)
        self.assertEqual(accepted.returncode, 0, accepted.stderr)


if __name__ == "__main__":
    unittest.main()
