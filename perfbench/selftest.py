"""Self-test of the benchmark on a tiny generated KG, through run.py.

    python3 perfbench/selftest.py

Runs every workload at `--scale tiny` untraced and traced and checks that
every metric of BENCHMARK.json is emitted with its unit, that the span tree is
well formed, and that the layers' self times add up to the traced wall time
less a small unattributed remainder. Also checks that run.py fails without
printing a result when the program's sources are absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


class TinyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def check_metrics(self, result, spec):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                _, result = parse(proc)
                self.check_metrics(result, self.bench["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                info, result = parse(proc)
                self.check_metrics(result, self.bench["per_layer"])
                spans = self.load_spans(os.path.join(ROOT, info["spans_file"]))
                self.check_span_tree(spans)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                layer_self = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
                roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
                self.assertAlmostEqual(layer_self, roots, delta=1e-6)
                wall, rest = values["trace.wall_s"], values["trace.unattributed_s"]
                self.assertAlmostEqual(layer_self + rest, wall, delta=1e-6)
                # the remainder is the benchmark's own glue between program calls
                self.assertGreaterEqual(rest, -1e-6)
                self.assertLess(rest, 0.1 * wall + 0.05)
                self.assertEqual(values["train.calls"] > 0, workload.startswith("train"))
                self.assertEqual(values["ranking.calls"] > 0, workload == "eval_filtered")

    def load_spans(self, path):
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        self.assertTrue(rows)
        return [[r["name"], r["start"], r["end"], r["parent"], r["run"]] for r in rows]

    def check_span_tree(self, spans):
        for i, (name, start, end, parent, run) in enumerate(spans):
            self.assertIn(name.split(".", 1)[0], tracer.LAYERS)
            self.assertLessEqual(start, end)
            self.assertLess(parent, i)
            if parent >= 0:
                _, p_start, p_end, _, p_run = spans[parent]
                self.assertTrue(p_start <= start and end <= p_end, name)
                self.assertEqual(run, p_run)
        for span, self_s in zip(spans, tracer.self_times(spans)):
            self.assertGreaterEqual(self_s, -1e-9, span[0])

    def test_fails_without_program(self):
        bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in self.bench["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(self.workloads[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
