"""Smoke test of the benchmark harness and the demos: each script runs to
completion in a fresh interpreter. The harness self-test drives the public
calls the benchmark makes (init_model, fit, checkpoints, evaluate and its
per-query ranks) on a tiny generated KG."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = ["perfbench/selftest.py"] + sorted(
    f"demos/{name}" for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
