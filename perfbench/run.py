"""Benchmark of mkge on a generated knowledge graph of FB15k-237 shape.

    python3 perfbench/run.py --workload train_hh --seed 0 --seconds 15 --trace 0

Workloads: train_hh, train_rotate, eval_filtered (see perfbench/README.md).
Each run starts the workload in a fresh Python process with the BLAS thread
variables set to the number of usable cores before numpy loads. With
`--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` an untraced run followed by a separate traced
run of the same workload gives the per-layer metrics. The lines before it hold
the environment, the input properties, the phase timings and a readable copy
of the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_hh", "train_rotate", "eval_filtered")
# the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0

NAMED_THROUGHPUT = {"train_hh": "train_triples_per_s", "train_rotate": "train_triples_per_s",
                    "eval_filtered": "eval_queries_per_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain checkout; do not let git search parent directories
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _run_child(args, mode, work, out, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scale", args.scale, "--work", work, "--out", out]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"no time left for the {mode} run")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{mode} run exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _phase_wall(phases, n_ops):
    return (sum(phases["setup_s"]) + phases["warmup_s"] + sum(phases["op_s"][:n_ops])
            + phases["finish_s"])


def _select(spec, values, default=None):
    out = {}
    for m in spec:
        value = values.get(m["name"], default)
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "mkge", "__init__.py")):
        raise BenchError("mkge sources not found under src/mkge")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    threads = _usable_cores()
    env = _child_env(threads)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-{args.scale}")
    try:
        timed = _run_child(args, "timed", work, stem + "-timed.json", env, deadline)
        traced = None
        if args.trace:
            traced = _run_child(args, "traced", work, stem + "-traced.json", env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
        except OSError:
            pass

    children = [timed] + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    info = dict(timed["info"])
    info.update(workload=args.workload, seed=args.seed, scale=args.scale, git_sha=_git_sha(),
                blas_threads=threads, nproc=os.cpu_count(), python=sys.version.split()[0],
                phases=timed["phases"], errors=errors,
                **{NAMED_THROUGHPUT[args.workload]: timed["metrics"].get("throughput_per_s")})

    if args.trace:
        values = dict(traced["metrics"])
        wall = _phase_wall(traced["phases"], len(traced["phases"]["op_s"]))
        values["proc.cpu_util"] = timed["metrics"].get("proc.cpu_util")
        values["trace.wall_s"] = wall
        values["trace.overhead_s"] = wall - _phase_wall(timed["phases"],
                                                        len(traced["phases"]["op_s"]))
        values["trace.unattributed_s"] = wall - sum(
            v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_s"))
        info["traced_phases"] = traced["phases"]
        info["spans_file"] = os.path.relpath(traced["info"]["spans_file"], ROOT)
        metrics = _select(bench["per_layer"], values, default=0)
    else:
        metrics = _select(bench["end_to_end"], timed["metrics"])

    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<40} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and not errors and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="mkge benchmark on an FB15k-237-shaped KG")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny runs the same path on a small KG (self-test)")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
