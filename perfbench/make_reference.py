"""Record the per-step training losses that workload.py checks runs against.

    python3 perfbench/make_reference.py --seeds 0 1 2 --seconds 40

Runs each training workload through run.py at full scale and stores the loss
of every step it ran in reference_losses.json, keyed by workload and seed.
Only rerun this when a change to the program's arithmetic is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_losses.json")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--seconds", type=float, default=40)
    args = p.parse_args(argv)
    refs = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            refs = json.load(fh)
    for workload in ("train_hh", "train_rotate"):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[0]), json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks: {info['errors']}")
            refs.setdefault(workload, {})[str(seed)] = info["losses"]
            print(f"{workload} seed {seed}: {len(info['losses'])} steps", flush=True)
            with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
