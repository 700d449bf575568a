"""Print every metric of every workload, with its unit, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S]     # from the repository root

Runs `run.py` on each workload untraced and then traced, and prints the
end-to-end metrics (with `failed_op_ratio`), then the per-layer metrics with
the end-to-end metric and workload each is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workload import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    args = ap.parse_args()
    moves = {name: why for name, _, _, why in layers.METRICS}
    traced = {}
    for w in WORKLOADS:
        res = run(w, args.seed, args.seconds, 0)
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        print(f"  {'failed_op_ratio':<34} {res['failed'] / res['attempted']:>14.6g} ratio")
        for name, m in res["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        traced[w] = run(w, args.seed, args.seconds, 1)["metrics"]
    print("\nper-layer (traced runs); columns: " + ", ".join(WORKLOADS))
    for name, unit, _, _ in layers.METRICS:
        cells = [traced[w].get(name) for w in WORKLOADS]
        text = " ".join(f"{c['value']:>12.6g}" if c else f"{'absent':>12}" for c in cells)
        print(f"  {name:<34} {text} {unit:<6} moves {moves[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
