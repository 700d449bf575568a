"""A/B timing of the suite's base rows, both trees in one process.

    python3 tools/row_ab.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--rows a,b]

Each ROOT is a checkout holding `src/entwiner`.  The script copies each
tree's package into a temporary directory under its own name (`entwiner_a`
for PARENT_ROOT, `entwiner_b` for CHANGE_ROOT), so both load in one
interpreter and share its warm-up, its allocator and its host.  Every round
builds each chosen base row (default: all of them) over `q` and `fp:7` once
on each side, timed with `time.process_time`; the side that runs first
alternates from one build to the next.  Each build checks that both sides
give the same row signature, the (name, passed) pairs that `suite` compares,
and exits with a message if they differ.

It prints, per row and field, the minimum time of each side over the rounds
and their ratio (change / parent), then each round's total time per side and
its ratio, and the median of those round ratios.  A ratio below 1 means the
change is faster.  Pairing rows in one process keeps the round ratios of two
identical trees much closer to 1 than alternating whole `suite` runs do, so
a small difference can be told from the host's drift.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

FIELDS = ("q", "fp:7")
SIDES = ("a", "b")


def load(root: str, name: str, tmp: str):
    """The `suite` module of `root`'s package, imported as the package `name`."""
    src = os.path.join(root, "src", "entwiner")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        raise SystemExit(f"no package at {src}")
    shutil.copytree(src, os.path.join(tmp, name), ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.suite")


def timed(suite, row: str, tag: str) -> tuple[float, tuple]:
    gc.collect()
    t0 = time.process_time()
    rep = suite.run_row(row, tag)
    return time.process_time() - t0, suite.signature(rep)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--rows", help="comma-separated base rows (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        suites = {
            "a": load(args.parent_root, "entwiner_a", tmp),
            "b": load(args.change_root, "entwiner_b", tmp),
        }
        base = suites["a"].BASE_ROWS
        rows = args.rows.split(",") if args.rows else list(base)
        for row in rows:
            if row not in base or row not in suites["b"].BASE_ROWS:
                ap.error(f"'{row}' is not a base row of both trees")

        times = {(s, row, tag): [] for s in SIDES for row in rows for tag in FIELDS}
        totals = []
        flip = 0
        for _ in range(args.rounds):
            total = dict.fromkeys(SIDES, 0.0)
            for row in rows:
                for tag in FIELDS:
                    sigs = {}
                    for s in SIDES[::-1] if flip else SIDES:
                        dt, sigs[s] = timed(suites[s], row, tag)
                        times[s, row, tag].append(dt)
                        total[s] += dt
                    flip ^= 1
                    if sigs["a"] != sigs["b"]:
                        raise SystemExit(f"row {row} over {tag}: the two trees give different verdicts")
            totals.append(total)

    print(f"{'row':<20} {'field':<6} {'parent min s':>13} {'change min s':>13} {'ratio':>7}")
    for row in rows:
        for tag in FIELDS:
            a, b = min(times["a", row, tag]), min(times["b", row, tag])
            print(f"{row:<20} {tag:<6} {a:>13.4f} {b:>13.4f} {b / a if a else float('nan'):>7.3f}")
    ratios = []
    for i, total in enumerate(totals, 1):
        ratios.append(total["b"] / total["a"] if total["a"] else float("nan"))
        print(f"round {i}: parent {total['a']:.4f} s  change {total['b']:.4f} s  ratio {ratios[-1]:.3f}")
    faster = sum(r < 1 for r in ratios)
    print(
        f"median round ratio {statistics.median(ratios):.3f} "
        f"(change faster in {faster} of {len(ratios)} rounds)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
