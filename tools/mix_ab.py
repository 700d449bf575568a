"""A/B timing of the cli-mix command catalogue, both trees in one process.

    python3 tools/mix_ab.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--groups g,h]

Each ROOT is a checkout holding `src/entwiner`.  Each tree's package is
copied into a temporary directory under its own name by `tools/row_ab.py`'s
`load` (`entwiner_a` for PARENT_ROOT, `entwiner_b` for CHANGE_ROOT), so both
load in one interpreter and share its warm-up, its allocator and its host.

The commands are those of CHANGE_ROOT's `perfbench/catalogue.json`, which is
read and never written.  Its set-up structure files are written once, into
a temporary directory, from side a's output; side b must print the same
bytes.  Every round runs each command of the chosen groups (default: all
four) once on each side, through `cli.main` with stdout and stderr captured,
timed with `time.process_time`.  Round r (from 0) runs the commands in an
order shuffled by the seed r, as the benchmark's cli-mix shuffles each pass,
so a command pays for what its neighbours leave in the package's caches;
both sides run the same order.  The side that runs first alternates along
the catalogue, which lists a command's text and `--json` forms in turn, and
from one round to the next for each command.  Each side runs with its own
root as the working directory, so a command naming `src/entwiner/data/...`
reads that tree's file.  The cyclic garbage collector is paused while a
round runs and collects every `GC_EVERY` commands, between two commands:
when it ran on its own, its pauses fell on the same side of the same
commands in every run, so an A/A run of two identical trees read a median
round ratio some 0.7 % from 1.  So the timed commands pay no cyclic-GC
pause: a change that makes more or less collectable garbage reads the same
here, and only the benchmark (`perfbench/`) measures it.  Each command must
give both sides the same exit code and stdout, or the script exits with a
message naming it.  A structure file
that an `emit` command prints is written to disk, as the benchmark does.

It prints, per group, the number of commands, each side's time summed over
the rounds and their ratio (change / parent), then each round's total time
per side and its ratio, and the median of those round ratios.  Then it takes
each command's minimum time over the rounds on each side and prints each
side's p50 and p99 of those (nearest rank, as the benchmark's `op_p50_ms` and
`op_p99_ms`), and the quartiles of the per-command ratio, so a shift in
either percentile can be read in process.  A ratio below 1 means the change
is faster.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import statistics
import sys
import tempfile
import time

from row_ab import load

SIDES = ("a", "b")
GROUPS = ("verify", "emit", "parse", "exit2")
GC_EVERY = 64
FILES = "{files}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return rc, out.getvalue()


def expand(argv, files: str) -> list[str]:
    return [a.replace(FILES, files) for a in argv]


def write_setup(clis: dict, roots: dict, catalogue: dict, files: str) -> None:
    """The catalogue's set-up files, written by side a; side b must print the same bytes."""
    for name, argv in catalogue["files"]:
        texts = {}
        for s in SIDES:
            os.chdir(roots[s])
            texts[s] = run(clis[s], expand(argv, files))[1]
        if texts["a"] != texts["b"]:
            raise SystemExit(f"set-up file {name}: the two trees write different bytes")
        with open(os.path.join(files, name), "w", encoding="utf-8") as fh:
            fh.write(texts["a"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root")
    ap.add_argument("change_root")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--groups", help="comma-separated catalogue groups (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    groups = args.groups.split(",") if args.groups else list(GROUPS)
    for g in groups:
        if g not in GROUPS:
            ap.error(f"'{g}' is not a catalogue group (known: {', '.join(GROUPS)})")
    roots = {"a": os.path.abspath(args.parent_root), "b": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["b"], "perfbench", "catalogue.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    ops = [(g, argv) for g in groups for argv in catalogue["groups"][g]]

    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sys.path.insert(0, tmp)
            for s in SIDES:
                load(roots[s], f"entwiner_{s}", tmp)
            clis = {s: importlib.import_module(f"entwiner_{s}.cli") for s in SIDES}
            files = os.path.join(tmp, "files")
            os.mkdir(files)
            emitted = os.path.join(tmp, "emitted.json")
            write_setup(clis, roots, catalogue, files)

            spent = {(s, g): 0.0 for s in SIDES for g in groups}
            best = {s: [math.inf] * len(ops) for s in SIDES}
            totals = []
            for r in range(args.rounds):
                total = dict.fromkeys(SIDES, 0.0)
                order = list(range(len(ops)))
                random.Random(r).shuffle(order)
                gc.collect()
                gc.disable()
                for n, k in enumerate(order, 1):
                    if n % GC_EVERY == 0:
                        gc.collect()
                    group, template = ops[k]
                    real = expand(template, files)
                    seen = {}
                    for s in SIDES[::-1] if (k + r) % 2 else SIDES:
                        os.chdir(roots[s])
                        t0 = time.process_time()
                        seen[s] = run(clis[s], real)
                        if group == "emit":
                            with open(emitted, "w", encoding="utf-8") as fh:
                                fh.write(seen[s][1])
                        dt = time.process_time() - t0
                        spent[s, group] += dt
                        total[s] += dt
                        best[s][k] = min(best[s][k], dt)
                    if seen["a"] != seen["b"]:
                        raise SystemExit(f"{' '.join(template)}: the two trees give different output")
                totals.append(total)
    finally:
        gc.enable()
        os.chdir(cwd)

    print(f"{'group':<8} {'commands':>8} {'parent s':>10} {'change s':>10} {'ratio':>7}")
    for g in groups:
        n = sum(1 for og, _ in ops if og == g)
        a, b = spent["a", g], spent["b", g]
        print(f"{g:<8} {n:>8} {a:>10.4f} {b:>10.4f} {b / a if a else float('nan'):>7.3f}")
    ratios = []
    for i, total in enumerate(totals, 1):
        ratios.append(total["b"] / total["a"] if total["a"] else float("nan"))
        print(f"round {i}: parent {total['a']:.4f} s  change {total['b']:.4f} s  ratio {ratios[-1]:.3f}")
    faster = sum(r < 1 for r in ratios)
    print(
        f"median round ratio {statistics.median(ratios):.3f} "
        f"(change faster in {faster} of {len(ratios)} rounds)"
    )
    p50, p99 = ({s: 1000 * percentile(best[s], q) for s in SIDES} for q in (0.50, 0.99))
    print(
        f"per-command min over rounds, ms: parent p50 {p50['a']:.3f} p99 {p99['a']:.3f}  "
        f"change p50 {p50['b']:.3f} p99 {p99['b']:.3f}"
    )
    per_op = [b / a for a, b in zip(best["a"], best["b"]) if a > 0]
    if per_op:
        q1, q2, q3 = (percentile(per_op, q) for q in (0.25, 0.50, 0.75))
        print(f"per-command ratio quartiles: {q1:.3f} {q2:.3f} {q3:.3f} (over {len(per_op)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
