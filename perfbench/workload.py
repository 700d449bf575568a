"""One workload, run in a fresh interpreter.

    python3 perfbench/workload.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/workload.py --workload W --seed N --out DIR --setup-only

`run.py` starts this process; it is not meant to be run by hand.  The
process imports `entwiner.cli` from `src/`, builds the workload's inputs, then
calls `entwiner.cli.main(argv)` in process with stdout captured, closed loop
with one client.  It writes `DIR/result.json`: pass wall times, per-command
latencies normalised by the host's speed (`hostspeed.py`), the exit code and
stdout digest of every command run, peak RSS, and, with `--trace 1`, the
per-layer figures.  `run.py` checks the outputs against the expected file
and prints the metrics.

The process pins itself to one CPU: a process that moves between the cores
of a shared host picks up the contention of each, which widens the spread of
its timings.  With `--trace 0` it runs one warm-up pass, reads the peak RSS,
then runs timed passes until the next one would end after `S` seconds from
the start of the warm-up (at least one).  With `--trace 1` it runs one
untraced pass and then one traced pass; their ratio is
`trace.overhead_ratio`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mix  # noqa: E402

WORKLOADS = ("suite-q", "cli-mix")
SUITE_ARGV = {"suite-q": ("suite", "--json")}


def run_command(cli, argv) -> tuple[int, str]:
    """Call `cli.main(argv)` in process; return (exit code, stdout text).

    `main` is looked up on each call, so a traced run calls the wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_cli(root: str):
    """Import `entwiner.cli` from the checkout's `src/`, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import entwiner.cli

    if not os.path.abspath(entwiner.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"entwiner imported from {entwiner.cli.__file__}, not {src}")
    return entwiner.cli


def build_inputs(workload: str, seed: int, cli, work: str) -> list:
    """The (group, argv template) operations of one pass; writes set-up files."""
    if workload in SUITE_ARGV:
        return [("suite", SUITE_ARGV[workload])]
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    files_dir = os.path.join(work, "files")
    os.makedirs(files_dir, exist_ok=True)
    for name, argv in catalogue["files"]:
        _, text = run_command(cli, mix.expand(argv, files_dir))
        with open(os.path.join(files_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return mix.draw(catalogue, seed)


class Pass:
    """Runs the operations and records latencies and outcomes."""

    def __init__(self, cli, ops, work: str):
        self.cli = cli
        self.ops = ops
        self.files_dir = os.path.join(work, "files")
        self.emitted = os.path.join(work, "emitted.json")
        self.outcomes: dict[str, dict[str, int]] = {}

    def run(self, record: bool = True, sampler=None) -> tuple[float, list[float]]:
        """One pass; return (wall time, per-command times).

        With a running `hostspeed.Sampler`, the time its slices take is left
        out, and each command's time is normalised by the slices near it.
        """
        clock = time.perf_counter
        spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
        lat, spans = [], []
        start, start_spent = clock(), spent()
        for group, argv in self.ops:
            real = mix.expand(argv, self.files_dir)
            t0, s0 = clock(), spent()
            try:
                rc, out = run_command(self.cli, real)
                if group == "emit":
                    with open(self.emitted, "w", encoding="utf-8") as fh:
                        fh.write(out)
                outcome = f"{rc}:{digest(out)}"
            except Exception as exc:  # a traceback is a failed operation
                outcome = f"raised:{type(exc).__name__}"
            t1 = clock()
            lat.append(t1 - t0 - (spent() - s0))
            spans.append((t0, t1))
            if record:
                seen = self.outcomes.setdefault(mix.key(argv), {})
                seen[outcome] = seen.get(outcome, 0) + 1
        wall = clock() - start - (spent() - start_spent)
        if sampler:
            lat = [t * sampler.scale(lo, hi) for t, (lo, hi) in zip(lat, spans)]
        return wall, lat


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    cli = import_cli(root)
    ops = build_inputs(args.workload, args.seed, cli, args.out)
    setup = time.perf_counter() - t0
    import hostspeed  # after set-up, so set-up pays only for what it imports
    import layers

    if args.setup_only:
        print(json.dumps({"setup_s": setup * hostspeed.scale_now(), "raw_setup_s": setup}))
        return 0

    p = Pass(cli, ops, args.out)
    result = {"ops_per_pass": len(ops)}
    walls, norm_walls, lats = [], [], []
    if args.trace:
        wall, _ = p.run()
        walls.append(wall)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced_wall, _ = p.run()
        finally:
            tracer.uninstall()
        walls.append(traced_wall)
        found = tracer.collect()
        found.values["trace.overhead_ratio"] = traced_wall / wall
        result["per_layer"] = found.values
        result["absent"] = found.absent
        tracer.write(os.path.join(root, ".perfbench", f"trace-{args.workload}.json"))
    else:
        start = time.perf_counter()
        p.run(record=False)  # warm-up; the peak RSS of the program alone
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with hostspeed.Sampler() as sampler:
            while True:
                wall, lat = p.run(sampler=sampler)
                walls.append(wall)
                norm_walls.append(sum(lat))
                lats.append(lat)
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(walls) > args.seconds:
                    break
        result["slice_s"] = statistics.median(sampler.durations)
    result.update(
        walls=walls,
        norm_walls=norm_walls,
        latencies=lats,
        outcomes=p.outcomes,
    )
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
