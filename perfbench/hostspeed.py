"""Host-speed reference for the benchmark's timings.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, with the load of its neighbours, and CPU time drifts with it
(the process is not descheduled; each instruction takes longer).  A
statistic computed inside one run cannot remove a drift slower than the
run, so the benchmark measures the host's speed alongside the program.

A reference slice is fixed Python work that does not touch the program:
`Fraction` arithmetic, dict work, `json.dumps` and an `argparse` parser, the
kinds of work `entwiner` spends its time on, and a walk in random order over
a table of 200,000 objects, which misses the caches as the program's heap
does.  When the host is loaded, the compute part alone slows down more than
the program and the walk less; their sum tracks both workloads.  On a 2-vCPU
x86_64 host it cut the standard deviation of log pass times from 0.12-0.14
to 0.05-0.06.  The table adds about 30 MB to the process, so `workload.py`
reads the peak RSS before building it.

While a pass runs, a `SIGALRM` timer runs one slice every `PERIOD_S` of wall
time, with the garbage collector off so the slice does not pay for the
program's heap.  The time the slices take is subtracted from the times they
fall into.  A time `t` measured while slices took `r` on median is reported
as `t * REF_S / r`: seconds at the host speed at which a slice takes `REF_S`.
A change to the program changes `t` and not `r`, so it shows in full.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
TABLE_SIZE = 200_000
WALK = 4000
# A fixed constant.  With it, normalised times come out close to the raw
# times of a lightly loaded 2-vCPU x86_64 host running CPython 3.11.
REF_S = 0.005
# A command is normalised by the slices within this many seconds of it.
NEAR_S = 0.3


_table: list[list] = []
_walk_at = [0]


def build_table() -> None:
    """The objects the slice walks; allocated in order, walked shuffled."""
    if not _table:
        objs = [[i, str(i)] for i in range(TABLE_SIZE)]
        order = list(range(TABLE_SIZE))
        random.Random(0).shuffle(order)
        _table.extend(objs[i] for i in order)


def reference_slice() -> int:
    """Fixed work whose cost depends only on the host and the interpreter."""
    at = _walk_at[0]
    walked = 0
    for k in range(at, at + WALK):
        obj = _table[k % TABLE_SIZE]
        walked += obj[0] + len(obj[1])
    _walk_at[0] = (at + WALK) % TABLE_SIZE
    x = Fraction(1, 3)
    rows = [[Fraction(i * j + 1, j + 2) for j in range(4)] for i in range(4)]
    for i in range(40):
        x = x * Fraction(3, 2) - x / 2 if i % 3 else x + 1
        x += sum(rows[i % 4][j] * rows[j][(i + 1) % 4] for j in range(4))
    acc: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7) % 31
        acc[k] = acc.get(k, 0) + i
    doc = {"rows": [{"name": f"r{i}", "ok": i % 2 == 0, "v": [i, i + 1]} for i in range(30)]}
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="cmd")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--check", choices=("x", "y", "z"))
        p.add_argument("--json", action="store_true")
        p.add_argument("expr")
    ns = parser.parse_args(["b", "--check", "y", "--json", "e"])
    return len(json.dumps(doc, sort_keys=True)) + len(acc) + len(ns.expr) + walked + x.denominator % 7


def timed_slice() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_slice()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs reference slices on a wall-clock timer and normalises times by them."""

    def __init__(self):
        build_table()
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside the timer handler

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.durations.append(timed_slice())
        self.starts.append(t0)
        self.spent += time.perf_counter() - t0

    def scale(self, lo: float, hi: float) -> float:
        """REF_S over the median slice time near the interval [lo, hi]."""
        i = bisect.bisect_left(self.starts, lo - NEAR_S)
        j = bisect.bisect_right(self.starts, hi + NEAR_S)
        if i == j:
            raise RuntimeError("no reference slice ran near a timed interval")
        return REF_S / statistics.median(self.durations[i:j])


def scale_now(n: int = 7) -> float:
    """REF_S over the median of `n` slices run now."""
    build_table()
    return REF_S / statistics.median(timed_slice() for _ in range(n))
