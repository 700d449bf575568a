"""The entwiner benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root; it needs nothing beyond the standard
library and the sources under `src/`.  Workloads (closed loop, one client,
no think time):

- `suite-q`: `entwiner suite --json`, serial, over Q, all ten rows.
- `cli-mix`: every command of `catalogue.json` once per pass, 2,546 short CLI
  commands over Q in an order shuffled by the seed: verdicts, constructions
  writing structure files, structure files read back, and requests that
  must exit 2 (see `mix.py`).

Each run checks every operation's exit code and stdout bytes against
`expected.json.gz`, after checking that file against known answers.  With
`--trace 0` it reports the end-to-end metrics, measured with tracing off.
Times are normalised by the host's speed as measured alongside them (see
`hostspeed.py`), because the speed of a shared host drifts by more than the
bounds over the minutes that the runs of one workload take:

- `setup_s`: median over seven fresh interpreters, four before the passes
  and three after, of importing `entwiner.cli` and building the inputs;
- `wall_s`: median over the passes of the time of one pass, the sum of its
  command times;
- `op_p50_ms`, `op_p99_ms`: per-command latency percentiles of each pass,
  median over the passes (a suite pass is one command);
- `peak_rss_mb`: peak resident memory of the workload's process.

With `--trace 1` it reports the per-layer metrics of `layers.py`.  The last
line of stdout is the JSON result; the lines before it give the machine, the
sample counts, `failed_op_ratio`, the times before normalisation and the
metrics with their units.  Work files go to `.perfbench/` under the
repository root.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import mix  # noqa: E402
from workload import WORKLOADS, digest  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 4, 3
CHILD_TIMEOUT_S = 170
KNOWN_INSTANCES = 29
KNOWN_SUITES = (("suite", "--json"), ("suite", "--json", "--field", "fp:7"))
# Verdicts fixed apart from the expected file.  The failing instances are the
# registry's negative examples (EXPECTED_FAIL in tests/test_entwine.py); the
# corrupt forms listed still pass because the bumped entry is one the axioms
# do not constrain (tests/test_cli.py shows one such case).
KNOWN_FAILING = frozenset(
    (
        "mult_twist@Kx2-2,q=2",
        "mult_twist@Kx3,q=1/2",
        "mult_twist@Kmono,q=-1",
        "comm_twist@M2,q=1",
        "dk-KZ2-regular",
        "dk-Kmono-regular",
    )
)
KNOWN_CORRUPT_PASSING = frozenset(
    (
        "mult_twist@Kx2-0,q=1",
        "mult_twist@Kx2-1,q=1",
        "mult_twist@KZ2,q=1",
        "quad@p=0,q=1",
        "quad@p=1,q=2",
        "quad@p=2,q=-1",
    )
)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def check_known_answers(doc: dict) -> None:
    """Refuse an expected file that disagrees with facts known about the program."""
    ops = doc["ops"]
    for argv in KNOWN_SUITES:
        rc, out = ops[mix.key(argv)]
        rows = json.loads(out)["rows"]
        if rc != 0 or [r["suite"] for r in rows] != list(layers.SUITE_ROWS):
            raise BenchError(f"expected output of {argv} does not list the ten suite rows")
        if not all(r["passed"] for r in rows):
            raise BenchError(f"expected output of {argv} has a failing row")
    names = doc["instances"]
    if len(names) != KNOWN_INSTANCES:
        raise BenchError(f"expected file lists {len(names)} instances, not {KNOWN_INSTANCES}")
    for name in names:
        for form, passes in (
            (name, name not in KNOWN_FAILING),
            ("corrupt:" + name, name in KNOWN_CORRUPT_PASSING),
        ):
            rc = ops[mix.key(["verify", "--json", form])][0]
            if rc != (0 if passes else 1):
                raise BenchError(f"expected file gives exit {rc} for verify --json {form}")


def load_expected(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    check_known_answers(doc)
    return doc


def count_failures(outcomes: dict, expected_ops: dict) -> tuple[int, int]:
    attempted = failed = 0
    for key, seen in outcomes.items():
        exp = expected_ops.get(key)
        want = f"{exp[0]}:{digest(exp[1])}" if exp is not None else None
        for outcome, n in seen.items():
            attempted += n
            if outcome != want:
                failed += n
    return attempted, failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(cmd: list[str], timeout: float) -> str:
    """Run a child in its own process group, with any process it starts.

    If the child overruns, or this process is interrupted or terminated, the
    whole group is killed and waited for.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")  # one hash layout in every child
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, env=env
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{cmd[1:4]} ran longer than {timeout} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:4]} exited with {proc.returncode}")
    return out


def environment(root: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            src.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {
        "machine": f"{platform.machine()} {platform.platform()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def measure(args, root: str, work: str) -> tuple[dict, dict]:
    """Run the workload; return (result JSON, facts for the human-readable lines)."""
    expected = load_expected(os.path.join(HERE, "expected.json.gz"))
    base = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload]
    base += ["--seed", str(args.seed)]
    setups = []

    def setup(n: int) -> None:
        for _ in range(0 if args.trace else n):
            out_dir = os.path.join(work, f"setup{len(setups)}")
            out = run_child(base + ["--out", out_dir, "--setup-only"], CHILD_TIMEOUT_S)
            setups.append(json.loads(out.strip().splitlines()[-1]))

    setup(SETUP_BEFORE)
    run_child(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", work],
        CHILD_TIMEOUT_S,
    )
    setup(SETUP_AFTER)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        res = json.load(fh)
    attempted, failed = count_failures(res["outcomes"], expected["ops"])
    if attempted == 0:
        raise BenchError("the workload ran no operations")
    facts = {
        "setup_samples": len(setups),
        "passes": len(res["walls"]),
        "raw_wall_s": statistics.median(res["walls"]),
        "slice_s": res.get("slice_s"),
        "ops_per_pass": res["ops_per_pass"],
        "failed_op_ratio": failed / attempted,
    }
    if args.trace:
        units = {name: unit for name, unit, _, _ in layers.METRICS}
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in res["per_layer"].items()
        }
        facts["absent"] = res["absent"]
    else:
        facts["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        lats = res["latencies"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(res["norm_walls"]),
            "op_p50_ms": 1000 * statistics.median(percentile(p, 0.50) for p in lats),
            "op_p99_ms": 1000 * statistics.median(percentile(p, 0.99) for p in lats),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, facts


def main() -> int:
    ap = argparse.ArgumentParser(description="entwiner benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entwiner", "cli.py")):
        print("error: run from the repository root; src/entwiner is missing", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, facts = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": environment(root)}))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {facts['passes']} passes of "
        f"{facts['ops_per_pass']} commands, each pass giving {facts['ops_per_pass']} latency "
        f"samples; setup_s over {facts['setup_samples']} fresh interpreters"
    )
    print(f"  failed_op_ratio {facts['failed_op_ratio']:.6g} ratio")
    if not args.trace:
        print(
            f"  not normalised: wall {facts['raw_wall_s']:.6g} s, setup "
            f"{facts['raw_setup_s']:.6g} s; reference slice median {facts['slice_s']:.6g} s "
            f"(REF_S {hostspeed.REF_S} s)"
        )
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, why in facts.get("absent", {}).items():
        print(f"  {name} absent: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
