"""Per-layer tracing of `entwiner`, done from outside the program.

`Tracer.install()` wraps every public function and public method of every
`entwiner.*` module, and rebinds each wrapper in every namespace that holds
the original: modules that re-bind it through `from .x import y`, the
package namespace, and module-level dicts such as `suite.ROW_BUILDERS`.
Each wrapped call is a span; a span's self time is its duration minus the
part its child spans cover, and a layer's self time is the sum over the
spans of its module.  Element arithmetic of `F_p` (`+ - * neg` of the `Fp`
int subclass) is counted but not timed; its time is in the caller's layer.

Spans stay in memory.  Calls shorter than `SPAN_MIN_S` are kept only as
per-function totals, so memory stays bounded on long runs.  Only the traced
process is measured: if a traced `suite --jobs N` with N > 1 hands rows to
pool workers, the suite metrics are reported as absent.

A metric whose function no longer exists in the program is reported as
absent, never as zero.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import time
import types

SPAN_MIN_S = 0.001
FP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
SUITE_ROWS = (
    "twists",
    "product-iff",
    "biproduct",
    "coproduct-iff",
    "entwined-modules",
    "intertwining",
    "braided",
    "generator-actions",
    "yb-systems",
    "field-independence",
)
DENSE = ("linalg:compose", "linalg:kron", "linalg:twist", "linalg:identity", "linalg:materialize")

# metric prefix -> the function whose `.calls` and `.s` (inclusive time) it reports
FUNCTIONS = {
    "linalg.kron_apply": "linalg:KronApply.apply_sparse",
    "linalg.map_apply": "linalg:LinearMap.apply_sparse",
    "linalg.chain_build": "linalg:KronApply.__init__",
    "linalg.check_map_identity": "linalg:check_map_identity",
    "cli.main": "cli:main",
    "registry.resolve": "registry:resolve_instance",
    "serial.parse": "serial:parse",
    "serial.emit": "serial:emit",
}

SUITES = "wall_s on suite-q"
# name, unit, better, which end-to-end metric on which workload it should move
METRICS = (
    ("linalg.kron_apply.calls", "count", "lower", SUITES),
    ("linalg.kron_apply.in_terms", "count", "lower", SUITES),
    ("linalg.kron_apply.s", "s", "lower", SUITES),
    ("linalg.map_apply.calls", "count", "lower", SUITES),
    ("linalg.map_apply.s", "s", "lower", SUITES),
    ("linalg.chain_build.calls", "count", "lower", SUITES),
    ("linalg.chain_build.s", "s", "lower", SUITES),
    ("linalg.identity_leg_ratio", "ratio", "lower", SUITES),
    ("linalg.columns_streamed", "count", "lower", SUITES),
    ("linalg.check_map_identity.calls", "count", "lower", SUITES),
    ("linalg.dense.calls", "count", "lower", SUITES),
    ("linalg.dense.s", "s", "lower", SUITES),
    ("linalg.self_s", "s", "lower", SUITES + "; little change on cli-mix"),
    ("fields.fp_ops", "count", "lower", "wall_s on suite-q, through field-independence over F_7"),
    ("fields.render.calls", "count", "lower", "wall_s on suite-q"),
    ("fields.self_s", "s", "lower", "wall_s on suite-q; none on cli-mix"),
    *((f"suite.row.{r}.s", "s", "lower", "wall_s on suite-q") for r in SUITE_ROWS),
    ("suite.row_builds", "count", "lower", "wall_s on suite-q; none on cli-mix"),
    ("suite.unique_pair_ratio", "ratio", "higher", "wall_s on suite-q; none on cli-mix"),
    *(
        (f"{m}.{k}", u, "lower", SUITES + "; op_p50_ms on cli-mix")
        for m in ("entwine", "tambara", "yangbaxter", "structures")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ),
    ("cli.main.calls", "count", "higher", "op_p50_ms and op_p99_ms on cli-mix"),
    ("cli.self_s", "s", "lower", "op_p50_ms and op_p99_ms on cli-mix; none on suites"),
    ("cli.exit.0", "count", "higher", "op_p50_ms on cli-mix"),
    ("cli.exit.1", "count", "lower", "op_p50_ms on cli-mix"),
    ("cli.exit.2", "count", "lower", "op_p50_ms on cli-mix"),
    ("registry.resolve.calls", "count", "lower", "op_p50_ms on cli-mix, and setup_s"),
    ("registry.self_s", "s", "lower", "op_p50_ms on cli-mix, and setup_s"),
    ("serial.parse.calls", "count", "lower", "op_p50_ms and op_p99_ms on cli-mix"),
    ("serial.parse.bytes", "bytes", "lower", "op_p50_ms and op_p99_ms on cli-mix"),
    ("serial.emit.calls", "count", "lower", "op_p50_ms and op_p99_ms on cli-mix"),
    ("serial.emit.bytes", "bytes", "lower", "op_p50_ms and op_p99_ms on cli-mix"),
    ("serial.self_s", "s", "lower", "op_p50_ms and op_p99_ms on cli-mix"),
    ("report.self_s", "s", "lower", "op_p50_ms on cli-mix and wall_s on the suites"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing, per workload"),
)

class Absent(Exception):
    """A metric's function or probe is missing from the program."""


def _is_identity(m) -> bool:
    rows = m.rows
    return all(len(row) == len(rows) for row in rows) and all(
        x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row)
    )


def _probe_kron_apply(t, args, kwargs, result, exc, dur):
    t.counts["kron_in_terms"] += len(args[1])


def _probe_chain_build(t, args, kwargs, result, exc, dur):
    legs = args[0].legs
    t.counts["legs_total"] += len(legs)
    t.counts["legs_identity"] += sum(1 for leg in legs if _is_identity(leg))


def _probe_parse(t, args, kwargs, result, exc, dur):
    t.counts["parse_bytes"] += len(args[0].encode("utf-8"))


def _probe_emit(t, args, kwargs, result, exc, dur):
    if result is not None:
        t.counts["emit_bytes"] += len(result.encode("utf-8"))


def _probe_main(t, args, kwargs, result, exc, dur):
    if exc is None:
        rc = result
    elif isinstance(exc, SystemExit):
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    else:
        rc = "raised"
    t.counts[f"exit.{rc}"] += 1


def _probe_run_row(t, args, kwargs, result, exc, dur):
    t.records["rows"].append((args[0], dur))


def _probe_row_build(qual, t, args, kwargs, result, exc, dur):
    t.records["builds"].append((qual, getattr(args[0], "tag", repr(args[0]))))


PROBES = {
    "linalg:KronApply.apply_sparse": _probe_kron_apply,
    "linalg:KronApply.__init__": _probe_chain_build,
    "serial:parse": _probe_parse,
    "serial:emit": _probe_emit,
    "cli:main": _probe_main,
    "suite:run_row": _probe_run_row,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.selfs: list[float] = []
        self.depth: list[int] = []
        self.counts = Counter()
        self.records: dict[str, list] = {"rows": [], "builds": [], "suite_runs": []}
        self.fp_ops = [0]
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.ids = itertools.count(1)
        self.broken: set[str] = set()
        self.missing: set[str] = set()
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import entwiner

        modules = [entwiner] + [
            importlib.import_module(f"entwiner.{m.name}")
            for m in pkgutil.iter_modules(entwiner.__path__)
        ]
        suite = next((m for m in modules if m.__name__ == "entwiner.suite"), None)
        builders = getattr(suite, "ROW_BUILDERS", None)
        builder_ids = {id(f) for f in builders.values()} if isinstance(builders, dict) else None
        if builder_ids is None:
            self.missing.add("suite:ROW_BUILDERS")

        wrappers: dict[int, tuple] = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    is_builder = builder_ids is not None and id(obj) in builder_ids
                    wrappers[id(obj)] = (obj, self._wrap(obj, is_builder))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, name, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            self._undo.append((obj.__setitem__, k, v))
                            obj[k] = wrappers[id(v)][1]
        fields = next((m for m in modules if m.__name__ == "entwiner.fields"), None)
        self._count_fp(fields)

    def uninstall(self) -> None:
        for restore, name, original in reversed(self._undo):
            restore(name, original)
        self._undo.clear()

    def _set(self, owner, name, value) -> None:
        self._undo.append((functools.partial(setattr, owner), name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_methods(self, cls) -> None:
        plain_init = not dataclasses.is_dataclass(cls)
        for name, obj in list(vars(cls).items()):
            if isinstance(obj, types.FunctionType) and (
                not name.startswith("_") or (name == "__init__" and plain_init)
            ):
                self._set(cls, name, self._wrap(obj, False))

    def _count_fp(self, fields) -> None:
        make = getattr(fields, "_fp_class", None)
        cache = getattr(fields, "_fp_element_classes", None)
        if make is None or not isinstance(cache, dict):
            self.missing.add("fields:_fp_class")
            return
        counted = set()

        def count_ops(cls):
            if cls not in counted:
                counted.add(cls)
                for op in FP_OPS:
                    if op in vars(cls):
                        self._set(cls, op, self._counter(vars(cls)[op]))
            return cls

        for cls in list(cache.values()):
            count_ops(cls)

        @functools.wraps(make)
        def fp_class(p):
            return count_ops(make(p))

        self._set(fields, "_fp_class", fp_class)

    def _counter(self, fn):
        box = self.fp_ops

        def counted(*args):
            box[0] += 1
            return fn(*args)

        return counted

    def _wrap(self, fn, is_builder: bool):
        qual = f"{fn.__module__.rpartition('.')[2]}:{fn.__qualname__}"
        fid = len(self.names)
        self.names.append(qual)
        for arr, zero in ((self.calls, 0), (self.incl, 0.0), (self.selfs, 0.0), (self.depth, 0)):
            arr.append(zero)
        probe = PROBES.get(qual)
        if qual == "suite:run_suite":
            probe = self._suite_probe(fn)
        elif is_builder:
            probe = functools.partial(_probe_row_build, qual)
        tracer, stack, spans = self, self.stack, self.spans
        calls, incl, selfs, depth = self.calls, self.incl, self.selfs, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(tracer.ids), 0.0]
            stack.append(frame)
            depth[fid] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                depth[fid] -= 1
                calls[fid] += 1
                selfs[fid] += dur - frame[1]
                if not depth[fid]:
                    incl[fid] += dur
                if parent is not None:
                    parent[1] += dur
                if parent is None or dur >= SPAN_MIN_S:
                    spans.append((frame[0], parent[0] if parent else None, fid, t0, t1))
                if probe is not None and qual not in tracer.broken:
                    try:
                        probe(tracer, args, kwargs, result, exc, dur)
                    except Exception:  # the program changed shape under the probe
                        tracer.broken.add(qual)

        return traced

    def _suite_probe(self, fn):
        sig = inspect.signature(fn)

        def probe(t, args, kwargs, result, exc, dur):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            t.records["suite_runs"].append(bound.arguments.get("jobs") or 1)

        return probe

    # -- results ----------------------------------------------------------

    def payload(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "incl": self.incl,
            "selfs": self.selfs,
            "counts": dict(self.counts),
            "records": self.records,
            "fp_ops": self.fp_ops[0],
            "broken": sorted(self.broken),
            "spans": [[sid, parent, self.names[fid], t0, t1] for sid, parent, fid, t0, t1 in self.spans],
        }

    def collect(self) -> Layers:
        """The per-layer metrics of what has been traced so far."""
        return Layers(self.payload(), self.missing)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)


class Layers:
    """Per-layer metrics computed from a tracer's payload."""

    def __init__(self, payload: dict, missing: set[str]):
        self.fn: dict[str, list] = {}
        for name, c, i, s in zip(payload["names"], payload["calls"], payload["incl"], payload["selfs"]):
            agg = self.fn.setdefault(name, [0, 0.0, 0.0])
            agg[0] += c
            agg[1] += i
            agg[2] += s
        self.counts = Counter(payload["counts"])
        self.records = payload["records"]
        self.fp_ops = payload["fp_ops"]
        self.broken: set[str] = set(missing) | set(payload["broken"])
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        for name, *_ in METRICS:
            if name == "trace.overhead_ratio":
                continue
            try:
                self.values[name] = self._metric(name)
            except Absent as exc:
                self.absent[name] = str(exc)

    def _need(self, *quals):
        for q in quals:
            if q not in self.fn:
                raise Absent(f"{q} no longer exists")
            if q in self.broken:
                raise Absent(f"the probe on {q} no longer fits the program")
        return [self.fn[q] for q in quals]

    def _module(self, mod: str, idx: int):
        vals = [v[idx] for q, v in self.fn.items() if q.startswith(mod + ":")]
        if not vals:
            raise Absent(f"module {mod} has no traced functions")
        return sum(vals)

    def _suite_rows_traced(self):
        if any(jobs > 1 for jobs in self.records["suite_runs"]):
            raise Absent("suite rows ran in untraced pool workers")

    def _metric(self, name: str) -> float:
        parts = name.split(".")
        head = ".".join(parts[:-1])
        if head in FUNCTIONS and parts[-1] in ("calls", "s"):
            calls, incl, _ = self._need(FUNCTIONS[head])[0]
            return calls if parts[-1] == "calls" else incl
        if name == "linalg.kron_apply.in_terms":
            self._need(FUNCTIONS["linalg.kron_apply"])
            return self.counts["kron_in_terms"]
        if name == "linalg.identity_leg_ratio":
            self._need(FUNCTIONS["linalg.chain_build"])
            total = self.counts["legs_total"]
            return self.counts["legs_identity"] / total if total else 0.0
        if name == "linalg.columns_streamed":
            return self._need("linalg:chain_apply_basis")[0][0]
        if head == "linalg.dense":
            fns = self._need(*DENSE)
            return sum(f[0] if parts[-1] == "calls" else f[1] for f in fns)
        if name == "fields.fp_ops":
            if "fields:_fp_class" in self.broken:
                raise Absent("fields._fp_class no longer exists")
            return self.fp_ops
        if name == "fields.render.calls":
            quals = [q for q in self.fn if q.startswith("fields:") and q.endswith(".render")]
            if not quals:
                raise Absent("no field class has a render method")
            return sum(c for c, _, _ in self._need(*quals))
        if parts[0] == "suite" and parts[1] == "row" and len(parts) == 4:
            self._need("suite:run_row")
            self._suite_rows_traced()
            return sum(d for row, d in self.records["rows"] if row == parts[2])
        if name in ("suite.row_builds", "suite.unique_pair_ratio"):
            if "suite:ROW_BUILDERS" in self.broken:
                raise Absent("suite.ROW_BUILDERS no longer exists")
            self._suite_rows_traced()
            builds = [tuple(b) for b in self.records["builds"]]
            if name == "suite.row_builds":
                return len(builds)
            return len(set(builds)) / len(builds) if builds else 0.0
        if name in ("serial.parse.bytes", "serial.emit.bytes"):
            self._need(FUNCTIONS[head])
            return self.counts[f"{parts[1]}_bytes"]
        if parts[0] == "cli" and parts[1] == "exit":
            self._need("cli:main")
            return self.counts[f"exit.{parts[2]}"]
        if len(parts) == 2 and parts[1] == "self_s":
            return self._module(parts[0], 2)
        if len(parts) == 2 and parts[1] == "calls":
            return self._module(parts[0], 0)
        raise Absent(f"no rule computes {name}")
