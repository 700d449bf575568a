"""Verdict containers.

A Report is a named suite of per-identity verdicts.  Each failing identity
carries the lexicographically-first failing basis tuple (as a tuple of basis
labels) and the exact residual vector, rendered as scalar strings.  Reports
are immutable and render deterministically, so output is byte-identical
across runs.

A check made by `linalg.check_laws` or `check_law` is deferred: its verdict
(`passed`, `witness`, `residual`) is computed, by the identity checker of
`linalg`, the first time one of them is read, then kept, so a caller that
stops at the first failing law pays for the laws it read.  A `ShapeError`
from a deferred law's chains surfaces at that first read, and at every read
after it.  A failure from that checker knows `passed` at once; its witness
and residual are rendered the first time either is read, so a caller that
reads only `passed` renders nothing, and the rendering runs in the layer of
the code that reads them.  A check keeps its verdict in one box, a list
[passed, details] that every renamed copy (`renamed`, `Report.prefixed`)
shares, so a copy and its original compute their verdict, the details
included, once.  Rendering, `to_dict`, `==`, `hash`, `repr` and pickling
read every verdict in full.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, dataclass, field


# the details of every check made with neither witness nor residual, most of
# them passing: one shared tuple, not one per check
_NO_DETAILS = (None, None)


class IdentityCheck:
    """One identity's verdict: `name`, `passed`, and for a failure the first
    failing basis tuple (`witness`) and the rendered residual.

    A check is made in one of three ways.  `IdentityCheck(name, passed,
    witness, residual)` holds a computed verdict.  `deferred(name, compute)`
    holds a zero-argument `compute` returning a check, run the first time a
    verdict field is read, and takes that check's verdict under its own name.
    `failed(name, details)` is a failure: `passed` is False at once, and the
    zero-argument `details` returns (witness, residual), run the first time
    either is read.  A deferred check whose computation returns such a failure
    adopts it without running `details`.
    """

    # `_box` is [passed, details], one list shared with every renamed copy:
    # [None, compute] until `compute` has run, then [passed, details], details
    # being (witness, residual) or the zero-argument callable that gives them
    __slots__ = ("name", "_box")

    def __init__(
        self,
        name: str,
        passed: bool,
        witness: tuple[str, ...] | None = None,
        residual: tuple[str, ...] | None = None,
    ):
        details = _NO_DETAILS if witness is None and residual is None else (witness, residual)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_box", [passed, details])

    @classmethod
    def _sharing(cls, name: str, box: list) -> IdentityCheck:
        check = object.__new__(cls)
        object.__setattr__(check, "name", name)
        object.__setattr__(check, "_box", box)
        return check

    @classmethod
    def deferred(cls, name: str, compute) -> IdentityCheck:
        return cls._sharing(name, [None, compute])

    @classmethod
    def failed(cls, name: str, details) -> IdentityCheck:
        return cls._sharing(name, [False, details])

    @property
    def passed(self) -> bool:
        box = self._box
        passed = box[0]
        if passed is None:
            # the one point where a verdict resolves: the computed check's
            # details are adopted unread, through its own box, so a failure
            # renders once for it and for every check that adopted it
            computed = box[1]()
            passed = computed.passed
            details = computed._box[1]
            box[1] = details if type(details) is tuple else computed._details
            box[0] = passed
        return passed

    def _details(self) -> tuple:
        box = self._box
        if box[0] is None:
            self.passed
        details = box[1]
        if type(details) is not tuple:
            details = box[1] = details()
        return details

    @property
    def witness(self) -> tuple[str, ...] | None:
        return self._details()[0]

    @property
    def residual(self) -> tuple[str, ...] | None:
        return self._details()[1]

    def renamed(self, name: str) -> IdentityCheck:
        """The same verdict under another name; a pending one is computed once for both."""
        return self._sharing(name, self._box)

    def _fields(self) -> tuple:
        return (self.name, self.passed, *self._details())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        name, passed, witness, residual = self._fields()
        return (
            f"IdentityCheck(name={name!r}, passed={passed!r}, "
            f"witness={witness!r}, residual={residual!r})"
        )

    def __reduce__(self):
        return type(self), self._fields()

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": self.passed}
        if not self.passed:
            d["witness"] = list(self.witness) if self.witness is not None else None
            d["residual"] = list(self.residual) if self.residual is not None else None
        return d


@dataclass(frozen=True)
class Report:
    suite: str
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def prefixed(self, prefix: str) -> tuple[IdentityCheck, ...]:
        """The checks re-labelled under `prefix:`, for merging into a bigger report."""
        return tuple(c.renamed(f"{prefix}:{c.name}") for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            if c.passed:
                lines.append(f"  [PASS] {c.name}")
            else:
                w, r = render_tuple(c.witness), render_tuple(c.residual)
                lines.append(f"  [FAIL] {c.name}  witness={w}  residual={r}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def render_tuple(t: tuple[str, ...] | None) -> str:
    """A witness or residual as text: `(a, b)`, or `-` when it is None or empty."""
    return "(" + ", ".join(t) + ")" if t else "-"


def merge(suite: str, *parts) -> Report:
    """Collect Reports, bare IdentityChecks, and prefixed() tuples into one Report."""
    checks: list[IdentityCheck] = []
    for part in parts:
        if isinstance(part, IdentityCheck):
            checks.append(part)
        elif isinstance(part, Report):
            checks.extend(part.checks)
        else:
            checks.extend(part)
    return Report(suite, tuple(checks))


class PreconditionError(Exception):
    """A construction's verified precondition failed; carries the inner report."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report
