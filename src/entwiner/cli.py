"""Command-line driver.

Four commands: `verify` runs one check on one instance, `suite` runs the
registry-wide rows, `construct` emits built objects in the structure-file
format, and `list` enumerates what is available.  Exit codes are a stable
contract: 0 pass, 1 fail (or a failed construction precondition, with the
inner report printed), 2 usage or input error.

Instances are named either by a registry expression (see `entwiner list`)
or by `FILE.json:objectname`.

Each command-line noun is written once, in one table that resolves it,
refuses what it lacks and feeds `list`: `CHECKS`, `CONSTRUCTIONS`, and the
registry's tables of names and instance heads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import lru_cache, partial

from .entwine import (
    EntwiningData,
    check_coproduct_iff,
    check_product_iff,
    dualize_cosemi,
    factorization_product,
    intertwining_from_semi,
    make_biproduct,
    verify,
)
from .fields import FieldError, field_from_tag
from .linalg import LinearMap, ShapeError
from .registry import (
    ALGEBRA_NAMES,
    BIALGEBRA_NAMES,
    COALGEBRA_NAMES,
    INSTANCE_GRAMMAR,
    INSTANCE_NAMES,
    algebra,
    bialgebra,
    make_comm_twist,
    make_mult_twist,
    resolve_instance,
)
from .report import PreconditionError, Report, render_tuple
from .serial import FormatError, decode_json, document, emit, ensure_space, load, read_text
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    ComoduleCoaction,
    ModuleAction,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_comodule,
    check_module,
)
from .suite import ROW_NAMES, run_suite
from .tambara import (
    GeneratorAction,
    action_from_semi,
    check_action_roundtrip,
    check_cotambara_relations,
    check_tambara_relations,
    semi_from_action,
)
from .yangbaxter import (
    TypeIISystem,
    WXZSystem,
    check_braided_algebra,
    check_qybe,
    check_r_commutative,
    check_type2,
    check_wxz,
    check_yb_operator,
    make_algebra_rmatrix,
    make_type2_family,
)

# ---------------------------------------------------------------------------
# target resolution


def _resolve_target(arg: str, field, explicit_tag):
    head, sep, tail = arg.rpartition(":")
    if sep and head.endswith(".json"):
        sf = load(head)
        if explicit_tag and sf.field != field:
            raise FormatError(
                f"file declares field '{sf.field.tag}' but --field says '{field.tag}'"
            )
        return sf[tail]
    return resolve_instance(arg, field)


def _entwining(obj, kind: str) -> EntwiningData:
    """obj re-declared as `kind`; the kind table refuses data lacking a structure it needs."""
    if not isinstance(obj, EntwiningData):
        raise ShapeError(f"needs entwining data, got {type(obj).__name__}")
    try:
        return replace(obj, kind=kind)
    except ShapeError as exc:
        raise ShapeError(
            f"an instance of kind {obj.kind!r} cannot be read as {kind!r}: {exc}"
        ) from None


def _psi_of(obj) -> LinearMap:
    if isinstance(obj, LinearMap):
        return obj
    if isinstance(obj, EntwiningData):
        return obj.psi
    raise ShapeError(f"this check needs a map, got {type(obj).__name__}")


def _on_entwining(check, kind: str):
    """A CHECKS entry running `check` on the target re-declared as `kind`."""

    def run(obj) -> Report:
        return check(_entwining(obj, kind))

    return run


def _on_psi(check):
    """A CHECKS entry running `check` on the target's map."""

    def run(obj) -> Report:
        return check(_psi_of(obj))

    return run


def _check_braid_only(psi: LinearMap) -> Report:
    return Report("braid", (check_yb_operator(psi).check("braid"),))


def _check_generator_relations(obj) -> Report:
    if isinstance(obj, GeneratorAction):
        return check_tambara_relations(obj)
    return check_tambara_relations(action_from_semi(_entwining(obj, "semi")))


def _self_entwining(e: EntwiningData, what: str) -> EntwiningData:
    if e.left_space != e.algebra.space:
        raise ShapeError(f"{what} needs an entwining of the algebra with itself")
    return e


def _check_braided(e: EntwiningData) -> Report:
    return check_braided_algebra(e.algebra, _self_entwining(e, "braided-algebra").psi)


def _check_r_comm(e: EntwiningData) -> Report:
    return check_r_commutative(e.algebra, _self_entwining(e, "r-commutative").psi)


# the type of a target -> its declared check, the `verify` default
DECLARED = {
    EntwiningData: verify,
    Bialgebra: check_bialgebra,
    Algebra: check_algebra,
    Coalgebra: check_coalgebra,
    ModuleAction: check_module,
    ComoduleCoaction: check_comodule,
    GeneratorAction: check_tambara_relations,
    WXZSystem: lambda s: check_wxz(s.w, s.x, s.z),
    TypeIISystem: check_type2,
    LinearMap: check_yb_operator,
}


def _check_declared(obj) -> Report:
    check = DECLARED.get(type(obj))
    if check is None:
        raise ShapeError(f"no declared check for {type(obj).__name__}")
    return check(obj)


CHECKS = {
    "declared": _check_declared,
    "semi-entwining": _on_entwining(verify, "semi"),
    "algebra-factorization": _on_entwining(verify, "factorization"),
    "cosemi-entwining": _on_entwining(verify, "cosemi"),
    "coalgebra-factorization": _on_entwining(verify, "cofactorization"),
    "product-iff": _on_entwining(check_product_iff, "factorization"),
    "coproduct-iff": _on_entwining(check_coproduct_iff, "cofactorization"),
    "intertwining": _on_entwining(intertwining_from_semi, "semi"),
    "generator-relations": _check_generator_relations,
    "cogenerator-relations": _on_entwining(check_cotambara_relations, "cosemi"),
    "action-roundtrip": _on_entwining(check_action_roundtrip, "semi"),
    "yb-operator": _on_psi(check_yb_operator),
    "qybe": _on_psi(check_qybe),
    "braid": _on_psi(_check_braid_only),
    "braided-algebra": _on_entwining(_check_braided, "semi"),
    "r-commutative": _on_entwining(_check_r_comm, "semi"),
}


def cmd_verify(args) -> int:
    field = field_from_tag(args.field or "q")
    obj = _resolve_target(args.instance, field, args.field)
    handler = CHECKS.get(args.check)
    if handler is None:
        raise ShapeError(
            f"unknown check '{args.check}' (known: {', '.join(sorted(CHECKS))})"
        )
    rep = handler(obj)
    sys.stdout.write(rep.to_json() if args.json else rep.render())
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# suite


def _grid_rows(value: str):
    if os.path.exists(value):
        doc = decode_json(read_text(value, "grid file"), "grid file")
        rows = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
            raise FormatError("grid file must be an object with a 'rows' list of names")
        return rows
    return [r.strip() for r in value.split(",") if r.strip()]


def cmd_suite(args) -> int:
    field = field_from_tag(args.field or "q")
    rows = _grid_rows(args.grid) if args.grid is not None else None
    results = run_suite(field.tag, rows, jobs=args.jobs)
    if args.json:
        doc = {"field": field.tag, "rows": [rep.to_dict() for _, rep in results]}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        total = failed = 0
        for name, rep in results:
            bad = rep.failures()
            total += len(rep.checks)
            failed += len(bad)
            status = "PASS" if rep.passed else "FAIL"
            sys.stdout.write(
                f"row {name}: {status} ({len(rep.checks) - len(bad)}/{len(rep.checks)})\n"
            )
            for c in bad:
                sys.stdout.write(f"  [FAIL] {c.name}  witness={render_tuple(c.witness)}\n")
        sys.stdout.write(f"total: {total - failed}/{total} checks passed\n")
    return 0 if all(rep.passed for _, rep in results) else 1


# ---------------------------------------------------------------------------
# construct


def _twist_file(make, field, explicit_tag, name, qs):
    a = algebra(name, field)
    return [("A-space", a.space), ("A", a), ("psi", make(a, field.parse(qs)))]


def _rmatrix_file(field, explicit_tag, name, rs, ss):
    a = algebra(name, field)
    return [("A-space", a.space), ("W", make_algebra_rmatrix(a, field.parse(rs), field.parse(ss)))]


def _type2_file(field, explicit_tag, name, l1, l2):
    a = algebra(name, field)
    ts = make_type2_family(a, field.parse(l1), field.parse(l2))
    return [("A-space", a.space), *zip("abcd", (ts.a, ts.b, ts.c, ts.d)), ("system", ts)]


def _biproduct_file(field, explicit_tag, hname, expr, integral=None):
    h = bialgebra(hname, field)
    e = _entwining(_resolve_target(expr, field, explicit_tag), "semi")
    if integral is not None:
        integral = tuple(field.parse(s) for s in integral.split(":"))
    result = make_biproduct(h, e.left_space, e.psi, integral=integral)
    if not result.report.passed:
        raise PreconditionError("the biproduct preconditions fail", result.report)
    cg, e_sp = h.coalgebra, result.algebra.space
    objects = [(None, h.space), ("H", h), ("H-coalgebra", cg), ("E-space", e_sp)]
    objects += [("E", result.algebra), ("coaction", ComoduleCoaction(cg, e_sp, result.coaction))]
    if result.integral_coaction is not None:
        objects.append(("integral-coaction", ComoduleCoaction(cg, e_sp, result.integral_coaction)))
    return objects


def _product_file(field, explicit_tag, expr):
    e = _entwining(_resolve_target(expr, field, explicit_tag), "factorization")
    prod = factorization_product(e.algebra, e.left_algebra, e.psi)
    return [(None, prod.space), ("E", prod)]


def _semi_file(e: EntwiningData):
    return [(None, e.algebra.space), (None, e.left_space), ("A", e.algebra), ("psi", e)]


def _dualize_file(field, explicit_tag, expr):
    e = _entwining(_resolve_target(expr, field, explicit_tag), "cosemi")
    return _semi_file(dualize_cosemi(e.coalgebra, e.left_space, e.psi))


def _action_file(field, explicit_tag, expr):
    g = action_from_semi(_entwining(_resolve_target(expr, field, explicit_tag), "semi"))
    return [(None, g.algebra.space), (None, g.carrier), ("A", g.algebra), ("action", g)]


def _entwining_file(field, explicit_tag, expr):
    obj = _resolve_target(expr, field, explicit_tag)
    if not isinstance(obj, GeneratorAction):
        raise ShapeError("construct entwining needs a generator action")
    return _semi_file(semi_from_action(obj))


# construction -> (its parameters, optional ones in brackets, and the builder
# of the file's named objects in emission order, called with the field, the
# --field tag and the parameters).  An object named None is a space, written
# as its atomic spaces.
CONSTRUCTIONS = {
    "mult_twist": ("ALGEBRA q", partial(_twist_file, make_mult_twist)),
    "comm_twist": ("ALGEBRA q", partial(_twist_file, make_comm_twist)),
    "rmatrix": ("ALGEBRA r s", _rmatrix_file),
    "type2": ("ALGEBRA lam lam2", _type2_file),
    "biproduct": ("BIALGEBRA INSTANCE [INTEGRAL]", _biproduct_file),
    "product": ("INSTANCE", _product_file),
    "dualize": ("INSTANCE", _dualize_file),
    "action": ("INSTANCE", _action_file),
    "entwining": ("ACTION", _entwining_file),
}


def cmd_construct(args) -> int:
    field = field_from_tag(args.field or "q")
    if args.what not in CONSTRUCTIONS:
        raise ShapeError(
            f"unknown construction '{args.what}' (known: {', '.join(sorted(CONSTRUCTIONS))})"
        )
    params, build = CONSTRUCTIONS[args.what]
    words = params.split()
    if not sum(not w.startswith("[") for w in words) <= len(args.params) <= len(words):
        raise ShapeError(f"usage: construct {args.what} {params}")
    sf = document(field)
    for name, obj in build(field, args.field, *args.params):
        if name is None:
            ensure_space(sf, obj)
        else:
            sf.add(name, obj)
    sys.stdout.write(emit(sf))
    return 0


# ---------------------------------------------------------------------------
# list


def cmd_list(args) -> int:
    sections = (
        ("algebras", list(ALGEBRA_NAMES)),
        ("bialgebras", list(BIALGEBRA_NAMES)),
        ("coalgebras", list(COALGEBRA_NAMES)),
        ("instances", list(INSTANCE_NAMES)),
        ("instance-grammar", list(INSTANCE_GRAMMAR)),
        ("checks", sorted(CHECKS)),
        ("constructions", sorted(CONSTRUCTIONS)),
        ("suite-rows", list(ROW_NAMES)),
    )
    if args.json:
        sys.stdout.write(json.dumps(dict(sections), indent=2) + "\n")
    else:
        for title, names in sections:
            sys.stdout.write(f"{title}:\n")
            for n in names:
                sys.stdout.write(f"  {n}\n")
    return 0


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    return _parser()


# argparse takes about a millisecond to build the tree, so in-process callers of
# `main` share one parser; `parse_args` leaves it unchanged and looks up
# sys.stderr only when it reports an error.  The public function stays a plain
# function, so a tracer can still wrap it.
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entwiner",
        description="exact verification of entwining structures over Q or F_p",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one check on one instance")
    v.add_argument("instance", help="registry expression or FILE.json:name")
    v.add_argument("--check", default="declared", help="check name (see `list`)")
    v.add_argument("--field", default=None, help="q or fp:<p> (default q)")
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("suite", help="run the registry-wide verification rows")
    s.add_argument("--grid", default=None, help="grid file or comma-separated row names")
    s.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    s.add_argument("--field", default=None, help="q or fp:<p> (default q)")
    s.add_argument("--json", action="store_true", help="machine-readable report")
    s.set_defaults(func=cmd_suite)

    c = sub.add_parser("construct", help="emit a built object as a structure file")
    c.add_argument("what", help="construction name (see `list`)")
    c.add_argument("params", nargs="*", help="construction arguments")
    c.add_argument("--field", default=None, help="q or fp:<p> (default q)")
    c.set_defaults(func=cmd_construct)

    l = sub.add_parser("list", help="enumerate registry names, checks, constructions")
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        sys.stdout.write(f"construction precondition failed: {exc}\n")
        if exc.report is not None:
            if getattr(args, "json", False):
                sys.stdout.write(exc.report.to_json())
            else:
                sys.stdout.write(exc.report.render())
        return 1
    except (ShapeError, FormatError, FieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
