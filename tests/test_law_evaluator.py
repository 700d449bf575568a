"""Law verdicts against an evaluator that shares no kernel code, and `check_laws`
against `check_law` row by row.

`reference.law_verdict` binds a law's layers itself and reads map entries
only (see `tests/reference.py`), so a defect in the block schedule, the dense
fill, the Kronecker layout or the binding of `linalg` cannot pass both.  The
sweeps capture every (law, maps) that `check_law` and `check_laws` receive,
and recompute each one: while `verify` checks each registry instance in its
plain, `corrupt:` and `dual:` forms, and while every `--check` of
`entwiner verify` runs on each of them, over Q and F_7, the verify group of
`tools/output_digest.py`; and while the `generator-actions` suite row runs,
the one caller of the refinement rows, which no `--check` binds.
`action-roundtrip` runs and captures nothing: it compares maps with
`LinearMap.same_matrix`, and binds no law.
"""

import pytest

from entwiner import entwine, structures, suite, tambara, yangbaxter
from entwiner.cli import CHECKS
from entwiner.entwine import MeasuredModule, check_entwined_variant, verify
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import ShapeError, check_law, check_laws, contract_left, insert_left
from entwiner.registry import INSTANCE_NAMES, coalgebra, make_cotwist, resolve_instance
from reference import law_verdict
from test_law_tables import law_tables

FIELDS = (QQ, PrimeField(7))
FIELD_IDS = ("q", "fp7")


@pytest.fixture
def captured(monkeypatch):
    """The list of (table, maps, checks) that every `check_laws` and `check_law`
    call of the package receives and returns from here on, a single law as a
    one-row table."""
    calls = []

    def recording_laws(table, maps):
        checks = check_laws(table, maps)
        calls.append((tuple(table), dict(maps), checks))
        return checks

    def recording_law(law, maps):
        (check,) = recording_laws((law,), maps)
        return check

    for module in (entwine, structures, yangbaxter, suite, tambara):
        for name, recording in (("check_laws", recording_laws), ("check_law", recording_law)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    return calls


def expressions(field):
    """(expression, entwining data) of every registry instance in its plain,
    `corrupt:` and `dual:` forms, the last for factorizations only."""
    for name in INSTANCE_NAMES:
        for expr in (name, "corrupt:" + name, "dual:" + name):
            try:
                yield expr, resolve_instance(expr, field)
            except ShapeError:  # dual: of a non-factorization
                continue


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_verified_law_matches_the_entry_evaluator(captured, field):
    instances = laws_read = failing = 0
    for expr, e in expressions(field):
        del captured[:]
        rep = verify(e)
        laws = [(law, maps) for table, maps, _ in captured for law in table]
        assert [law[0] for law, _ in laws] == [c.name for c in rep.checks], expr
        for (law, maps), check in zip(laws, rep.checks):
            want = law_verdict(law, maps)
            assert (check.passed, check.witness, check.residual) == want, (expr, check.name)
            failing += not check.passed
        laws_read += len(laws)
        instances += 1
    assert (instances, laws_read, failing) == (76, 272, 79)


# --check -> (commands that exit 0 or 1, laws captured, laws failing), per field
CHECK_SWEEP = {
    "declared": (76, 272, 79),
    "semi-entwining": (48, 96, 22),
    "algebra-factorization": (36, 144, 46),
    "cosemi-entwining": (28, 56, 20),
    "coalgebra-factorization": (24, 96, 22),
    "product-iff": (36, 252, 79),
    "coproduct-iff": (24, 168, 40),
    "intertwining": (48, 240, 40),
    "generator-relations": (48, 96, 22),
    "cogenerator-relations": (28, 56, 20),
    "action-roundtrip": (48, 0, 0),
    "yb-operator": (60, 180, 33),
    "qybe": (60, 60, 45),
    "braid": (60, 60, 11),
    "braided-algebra": (38, 266, 78),
    "r-commutative": (38, 38, 22),
}


def test_the_sweep_covers_every_check_of_the_cli():
    assert sorted(CHECK_SWEEP) == sorted(CHECKS)


@pytest.mark.parametrize("check", CHECK_SWEEP)
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_law_a_cli_check_binds_matches_the_entry_evaluator(captured, field, check):
    handler = CHECKS[check]
    commands = laws = failing = 0
    for expr, e in expressions(field):
        del captured[:]
        try:
            handler(e).to_dict()  # every verdict read, as `verify` prints them
        except ShapeError:  # the command exits 2
            continue
        commands += 1
        for table, maps, checks in captured:
            for law, got in zip(table, checks):
                want = law_verdict(law, maps)
                assert (got.passed, got.witness, got.residual) == want, (expr, law[0])
                laws += 1
                failing += not got.passed
    assert (commands, laws, failing) == CHECK_SWEEP[check]


def row_key(law):
    return law[1], law[2]


def test_check_laws_equals_check_law_row_by_row_on_registry_bindings(captured):
    # these suite rows bind every law table but LEFT_COMODULE_LAWS and the
    # cosemi rows of VARIANT_LAWS, which the two cosemi variants over GL2 bind
    for row in ("biproduct", "entwined-modules", "intertwining", "braided", "generator-actions"):
        suite.run_row(row, "q")
    gl2 = coalgebra("GL2", QQ)
    variants = (("cosemi-entwined-module", contract_left), ("cosemi-entwined-comodule", insert_left))
    for variant, measure in variants:
        measuring = measure(QQ, (1, 0), gl2.space, gl2.space)
        mm = MeasuredModule(variant, gl2.space, gl2.space, measuring, coact=gl2.comult)
        check_entwined_variant(mm, make_cotwist(gl2, gl2))
    bound = set()
    seen = set()
    for table, maps, _ in captured:
        keys = tuple(map(repr, table))
        if keys in seen:
            continue
        seen.add(keys)
        assert check_laws(table, maps) == tuple(check_law(law, maps) for law in table), keys
        bound |= {repr(row_key(law)) for law in table}
    unbound = [
        (name, row[0])
        for name, rows in law_tables().items()
        for row in rows
        if repr(row_key(row)) not in bound
    ]
    assert unbound == []


# (laws captured, laws failing) of the generator-actions suite row, per field,
# and of them the rows of REFINEMENT_LAWS and COREFINEMENT_LAWS
GENERATOR_ACTIONS_SWEEP = (266, 24, 46, 10)


@pytest.mark.parametrize("tag", ("q", "fp:7"))
def test_every_law_of_the_generator_actions_row_matches_the_entry_evaluator(captured, tag):
    # the refinement rows are bound by no `--check`, only by this suite row
    suite.run_row("generator-actions", tag)
    refinements = {repr(row_key(law)) for law in tambara.REFINEMENT_LAWS + tambara.COREFINEMENT_LAWS}
    counts = [0, 0, 0, 0]
    for table, maps, checks in captured:
        for law, got in zip(table, checks):
            assert (got.passed, got.witness, got.residual) == law_verdict(law, maps), law[0]
            refinement = repr(row_key(law)) in refinements
            counts[0] += 1
            counts[1] += not got.passed
            counts[2] += refinement
            counts[3] += refinement and not got.passed
    assert tuple(counts) == GENERATOR_ACTIONS_SWEEP
