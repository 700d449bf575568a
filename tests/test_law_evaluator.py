"""Law verdicts against an evaluator that shares no kernel code, and `check_laws`
against `check_law` row by row.

`reference.law_verdict` binds a law's layers itself and reads map entries
only (see `tests/reference.py`), so a defect in the block schedule, the dense
fill, the Kronecker layout or the binding of `linalg` cannot pass both.  The
sweep captures every (law, maps) that `check_law` and `check_laws` receive
while `verify` checks each registry instance in its plain, `corrupt:` and
`dual:` forms, and recomputes each one.
"""

import pytest

from entwiner import entwine, structures, suite, yangbaxter
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
    """The list of (table, maps) that every `check_laws` and `check_law` call of
    the package receives from here on, a single law as a one-row table."""
    calls = []

    def recording_laws(table, maps):
        calls.append((tuple(table), dict(maps)))
        return check_laws(table, maps)

    def recording_law(law, maps):
        (check,) = recording_laws((law,), maps)
        return check

    for module in (entwine, structures, yangbaxter, suite):
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
        laws = [(law, maps) for table, maps in captured for law in table]
        assert [law[0] for law, _ in laws] == [c.name for c in rep.checks], expr
        for (law, maps), check in zip(laws, rep.checks):
            want = law_verdict(law, maps)
            assert (check.passed, check.witness, check.residual) == want, (expr, check.name)
            failing += not check.passed
        laws_read += len(laws)
        instances += 1
    assert (instances, laws_read, failing) == (76, 272, 79)


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
    for table, maps in captured:
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
