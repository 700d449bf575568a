"""A failing check's witness and residual, computed the first time they are read.

`check_map_identity` returns a failure whose `passed` is False at once; its
witness and residual are rendered from the first failing column when first
read.  These tests read every failing law check of every registry instance
and of its `corrupt:` form (for a (co)factorization, also the twisted
(co)product's laws of its iff check), over Q and F_7, and compare the details
with an eager reference that materializes both sides.  A twisted QYBE check
adopts its failure through two deferred checks, and renders it once.
"""

import pickle
from typing import NamedTuple

import pytest

import entwiner.linalg as linalg
from entwiner.entwine import check_coproduct_iff, check_product_iff, verify
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import check_map_identity
from entwiner.registry import INSTANCE_NAMES, resolve_instance
from entwiner.report import IdentityCheck
from entwiner.yangbaxter import check_yb_operator
from reference import eager_yb_operator, first_failing_column

FIELDS = (QQ, PrimeField(7))
FIELD_IDS = ("q", "fp7")
EXPRESSIONS = INSTANCE_NAMES + tuple(f"corrupt:{n}" for n in INSTANCE_NAMES)
REPORTS = {
    "factorization": (verify, check_product_iff),
    "cofactorization": (verify, check_coproduct_iff),
}


class Failure(NamedTuple):
    expr: str
    check: IdentityCheck  # as the report holds it: deferred, maybe renamed
    inner: IdentityCheck  # as check_map_identity returned it
    lhs: list
    rhs: list


@pytest.fixture
def failing_laws(monkeypatch):
    """collect(field) -> (every failing law check, a live count of field.render calls).

    Every verdict of every report is read, through `passed` only, before
    `collect` returns; counting starts once the instances are resolved.
    """

    def collect(field):
        renders = [0]
        render = type(field).render

        def counting_render(self, x):
            renders[0] += 1
            return render(self, x)

        calls = {}

        def recording(name, lhs, rhs):
            calls[name] = (lhs, rhs, check_map_identity(name, lhs, rhs))
            return calls[name][2]

        instances = [(expr, resolve_instance(expr, field)) for expr in EXPRESSIONS]
        monkeypatch.setattr(type(field), "render", counting_render)
        monkeypatch.setattr(linalg, "check_map_identity", recording)
        found = []
        for expr, e in instances:
            for make in REPORTS.get(e.kind, (verify,)):
                calls.clear()
                rep = make(e)
                for c in rep.checks:
                    c.passed
                # law names are distinct within a report; a prefix marks a part
                for c in rep.checks:
                    lhs, rhs, inner = calls.get(c.name.rpartition(":")[2], (None, None, None))
                    if inner is not None and not inner.passed:
                        found.append(Failure(expr, c, inner, lhs, rhs))
        return found, renders

    return collect


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_reading_only_passed_renders_nothing(failing_laws, field):
    found, renders = failing_laws(field)
    assert renders[0] == 0
    # every corrupt: form fails, and the iff checks add the twisted laws
    assert len({f.expr for f in found}) >= len(INSTANCE_NAMES)
    assert {"associativity", "unit-left", "coassociativity", "counit-left"} <= {
        f.inner.name for f in found
    }


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_failing_details_equal_the_eager_reference(failing_laws, field):
    found, _ = failing_laws(field)
    for f in found:
        reference = first_failing_column(f.lhs, f.rhs)
        assert reference is not None, (f.expr, f.check.name)
        assert (f.check.witness, f.check.residual) == reference, (f.expr, f.check.name)
        assert (f.inner.witness, f.inner.residual) == reference, (f.expr, f.check.name)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_renamed_copy_and_its_original_compute_the_details_once(failing_laws, field):
    found, renders = failing_laws(field)
    for f in found:
        fresh = check_map_identity(f.inner.name, f.lhs, f.rhs)
        for original in (f.check, fresh):
            copy = original.renamed("copy")
            before = renders[0]
            details = (copy.witness, copy.residual)
            rendered = renders[0] - before
            assert rendered > 0, (f.expr, f.check.name)
            assert (original.witness, original.residual) == details == (copy.witness, copy.residual)
            assert renders[0] - before == rendered, (f.expr, f.check.name)
        # reading the report's check rendered the failure it adopted
        before = renders[0]
        assert (f.inner.witness, f.inner.residual) == details
        assert renders[0] == before


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_failure_compares_as_the_eager_check(failing_laws, field):
    found, _ = failing_laws(field)
    for f in found:
        name = f.inner.name
        eager = IdentityCheck(name, False, *first_failing_column(f.lhs, f.rhs))

        def fresh():
            return check_map_identity(name, f.lhs, f.rhs)

        assert fresh() == eager and eager == fresh()
        assert hash(fresh()) == hash(eager)
        assert repr(fresh()) == repr(eager)
        # a round trip, not bytes: pickle shares equal strings only when they are one object
        assert pickle.loads(pickle.dumps(fresh())) == eager
        assert repr(pickle.loads(pickle.dumps(fresh()))) == repr(eager)
        assert fresh().to_dict() == eager.to_dict()
        assert fresh().renamed("x") == eager.renamed("x") != eager


# psi whose twisted QYBE fails: the check is deferred, its computation returns
# the deferred check of `check_law`, and that one's computation returns the
# failure of `check_map_identity`
NESTED = (("dk-KZ2-regular", QQ), ("dk-KZ2-regular", FIELDS[1]), ("corrupt:mult_twist@Kx3,q=1/2", QQ))


@pytest.mark.parametrize("expr, field", NESTED, ids=("dk-q", "dk-fp7", "corrupt-q"))
def test_a_nested_deferral_renders_one_residual_for_every_check_that_adopts_it(monkeypatch, expr, field):
    psi = resolve_instance(expr, field).psi
    renders = [0]
    render = type(field).render

    def counting_render(self, x):
        renders[0] += 1
        return render(self, x)

    monkeypatch.setattr(type(field), "render", counting_render)
    want = eager_yb_operator(psi).check("qybe-twist-right")
    assert not want.passed and renders[0] == 0
    want = (want.witness, want.residual)
    one = renders[0]
    assert one > 0

    inner = []

    def recording(name, lhs, rhs):
        inner.append(check_map_identity(name, lhs, rhs))
        return inner[-1]

    monkeypatch.setattr(linalg, "check_map_identity", recording)
    check = check_yb_operator(psi).check("qybe-twist-right")
    renders[0] = 0
    assert not check.passed
    assert renders[0] == 0 and len(inner) == 1 and not inner[0].passed
    assert (check.witness, check.residual) == want
    copy = check.renamed("copy")
    assert (copy.witness, copy.residual) == want == (inner[0].witness, inner[0].residual)
    assert renders[0] == one
    if expr == "dk-KZ2-regular":
        assert want[0] == ("g", "1", "1")
    else:
        assert any("/" in x for x in want[1])  # q = 1/2 leaves a denominator
