"""Generator actions: relation checks, refinements, round trips, closed forms."""

from dataclasses import replace

import pytest

from entwiner.entwine import (
    EntwiningData,
    dualize_cosemi,
    mult_twist,
    verify,
)
from entwiner.fields import QQ
from entwiner.registry import algebra, make_twist, resolve_instance
from entwiner.report import PreconditionError
from entwiner.tambara import (
    action_from_semi,
    check_action_roundtrip,
    check_comodule_coalgebra_refinement,
    check_cotambara_relations,
    check_module_algebra_refinement,
    check_tambara_relations,
    cotambara_action,
    semi_from_action,
)

SEMI_EXPRS = (
    "twist@Kx2-1,Kx3",
    "module@Kx3",
    "mult_twist@M2,q=1",
    "quad@p=1,q=2",
    "corrupt:module@Kx3",
    "corrupt:twist@Kx2-0,Kx2-0",
)


@pytest.mark.parametrize("expr", SEMI_EXPRS)
def test_relations_verdict_equals_semi_verdict(expr):
    e = resolve_instance(expr, QQ)
    semi = verify(replace(e, kind="semi"))
    rel = check_tambara_relations(action_from_semi(e))
    assert rel.passed == semi.passed, rel.render()


@pytest.mark.parametrize("expr", SEMI_EXPRS)
def test_action_roundtrip(expr):
    e = resolve_instance(expr, QQ)
    rep = check_action_roundtrip(e)
    assert rep.passed, rep.render()
    if verify(replace(e, kind="semi")).passed:
        back = semi_from_action(action_from_semi(e))
        assert back.psi.rows == e.psi.rows
    else:
        with pytest.raises(PreconditionError):
            semi_from_action(action_from_semi(e))


def test_generator_roundtrip_other_direction():
    e = resolve_instance("mult_twist@Kx2-1,q=1", QQ)
    g = action_from_semi(e)
    g2 = action_from_semi(semi_from_action(g))
    n = e.algebra.space.dim
    for i in range(n):
        for j in range(n):
            assert g2.maps[i][j].rows == g.maps[i][j].rows


def test_closed_form_flip():
    # psi = tau gives b [a_i* (x) a_j] = a_i*(a_j) b, the counit scalar
    e = make_twist(algebra("Kx3", QQ), algebra("Kx2-1", QQ))
    g = action_from_semi(e)
    n = e.algebra.space.dim
    m = e.left_space.dim
    for i in range(n):
        for j in range(n):
            for l in range(m):
                for k in range(m):
                    want = QQ.one if (i == j and l == k) else QQ.zero
                    assert g.maps[i][j].rows[l][k] == want


@pytest.mark.parametrize("name", ("Kx2-1", "Kx3", "M2"))
def test_closed_form_multiplication_twist(name):
    # b [a_i* (x) a_j] = a_i*(1) b a_j + q a_i*(b a_j) 1 - q a_i*(b) a_j
    a = algebra(name, QQ)
    q = QQ.from_int(2)
    g = action_from_semi_instance(a, q)
    n = a.space.dim
    mult, u = a.mult.rows, tuple(a.unit)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    want = (
                        u[i] * mult[l][k * n + j]
                        + q * mult[i][k * n + j] * u[l]
                        - (q if (i == k and l == j) else QQ.zero)
                    )
                    assert g.maps[i][j].rows[l][k] == want


def action_from_semi_instance(a, q):
    return action_from_semi(EntwiningData(kind="semi", psi=mult_twist(a, q), algebra=a))


@pytest.mark.parametrize("name", ("Kx2-1", "Kx3", "M2"))
def test_closed_form_regular_module(name):
    # psi(m (x) a) = 1 (x) ma gives m [a_i* (x) a_j] = a_i*(1) m a_j
    e = resolve_instance(f"module@{name}", QQ)
    g = action_from_semi(e)
    a = e.algebra
    n = a.space.dim
    mult, u = a.mult.rows, tuple(a.unit)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    assert g.maps[i][j].rows[l][k] == u[i] * mult[l][k * n + j]


@pytest.mark.parametrize(
    "expr, expect",
    (
        ("twist@Kx2-1,Kx3", True),
        ("quad@p=1,q=2", True),
        ("comm_twist@M2,q=1", False),
        ("mult_twist@Kx3,q=1/2", False),
    ),
)
def test_module_algebra_refinement_matches_factorization(expr, expect):
    e = resolve_instance(expr, QQ)
    fact = verify(e)
    assert e.kind == "factorization"
    assert fact.passed == expect
    g = action_from_semi(e)
    refined = check_module_algebra_refinement(g, e.left_algebra)
    assert refined.passed == fact.passed, refined.render()
    assert refined.check("agreement").passed, refined.render()


def test_counit_consistency_on_one_dimensional_carrier():
    # with B = K the action of [a_i* (x) a_j] is the scalar a_i*(a_j)
    k = algebra("K", QQ)
    a = algebra("Kx2-1", QQ)
    e = make_twist(k, a)
    g = action_from_semi(e)
    n = a.space.dim
    for i in range(n):
        for j in range(n):
            want = QQ.one if i == j else QQ.zero
            assert g.maps[i][j].rows[0][0] == want


COSEMI_EXPRS = ("cotwist@GL2,GL2", "cotwist@Kx2-1*,GL2", "dkalt-KZ2-sign")


@pytest.mark.parametrize("expr", COSEMI_EXPRS)
def test_cotambara_matches_dualized_action(expr):
    e = resolve_instance(expr, QQ)
    g_co = cotambara_action(e)
    dual = dualize_cosemi(e.coalgebra, e.left_space, e.psi)
    g_du = action_from_semi(dual)
    n = e.coalgebra.space.dim
    for i in range(n):
        for j in range(n):
            assert g_co.maps[i][j].same_matrix(g_du.maps[j][i])


@pytest.mark.parametrize("expr", COSEMI_EXPRS + ("dual:mult_twist@Kx3,q=1/2",))
def test_cotambara_relations_match_cosemi_verdict(expr):
    e = resolve_instance(expr, QQ)
    cosemi = verify(replace(e, kind="cosemi"))
    rel = check_cotambara_relations(e)
    assert rel.passed == cosemi.passed, rel.render()


@pytest.mark.parametrize(
    "expr, expect",
    (
        ("cotwist@GL2,GL2", True),
        ("dual:mult_twist@Kx3,q=1/2", False),
        ("dual:mult_twist@Kx2-1,q=1/2", False),
    ),
)
def test_comodule_coalgebra_refinement(expr, expect):
    e = resolve_instance(expr, QQ)
    cofact = verify(e)
    assert e.kind == "cofactorization"
    assert cofact.passed == expect
    rep = check_comodule_coalgebra_refinement(e, e.left_coalgebra)
    assert rep.passed == cofact.passed, rep.render()
    # the split rows slice the left-leg laws, which hold here while the C-side laws may fail
    assert rep.check("agreement").passed, rep.render()


def _refinement(expr):
    e = resolve_instance(expr, QQ)
    return check_module_algebra_refinement(action_from_semi(e), e.left_algebra)


REPORTS = {
    "relations": lambda expr: check_tambara_relations(action_from_semi(resolve_instance(expr, QQ))),
    "corelations": lambda expr: check_cotambara_relations(resolve_instance(expr, QQ)),
    "refinement": _refinement,
}
# (report, instance, law) -> (witness, residual): the first failing basis tuple,
# generator indices first, and the residual there
WITNESSES = {
    ("relations", "corrupt:module@Kx3", "action"): (("1*", "x", "x", "x2"), ("1", "0", "0")),
    ("corelations", "corrupt:dkalt-KZ2-sign", "counit"): (("x***", "m"), ("1",)),
    ("corelations", "corrupt:dkalt-KZ2-sign", "coaction"): (("1*", "1*", "x*", "m"), ("-1",)),
    ("refinement", "comm_twist@M2,q=1", "product-split"): (("e00*", "e00", "e01", "e10"), ("-1", "0", "0", "-1")),
    ("refinement", "mult_twist@Kx3,q=1/2", "unit-split"): (("1*", "x"), ("0", "1/2", "0")),
}


@pytest.mark.parametrize("key", WITNESSES, ids=lambda key: f"{key[1]}-{key[2]}")
def test_a_failing_relation_reports_its_first_basis_tuple_and_residual(key):
    report, expr, name = key
    check = REPORTS[report](expr).check(name)
    assert (check.passed, check.witness, check.residual) == (False, *WITNESSES[key])
