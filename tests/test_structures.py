"""Algebras, coalgebras, bialgebras, (co)modules, duality, integrals."""

import pytest

from entwiner.fields import QQ, PrimeField
from entwiner.linalg import LinearMap, ShapeError, space, tensor
from entwiner.registry import (
    ALGEBRA_NAMES,
    BIALGEBRA_NAMES,
    COALGEBRA_NAMES,
    algebra,
    bialgebra,
    coalgebra,
    character_module,
    parity_comodule,
    self_comodule,
    sign_module,
    trivial_module,
)
from entwiner.structures import (
    Algebra,
    ComoduleCoaction,
    ModuleAction,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_comodule,
    check_comodule_algebra,
    check_derivation,
    check_grouplike_bilateral_integral,
    check_module,
    convolution_algebra,
    counit_maps,
    dualize_algebra,
    opposite_algebra,
    regular_module,
    unit_maps,
)
from entwiner.yangbaxter import is_commutative


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_builtin_algebras_pass(name):
    rep = check_algebra(algebra(name, QQ))
    assert rep.passed, rep.render()


@pytest.mark.parametrize("name", COALGEBRA_NAMES)
def test_builtin_coalgebras_pass(name):
    rep = check_coalgebra(coalgebra(name, QQ))
    assert rep.passed, rep.render()


@pytest.mark.parametrize("name", BIALGEBRA_NAMES)
def test_builtin_bialgebras_pass(name):
    rep = check_bialgebra(bialgebra(name, QQ))
    assert rep.passed, rep.render()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_builtin_algebras_pass_mod_seven(name):
    rep = check_algebra(algebra(name, PrimeField(7)))
    assert rep.passed, rep.render()


def test_unit_and_counit_maps_are_built_once_per_field():
    v = space("x0", "x1")
    f7 = PrimeField(7)
    for make, bind, vec in ((algebra, unit_maps, "unit"), (coalgebra, counit_maps, "counit")):
        q, p = make("KZ2", QQ), make("KZ2", f7)
        assert getattr(q, vec) == getattr(p, vec)  # one vector, over two fields
        once, again, other = bind(q, X=v), bind(q, Y=space("x0", "x1")), bind(p, X=v)
        assert len(once) == 2
        for m1, m2, m3 in zip(once.values(), again.values(), other.values()):
            assert m1 is m2 and m1 is not m3
            assert m1.field == QQ and m3.field == f7 and m1.rows == m3.rows


def test_broken_associativity_reports_first_witness():
    a = algebra("Kx3", QQ)
    rows = tuple(
        tuple(v + (1 if (i, j) == (0, a.mult.domain.dim - 1) else 0) for j, v in enumerate(row))
        for i, row in enumerate(a.mult.rows)
    )
    bad = Algebra(QQ, a.space, LinearMap(QQ, a.mult.domain, a.space, rows), a.unit)
    rep = check_algebra(bad)
    assert not rep.passed
    fail = rep.failures()[0]
    assert fail.witness is not None


def test_double_dual_recovers_structure_constants():
    for name in COALGEBRA_NAMES:
        c = coalgebra(name, QQ)
        back = dualize_algebra(convolution_algebra(c))
        assert back.comult.rows == c.comult.rows
        assert tuple(back.counit) == tuple(c.counit)


def test_counit_is_algebra_map():
    for name in BIALGEBRA_NAMES:
        h = bialgebra(name, QQ)
        n = h.space.dim
        for i in range(n):
            for j in range(n):
                eps_prod = sum(
                    h.counit[k] * h.mult.rows[k][i * n + j] for k in range(n)
                )
                assert eps_prod == h.counit[i] * h.counit[j]


def test_opposite_algebra():
    m2 = algebra("M2", QQ)
    op = opposite_algebra(m2)
    assert check_algebra(op).passed
    assert not is_commutative(m2)
    assert op.mult.rows != m2.mult.rows
    kx = algebra("Kx2-1", QQ)
    assert opposite_algebra(kx).mult.rows == kx.mult.rows


@pytest.mark.parametrize("name", ("Kx3", "M2", "KZ2"))
def test_regular_module_passes(name):
    assert check_module(regular_module(algebra(name, QQ))).passed


def test_corrupted_module_fails_with_witness():
    mod = regular_module(algebra("Kx3", QQ))
    rows = tuple(
        tuple(v + (1 if (i, j) == (0, 0) else 0) for j, v in enumerate(row))
        for i, row in enumerate(mod.act.rows)
    )
    bad = ModuleAction(mod.algebra, mod.space, LinearMap(QQ, mod.act.domain, mod.space, rows))
    rep = check_module(bad)
    assert not rep.passed
    assert rep.failures()[0].witness is not None


def test_character_modules():
    h = bialgebra("KZ2", QQ)
    assert check_module(trivial_module(h)).passed
    assert check_module(sign_module(h)).passed
    bad = character_module(h.algebra, (QQ.one, QQ.from_int(2)))
    assert not check_module(bad).passed


def test_self_comodule_passes():
    for name in BIALGEBRA_NAMES:
        assert check_comodule(self_comodule(bialgebra(name, QQ))).passed


def test_parity_comodule_is_comodule_with_coalgebra():
    h = bialgebra("KZ2", QQ)
    comod, c = parity_comodule(h)
    assert check_coalgebra(c).passed
    assert check_comodule(comod).passed


def test_comodule_algebra():
    h = bialgebra("KZ2", QQ)
    rep = check_comodule_algebra(h.algebra, h, h.comult)
    assert rep.passed, rep.render()
    # 1 |-> 1 (x) g is a comodule on K but not a comodule algebra:
    # delta(1 * 1) = 1 (x) g while delta(1)delta(1) = 1 (x) g^2 = 1 (x) 1
    k = algebra("K", QQ)
    coact = LinearMap(QQ, k.space, tensor(k.space, h.space), ((0,), (1,)))
    assert check_comodule(ComoduleCoaction(h.coalgebra, k.space, coact)).passed
    rep2 = check_comodule_algebra(k, h, coact)
    assert not rep2.passed


def test_grouplike_integral_accepts_and_rejects():
    kmono = bialgebra("Kmono", QQ)
    z = (QQ.zero, QQ.one)
    assert check_grouplike_bilateral_integral(kmono, z).passed
    kz2 = bialgebra("KZ2", QQ)
    g = (QQ.zero, QQ.one)
    rep = check_grouplike_bilateral_integral(kz2, g)
    assert not rep.passed
    assert rep.failures()[0].witness is not None


def test_derivation_check():
    a = algebra("Kx3", QQ)
    z, o = QQ.zero, QQ.one
    # d(1) = 0, d(x) = x^2, d(x^2) = 0: the square of d/dx scaled on x
    d = LinearMap(QQ, a.space, a.space, ((z, z, z), (z, z, z), (z, o, z)))
    assert check_derivation(a, d).passed
    not_d = LinearMap(QQ, a.space, a.space, ((z, o, z), (z, z, z), (z, z, z)))
    assert not check_derivation(a, not_d).passed


def test_structure_shape_validation():
    a = algebra("K", QQ)
    with pytest.raises(ShapeError):
        Algebra(QQ, a.space, LinearMap(QQ, a.space, a.space, ((QQ.one,),)), a.unit)
