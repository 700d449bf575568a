"""Entwining maps, factorizations, entwined modules, and biproducts."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from entwiner.entwine import (
    EntwiningData,
    MeasuredModule,
    check_coproduct_iff,
    check_entwined_variant,
    check_intertwining,
    check_product_iff,
    cofactorization_coproduct,
    comm_twist,
    dualize_cosemi,
    entwined_roundtrip,
    factorization_product,
    induced_AtensorB_module,
    intertwining_from_semi,
    make_biproduct,
    module_from_pair,
    mult_twist,
    pair_from_module,
    transpose_entwining,
    verify,
)
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import (
    Composite,
    ShapeError,
    contract_left,
    identity,
    insert_left,
    insert_right,
    kron,
    materialize,
    tensor,
    twist,
)
from entwiner.entwine import SEMI_KINDS
from entwiner.registry import (
    INSTANCE_NAMES,
    algebra,
    algebra_pairs,
    bialgebra,
    coalgebra,
    coalgebra_pairs,
    corrupt_map,
    make_cotwist,
    random_entwining_matrix,
    resolve_instance,
)
from entwiner.structures import (
    ComoduleCoaction,
    check_algebra,
    check_coalgebra,
    check_comodule,
    check_module,
)
from entwiner.suite import RANDOM_PER_PAIR
from reference import biproduct_rows, plain_rows

EXPECTED_FAIL = frozenset(
    (
        "mult_twist@Kx2-2,q=2",
        "mult_twist@Kx3,q=1/2",
        "mult_twist@Kmono,q=-1",
        "comm_twist@M2,q=1",
        "dk-KZ2-regular",
        "dk-Kmono-regular",
    )
)


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_registry_verdicts(name):
    rep = verify(resolve_instance(name, QQ))
    assert rep.passed == (name not in EXPECTED_FAIL), rep.render()


@pytest.mark.parametrize(
    "name", [n for n in INSTANCE_NAMES if "twist@" in n or n.startswith("quad")]
)
def test_factorization_axioms_contain_semi_axioms(name):
    # a (co)factorization verdict implies its one-sided (co)semi verdict
    e = resolve_instance(name, QQ)
    assert e.kind in ("factorization", "cofactorization")
    fact = verify(e)
    semi = verify(replace(e, kind="semi" if e.kind == "factorization" else "cosemi"))
    if fact.passed:
        assert semi.passed
    if not semi.passed:
        assert not fact.passed


@pytest.mark.parametrize(
    "kind, names",
    (
        ("entwining-ll", ("unit", "multiplicativity", "left-counit", "left-comultiplicativity")),
        ("entwining-rr", ("counit", "comultiplicativity", "left-unit", "left-multiplicativity")),
    ),
)
def test_mixed_entwinings_of_the_flip(flip_entwining, kind, names):
    e = flip_entwining(kind)
    rep = verify(e)
    assert rep.passed, rep.render()
    assert rep.suite == kind
    assert tuple(c.name for c in rep.checks) == names
    bad = verify(replace(e, psi=corrupt_map(e.psi)))
    assert not bad.passed
    assert bad.failures()[0].witness is not None


@pytest.mark.parametrize(
    "kind, other", (("entwining-ll", "cofactorization"), ("entwining-rr", "factorization"))
)
def test_redeclaring_a_kind_needs_its_structures(flip_entwining, kind, other):
    e = flip_entwining(kind)
    with pytest.raises(ShapeError):
        replace(e, kind=other)


def test_twisted_product_of_flip_is_plain_tensor_product():
    a = algebra("Kx3", QQ)
    b = algebra("M2", QQ)
    tau = twist(QQ, b.space, a.space)
    prod = factorization_product(a, b, tau)
    # independent construction: (m_A (x) m_B) o (id (x) tau (x) id)
    mid = materialize(
        [
            kron(a.mult, b.mult),
            kron(identity(QQ, a.space), kron(twist(QQ, b.space, a.space), identity(QQ, b.space))),
        ]
    )
    assert prod.mult.rows == mid.rows
    za = [QQ.zero] * a.space.dim
    zb = [QQ.zero] * b.space.dim
    for i, u in enumerate(a.unit):
        za[i] = u
    for i, u in enumerate(b.unit):
        zb[i] = u
    expected_unit = tuple(x * y for x in za for y in zb)
    assert tuple(prod.unit) == expected_unit
    assert check_algebra(prod).passed


@pytest.mark.parametrize(
    "expr",
    ("quad@p=1,q=2", "mult_twist@Kx3,q=1/2", "corrupt:quad@p=1,q=2", "twist@M2,Kx2-1"),
)
def test_product_verdict_agreement(expr):
    e = resolve_instance(expr, QQ)
    rep = check_product_iff(e)
    assert rep.check("verdict-agreement").passed, rep.render()
    fact = verify(e)
    prod = factorization_product(e.algebra, e.left_algebra, e.psi)
    assert check_algebra(prod).passed == fact.passed


def test_product_verdict_agreement_randomized():
    for idx, (bn, an) in enumerate((("Kx2-1", "Kx3"), ("M2", "Kx2-0"))):
        a = algebra(an, QQ)
        b = algebra(bn, QQ)
        for i in range(20):
            psi = random_entwining_matrix(QQ, b.space, a.space, seed=991 * idx + i)
            e = EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=b)
            rep = check_product_iff(e)
            assert rep.check("verdict-agreement").passed, rep.render()


@pytest.mark.parametrize("side", ("product", "coproduct"))
def test_iff_checks_compute_the_twisted_columns_they_read(monkeypatch, side):
    # the laws run on a Composite: a psi that fails early computes few of its
    # columns, one that passes computes each once, and the report is the one
    # the dense map gives, witnesses and residuals included
    import entwiner.entwine as entwine

    made = []

    class Recording(Composite):
        __slots__ = ()

        def __init__(self, chain):
            super().__init__(chain)
            made.append(self)

    monkeypatch.setattr(entwine, "Composite", Recording)
    if side == "product":
        a, b = algebra("Kx3", QQ), algebra("Kx2-1", QQ)
        kind, kw = "factorization", dict(algebra=a, left_algebra=b)
        check, dense, laws = check_product_iff, factorization_product, check_algebra
    else:
        a, b = coalgebra("GL2", QQ), coalgebra("Kx3*", QQ)
        kind, kw = "cofactorization", dict(coalgebra=a, left_coalgebra=b)
        check, dense, laws = check_coproduct_iff, cofactorization_coproduct, check_coalgebra
    spaces = (b.space, a.space)
    read = []
    for psi in (twist(QQ, *spaces), *(random_entwining_matrix(QQ, *spaces, seed=s) for s in range(4))):
        e = EntwiningData(kind=kind, psi=psi, **kw)
        rep = check(e)
        want = laws(dense(a, b, psi)).prefixed(side)
        assert rep.checks[: len(want)] == want
        (c,) = made
        made.clear()
        n = math.prod(c.domain_dims)
        assert all(0 <= j < n for j in c._cols)
        if all(x.passed for x in want):
            assert len(c._cols) == n
        read.append(len(c._cols) / n)
    assert read[0] == 1 and min(read[1:]) < 1, read


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_random_entwining_matrices_are_the_randrange_draws(field):
    # the drawing of random psi is pinned: each entry is randrange(-1, 2) of
    # the seeded generator, as a field element
    for left, right in ((algebra("K", field).space, algebra("Kx2-1", field).space),
                        (algebra("Kx3", field).space, coalgebra("GL2", field).space),
                        (algebra("M2", field).space, algebra("Kx3", field).space)):
        dim = left.dim * right.dim
        for seed in (0, 1, 7, 104729 * 5 + 19, 2**40 + 3):
            rng = random.Random(seed)
            want = tuple(
                tuple(field.from_int(rng.randrange(-1, 2)) for _ in range(dim)) for _ in range(dim)
            )
            got = random_entwining_matrix(field, left, right, seed=seed)
            assert got.rows == want
            assert [type(x) for r in got.rows for x in r] == [type(x) for r in want for x in r]
            assert got.domain == tensor(left, right) and got.codomain == tensor(right, left)


def test_cosemi_and_dualization():
    e = resolve_instance("cotwist@Kx2-1*,GL2", QQ)
    cosemi = verify(replace(e, kind="cosemi"))
    assert cosemi.passed, cosemi.render()
    dual = dualize_cosemi(e.coalgebra, e.left_space, e.psi)
    assert dual.kind in SEMI_KINDS
    semi = verify(dual)
    assert semi.passed, semi.render()


@pytest.mark.parametrize("expr", ("quad@p=1,q=2", "mult_twist@Kx3,q=1/2"))
def test_transpose_preserves_verdict(expr):
    e = resolve_instance(expr, QQ)
    t = transpose_entwining(e)
    assert t.kind == "cofactorization"
    assert t.psi.rows == tuple(zip(*e.psi.rows))
    assert verify(t).passed == verify(e).passed


@pytest.mark.parametrize(
    "expr, expect",
    (("cotwist@GL2,GL2", True), ("dual:mult_twist@Kx3,q=1/2", False)),
)
def test_coproduct_verdict_agreement(expr, expect):
    e = resolve_instance(expr, QQ)
    cofact = verify(e)
    assert e.kind == "cofactorization"
    assert cofact.passed == expect, cofact.render()
    rep = check_coproduct_iff(e)
    assert rep.check("verdict-agreement").passed, rep.render()
    cop = cofactorization_coproduct(e.coalgebra, e.left_coalgebra, e.psi)
    assert check_coalgebra(cop).passed == cofact.passed


def test_crossed_instances():
    sign = resolve_instance("dk-KZ2-sign", QQ)
    assert sign.kind == "semi" and verify(sign).passed
    reg = resolve_instance("dk-KZ2-regular", QQ)
    rep = verify(reg)
    assert not rep.passed
    assert rep.failures()[0].witness is not None
    # the same map still satisfies the one-sided axioms
    assert verify(replace(reg, kind="semi")).passed
    alt = resolve_instance("dkalt-KZ2-regular", QQ)
    assert verify(alt).passed, verify(alt).render()


def test_verify_dispatches_on_declared_kind():
    a = algebra("M2", QQ)
    psi = comm_twist(a, QQ.one)
    as_semi = EntwiningData(kind="semi", psi=psi, algebra=a)
    assert verify(as_semi).passed
    as_fact = EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=a)
    assert not verify(as_fact).passed


def test_entwined_module_families():
    a = algebra("Kx2-1", QQ)
    rho_one = insert_right(QQ, a.space, a.unit, a.space)
    e_gamma = EntwiningData(kind="semi", psi=mult_twist(a, QQ.one), algebra=a)
    mm_mod = MeasuredModule(
        "semi-entwined-module", a.space, a.space, measuring=a.mult, act=a.mult
    )
    assert check_entwined_variant(mm_mod, e_gamma).passed
    e_eta = EntwiningData(kind="semi", psi=comm_twist(a, QQ.one), algebra=a)
    mm_com = MeasuredModule(
        "semi-entwined-comodule", a.space, a.space, measuring=rho_one, act=a.mult
    )
    assert check_entwined_variant(mm_com, e_eta).passed


def test_corrupted_measuring_fails_with_witness():
    a = algebra("Kx2-1", QQ)
    e = EntwiningData(kind="semi", psi=mult_twist(a, QQ.one), algebra=a)
    mm = MeasuredModule(
        "semi-entwined-module",
        a.space,
        a.space,
        measuring=corrupt_map(a.mult),
        act=a.mult,
    )
    rep = check_entwined_variant(mm, e)
    assert not rep.passed
    assert rep.failures()[0].witness is not None


# (C, variant) -> the witness, and the length and nonzero entries over Q of the
# residual, of the corrupted measuring on cotwist@GL2,C, C's comultiplication
# its left coaction on itself
COSEMI_VARIANT_FAILURES = {
    ("GL2", "cosemi-entwined-module"): (("g1", "g1"), 4, {0: 1, 2: -1}),
    ("GL2", "cosemi-entwined-comodule"): (("g1",), 8, {0: -1, 4: 1}),
    ("Kx2-1*", "cosemi-entwined-module"): (("g1", "1*"), 4, {2: -1}),
    ("Kx2-1*", "cosemi-entwined-comodule"): (("1*",), 8, {4: 1}),
    ("M2*", "cosemi-entwined-module"): (("g1", "e01*"), 16, {4: -1}),
    ("M2*", "cosemi-entwined-comodule"): (("e01*",), 32, {8: 1}),
    ("KZ2", "cosemi-entwined-module"): (("g1", "g"), 4, {0: 1, 2: -1}),
    ("KZ2", "cosemi-entwined-comodule"): (("g",), 8, {0: -1, 4: 1}),
}
COSEMI_VARIANT_CHECKS = [
    *(f"entwining:{n}" for n in ("counit", "comultiplicativity", "left-counit", "left-comultiplicativity")),
    "comodule:coassociativity",
    "comodule:counit",
    "compatibility",
]


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("cname, variant", COSEMI_VARIANT_FAILURES)
def test_a_cosemi_entwined_variant_holds_and_its_corrupted_measuring_fails(field, cname, variant):
    # the measuring v ⊗ m -> v0(v)·m, or m -> v0 ⊗ m, with v0 the first basis vector of GL2
    gl2, c = coalgebra("GL2", field), coalgebra(cname, field)
    e = make_cotwist(gl2, c)
    measure = contract_left if variant == "cosemi-entwined-module" else insert_left
    measuring = measure(field, (field.one, field.zero), gl2.space, c.space)
    for m, failing in ((measuring, []), (corrupt_map(measuring), ["compatibility"])):
        rep = check_entwined_variant(MeasuredModule(variant, c.space, gl2.space, m, coact=c.comult), e)
        assert [x.name for x in rep.checks] == COSEMI_VARIANT_CHECKS
        assert [x.name for x in rep.failures()] == failing
    witness, n, entries = COSEMI_VARIANT_FAILURES[cname, variant]
    (bad,) = rep.failures()
    assert bad.witness == witness
    assert bad.residual == tuple(field.render(field.from_int(entries.get(i, 0))) for i in range(n))


@pytest.mark.parametrize("expr", ("twist@Kx2-0,Kx2-0", "quad@p=1,q=2"))
def test_entwined_module_roundtrip(expr):
    e = resolve_instance(expr, QQ)
    a, b = e.algebra, e.left_algebra
    if expr.startswith("twist"):
        triangle = b.mult
    else:
        triangle = materialize([b.mult, twist(QQ, a.space, b.space)])
    rep = entwined_roundtrip(e, a.mult, triangle)
    assert rep.passed, rep.render()
    mod = module_from_pair(a, b, e.psi, a.mult, triangle)
    act_back, tri_back = pair_from_module(a, b, mod)
    assert act_back.rows == a.mult.rows
    assert tri_back.rows == triangle.rows


def test_induced_module_and_intertwining():
    e = resolve_instance("module@Kx3", QQ)
    a, b_sp = e.algebra, e.left_space
    ind = induced_AtensorB_module(a, b_sp, e.psi)
    assert check_module(ind).passed
    rep = intertwining_from_semi(e)
    assert rep.passed, rep.render()
    # a flipped map is generally not an intertwiner between the two structures
    wrong = twist(QQ, a.space, b_sp)
    lifted = check_intertwining(wrong, ind, ind)
    assert not lifted.passed or wrong.rows == identity(QQ, ind.space).rows


def test_biproduct_passes_and_carries_structure():
    h = bialgebra("KZ2", QQ)
    result = make_biproduct(h, h.space, mult_twist(h.algebra, QQ.one))
    assert result.report.passed, result.report.render()
    assert check_algebra(result.algebra).passed
    com = ComoduleCoaction(h.coalgebra, result.algebra.space, result.coaction)
    assert check_comodule(com).passed
    assert result.integral_coaction is None


def test_biproduct_with_integral():
    h = bialgebra("Kmono", QQ)
    b = algebra("Kx2-1", QQ)
    psi = twist(QQ, b.space, h.space)
    result = make_biproduct(h, b.space, psi, integral=(QQ.zero, QQ.one))
    assert result.report.passed, result.report.render()
    assert result.integral_coaction is not None
    com = ComoduleCoaction(h.coalgebra, result.algebra.space, result.integral_coaction)
    assert check_comodule(com).passed


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize(
    "hname, expr, u",
    (
        ("KZ2", "twist@Kx2-0,Kx2-0", None),
        ("KZ2", "mult_twist@KZ2,q=1", None),
        ("KZ2", "corrupt:quad@p=1,q=2", (2, 3)),
        ("KZ2", "dk-KZ2-sign", None),
        ("Kmono", "twist@M2,Kx2-1", (0, 1)),
    ),
)
def test_biproduct_maps_match_their_basis_formulas(field, hname, expr, u):
    h = bialgebra(hname, field)
    e = resolve_instance(expr, field)
    u = h.unit if u is None else tuple(map(field.from_int, u))
    result = make_biproduct(h, e.left_space, e.psi, integral=u)
    mult, coaction = biproduct_rows(h, e.left_space.dim, e.psi, u)
    assert plain_rows(field, result.algebra.mult.rows) == plain_rows(field, mult)
    assert plain_rows(field, result.integral_coaction.rows) == plain_rows(field, coaction)
    assert plain_rows(field, [result.algebra.unit]) == plain_rows(field, [(0,) * e.left_space.dim + h.unit])
    labels = [f"B.{e.left_space.label(i)}" for i in range(e.left_space.dim)]
    assert result.algebra.space.labels == (*labels, *(f"A.{x}" for x in h.space.labels))


@pytest.mark.parametrize("integral", ((QQ.one,), (QQ.one, QQ.zero, QQ.one)))
def test_biproduct_refuses_an_integral_of_the_wrong_length(integral):
    h = bialgebra("KZ2", QQ)
    with pytest.raises(ShapeError, match=f"the integral has length {len(integral)}, but dim H is 2"):
        make_biproduct(h, h.space, mult_twist(h.algebra, QQ.one), integral=integral)


def test_biproduct_refuses_a_psi_of_the_wrong_shape():
    h, b = bialgebra("KZ2", QQ), algebra("Kx3", QQ)
    with pytest.raises(ShapeError, match=r"psi maps \(3, 3\) -> \(3, 3\), not .*, \(3, 2\) -> \(2, 3\)"):
        make_biproduct(h, b.space, mult_twist(b, QQ.one))
    # ψ : H (x) B -> B (x) H, its legs the wrong way round
    with pytest.raises(ShapeError, match=r"psi maps \(2, 3\) -> \(3, 2\)"):
        make_biproduct(h, b.space, twist(QQ, h.space, b.space))


def test_biproduct_rejects_non_integral():
    h = bialgebra("KZ2", QQ)
    result = make_biproduct(
        h, h.space, mult_twist(h.algebra, QQ.one), integral=(QQ.zero, QQ.one)
    )
    assert not result.report.passed
    assert any(c.name.startswith("integral") for c in result.report.failures())


# the suite's random ψ (`suite.row_product_iff`, `suite.row_coproduct_iff`) for
# three algebra pairs and three coalgebra pairs; in each pair some ψ fail a
# (co)unit law and pass (co)associativity, the costliest law to read
IFF_SIDES = {
    "product": (algebra_pairs, (5, 14, 35), 7919, algebra, "factorization", check_product_iff),
    "coproduct": (
        coalgebra_pairs, (9, 15, 43), 104729, coalgebra, "cofactorization", check_coproduct_iff
    ),
}


def suite_iff_cases(side, field):
    pairs, indices, step, structure, kind, _ = IFF_SIDES[side]
    legs = ("algebra", "left_algebra") if kind == "factorization" else ("coalgebra", "left_coalgebra")
    for idx, (ln, rn) in enumerate(pairs()):
        if idx in indices:
            right, left = structure(rn, field), structure(ln, field)
            for i in range(RANDOM_PER_PAIR):
                psi = random_entwining_matrix(field, left.space, right.space, seed=step * idx + i)
                yield (ln, rn), EntwiningData(kind=kind, psi=psi, **dict(zip(legs, (right, left))))


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("side", IFF_SIDES)
def test_verdict_agreement_is_the_declaration_order_conjunction(side, field):
    # the registry's instances of the kind and their corrupt: forms add ψ that
    # pass the (co)unit laws, so that (co)associativity decides the verdict
    kind, check = IFF_SIDES[side][4:]
    registry = (resolve_instance(x, field) for n in INSTANCE_NAMES for x in (n, f"corrupt:{n}"))
    cases = [*(e for _, e in suite_iff_cases(side, field)), *(e for e in registry if e.kind == kind)]
    decided_by_associativity = 0
    for e in cases:
        rep = check(e)
        # read in the report's order: (co)associativity first
        laws = [c.passed for c in rep.checks if c.name.startswith(side + ":")]
        twisted = all(laws)
        factorization = all(c.passed for c in rep.checks if c.name.startswith("factorization:"))
        assert rep.check("verdict-agreement").passed == (twisted == factorization)
        assert rep.check("verdict-agreement").passed, rep.render()
        decided_by_associativity += all(laws[1:])
    assert decided_by_associativity >= 2


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("side", IFF_SIDES)
def test_an_iff_check_reports_an_instance_of_its_kind_as_a_redeclared_copy(side, field):
    # an instance already of the kind is read as it is; a copy re-declared as
    # that kind, or as the one-leg kind, is re-declared by the check
    kind, check = IFF_SIDES[side][4:]
    one_leg = "semi" if kind == "factorization" else "cosemi"
    registry = (resolve_instance(x, field) for n in INSTANCE_NAMES for x in (n, f"corrupt:{n}"))
    cases = [*(e for _, e in suite_iff_cases(side, field)), *(e for e in registry if e.kind == kind)]
    failing = 0
    for e in cases:
        want = check(e).to_dict()
        assert check(replace(e, kind=kind)).to_dict() == want
        assert check(replace(e, kind=one_leg)).to_dict() == want
        failing += not want["passed"]
    assert 0 < failing < len(cases)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("side", IFF_SIDES)
def test_a_failing_unit_law_settles_the_agreement_before_associativity(monkeypatch, side, field):
    import entwiner.linalg as linalg

    check = IFF_SIDES[side][5]
    assoc, units = {
        "product": ("associativity", ("unit-left", "unit-right")),
        "coproduct": ("coassociativity", ("counit-left", "counit-right")),
    }[side]
    compare = linalg.check_map_identity
    names = []

    def counting(name, lhs, rhs):
        names.append(name)
        return compare(name, lhs, rhs)

    monkeypatch.setattr(linalg, "check_map_identity", counting)
    settled = Counter()
    for pair, e in suite_iff_cases(side, field):
        names.clear()
        rep = check(e)
        compared = list(names)
        if not all(rep.check(f"{side}:{n}").passed for n in units):
            assert assoc not in compared, (pair, compared)
            # read now, (co)associativity passes for some of these ψ
            settled[pair] += rep.check(f"{side}:{assoc}").passed
    assert len(+settled) == len(IFF_SIDES[side][1]), settled
