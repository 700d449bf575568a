"""Transport of structure: a change of basis on every tensor factor keeps every verdict,
and so does transposition onto the dual spaces.

The laws are basis-free, so conjugating psi and the structures on its two legs
by invertible maps g_L, g_R must leave the per-check verdicts of `verify`
unchanged, whichever laws the table assembles; so must conjugating a
bialgebra, or a module and its algebra, with `check_bialgebra` and
`check_module`.  Unitriangular integer
matrices have integral inverses, so the same change of basis is valid over Q
and every F_p.

For finite-dimensional spaces the transpose of a law identity is the law
identity of the dual structure, `linalg.dual` of its row: an algebra and its
dual coalgebra, a module and its transposed comodule, and a semi-entwining and
its transposed cosemi-entwining must each give the same verdict list, under
the dual law names.
"""

import random
from dataclasses import replace

import pytest

from entwiner.entwine import SEMI_KINDS, EntwiningData, verify
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import LinearMap, ShapeError, dual, dual_space, twist
from entwiner.registry import (
    ALGEBRA_NAMES,
    BIALGEBRA_NAMES,
    INSTANCE_NAMES,
    algebra,
    bialgebra,
    corrupt_map,
    resolve_instance,
    sign_module,
    trivial_module,
)
from entwiner.structures import (
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
    dualize_algebra,
    regular_module,
)
from entwiner.yangbaxter import check_yb_operator
from opposite_bialgebras import band, h4


def unitriangular(rng, n):
    """A random upper unitriangular integer matrix and its integral inverse."""
    g = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        for i in reversed(range(n)):
            inv[i][col] = int(i == col) - sum(g[i][k] * inv[k][col] for k in range(i + 1, n))
    return g, inv


def basis_change(rng, field, v):
    """g = L U on v with L lower and U upper unitriangular, and g^-1 = U^-1 L^-1.

    A unitriangular g of one kind alone fixes a basis vector (e_0 for an upper
    one), and registry units are often e_0, so both kinds are multiplied.
    """

    def as_map(m):
        return LinearMap(field, v, v, tuple(tuple(field.from_int(x) for x in row) for row in m))

    u, ui = unitriangular(rng, v.dim)
    lt, lti = unitriangular(rng, v.dim)
    l, li = as_map(list(zip(*lt))), as_map(list(zip(*lti)))
    return l * as_map(u), as_map(ui) * li


def transport_structure(s, g, gi):
    """m' = g m (g^-1 (x) g^-1), unit' = g unit; Δ' = (g (x) g) Δ g^-1, counit' = counit g^-1."""
    if s is None:
        return None
    if isinstance(s, Algebra):
        return Algebra(s.field, s.space, g * s.mult * (gi @ gi), g.apply(s.unit))
    assert isinstance(s, Coalgebra)
    return Coalgebra(s.field, s.space, (g @ g) * s.comult * gi, gi.transpose().apply(s.counit))


def transport(e, rng):
    """psi' = (g_R (x) g_L) psi (g_L^-1 (x) g_R^-1), each leg's structure moved by its g."""
    gl, gli = basis_change(rng, e.field, e.left_space)
    gr, gri = basis_change(rng, e.field, e.psi.domain.factors[1])
    return replace(
        e,
        psi=(gr @ gl) * e.psi * (gli @ gri),
        algebra=transport_structure(e.algebra, gr, gri),
        coalgebra=transport_structure(e.coalgebra, gr, gri),
        left_algebra=transport_structure(e.left_algebra, gl, gli),
        left_coalgebra=transport_structure(e.left_coalgebra, gl, gli),
    )


def test_basis_change_inverse_and_moved_unit():
    rng = random.Random(5)
    a = resolve_instance("module@Kx3", QQ).algebra
    g, gi = basis_change(rng, QQ, a.space)
    one = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert (g * gi).rows == one and (gi * g).rows == one
    assert a.unit == (1, 0, 0) and g.apply(a.unit) != a.unit


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_verdicts_survive_a_change_of_basis(field):
    cases = moved_psi = 0
    for name in INSTANCE_NAMES:
        for expr in (name, "corrupt:" + name, "dual:" + name):
            try:
                e = resolve_instance(expr, field)
            except ShapeError:  # dual: of a non-factorization
                continue
            moved = transport(e, random.Random(expr))
            want = [(c.name, c.passed) for c in verify(e).checks]
            assert [(c.name, c.passed) for c in verify(moved).checks] == want, expr
            cases += 1
            moved_psi += moved.psi != e.psi
    assert cases == 76
    assert moved_psi > cases // 2


def verdicts(rep):
    return [(c.name, c.passed) for c in rep.checks]


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_bialgebra_verdicts_survive_a_change_of_basis(field):
    # KZ2, Kmono, Sweedler's H4 and the band, and each with its product or its
    # coproduct corrupted; H4 is not cocommutative and the band not commutative
    bialgebras = [(name, bialgebra(name, field)) for name in BIALGEBRA_NAMES]
    bialgebras += [("H4", h4(field)), ("band", band(field))]
    cases = failing = 0
    for name, plain in bialgebras:
        for h in (
            plain,
            replace(plain, mult=corrupt_map(plain.mult)),
            replace(plain, comult=corrupt_map(plain.comult)),
        ):
            g, gi = basis_change(random.Random(name), field, h.space)
            a = transport_structure(h.algebra, g, gi)
            c = transport_structure(h.coalgebra, g, gi)
            moved = Bialgebra(field, h.space, a.mult, a.unit, c.comult, c.counit)
            assert moved.mult != h.mult and moved.comult != h.comult
            assert verdicts(check_bialgebra(moved)) == verdicts(check_bialgebra(h)), name
            cases += 1
            failing += not check_bialgebra(h).passed
    assert (cases, failing) == (12, 8)


def transport_module(mod, g_m, g_mi, g_a, g_ai):
    """act' = g_M act (g_M^-1 (x) g_A^-1) over the algebra moved by g_A."""
    a = transport_structure(mod.algebra, g_a, g_ai)
    return ModuleAction(a, mod.space, g_m * mod.act * (g_mi @ g_ai))


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_module_verdicts_survive_a_change_of_basis(field):
    # the regular module of every registry algebra and the trivial and sign
    # characters of KZ2 and Kmono, each also with its action corrupted; the
    # carrier and the algebra move by two different changes of basis
    modules = [(name, regular_module(algebra(name, field))) for name in ALGEBRA_NAMES]
    for h in BIALGEBRA_NAMES:
        modules += [(f"{m.__name__}:{h}", m(bialgebra(h, field))) for m in (trivial_module, sign_module)]
    cases = failing = moved_act = 0
    for label, plain in modules:
        for mod in (plain, replace(plain, act=corrupt_map(plain.act))):
            rng = random.Random(label)
            g_m, g_mi = basis_change(rng, field, mod.space)
            g_a, g_ai = basis_change(rng, field, mod.algebra.space)
            moved = transport_module(mod, g_m, g_mi, g_a, g_ai)
            assert verdicts(check_module(moved)) == verdicts(check_module(mod)), label
            cases += 1
            failing += not check_module(mod).passed
            moved_act += moved.act != mod.act
    assert cases == 2 * len(modules)
    assert failing == len(modules)
    assert moved_act > cases // 2


def conjugated(phi, g, gi):
    """R' = (g (x) g) R (g (x) g)^-1 for R on V (x) V."""
    return (g @ g) * phi * (gi @ gi)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_yb_operator_verdicts_survive_a_change_of_basis(field):
    # the braid and QYBE laws stream the dim V^3 columns of V (x) V (x) V, so
    # they cross blocks of width 2 and more
    cases = moved_psi = 0
    for name in INSTANCE_NAMES:
        for expr in (name, "corrupt:" + name, "dual:" + name):
            try:
                psi = resolve_instance(expr, field).psi
            except ShapeError:  # dual: of a non-factorization
                continue
            v, w = psi.domain.factors if len(psi.domain.factors) == 2 else (None, None)
            if v is None or v != w:
                continue
            g, gi = basis_change(random.Random(expr), field, v)
            moved = conjugated(psi, g, gi)
            want = [(c.name, c.passed) for c in check_yb_operator(psi).checks]
            assert [(c.name, c.passed) for c in check_yb_operator(moved).checks] == want, expr
            cases += 1
            moved_psi += moved != psi
    assert cases == 56
    assert moved_psi > cases // 2


def dual_verdicts(rep):
    """The (name, verdict) list of a report, each name read as its dual law's."""
    return [(dual((c.name, [], []))[0], c.passed) for c in rep.checks]


def co_opposite_dual(a):
    """The dual coalgebra of A with Δ = τ∘mᵀ: flipping both legs of a transposed
    semi law reverses the order of C (x) C."""
    c = dualize_algebra(a)
    return replace(c, comult=twist(c.field, c.space, c.space) * c.comult)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_an_algebra_and_its_regular_module_transpose_with_their_verdicts(field):
    # every registry algebra, and the same with its multiplication corrupted
    failing = 0
    for name in ALGEBRA_NAMES:
        plain = algebra(name, field)
        for a in (plain, replace(plain, mult=corrupt_map(plain.mult))):
            c = dualize_algebra(a)
            comodule = ComoduleCoaction(c, c.space, a.mult.transpose())
            for rep, co in ((check_algebra(a), check_coalgebra(c)),
                            (check_module(regular_module(a)), check_comodule(comodule))):
                assert [(x.name, x.passed) for x in co.checks] == dual_verdicts(rep), (name, rep.render())
                failing += not rep.passed
    assert failing == 8


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_a_semi_entwining_transposes_to_a_cosemi_entwining_with_its_verdicts(field):
    # psi : B (x) A -> A (x) B goes to τ∘ψᵀ∘τ : B* (x) A* -> A* (x) B* over the
    # co-opposite of A*, for every semi-side registry instance and its corrupt: form
    cases = failing = 0
    for name in INSTANCE_NAMES:
        for expr in (name, "corrupt:" + name):
            e = resolve_instance(expr, field)
            if e.kind not in SEMI_KINDS:
                continue
            a, b = map(dual_space, e.psi.codomain.factors)
            flip = twist(field, b, a)
            co_psi = flip * e.psi.transpose() * flip
            co = EntwiningData(kind="cosemi", psi=co_psi, coalgebra=co_opposite_dual(e.algebra))
            rep = verify(replace(e, kind="semi"))
            assert [(x.name, x.passed) for x in verify(co).checks] == dual_verdicts(rep), expr
            cases += 1
            failing += not rep.passed
    assert (cases, failing) == (48, 18)
