"""Generator actions: the finite shadow of the universal-coacting correspondence.

A semi-entwining map over an n-dimensional algebra A is the same data as a
family of n^2 operators rho(i, j) on the other tensor factor — the action of
the generator pair (a_i*, a_j) — subject to two relation families: the unit
relation and a composition relation indexed by basis triples.  The infinite
universal bialgebra itself is never materialized; the relations are the whole
testable content.  The mirror story indexes generators by (c_i*, c_j) over a
coalgebra and swaps unit/product for counit/coproduct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entwine import COSEMI_KINDS, SEMI_KINDS, EntwiningData, verify
from .linalg import LinearMap, ShapeError, Space, kron, tensor
from .report import IdentityCheck, PreconditionError, Report, merge
from .structures import Algebra, Coalgebra, convolution_algebra


@dataclass(frozen=True)
class GeneratorAction:
    """Operators maps[i][j] : carrier -> carrier for the generator pairs (a_i*, a_j)."""

    algebra: Algebra
    carrier: Space
    maps: tuple[tuple[LinearMap, ...], ...]

    def __post_init__(self):
        n = self.algebra.space.dim
        if len(self.maps) != n or any(len(row) != n for row in self.maps):
            raise ShapeError("generator maps must form a dim(A) x dim(A) family")
        md = self.carrier.dims
        for row in self.maps:
            for m in row:
                if m.domain.dims != md or m.codomain.dims != md:
                    raise ShapeError("generator maps must be endomorphisms of the carrier")

    def dual_label(self, i: int) -> str:
        return self.algebra.space.label(i) + "*"


def _slice(e: EntwiningData, n: int) -> tuple[tuple[LinearMap, ...], ...]:
    """maps[i][j] : b -> i-th coordinate of the right leg of psi(b (x) e_j), n = dim right."""
    b, psi = e.left_space, e.psi
    m = b.dim
    return tuple(
        tuple(
            LinearMap(
                e.field,
                b,
                b,
                tuple(tuple(psi.rows[i * m + l][k * n + j] for k in range(m)) for l in range(m)),
            )
            for j in range(n)
        )
        for i in range(n)
    )


def action_from_semi(e: EntwiningData) -> GeneratorAction:
    """Slice psi into the operators b -> a_i*(A-leg of psi(b (x) a_j))."""
    if e.kind not in SEMI_KINDS:
        raise ShapeError("generator actions index over an algebra-side entwining")
    return GeneratorAction(e.algebra, e.left_space, _slice(e, e.algebra.space.dim))


def _psi_from_maps(g: GeneratorAction) -> LinearMap:
    a_sp, b = g.algebra.space, g.carrier
    n, m = a_sp.dim, b.dim
    rows = tuple(
        tuple(g.maps[i][j].rows[l][k] for k in range(m) for j in range(n))
        for i in range(n)
        for l in range(m)
    )
    return LinearMap(g.algebra.field, tensor(b, a_sp), tensor(a_sp, b), rows)


def semi_from_action(g: GeneratorAction) -> EntwiningData:
    """Reassemble psi(b (x) a) = sum_i a_i (x) (b . [a_i* (x) a]) from a lawful family."""
    relations = check_tambara_relations(g)
    if not relations.passed:
        raise PreconditionError("the generator relations fail", relations)
    return EntwiningData(kind="semi", psi=_psi_from_maps(g), algebra=g.algebra)


def _first_failure(name: str, field, cases, column=lambda j: ()) -> IdentityCheck:
    """Pass, or fail at the first case whose two matrices differ.

    `cases` yields (witness, lhs, rhs) with lhs and rhs as lists of rows; the
    witness is extended by `column` of the first unequal column, and the
    residual is that column of lhs - rhs.
    """
    for witness, lhs, rhs in cases:
        for j in range(len(lhs[0]) if lhs else 0):
            if any(row[j] != other[j] for row, other in zip(lhs, rhs)):
                residual = tuple(field.render(row[j] - other[j]) for row, other in zip(lhs, rhs))
                return IdentityCheck(name, False, witness + column(j), residual)
    return IdentityCheck(name, True)


def _zeros(field, nrows: int, ncols: int) -> list:
    return [[field.zero] * ncols for _ in range(nrows)]


def _column(vec) -> list:
    return [[x] for x in vec]


def _accumulate(rows, scalar, m: LinearMap):
    if not scalar:
        return
    for r, src in enumerate(m.rows):
        dst = rows[r]
        for c, v in enumerate(src):
            if v:
                dst[c] = dst[c] + scalar * v


def check_tambara_relations(g: GeneratorAction) -> Report:
    """The unit and composition relations of a lawful generator family."""
    a = g.algebra
    field = a.field
    n, m = a.space.dim, g.carrier.dim
    mult = a.mult.rows

    def unit_cases():
        for i in range(n):
            rows = _zeros(field, m, m)
            for j, u in enumerate(a.unit):
                _accumulate(rows, u, g.maps[i][j])
            target = [[a.unit[i] if r == c else field.zero for c in range(m)] for r in range(m)]
            yield (g.dual_label(i),), rows, target

    def action_cases():
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = _zeros(field, m, m)
                    for l in range(n):
                        _accumulate(lhs, mult[l][j * n + k], g.maps[i][l])
                    rhs = _zeros(field, m, m)
                    for s in range(n):
                        for t in range(n):
                            coeff = mult[i][s * n + t]
                            if coeff:
                                _accumulate(rhs, coeff, g.maps[t][k] * g.maps[s][j])
                    labels = (g.dual_label(i), a.space.label(j), a.space.label(k))
                    yield labels, lhs, rhs

    def carrier(j):
        return (g.carrier.label(j),)

    return Report(
        "generator-relations",
        (
            _first_failure("unit", field, unit_cases(), carrier),
            _first_failure("action", field, action_cases(), carrier),
        ),
    )


def check_action_roundtrip(e: EntwiningData) -> Report:
    """Both directions of the slicing/reassembly correspondence are exact."""
    g = action_from_semi(e)
    back = _psi_from_maps(g)
    psi_row = IdentityCheck("psi-roundtrip", back.same_matrix(e.psi))
    again = action_from_semi(EntwiningData(kind="semi", psi=back, algebra=g.algebra))
    n = g.algebra.space.dim
    bad = next(
        (
            (g.dual_label(i), g.algebra.space.label(j))
            for i in range(n)
            for j in range(n)
            if not g.maps[i][j].same_matrix(again.maps[i][j])
        ),
        None,
    )
    maps_row = IdentityCheck("maps-roundtrip", bad is None, bad)
    return Report("action-roundtrip", (psi_row, maps_row))


def check_module_algebra_refinement(g: GeneratorAction, b: Algebra) -> Report:
    """Generators act by split multiplications on B iff psi factorizes."""
    if b.space.dims != g.carrier.dims:
        raise ShapeError("the refinement needs an algebra structure on the carrier")
    field = b.field
    n, m = g.algebra.space.dim, b.space.dim

    def product_cases():
        for i in range(n):
            for j in range(n):
                rhs = _zeros(field, m, m * m)
                for k in range(n):
                    _accumulate(rhs, field.one, b.mult * kron(g.maps[i][k], g.maps[k][j]))
                yield (g.dual_label(i), g.algebra.space.label(j)), (g.maps[i][j] * b.mult).rows, rhs

    def unit_cases():
        for i in range(n):
            for j in range(n):
                got = g.maps[i][j].apply(b.unit)
                want = [(field.one if i == j else field.zero) * u for u in b.unit]
                yield (g.dual_label(i), g.algebra.space.label(j)), _column(got), _column(want)

    product_row = _first_failure("product-split", field, product_cases(), b.mult.domain.basis_tuple)
    unit_row = _first_failure("unit-split", field, unit_cases())
    factorization = verify(
        EntwiningData("factorization", _psi_from_maps(g), algebra=g.algebra, left_algebra=b)
    )
    agreement = IdentityCheck(
        "agreement",
        (product_row.passed and unit_row.passed) == factorization.passed,
    )
    return merge(
        "module-algebra-refinement",
        product_row,
        unit_row,
        factorization.prefixed("factorization"),
        agreement,
    )


# ---------------------------------------------------------------------------
# the coalgebra-side mirror


def cotambara_action(e: EntwiningData) -> GeneratorAction:
    """Slice a coalgebra-side psi into d -> c_i*(C-leg of psi(d (x) c_j)).

    The base of the returned family is the convolution algebra C*; its maps
    match the algebra-side action of the dualized entwining with the two
    generator indices transposed.
    """
    if e.kind not in COSEMI_KINDS:
        raise ShapeError("cotambara actions index over a coalgebra-side entwining")
    c = e.coalgebra
    return GeneratorAction(convolution_algebra(c), e.left_space, _slice(e, c.space.dim))


def check_cotambara_relations(e: EntwiningData) -> Report:
    """Counit and coproduct relations for the coalgebra-side generator family.

    Formulated directly with the counit and comultiplication of C — an
    independent route from running the algebra-side relations over C*.
    """
    g = cotambara_action(e)
    c = e.coalgebra
    field = c.field
    n, m = c.space.dim, g.carrier.dim
    comult = c.comult.rows

    def counit_cases():
        for j in range(n):
            rows = _zeros(field, m, m)
            for i, s in enumerate(c.counit):
                _accumulate(rows, s, g.maps[i][j])
            target = [[c.counit[j] if r == k else field.zero for k in range(m)] for r in range(m)]
            yield (g.dual_label(j),), rows, target

    def coaction_cases():
        for s in range(n):
            for t in range(n):
                for j in range(n):
                    lhs = _zeros(field, m, m)
                    for i in range(n):
                        _accumulate(lhs, comult[s * n + t][i], g.maps[i][j])
                    rhs = _zeros(field, m, m)
                    for u in range(n):
                        for v in range(n):
                            coeff = comult[u * n + v][j]
                            if coeff:
                                _accumulate(rhs, coeff, g.maps[t][v] * g.maps[s][u])
                    labels = (c.space.label(s), c.space.label(t), c.space.label(j))
                    yield labels, lhs, rhs

    def carrier(k):
        return (g.carrier.label(k),)

    return Report(
        "cogenerator-relations",
        (
            _first_failure("counit", field, counit_cases(), carrier),
            _first_failure("coaction", field, coaction_cases(), carrier),
        ),
    )


def check_comodule_coalgebra_refinement(e: EntwiningData, d: Coalgebra) -> Report:
    """Generators split through the coproduct of D iff psi cofactorizes."""
    g = cotambara_action(e)
    if d.space.dims != g.carrier.dims:
        raise ShapeError("the refinement needs a coalgebra structure on the carrier")
    field = d.field
    n, m = e.coalgebra.space.dim, d.space.dim

    def coproduct_cases():
        for i in range(n):
            for j in range(n):
                rhs = _zeros(field, m * m, m)
                for w in range(n):
                    _accumulate(rhs, field.one, kron(g.maps[i][w], g.maps[w][j]) * d.comult)
                yield (g.dual_label(i), g.dual_label(j)), (d.comult * g.maps[i][j]).rows, rhs

    def counit_cases():
        for i in range(n):
            for j in range(n):
                got = [
                    sum((s * v for s, v in zip(d.counit, g.maps[i][j].column(k)) if v), field.zero)
                    for k in range(m)
                ]
                want = [(field.one if i == j else field.zero) * s for s in d.counit]
                yield (g.dual_label(i), g.dual_label(j)), _column(got), _column(want)

    def carrier(k):
        return (d.space.label(k),)

    coproduct_row = _first_failure("coproduct-split", field, coproduct_cases(), carrier)
    counit_row = _first_failure("counit-split", field, counit_cases())
    factorization = verify(replace(e, kind="cofactorization", left_coalgebra=d))
    agreement = IdentityCheck(
        "agreement",
        (coproduct_row.passed and counit_row.passed) == factorization.passed,
    )
    return merge(
        "comodule-coalgebra-refinement",
        coproduct_row,
        counit_row,
        factorization.prefixed("factorization"),
        agreement,
    )
