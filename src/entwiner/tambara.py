"""Generator actions: the finite shadow of the universal-coacting correspondence.

A semi-entwining map over an n-dimensional algebra A is the same data as a
family of n^2 operators rho(i, j) on the other tensor factor — the action of
the generator pair (a_i*, a_j) — subject to two relation families: the unit
relation and a composition relation indexed by basis triples.  The infinite
universal bialgebra itself is never materialized; the relations are the whole
testable content.  The mirror story indexes generators by (c_i*, c_j) over a
coalgebra and swaps unit/product for counit/coproduct.

The family is packed as one map rho : I (x) J (x) X -> X, whose column
(i*n + j)*m + k is column k of rho(i, j), so every relation and refinement is
a row of a law table (`GENERATOR_LAWS`, `COGENERATOR_LAWS`, `REFINEMENT_LAWS`,
`COREFINEMENT_LAWS`) checked by `linalg.check_laws`.  A failure's witness is
the basis tuple of the domain of the left side's innermost layer, so those
domains carry the labels a reader expects (the generator index as
`GeneratorAction.dual_label`) and hold no factor K: a unit, counit or
coevaluation is bound together with its neighbour under one name.  A
crossing of legs is a wire (`linalg.wire`: identity legs in another order,
no matrix; `CROSSING` in the composition relations), which `law_chains`
folds into the layer outside it, so the chains hold only maps, `KronApply`
layers and `Composite`s.  The round trip compares maps with `same_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .entwine import COSEMI_KINDS, SEMI_KINDS, EntwiningData, verify
from .fields import Field
from .linalg import (
    LinearMap,
    ShapeError,
    Space,
    check_laws,
    contract_left,
    covector_map,
    dual_space,
    from_entries,
    identity,
    insert_left,
    insert_right,
    space,
    tensor,
    vector_map,
    wire,
)
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

    @property
    def index(self) -> Space:
        """The generators' first index a_i*: the space labelled by `dual_label`."""
        return space(*map(self.dual_label, range(self.algebra.space.dim)))


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


def _generator_map(g: GeneratorAction, j: Space, x: Space) -> LinearMap:
    """The family as one map rho : I (x) J (x) X -> X, I labelled by `dual_label`:
    column (i*n + j)*m + k of rho is column k of maps[i][j] (n = dim A, m = dim X)."""
    n, m = g.algebra.space.dim, x.dim
    entries = (
        (r, (i * n + jj) * m + k, c)
        for i, row in enumerate(g.maps)
        for jj, f in enumerate(row)
        for r, f_row in enumerate(f.rows)
        for k, c in enumerate(f_row)
        if c
    )
    return from_entries(g.algebra.field, tensor(g.index, j, x), x, entries)


def _coevaluation(field: Field, i: Space, j: Space, k: Space) -> LinearMap:
    """I -> I (x) J (x) K, e_a -> sum_w e_a (x) e_w (x) e_w, with dim J = dim K: the
    coevaluation sum_w e_w (x) e_w* bound beside its left neighbour, so the layer
    that holds it adds no factor K to a witness."""
    n, m = j.dim, k.dim
    entries = (((a * n + w) * m + w, a, field.one) for a in range(i.dim) for w in range(n))
    return from_entries(field, i, tensor(i, j, k), entries)


def _split_maps(g: GeneratorAction, j: Space, x: Space) -> dict:
    # the maps both refinements bind beside their own: rho on X, the coevaluation
    # I -> I (x) J (x) I, the wire (I (x) J) (x) X -> X (x) (I (x) J), and the
    # evaluation pairing I (x) J -> K, e_i (x) e_j -> delta_ij
    field, i = g.algebra.field, g.index
    delta = [field.one if a == b else field.zero for a in range(i.dim) for b in range(j.dim)]
    return {
        "ρ": _generator_map(g, j, x),
        "ι": _coevaluation(field, i, j, i),
        "π": wire(field, (tensor(i, j), x), (1, 0)),
        "ev": covector_map(field, delta, tensor(i, j)),
    }


# rho : A* (x) A (x) X -> X, the generators (a_i*, a_j) acting on X, over the
# algebra (A, m) with unit u; Δ* is the transpose of m, and π the wire CROSSING
# takes s* (x) t* (x) j (x) k to t* (x) k (x) s* (x) j
CROSSING = (1, 3, 0, 2)
GENERATOR_LAWS = (
    ("unit", ["ρ", ("A*", "ηX")], [("u", "X")]),
    ("action", ["ρ", ("A*", "m", "X")], ["ρ", ("A*", "A", "ρ"), ("π", "X"), ("Δ*", "A", "A", "X")]),
)
# rho on an algebra (B, m, η): each generator splits the product of B and fixes its unit
REFINEMENT_LAWS = (
    ("product-split", ["ρ", ("A*", "A", "m")], ["m", ("ρ", "ρ"), ("A*", "A", "π", "B"), ("ι", "A", "B", "B")]),
    ("unit-split", ["ρ", ("A*", "Aη")], ["η", "ev"]),
)


def check_tambara_relations(g: GeneratorAction) -> Report:
    """The unit and composition relations of a lawful generator family."""
    a, x, i = g.algebra, g.carrier, g.index
    field = a.field
    maps = {
        "ρ": _generator_map(g, a.space, x),
        "m": a.mult,
        "Δ*": a.mult.transpose(),
        "π": wire(field, (i, i, a.space, a.space), CROSSING),
        "ηX": insert_left(field, a.unit, a.space, x),
        ("u", "X"): contract_left(field, a.unit, i, x),
        "A*": identity(field, i),
        "A": identity(field, a.space),
        "X": identity(field, x),
    }
    return Report("generator-relations", check_laws(GENERATOR_LAWS, maps))


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
    """Generators act by split multiplications on B iff psi respects B's algebra structure.

    The split rows slice psi's left-leg laws (left-multiplicativity and
    left-unit) by a bijection, so `agreement` compares the two verdicts with no
    premise: it holds even where the right-leg laws of psi fail.
    """
    if b.space.dims != g.carrier.dims:
        raise ShapeError("the refinement needs an algebra structure on the carrier")
    field = b.field
    maps = _split_maps(g, g.algebra.space, b.space) | {
        "m": b.mult,
        "Aη": insert_right(field, g.algebra.space, b.unit, b.space),
        "η": vector_map(field, b.unit, b.space),
        "A*": identity(field, g.index),
        "A": identity(field, g.algebra.space),
        "B": identity(field, b.space),
    }
    factorization = verify(
        EntwiningData("factorization", _psi_from_maps(g), algebra=g.algebra, left_algebra=b)
    )
    return _refinement("module-algebra-refinement", check_laws(REFINEMENT_LAWS, maps), factorization)


def _refinement(suite: str, splits, factorization: Report) -> Report:
    """The split rows, the factorization's report and their `agreement`: the split
    rows pass together iff psi's left-leg laws do."""
    left_leg = all(c.passed for c in factorization.checks if c.name.startswith("left-"))
    agreement = IdentityCheck("agreement", all(c.passed for c in splits) == left_leg)
    return merge(suite, splits, factorization.prefixed("factorization"), agreement)


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


# rho : C (x) C (x) X -> X, the generators (c_i*, c_j) of a coalgebra (C, Δ, ε)
# acting on X, written from Δ and ε themselves: εJX inserts the counit left of
# J (x) X, Δᵀ : C (x) C -> C is the transpose of Δ on C's own labels, and π
# is CROSSING, as in GENERATOR_LAWS
COGENERATOR_LAWS = (
    ("counit", ["ρ", "εJX"], [("ε", "JX")]),
    ("coaction", ["ρ", ("Δᵀ", "C", "X")], ["ρ", ("C", "C", "ρ"), ("π", "X"), ("C", "C", "Δ", "X")]),
)
# rho on a coalgebra (D, Δ, ε): each generator splits the coproduct of D and
# respects its counit, read as a covector on D through the coevaluation ιD
COREFINEMENT_LAWS = (
    ("coproduct-split", ["Δ", "ρ"], [("ρ", "ρ"), ("C", "C", "π", "D"), ("ι", "C", "D", "D"), ("C", "C", "Δ")]),
    ("counit-split", [("ε", "D*"), ("ρ", "D*"), ("C", "ιD")], ["ε*", "ev"]),
)


def check_cotambara_relations(e: EntwiningData) -> Report:
    """Counit and coproduct relations for the coalgebra-side generator family.

    Formulated directly with the counit and comultiplication of C — an
    independent route from running the algebra-side relations over C*.
    """
    g = cotambara_action(e)
    c, x, j = e.coalgebra, g.carrier, g.index
    field = c.field
    transposed = ((i, st, v) for st, row in enumerate(c.comult.rows) for i, v in enumerate(row) if v)
    maps = {
        "ρ": _generator_map(g, j, x),
        "Δ": c.comult,
        "Δᵀ": from_entries(field, c.comult.codomain, c.space, transposed),
        "π": wire(field, (c.space, c.space, c.space, c.space), CROSSING),
        "εJX": insert_left(field, c.counit, j, tensor(j, x)),
        ("ε", "JX"): contract_left(field, c.counit, j, x),
        "C": identity(field, c.space),
        "X": identity(field, x),
    }
    return Report("cogenerator-relations", check_laws(COGENERATOR_LAWS, maps))


def check_comodule_coalgebra_refinement(e: EntwiningData, d: Coalgebra) -> Report:
    """Generators split through the coproduct of D iff psi respects D's coalgebra structure.

    The split rows slice psi's left-leg laws (left-comultiplicativity and
    left-counit) by a bijection, so `agreement` holds with no premise.
    """
    g = cotambara_action(e)
    if d.space.dims != g.carrier.dims:
        raise ShapeError("the refinement needs a coalgebra structure on the carrier")
    field, i = d.field, g.index
    d_star = dual_space(d.space)
    maps = _split_maps(g, i, d.space) | {
        "Δ": d.comult,
        ("ε", "D*"): contract_left(field, d.counit, d.space, d_star),
        "ιD": _coevaluation(field, i, d.space, d_star),
        "ε*": vector_map(field, d.counit, d_star),
        "C": identity(field, i),
        "D": identity(field, d.space),
        "D*": identity(field, d_star),
    }
    factorization = verify(replace(e, kind="cofactorization", left_coalgebra=d))
    return _refinement("comodule-coalgebra-refinement", check_laws(COREFINEMENT_LAWS, maps), factorization)
