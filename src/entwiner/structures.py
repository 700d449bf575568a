"""Algebras, coalgebras, bialgebras, modules, comodules, and their law checks.

Structures are plain frozen containers of structure constants (maps over a
fixed basis); every law is verified, never assumed.  Checks return Reports
whose failures carry the first failing basis tuple and the exact residual.

Conventions: modules are right modules (act : M (x) A -> M), comodules are
right comodules (coact : M -> M (x) C), units are coefficient vectors and
counits coefficient covectors over the fixed basis.

Every law is a word in a table (`ALGEBRA_LAWS`, `COALGEBRA_LAWS`,
`MODULE_LAWS`, `COMODULE_LAWS`, `BIALGEBRA_LAWS`, `COMODULE_ALGEBRA_LAWS`,
`INTEGRAL_LAWS`, `DERIVATION_LAWS`) checked by `linalg.check_laws`.  The
coalgebra and comodule tables are not written out: each row is `linalg.dual` of
its algebra or module row, the transposed identity.  Names: m
and Δ the (co)multiplication, ρ and δ the (co)action, a space letter its
identity, τ the flip of two factors (a `linalg.wire`), and (X, "η"),
("η", X), (X, "ε"), ("ε", X) the unit insertions and
counit contractions that `unit_maps` and `counit_maps` bind.  Like
`linalg.identity`, those are built once per content key (field, unit or
counit, spaces), the last few kept, and so are the identity and (co)unit
maps that `check_algebra` and `check_coalgebra` bind beside m or Δ.  A law
on a vector reads it as a map from `linalg.K`: a unit or an integral is a
map K -> H named η or ξ, a counit a map H -> K named ε, and K names the
identity of K, so such a law fails with K's one basis tuple as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import Field, Scalar
from .linalg import (
    K,
    Composite,
    LinearMap,
    ShapeError,
    Space,
    check_laws,
    combine,
    contract_left,
    contract_right,
    covector_map,
    dual,
    dual_space,
    identity,
    insert_left,
    insert_right,
    lazy_kron,
    twist,
    vector_map,
    wire,
    zero_map,
)
from .report import Report, merge

ALGEBRA_LAWS = (
    ("associativity", ["m", ("m", "A")], ["m", ("A", "m")]),
    ("unit-left", ["m", ("η", "A")], ["A"]),
    ("unit-right", ["m", ("A", "η")], ["A"]),
)
MODULE_LAWS = (
    ("action-associativity", ["ρ", ("ρ", "A")], ["ρ", ("M", "m")]),
    ("action-unit", ["ρ", ("M", "η")], ["M"]),
)
# the transposes, for (C, Δ, ε) and a right comodule δ : M -> M (x) C
COALGEBRA_LAWS = tuple(map(dual, ALGEBRA_LAWS))
COMODULE_LAWS = tuple(map(dual, MODULE_LAWS))
# η : K -> H the unit and ε : H -> K the counit, as maps
BIALGEBRA_LAWS = (
    ("comult-multiplicative", ["Δ", "m"], [("m", "m"), ("H", "τ", "H"), ("Δ", "Δ")]),
    ("comult-unit", ["Δ", "η"], [("η", "η")]),
    ("counit-multiplicative", ["ε", "m"], [("ε", "ε")]),
    ("counit-unit", ["ε", "η"], ["K"]),
)
# the algebra E (m, η) with a coaction δ over the bialgebra H (μ, η_H)
COMODULE_ALGEBRA_LAWS = (
    ("coaction-multiplicative", ["δ", "m"], [("m", "μ"), ("E", "τ", "H"), ("δ", "δ")]),
    ("coaction-unit", ["δ", "η"], [("η", "η_H")]),
)
# ξ : K -> H a vector of the bialgebra H, and ("ξ", "H"), ("H", "ξ") its insertions
INTEGRAL_LAWS = (
    ("grouplike-comult", ["Δ", "ξ"], [("ξ", "ξ")]),
    ("grouplike-counit", ["ε", "ξ"], ["K"]),
    ("integral-left", ["m", ("ξ", "H")], ["ξ", "ε"]),
    ("integral-right", ["m", ("H", "ξ")], ["ξ", "ε"]),
)
# d : A -> A; the right side of Leibniz is one bound `combine`, and 0 : K -> A
DERIVATION_LAWS = (
    ("leibniz", ["d", "m"], ["m(d⊗A + A⊗d)"]),
    ("unit-annihilation", ["d", "η"], ["0"]),
)


@dataclass(frozen=True)
class Algebra:
    """Multiplication A (x) A -> A with a unit vector; laws via check_algebra.

    The multiplication is a dense map, or a `Composite` whose columns the laws
    compute on demand.
    """

    field: Field
    space: Space
    mult: LinearMap | Composite
    unit: tuple[Scalar, ...]

    def __post_init__(self):
        d = self.space.dims
        if self.mult.domain_dims != d + d or self.mult.codomain_dims != d:
            raise ShapeError("multiplication must map A (x) A -> A")
        if len(self.unit) != self.space.dim:
            raise ShapeError("unit vector length must equal dim A")
        if self.mult.field != self.field:
            raise ShapeError("multiplication field mismatch")


def unit_maps(a: Algebra, **spaces: Space) -> dict:
    """Bind (X, "η") : X -> X (x) A and ("η", X) : X -> A (x) X for each named space X."""
    out = {}
    for name, v in spaces.items():
        out[(name, "η")], out[("η", name)] = _insertions(a.field, tuple(a.unit), a.space, v)
    return out


@lru_cache(maxsize=8)
def _insertions(field: Field, unit: tuple, a: Space, v: Space) -> tuple[LinearMap, LinearMap]:
    return insert_right(field, v, unit, a), insert_left(field, unit, a, v)


def check_algebra(a: Algebra) -> Report:
    maps = {"m": a.mult, **_algebra_maps(a.field, a.space, tuple(a.unit))}
    return Report("algebra", check_laws(ALGEBRA_LAWS, maps))


@lru_cache(maxsize=8)
def _algebra_maps(field: Field, a: Space, unit: tuple) -> dict:
    # the maps of ALGEBRA_LAWS but m, which every algebra on (field, a, unit) shares
    ins_right, ins_left = _insertions(field, unit, a, a)
    return {"A": identity(field, a), ("A", "η"): ins_right, ("η", "A"): ins_left}


@dataclass(frozen=True)
class Coalgebra:
    """Comultiplication C -> C (x) C with a counit covector; laws via check_coalgebra.

    The comultiplication is a dense map or a `Composite`, as in `Algebra`.
    """

    field: Field
    space: Space
    comult: LinearMap | Composite
    counit: tuple[Scalar, ...]

    def __post_init__(self):
        d = self.space.dims
        if self.comult.domain_dims != d or self.comult.codomain_dims != d + d:
            raise ShapeError("comultiplication must map C -> C (x) C")
        if len(self.counit) != self.space.dim:
            raise ShapeError("counit covector length must equal dim C")
        if self.comult.field != self.field:
            raise ShapeError("comultiplication field mismatch")


def counit_maps(c: Coalgebra, **spaces: Space) -> dict:
    """Bind (X, "ε") : X (x) C -> X and ("ε", X) : C (x) X -> X for each named space X."""
    out = {}
    for name, v in spaces.items():
        out[(name, "ε")], out[("ε", name)] = _contractions(c.field, tuple(c.counit), c.space, v)
    return out


@lru_cache(maxsize=8)
def _contractions(field: Field, counit: tuple, c: Space, v: Space) -> tuple[LinearMap, LinearMap]:
    return contract_right(field, v, counit, c), contract_left(field, counit, c, v)


def check_coalgebra(c: Coalgebra) -> Report:
    maps = {"Δ": c.comult, **_coalgebra_maps(c.field, c.space, tuple(c.counit))}
    return Report("coalgebra", check_laws(COALGEBRA_LAWS, maps))


@lru_cache(maxsize=8)
def _coalgebra_maps(field: Field, c: Space, counit: tuple) -> dict:
    # the maps of COALGEBRA_LAWS but Δ, which every coalgebra on (field, c, counit) shares
    con_right, con_left = _contractions(field, counit, c, c)
    return {"C": identity(field, c), ("C", "ε"): con_right, ("ε", "C"): con_left}


@dataclass(frozen=True)
class Bialgebra:
    """An algebra and coalgebra on one space; compatibility via check_bialgebra."""

    field: Field
    space: Space
    mult: LinearMap
    unit: tuple[Scalar, ...]
    comult: LinearMap
    counit: tuple[Scalar, ...]

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.field, self.space, self.mult, self.unit)

    @property
    def coalgebra(self) -> Coalgebra:
        return Coalgebra(self.field, self.space, self.comult, self.counit)


def check_bialgebra(b: Bialgebra) -> Report:
    field, h = b.field, b.space
    maps = {"m": b.mult, "Δ": b.comult, "H": identity(field, h), "τ": wire(field, (h, h), (1, 0))}
    maps |= {"η": vector_map(field, b.unit, h), "ε": covector_map(field, b.counit, h), "K": identity(field, K)}
    return merge(
        "bialgebra",
        check_algebra(b.algebra).prefixed("algebra"),
        check_coalgebra(b.coalgebra).prefixed("coalgebra"),
        *check_laws(BIALGEBRA_LAWS, maps),
    )


@dataclass(frozen=True)
class ModuleAction:
    """A right module: act : M (x) A -> M over the given algebra."""

    algebra: Algebra
    space: Space
    act: LinearMap

    def __post_init__(self):
        md, ad = self.space.dims, self.algebra.space.dims
        if self.act.domain.dims != md + ad or self.act.codomain.dims != md:
            raise ShapeError("action must map M (x) A -> M")

    @property
    def field(self) -> Field:
        return self.algebra.field


def check_module(mod: ModuleAction) -> Report:
    a = mod.algebra
    maps = {"ρ": mod.act, "m": a.mult, **unit_maps(a, M=mod.space)}
    maps |= {"M": identity(a.field, mod.space), "A": identity(a.field, a.space)}
    return Report("module", check_laws(MODULE_LAWS, maps))


@dataclass(frozen=True)
class ComoduleCoaction:
    """A right comodule: coact : M -> M (x) C over the given coalgebra."""

    coalgebra: Coalgebra
    space: Space
    coact: LinearMap

    def __post_init__(self):
        md, cd = self.space.dims, self.coalgebra.space.dims
        if self.coact.domain.dims != md or self.coact.codomain.dims != md + cd:
            raise ShapeError("coaction must map M -> M (x) C")

    @property
    def field(self) -> Field:
        return self.coalgebra.field


def check_comodule(com: ComoduleCoaction) -> Report:
    c = com.coalgebra
    maps = {"δ": com.coact, "Δ": c.comult, **counit_maps(c, M=com.space)}
    maps |= {"M": identity(c.field, com.space), "C": identity(c.field, c.space)}
    return Report("comodule", check_laws(COMODULE_LAWS, maps))


def check_comodule_algebra(alg: Algebra, h: Bialgebra, coact: LinearMap) -> Report:
    """Right H-comodule structure on an algebra whose coaction is an algebra map."""
    com = ComoduleCoaction(h.coalgebra, alg.space, coact)
    field = alg.field
    e = alg.space
    maps = {
        "δ": coact,
        "m": alg.mult,
        "μ": h.mult,
        "η": vector_map(field, alg.unit, e),
        "η_H": vector_map(field, h.unit, h.space),
        "E": identity(field, e),
        "H": identity(field, h.space),
        "τ": wire(field, (h.space, e), (1, 0)),
    }
    return merge(
        "comodule-algebra",
        check_comodule(com).prefixed("comodule"),
        *check_laws(COMODULE_ALGEBRA_LAWS, maps),
    )


def regular_module(a: Algebra) -> ModuleAction:
    """A acting on itself by right multiplication."""
    return ModuleAction(a, a.space, a.mult)


def opposite_algebra(a: Algebra) -> Algebra:
    """Same space, multiplication reversed."""
    return Algebra(
        a.field, a.space, a.mult * twist(a.field, a.space, a.space), a.unit
    )


def dualize_algebra(a: Algebra) -> Coalgebra:
    """The dual coalgebra of a finite-dimensional algebra (transpose structure)."""
    return Coalgebra(a.field, dual_space(a.space), a.mult.transpose(), tuple(a.unit))


def convolution_algebra(c: Coalgebra) -> Algebra:
    """The dual algebra of a coalgebra: convolution product, unit = counit."""
    return Algebra(c.field, dual_space(c.space), c.comult.transpose(), tuple(c.counit))


def check_grouplike_bilateral_integral(b: Bialgebra, x: tuple[Scalar, ...]) -> Report:
    """x is group-like (comult x = x (x) x, counit x = 1) and a two-sided integral."""
    field, h = b.field, b.space
    x = tuple(x)
    maps = {"m": b.mult, "Δ": b.comult, "ξ": vector_map(field, x, h)}
    maps |= {"ε": covector_map(field, b.counit, h), "K": identity(field, K)}
    maps[("H", "ξ")], maps[("ξ", "H")] = _insertions(field, x, h, h)
    return Report("grouplike-integral", check_laws(INTEGRAL_LAWS, maps))


def check_derivation(a: Algebra, d: LinearMap) -> Report:
    """d(xy) = d(x)y + x d(y) on all basis pairs, and d(1) = 0.

    The right side of Leibniz is one `combine` of its two terms.
    """
    field = a.field
    one = field.one
    ida = identity(field, a.space)
    maps = {
        "d": d,
        "m": a.mult,
        "m(d⊗A + A⊗d)": combine([(one, [a.mult, lazy_kron(d, ida)]), (one, [a.mult, lazy_kron(ida, d)])]),
        "η": vector_map(field, a.unit, a.space),
        "0": zero_map(field, K, a.space),
    }
    return Report("derivation", check_laws(DERIVATION_LAWS, maps))
