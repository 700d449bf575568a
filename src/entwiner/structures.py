"""Algebras, coalgebras, bialgebras, modules, comodules, and their law checks.

Structures are plain frozen containers of structure constants (maps over a
fixed basis); every law is verified, never assumed.  Checks return Reports
whose failures carry the first failing basis tuple and the exact residual.

Conventions: modules are right modules (act : M (x) A -> M), comodules are
right comodules (coact : M -> M (x) C), units are coefficient vectors and
counits coefficient covectors over the fixed basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, Scalar
from .linalg import (
    LinearMap,
    ShapeError,
    Space,
    apply_covector,
    check_map_identity,
    check_vector_identity,
    contract_left,
    contract_right,
    dual_space,
    identity,
    insert_left,
    insert_right,
    kron,
    lazy_kron,
    rank_one,
    space,
    tensor,
    tensor_vec,
    twist,
)
from .report import Report, merge


@dataclass(frozen=True)
class Algebra:
    """Multiplication A (x) A -> A with a unit vector; laws via check_algebra."""

    field: Field
    space: Space
    mult: LinearMap
    unit: tuple[Scalar, ...]

    def __post_init__(self):
        d = self.space.dims
        if self.mult.domain.dims != d + d or self.mult.codomain.dims != d:
            raise ShapeError("multiplication must map A (x) A -> A")
        if len(self.unit) != self.space.dim:
            raise ShapeError("unit vector length must equal dim A")
        if self.mult.field != self.field:
            raise ShapeError("multiplication field mismatch")


def check_algebra(a: Algebra) -> Report:
    ida = identity(a.field, a.space)
    return Report(
        "algebra",
        (
            check_map_identity(
                "associativity",
                [a.mult, lazy_kron(a.mult, ida)],
                [a.mult, lazy_kron(ida, a.mult)],
            ),
            check_map_identity(
                "unit-left", [a.mult, insert_left(a.field, a.unit, a.space, a.space)], ida
            ),
            check_map_identity(
                "unit-right", [a.mult, insert_right(a.field, a.space, a.unit, a.space)], ida
            ),
        ),
    )


@dataclass(frozen=True)
class Coalgebra:
    """Comultiplication C -> C (x) C with a counit covector; laws via check_coalgebra."""

    field: Field
    space: Space
    comult: LinearMap
    counit: tuple[Scalar, ...]

    def __post_init__(self):
        d = self.space.dims
        if self.comult.domain.dims != d or self.comult.codomain.dims != d + d:
            raise ShapeError("comultiplication must map C -> C (x) C")
        if len(self.counit) != self.space.dim:
            raise ShapeError("counit covector length must equal dim C")
        if self.comult.field != self.field:
            raise ShapeError("comultiplication field mismatch")


def check_coalgebra(c: Coalgebra) -> Report:
    idc = identity(c.field, c.space)
    return Report(
        "coalgebra",
        (
            check_map_identity(
                "coassociativity",
                [lazy_kron(c.comult, idc), c.comult],
                [lazy_kron(idc, c.comult), c.comult],
            ),
            check_map_identity(
                "counit-left",
                [contract_left(c.field, c.counit, c.space, c.space), c.comult],
                idc,
            ),
            check_map_identity(
                "counit-right",
                [contract_right(c.field, c.space, c.counit, c.space), c.comult],
                idc,
            ),
        ),
    )


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
    idh = identity(field, h)
    hh = tensor(h, h)
    k = space("k")
    eps = LinearMap(field, h, k, (tuple(b.counit),))
    compat = (
        check_map_identity(
            "comult-multiplicative",
            [b.comult, b.mult],
            [
                lazy_kron(b.mult, b.mult),
                lazy_kron(idh, twist(field, h, h), idh),
                lazy_kron(b.comult, b.comult),
            ],
        ),
        check_vector_identity(
            "comult-unit",
            field,
            tensor(h, h),
            b.comult.apply(b.unit),
            tensor_vec(b.unit, b.unit),
        ),
        check_map_identity(
            "counit-multiplicative",
            [eps, b.mult],
            LinearMap(field, hh, k, (tensor_vec(b.counit, b.counit),)),
        ),
        check_vector_identity(
            "counit-unit",
            field,
            space("unit"),
            (apply_covector(b.counit, b.unit),),
            (field.one,),
        ),
    )
    return merge(
        "bialgebra",
        check_algebra(b.algebra).prefixed("algebra"),
        check_coalgebra(b.coalgebra).prefixed("coalgebra"),
        *compat,
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
    idm = identity(a.field, mod.space)
    ida = identity(a.field, a.space)
    return Report(
        "module",
        (
            check_map_identity(
                "action-associativity",
                [mod.act, lazy_kron(mod.act, ida)],
                [mod.act, lazy_kron(idm, a.mult)],
            ),
            check_map_identity(
                "action-unit",
                [mod.act, insert_right(a.field, mod.space, a.unit, a.space)],
                idm,
            ),
        ),
    )


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
    idm = identity(c.field, com.space)
    idc = identity(c.field, c.space)
    return Report(
        "comodule",
        (
            check_map_identity(
                "coaction-coassociativity",
                [lazy_kron(com.coact, idc), com.coact],
                [lazy_kron(idm, c.comult), com.coact],
            ),
            check_map_identity(
                "coaction-counit",
                [contract_right(c.field, com.space, c.counit, c.space), com.coact],
                idm,
            ),
        ),
    )


def check_comodule_algebra(alg: Algebra, h: Bialgebra, coact: LinearMap) -> Report:
    """Right H-comodule structure on an algebra whose coaction is an algebra map."""
    com = ComoduleCoaction(h.coalgebra, alg.space, coact)
    field = alg.field
    e = alg.space
    ide = identity(field, e)
    multiplicative = check_map_identity(
        "coaction-multiplicative",
        [coact, alg.mult],
        [
            lazy_kron(alg.mult, h.mult),
            lazy_kron(ide, twist(field, h.space, e), identity(field, h.space)),
            lazy_kron(coact, coact),
        ],
    )
    unital = check_vector_identity(
        "coaction-unit",
        field,
        tensor(e, h.space),
        coact.apply(alg.unit),
        tensor_vec(alg.unit, h.unit),
    )
    return merge(
        "comodule-algebra", check_comodule(com).prefixed("comodule"), multiplicative, unital
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
    absorb = rank_one(field, h, b.counit, h, x)
    return Report(
        "grouplike-integral",
        (
            check_vector_identity(
                "grouplike-comult",
                field,
                tensor(h, h),
                b.comult.apply(x),
                tensor_vec(x, x),
            ),
            check_vector_identity(
                "grouplike-counit",
                field,
                space("counit"),
                (apply_covector(b.counit, x),),
                (field.one,),
            ),
            check_map_identity(
                "integral-left", [b.mult, insert_left(field, x, h, h)], absorb
            ),
            check_map_identity(
                "integral-right", [b.mult, insert_right(field, h, x, h)], absorb
            ),
        ),
    )


def check_derivation(a: Algebra, d: LinearMap) -> Report:
    """d(xy) = d(x)y + x d(y) on all basis pairs, and d(1) = 0."""
    ida = identity(a.field, a.space)
    leibniz = (a.mult * kron(d, ida)) + (a.mult * kron(ida, d))
    zero = (a.field.zero,) * a.space.dim
    return Report(
        "derivation",
        (
            check_map_identity("leibniz", d * a.mult, leibniz),
            check_vector_identity("unit-annihilation", a.field, a.space, d.apply(a.unit), zero),
        ),
    )
