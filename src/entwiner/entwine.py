"""Entwining-type maps and everything they induce.

A map psi : B (x) A -> A (x) B over an algebra A (or psi : D (x) C -> C (x) D
over a coalgebra C) can satisfy several graded axiom sets.  Each named kind is
one row of KIND_TABLE: the algebra pair SEMI_LAWS (unit, product) or the
coalgebra pair COSEMI_LAWS (counit, coproduct) on the right leg, optionally
followed by one of the two pairs mirrored onto the left leg; COSEMI_LAWS is
derived from SEMI_LAWS by `linalg.dual`.  Sweedler sums are never symbolic:
every axiom is a word of tensor layers of named maps (see `linalg.check_laws`),
checked on basis columns.  The mirrored pairs are the tables `LEFT_SEMI_LAWS`
and `LEFT_COSEMI_LAWS`, mirrored once, at import.

The second half builds what a verified map induces: the twisted product on
A (x) B (an algebra iff the map is a factorization), the dual coproduct, the
convolution-side dual, the induced module and the intertwining into it, the
B (+) A comodule algebra over a bialgebra, entwined module/comodule variants,
and the module/measuring round trip.  Each twisted (co)product is one chain:
`factorization_product` and `cofactorization_coproduct` materialize it, and
the two iff checks, one driver, run the (co)algebra laws on its `Composite`,
so a psi that fails at an early column computes only the columns read so far.
Their verdict agreement reads the (co)unit laws before (co)associativity, so a
psi that fails a (co)unit law streams no (co)associativity column.  What every
psi of one (co)algebra pair shares is built once per pair (`linalg.object_memo`):
the outer layer m_A (x) m_B or Delta_D (x) Delta_C, the identity legs, the
product space and (co)unit, and every map of the (co)semi laws but psi; so
a psi pays only for the layers that hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fields import Field, Scalar
from .linalg import (
    Composite,
    LinearMap,
    ShapeError,
    Space,
    check_law,
    check_laws,
    combine,
    contract_left,
    direct_sum,
    dual,
    identity,
    insert_left,
    insert_right,
    lazy_kron,
    materialize,
    mirror,
    object_memo,
    tensor,
    tensor_vec,
    twist,
)
from .report import IdentityCheck, Report, merge
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    ComoduleCoaction,
    ModuleAction,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_comodule,
    check_comodule_algebra,
    check_grouplike_bilateral_integral,
    check_module,
    convolution_algebra,
    counit_maps,
    dualize_algebra,
    unit_maps,
)

# kind -> (report name, structure on the right factor, structure on the left factor)
KIND_TABLE = {
    "semi": ("semi-entwining", "algebra", None),
    "factorization": ("algebra-factorization", "algebra", "algebra"),
    "entwining-ll": ("entwining-ll", "algebra", "coalgebra"),
    "cosemi": ("cosemi-entwining", "coalgebra", None),
    "cofactorization": ("coalgebra-factorization", "coalgebra", "coalgebra"),
    "entwining-rr": ("entwining-rr", "coalgebra", "algebra"),
}
KINDS = tuple(KIND_TABLE)
SEMI_KINDS = tuple(k for k in KINDS if KIND_TABLE[k][1] == "algebra")
COSEMI_KINDS = tuple(k for k in KINDS if KIND_TABLE[k][1] == "coalgebra")

# psi : B (x) A -> A (x) B with the algebra (A, m, η) on the right leg
SEMI_LAWS = (
    ("unit", ["ψ", ("B", "η")], [("η", "B")]),
    ("multiplicativity", ["ψ", ("B", "m")], [("m", "B"), ("A", "ψ"), ("ψ", "A")]),
)
# psi : D (x) C -> C (x) D, C on the right leg: the semi laws' duals, mirrored back from the left
COSEMI_LAWS = tuple(mirror(dual(law), prefix="") for law in SEMI_LAWS)
# the two pairs on the left leg, mirrored once
LEFT_SEMI_LAWS = tuple(map(mirror, SEMI_LAWS))
LEFT_COSEMI_LAWS = tuple(map(mirror, COSEMI_LAWS))


@dataclass(frozen=True)
class EntwiningData:
    """A map psi : left (x) right -> right (x) left with a declared axiom kind.

    The kind names which axioms the map claims; verify() checks them.  Its
    KIND_TABLE row says which structure each tensor factor must carry: the
    `algebra` or `coalgebra` on the right, `left_algebra` or `left_coalgebra`
    on the left.  Re-declaring the kind with dataclasses.replace gives the
    verdict of another row, and is refused when a structure it needs is missing.
    """

    kind: str
    psi: LinearMap
    algebra: Algebra | None = None
    coalgebra: Coalgebra | None = None
    left_algebra: Algebra | None = None
    left_coalgebra: Coalgebra | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown entwining kind {self.kind!r}")
        dom = self.psi.domain
        if len(dom.dims) != 2:
            raise ShapeError("entwining map needs a two-factor domain")
        if self.psi.codomain.dims != (dom.dims[1], dom.dims[0]):
            raise ShapeError("entwining map must swap its two tensor factors")
        ld, rd = dom.dims
        _, right, left = KIND_TABLE[self.kind]
        r = getattr(self, right)
        if r is None or r.space.dim != rd:
            side = "semi" if right == "algebra" else "cosemi"
            raise ShapeError(f"{side}-side kinds need the {right} on the right factor")
        if left is not None:
            l = getattr(self, "left_" + left)
            if l is None or l.space.dim != ld:
                article = "an" if left == "algebra" else "a"
                raise ShapeError(f"kind {self.kind!r} needs {article} {left} on the left factor")

    @property
    def field(self) -> Field:
        return self.psi.field

    @property
    def left_space(self) -> Space:
        return self.psi.domain.factors[0]


def algebra_axioms(
    a: Algebra, other: Space, psi: LinearMap, left: bool = False
) -> tuple[IdentityCheck, IdentityCheck]:
    """Unit and product compatibility of psi with the algebra A on one leg.

    On the right leg psi : B (x) A -> A (x) B, psi(b (x) 1) = 1 (x) b and psi
    respects the product of A; on the left leg psi : A (x) B -> B (x) A, the
    mirror image of both, named left-unit and left-multiplicativity.
    """
    maps = {"ψ": psi, **_semi_maps(a, other)}
    return check_laws(LEFT_SEMI_LAWS if left else SEMI_LAWS, maps)


@object_memo
def _semi_maps(a: Algebra, other: Space) -> dict:
    # every map of the semi laws but ψ, shared by the ψ checked against one (A, B)
    maps = {"m": a.mult, **unit_maps(a, B=other)}
    return maps | {"A": identity(a.field, a.space), "B": identity(a.field, other)}


def coalgebra_axioms(
    c: Coalgebra, other: Space, psi: LinearMap, left: bool = False
) -> tuple[IdentityCheck, IdentityCheck]:
    """Counit and coproduct compatibility of psi with the coalgebra C on one leg.

    On the right leg psi : D (x) C -> C (x) D; on the left leg
    psi : C (x) D -> D (x) C, with the mirrored left-counit and
    left-comultiplicativity.
    """
    maps = {"ψ": psi, **_cosemi_maps(c, other)}
    return check_laws(LEFT_COSEMI_LAWS if left else COSEMI_LAWS, maps)


@object_memo
def _cosemi_maps(c: Coalgebra, other: Space) -> dict:
    # every map of the cosemi laws but ψ, shared by the ψ checked against one (C, D)
    maps = {"Δ": c.comult, **counit_maps(c, D=other)}
    return maps | {"C": identity(c.field, c.space), "D": identity(c.field, other)}


_AXIOMS = {"algebra": algebra_axioms, "coalgebra": coalgebra_axioms}


def verify(e: EntwiningData) -> Report:
    """Check the axioms of e's declared kind: its right leg, then its left leg."""
    suite, right, left = KIND_TABLE[e.kind]
    r = getattr(e, right)
    if left is None:
        return Report(suite, _AXIOMS[right](r, e.left_space, e.psi))
    l = getattr(e, "left_" + left)
    return Report(
        suite,
        _AXIOMS[right](r, l.space, e.psi) + _AXIOMS[left](l, r.space, e.psi, left=True),
    )


# ---------------------------------------------------------------------------
# constructors


def mult_twist(a: Algebra, q: Scalar) -> LinearMap:
    """b (x) a -> 1 (x) ba + q(ba (x) 1) - q(b (x) a) on A (x) A, one `combine`."""
    field = a.field
    return combine(
        [
            (field.one, [insert_left(field, a.unit, a.space, a.space), a.mult]),
            (q, [insert_right(field, a.space, a.unit, a.space), a.mult]),
            (-q, identity(field, tensor(a.space, a.space))),
        ]
    )


def comm_twist(a: Algebra, q: Scalar) -> LinearMap:
    """b (x) a -> q((ba - ab) (x) 1) + a (x) b on A (x) A, one `combine`."""
    field = a.field
    tw = twist(field, a.space, a.space)
    ins = insert_right(field, a.space, a.unit, a.space)
    return combine([(q, [ins, a.mult]), (-q, [ins, a.mult, tw]), (field.one, tw)])


def module_entwining(mod: ModuleAction) -> LinearMap:
    """m (x) a -> 1 (x) ma, a semi-entwining with left factor the module."""
    a = mod.algebra
    return insert_left(a.field, a.unit, a.space, mod.space) * mod.act


def doi_koppinen(h: Bialgebra, comod: ComoduleCoaction, mod: ModuleAction) -> LinearMap:
    """b (x) a -> a_(0) (x) (b . a_(1)) from an H-coaction on A and H-action on B.

    Read against coalgebra structure the same formula is a cosemi-entwining for
    the comultiplication of A when A is an H-comodule coalgebra.
    """
    field = h.field
    a_sp, b_sp = comod.space, mod.space
    ida = identity(field, a_sp)
    return materialize(
        [
            lazy_kron(ida, mod.act),
            lazy_kron(ida, twist(field, h.space, b_sp)),
            lazy_kron(comod.coact, identity(field, b_sp)),
            twist(field, b_sp, a_sp),
        ]
    )


# ---------------------------------------------------------------------------
# induced products and duals


def _twisted_product(a: Algebra, b: Algebra, psi: LinearMap, build) -> Algebra:
    """(a (x) b)(a' (x) b') = a psi(b (x) a') b' on A (x) B; `build` turns the chain
    (m_A (x) m_B) o (A (x) psi (x) B) into the multiplication."""
    outer, id_a, id_b, ab, unit = _product_parts(a, b)
    return Algebra(a.field, ab, build([outer, lazy_kron(id_a, psi, id_b)]), unit)


@object_memo
def _product_parts(a: Algebra, b: Algebra) -> tuple:
    # what every twisted product on A (x) B shares: m_A (x) m_B, the identity
    # legs A and B, the space A (x) B and the unit 1 (x) 1
    field = a.field
    return (
        lazy_kron(a.mult, b.mult),
        identity(field, a.space),
        identity(field, b.space),
        tensor(a.space, b.space),
        tensor_vec(a.unit, b.unit),
    )


def factorization_product(a: Algebra, b: Algebra, psi: LinearMap) -> Algebra:
    """The twisted product on A (x) B, its multiplication a dense map."""
    return _twisted_product(a, b, psi, materialize)


def _twisted_coproduct(c: Coalgebra, d: Coalgebra, psi: LinearMap, build) -> Coalgebra:
    """The twisted coproduct on D (x) C induced by psi : D (x) C -> C (x) D; `build`
    turns the chain (D (x) psi (x) C) o (Δ_D (x) Δ_C) into the comultiplication."""
    outer, id_d, id_c, dc, counit = _coproduct_parts(c, d)
    return Coalgebra(c.field, dc, build([lazy_kron(id_d, psi, id_c), outer]), counit)


@object_memo
def _coproduct_parts(c: Coalgebra, d: Coalgebra) -> tuple:
    # what every twisted coproduct on D (x) C shares: Δ_D (x) Δ_C, the identity
    # legs D and C, the space D (x) C and the counit ε (x) ε
    field = c.field
    return (
        lazy_kron(d.comult, c.comult),
        identity(field, d.space),
        identity(field, c.space),
        tensor(d.space, c.space),
        tensor_vec(d.counit, c.counit),
    )


def cofactorization_coproduct(c: Coalgebra, d: Coalgebra, psi: LinearMap) -> Coalgebra:
    """The twisted coproduct on D (x) C, its comultiplication a dense map."""
    return _twisted_coproduct(c, d, psi, materialize)


def _check_iff(e: EntwiningData, kind: str, side: str, twisted, check) -> Report:
    """`check`'s laws on the `Composite` twisted (co)product that `twisted` builds, `verify`
    of e as `kind`, and their `verdict-agreement`, whose (co)product side reads the
    (co)unit laws first: they compare dim V columns, (co)associativity dim V^3, and most
    random ψ fail one.  The report lists the laws in their table's order.  An e already
    of `kind` is read as it is; any other is re-declared, which checks its structures."""
    if e.kind != kind:
        e = replace(e, kind=kind)
    _, right, left = KIND_TABLE[kind]
    laws = check(twisted(getattr(e, right), getattr(e, "left_" + left), e.psi, Composite))
    factorization = verify(e)
    units_first = all(c.passed for c in laws.checks if "unit" in c.name) and laws.passed
    agreement = IdentityCheck("verdict-agreement", units_first == factorization.passed)
    return merge(f"{side}-iff", laws.prefixed(side), factorization.prefixed("factorization"), agreement)


def check_product_iff(e: EntwiningData) -> Report:
    """The twisted product is an algebra iff psi is a factorization; verdicts must agree."""
    return _check_iff(e, "factorization", "product", _twisted_product, check_algebra)


def check_coproduct_iff(e: EntwiningData) -> Report:
    """The twisted coproduct is a coalgebra iff psi is a coalgebra factorization."""
    return _check_iff(e, "cofactorization", "coproduct", _twisted_coproduct, check_coalgebra)


def dualize_cosemi(c: Coalgebra, d: Space, psi: LinearMap) -> EntwiningData:
    """Dualize the coalgebra leg: a semi-entwining over the convolution algebra C*."""
    dc, dd = c.space.dim, d.dim
    if psi.domain.dims != (dd, dc) or psi.codomain.dims != (dc, dd):
        raise ShapeError("dualize_cosemi needs psi : D (x) C -> C (x) D")
    conv = convolution_algebra(c)
    cstar = conv.space
    rows = [
        [psi.rows[j * dd + l][k * dc + i] for k in range(dd) for j in range(dc)]
        for i in range(dc)
        for l in range(dd)
    ]
    star = LinearMap(
        psi.field, tensor(d, cstar), tensor(cstar, d), tuple(tuple(r) for r in rows)
    )
    return EntwiningData(kind="semi", psi=star, algebra=conv)


def transpose_entwining(e: EntwiningData) -> EntwiningData:
    """Transpose an algebra factorization into a coalgebra factorization on the duals."""
    if e.kind != "factorization":
        raise ShapeError("transpose_entwining expects a factorization-kind input")
    return EntwiningData(
        kind="cofactorization",
        psi=e.psi.transpose(),
        coalgebra=dualize_algebra(e.left_algebra),
        left_coalgebra=dualize_algebra(e.algebra),
    )


# ---------------------------------------------------------------------------
# modules induced by a semi-entwining


def induced_AtensorB_module(a: Algebra, b: Space, psi: LinearMap) -> ModuleAction:
    """Right A-action (a (x) b) . a' = a psi(b (x) a') on A (x) B."""
    field = a.field
    act = materialize(
        [lazy_kron(a.mult, identity(field, b)), lazy_kron(identity(field, a.space), psi)]
    )
    return ModuleAction(a, tensor(a.space, b), act)


# f : M -> N a map of right A-modules with actions ρ on M and σ on N
INTERTWINING_LAW = ("intertwining", ["f", "ρ"], ["σ", ("f", "A")])


def check_intertwining(f: LinearMap, source: ModuleAction, target: ModuleAction) -> Report:
    """f is a module map: f(m . a) = f(m) . a for the two given actions."""
    if source.algebra.space.dim != target.algebra.space.dim:
        raise ShapeError("intertwining requires actions of the same algebra")
    maps = {"f": f, "ρ": source.act, "σ": target.act}
    maps["A"] = identity(source.field, source.algebra.space)
    return Report("intertwining", (check_law(INTERTWINING_LAW, maps),))


def intertwining_from_semi(e: EntwiningData) -> Report:
    """psi intertwines the trivial action on B (x) A with the induced one on A (x) B."""
    a, b, psi = e.algebra, e.left_space, e.psi
    field = a.field
    trivial = ModuleAction(
        a, tensor(b, a.space), materialize([lazy_kron(identity(field, b), a.mult)])
    )
    induced = induced_AtensorB_module(a, b, psi)
    return merge(
        "intertwining",
        check_module(trivial).prefixed("trivial-module"),
        check_module(induced).prefixed("induced-module"),
        check_intertwining(psi, trivial, induced).checks[0],
    )


# ---------------------------------------------------------------------------
# the B (+) A comodule algebra over a bialgebra


@dataclass(frozen=True)
class BiproductResult:
    """The algebra on B (+) A, its coaction(s), and the full verification report."""

    algebra: Algebra
    coaction: LinearMap
    integral_coaction: LinearMap | None
    report: Report


# the left action λ : A (x) B -> B and the right action ρ : B (x) A -> B of make_biproduct
BIMODULE_LAWS = (
    ("left-associativity", ["λ", ("A", "λ")], ["λ", ("m", "B")]),
    ("left-unit", ["λ", ("η", "B")], ["B"]),
    ("right-associativity", ["ρ", ("ρ", "A")], ["ρ", ("B", "m")]),
    ("right-unit", ["ρ", ("B", "η")], ["B"]),
    ("bimodule-compatibility", ["ρ", ("λ", "A")], ["λ", ("A", "ρ")]),
)


def make_biproduct(
    h: Bialgebra, b: Space, psi: LinearMap, integral=None
) -> BiproductResult:
    """Build B (+) A from a semi-entwining over a bialgebra and verify all parts.

    Product ((b, a)(b', a') = (b * a' + eps(a) b', aa') with b * a = eps(a_alpha) b^alpha),
    unit (0, 1), and the right A-coaction b (+) a -> b (x) u + a_(1) (x) a_(2); the
    plain coaction uses u = 1, the integral coaction a supplied group-like
    bilateral integral, which upgrades the comodule to a comodule algebra.  The
    product and each coaction are one `combine` of their terms over the
    injections and projections of the direct sum.
    """
    field = h.field
    a_sp = h.space
    dom, cod = b.dims + a_sp.dims, a_sp.dims + b.dims
    if (psi.domain_dims, psi.codomain_dims) != (dom, cod):
        got = f"{psi.domain_dims} -> {psi.codomain_dims}"
        raise ShapeError(f"psi maps {got}, not B (x) H -> H (x) B, {dom} -> {cod}")
    if integral is not None:
        integral = tuple(integral)
        if len(integral) != a_sp.dim:
            raise ShapeError(f"the integral has length {len(integral)}, but dim H is {a_sp.dim}")
    e_sp, i_b, i_a, p_b, p_a = direct_sum(field, b, a_sp, "B", "A")
    id_a = identity(field, a_sp)

    l_act = contract_left(field, h.counit, a_sp, b)
    r_act = l_act * psi
    one = field.one
    mult_e = combine(
        [
            (one, [i_b, r_act, lazy_kron(p_b, p_a)]),
            (one, [i_b, l_act, lazy_kron(p_a, p_b)]),
            (one, [i_a, h.mult, lazy_kron(p_a, p_a)]),
        ]
    )
    algebra = Algebra(field, e_sp, mult_e, i_a.apply(h.unit))
    comult_part = (one, [lazy_kron(i_a, id_a), h.comult, p_a])

    def coaction(u) -> LinearMap:
        return combine([(one, [lazy_kron(i_b, id_a), insert_right(field, b, u, a_sp), p_b]), comult_part])

    maps = {"λ": l_act, "ρ": r_act, "m": h.mult, **unit_maps(h.algebra, B=b)}
    maps |= {"A": id_a, "B": identity(field, b)}
    bimodule = check_laws(BIMODULE_LAWS, maps)

    coact_unit = coaction(h.unit)
    parts = [
        verify(EntwiningData(kind="semi", psi=psi, algebra=h.algebra)).prefixed("semi"),
        check_bialgebra(h).prefixed("bialgebra"),
        Report("bimodule", bimodule).prefixed("bimodule"),
        check_algebra(algebra).prefixed("algebra"),
        check_comodule(ComoduleCoaction(h.coalgebra, e_sp, coact_unit)).prefixed("comodule"),
    ]

    coact_integral = None
    if integral is not None:
        coact_integral = coaction(integral)
        parts.append(check_grouplike_bilateral_integral(h, integral).prefixed("integral"))
        parts.append(
            check_comodule_algebra(algebra, h, coact_integral).prefixed("comodule-algebra")
        )

    return BiproductResult(algebra, coact_unit, coact_integral, merge("biproduct", *parts))


# ---------------------------------------------------------------------------
# entwined modules and comodules


# the measuring φ, a right action ρ : M (x) A -> M or left coaction δ : M -> C (x) M
VARIANT_LAWS = {
    "semi-entwined-module": ("compatibility", ["φ", ("ρ", "V"), ("M", "ψ")], ["ρ", ("φ", "A")]),
    "semi-entwined-comodule": ("compatibility", ["φ", "ρ"], [("ρ", "V"), ("M", "ψ"), ("φ", "A")]),
    # written out, as LEFT_COMODULE_LAWS is: deriving either swaps its sides, negating its residual
    "cosemi-entwined-comodule": ("compatibility", [("C", "φ"), "δ"], [("ψ", "M"), ("V", "δ"), "φ"]),
}
# the dual of the semi-entwined-comodule row, mirrored back as in COSEMI_LAWS
VARIANT_LAWS["cosemi-entwined-module"] = mirror(dual(VARIANT_LAWS["semi-entwined-comodule"]), prefix="")
VARIANTS = tuple(VARIANT_LAWS)
LEFT_COMODULE_LAWS = (
    ("coassociativity", [("Δ", "M"), "δ"], [("C", "δ"), "δ"]),
    ("counit", [("ε", "M"), "δ"], ["M"]),
)
# entwined_roundtrip: the split action ρ and measuring φ against the given ρ₀ and φ₀
ROUNDTRIP_LAWS = (
    ("split-action", ["ρ"], ["ρ₀"]),
    ("split-measuring", ["φ"], ["φ₀"]),
    ("split-compatibility", *VARIANT_LAWS["semi-entwined-module"][1:]),
)


@dataclass(frozen=True)
class MeasuredModule:
    """A carrier M with a module action or comodule coaction plus a measuring.

    Per variant the measuring is M (x) V -> M, M -> M (x) V, V (x) M -> M, or
    M -> V (x) M; semi variants carry a right action act : M (x) A -> M and
    cosemi variants a left coaction coact : M -> C (x) M.
    """

    variant: str
    carrier: Space
    vee: Space
    measuring: LinearMap
    act: LinearMap | None = None
    coact: LinearMap | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ShapeError(f"unknown entwined variant {self.variant!r}")
        md, vd = self.carrier.dims, self.vee.dims
        shapes = {
            "semi-entwined-module": (md + vd, md),
            "semi-entwined-comodule": (md, md + vd),
            "cosemi-entwined-module": (vd + md, md),
            "cosemi-entwined-comodule": (md, vd + md),
        }
        want_dom, want_cod = shapes[self.variant]
        if self.measuring.domain.dims != want_dom or self.measuring.codomain.dims != want_cod:
            raise ShapeError(f"measuring shape does not match variant {self.variant!r}")
        if self.variant.startswith("semi") and self.act is None:
            raise ShapeError("semi variants need a right module action")
        if self.variant.startswith("cosemi") and self.coact is None:
            raise ShapeError("cosemi variants need a left comodule coaction")


def check_entwined_variant(mm: MeasuredModule, e: EntwiningData) -> Report:
    """Verify the compatibility identity of the variant, plus its prerequisites."""
    semi_side = mm.variant.startswith("semi")
    if semi_side != (e.kind in SEMI_KINDS):
        raise ShapeError(f"variant {mm.variant!r} does not match entwining kind {e.kind!r}")
    field = e.field
    m_sp, v_sp, psi = mm.carrier, mm.vee, e.psi
    if v_sp.dims != e.left_space.dims:
        raise ShapeError("measured module V-factor does not match the entwining left factor")
    maps = {"φ": mm.measuring, "ψ": psi, "M": identity(field, m_sp), "V": identity(field, v_sp)}
    if semi_side:
        a = e.algebra
        maps |= {"ρ": mm.act, "A": identity(field, a.space)}
        prereq = check_module(ModuleAction(a, m_sp, mm.act)).prefixed("module")
    else:
        c, coact = e.coalgebra, mm.coact
        if coact.domain.dims != m_sp.dims or coact.codomain.dims != c.space.dims + m_sp.dims:
            raise ShapeError("left coaction must map M -> C (x) M")
        maps |= {"δ": coact, "Δ": c.comult, "C": identity(field, c.space)}
        maps |= counit_maps(c, M=m_sp)
        prereq = check_laws(LEFT_COMODULE_LAWS, maps)
        prereq = Report("comodule", prereq).prefixed("comodule")
    return merge(
        mm.variant,
        verify(e).prefixed("entwining"),
        prereq,
        check_law(VARIANT_LAWS[mm.variant], maps),
    )


def module_from_pair(
    a: Algebra, b: Algebra, psi: LinearMap, act: LinearMap, triangle: LinearMap
) -> ModuleAction:
    """Combine a right A-action and a right B-measuring into m(a (x) b) = (ma) <| b."""
    m_sp = act.domain.factors[0]
    combined = materialize([triangle, lazy_kron(act, identity(a.field, b.space))])
    return ModuleAction(factorization_product(a, b, psi), m_sp, combined)


def pair_from_module(a: Algebra, b: Algebra, mod: ModuleAction) -> tuple[LinearMap, LinearMap]:
    """Restrict an A (x) B module to the two one-sided actions (via 1_B and 1_A)."""
    field = mod.field
    idm = identity(field, mod.space)
    act = materialize(
        [mod.act, lazy_kron(idm, insert_right(field, a.space, b.unit, b.space))]
    )
    triangle = materialize(
        [mod.act, lazy_kron(idm, insert_left(field, a.unit, a.space, b.space))]
    )
    return act, triangle


def entwined_roundtrip(e: EntwiningData, act: LinearMap, triangle: LinearMap) -> Report:
    """Round trip of the module/measuring correspondence over a factorization."""
    e = replace(e, kind="factorization")
    a, b, psi = e.algebra, e.left_algebra, e.psi
    m_sp = act.domain.factors[0]
    mod = module_from_pair(a, b, psi, act, triangle)
    split_act, split_tri = pair_from_module(a, b, mod)
    maps = {"φ": split_tri, "ρ": split_act, "φ₀": triangle, "ρ₀": act, "ψ": psi}
    maps |= {"M": identity(a.field, m_sp), "V": identity(a.field, b.space), "A": identity(a.field, a.space)}
    return merge(
        "entwined-roundtrip",
        verify(e).prefixed("factorization"),
        check_module(ModuleAction(a, m_sp, act)).prefixed("module-a"),
        check_module(ModuleAction(b, m_sp, triangle)).prefixed("module-b"),
        check_module(mod).prefixed("product-module"),
        check_laws(ROUNDTRIP_LAWS, maps),
    )
