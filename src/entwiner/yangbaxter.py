"""Yang-Baxter operators and systems, and their bridges to entwining maps.

The triple commutator [R, S, T] = R12 S13 T23 - T23 S13 R12 is the working
primitive: the braid relation, the quantum Yang-Baxter equation, WXZ systems,
and four-map systems are all families of vanishing commutators.  Checks
compare the two triple compositions (the word TRIPLE_LAW) column-by-column
instead of materializing the commutator, so a failure surfaces the first bad
basis vector.  S13 is S (x) V conjugated by the flips of V and W, each a
wire (`linalg.wire`: identity legs in another order, no matrix), and
`linalg.law_chains` folds a wire into the layer outside it, so each side is
three `KronApply` layers (chain elements are maps, `KronApply` layers and
`Composite`s).  A materialized product, such as phi tau, uses `linalg.twist`.

The bridge results relate these systems to the entwining axioms: the algebra
R-matrix R_{r,s} pairs with a twisted entwining map to form a (semi) system
exactly when the entwining axioms hold, twist-conjugation corresponds to
factorization over the opposite algebra, and every algebra carries a braiding
1 (x) ab + ab (x) 1 - a (x) b making it a commutative braided algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entwine import (
    SEMI_KINDS,
    EntwiningData,
    MeasuredModule,
    algebra_axioms,
    check_entwined_variant,
    mult_twist,
    verify,
)
from .fields import Scalar
from .linalg import (
    LinearMap,
    ShapeError,
    Space,
    check_law,
    check_laws,
    combine,
    direct_sum,
    identity,
    insert_left,
    insert_right,
    is_invertible,
    lazy_kron,
    materialize,
    twist,
    vector_map,
    wire,
)
from .report import IdentityCheck, PreconditionError, Report, merge
from .structures import Algebra, check_algebra, check_derivation, opposite_algebra


# R12 S13 T23 = T23 S13 R12 on U (x) V (x) W, S13 = (U (x) τ′)(S (x) V)(U (x) τ)
# with the flips τ : V (x) W -> W (x) V and τ′ : W (x) V -> V (x) W; U (x) τ
# and U (x) τ′ are bound as wholes, each one wire of three factors
S13 = [("U", "τ′"), ("S", "V"), ("U", "τ")]
TRIPLE_LAW = ("commutator", [("R", "W"), *S13, ("U", "T")], [("U", "T"), *S13, ("R", "W")])
BRAID_LAW = ("braid", [("φ", "V"), ("V", "φ"), ("φ", "V")], [("V", "φ"), ("φ", "V"), ("V", "φ")])
# an algebra A (m, η) with a braiding ψ, and f : A -> B into the algebra B (n, η_B) braided by φ
R_COMMUTATIVE_LAW = ("r-commutative", ["m", "ψ"], ["m"])
BRAIDED_MORPHISM_LAWS = (
    ("morphism-mult", ["f", "m"], ["n", ("f", "f")]),
    ("morphism-unit", ["f", "η"], ["η_B"]),
    ("braiding-compatibility", [("f", "f"), "ψ"], ["φ", ("f", "f")]),
)


def _square_endo(m: LinearMap, what: str):
    if len(m.domain.dims) != 2 or m.domain.dims != m.codomain.dims:
        raise ShapeError(f"{what} must be an endomorphism of a two-factor tensor space")


@dataclass(frozen=True)
class TripleSystem:
    """Maps r12 on V1 (x) V2, s13 on V1 (x) V3, t23 on V2 (x) V3."""

    r12: LinearMap
    s13: LinearMap
    t23: LinearMap

    def __post_init__(self):
        for m, what in ((self.r12, "r12"), (self.s13, "s13"), (self.t23, "t23")):
            _square_endo(m, what)
        f1, f2 = self.r12.domain.factors
        if self.s13.domain.factors[0].dims != f1.dims:
            raise ShapeError("r12 and s13 disagree on the first tensor leg")
        if self.t23.domain.factors[0].dims != f2.dims:
            raise ShapeError("r12 and t23 disagree on the second tensor leg")
        if self.s13.domain.factors[1].dims != self.t23.domain.factors[1].dims:
            raise ShapeError("s13 and t23 disagree on the third tensor leg")

    @property
    def spaces(self) -> tuple[Space, Space, Space]:
        return (
            self.r12.domain.factors[0],
            self.r12.domain.factors[1],
            self.s13.domain.factors[1],
        )


def commutator_check(name: str, r12: LinearMap, s13: LinearMap, t23: LinearMap) -> IdentityCheck:
    """Column-streamed test that [r12, s13, t23] = 0."""
    u, v, w = TripleSystem(r12, s13, t23).spaces
    field = r12.field
    maps = {"R": r12, "S": s13, "T": t23, "U": identity(field, u), "V": identity(field, v), "W": identity(field, w)}
    maps |= {("U", "τ"): wire(field, (u, v, w), (0, 2, 1)), ("U", "τ′"): wire(field, (u, w, v), (0, 2, 1))}
    _, lhs, rhs = TRIPLE_LAW
    return check_law((name, lhs, rhs), maps)


def check_qybe(phi: LinearMap) -> Report:
    """phi12 phi13 phi23 = phi23 phi13 phi12 on the triple tensor power."""
    _square_endo(phi, "phi")
    return Report("qybe", (commutator_check("qybe", phi, phi, phi),))


def check_yb_operator(phi: LinearMap) -> Report:
    """Braid relation, invertibility, and the twisted-QYBE equivalences.

    Every check is deferred: the QYBE of phi tau and of tau phi (each product
    materialized inside its check), their agreement with the braid relation,
    and invertibility are computed only when read, so a reader of `braid`
    alone, or a rollup that stops at a failing braid, computes one law.
    """
    _square_endo(phi, "phi")
    v, w = phi.domain.factors
    if v.dims != w.dims:
        raise ShapeError("a braid candidate needs equal tensor factors")
    field = phi.field
    braid = check_law(BRAID_LAW, {"φ": phi, "V": identity(field, v)})
    tau = twist(field, v, w)

    def twisted_qybe(name: str, chain: list) -> IdentityCheck:
        def compute() -> IdentityCheck:
            m = materialize(chain)
            return commutator_check(name, m, m, m)

        return IdentityCheck.deferred(name, compute)

    qybe_right = twisted_qybe("qybe-twist-right", [phi, tau])
    qybe_left = twisted_qybe("qybe-twist-left", [tau, phi])
    agreement = IdentityCheck.deferred(
        "twist-agreement",
        lambda: IdentityCheck(
            "twist-agreement", braid.passed == qybe_right.passed == qybe_left.passed
        ),
    )
    invertible = IdentityCheck.deferred(
        "invertible", lambda: IdentityCheck("invertible", is_invertible(phi))
    )
    return Report("yb-operator", (braid, qybe_right, qybe_left, agreement, invertible))


def check_wxz(w: LinearMap, x: LinearMap, z: LinearMap) -> Report:
    """The four vanishing commutators of a WXZ system, plus the semi-system verdict."""
    www = commutator_check("www", w, w, w)
    wxx = commutator_check("wxx", w, x, x)
    zzz = commutator_check("zzz", z, z, z)
    xxz = commutator_check("xxz", x, x, z)
    semi = IdentityCheck("semi-system", www.passed and wxx.passed)
    return Report("wxz-system", (www, wxx, zzz, xxz, semi))


@dataclass(frozen=True)
class WXZSystem:
    """w on V (x) V, x on V (x) V', z on V' (x) V'."""

    w: LinearMap
    x: LinearMap
    z: LinearMap

    def __post_init__(self):
        for m, what in ((self.w, "w"), (self.x, "x"), (self.z, "z")):
            _square_endo(m, what)
        v, vprime = self.x.domain.factors
        if self.w.domain.dims != (v.dim, v.dim) or self.z.domain.dims != (
            vprime.dim,
            vprime.dim,
        ):
            raise ShapeError("w, x, z legs do not line up")


@dataclass(frozen=True)
class TypeIISystem:
    """Four endomorphisms a, b, c, d of the same V (x) V."""

    a: LinearMap
    b: LinearMap
    c: LinearMap
    d: LinearMap

    def __post_init__(self):
        for m, what in ((self.a, "a"), (self.b, "b"), (self.c, "c"), (self.d, "d")):
            _square_endo(m, what)
            if m.domain.dims != self.a.domain.dims:
                raise ShapeError("all four maps must share one square space")
        f1, f2 = self.a.domain.factors
        if f1.dims != f2.dims:
            raise ShapeError("four-map systems need equal tensor factors")


def check_type2(ts: TypeIISystem) -> Report:
    """The eight vanishing commutators of a four-map system (x+ = tau x tau)."""
    field = ts.a.field
    v, w = ts.a.domain.factors
    tau = twist(field, v, w)
    bplus = materialize([tau, ts.b, tau])
    cplus = materialize([tau, ts.c, tau])
    rows = (
        commutator_check("a-a-a", ts.a, ts.a, ts.a),
        commutator_check("d-d-d", ts.d, ts.d, ts.d),
        commutator_check("a-c-c", ts.a, ts.c, ts.c),
        commutator_check("d-b-b", ts.d, ts.b, ts.b),
        commutator_check("a-b+-b+", ts.a, bplus, bplus),
        commutator_check("d-c+-c+", ts.d, cplus, cplus),
        commutator_check("a-c-b+", ts.a, ts.c, bplus),
        commutator_check("d-b-c+", ts.d, ts.b, cplus),
    )
    return Report("type2-system", rows)


def make_algebra_rmatrix(a: Algebra, r: Scalar, s: Scalar) -> LinearMap:
    """a (x) b -> s(ba (x) 1) + r(1 (x) ba) - s(b (x) a) on A (x) A, one `combine`."""
    field = a.field
    tau = twist(field, a.space, a.space)
    return combine(
        [
            (s, [insert_right(field, a.space, a.unit, a.space), a.mult, tau]),
            (r, [insert_left(field, a.unit, a.space, a.space), a.mult, tau]),
            (-s, tau),
        ]
    )


def type2_component(a: Algebra, lam: Scalar) -> LinearMap:
    """a (x) b -> lam(1 (x) ab) + ab (x) 1 - b (x) a on A (x) A, one `combine`."""
    field = a.field
    return combine(
        [
            (lam, [insert_left(field, a.unit, a.space, a.space), a.mult]),
            (field.one, [insert_right(field, a.space, a.unit, a.space), a.mult]),
            (-field.one, twist(field, a.space, a.space)),
        ]
    )


def is_commutative(a: Algebra) -> bool:
    return a.mult.same_matrix(a.mult * twist(a.field, a.space, a.space))


def make_type2_family(a: Algebra, lam: Scalar, lam_prime: Scalar) -> TypeIISystem:
    """The four-map system with component coefficients (lam, 1, 1, lam_prime).

    The eight-equation claim needs A commutative.
    """
    if not is_commutative(a):
        raise PreconditionError("the four-map family needs a commutative algebra")
    one = a.field.one
    return TypeIISystem(
        a=type2_component(a, lam),
        b=type2_component(a, one),
        c=type2_component(a, one),
        d=type2_component(a, lam_prime),
    )


def make_type2_from_semi(
    a: Algebra, psi: LinearMap, r: Scalar, s: Scalar, p: Scalar, q: Scalar
) -> TypeIISystem:
    """Pair two R-matrices with psi tau and (tau psi tau) tau = tau psi."""
    tau = twist(a.field, a.space, a.space)
    return TypeIISystem(
        a=make_algebra_rmatrix(a, r, s),
        b=psi * tau,
        c=tau * psi,
        d=make_algebra_rmatrix(a, p, q),
    )


def semi_system_equivalence(
    a: Algebra, b, psi: LinearMap, r: Scalar, s: Scalar, p: Scalar = None, q: Scalar = None
) -> Report:
    """System verdicts for (R_{r,s}, psi tau) against the entwining verdicts.

    With b a plain space, checks that (W, X) is a semi system exactly when psi
    is a semi-entwining map; with b an algebra and (p, q) given, additionally
    checks that (W, X, R^B_{p,q}) is a WXZ system exactly when psi is an
    algebra factorization.  The unit normalizations of X are preconditions.
    """
    b_alg = b if isinstance(b, Algebra) else None
    b_space = b.space if b_alg is not None else b
    right_pair = algebra_axioms(a, b_space, psi)
    semi = Report("semi-entwining", right_pair)
    pre = right_pair[0].renamed("precondition-unit")
    if not pre.passed:
        raise PreconditionError(
            "the twisted map must fix 1 (x) b", Report("system-equivalence", (pre,))
        )
    w = make_algebra_rmatrix(a, r, s)
    x = materialize([psi, twist(a.field, a.space, b_space)])
    www = commutator_check("www", w, w, w)
    wxx = commutator_check("wxx", w, x, x)
    checks = [
        pre,
        www,
        wxx,
        *semi.prefixed("entwining"),
        IdentityCheck("system-iff-semi", (www.passed and wxx.passed) == semi.passed),
    ]
    if b_alg is not None and p is not None and q is not None:
        left_pair = algebra_axioms(b_alg, a.space, psi, left=True)
        fact = Report("algebra-factorization", right_pair + left_pair)
        pre_left = left_pair[0].renamed("precondition-left-unit")
        if not pre_left.passed:
            raise PreconditionError(
                "the twisted map must fix a (x) 1",
                Report("system-equivalence", (pre_left,)),
            )
        z = make_algebra_rmatrix(b_alg, p, q)
        zzz = commutator_check("zzz", z, z, z)
        xxz = commutator_check("xxz", x, x, z)
        system = www.passed and wxx.passed and zzz.passed and xxz.passed
        checks += [
            pre_left,
            zzz,
            xxz,
            *fact.prefixed("factorization"),
            IdentityCheck("system-iff-factorization", system == fact.passed),
        ]
    return Report("system-equivalence", tuple(checks))


def check_twist_conjugation(a: Algebra, psi: LinearMap) -> Report:
    """tau psi tau is semi-entwining iff psi factorizes over the opposite algebra."""
    pre = verify(EntwiningData(kind="semi", psi=psi, algebra=a))
    if not pre.passed:
        raise PreconditionError("the input map must be a semi-entwining map", pre)
    tau = twist(a.field, a.space, a.space)
    twisted = verify(EntwiningData(kind="semi", psi=materialize([tau, psi, tau]), algebra=a))
    op_fact = verify(
        EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=opposite_algebra(a))
    )
    return merge(
        "twist-conjugation",
        pre.prefixed("entwining"),
        twisted.prefixed("twisted"),
        op_fact.prefixed("op-factorization"),
        IdentityCheck("agreement", twisted.passed == op_fact.passed),
    )


def check_measuring_commutator(e: EntwiningData, mm: MeasuredModule, z) -> Report:
    """[zeta, eta, X] = 0 for a semi-entwined module with measuring phi.

    zeta(m (x) b) = phi(m (x) b) (x) z, eta(m (x) a) = ma (x) 1, and X is the
    twisted endomorphism of B (x) A; z must be nonzero and the entwined-module
    axioms are preconditions.
    """
    if e.kind not in SEMI_KINDS or mm.variant != "semi-entwined-module":
        raise ShapeError("needs a semi-side entwining and a semi-entwined module")
    z = tuple(z)
    field = e.field
    b_sp, a_alg, m_sp = e.left_space, e.algebra, mm.carrier
    if len(z) != b_sp.dim:
        raise ShapeError("z must live in the left tensor factor")
    if not any(bool(v) for v in z):
        raise PreconditionError("z must be nonzero")
    prereq = check_entwined_variant(mm, e)
    if not prereq.passed:
        raise PreconditionError("the entwined-module axioms fail", prereq)
    zeta = insert_right(field, m_sp, z, b_sp) * mm.measuring
    eta = insert_right(field, m_sp, a_alg.unit, a_alg.space) * mm.act
    xmap = materialize([twist(field, a_alg.space, b_sp), e.psi])
    return Report(
        "measuring-commutator", (commutator_check("commutator", zeta, eta, xmap),)
    )


# ---------------------------------------------------------------------------
# braided algebras


def make_braiding(a: Algebra) -> LinearMap:
    """a (x) b -> 1 (x) ab + ab (x) 1 - a (x) b, a self-inverse braiding on A."""
    return mult_twist(a, a.field.one)


def check_braided_algebra(a: Algebra, psi: LinearMap) -> Report:
    """Unit and product compatibilities of a braiding on both legs, plus the operator laws."""
    unit_right, product_right = algebra_axioms(a, a.space, psi)
    unit_left, product_left = algebra_axioms(a, a.space, psi, left=True)
    return merge(
        "braided-algebra",
        check_yb_operator(psi).prefixed("yb"),
        unit_left.renamed("unit-left"),
        unit_right.renamed("unit-right"),
        product_right.renamed("product-right-leg"),
        product_left.renamed("product-left-leg"),
    )


def check_r_commutative(a: Algebra, psi: LinearMap) -> Report:
    """mult o psi = mult, the commutativity-up-to-braiding flag."""
    return Report("r-commutative", (check_law(R_COMMUTATIVE_LAW, {"m": a.mult, "ψ": psi}),))


def check_braided_morphism(
    f: LinearMap, a: Algebra, psi_a: LinearMap, b: Algebra, psi_b: LinearMap
) -> Report:
    """f is an algebra morphism intertwining the two braidings."""
    maps = {"f": f, "m": a.mult, "n": b.mult, "ψ": psi_a, "φ": psi_b}
    maps |= {"η": vector_map(a.field, a.unit, a.space), "η_B": vector_map(b.field, b.unit, b.space)}
    return Report("braided-morphism", check_laws(BRAIDED_MORPHISM_LAWS, maps))


def trivial_extension(a: Algebra) -> Algebra:
    """A (+) A with product (aa') (+) (ab' + ba') and unit 1 (+) 0; the product is one `combine`."""
    field = a.field
    one = field.one
    ext, i_a, i_d, p_a, p_d = direct_sum(field, a.space, a.space, "A", "D")
    mult = combine(
        [
            (one, [i_a, a.mult, lazy_kron(p_a, p_a)]),
            (one, [i_d, a.mult, lazy_kron(p_a, p_d)]),
            (one, [i_d, a.mult, lazy_kron(p_d, p_a)]),
        ]
    )
    return Algebra(field, ext, mult, i_a.apply(a.unit))


def check_extension_morphism(a: Algebra, delta: LinearMap) -> Report:
    """a -> a (+) delta(a) is a braided morphism into the extension, for a derivation."""
    derivation = check_derivation(a, delta)
    if not derivation.passed:
        raise PreconditionError("delta must be a derivation", derivation)
    ext = trivial_extension(a)
    _, i_a, i_d, _, _ = direct_sum(a.field, a.space, a.space, "A", "D")
    f = combine([(a.field.one, i_a), (a.field.one, [i_d, delta])])
    return merge(
        "extension-morphism",
        derivation.prefixed("derivation"),
        check_algebra(ext).prefixed("extension-algebra"),
        check_braided_morphism(f, a, make_braiding(a), ext, make_braiding(ext)),
    )
