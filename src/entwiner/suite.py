"""The registry-wide verification suite.

Each row sweeps one family of properties over the built-in registry and
returns a Report whose checks all pass when the library is healthy.  Rows
that exercise failing instances encode the expectation ("this must fail",
"these verdicts must agree") so a green row really is green.  Rows are pure
functions of the field, so the driver can run them in parallel processes and
assemble output in a fixed order.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import replace

from .entwine import (
    COSEMI_LAWS,
    SEMI_KINDS,
    EntwiningData,
    MeasuredModule,
    check_coproduct_iff,
    check_entwined_variant,
    check_product_iff,
    comm_twist,
    dualize_cosemi,
    entwined_roundtrip,
    intertwining_from_semi,
    make_biproduct,
    mult_twist,
    verify,
)
from .fields import Rationals, field_from_tag
from .linalg import (
    LinearMap,
    ShapeError,
    check_law,
    identity,
    insert_right,
    materialize,
    space,
    twist,
    zero_map,
)
from .registry import (
    ALGEBRA_NAMES,
    INSTANCE_NAMES,
    algebra,
    algebra_pairs,
    coalgebra,
    coalgebra_pairs,
    group_bialgebra_z2,
    make_twist,
    monoid_bialgebra,
    quad_factorization,
    random_entwining_matrix,
    resolve_instance,
)
from .report import IdentityCheck, PreconditionError, Report
from .structures import check_grouplike_bilateral_integral
from .tambara import (
    action_from_semi,
    check_action_roundtrip,
    check_comodule_coalgebra_refinement,
    check_cotambara_relations,
    check_module_algebra_refinement,
    check_tambara_relations,
    cotambara_action,
)
from .yangbaxter import (
    check_braided_algebra,
    check_braided_morphism,
    check_extension_morphism,
    check_measuring_commutator,
    check_r_commutative,
    check_twist_conjugation,
    check_type2,
    check_wxz,
    check_yb_operator,
    commutator_check,
    is_commutative,
    make_algebra_rmatrix,
    make_braiding,
    make_type2_family,
    make_type2_from_semi,
    semi_system_equivalence,
    type2_component,
)

RANDOM_PER_PAIR = 20
# the braiding ψ of `yangbaxter.make_braiding` on A (x) A is its own inverse
SELF_INVERSE_LAW = ("self-inverse", ["ψ", "ψ"], [("A", "A")])


def rollup(name: str, rep: Report) -> IdentityCheck:
    """One line per instance: carry the first failing check's witness upward."""
    for c in rep.checks:
        if not c.passed:
            return IdentityCheck(name, False, (c.name,) + (c.witness or ()), c.residual)
    return IdentityCheck(name, True)


def expect_failure(name: str, rep: Report) -> IdentityCheck:
    return IdentityCheck(name, not rep.passed)


def _q_grid(field):
    return tuple((qs, field.parse(qs)) for qs in ("0", "1", "-1", "2", "1/2"))


def _semi(a, psi) -> Report:
    return verify(EntwiningData(kind="semi", psi=psi, algebra=a))


def row_twists(field) -> Report:
    checks = []
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        for qs, q in _q_grid(field):
            gamma = mult_twist(a, q)
            eta = comm_twist(a, q)
            checks.append(rollup(f"semi:mult_twist@{name},q={qs}", _semi(a, gamma)))
            checks.append(rollup(f"semi:comm_twist@{name},q={qs}", _semi(a, eta)))
            if q:
                checks.append(rollup(f"yb:mult_twist@{name},q={qs}", check_yb_operator(gamma)))
            checks.append(rollup(f"yb:comm_twist@{name},q={qs}", check_yb_operator(eta)))
    return Report("twists", tuple(checks))


def row_product_iff(field) -> Report:
    checks = []
    genuine = 0

    def add(label, e):
        nonlocal genuine
        rep = check_product_iff(e)
        if not all(c.passed for c in rep.checks if c.name.startswith("factorization:")):
            genuine += 1
        checks.append(IdentityCheck(f"agreement:{label}", rep.check("verdict-agreement").passed))

    for expr in INSTANCE_NAMES:
        e = resolve_instance(expr, field)
        if e.kind == "factorization":
            add(expr, e)
    for expr in (
        "corrupt:mult_twist@Kx2-1,q=1",
        "corrupt:twist@Kx2-0,Kx2-1",
        "corrupt:quad@p=1,q=2",
        "corrupt:comm_twist@Kx3,q=1",
    ):
        add(expr, resolve_instance(expr, field))
    for idx, (bn, an) in enumerate(algebra_pairs()):
        a, b = algebra(an, field), algebra(bn, field)

        def pair(psi):
            return EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=b)

        add(f"twist@{bn},{an}", pair(twist(field, b.space, a.space)))
        for i in range(RANDOM_PER_PAIR):
            psi = random_entwining_matrix(field, b.space, a.space, seed=7919 * idx + i)
            add(f"random@{bn},{an}#{i}", pair(psi))
    checks.append(IdentityCheck("at-least-three-genuine-failures", genuine >= 3))
    return Report("product-iff", tuple(checks))


def row_biproduct(field) -> Report:
    checks = []
    kz2 = group_bialgebra_z2(field)
    psi = mult_twist(kz2.algebra, field.one)
    checks.append(
        rollup("biproduct:KZ2,mult_twist", make_biproduct(kz2, kz2.space, psi).report)
    )
    kmono = monoid_bialgebra(field)
    bsp = space("u")
    tau = twist(field, bsp, kmono.space)
    z = (field.zero, field.one)
    checks.append(
        rollup(
            "biproduct:Kmono,twist,integral=z",
            make_biproduct(kmono, bsp, tau, integral=z).report,
        )
    )
    checks.append(
        rollup("integral-accept:Kmono,z", check_grouplike_bilateral_integral(kmono, z))
    )
    checks.append(
        expect_failure(
            "integral-reject:KZ2,g",
            check_grouplike_bilateral_integral(kz2, (field.zero, field.one)),
        )
    )
    return Report("biproduct", tuple(checks))


def row_coproduct_iff(field) -> Report:
    checks = []
    # the cosemi verdict is the right-leg half of the cofactorization verdict
    cosemi = tuple(f"factorization:{name}" for name, _, _ in COSEMI_LAWS)

    def add(label, e):
        rep = check_coproduct_iff(e)
        checks.append(IdentityCheck(f"agreement:{label}", rep.check("verdict-agreement").passed))
        add_dual_validity(label, e, all(rep.check(n).passed for n in cosemi))

    def add_dual_validity(label, e, cosemi_passed):
        if cosemi_passed:
            dual = verify(dualize_cosemi(e.coalgebra, e.left_space, e.psi))
            checks.append(IdentityCheck(f"dual-valid:{label}", dual.passed))

    for idx, (dn, cn) in enumerate(coalgebra_pairs()):
        c, d = coalgebra(cn, field), coalgebra(dn, field)

        def pair(psi):
            return EntwiningData(kind="cofactorization", psi=psi, coalgebra=c, left_coalgebra=d)

        add(f"cotwist@{dn},{cn}", pair(twist(field, d.space, c.space)))
        for i in range(RANDOM_PER_PAIR):
            psi = random_entwining_matrix(field, d.space, c.space, seed=104729 * idx + i)
            add(f"random@{dn},{cn}#{i}", pair(psi))
    for expr in (
        "dual:quad@p=1,q=2",
        "dual:quad@p=0,q=1",
        "dual:twist@Kx2-1,Kx3",
        "dual:corrupt:quad@p=1,q=2",
        "dkalt-KZ2-regular",
    ):
        add(expr, resolve_instance(expr, field))
    e = resolve_instance("dkalt-KZ2-sign", field)
    rep = verify(e)
    checks.append(rollup("cosemi:dkalt-KZ2-sign", rep))
    add_dual_validity("dkalt-KZ2-sign", e, rep.passed)
    return Report("coproduct-iff", tuple(checks))


def row_entwined_modules(field) -> Report:
    checks = []
    one = field.one
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        rho_one = insert_right(field, a.space, a.unit, a.space)
        mm_mod = MeasuredModule(
            "semi-entwined-module", a.space, a.space, measuring=a.mult, act=a.mult
        )
        mm_com = MeasuredModule(
            "semi-entwined-comodule", a.space, a.space, measuring=rho_one, act=a.mult
        )

        def add(label, mm, psi):
            e = EntwiningData(kind="semi", psi=psi, algebra=a)
            checks.append(rollup(label, check_entwined_variant(mm, e)))

        for qs, q in (("0", field.zero), ("1", one), ("2", field.from_int(2))):
            add(f"module:mult_twist@{name},q={qs}", mm_mod, mult_twist(a, q))
            add(f"comodule:comm_twist@{name},q={qs}", mm_com, comm_twist(a, q))
        add(f"module:comm_twist@{name},q=1", mm_mod, comm_twist(a, one))
        add(f"comodule:mult_twist@{name},q=1", mm_com, mult_twist(a, one))
    for expr in ("twist@Kx2-0,Kx2-0", "quad@p=1,q=2"):
        e = resolve_instance(expr, field)
        a, b = e.algebra, e.left_algebra
        if expr.startswith("twist"):
            triangle = b.mult
        else:
            triangle = materialize([b.mult, twist(field, a.space, b.space)])
        checks.append(rollup(f"roundtrip:{expr}", entwined_roundtrip(e, a.mult, triangle)))
    return Report("entwined-modules", tuple(checks))


def row_intertwining(field) -> Report:
    checks = []
    for expr in INSTANCE_NAMES:
        e = resolve_instance(expr, field)
        if e.kind not in SEMI_KINDS:
            continue
        semi = replace(e, kind="semi")
        if verify(semi).passed:
            checks.append(rollup(f"intertwining:{expr}", intertwining_from_semi(semi)))
    return Report("intertwining", tuple(checks))


def row_braided(field) -> Report:
    checks = []
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        psi = make_braiding(a)
        checks.append(rollup(f"braided:{name}", check_braided_algebra(a, psi)))
        maps = {"ψ": psi, "A": identity(field, a.space)}
        checks.append(check_law(SELF_INVERSE_LAW, maps).renamed(f"self-inverse:{name}"))
        checks.append(
            IdentityCheck(f"r-commutative:{name}", check_r_commutative(a, psi).passed)
        )
        tau = twist(field, a.space, a.space)
        checks.append(rollup(f"braided-twist:{name}", check_braided_algebra(a, tau)))
        checks.append(
            IdentityCheck(
                f"twist-commutativity-agreement:{name}",
                check_r_commutative(a, tau).passed == is_commutative(a),
            )
        )
    a = algebra("Kx2-1", field)
    k = algebra("K", field)
    f = LinearMap(field, a.space, k.space, ((field.one, field.one),))
    checks.extend(
        check_braided_morphism(f, a, make_braiding(a), k, make_braiding(k)).prefixed(
            "morphism:Kx2-1->K"
        )
    )
    kx3 = algebra("Kx3", field)
    z, o = field.zero, field.one
    delta = LinearMap(field, kx3.space, kx3.space, ((z, z, z), (z, z, z), (z, o, z)))
    checks.append(rollup("extension:Kx3,delta", check_extension_morphism(kx3, delta)))
    return Report("braided", tuple(checks))


def _closed_form_mult(a, q):
    n = a.space.dim
    mult, u = a.mult.rows, a.unit
    one, zero = a.field.one, a.field.zero
    return [
        [
            [
                [
                    u[i] * mult[l][k * n + j]
                    + q * mult[i][k * n + j] * u[l]
                    - (q if (i == k and l == j) else zero) * one
                    for k in range(n)
                ]
                for l in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _closed_form_comm(a, q):
    n = a.space.dim
    mult, u = a.mult.rows, a.unit
    one, zero = a.field.one, a.field.zero
    return [
        [
            [
                [
                    q * (mult[i][k * n + j] - mult[i][j * n + k]) * u[l]
                    + ((one if l == k else zero) if i == j else zero)
                    for k in range(n)
                ]
                for l in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _closed_form_module(a):
    n = a.space.dim
    mult, u = a.mult.rows, a.unit
    return [
        [
            [[u[i] * mult[l][k * n + j] for k in range(n)] for l in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _maps_match(g, grid) -> bool:
    n, x, field = len(grid), g.carrier, g.algebra.field
    return all(
        g.maps[i][j].same_matrix(LinearMap(field, x, x, tuple(map(tuple, grid[i][j]))))
        for i in range(n) for j in range(n)
    )


def row_generator_actions(field) -> Report:
    checks = []
    instances = ((expr, resolve_instance(expr, field)) for expr in INSTANCE_NAMES)
    kept = [(expr, e) for expr, e in instances if e.kind in SEMI_KINDS]
    kept += [
        (expr, resolve_instance(expr, field))
        for expr in (
            "corrupt:mult_twist@Kx2-1,q=1",
            "corrupt:module@Kx3",
            "corrupt:quad@p=1,q=2",
            "corrupt:dk-KZ2-sign",
        )
    ]
    for expr, e in kept:
        g = action_from_semi(e)
        rel = check_tambara_relations(g)
        semi = verify(replace(e, kind="semi"))
        checks.append(IdentityCheck(f"relations-iff-semi:{expr}", rel.passed == semi.passed))
        checks.append(rollup(f"roundtrip:{expr}", check_action_roundtrip(e)))
        if e.left_algebra is not None:
            ref = check_module_algebra_refinement(g, e.left_algebra)
            checks.append(
                IdentityCheck(f"refinement-agreement:{expr}", ref.check("agreement").passed)
            )
    q2 = field.from_int(2)
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        g_gamma = action_from_semi(
            EntwiningData(kind="semi", psi=mult_twist(a, q2), algebra=a)
        )
        checks.append(
            IdentityCheck(f"closed-form-mult:{name}", _maps_match(g_gamma, _closed_form_mult(a, q2)))
        )
        g_eta = action_from_semi(
            EntwiningData(kind="semi", psi=comm_twist(a, q2), algebra=a)
        )
        checks.append(
            IdentityCheck(f"closed-form-comm:{name}", _maps_match(g_eta, _closed_form_comm(a, q2)))
        )
        g_mod = action_from_semi(resolve_instance(f"module@{name}", field))
        checks.append(
            IdentityCheck(f"closed-form-module:{name}", _maps_match(g_mod, _closed_form_module(a)))
        )
    a = algebra("Kx2-1", field)
    g = action_from_semi(make_twist(algebra("K", field), a))
    flip = (identity(field, g.carrier), zero_map(field, g.carrier, g.carrier))
    eps_ok = all(g.maps[i][j].same_matrix(flip[i != j]) for i in range(2) for j in range(2))
    checks.append(IdentityCheck("eps-consistency:twist@K,Kx2-1", eps_ok))
    for expr in (
        "cotwist@GL2,GL2",
        "cotwist@Kx2-1*,GL2",
        "dkalt-KZ2-sign",
        "dual:quad@p=1,q=2",
    ):
        e = resolve_instance(expr, field)
        g_co = cotambara_action(e)
        g_du = action_from_semi(dualize_cosemi(e.coalgebra, e.left_space, e.psi))
        n = e.coalgebra.space.dim
        same = all(
            g_co.maps[i][j].same_matrix(g_du.maps[j][i])
            for i in range(n)
            for j in range(n)
        )
        checks.append(IdentityCheck(f"cotambara-consistency:{expr}", same))
        rel_co = check_cotambara_relations(e)
        rel_du = check_tambara_relations(g_du)
        checks.append(
            IdentityCheck(f"cotambara-relations-agree:{expr}", rel_co.passed == rel_du.passed)
        )
        if e.left_coalgebra is not None:
            ref = check_comodule_coalgebra_refinement(e, e.left_coalgebra)
            checks.append(
                IdentityCheck(f"corefinement-agreement:{expr}", ref.check("agreement").passed)
            )
    return Report("generator-actions", tuple(checks))


def row_yb_systems(field) -> Report:
    checks = []
    one = field.one
    zero = field.zero
    two = field.from_int(2)
    rs_grid = (zero, one, -one, two)
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        check = IdentityCheck(f"rmatrix-commutator:{name}", True)
        for r, s in ((r, s) for r in rs_grid for s in rs_grid):
            w = make_algebra_rmatrix(a, r, s)
            cc = commutator_check("www", w, w, w)
            if not cc.passed:
                wit = (f"r={field.render(r)}", f"s={field.render(s)}") + (cc.witness or ())
                check = IdentityCheck(f"rmatrix-commutator:{name}", False, wit, cc.residual)
                break
        checks.append(check)

    for expr in (
        "mult_twist@Kx2-1,q=1",
        "mult_twist@M2,q=1",
        "module@Kx3",
        "corrupt:mult_twist@Kx2-1,q=1",
        "corrupt:module@Kx2-2",
    ):
        e = resolve_instance(expr, field)
        for rl, sl in (("1", "1"), ("1", "0"), ("0", "1"), ("2", "-1")):
            r, s = field.parse(rl), field.parse(sl)
            rep = semi_system_equivalence(e.algebra, e.left_space, e.psi, r, s)
            label = f"system-iff-semi:{expr},r={rl},s={sl}"
            checks.append(IdentityCheck(label, rep.check("system-iff-semi").passed))

    for expr in (
        "quad@p=1,q=2",
        "twist@Kx2-0,Kx2-1",
        "corrupt:quad@p=1,q=2",
        "mult_twist@M2,q=1",
    ):
        e = resolve_instance(expr, field)
        for rl, sl, pl, ql in (
            ("1", "1", "1", "1"),
            ("1", "0", "0", "1"),
            ("2", "-1", "1", "2"),
        ):
            rep = semi_system_equivalence(
                e.algebra,
                e.left_algebra,
                e.psi,
                field.parse(rl),
                field.parse(sl),
                field.parse(pl),
                field.parse(ql),
            )
            label = f"system-iff-factorization:{expr},r={rl},s={sl},p={pl},q={ql}"
            checks.append(IdentityCheck(label, rep.check("system-iff-factorization").passed))

    lam_grid = (("1", "1"), ("2", "3"), ("0", "5"))
    for name in ALGEBRA_NAMES:
        a = algebra(name, field)
        if not is_commutative(a):
            continue
        for l1, l2 in lam_grid:
            ts = make_type2_family(a, field.parse(l1), field.parse(l2))
            checks.append(rollup(f"type2:{name},l={l1},l2={l2}", check_type2(ts)))

    m2 = algebra("M2", field)
    try:
        make_type2_family(m2, one, one)
        checks.append(IdentityCheck("type2-noncommutative-guard", False))
    except PreconditionError:
        checks.append(IdentityCheck("type2-noncommutative-guard", True))
    c = type2_component(m2, one)
    checks.append(rollup("type1:M2,l=1,l2=1", check_wxz(c, c, c)))

    for name in ("Kx2-1", "Kx3", "KZ2"):
        a = algebra(name, field)
        psi = mult_twist(a, one)
        tau = twist(field, a.space, a.space)
        twisted = materialize([tau, psi, tau])
        if _semi(a, psi).passed and _semi(a, twisted).passed:
            ts = make_type2_from_semi(a, psi, one, one, one, one)
            checks.append(rollup(f"paired-system:{name},1111", check_type2(ts)))
            ts = make_type2_from_semi(a, psi, two, one, zero, one)
            checks.append(rollup(f"paired-system:{name},2101", check_type2(ts)))

    for expr in (
        "mult_twist@Kx2-1,q=1",
        "mult_twist@M2,q=1",
        "comm_twist@Kx2-1,q=1",
        "comm_twist@M2,q=1",
        "module@Kx3",
        "quad@p=1,q=2",
    ):
        e = resolve_instance(expr, field)
        rep = check_twist_conjugation(e.algebra, e.psi)
        checks.append(
            IdentityCheck(f"conjugation-agreement:{expr}", rep.check("agreement").passed)
        )

    for ps, qs in (("0", "1"), ("1", "2"), ("2", "-1"), ("1", "1/2")):
        e = quad_factorization(field, field.parse(ps), field.parse(qs))
        checks.append(rollup(f"quad-factorization:p={ps},q={qs}", verify(e)))
    for ps in ("1", "2", "-3"):
        p = field.parse(ps)
        e = quad_factorization(field, p, p + p)
        checks.append(
            IdentityCheck(
                f"quad-doubles-to-braiding:p={ps}",
                e.psi.same_matrix(make_braiding(e.algebra)),
            )
        )

    for name in ("Kx2-1", "Kx3"):
        a = algebra(name, field)
        mm = MeasuredModule(
            "semi-entwined-module", a.space, a.space, measuring=a.mult, act=a.mult
        )
        e_twist = make_twist(a, a)
        checks.append(
            rollup(
                f"measuring-commutator:twist@{name},z=1",
                check_measuring_commutator(e_twist, mm, a.unit),
            )
        )
        zvec = tuple(one if i == 1 else zero for i in range(a.space.dim))
        checks.append(
            rollup(
                f"measuring-commutator:twist@{name},z=x",
                check_measuring_commutator(e_twist, mm, zvec),
            )
        )
        e_gamma = resolve_instance(f"mult_twist@{name},q=1", field)
        checks.append(
            rollup(
                f"measuring-commutator:mult_twist@{name},z=x",
                check_measuring_commutator(e_gamma, mm, zvec),
            )
        )
    m2 = algebra("M2", field)
    mm = MeasuredModule(
        "semi-entwined-module", m2.space, m2.space, measuring=m2.mult, act=m2.mult
    )
    e_gamma = resolve_instance("mult_twist@M2,q=1", field)
    zvec = (zero, one, zero, zero)
    checks.append(
        rollup(
            "measuring-commutator:mult_twist@M2,z=e01",
            check_measuring_commutator(e_gamma, mm, zvec),
        )
    )
    return Report("yb-systems", tuple(checks))


ROW_BUILDERS = {
    "twists": row_twists,
    "product-iff": row_product_iff,
    "biproduct": row_biproduct,
    "coproduct-iff": row_coproduct_iff,
    "entwined-modules": row_entwined_modules,
    "intertwining": row_intertwining,
    "braided": row_braided,
    "generator-actions": row_generator_actions,
    "yb-systems": row_yb_systems,
}
BASE_ROWS = tuple(ROW_BUILDERS)
ROW_NAMES = BASE_ROWS + ("field-independence",)


def signature(rep: Report) -> tuple:
    return tuple((c.name, c.passed) for c in rep.checks)


def row_field_independence(main: dict, alt: dict) -> Report:
    """Verdict-by-verdict agreement of every base row's signature over two fields."""
    checks = []
    for name in BASE_ROWS:
        lengths = ("row-lengths-differ",) if len(main[name]) != len(alt[name]) else None
        diff = next(((str(m[0]),) for m, a in zip(main[name], alt[name]) if m != a), lengths)
        checks.append(IdentityCheck(f"verdicts-match:{name}", diff is None, diff))
    return Report("field-independence", tuple(checks))


def run_row(name: str, field_tag: str) -> Report:
    return ROW_BUILDERS[name](field_from_tag(field_tag))


def worker_count(jobs: int, tasks: int) -> int:
    """Pool size for `jobs` requested workers: at most one per task and one per CPU."""
    if jobs < 1:
        raise ShapeError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, tasks, os.cpu_count() or 1)


def run_suite(field_tag: str, rows=None, jobs: int = 1) -> list:
    """Run the named rows (default all) and return (name, Report) pairs in order.

    An unknown or repeated row name is refused with ShapeError.  Each
    (row, field) pair is built once.  `field-independence` compares the
    base rows built over the main field with the same rows built over the
    alternate field (F_7 for Q, Q for any F_p), kept only as signatures.
    """
    names = list(ROW_NAMES if rows is None else rows)
    if not names:
        raise ShapeError("the suite grid names no rows")
    for i, n in enumerate(names):
        if n not in ROW_NAMES:
            raise ShapeError(f"unknown suite row '{n}'")
        if n in names[:i]:
            raise ShapeError(f"the suite grid repeats row '{n}'")
    compare = "field-independence" in names
    wanted = [n for n in names if n in BASE_ROWS] + list(BASE_ROWS if compare else ())
    tasks = [(n, field_tag) for n in dict.fromkeys(wanted)]
    if compare:
        alt_tag = "fp:7" if isinstance(field_from_tag(field_tag), Rationals) else "q"
        tasks += [(n, alt_tag) for n in BASE_ROWS]
    workers = worker_count(jobs, len(tasks))
    reports, alt = {}, {}
    if jobs > 1:
        # imported here, so that only --jobs > 1 pays for the process machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if jobs > 1 else nullcontext() as pool:
        built = (pool.map if pool else map)(run_row, *zip(*tasks))
        for (name, tag), rep in zip(tasks, built):
            if tag == field_tag:
                reports[name] = rep
            else:
                alt[name] = signature(rep)
    if compare:
        main = {n: signature(reports[n]) for n in BASE_ROWS}
        reports["field-independence"] = row_field_independence(main, alt)
    return [(n, reports[n]) for n in names]
