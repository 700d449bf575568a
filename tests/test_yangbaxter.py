"""Yang-Baxter operators, commutator systems, braided algebras."""

import random

import pytest

from entwiner.cli import main
from entwiner.entwine import (
    EntwiningData,
    MeasuredModule,
    comm_twist,
    mult_twist,
    verify,
)
from entwiner.fields import QQ, FieldError, PrimeField
from entwiner.linalg import (
    LinearMap,
    ShapeError,
    check_map_identity,
    compose,
    identity,
    insert_left,
    insert_right,
    is_invertible,
    kron,
    materialize,
    space,
    tensor,
    twist,
)
from entwiner.registry import ALGEBRA_NAMES, INSTANCE_NAMES, algebra, resolve_instance
from entwiner.report import PreconditionError
from entwiner.suite import rollup
from entwiner.yangbaxter import (
    TypeIISystem,
    WXZSystem,
    check_braided_algebra,
    check_braided_morphism,
    check_extension_morphism,
    check_measuring_commutator,
    check_qybe,
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
    trivial_extension,
    type2_component,
)
from reference import (
    comm_twist_rows,
    eager_yb_operator,
    embed13_chain,
    mult_twist_rows,
    plain_rows,
    rmatrix_rows,
    trivial_extension_rows,
    type2_rows,
)

V = space("v0", "v1")
VV = tensor(V, V)


def random_endo(rng):
    rows = tuple(tuple(rng.randrange(-2, 3) for _ in range(4)) for _ in range(4))
    return LinearMap(QQ, VV, VV, rows)


def test_braid_iff_qybe_on_random_operators():
    # verdicts of the braid equation for phi and of the QYBE for phi o tau and
    # tau o phi must agree on arbitrary maps, passing or not
    rng = random.Random(2024)
    tau = twist(QQ, V, V)
    seen_pass = seen_fail = 0
    for _ in range(50):
        phi = random_endo(rng)
        braid = check_yb_operator(phi).check("braid").passed
        right = check_qybe(compose(phi, tau)).check("qybe").passed
        left = check_qybe(compose(tau, phi)).check("qybe").passed
        assert braid == right == left
        seen_pass += braid
        seen_fail += not braid
    assert seen_fail  # random maps overwhelmingly fail
    tau_check = check_yb_operator(tau)
    assert tau_check.passed, tau_check.render()
    seen_pass += 1


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_constructed_braidings_are_yb_operators(name):
    a = algebra(name, QQ)
    psi = make_braiding(a)
    rep = check_yb_operator(psi)
    assert rep.passed, rep.render()
    # psi is an involution
    assert check_map_identity("self-inverse", [psi, psi], identity(QQ, psi.domain)).passed


def test_twist_families_are_yb_operators():
    a = algebra("Kx3", QQ)
    for q in (QQ.one, -QQ.one, QQ.from_int(2), QQ.parse("1/2")):
        rep = check_yb_operator(mult_twist(a, q))
        assert rep.passed, rep.render()
    for q in (QQ.zero, QQ.one, QQ.from_int(2)):
        rep = check_yb_operator(comm_twist(a, q))
        assert rep.passed, rep.render()
    # q = 0 degenerates the multiplication twist to a non-invertible map
    gamma0 = mult_twist(a, QQ.zero)
    assert not is_invertible(gamma0)
    assert not check_yb_operator(gamma0).passed


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_rmatrix_commutator_vanishes(name):
    a = algebra(name, QQ)
    grid = (QQ.zero, QQ.one, -QQ.one, QQ.from_int(2))
    for r in grid:
        for s in grid:
            w = make_algebra_rmatrix(a, r, s)
            c = commutator_check("www", w, w, w)
            assert c.passed, f"{name} r={r} s={s}: {c.witness}"


def yb_commutator(r, s, t):
    """The exact difference r12 s13 t23 - t23 s13 r12, built from raw Kronecker legs."""
    idv = identity(QQ, V)
    r12 = kron(r, idv)
    s13 = materialize(embed13_chain(s, V))
    t23 = kron(idv, t)
    return compose(r12, compose(s13, t23)) - compose(t23, compose(s13, r12))


def test_yb_commutator_matches_definition():
    # commutator_check's verdict, witness and residual are the first nonzero
    # column of [R, S, T] = R12 S13 T23 - T23 S13 R12
    rng = random.Random(77)
    tau = twist(QQ, V, V)
    cases = [(tau, tau, tau)] + [
        (random_endo(rng), random_endo(rng), random_endo(rng)) for _ in range(6)
    ]
    vvv = tensor(V, V, V)
    for r, s, t in cases:
        diff = yb_commutator(r, s, t)
        got = commutator_check("c", r, s, t)
        bad = [j for j in range(vvv.dim) if any(row[j] for row in diff.rows)]
        assert got.passed == (not bad)
        if bad:
            assert got.witness == vvv.basis_tuple(bad[0])
            assert got.residual == tuple(QQ.render(row[bad[0]]) for row in diff.rows)
    assert commutator_check("c", tau, tau, tau).passed


@pytest.mark.parametrize(
    "expr", ("mult_twist@Kx2-1,q=1", "corrupt:module@Kx3", "comm_twist@M2,q=1")
)
def test_system_iff_semi(expr):
    e = resolve_instance(expr, QQ)
    for r, s in ((QQ.one, QQ.one), (QQ.one, QQ.zero), (QQ.from_int(2), -QQ.one)):
        rep = semi_system_equivalence(e.algebra, e.left_space, e.psi, r, s)
        assert rep.check("system-iff-semi").passed, rep.render()


@pytest.mark.parametrize("expr", ("quad@p=1,q=2", "comm_twist@M2,q=1"))
def test_system_iff_factorization(expr):
    e = resolve_instance(expr, QQ)
    one, two = QQ.one, QQ.from_int(2)
    rep = semi_system_equivalence(e.algebra, e.left_algebra, e.psi, one, one, two, one)
    assert rep.check("system-iff-factorization").passed, rep.render()


def test_system_equivalence_precondition():
    a = algebra("Kx2-1", QQ)
    bad = LinearMap(QQ, tensor(a.space, a.space), tensor(a.space, a.space),
                    tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    with pytest.raises(PreconditionError):
        semi_system_equivalence(a, a.space, bad, QQ.one, QQ.one)


@pytest.mark.parametrize("name", ("K", "Kx2-0", "Kx2-1", "Kx3", "KZ2", "Kmono"))
def test_type2_families_on_commutative_algebras(name):
    a = algebra(name, QQ)
    for lam, lam2 in ((QQ.one, QQ.one), (QQ.from_int(2), QQ.from_int(3)), (QQ.zero, QQ.from_int(5))):
        ts = make_type2_family(a, lam, lam2)
        rep = check_type2(ts)
        assert rep.passed, rep.render()


def test_type2_noncommutative_guard():
    m2 = algebra("M2", QQ)
    assert not is_commutative(m2)
    with pytest.raises(PreconditionError):
        make_type2_family(m2, QQ.one, QQ.one)
    # the weaker type I claim survives noncommutativity: with lam = lam' = 1 the
    # family's components (W, X, Z) = (a, b, d) are one map
    c = type2_component(m2, QQ.one)
    rep = check_wxz(c, c, c)
    assert rep.passed, rep.render()


def test_paired_system_from_semi():
    a = algebra("Kx2-1", QQ)
    psi = mult_twist(a, QQ.one)
    tau = twist(QQ, a.space, a.space)
    conj = materialize([tau, psi, tau])
    assert verify(EntwiningData(kind="semi", psi=psi, algebra=a)).passed
    assert verify(EntwiningData(kind="semi", psi=conj, algebra=a)).passed
    one = QQ.one
    ts = make_type2_from_semi(a, psi, one, one, one, one)
    rep = check_type2(ts)
    assert rep.passed, rep.render()


@pytest.mark.parametrize(
    "expr",
    (
        "mult_twist@Kx2-1,q=1",
        "comm_twist@M2,q=1",
        "module@Kx3",
        "quad@p=1,q=2",
    ),
)
def test_twist_conjugation_agreement(expr):
    e = resolve_instance(expr, QQ)
    rep = check_twist_conjugation(e.algebra, e.psi)
    assert rep.check("agreement").passed, rep.render()


def test_twist_conjugation_requires_semi_input():
    e = resolve_instance("corrupt:mult_twist@M2,q=1", QQ)
    with pytest.raises(PreconditionError):
        check_twist_conjugation(e.algebra, e.psi)


@pytest.mark.parametrize("name", ("Kx2-1", "Kx3", "M2"))
def test_measuring_commutator_vanishes(name):
    a = algebra(name, QQ)
    mm = MeasuredModule(
        "semi-entwined-module", a.space, a.space, measuring=a.mult, act=a.mult
    )
    e = resolve_instance(f"mult_twist@{name},q=1", QQ)
    for z in (a.unit, tuple(QQ.one if i == 1 else QQ.zero for i in range(a.space.dim))):
        rep = check_measuring_commutator(e, mm, z)
        assert rep.passed, rep.render()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_braided_algebra_on_builtin_braiding(name):
    a = algebra(name, QQ)
    rep = check_braided_algebra(a, make_braiding(a))
    assert rep.passed, rep.render()
    rc = check_r_commutative(a, make_braiding(a))
    assert rc.passed, rc.render()


def test_flip_braiding_and_commutativity():
    m2 = algebra("M2", QQ)
    tau = twist(QQ, m2.space, m2.space)
    assert check_braided_algebra(m2, tau).passed
    rc = check_r_commutative(m2, tau)
    assert not rc.passed
    assert rc.failures()[0].witness is not None
    kx = algebra("Kx2-1", QQ)
    assert check_r_commutative(kx, twist(QQ, kx.space, kx.space)).passed
    assert is_commutative(kx) and not is_commutative(m2)


def test_braided_morphism_to_ground_field():
    a = algebra("Kx2-1", QQ)
    k = algebra("K", QQ)
    f = LinearMap(QQ, a.space, k.space, ((1, 1),))  # 1 -> 1, x -> 1
    rep = check_braided_morphism(f, a, make_braiding(a), k, make_braiding(k))
    assert rep.passed, rep.render()
    g = LinearMap(QQ, a.space, k.space, ((1, 2),))
    assert not check_braided_morphism(g, a, make_braiding(a), k, make_braiding(k)).passed


def test_extension_morphism():
    a = algebra("Kx3", QQ)
    z, o = QQ.zero, QQ.one
    delta = LinearMap(QQ, a.space, a.space, ((z, z, z), (z, z, z), (z, o, z)))
    rep = check_extension_morphism(a, delta)
    assert rep.passed, rep.render()
    ext = trivial_extension(a)
    assert ext.space.dim == 2 * a.space.dim
    bad = LinearMap(QQ, a.space, a.space, ((z, o, z), (z, z, z), (z, z, z)))
    with pytest.raises(PreconditionError):
        check_extension_morphism(a, bad)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("name", ("Kx3", "M2", "KZ2"))
def test_trivial_extension_matches_its_basis_formula(field, name):
    a = algebra(name, field)
    ext = trivial_extension(a)
    assert plain_rows(field, ext.mult.rows) == plain_rows(field, trivial_extension_rows(a))
    assert ext.unit == (*a.unit, *(field.zero,) * a.space.dim)
    assert ext.space.labels == (*(f"A.{x}" for x in a.space.labels), *(f"D.{x}" for x in a.space.labels))


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_extension_morphism_for_an_inner_derivation(field):
    # delta = [x, -] on M2 with delta(a) delta(b) != 0, so only a -> a (+) delta(a),
    # not a -> a + delta(a) inside A, is a morphism into the extension
    a = algebra("M2", field)
    x = (field.zero, field.one, field.one, field.zero)
    left = a.mult * insert_left(field, x, a.space, a.space)
    right = a.mult * insert_right(field, a.space, x, a.space)
    rep = check_extension_morphism(a, left - right)
    assert rep.passed, rep.render()


def test_wxz_and_type2_dataclasses_validate():
    a = algebra("Kx2-1", QQ)
    w = make_algebra_rmatrix(a, QQ.one, QQ.one)
    s = WXZSystem(w, w, w)
    assert isinstance(check_wxz(s.w, s.x, s.z).passed, bool)
    t = TypeIISystem(w, w, w, w)
    assert isinstance(check_type2(t).passed, bool)
    from entwiner.linalg import ShapeError

    v3 = space("u0", "u1", "u2")
    with pytest.raises(ShapeError):
        WXZSystem(w, w, identity(QQ, tensor(v3, v3)))


# ---------------------------------------------------------------------------
# the derived maps against their index formulas

FIELDS = (QQ, PrimeField(7))
SCALARS = ("0", "1", "-1", "2", "1/2")


def assert_one_pass_map(field, m, want):
    assert plain_rows(field, m.rows) == plain_rows(field, want)
    # its sparse columns are its rows': no zero kept, every entry reduced
    assert m._cols == LinearMap(field, m.domain, m.codomain, m.rows)._cols
    assert all(type(x) in field.types for row in m.rows for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=("q", "fp7"))
@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_twist_builders_match_their_index_formulas(field, name):
    a = algebra(name, field)
    for qs in SCALARS:
        q = field.parse(qs)
        assert_one_pass_map(field, mult_twist(a, q), mult_twist_rows(a, q))
        assert_one_pass_map(field, comm_twist(a, q), comm_twist_rows(a, q))
        assert_one_pass_map(field, type2_component(a, q), type2_rows(a, q))
        for ss in SCALARS:
            s = field.parse(ss)
            assert_one_pass_map(field, make_algebra_rmatrix(a, q, s), rmatrix_rows(a, q, s))


@pytest.mark.parametrize("field", FIELDS, ids=("q", "fp7"))
def test_degenerate_coefficients_give_maps_of_the_full_shape(field):
    a = algebra("M2", field)
    sq = tensor(a.space, a.space)
    zero = field.zero
    rmat = make_algebra_rmatrix(a, zero, zero)
    assert (rmat.domain, rmat.codomain) == (sq, sq)
    assert not any(any(row) for row in rmat.rows) and rmat._cols == ((),) * sq.dim
    if field != QQ:
        # an int coefficient that vanishes mod p is a zero coefficient
        assert mult_twist(a, 7).rows == mult_twist(a, zero).rows
    assert plain_rows(field, type2_component(a, zero).rows) == plain_rows(field, type2_rows(a, 0))


@pytest.mark.parametrize("field", FIELDS, ids=("q", "fp7"))
@pytest.mark.parametrize("name", ("K", "Kx2-0", "Kx2-1", "Kx3", "KZ2", "Kmono"))
def test_comm_twist_on_a_commutative_algebra_cancels_to_the_flip(field, name):
    a = algebra(name, field)
    tw = twist(field, a.space, a.space)
    for qs in SCALARS:
        m = comm_twist(a, field.parse(qs))
        assert m.rows == tw.rows
        assert m._cols == tw._cols


# ---------------------------------------------------------------------------
# yb-operator: cross-checks computed only when read


@pytest.fixture
def yb_calls(monkeypatch):
    """Counts of what check_yb_operator computes beyond the braid law."""
    from entwiner import yangbaxter

    counts = {"commutator_check": 0, "is_invertible": 0, "materialize": 0}

    def counting(name):
        real = getattr(yangbaxter, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(yangbaxter, name, wrapper)

    for name in counts:
        counting(name)
    return counts


def test_verify_braid_computes_the_braid_law_alone(capsys, yb_calls):
    assert main(["verify", "--check", "braid", "mult_twist@M2,q=1"]) == 0
    assert "[PASS] braid" in capsys.readouterr().out
    assert yb_calls == {"commutator_check": 0, "is_invertible": 0, "materialize": 0}
    assert main(["verify", "--check", "yb-operator", "mult_twist@M2,q=1"]) == 0
    capsys.readouterr()
    # the wrappers do see the cross-checks when they are read
    assert yb_calls == {"commutator_check": 2, "is_invertible": 1, "materialize": 2}


def test_a_rollup_stops_at_a_failing_braid(yb_calls):
    phi = random_endo(random.Random(0))
    rep = check_yb_operator(phi)
    assert rollup("yb", rep).witness[0] == "braid"
    assert yb_calls == {"commutator_check": 0, "is_invertible": 0, "materialize": 0}
    assert rep.render() == eager_yb_operator(phi).render()


@pytest.mark.parametrize("expr", [form + name for name in INSTANCE_NAMES for form in ("", "dual:")])
def test_yb_operator_output_is_the_eager_reports(capsys, expr):
    try:
        obj = resolve_instance(expr, QQ)
        phi = obj.psi if isinstance(obj, EntwiningData) else obj
        want = eager_yb_operator(phi)
    except (ShapeError, FieldError, PreconditionError):
        want = None
    for extra, text in (([], lambda r: r.render()), (["--json"], lambda r: r.to_json())):
        code = main(["verify", "--check", "yb-operator", *extra, expr])
        out = capsys.readouterr().out
        if want is None:
            assert code == 2
        else:
            assert (code, out) == (0 if want.passed else 1, text(want))
