"""Tensor bookkeeping: spaces, Kronecker products, chains, identity checks."""

import itertools
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwiner.fields import QQ, FieldError, PrimeField
from entwiner.linalg import (
    MAX_BLOCK,
    Composite,
    KronApply,
    LinearMap,
    ShapeError,
    Space,
    chain_apply_basis,
    check_law,
    check_map_identity,
    combine,
    compose,
    contract_left,
    contract_right,
    direct_sum,
    dual_space,
    from_columns,
    from_entries,
    identity,
    insert_left,
    insert_right,
    is_invertible,
    kron,
    law_chains,
    lazy_kron,
    materialize,
    space,
    tensor,
    tensor_vec,
    twist,
    wire,
    zero_map,
)
from entwiner.linalg import _schedule
from entwiner.report import IdentityCheck, Report
from reference import embed13_chain, first_failing_column, full_rank

V2 = space("a0", "a1")
V3 = space("b0", "b1", "b2")
W2 = space("c0", "c1")
W3 = space("d0", "d1", "d2")


def dense(rng, dom, cod, lo=-2, hi=3):
    rows = tuple(
        tuple(rng.randrange(lo, hi) for _ in range(dom.dim)) for _ in range(cod.dim)
    )
    return LinearMap(QQ, dom, cod, rows)


def test_space_is_atomic_or_tensor():
    assert space("x").dim == 1
    assert V3.dims == (3,)
    with pytest.raises(ShapeError, match="not both"):
        Space()
    with pytest.raises(ShapeError, match="not both"):
        Space(labels=("x",), factors=(V2,))


@pytest.mark.parametrize(
    "make",
    (
        lambda s: replace(s),
        lambda s: pickle.loads(pickle.dumps(s)),
        lambda s: Space(labels=s.labels, factors=s.factors),
    ),
    ids=("replace", "pickle", "rebuilt"),
)
@pytest.mark.parametrize(
    "s, dim, dims",
    (
        (V3, 3, (3,)),
        (tensor(V2, V3, W2), 12, (2, 3, 2)),
        (dual_space(tensor(V2, W3)), 6, (2, 3)),
    ),
    ids=("atomic", "tensor", "dual-tensor"),
)
def test_space_sizes_are_set_at_construction_and_survive_copies(make, s, dim, dims):
    # dim and dims are plain attributes set when the space is built; equality
    # and hashing see only labels and factors, so memo keys still hit
    assert (s.dim, s.dims) == (dim, dims)
    t = make(s)
    assert t is not s
    assert (t.dim, t.dims) == (dim, dims)
    assert t == s and hash(t) == hash(s)
    assert vars(t) == vars(s)
    assert identity(QQ, t) is identity(QQ, s)
    assert twist(QQ, t, V2) is twist(QQ, s, V2)


def test_space_sizes_are_not_fields():
    assert [f.name for f in fields(Space)] == ["labels", "factors"]
    assert "dim" not in repr(V3) and "dims" not in repr(tensor(V2, V3))
    with pytest.raises(FrozenInstanceError):
        V3.dim = 4


def test_tensor_flattens():
    t = tensor(tensor(V2, V3), W2)
    assert t == tensor(V2, V3, W2)
    assert t.dim == 12
    assert t.dims == (2, 3, 2)
    assert tensor(V2) == V2


def test_row_major_basis_tuples():
    t = tensor(V2, V3)
    assert t.basis_tuple(0) == ("a0", "b0")
    assert t.basis_tuple(1) == ("a0", "b1")
    assert t.basis_tuple(3) == ("a1", "b0")
    assert t.label(3) == "(a1)(b0)"


def test_triple_index_roundtrip():
    # flattening a triple basis index (i, j, k) is row-major and invertible
    dims = (2, 3, 4)
    spaces = tuple(space(*(f"e{n}{i}" for i in range(d))) for n, d in enumerate(dims))
    t = tensor(*spaces)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                flat = (i * dims[1] + j) * dims[2] + k
                vec = tensor_vec(
                    tensor_vec(basis_vec(dims[0], i), basis_vec(dims[1], j)),
                    basis_vec(dims[2], k),
                )
                assert vec == basis_vec(t.dim, flat)
                assert t.basis_tuple(flat) == (f"e0{i}", f"e1{j}", f"e2{k}")


def basis_vec(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def test_tensor_vec_matches_nesting():
    v = (1, 2)
    w = (3, 0, 5)
    assert tensor_vec(v, w) == (3, 0, 5, 6, 0, 10)
    u = (7,)
    assert tensor_vec(u, tensor_vec(v, w)) == tensor_vec(tensor_vec(u, v), w)


def test_kron_matches_definition():
    rng = random.Random(11)
    for v, vp, w, wp in ((V2, V3, W2, W3), (V3, V2, W3, W2), (V2, V2, W3, W3)):
        f = dense(rng, v, vp)
        g = dense(rng, w, wp)
        k = kron(f, g)
        assert k.domain == tensor(v, w)
        assert k.codomain == tensor(vp, wp)
        for i in range(vp.dim):
            for j in range(v.dim):
                for m in range(wp.dim):
                    for l in range(w.dim):
                        assert (
                            k.rows[i * wp.dim + m][j * w.dim + l]
                            == f.rows[i][j] * g.rows[m][l]
                        )


def test_kron_mixed_product_law():
    rng = random.Random(23)
    for _ in range(10):
        f1 = dense(rng, V2, V3)
        f2 = dense(rng, V3, V2)
        g1 = dense(rng, W2, W3)
        g2 = dense(rng, W3, W2)
        lhs = kron(compose(f1, f2), compose(g1, g2))
        rhs = compose(kron(f1, g1), kron(f2, g2))
        assert lhs.rows == rhs.rows


def test_compose_is_right_to_left():
    g = LinearMap(QQ, V2, V2, ((0, 0), (1, 0)))  # e0 -> e1, e1 -> 0
    f = LinearMap(QQ, V2, V2, ((0, 0), (0, 1)))  # e1 -> e1, e0 -> 0
    fg = compose(f, g)
    assert fg.rows == ((0, 0), (1, 0))  # e0 -> e1, e1 -> 0
    with pytest.raises(ShapeError):
        compose(dense(random.Random(1), V2, V3), dense(random.Random(1), V2, V3))


def test_compose_associativity():
    rng = random.Random(37)
    for _ in range(10):
        f = dense(rng, V3, W2)
        g = dense(rng, V2, V3)
        h = dense(rng, W3, V2)
        assert compose(compose(f, g), h).rows == compose(f, compose(g, h)).rows


def test_twist_literal_2x2():
    tau = twist(QQ, V2, W2)
    assert tau.rows == (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )


def test_twist_permutes_basis():
    tau = twist(QQ, V2, V3)
    for i in range(2):
        for j in range(3):
            col = [row[i * 3 + j] for row in tau.rows]
            assert col == list(basis_vec(6, j * 2 + i))
    assert compose(twist(QQ, V3, V2), tau).rows == identity(QQ, tensor(V2, V3)).rows


def test_twist_naturality():
    rng = random.Random(41)
    for _ in range(8):
        f = dense(rng, V2, V3)
        g = dense(rng, W2, W3)
        lhs = compose(kron(g, f), twist(QQ, V2, W2))
        rhs = compose(twist(QQ, V3, W3), kron(f, g))
        assert lhs.rows == rhs.rows


def test_embed13_matches_definition():
    rng = random.Random(53)
    s = dense(rng, tensor(V2, W2), tensor(V2, W2))
    mid = V3
    e = materialize(embed13_chain(s, mid))
    dv, dm, dw = 2, 3, 2
    for i in range(dv):
        for m in range(dm):
            for k in range(dw):
                for j in range(dv):
                    for mm in range(dm):
                        for l in range(dw):
                            got = e.rows[(i * dm + m) * dw + k][(j * dm + mm) * dw + l]
                            want = s.rows[i * dw + k][j * dw + l] if m == mm else 0
                            assert got == want


def wired_s13(s, mid):
    """S13 on V1 (x) mid (x) V3 as `TRIPLE_LAW` writes it, (U' (x) τ′)(S (x) V)(U (x) τ),
    through `law_chains`: S : V1 (x) V3 -> W1 (x) W3, τ : mid (x) V3 -> V3 (x) mid and
    τ′ : W3 (x) mid -> mid (x) W3, U (x) τ and U' (x) τ′ each bound as one wire."""
    from entwiner.yangbaxter import S13

    (v1, v3), (w1, w3) = s.domain.factors, s.codomain.factors
    field = s.field
    maps = {"S": s, "V": identity(field, mid)}
    maps[("U", "τ")] = wire(field, (v1, mid, v3), (0, 2, 1))
    maps[("U", "τ′")] = wire(field, (w1, w3, mid), (0, 2, 1))
    chain, _ = law_chains(("s13", S13, S13), maps)
    return chain


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_the_wired_s13_equals_the_conjugated_chain_and_its_index_formula(field):
    # V1, V2, V3 of dims 2, 3, 4 (and V2 a tensor of two), so every block
    # `materialize` streams after the first is wider than one column
    rng = random.Random(59)
    v1, v3 = V2, space("e0", "e1", "e2", "e3")

    def random_map(dom, cod):
        rows = tuple(tuple(field.from_int(rng.randrange(-2, 3)) for _ in range(dom.dim)) for _ in range(cod.dim))
        return LinearMap(field, dom, cod, rows)

    def assert_index_formula(e, s, n2):
        # S13[(u', v', w'), (u, v, w)] = S[(u', w'), (u, w)] * δ(v', v)
        (n1, n3), (m1, m3) = s.domain.dims, s.codomain.dims
        got = materialize(e).rows
        for u_, v_, w_, u, v, w in itertools.product(range(m1), range(n2), range(m3), range(n1), range(n2), range(n3)):
            want = s.rows[u_ * m3 + w_][u * n3 + w] if v_ == v else field.zero
            assert got[(u_ * n2 + v_) * m3 + w_][(u * n2 + v) * n3 + w] == want

    for mid in (V3, tensor(W2, V2)):
        for _ in range(3):
            s = random_map(tensor(v1, v3), tensor(v1, v3))
            e = wired_s13(s, mid)
            # the inner flip folds into S (x) V; the outer one stays a wire
            assert len(e) == 2 and all(isinstance(elt, KronApply) for elt in e) and e[0]._is_wire
            assert e[-1].domain_dims == e[0].codomain_dims == (2, *mid.dims, 4)
            got = materialize(e)
            assert got.domain == got.codomain == tensor(v1, mid, v3)
            assert got.rows == materialize(embed13_chain(s, mid)).rows
            assert_index_formula(e, s, mid.dim)
            t = random_map(tensor(v1, mid, v3), tensor(v1, mid, v3))
            assert materialize([t, *e, t]).rows == compose(t, compose(got, t)).rows
    # S : V1 (x) V3 -> W3 (x) W2, the codomain's legs of other dims
    s = random_map(tensor(v1, v3), tensor(W3, W2))
    e = wired_s13(s, V3)
    assert (e[-1].domain_dims, e[0].codomain_dims) == ((2, 3, 4), (3, 3, 2))
    assert materialize(e).codomain == tensor(W3, V3, W2)
    assert_index_formula(e, s, V3.dim)
    # the commutator takes S13 from an endomorphism of a two-factor space only
    from entwiner.yangbaxter import commutator_check

    r = random_map(tensor(v1, V3), tensor(v1, V3))
    t = random_map(tensor(V3, v3), tensor(V3, v3))
    with pytest.raises(ShapeError, match="two-factor"):
        commutator_check("c", r, random_map(v3, tensor(v1, v1)), t)


def test_lazy_kron_matches_dense_kron():
    rng = random.Random(67)
    f = dense(rng, V2, V3)
    g = dense(rng, W3, W2)
    assert materialize([lazy_kron(f, g)]).rows == ref_kron(f.rows, g.rows)
    h = dense(rng, tensor(V3, W2), V2)
    assert materialize([h, lazy_kron(f, g)]).rows == ref_mul(h.rows, ref_kron(f.rows, g.rows))


def test_identity_and_zero():
    assert identity(QQ, V3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert zero_map(QQ, V2, V3).rows == ((0, 0), (0, 0), (0, 0))
    assert is_invertible(identity(QQ, V3))
    assert not is_invertible(zero_map(QQ, V2, V2))
    assert is_invertible(twist(QQ, V2, V3))
    assert not is_invertible(LinearMap(QQ, V2, V2, ((1, 1), (1, 1))))


SCALARS = st.sampled_from(("0", "0", "1", "-1", "2", "3", "7", "1/2", "-3/2", "2/3", "14/5"))


@given(st.data())
def test_is_invertible_matches_fraction_elimination(data):
    n = data.draw(st.integers(1, 4))
    v = space(*(f"v{i}" for i in range(n)))
    rows = [[data.draw(SCALARS) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        # rank-deficient: a row that is a combination of two others
        a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        x, y = (Fraction(data.draw(SCALARS)) for _ in range(2))
        rows[a] = [str(x * Fraction(p) + y * Fraction(q)) for p, q in zip(rows[b], rows[c])]
    for field in (QQ, F7):
        m = LinearMap(field, v, v, tuple(tuple(map(field.parse, r)) for r in rows))
        assert is_invertible(m) == full_rank(field, m.rows), (field, rows)


def test_is_invertible_reads_the_determinant_in_the_field():
    # det [[2, 3], [3, 1]] = -7: invertible over Q, singular over F_7, and
    # over F_7 no pivot but the last vanishes
    for field, want in ((QQ, True), (F7, False), (PrimeField(5), True)):
        m = LinearMap(field, V2, V2, tuple(tuple(map(field.from_int, r)) for r in ((2, 3), (3, 1))))
        assert is_invertible(m) is want
    # the first row halved: det -7/2, the verdicts kept
    halved = (("1", "3/2"), ("3", "1"))
    for field, want in ((QQ, True), (F7, False)):
        m = LinearMap(field, V2, V2, tuple(tuple(map(field.parse, r)) for r in halved))
        assert is_invertible(m) is want
    with pytest.raises(ShapeError, match="square"):
        is_invertible(LinearMap(QQ, V2, V3, ((1, 0), (0, 1), (0, 0))))


def test_from_columns():
    f = from_columns(QQ, V2, V3, ((1, 2, 3), (0, 1, 0)))
    assert f.rows == ((1, 0), (2, 1), (3, 0))


def test_insert_and_contract():
    wv = (3, 5)
    ins = insert_left(QQ, wv, W2, V3)
    for j in range(3):
        col = [row[j] for row in ins.rows]
        assert col == list(tensor_vec(wv, basis_vec(3, j)))
    ins_r = insert_right(QQ, V3, wv, W2)
    for j in range(3):
        col = [row[j] for row in ins_r.rows]
        assert col == list(tensor_vec(basis_vec(3, j), wv))
    phi = (1, -2)
    cl = contract_left(QQ, phi, W2, V3)
    assert compose(cl, ins).rows == tuple(
        tuple((1 * 3 - 2 * 5) * x for x in row)
        for row in identity(QQ, V3).rows
    )
    cr = contract_right(QQ, V3, phi, W2)
    assert compose(cr, ins_r).rows == compose(cl, ins).rows


def test_check_map_identity_passes():
    c = check_map_identity("tau-involution", [twist(QQ, W2, V2), twist(QQ, V2, W2)], identity(QQ, tensor(V2, W2)))
    assert c.passed
    assert c.witness is None


def test_check_map_identity_witness_is_first_failing_column():
    rhs = identity(QQ, tensor(V2, V3))
    bad = LinearMap(
        QQ,
        rhs.domain,
        rhs.codomain,
        tuple(
            tuple(v + (1 if (i, j) == (0, 4) else 0) for j, v in enumerate(row))
            for i, row in enumerate(rhs.rows)
        ),
    )
    c = check_map_identity("bumped", bad, rhs)
    assert not c.passed
    assert c.witness == ("a1", "b1")  # column 4 = e_{a1} (x) e_{b1}
    assert c.residual[0] == "1"
    assert all(r == "0" for r in c.residual[1:])


def test_check_map_identity_shape_errors():
    with pytest.raises(ShapeError):
        check_map_identity("bad", identity(QQ, V2), identity(QQ, V3))


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def maps_2x2(draw):
    rows = tuple(tuple(draw(small_entries) for _ in range(2)) for _ in range(2))
    return LinearMap(QQ, V2, V2, rows)


@given(maps_2x2(), maps_2x2(), maps_2x2(), maps_2x2())
def test_kron_bilinear_in_each_leg(f1, f2, g1, g2):
    add = lambda p, q: LinearMap(
        QQ, p.domain, p.codomain,
        tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(p.rows, q.rows)),
    )
    assert kron(add(f1, f2), g1).rows == add(kron(f1, g1), kron(f2, g1)).rows
    assert kron(f1, add(g1, g2)).rows == add(kron(f1, g1), kron(f1, g2)).rows


# ---------------------------------------------------------------------------
# Naive reference oracle: every product from its index formula, dense, with
# no sparsity and no dicts, in plain ints and Fractions.  Over F_p it turns the
# entries into plain ints and reduces mod p once, at the end.  The kernels are
# checked against it.

F7 = PrimeField(7)


def ref_kron(a, b):
    # (a (x) b)[i1*m + i2][j1*n + j2] = a[i1][j1] * b[i2][j2]
    m, n = len(b), len(b[0])
    return tuple(
        tuple(a[i // m][j // n] * b[i % m][j % n] for j in range(len(a[0]) * n))
        for i in range(len(a) * m)
    )


def ref_mul(a, b):
    # (a b)[i][j] = sum_k a[i][k] * b[k][j]
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def ints(field, rows):
    return rows if field == QQ else tuple(tuple(map(int, row)) for row in rows)


def ref_reduce(field, rows):
    return rows if field == QQ else tuple(tuple(x % field.p for x in row) for row in rows)


def ref_placement(dims, inputs):
    """Rows of the map that moves the factor at domain position inputs[q] (dims
    the domain's factor dims) to position q: e_(j_0) (x) ... -> e_(j_inputs[0]) (x) ..."""
    n = prod(dims)
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        digits = [j // prod(dims[p + 1 :]) % dims[p] for p in range(len(dims))]
        i = 0
        for p in inputs:
            i = i * dims[p] + digits[p]
        rows[i][j] = 1
    return tuple(map(tuple, rows))


def ref_chain(field, chain):
    """Rows of the composite of a chain, outermost element first; a `KronApply`
    is the Kronecker product of its legs after its placement of their factors."""
    product = None
    for elt in chain:
        rows = ((1,),)
        for leg in getattr(elt, "legs", (elt,)):
            rows = ref_kron(rows, ints(field, leg.rows))
        if getattr(elt, "_inputs", None) is not None:
            rows = ref_mul(rows, ref_placement(elt.domain_dims, elt._inputs))
        product = rows if product is None else ref_mul(product, rows)
    return ref_reduce(field, product)


def ref_check(name, field, lhs, rhs):
    a, b = ref_chain(field, lhs), ref_chain(field, rhs)
    for j in range(len(a[0])):
        if any(a[i][j] != b[i][j] for i in range(len(a))):
            residual = tuple(field.render(a[i][j] - b[i][j]) for i in range(len(a)))
            return IdentityCheck(name, False, lhs[-1].domain.basis_tuple(j), residual)
    return IdentityCheck(name, True)


def mod7(rows):
    """Q rows mapped to F_7; every denominator the strategies draw is prime to 7."""
    return tuple(
        tuple(Fraction(x).numerator * pow(Fraction(x).denominator, -1, 7) % 7 for x in row)
        for row in rows
    )


def in_field(field, rows):
    # over F_p every entry is an element of the field, never a bare int
    return field == QQ or all(
        type(x) is field.elem and 0 <= x < field.p for row in rows for x in row
    )


def plain_column(field, col):
    # a column of a chain holds no zeros, and ints only: numerators over the
    # chain's denominator; over F_p, reduced into [1, p)
    if field == QQ:
        return all(type(x) is int and x for x in col.values())
    return all(type(x) is int and 0 < x < field.p for x in col.values())


ATOMS = (space("p0"), space("q0", "q1"), space("r0", "r1", "r2"))
ENTRIES = st.sampled_from(("0", "0", "0", "1", "-1", "2", "3", "1/2", "-3/2"))
FIELDS = st.sampled_from((QQ, F7))

# A chain element is drawn as a spec and built over each field from the same
# entry strings: ("id", V), ("twist", V, W), ("map", dom, cod, rows) or
# ("kron", leg specs).


def build(field, spec):
    kind = spec[0]
    if kind == "id":
        return identity(field, spec[1])
    if kind == "twist":
        return twist(field, spec[1], spec[2])
    if kind == "map":
        _, dom, cod, rows = spec
        return LinearMap(field, dom, cod, tuple(tuple(map(field.parse, r)) for r in rows))
    return lazy_kron(*(build(field, leg) for leg in spec[1]))


@st.composite
def map_specs(draw, dom=None, cod=None, entries=ENTRIES):
    dom = dom or tensor(*draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2)))
    cod = cod or tensor(*draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2)))
    rows = tuple(tuple(draw(entries) for _ in range(dom.dim)) for _ in range(cod.dim))
    return ("map", dom, cod, rows)


def maps(field, dom=None, cod=None):
    return map_specs(dom, cod).map(lambda spec: build(field, spec))


@st.composite
def chain_specs(draw, factors, entries=ENTRIES):
    """A chain on tensor(*factors), outermost first, of dense maps and lazy
    Kronecker products whose legs are identities, twists and dense maps.

    Identity legs are drawn twice as often as each other kind, and a whole
    product is all identities one time in four, so runs of adjacent identity
    legs, identity legs at either end and all-identity products all occur.
    """
    chain = []
    for _ in range(draw(st.integers(1, 3))):
        dom = tensor(*factors)
        if draw(st.booleans()):
            spec = draw(map_specs(dom, entries=entries))
            factors = spec[2].factors or (spec[2],)
        else:
            only_ids = draw(st.integers(0, 3)) == 0
            legs, out, i = [], [], 0
            while i < len(factors):
                kind = "id" if only_ids else draw(st.sampled_from(("id", "id", "map", "twist")))
                if kind == "twist" and i + 1 < len(factors):
                    legs.append(("twist", factors[i], factors[i + 1]))
                    out += [factors[i + 1], factors[i]]
                    i += 2
                    continue
                leg = ("id", factors[i])
                if kind != "id":
                    leg = draw(map_specs(factors[i], draw(st.sampled_from(ATOMS)), entries))
                legs.append(leg)
                out.append(leg[2] if leg[0] == "map" else factors[i])
                i += 1
            spec = ("kron", tuple(legs))
            factors = tuple(out)
        chain.append(spec)
    return chain[::-1]


def chains(field, factors):
    return chain_specs(factors).map(lambda specs: [build(field, s) for s in specs])


starts = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3).map(tuple)


@given(st.data())
def test_compose_kron_apply_match_the_oracle(data):
    f = data.draw(map_specs())
    g = data.draw(map_specs(cod=f[1]))
    h = data.draw(map_specs())
    vec = tuple(data.draw(ENTRIES) for _ in range(f[1].dim))
    results = {}
    for field in (QQ, F7):
        ff, gg, hh = (build(field, s) for s in (f, g, h))
        v = tuple(map(field.parse, vec))
        fr, gr, hr = (ints(field, m.rows) for m in (ff, gg, hh))
        want = ref_reduce(field, ref_mul(fr, tuple((x,) for x in ints(field, (v,))[0])))
        composed, kronned = ref_mul(fr, gr), ref_kron(fr, hr)
        assert compose(ff, gg).rows == (ff * gg).rows == ref_reduce(field, composed)
        assert kron(ff, hh).rows == (ff @ hh).rows == ref_reduce(field, kronned)
        assert ff.apply(v) == tuple(row[0] for row in want)
        results[field] = (compose(ff, gg).rows, kron(ff, hh).rows, (ff.apply(v),))
        for rows in results[field]:
            assert in_field(field, rows)
    assert results[F7] == tuple(mod7(rows) for rows in results[QQ])


@given(st.data())
def test_materialize_matches_the_oracle(data):
    specs = data.draw(chain_specs(data.draw(starts)))
    seed = data.draw(st.integers(0, 2**16))
    got = {}
    for field in (QQ, F7):
        chain = [build(field, s) for s in specs]
        m = materialize(chain)
        got[field] = m.rows
        assert got[field] == ref_chain(field, chain)
        assert in_field(field, got[field])
        assert_cols_are_its_rows(m)
        for j in range(chain[-1].domain.dim):
            assert plain_column(field, chain_apply_basis(chain, j, field))
        assert_composite_matches(chain, m, seed)
    assert got[F7] == mod7(got[QQ])


def assert_composite_matches(chain, m, seed):
    """A Composite of the chain, its columns read in a shuffled order, is m."""
    c = Composite(chain)
    order = list(range(m.domain.dim))
    random.Random(seed).shuffle(order)
    cols = {j: c._cols[j] for j in order}
    # the same columns, numerators over the chain's denominator and the map's
    assert c._den == prod(elt._den for elt in chain)
    assert tuple(tuple((r, x * m._den) for r, x in cols[j]) for j in range(len(cols))) == tuple(
        tuple((r, x * c._den) for r, x in col) for col in m._cols
    )
    assert tuple(map(tuple, c.rows)) == m.rows
    assert materialize(c).rows == m.rows
    assert (c.domain, c.codomain) == (m.domain, m.codomain)
    assert (c.domain_dims, c.codomain_dims) == (m.domain.dims, m.codomain.dims)
    # and a fresh one, read as a Kronecker leg, is the dense map there too
    idv = identity(m.field, V2)
    assert materialize([lazy_kron(idv, Composite(chain))]).rows == materialize([lazy_kron(idv, m)]).rows


IDENTITY_LAYOUTS = (
    ("id", "id", "map"),
    ("map", "id", "id"),
    ("id", "map", "id"),
    ("id", "id", "id"),
    ("id", "twist"),
    ("twist", "id"),
)


@pytest.mark.parametrize("layout", IDENTITY_LAYOUTS, ids="-".join)
@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_identity_legs_match_the_oracle(field, layout):
    rng = random.Random("-".join(layout))
    atoms = iter((V2, V3, W2, W3))
    legs = []
    for kind in layout:
        if kind == "id":
            legs.append(identity(field, next(atoms)))
        elif kind == "twist":
            legs.append(twist(field, next(atoms), next(atoms)))
        else:
            dom, cod = next(atoms), next(atoms)
            rows = tuple(
                tuple(field.from_int(rng.randrange(-3, 4)) for _ in range(dom.dim))
                for _ in range(cod.dim)
            )
            legs.append(LinearMap(field, dom, cod, rows))
    k = lazy_kron(*legs)
    got = materialize([k]).rows
    assert got == ref_chain(field, [k])
    assert in_field(field, got)


# ---------------------------------------------------------------------------
# blocks: columns lo..hi-1 streamed at once, column lo + c at slot c


def block_end(j, n):
    """End of the streamed block holding column j of n, as `_schedule` streams them."""
    return next(hi for lo, hi in _schedule(n) if lo <= j < hi)


def test_the_schedule_partitions_the_columns_into_blocks_that_grow_at_most_fourfold():
    assert _schedule(0) == ()
    for n in range(1, 2001):
        blocks = _schedule(n)
        assert [j for lo, hi in blocks for j in range(lo, hi)] == list(range(n)), n
        assert blocks[0] == (0, 1), n
        widths = [hi - lo for lo, hi in blocks]
        assert all(0 < w <= MAX_BLOCK for w in widths), n
        assert all(b <= 4 * a for a, b in zip(widths, widths[1:])), n


def assert_blocks_match_the_oracle(field, chain, spans):
    """Every block (lo, hi) of the chain, as a chain, as a dense map and as a
    Composite, is the oracle's columns lo + c at keys c*m + r, as numerators
    over that chain's denominator."""
    rows = ref_chain(field, chain)
    m = len(rows)
    dense_ = materialize(chain)
    for lo, hi in spans:
        want = {c * m + i: rows[i][lo + c] for c in range(hi - lo) for i in range(m) if rows[i][lo + c]}
        for as_chain in (chain, [dense_], [Composite(chain)]):
            got = chain_apply_basis(as_chain, lo, field, hi)
            den = prod(elt._den for elt in as_chain)
            assert got == {k: x * den for k, x in want.items()}, (lo, hi)
            assert plain_column(field, got)


@given(st.data())
def test_a_streamed_block_is_its_columns_at_slot_offsets(data):
    specs = data.draw(chain_specs(data.draw(starts)))
    n = build(QQ, specs[-1]).domain.dim
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    for field in (QQ, F7):
        assert_blocks_match_the_oracle(field, [build(field, s) for s in specs], [(lo, hi)])


BLOCK_LAYOUTS = (
    ("map",),
    ("map", "map"),
    ("id", "map"),
    ("map", "id"),
    ("id", "map", "id"),
    ("map", "id", "map"),
    ("id", "map", "id", "map"),
    ("id", "id"),
)


@pytest.mark.parametrize("layout", BLOCK_LAYOUTS, ids="-".join)
@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_kronecker_blocks_match_the_oracle_for_each_run_layout(field, layout):
    # 0, 1 and 2 identity runs, outermost, innermost or between 1 or 2 other legs
    rng = random.Random("block-" + "-".join(layout))
    atoms = iter((V3, V2, W3, W2, V2, W2, V3))

    def m(dom, cod):
        rows = tuple(
            tuple(field.from_int(rng.randrange(-3, 4)) for _ in range(dom.dim)) for _ in range(cod.dim)
        )
        return LinearMap(field, dom, cod, rows)

    legs = [identity(field, next(atoms)) if kind == "id" else m(next(atoms), next(atoms)) for kind in layout]
    k = lazy_kron(*legs)
    n = prod(k.domain_dims)
    spans = [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1) if rng.random() < 0.2]
    spans += [(lo, block_end(lo, n)) for lo in range(n)] + [(0, n)]
    assert_blocks_match_the_oracle(field, [k], spans)
    # under a dense layer: the slot of the Kronecker layer's output is the next input's
    assert_blocks_match_the_oracle(field, [m(k.codomain, V2), k], [(0, n), (1, n), (n - 1, n)])


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_a_failing_block_reports_its_first_failing_column(field):
    # 54 columns: blocks [0], [1, 4], [5, 20] and the partial [21, 53]
    rng = random.Random(18)

    def m(dom, cod):
        rows = tuple(
            tuple(field.from_int(rng.randrange(-2, 3)) for _ in range(dom.dim)) for _ in range(cod.dim)
        )
        return LinearMap(field, dom, cod, rows)

    chain = [
        lazy_kron(identity(field, V3), m(tensor(W3, V2), W2), identity(field, W3)),
        lazy_kron(m(V3, V3), twist(field, V2, W3), identity(field, W3)),
    ]
    dense_ = materialize(chain)
    assert dense_.domain.dim == 54
    for j in range(54):
        bumped = bumped_at(dense_, j)
        got = check_map_identity("law", chain, bumped)
        assert not got.passed
        assert (got.witness, got.residual) == first_failing_column(chain, bumped)
        assert got.witness == dense_.domain.basis_tuple(j)
    assert check_map_identity("law", chain, dense_).passed


# ---------------------------------------------------------------------------
# wires: a permutation of tensor factors laid out as strides, folded by
# `law_chains` into the layer just outside it


def ref_wire(spaces, order):
    """Rows of wire(field, spaces, order) from its index formula:
    e_(i_0) (x) ... (x) e_(i_(k-1)) -> e_(i_order[0]) (x) ... (x) e_(i_order[k-1])."""
    dims = [s.dim for s in spaces]
    n = prod(dims)
    rows = [[0] * n for _ in range(n)]
    for digits in itertools.product(*map(range, dims)):
        j = i = 0
        for k, d in enumerate(digits):
            j = j * dims[k] + d
        for k in order:
            i = i * dims[k] + digits[k]
        rows[i][j] = 1
    return tuple(map(tuple, rows))


@st.composite
def wires(draw):
    """(spaces, order): 1-4 atomic factors of dims 1-3 and a permutation of them."""
    spaces = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4))
    return spaces, tuple(draw(st.permutations(range(len(spaces)))))


def wire_spans(n):
    """Every block the schedule streams and the whole domain as one block."""
    return [(lo, block_end(lo, n)) for lo in range(n)] + [(0, n)]


def assert_wired_chain(field, chain, want):
    """The chain is the oracle's rows `want`, as a dense map and block by block."""
    assert materialize(chain).rows == ref_reduce(field, want) == ref_chain(field, chain)
    assert_blocks_match_the_oracle(field, chain, wire_spans(want and len(want[0])))


@given(wires(), FIELDS)
def test_a_wire_is_its_index_formula(w, field):
    spaces, order = w
    k = wire(field, spaces, order)
    assert isinstance(k, KronApply) and k._is_wire and all(leg._is_identity for leg in k.legs)
    assert k.domain == tensor(*spaces) and k.codomain == tensor(*(spaces[i] for i in order))
    assert (k.domain_dims, k.codomain_dims) == (k.domain.dims, k.codomain.dims)
    assert_wired_chain(field, [k], ref_wire(spaces, order))
    assert wire(field, spaces, order) is k


def leg_maps(draw, field, factors, entries):
    """A map leg or an identity on each factor; every map leg's codomain an atom.
    Over Q the entries hold halves, so a map leg may have `_den` 2."""
    legs, rows = [], ((1,),)
    for f in factors:
        if draw(st.booleans()):
            leg = build(field, draw(map_specs(f, draw(st.sampled_from(ATOMS)), entries)))
        else:
            leg = identity(field, f)
        legs.append(leg)
        rows = ref_kron(rows, ints(field, leg.rows))
    return legs, rows


@given(st.data())
def test_a_wire_inside_a_tuple_layer_is_its_index_formula(data):
    field = data.draw(FIELDS)
    spaces, order = data.draw(wires())
    left, lrows = leg_maps(data.draw, field, data.draw(st.lists(st.sampled_from(ATOMS), max_size=1)), ENTRIES)
    right, rrows = leg_maps(data.draw, field, data.draw(st.lists(st.sampled_from(ATOMS), max_size=1)), ENTRIES)
    k = lazy_kron(*left, wire(field, spaces, order), *right)
    assert k._is_wire == (left + right == [leg for leg in left + right if leg._is_identity])
    assert_wired_chain(field, [k], ref_kron(ref_kron(lrows, ref_wire(spaces, order)), rrows))


@given(st.data())
def test_a_wire_folds_into_the_layer_outside_it(data):
    field = data.draw(FIELDS)
    spaces, order = data.draw(wires())
    outer, orows = leg_maps(data.draw, field, [spaces[i] for i in order], ENTRIES)
    maps = {"τ": wire(field, spaces, order), "f": lazy_kron(*outer)}
    wrows = ref_wire(spaces, order)
    # the wire between two layers, and as the side's innermost layer
    inner = build(field, data.draw(map_specs(cod=tensor(*spaces), entries=ENTRIES)))
    maps["g"] = inner
    for side, want in ((["f", "τ", "g"], ref_mul(ref_mul(orows, wrows), ints(field, inner.rows))), (["f", "τ"], ref_mul(orows, wrows))):
        chain, again = law_chains(("fold", side, side), maps)
        assert len(chain) == len(side) - 1 and chain[0] is again[0]
        fused = chain[0]
        assert isinstance(fused, KronApply) and fused.legs == maps["f"].legs
        assert fused.codomain_dims == maps["f"].codomain_dims and fused.domain_dims == maps["τ"].domain_dims
        assert_wired_chain(field, chain, ref_reduce(field, want))
    # folded as the innermost layer, it keeps the wire's domain, labels and all
    assert fused.domain == maps["τ"].domain == tensor(*spaces)


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_a_wire_moves_the_outermost_factor_inward(field):
    # V2 is outermost in the domain and innermost in the codomain, so its
    # digit cannot ride on the slot of a block
    rng = random.Random(71)
    spaces, order = (V2, V3, W2), (1, 2, 0)
    k = wire(field, spaces, order)
    assert_wired_chain(field, [k], ref_wire(spaces, order))
    f = LinearMap(field, V3, W3, tuple(tuple(field.parse(rng.choice(("0", "1", "-1/2" if field == QQ else "3"))) for _ in range(3)) for _ in range(3)))
    maps = {"τ": k, ("f", "W", "V"): lazy_kron(f, identity(field, W2), identity(field, V2))}
    (fused,), _ = law_chains(("moved", [("f", "W", "V"), "τ"], ["τ"]), maps)
    assert fused.domain == tensor(V2, V3, W2) and fused.codomain == tensor(W3, W2, V2)
    want = ref_mul(ref_kron(ref_kron(ints(field, f.rows), ints(field, identity(field, W2).rows)), ints(field, identity(field, V2).rows)), ref_wire(spaces, order))
    assert_wired_chain(field, [fused], ref_reduce(field, want))
    # the fused layer as a failing check's innermost layer: the wire's witness
    bumped = bumped_at(materialize([fused]), 5)
    got = check_map_identity("moved", [fused], bumped)
    assert got.witness == tensor(V2, V3, W2).basis_tuple(5)
    assert got == ref_check("moved", field, [fused], [bumped])


def test_a_fused_layer_keeps_the_labels_of_the_wire_it_folds():
    # the wire's factors carry other labels than the outer layer reads
    x2, y3 = space("x0", "x1"), space("y0", "y1", "y2")
    f = LinearMap(QQ, tensor(V3, V2), W2, tuple(tuple(Fraction(i + j, 3) for j in range(6)) for i in range(2)))
    maps = {"τ": wire(QQ, (x2, y3), (1, 0)), "f": f}
    (fused,), _ = law_chains(("labels", ["f", "τ"], ["f", "τ"]), maps)
    assert fused.domain == tensor(x2, y3) and fused._den == 3
    bumped = bumped_at(materialize([fused]), 4)
    got = check_map_identity("labels", [fused], bumped)
    assert not got.passed and got.witness == ("x1", "y1")


def test_a_wire_refuses_an_order_that_is_no_permutation():
    for order in ((0,), (0, 0), (1, 2), (0, 1, 2)):
        with pytest.raises(ShapeError, match="does not permute"):
            wire(QQ, (V2, V3), order)


# e0 + e1 goes to zero over both fields, or to (7, 0), which is zero mod 7 only
CANCELLING = (((1, -1), (2, -2)), ((3, 4), (1, -1)))


@pytest.mark.parametrize("rows", CANCELLING, ids=("cancels", "cancels-mod-7"))
@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_a_column_cancelling_inside_a_chain_matches_the_oracle(field, rows):
    # the kernels keep an entry that sums to zero mid-chain; the chain drops
    # it once, at its end
    def m(dom, cod, r):
        return LinearMap(field, dom, cod, tuple(tuple(map(field.from_int, x)) for x in r))

    spread = m(V2, V2, ((1, 0), (1, 0)))  # e0 -> e0 + e1, e1 -> 0
    cancel = m(V2, V2, rows)
    out = m(V2, V3, ((1, 2), (0, 1), (3, 0)))
    idw = identity(field, W2)
    for chain in (
        [out, cancel, spread],
        [lazy_kron(out, idw), lazy_kron(cancel, idw), lazy_kron(spread, idw)],
        [lazy_kron(idw, out), lazy_kron(idw, cancel), lazy_kron(idw, spread)],
        [lazy_kron(out, out), lazy_kron(cancel, spread), lazy_kron(spread, spread)],
    ):
        got = materialize(chain)
        assert got.rows == ref_chain(field, chain)
        for j in range(chain[-1].domain.dim):
            assert plain_column(field, chain_apply_basis(chain, j, field))
        zero = zero_map(field, chain[-1].domain, chain[0].codomain)
        for rhs in ([zero], [got], [chain[0], chain[2]]):
            assert check_map_identity("law", chain, rhs) == ref_check("law", field, chain, rhs)
            # a Composite of the chain, as a chain element, gives what the dense map gives
            assert check_map_identity("law", Composite(chain), rhs) == ref_check("law", field, chain, rhs)
        assert_composite_matches(chain, got, 7)


def test_structural_maps_are_built_once_per_field():
    assert identity(QQ, V3) is identity(QQ, space("b0", "b1", "b2"))
    assert twist(F7, V2, W3) is twist(F7, V2, W3)
    assert identity(QQ, V3) is not identity(F7, V3)
    assert twist(QQ, V2, W3) is not twist(F7, V2, W3)
    assert identity(F7, V3).rows == ref_reduce(F7, identity(QQ, V3).rows)
    assert in_field(F7, identity(F7, V3).rows) and in_field(F7, twist(F7, V2, W3).rows)


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_from_entries_matches_the_oracle(field):
    rng = random.Random(15)
    dom, cod = tensor(V2, W2), V3
    for _ in range(20):
        cells = rng.sample([(i, j) for i in range(cod.dim) for j in range(dom.dim)], rng.randrange(13))
        placed = {cell: rng.randrange(-3, 4) for cell in cells}
        f = from_entries(field, dom, cod, ((i, j, field.from_int(c)) for (i, j), c in placed.items()))
        want = tuple(tuple(placed.get((i, j), 0) for j in range(dom.dim)) for i in range(cod.dim))
        assert ints(field, f.rows) == ref_reduce(field, want)
        assert in_field(field, f.rows)
    for i, j in ((3, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ShapeError, match="outside a 3x4 matrix"):
            from_entries(field, dom, cod, [(i, j, field.one)])


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
@pytest.mark.parametrize("v, w", ((V2, V3), (V3, tensor(W2, V2)), (space("p0"), W2)))
def test_direct_sum_injections_and_projections(field, v, w):
    s, i_v, i_w, p_v, p_w = direct_sum(field, v, w, "B", "A")
    assert s.labels == (*(f"B.{v.label(k)}" for k in range(v.dim)), *(f"A.{w.label(k)}" for k in range(w.dim)))
    assert (i_v.domain, i_v.codomain, i_w.domain, i_w.codomain) == (v, s, w, s)
    assert (p_v.domain, p_v.codomain, p_w.domain, p_w.codomain) == (s, v, s, w)

    def ident(n):
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def zeros(m, n):
        return tuple((0,) * n for _ in range(m))

    assert ref_chain(field, [p_v, i_v]) == ident(v.dim)
    assert ref_chain(field, [p_w, i_w]) == ident(w.dim)
    assert ref_chain(field, [p_w, i_v]) == zeros(w.dim, v.dim)
    assert ref_chain(field, [p_v, i_w]) == zeros(v.dim, w.dim)
    split = (ref_chain(field, [i_v, p_v]), ref_chain(field, [i_w, p_w]))
    assert tuple(tuple(map(sum, zip(*rows))) for rows in zip(*split)) == ident(s.dim)
    assert all(in_field(field, m.rows) for m in (i_v, i_w, p_v, p_w))


VECTOR_BUILDERS = {
    "insert_right": lambda field, vec: insert_right(field, V3, vec, W2),
    "insert_left": lambda field, vec: insert_left(field, vec, W2, V3),
    "contract_right": lambda field, vec: contract_right(field, V3, vec, W2),
    "contract_left": lambda field, vec: contract_left(field, vec, W2, V3),
}


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
@pytest.mark.parametrize("builder", VECTOR_BUILDERS)
def test_vector_builders_refuse_a_vector_of_the_wrong_length(field, builder):
    build = VECTOR_BUILDERS[builder]
    for length in (1, 3):
        vec = tuple(field.from_int(k + 1) for k in range(length))
        with pytest.raises(ShapeError, match=f"a vector of length {length} on a space of dim 2"):
            build(field, vec)
    assert build(field, (field.one, field.zero)).rows  # the right length builds


def test_from_columns_refuses_a_column_of_the_wrong_length():
    with pytest.raises(ShapeError, match="column"):
        from_columns(QQ, V2, V3, ((1, 2, 3), (0, 1)))
    with pytest.raises(ShapeError, match="column"):
        from_columns(QQ, V2, V3, ((1, 2, 3), (0, 1, 0, 0)))


def test_law_chains_share_layers_and_check_law_binds_through_them(monkeypatch):
    from entwiner import linalg

    f = LinearMap(QQ, V2, V2, ((1, 2), (0, 1)))
    maps = {"f": f, "V": identity(QQ, V2), "τ": twist(QQ, V2, V2)}
    law = ("natural", ["τ", ("f", "V")], [("V", "f"), "τ"])
    lhs, rhs = law_chains(law, maps)
    assert lhs[0] is rhs[1] is maps["τ"]
    assert lhs[1].legs == (f, maps["V"])
    assert check_law(law, maps) == check_map_identity("natural", lhs, rhs)
    # the deferred verdict binds its layers through the module-level function
    calls = []
    monkeypatch.setattr(linalg, "law_chains", lambda *a: calls.append(a) or law_chains(*a))
    check = check_law(law, maps)
    assert calls == []
    assert check.passed
    assert len(calls) == 1


@given(st.data())
def test_check_map_identity_matches_the_oracle(data):
    field = data.draw(FIELDS)
    start = data.draw(starts)
    lhs = data.draw(chains(field, start))
    cod = lhs[0].codomain
    if data.draw(st.booleans()):
        # the lhs composite itself, possibly with one entry bumped
        rows = [list(r) for r in ref_chain(field, lhs)]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, cod.dim - 1))
            j = data.draw(st.integers(0, len(rows[0]) - 1))
            rows[i][j] = rows[i][j] + field.one
        rhs = [LinearMap(field, lhs[-1].domain, cod, tuple(tuple(r) for r in rows))]
    else:
        inner = data.draw(chains(field, start))
        rhs = [data.draw(maps(field, inner[0].codomain, cod)), *inner]
    assert check_map_identity("law", lhs, rhs) == ref_check("law", field, lhs, rhs)


def test_a_chain_mixing_fields_is_refused():
    f7 = LinearMap(F7, V2, V2, ((F7.one, F7.zero), (F7.zero, F7.one)))
    q = identity(QQ, V2)
    for chain in ([q, f7], [lazy_kron(q), f7], [q, q, f7]):
        with pytest.raises(ShapeError, match="composition across fields"):
            materialize(chain)
        with pytest.raises(ShapeError, match="composition across fields"):
            check_map_identity("mixed", chain, q)
    with pytest.raises(ShapeError):
        compose(q, f7)
    with pytest.raises(ShapeError):
        kron(q, f7)


# ---------------------------------------------------------------------------
# Composite: a chain read as one map, each column computed when first read


def bumped_at(m, j):
    """m with entry (0, j) raised by one: an identity against m fails at column j."""
    rows = [list(r) for r in m.rows]
    rows[0][j] += m.field.one
    return LinearMap(m.field, m.domain, m.codomain, tuple(map(tuple, rows)))


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_a_failing_check_computes_only_the_columns_it_reads(field):
    rng = random.Random(11)

    def m(dom, cod):
        rows = tuple(
            tuple(field.from_int(rng.randrange(-2, 3)) for _ in range(dom.dim))
            for _ in range(cod.dim)
        )
        return LinearMap(field, dom, cod, rows)

    chain = [m(V3, V2), m(tensor(V2, W2), V3)]
    n = 4
    for j in range(n):
        # innermost: the check reads the columns of the blocks up to j's, no more
        c = Composite(chain)
        got = check_map_identity("law", c, bumped_at(materialize(chain), j))
        assert not got.passed and got.witness == c.domain.basis_tuple(j)
        assert sorted(c._cols) == list(range(block_end(j, n)))
        # as the left leg of the innermost layer: column k reads digit k // 3
        c = Composite(chain)
        idv = identity(field, V3)
        dense_leg = materialize([lazy_kron(materialize(chain), idv)])
        k = 3 * j + 1
        got = check_map_identity("law", [lazy_kron(c, idv)], bumped_at(dense_leg, k))
        assert not got.passed and got.witness == dense_leg.domain.basis_tuple(k)
        assert sorted(c._cols) == sorted({i // 3 for i in range(block_end(k, 3 * n))})
    # a check that passes reads every column once
    c = Composite(chain)
    dense_ = materialize(chain)
    assert check_map_identity("law", [lazy_kron(c, c)], [lazy_kron(dense_, dense_)]).passed
    assert sorted(c._cols) == list(range(n))


@given(st.data())
def test_a_failing_kronecker_check_reports_the_witness_of_its_leg_domains(data):
    field = data.draw(FIELDS)
    specs = data.draw(chain_specs(data.draw(starts)))
    chain = [build(field, s) for s in specs]
    inner = chain[-1]
    if not isinstance(inner, KronApply):
        inner = lazy_kron(inner)
        chain[-1] = inner
    dense_ = materialize(chain)
    j = data.draw(st.integers(0, dense_.domain.dim - 1))
    got = check_map_identity("law", chain, bumped_at(dense_, j))
    assert not got.passed
    assert got.witness == tensor(*(leg.domain for leg in inner.legs)).basis_tuple(j)
    assert got == ref_check("law", field, chain, [bumped_at(dense_, j)])


def test_building_a_kronecker_layer_builds_no_space(monkeypatch):
    import entwiner.linalg as linalg

    f = dense(random.Random(3), V2, V3)
    idw2, idv2, idv3 = identity(QQ, W2), identity(QQ, V2), identity(QQ, V3)
    tw, tw2 = twist(QQ, V2, W3), twist(QQ, W2, V2)
    built = []
    real = linalg.tensor
    monkeypatch.setattr(linalg, "tensor", lambda *s: built.append(s) or real(*s))
    k = lazy_kron(idw2, f, tw, idv3)
    c = Composite([lazy_kron(f, idw2), tw2])
    kc = lazy_kron(c, idv2)
    assert k.domain_dims == (2, 2, 2, 3, 3) and k.codomain_dims == (2, 3, 3, 2, 3)
    assert kc.domain_dims == (2, 2, 2) and kc.codomain_dims == (3, 2, 2)
    assert check_map_identity("law", [kc], [kc]).passed
    assert built == []
    # the spaces are built when read, once, as the tensor of the legs' spaces
    assert k.domain == tensor(W2, V2, V2, W3, V3) and k.codomain == tensor(W2, V3, W3, V2, V3)
    assert k.domain is k.domain
    assert len(built) == 2


def test_a_chain_mismatch_names_both_dims():
    f = identity(QQ, V2)
    g = identity(QQ, V3)
    for chain, message in (
        ([f, g], r"^chain mismatch: \(2,\) vs \(3,\)$"),
        ([lazy_kron(f, g), lazy_kron(g, f)], r"^chain mismatch: \(2, 3\) vs \(3, 2\)$"),
        ([Composite([f]), g], r"^chain mismatch: \(2,\) vs \(3,\)$"),
    ):
        for build_ in (materialize, Composite, lambda ch: check_map_identity("bad", ch, g)):
            with pytest.raises(ShapeError, match=message):
                build_(chain)
    with pytest.raises(ShapeError, match=r"^identity domains differ: 6 vs 2$"):
        check_map_identity("bad", lazy_kron(f, g), Composite([f]))
    with pytest.raises(ShapeError, match=r"^identity codomains differ: 2 vs 6$"):
        check_map_identity("bad", LinearMap(QQ, tensor(V2, V3), V2, ((0,) * 6,) * 2), lazy_kron(f, g))
    f7 = identity(F7, V2)
    for chain in ([Composite([f]), f7], [f, Composite([f7])]):
        with pytest.raises(ShapeError, match="composition across fields"):
            Composite(chain)
        with pytest.raises(ShapeError, match="composition across fields"):
            check_map_identity("mixed", chain, f)
    with pytest.raises(ShapeError, match="Kronecker product across fields"):
        lazy_kron(Composite([f]), f7)


# ---------------------------------------------------------------------------
# deferred verdicts: check_law computes a verdict the first time it is read

# the twist is an involution; read against ψ its square fails at its first column
INVOLUTION = ("involution", ["τ", "τ'"], [("V", "W")])


def involution_maps(field, psi_rows=None):
    tau = twist(field, V2, W2)
    back = twist(field, W2, V2)
    if psi_rows is not None:
        back = LinearMap(field, back.domain, back.codomain, psi_rows)
    return {"τ": tau, "τ'": back, "V": identity(field, V2), "W": identity(field, W2)}


def bumped_rows(field):
    rows = [list(r) for r in twist(field, W2, V2).rows]
    rows[1][0] += field.one
    return tuple(map(tuple, rows))


@pytest.fixture
def counted(monkeypatch):
    """Counts of comparisons run, columns streamed (the widths of the blocks
    streamed, summed) and Kronecker layers built."""
    import entwiner.linalg as linalg

    counts = {"compared": 0, "columns": 0, "kron": 0}
    compare, apply_basis, kron_init = (
        linalg.check_map_identity, linalg.chain_apply_basis, KronApply.__init__
    )

    def counting_compare(*args):
        counts["compared"] += 1
        return compare(*args)

    def counting_apply(chain, j, field, hi=None, x=1):
        counts["columns"] += 1 if hi is None else hi - j
        return apply_basis(chain, j, field, hi, x)

    def counting_init(self, *legs, **placement):
        counts["kron"] += 1
        kron_init(self, *legs, **placement)

    monkeypatch.setattr(linalg, "check_map_identity", counting_compare)
    monkeypatch.setattr(linalg, "chain_apply_basis", counting_apply)
    monkeypatch.setattr(KronApply, "__init__", counting_init)
    return counts


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_a_law_never_read_streams_nothing(counted, field):
    for rows in (None, bumped_rows(field)):
        checks = [check_law(INVOLUTION, involution_maps(field, rows)) for _ in range(3)]
        Report("laws", tuple(checks)).prefixed("p")
        checks[0].renamed("other")
        assert counted == {"compared": 0, "columns": 0, "kron": 0}
        checks[0].passed
        assert counted["compared"] == 1 and counted["columns"] > 0 and counted["kron"] == 1
        counted.update(compared=0, columns=0, kron=0)


@pytest.mark.parametrize("rows", ("passing", "failing"))
def test_a_verdict_read_twice_is_computed_once(counted, rows):
    c = check_law(INVOLUTION, involution_maps(QQ, None if rows == "passing" else bumped_rows(QQ)))
    first = (c.passed, c.witness, c.residual)
    once = dict(counted)
    assert once == {"compared": 1, "columns": 8 if rows == "passing" else 2, "kron": 1}
    for _ in range(3):
        assert (c.passed, c.witness, c.residual) == first
        c.to_dict(), repr(c), hash(c), c == c, pickle.dumps(c)
    assert counted == once


@pytest.mark.parametrize("read", ("original", "copy"))
def test_renamed_and_prefixed_copies_share_one_computation(counted, read):
    c = check_law(INVOLUTION, involution_maps(QQ, bumped_rows(QQ)))
    (p,) = Report("laws", (c,)).prefixed("outer")
    r = p.renamed("again")
    assert (p.name, r.name, c.name) == ("outer:involution", "again", "involution")
    first = {"original": c, "copy": r}[read]
    assert not first.passed
    once = dict(counted)
    assert once["compared"] == 1
    for x in (c, p, r):
        assert (x.passed, x.witness, x.residual) == (first.passed, first.witness, first.residual)
    assert counted == once
    # a copy of a resolved check is resolved too
    assert c.renamed("late").witness == c.witness
    assert counted == once


@pytest.fixture
def verdict_traffic(monkeypatch):
    """Counts of law computations run and of checks built, by the constructor,
    `deferred`, `failed` or `renamed`."""
    import entwiner.linalg as linalg

    counts = {"computed": 0, "built": 0}
    law_verdict, init, renamed = linalg._law_verdict, IdentityCheck.__init__, IdentityCheck.renamed

    def counting_verdict(*args):
        counts["computed"] += 1
        return law_verdict(*args)

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_renamed(self, name):
        counts["built"] += 1
        return renamed(self, name)

    def counting(make):
        def made(cls, *args):
            counts["built"] += 1
            return make(*args)

        return classmethod(made)

    monkeypatch.setattr(linalg, "_law_verdict", counting_verdict)
    monkeypatch.setattr(IdentityCheck, "__init__", counting_init)
    monkeypatch.setattr(IdentityCheck, "renamed", counting_renamed)
    for name in ("deferred", "failed"):
        monkeypatch.setattr(IdentityCheck, name, counting(getattr(IdentityCheck, name)))
    return counts


@pytest.mark.parametrize("rows", ("passing", "failing"))
def test_a_law_and_its_copy_read_in_full_compute_once_in_three_checks(verdict_traffic, rows):
    c = check_law(INVOLUTION, involution_maps(QQ, None if rows == "passing" else bumped_rows(QQ)))
    copy = c.renamed("copy")
    for x in (c, copy, c, copy):
        x.passed, x.witness, x.residual
    assert (copy.passed, copy.witness, copy.residual) == (c.passed, c.witness, c.residual)
    # the deferred check, the one its computation returned, and the copy
    assert verdict_traffic == {"computed": 1, "built": 3}


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
@pytest.mark.parametrize("rows", ("passing", "failing"))
def test_a_deferred_check_equals_the_eager_one(field, rows):
    maps = involution_maps(field, None if rows == "passing" else bumped_rows(field))
    chains = [maps["τ"], maps["τ'"]], lazy_kron(maps["V"], maps["W"])

    def pair():
        return check_law(INVOLUTION, maps), check_map_identity("involution", *chains)

    lazy, eager = pair()
    assert lazy == eager and eager == lazy
    lazy, eager = pair()
    assert hash(lazy) == hash(eager)
    assert hash(eager) == hash(("involution", eager.passed, eager.witness, eager.residual))
    lazy, eager = pair()
    assert repr(lazy) == repr(eager)
    assert repr(eager).startswith("IdentityCheck(name='involution', passed=")
    lazy, eager = pair()
    assert pickle.dumps(lazy) == pickle.dumps(eager)
    assert pickle.loads(pickle.dumps(lazy)) == eager
    lazy, eager = pair()
    assert lazy.to_dict() == eager.to_dict()
    assert lazy.renamed("x") == eager.renamed("x") != eager
    assert (eager.passed, eager.witness is None) == ((rows == "passing"),) * 2


def test_an_identity_check_is_immutable():
    for c in (IdentityCheck(name="k", passed=True), check_law(INVOLUTION, involution_maps(QQ))):
        for attr in ("name", "passed", "witness", "residual", "_box"):
            with pytest.raises(FrozenInstanceError):
                setattr(c, attr, None)
        with pytest.raises(FrozenInstanceError):
            del c.name
    assert IdentityCheck("k", False, ("a0",), ("1",)) == IdentityCheck("k", False, ("a0",), ("1",))
    assert IdentityCheck("k", True) != IdentityCheck("k", False)


def test_report_passed_stops_at_the_first_failing_law(counted):
    bad_shape = ("bad-shape", ["τ"], ["V"])
    checks = (
        check_law(INVOLUTION, involution_maps(QQ)),
        check_law(INVOLUTION, involution_maps(QQ, bumped_rows(QQ))),
        check_law(bad_shape, involution_maps(QQ)),
        check_law(INVOLUTION, involution_maps(QQ)),
    )
    rep = Report("laws", checks)
    # the third law would raise if it were read
    assert rep.passed is False
    assert counted == {"compared": 2, "columns": 8 + 2, "kron": 2}
    with pytest.raises(ShapeError):
        rep.render()


def test_a_law_with_mismatched_shapes_raises_when_read():
    maps = involution_maps(QQ)
    c = check_law(("bad-shape", ["τ", "V"], ["W"]), maps)
    d = c.renamed("copy")
    for read in (lambda: c.passed, lambda: c.witness, lambda: d.residual, lambda: c == d, c.to_dict):
        with pytest.raises(ShapeError, match=r"^chain mismatch: \(2, 2\) vs \(2,\)$"):
            read()
    with pytest.raises(ShapeError, match=r"^identity domains differ: 2 vs 4$"):
        check_law(("bad-domain", ["V"], ["τ"]), maps).passed


def test_a_law_reads_the_maps_bound_when_it_was_made():
    maps = involution_maps(QQ)
    c = check_law(INVOLUTION, maps)
    maps["τ'"] = LinearMap(QQ, maps["τ'"].domain, maps["τ'"].codomain, bumped_rows(QQ))
    assert c.passed and not check_law(INVOLUTION, maps).passed


# ---------------------------------------------------------------------------
# combine: sum c_k * chain_k in one dense pass


def ref_combine(field, coeffs, chains):
    """The sum of the separate `materialize`s, scaled, added entry by entry."""
    total = None
    for c, chain in zip(coeffs, chains):
        rows = materialize(chain).rows
        scaled = tuple(tuple(c * x for x in row) for row in rows)
        total = scaled if total is None else tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(total, scaled)
        )
    return total


def assert_cols_are_its_rows(m):
    # the columns a map is handed (by `_filled` or `from_entries`) are the
    # ones a scan of its rows gives, and the ones `from_entries` gives a copy
    # of its nonzero entries: ints, no zero kept, over F_p every entry reduced
    # once, and over Q numerators over the least common denominator
    triples = ((i, j, x) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x)
    for f in (LinearMap(m.field, m.domain, m.codomain, m.rows), from_entries(m.field, m.domain, m.codomain, triples)):
        assert (f._cols, f._den) == (m._cols, m._den)
    assert all(type(x) is int and x for col in m._cols for _, x in col)
    lcd = lcm(*(Fraction(x).denominator for row in m.rows for x in row)) if m.field == QQ else 1
    assert type(m._den) is int and m._den == lcd


@given(st.data())
def test_combine_is_the_sum_of_separate_materializes(data):
    factors = data.draw(starts)
    first = data.draw(chain_specs(factors))
    cod = build(QQ, first[0]).codomain
    specs = [first]
    for _ in range(data.draw(st.integers(0, 3))):
        # another chain on the same domain, led into the first one's codomain
        spec = data.draw(chain_specs(factors))
        specs.append([data.draw(map_specs(build(QQ, spec[0]).codomain, cod)), *spec])
    entries = [data.draw(ENTRIES) for _ in specs]
    got = {}
    for field in (QQ, F7):
        chains = [[build(field, s) for s in spec] for spec in specs]
        coeffs = [field.parse(e) for e in entries]
        m = combine(list(zip(coeffs, chains)))
        got[field] = m.rows
        assert m.rows == ref_combine(field, coeffs, chains)
        assert (m.domain, m.codomain) == (chains[0][-1].domain, chains[0][0].codomain)
        assert in_field(field, m.rows)
        assert_cols_are_its_rows(m)
    assert got[F7] == mod7(got[QQ])


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_combine_of_cancelling_terms_drops_every_zero(field):
    # 3 + 4 = 7 vanishes over F_7 only; 1 - 1 vanishes over both
    f = LinearMap(field, V2, V2, tuple(tuple(map(field.from_int, r)) for r in ((1, 3), (0, 2))))
    g = LinearMap(field, V2, V2, tuple(tuple(map(field.from_int, r)) for r in ((1, 4), (0, 5))))
    m = combine([(field.one, f), (-field.one, [g, identity(field, V2)]), (field.one, g)])
    assert m.rows == f.rows
    m = combine([(field.one, f), (field.one, g)])
    assert ints(field, m.rows) == ref_reduce(field, ((2, 7), (0, 7)))
    assert_cols_are_its_rows(m)
    assert (f + g).rows == m.rows and (f - f).rows == zero_map(field, V2, V2).rows
    assert (-f).rows == f.scale(-field.one).rows == ref_combine(field, [-field.one], [[f]])


@pytest.mark.parametrize("field", (QQ, F7), ids=("q", "fp7"))
def test_combine_takes_its_spaces_from_the_first_term_and_its_shape_from_every_term(field):
    f = identity(field, V2)
    g = twist(field, space("c0"), W2)  # a 2 -> 2 map between other spaces
    m = combine([(field.one, f), (field.from_int(2), g)])
    assert (m.domain, m.codomain) == (V2, V2)
    n = combine([(field.from_int(2), g), (field.one, f)])
    assert (n.domain, n.codomain) == (g.domain, g.codomain) and n.rows == m.rows
    # zero coefficients skip their terms, which still fix the shape
    zero = combine([(field.zero, [g]), (field.zero, f)])
    assert zero.rows == zero_map(field, g.domain, g.codomain).rows
    assert (zero.domain, zero.codomain) == (g.domain, g.codomain)
    assert zero._cols == ((), ())
    assert f.scale(field.zero).rows == zero.rows


def test_combine_refuses_mixed_shapes_mixed_fields_and_foreign_coefficients():
    f = identity(QQ, V2)
    with pytest.raises(ShapeError, match="map shapes differ"):
        combine([(1, f), (1, identity(QQ, V3))])
    with pytest.raises(ShapeError, match="map shapes differ"):
        combine([(1, f), (1, LinearMap(QQ, V3, V2, ((0, 0, 0), (0, 0, 0))))])
    with pytest.raises(ShapeError, match="map shapes differ"):
        f + identity(QQ, V3)
    with pytest.raises(ShapeError, match="maps over different fields"):
        combine([(1, f), (1, identity(F7, V2))])
    with pytest.raises(ShapeError, match="maps over different fields"):
        f - identity(F7, V2)
    with pytest.raises(ShapeError, match="empty linear combination"):
        combine([])
    with pytest.raises(ShapeError, match="chain mismatch"):
        combine([(1, [f, identity(QQ, V3)])])
    g = identity(F7, V2)
    for bad in (Fraction(1, 2), 0.5, True, PrimeField(5).one):
        with pytest.raises(FieldError, match="a map over F7 cannot scale by"):
            combine([(F7.one, g), (bad, g)])
        with pytest.raises(FieldError):
            g.scale(bad)
    for bad in (0.5, True, F7.one):
        with pytest.raises(FieldError, match="a map over Q cannot scale by"):
            combine([(bad, f)])


# ---------------------------------------------------------------------------
# fraction-free kernels: over Q an element's columns are int numerators over
# one denominator, `_den`, and a chain divides once, by the product of its
# elements' denominators

# denominators 2, 3 and 6; and 5 and 10
THIRDS = st.sampled_from(("0", "0", "1", "-2", "1/2", "-3/2", "1/3", "2/3", "5/6"))
FIFTHS = st.sampled_from(("0", "0", "1", "-1/5", "4/5", "3/10"))


def fifth_and_five(v):
    """x -> x/5 and x -> 5x on v over Q, a pair of denominators 5 and 1 that cancels."""
    diagonal = lambda c: from_entries(QQ, v, v, ((i, i, c) for i in range(v.dim)))  # noqa: E731
    return diagonal(Fraction(1, 5)), diagonal(5)


def oracle_apply(rows, vec):
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows)


@given(st.data())
def test_sides_of_different_denominators_match_the_oracle(data):
    # the left side's denominator is prime to 5 and the right side's a multiple of it
    start = data.draw(starts)
    lhs = [build(QQ, s) for s in data.draw(chain_specs(start, THIRDS))]
    dom, cod = lhs[-1].domain, lhs[0].codomain
    rows = [list(r) for r in ref_chain(QQ, lhs)]
    kind = data.draw(st.sampled_from(("equal", "bumped", "chain")))
    if kind == "chain":
        inner = [build(QQ, s) for s in data.draw(chain_specs(start, FIFTHS))]
        rhs = [build(QQ, data.draw(map_specs(inner[0].codomain, cod, FIFTHS))), *inner]
    else:
        if kind == "bumped":
            i = data.draw(st.integers(0, cod.dim - 1))
            j = data.draw(st.integers(0, dom.dim - 1))
            rows[i][j] += Fraction(data.draw(st.integers(1, 4)), 5)
        rhs = [LinearMap(QQ, dom, cod, tuple(map(tuple, rows)))]
    rhs = [*fifth_and_five(cod), *rhs]
    dl, dr = (prod(elt._den for elt in side) for side in (lhs, rhs))
    assert dl % 5 and not dr % 5
    got = check_map_identity("law", lhs, rhs)
    assert got == ref_check("law", QQ, lhs, rhs)
    assert got.passed == (kind == "equal") or kind == "chain"
    # materialize, LinearMap.apply and combine of the two sides
    vec = tuple(QQ.parse(data.draw(FIFTHS)) for _ in range(dom.dim))
    for side in (lhs, rhs):
        m = materialize(side)
        assert m.rows == ref_chain(QQ, side)
        assert_cols_are_its_rows(m)
        assert m.apply(vec) == oracle_apply(m.rows, vec)
    a, b = QQ.parse(data.draw(THIRDS)), QQ.parse(data.draw(FIFTHS))
    m = combine([(a, lhs), (b, rhs)])
    want = tuple(
        tuple(a * x + b * y for x, y in zip(rl, rr)) for rl, rr in zip(ref_chain(QQ, lhs), ref_chain(QQ, rhs))
    )
    assert m.rows == want
    assert_cols_are_its_rows(m)


def kernel_columns(elt):
    """Every column a kernel reads from a chain element, through the elements inside it."""
    if isinstance(elt, KronApply):
        for *_, cols in elt._maps:
            yield from (cols.values() if isinstance(cols, dict) else cols)
        for leg in elt.legs:
            yield from kernel_columns(leg)
    elif isinstance(elt, Composite):
        yield from elt._cols.values()
        for inner in elt.chain:
            yield from kernel_columns(inner)
    else:
        yield from elt._cols


def test_the_kernels_see_no_fraction_on_a_rational_q(monkeypatch, capsys):
    import entwiner.linalg as linalg
    from entwiner import cli

    sides = []
    compare = linalg.check_map_identity

    def recording(name, lhs, rhs):
        sides.extend((lhs, rhs))
        return compare(name, lhs, rhs)

    monkeypatch.setattr(linalg, "check_map_identity", recording)
    # the registry's negative example: a failing verdict renders fractions
    assert cli.main(["verify", "--check", "braided-algebra", "mult_twist@Kx3,q=1/2"]) == 1
    assert "/" in capsys.readouterr().out
    elts = [elt for side in sides for elt in (side if isinstance(side, list) else [side])]
    # q = 1/2 reaches the kernels as a denominator, not as a Fraction
    assert elts and max(elt._den for elt in elts) > 1
    for elt in elts:
        for col in kernel_columns(elt):
            assert all(type(x) is int for _, x in col), elt
