"""Reference constructions the tests compare the library against."""

from fractions import Fraction
from math import prod

from entwiner.linalg import (
    ChainElt,
    Composite,
    KronApply,
    LinearMap,
    ShapeError,
    Space,
    identity,
    is_invertible,
    lazy_kron,
    materialize,
    twist,
)
from entwiner.report import IdentityCheck, Report


def embed13_chain(s: LinearMap, mid: Space) -> list[ChainElt]:
    """S13 on V (x) mid (x) W as a chain: S (x) id_mid conjugated by the dense flips of mid and W."""
    if len(s.domain.dims) != 2 or s.domain.dims != s.codomain.dims:
        raise ShapeError("embed13 needs an endomorphism of a two-factor tensor square")
    v, w = s.domain.factors
    field = s.field
    idv = identity(field, v)
    idm = identity(field, mid)
    return [
        lazy_kron(idv, twist(field, w, mid)),
        lazy_kron(s, idm),
        lazy_kron(idv, twist(field, mid, w)),
    ]


def twisted_product_is_algebra(a, b, psi, p: int) -> bool:
    """Whether (a (x) b)(a' (x) b') = a psi(b (x) a') b' is a unital associative
    product on A (x) B over F_p, from structure constants alone: dict products
    of basis pairs, no maps, no chains.

    `a` and `b` are (multiplication rows, unit): rows[k][i*n + j] is the
    coefficient of e_k in e_i e_j.  `psi` holds the rows of psi : B (x) A ->
    A (x) B: psi[r*nb + s][k*na + j] is the coefficient of e_r (x) f_s in
    psi(f_k (x) e_j).
    """
    (mult_a, unit_a), (mult_b, unit_b) = a, b
    na, nb = len(unit_a), len(unit_b)

    def table(rows, n):
        return {
            (i, j): {k: int(r[i * n + j]) % p for k, r in enumerate(rows) if int(r[i * n + j]) % p}
            for i in range(n)
            for j in range(n)
        }

    ma, mb = table(mult_a, na), table(mult_b, nb)
    ps = {
        (k, j): {
            (r, s): int(psi[r * nb + s][k * na + j]) % p
            for r in range(na)
            for s in range(nb)
            if int(psi[r * nb + s][k * na + j]) % p
        }
        for k in range(nb)
        for j in range(na)
    }

    def add(out, key, x):
        v = (out.get(key, 0) + x) % p
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    def basis_product(i, k, j, l):
        out: dict = {}
        for (r, s), c in ps[k, j].items():
            for u, x in ma[i, r].items():
                for w, y in mb[s, l].items():
                    add(out, (u, w), c * x * y)
        return out

    basis = [(i, k) for i in range(na) for k in range(nb)]
    products = {(x, y): basis_product(*x, *y) for x in basis for y in basis}

    def mul(f, g):
        out: dict = {}
        for x, c in f.items():
            for y, d in g.items():
                for z, e in products[x, y].items():
                    add(out, z, c * d * e)
        return out

    one = {(i, k): int(u) * int(v) % p for i, u in enumerate(unit_a) for k, v in enumerate(unit_b)}
    one = {x: c for x, c in one.items() if c}
    for x in basis:
        e = {x: 1}
        if mul(one, e) != e or mul(e, one) != e:
            return False
    return all(
        mul(products[x, y], {z: 1}) == mul({x: 1}, products[y, z])
        for x in basis
        for y in basis
        for z in basis
    )


def plain_rows(field, rows):
    """Rows as comparable plain values: over F_p, ints reduced mod p."""
    p = getattr(field, "p", None)
    return [list(r) if p is None else [int(x) % p for x in r] for r in rows]


def biproduct_rows(h, m: int, psi, u):
    """Rows of the product and the u-coaction of B (+) A (dim B = m, A = h) from
    their basis formulas: (b, a)(b', a') = (b * a' + eps(a) b', aa') with
    b * a = eps(a_r) b_s summed over psi(b (x) a) = c_rs a_r (x) b_s, and the
    coaction b -> b (x) u, a -> a_(1) (x) a_(2).  Plain index loops, no maps."""
    n = len(h.unit)
    e = m + n
    mult = [[0] * (e * e) for _ in range(e)]
    for p in range(e):
        for q in range(e):
            if p < m <= q:
                for r in range(n):
                    for s in range(m):
                        mult[s][p * e + q] += h.counit[r] * psi.rows[r * m + s][p * n + q - m]
            elif q < m <= p:
                mult[q][p * e + q] += h.counit[p - m]
            elif m <= p and m <= q:
                for i in range(n):
                    mult[m + i][p * e + q] += h.mult.rows[i][(p - m) * n + q - m]
    coaction = [[0] * e for _ in range(e * n)]
    for j in range(m):
        for k in range(n):
            coaction[j * n + k][j] += u[k]
    for j in range(m, e):
        for s in range(n):
            for t in range(n):
                coaction[(m + s) * n + t][j] += h.comult.rows[s * n + t][j - m]
    return mult, coaction


def trivial_extension_rows(a):
    """Rows of the product of A (+) A: (x, y)(x', y') = (xx', xy' + yx')."""
    n = len(a.unit)
    mult = [[0] * (4 * n * n) for _ in range(2 * n)]
    for p in range(2 * n):
        for q in range(2 * n):
            if p < n and q < n:
                rows, at = range(n), p * n + q
            elif p < n <= q:
                rows, at = range(n, 2 * n), p * n + q - n
            elif q < n <= p:
                rows, at = range(n, 2 * n), (p - n) * n + q
            else:
                continue
            for i, r in enumerate(rows):
                mult[r][p * 2 * n + q] += a.mult.rows[i][at]
    return mult


# ---------------------------------------------------------------------------
# A law evaluator that reads map entries only: a LinearMap by its rows, a
# KronApply by its legs, the input position of each of their factors and the
# Kronecker index formula (a wire, whose legs are identities, by the
# permutation of digits alone), a Composite by its own chain.  It shares no
# code with the kernels of `linalg`, their block schedule, their dense fill
# or `law_chains`: a vector is a dict of its nonzero entries as field
# elements, applied one input entry at a time, one column of the identity at
# a time.


class Kron(tuple):
    """The Kronecker product of its legs, left to right: a layer that the
    evaluator binds itself, as `law_chains` would build a `KronApply`."""

    @property
    def field(self):
        return self[0].field


def _legs(elt):
    return elt if isinstance(elt, Kron) else elt.legs


def _inputs(elt) -> tuple:
    """The domain position of each factor of the legs, left to right."""
    if isinstance(elt, KronApply) and elt._inputs is not None:
        return elt._inputs
    return tuple(range(sum(len(_domain_labels(leg)) for leg in _legs(elt))))


def _is_kron(elt) -> bool:
    return isinstance(elt, (Kron, KronApply))


def _chain(x) -> list:
    """A chain given as one element or a list or tuple of them, outermost first."""
    return list(x) if type(x) in (list, tuple) else [x]


def _dims(elt) -> tuple[int, int]:
    """(domain dim, codomain dim) of a chain element."""
    if _is_kron(elt):
        legs = [_dims(leg) for leg in _legs(elt)]
        return prod(n for n, _ in legs), prod(m for _, m in legs)
    if isinstance(elt, Composite):
        return _dims(elt.chain[-1])[0], _dims(elt.chain[0])[1]
    return len(elt.rows[0]), len(elt.rows)


def _domain_labels(elt) -> list:
    """The label tuples of the atomic factors of an element's domain, left to right."""
    if _is_kron(elt):
        placed = {}
        factors = [labels for leg in _legs(elt) for labels in _domain_labels(leg)]
        for labels, p in zip(factors, _inputs(elt)):
            placed[p] = labels
        return [placed[p] for p in range(len(factors))]
    if isinstance(elt, Composite):
        return _domain_labels(elt.chain[-1])

    def atoms(s):
        return [s.labels] if s.labels else [labels for f in s.factors for labels in atoms(f)]

    return atoms(elt.domain)


class _Columns:
    """Columns of chain elements over one field, each computed once, as dicts
    of their nonzero entries."""

    def __init__(self, field):
        self.field = field
        self.cache = {}

    def column(self, elt, j: int) -> dict:
        """Column j of a chain element."""
        key = id(elt), j
        col = self.cache.get(key)
        if col is None:
            col = self.cache[key] = self._compute(elt, j)
        return col

    def _compute(self, elt, j: int) -> dict:
        if _is_kron(elt):
            # the legs' factor at position q reads the digit of j at its input
            # position: j's digits, one per domain factor, in the legs' order
            # give the index j' of the side-by-side domain; then (f (x) g)
            # e_(j1*n + j2) = f e_j1 (x) g e_j2: entry (i1, i2) at i1*m + i2,
            # row-major, for g's domain and codomain dims n and m
            legs = _legs(elt)
            dims = [len(labels) for leg in legs for labels in _domain_labels(leg)]
            inputs = _inputs(elt)
            placed = [0] * len(dims)
            for q, p in enumerate(inputs):
                placed[p] = dims[q]
            at = []
            for n in reversed(placed):
                j, d = divmod(j, n)
                at.append(d)
            at.reverse()
            j = 0
            for q, n in enumerate(dims):
                j = j * n + at[inputs[q]]
            digits = []
            for leg in reversed(legs):
                j, d = divmod(j, _dims(leg)[0])
                digits.append(d)
            col = {0: self.field.one}
            for leg, d in zip(legs, reversed(digits)):
                m = _dims(leg)[1]
                other = self.column(leg, d)
                col = {i * m + k: a * b for i, a in col.items() for k, b in other.items()}
            return col
        if isinstance(elt, Composite):
            return self.apply(elt.chain, j)
        return {i: row[j] for i, row in enumerate(elt.rows) if row[j]}

    def apply(self, chain: list, j: int) -> dict:
        """The chain, innermost element first, applied to basis vector j."""
        vec = {j: self.field.one}
        for elt in reversed(chain):
            out = {}
            for k, v in vec.items():
                for i, x in self.column(elt, k).items():
                    out[i] = out[i] + x * v if i in out else x * v
            vec = {i: x for i, x in out.items() if x}
        return vec


def first_failing_column(lhs, rhs):
    """(witness, residual) of the identity lhs = rhs, computed eagerly by the
    evaluator above: the first column in which the two sides differ, its basis
    tuple and the rendered difference of the two columns; None when the sides
    are equal."""
    lhs, rhs = _chain(lhs), _chain(rhs)
    field = lhs[0].field
    columns = _Columns(field)
    for j in range(_dims(lhs[-1])[0]):
        left, right = columns.apply(lhs, j), columns.apply(rhs, j)
        if left != right:
            zero = field.zero
            rows = range(_dims(lhs[0])[1])
            residual = tuple(field.render(left.get(i, zero) - right.get(i, zero)) for i in rows)
            witness = []
            for labels in reversed(_domain_labels(lhs[-1])):
                j, d = divmod(j, len(labels))
                witness.append(labels[d])
            return tuple(reversed(witness)), residual
    return None


def law_verdict(law, maps: dict) -> tuple:
    """(passed, witness, residual) of the law `(name, lhs, rhs)` on the bound
    maps, as `linalg.check_law` reports it: each layer a bound name, a tuple
    bound as a whole, or else the `Kron` of its names."""
    _, lhs, rhs = law

    def side(words):
        return [maps[w] if isinstance(w, str) or w in maps else Kron(maps[n] for n in w) for w in words]

    failure = first_failing_column(side(lhs), side(rhs))
    return (True, None, None) if failure is None else (False, *failure)


def _square_rows(a, term):
    """Rows of a map on A (x) A from its basis formula: `term(i, j, add)` adds
    the image of e_i (x) e_j, one entry at a time, through add(k, l, x) for x
    at e_k (x) e_l.  Plain index loops, no maps."""
    n = len(a.unit)
    rows = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):

            def add(k, l, x, col=i * n + j):
                rows[k * n + l][col] += x

            term(i, j, add)
    return rows


def _product(a, i, j):
    # (k, coefficient of e_k in e_i e_j) for every k
    n = len(a.unit)
    return [(k, a.mult.rows[k][i * n + j]) for k in range(n)]


def mult_twist_rows(a, q):
    """b (x) c -> 1 (x) bc + q(bc (x) 1) - q(b (x) c)."""
    u = a.unit

    def term(i, j, add):
        for k, m in _product(a, i, j):
            for l, ul in enumerate(u):
                add(l, k, ul * m)
                add(k, l, q * m * ul)
        add(i, j, -q)

    return _square_rows(a, term)


def comm_twist_rows(a, q):
    """b (x) c -> q((bc - cb) (x) 1) + c (x) b."""
    u = a.unit

    def term(i, j, add):
        for (k, m), (_, m_op) in zip(_product(a, i, j), _product(a, j, i)):
            for l, ul in enumerate(u):
                add(k, l, q * (m - m_op) * ul)
        add(j, i, 1)

    return _square_rows(a, term)


def rmatrix_rows(a, r, s):
    """b (x) c -> s(cb (x) 1) + r(1 (x) cb) - s(c (x) b)."""
    u = a.unit

    def term(i, j, add):
        for k, m in _product(a, j, i):
            for l, ul in enumerate(u):
                add(k, l, s * m * ul)
                add(l, k, r * ul * m)
        add(j, i, -s)

    return _square_rows(a, term)


def type2_rows(a, lam):
    """b (x) c -> lam(1 (x) bc) + bc (x) 1 - c (x) b."""
    u = a.unit

    def term(i, j, add):
        for k, m in _product(a, i, j):
            for l, ul in enumerate(u):
                add(l, k, lam * ul * m)
                add(k, l, m * ul)
        add(j, i, -1)

    return _square_rows(a, term)


def eager_yb_operator(phi: LinearMap) -> Report:
    """The yb-operator report with every check computed at once: phi tau and
    tau phi materialized, their QYBE checked, agreement and invertibility
    decided when the report is built."""
    from entwiner.yangbaxter import BRAID_LAW, check_law, commutator_check

    v, w = phi.domain.factors
    field = phi.field
    braid = check_law(BRAID_LAW, {"φ": phi, "V": identity(field, v)})
    tau = twist(field, v, w)
    right, left = materialize([phi, tau]), materialize([tau, phi])
    checks = [
        braid,
        commutator_check("qybe-twist-right", right, right, right),
        commutator_check("qybe-twist-left", left, left, left),
    ]
    verdicts = [c.passed for c in checks]
    checks.append(IdentityCheck("twist-agreement", verdicts[0] == verdicts[1] == verdicts[2]))
    checks.append(IdentityCheck("invertible", is_invertible(phi)))
    return Report("yb-operator", tuple(checks))


def vector_identity(name: str, field, space_: Space, lhs, rhs) -> IdentityCheck:
    """The identity lhs = rhs of two coefficient vectors on `space_`, checked
    eagerly: a failure's witness is the basis tuple of the first coordinate
    where they differ, and its residual is lhs - rhs rendered."""
    lhs, rhs = tuple(lhs), tuple(rhs)
    if len(lhs) != len(rhs) or len(lhs) != space_.dim:
        raise ShapeError("vector identity length mismatch")
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            residual = tuple(field.render(x - y) for x, y in zip(lhs, rhs))
            return IdentityCheck(name, False, space_.basis_tuple(i), residual)
    return IdentityCheck(name, True)


def full_rank(field, rows) -> bool:
    """Whether the square matrix `rows` is invertible over `field`: Gaussian
    elimination on Fractions over Q, and on residues mod p, dividing by
    inverses mod p, over F_p."""
    p = getattr(field, "p", None)
    m = [[Fraction(x) if p is None else int(x) % p for x in row] for row in rows]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c] if p is None else pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [a - f * b if p is None else (a - f * b) % p for a, b in zip(m[r], m[c])]
    return True
