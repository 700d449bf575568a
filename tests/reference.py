"""Reference constructions the tests compare the library against."""

from entwiner.linalg import ChainElt, LinearMap, ShapeError, Space, identity, lazy_kron, twist


def embed13_chain(s: LinearMap, mid: Space) -> list[ChainElt]:
    """S13 on V (x) mid (x) W as a chain: S (x) id_mid conjugated by the flips of mid and W."""
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
