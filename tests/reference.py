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
