"""Spaces, linear maps, and the multilinear identity checker.

Everything is a finite-dimensional vector space with a fixed ordered basis.
Tensor products use the row-major convention: the index of e_i (x) f_j in
V (x) W is i*dim(W) + j, 0-based, and nested products are flattened left to
right.  A space's `dim` and `dims` are set when it is built.  Maps are stored
densely (rows of scalars); a map refuses, when it is built, any entry whose type
is not in its field's `types` (over Q an int or a Fraction, over F_p an int or
an element of that field), and `apply` refuses such a vector entry.

Every product - `compose`, `kron`, `LinearMap.apply`, `materialize` and the
identity checks - streams sparse columns through a chain of elements: maps
(`LinearMap`), lazy Kronecker products (`KronApply`) and `Composite`s.  The
only code that multiplies is `LinearMap.apply_sparse` (which a `Composite`
shares) and `KronApply.apply_sparse`.  Each takes a block of columns: input
key c*n + j is entry j of the block's column c, its slot, and output key
c*m + r is entry r of that slot (n and m the element's domain and codomain
dims).  A single column is the width-1 block, slot 0, keyed by its
rows, so one kernel serves both.  On both fields the kernels multiply plain
ints: every element keeps its columns `_cols` as int numerators over one
positive int `_den` (a map's, the least common denominator of its entries,
set when it is built: 1 over F_p and for an integer map), and a chain's
denominator is the product of its elements' `_den`.  An identity check seeds
each side with what the other side's denominator adds to its own, so both
stream numerators over one denominator.  The kernels return raw sums: zeros
stay and, over F_p, entries are unreduced ints.  `field.nonzero` drops the
zeros and reduces once per chain and block, at the end of
`chain_apply_basis` and in `apply`, and once per block of a `combine`; over
Q a value is divided by its denominator once, when a dense map is filled,
`apply` returns or a failing column is rendered.

Every element carries its flat `domain_dims` and `codomain_dims`; chains are
matched on those.  A `KronApply` lays out its legs from their dims alone
(memoised) and builds its `domain` and `codomain` only when they are read (a
failing check's witness, `materialize`).  Each factor of a leg has an input
position, side by side for a Kronecker product; identity factors copy their
digits into the output index with no multiplication, and a map leg reads
its column index from its factors' digits wherever they lie.  A wire
(`wire`) is a `KronApply` of identity legs in another order: a permutation
of tensor factors that builds no matrix (`twist` builds a flip dense, for
data).  `law_chains` folds a wire into the layer just outside it, which then
reads each digit where the wire takes it from and keeps the wire's domain,
so the wire costs no kernel pass.  A `Composite` wraps a chain and computes
column j with `chain_apply_basis` the first time it is read, then keeps it,
so a law that stops at a failing column pays only for the columns of the
blocks it streamed.

Columns are streamed in blocks [0], [1, 4], [5, 20], [21, 84], ..., each
four times as wide as the one before, up to `MAX_BLOCK` columns; the cap
bounds what a block holds.  Most failing checks fail at their first or second
column, so the first block is one column wide, and a passing check streams
few blocks.  `materialize`, the hot dense path, streams every column of a
chain so, fills dense rows from the blocks itself and hands its result the
sparse columns.  `combine` is the one linear-combination path: it gives
sum c_k * chain_k in one such pass, each block summed raw across the terms
and reduced once, and `+`, `-`, unary `-` and `scale` of a `LinearMap` are
calls to it.  Every other dense map is filled by `from_entries` from (row,
column, scalar) triples: the structural maps, the unit insertions and counit
contractions, vectors and covectors, and the injections and projections of a
`direct_sum`; it too hands the map its sparse columns, from the triples.
`identity`, `twist` and `wire` are memoised on (field, spaces), and `tensor` on its
argument spaces, so equal arguments give one `Space` object; each keeps the
last few.  `object_memo` keeps the last few values built from whole
structures, keyed by the identity of arguments that it keeps alive.
Identity checks stream both sides block by block and stop at the first block
where they differ; its smallest differing slot is the lexicographically-first
failing basis tuple - the witness reported.  Its `passed` is False at once;
the witness and the rendered residual are computed the first time they are
read, from what the check keeps: the block's first column, the two blocks
of numerators and their shared denominator, the chain's innermost element
(for the basis labels) and the codomain dim.  A reader of verdicts alone
neither searches the blocks nor renders.

A law is data: `(name, lhs, rhs)`, each side a word of tensor layers of named
maps, outermost layer first.  `check_laws` returns a deferred check per law
of a table, `check_law` the one of a single law: the first time a verdict is
read, `law_chains` binds the names and builds the layers, and the two chains
are compared as `check_map_identity` does, so a `ShapeError` from a law's
chains surfaces at that read.  A table's laws share one copy of the maps and
the layers built so far.  `check_map_identity` itself compares at once.
`mirror` moves a law onto the other leg, and `dual` transposes it into the
law of the dual structure (layers reversed; m and Δ, η and ε, ... swapped).  A vector v of V is the map K -> V, 1 -> v (`vector_map`),
and a covector on V the map V -> K (`covector_map`), K the one shared
one-dimensional space; so a law on vectors is a word like any other, and its
witness is K's one basis tuple.

Composition is right-to-left: (f * g) applies g first.  `@` is the Kronecker
product.  All objects are immutable after construction; the spaces of a
`KronApply` and the columns of a `Composite` are filled in when first read,
and are determined by what the object was built from.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, wraps
from itertools import accumulate
from math import gcd, lcm, prod

from .fields import Field, FieldError, Scalar
from .report import IdentityCheck

# the widest block of columns streamed at once; it bounds a block's memory
MAX_BLOCK = 256


class ShapeError(ValueError):
    """Dimension or tensor-factor mismatch."""


@dataclass(frozen=True)
class Space:
    """An ordered-basis vector space; atomic (labels) or a flat tensor product."""

    labels: tuple[str, ...] = ()
    factors: tuple[Space, ...] = ()

    def __post_init__(self):
        if bool(self.labels) == bool(self.factors):
            raise ShapeError("a Space is atomic (labels) or a tensor product (factors), not both")
        # `dim` and `dims` (the flat tuple of factor dimensions) are read on
        # every chain built over the space, so they are set once, here; they
        # are not fields, so equality and hashing still see labels and factors
        dims = (len(self.labels),) if self.labels else tuple(f.dim for f in self.factors)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", prod(dims))

    def basis_tuple(self, i: int) -> tuple[str, ...]:
        """Labels of the atomic legs of basis vector i (row-major)."""
        if self.labels:
            return (self.labels[i],)
        out: list[str] = []
        for f in reversed(self.factors):
            i, j = divmod(i, f.dim)
            out.extend(reversed(f.basis_tuple(j)))
        return tuple(reversed(out))

    def label(self, i: int) -> str:
        t = self.basis_tuple(i)
        return t[0] if len(t) == 1 else "(" + ")(".join(t) + ")"

    def __repr__(self):
        if self.labels:
            return f"Space{self.labels!r}"
        return "(" + " (x) ".join(repr(f) for f in self.factors) + ")"


def space(*labels: str) -> Space:
    return Space(labels=tuple(labels))


# the one shared one-dimensional space that vectors map from and covectors to
K = space("1")


def tensor(*spaces: Space) -> Space:
    """Tensor product, flattened; of one space, that space itself.  Equal
    arguments give the same object while it is among the last few built."""
    return _tensor(*spaces)


@lru_cache(maxsize=8)
def _tensor(*spaces: Space) -> Space:
    flat: list[Space] = []
    for s in spaces:
        if s.factors:
            flat.extend(s.factors)
        else:
            flat.append(s)
    if not flat:
        raise ShapeError("empty tensor product")
    if len(flat) == 1:
        return flat[0]
    return Space(factors=tuple(flat))


def dual_space(v: Space) -> Space:
    if v.labels:
        return Space(labels=tuple(l + "*" for l in v.labels))
    return Space(factors=tuple(dual_space(f) for f in v.factors))


@dataclass(frozen=True)
class LinearMap:
    """A matrix with domain/codomain spaces; rows[i][j] over the fixed bases."""

    field: Field
    domain: Space
    codomain: Space
    rows: tuple[tuple[Scalar, ...], ...]

    # set on the maps that `identity` builds, so KronApply needs no scan; a
    # wire permutes tensor factors and does nothing else (see `law_chains`)
    _is_identity = _is_wire = False

    def __post_init__(self):
        rows, n, m = self.rows, self.domain.dim, self.codomain.dim
        if len(rows) != m:
            raise ShapeError(f"matrix has {len(rows)} rows, codomain dim {m}")
        whole = self.field.whole
        den = 1
        for r in rows:
            if len(r) != n:
                raise ShapeError(f"matrix row has {len(r)} entries, domain dim {n}")
            if not whole.issuperset(map(type, r)):
                den = lcm(den, _lcd(self.field, r, "hold"))
        # read on every chain built over the map, (n, m) by the kernel on
        # every call: plain instance attributes, not fields
        d = self.__dict__
        d["domain_dims"], d["codomain_dims"] = self.domain.dims, self.codomain.dims
        d["_shape"], d["_den"] = (n, m), den

    @cached_property
    def _cols(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # the nonzero entries of each column, as numerators over `_den`
        num = self.field.numerator(self._den)
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.domain.dim)]
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x:
                    cols[j].append((i, num(x)))
        return tuple(map(tuple, cols))

    def apply_sparse(self, col: dict[int, Scalar]) -> dict[int, Scalar]:
        # a block of columns: input key c*n + j is entry j of slot c, output
        # key c*m + r entry r of slot c; raw sums: zeros kept and, over F_p,
        # entries unreduced
        out: dict[int, Scalar] = {}
        get = out.get
        cols = self._cols
        n, m = self._shape
        for k, v in col.items():
            c, j = divmod(k, n)
            base = c * m
            for r, x in cols[j]:
                i = base + r
                cur = get(i)
                out[i] = x * v if cur is None else cur + x * v
        return out

    def apply(self, vec) -> tuple[Scalar, ...]:
        """Application to a coefficient tuple."""
        if len(vec) != self.domain.dim:
            raise ShapeError("vector length does not match domain")
        field = self.field
        den = 1 if field.whole.issuperset(map(type, vec)) else _lcd(field, vec, "take")
        num = field.numerator(den)
        out = field.nonzero(self.apply_sparse({j: num(v) for j, v in enumerate(vec) if v}))
        value, zero = _quotient(field, den * self._den), field.zero
        return tuple(value(out[i]) if i in out else zero for i in range(self.codomain.dim))

    def same_matrix(self, other: LinearMap) -> bool:
        return self._shape == other._shape and self.rows == other.rows

    def transpose(self) -> LinearMap:
        return LinearMap(self.field, dual_space(self.codomain), dual_space(self.domain), tuple(zip(*self.rows)))

    def scale(self, c: Scalar) -> LinearMap:
        return combine([(c, self)])

    def __mul__(self, other):
        if isinstance(other, LinearMap):
            return compose(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __matmul__(self, other: LinearMap) -> LinearMap:
        return kron(self, other)

    def __add__(self, other: LinearMap) -> LinearMap:
        return combine([(self.field.one, self), (self.field.one, other)])

    def __sub__(self, other: LinearMap) -> LinearMap:
        return combine([(self.field.one, self), (-self.field.one, other)])

    def __neg__(self) -> LinearMap:
        return combine([(-self.field.one, self)])

    def __repr__(self):
        return f"LinearMap({self.domain.dim}->{self.codomain.dim})"


def _quotient(field: Field, den: int):
    # the function that makes a numerator over den a field element: `elem`
    # over the denominator 1, else the one division (over Q only)
    if den == 1:
        return field.elem
    div = field.div
    return lambda x: div(x, den)


def _lcd(field: Field, xs, verb: str) -> int:
    # the least common denominator of scalars that are not all `field.whole`
    # (a map's row, a vector it is applied to, coefficients); any type outside
    # field.types is refused (over F_p, where every scalar is whole, that is all it does)
    if not field.types.issuperset(map(type, xs)):
        x = next(x for x in xs if type(x) not in field.types)
        raise FieldError(f"a map over {field!r} cannot {verb} {type(x).__name__} {x!r}")
    return field.lcd(xs)


def from_entries(field: Field, domain: Space, codomain: Space, entries) -> LinearMap:
    """The map with scalar c at (row i, column j) for each triple (i, j, c), zero elsewhere."""
    n, m = domain.dim, codomain.dim
    rows = [[field.zero] * n for _ in range(m)]
    # the last scalar given at each position, keyed j*m + i, so sorted keys run column by column
    at: dict[int, Scalar] = {}
    for i, j, c in entries:
        if not (0 <= i < m and 0 <= j < n):
            raise ShapeError(f"entry ({i}, {j}) lies outside a {m}x{n} matrix")
        rows[i][j] = at[j * m + i] = c
    f = LinearMap(field, domain, codomain, tuple(map(tuple, rows)))
    # its sparse columns from the triples, as `_filled` gives them: no scan of the dense rows
    num = field.numerator(f._den)
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k in sorted(at):
        if c := at[k]:
            j, i = divmod(k, m)
            cols[j].append((i, num(c)))
    f.__dict__["_cols"] = tuple(map(tuple, cols))
    return f


def from_columns(field: Field, domain: Space, codomain: Space, cols) -> LinearMap:
    cols = list(cols)
    if len(cols) != domain.dim or any(len(col) != codomain.dim for col in cols):
        raise ShapeError(f"from_columns needs {domain.dim} columns of length {codomain.dim}")
    return from_entries(
        field, domain, codomain, ((i, j, c) for j, col in enumerate(cols) for i, c in enumerate(col) if c)
    )


def identity(field: Field, v: Space) -> LinearMap:
    return _identity(field, v)


# Structural maps are pure functions of their content key (field, spaces).  Law
# checks ask for the same few again and again, so the last few built are kept;
# the public functions stay plain functions, so a tracer can still wrap them.
@lru_cache(maxsize=8)
def _identity(field: Field, v: Space) -> LinearMap:
    m = from_entries(field, v, v, ((i, i, field.one) for i in range(v.dim)))
    m.__dict__["_is_identity"] = m.__dict__["_is_wire"] = True
    return m


def object_memo(build):
    """`build` memoised on the identity of its arguments, the last few calls kept.

    Each entry keeps its arguments alive, so no other object can take an id of
    its key while it lives: a hit is a call with the very same objects.  For
    values built from structures (algebras, coalgebras), whose content is
    costly to hash; `cache_clear` empties it, as it does an `lru_cache`.
    """
    entries: dict[tuple[int, ...], tuple] = {}

    @wraps(build)
    def memo(*args):
        key = tuple(map(id, args))
        hit = entries.get(key)
        if hit is not None:
            return hit[1]
        if len(entries) >= 8:
            del entries[next(iter(entries))]
        value = build(*args)
        entries[key] = (args, value)
        return value

    memo.cache_clear = entries.clear
    return memo


def zero_map(field: Field, domain: Space, codomain: Space) -> LinearMap:
    return from_entries(field, domain, codomain, ())


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f o g: apply g first."""
    return materialize([f, g])


def kron(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product, row-major: (f@g)[(i1,i2),(j1,j2)] = f[i1,j1]*g[i2,j2]."""
    return materialize([lazy_kron(f, g)])


def twist(field: Field, v: Space, w: Space) -> LinearMap:
    """The flip v (x) w -> w (x) v on basis vectors."""
    return _twist(field, v, w)


@lru_cache(maxsize=8)
def _twist(field: Field, v: Space, w: Space) -> LinearMap:
    n, m = v.dim, w.dim
    flips = ((j * n + i, i * m + j, field.one) for i in range(n) for j in range(m))
    return from_entries(field, tensor(v, w), tensor(w, v), flips)


def direct_sum(field: Field, v: Space, w: Space, vname: str, wname: str):
    """(V (+) W, i_v, i_w, p_v, p_w): basis `vname.x...` then `wname.y...`,
    the injections i_v : V -> V (+) W, i_w : W -> V (+) W and the projections."""
    n, m = v.dim, w.dim
    s = space(*(f"{vname}.{v.label(k)}" for k in range(n)), *(f"{wname}.{w.label(k)}" for k in range(m)))

    def block(dom: Space, cod: Space, di: int, dj: int, k: int) -> LinearMap:
        return from_entries(field, dom, cod, ((di + x, dj + x, field.one) for x in range(k)))

    return s, block(v, s, 0, 0, n), block(w, s, n, 0, m), block(s, v, 0, 0, n), block(s, w, 0, n, m)


class KronApply:
    """Lazy tensor product of maps, usable inside check chains only; legs are
    flattened, so nesting costs nothing.  The legs' factors, in order, are the
    codomain's; factor q of their domains sits at input position
    `_inputs[q]`, side by side unless `inputs` sends position q to inputs[q].
    A digit is (j // s) % d at input stride s; a run of identity factors
    adjacent on both sides, and the slot of a block (j // n, n the domain
    dim), add digit times output stride; a map leg reads its column from its
    factors' digits and adds r * t for each entry r.  `domain` and `codomain`
    are built when first read.
    """

    __slots__ = (
        "legs", "field", "domain_dims", "codomain_dims", "_inputs",
        "_domain", "_codomain", "_slot", "_blocks", "_maps", "_den", "_is_wire",
    )

    def __init__(self, *legs, inputs=None):
        flat: list[ChainElt] = []
        ins: list[int] = []
        for leg in legs:
            at = len(ins)
            if isinstance(leg, KronApply):
                flat += leg.legs
                ins += [at + p for p in leg._inputs]
            else:
                flat.append(leg)
                ins += range(at, at + len(leg.domain_dims))
        if not flat:
            raise ShapeError("empty lazy Kronecker product")
        f0 = flat[0].field
        for leg in flat:
            if leg.field is not f0 and leg.field != f0:
                raise ShapeError("Kronecker product across fields")
        self.legs = tuple(flat)
        self.field = f0
        self._inputs = ins = tuple(ins if inputs is None else [inputs[p] for p in ins])
        self._domain = self._codomain = None
        sig = tuple([(leg.domain_dims, leg.codomain_dims, leg._is_identity) for leg in flat])
        self.domain_dims, self.codomain_dims, self._slot, self._blocks, places = _layout(sig, ins)
        self._maps = tuple([(s, d, rest, t, flat[q]._cols) for s, d, rest, t, q in places])
        self._is_wire = not places
        self._den = prod(leg._den for leg in flat)

    @property
    def domain(self) -> Space:
        if self._domain is None:
            factors = [f for leg in self.legs for f in leg.domain.factors or (leg.domain,)]
            # each factor at its input position (positions are distinct ints)
            self._domain = tensor(*(f for _, f in sorted(zip(self._inputs, factors))))
        return self._domain

    @property
    def codomain(self) -> Space:
        if self._codomain is None:
            self._codomain = tensor(*(l.codomain for l in self.legs))
        return self._codomain

    def apply_sparse(self, col: dict[int, Scalar]) -> dict[int, Scalar]:
        # a block of columns and raw sums, as LinearMap.apply_sparse
        out: dict[int, Scalar] = {}
        get = out.get
        s0, t0 = self._slot
        blocks = self._blocks
        maps = self._maps
        if len(maps) == 1:
            # one map leg: each of its entries is one output term
            ((s1, d1, rest1, t1, cols1),) = maps
            for j, v in col.items():
                base = j // s0 * t0
                for s, d, t in blocks:
                    base += j // s % d * t
                k = j // s1 % d1
                for s, d in rest1:
                    k = k * d + j // s % d
                for r, m in cols1[k]:
                    idx = base + r * t1
                    cur = get(idx)
                    out[idx] = m * v if cur is None else cur + m * v
            return out
        for j, v in col.items():
            base = j // s0 * t0
            for s, d, t in blocks:
                base += j // s % d * t
            terms: list[tuple[int, Scalar]] = [(base, v)]
            for s1, d1, rest1, t1, cols in maps:
                k = j // s1 % d1
                for s, d in rest1:
                    k = k * d + j // s % d
                terms = [(b + r * t1, x * m) for b, x in terms for r, m in cols[k]]
            for idx, val in terms:
                cur = get(idx)
                out[idx] = val if cur is None else cur + val
        return out

    def __repr__(self):
        return f"KronApply({prod(self.domain_dims)}->{prod(self.codomain_dims)})"


@lru_cache(maxsize=1024)
def _layout(sig: tuple, ins: tuple[int, ...]) -> tuple:
    # a KronApply's dims, slot, identity blocks and, per map leg right to left,
    # (input stride, dim, further digits, output stride, leg index), from each
    # leg's (domain dims, codomain dims, identity flag) and the `_inputs`
    dims = [d for dd, _, _ in sig for d in dd]
    dom = [0] * len(dims)
    for q, p in enumerate(ins):
        dom[p] = dims[q]
    strides = [1] * len(dom)
    n = 1
    for p in range(len(dom) - 1, -1, -1):
        strides[p] = n
        n *= dom[p]
    blocks: list[tuple[int, int, int]] = []
    places: list[tuple] = []
    cod: list[int] = []
    t, a = 1, len(ins)
    for q in range(len(sig) - 1, -1, -1):
        dd, cd, is_identity = sig[q]
        cod[:0] = cd
        a -= len(dd)
        if is_identity:
            for p in reversed(ins[a : a + len(dd)]):
                s, d = strides[p], dom[p]
                if d == 1:
                    continue
                if blocks and blocks[-1][0] * blocks[-1][1] == s and blocks[-1][2] * blocks[-1][1] == t:
                    s, e, u = blocks.pop()
                    blocks.append((s, e * d, u))
                else:
                    blocks.append((s, d, t))
                t *= d
            continue
        digits: list[tuple[int, int]] = []
        for p in ins[a : a + len(dd)]:
            s, d = strides[p], dom[p]
            if d == 1:
                continue
            if digits and digits[-1][0] == s * d:
                digits[-1] = (s, digits[-1][1] * d)
            else:
                digits.append((s, d))
        (s, d), *rest = digits or [(1, 1)]
        places.append((s, d, tuple(rest), t, q))
        t *= prod(cd)
    # the slot: (input stride, output stride), merged with a run at the top of both sides
    slot = (n, t)
    if blocks and blocks[-1][0] * blocks[-1][1] == n and blocks[-1][2] * blocks[-1][1] == t:
        s, _, u = blocks.pop()
        slot = (s, u)
    return tuple(dom), tuple(cod), slot, tuple(blocks), tuple(places)


def wire(field: Field, spaces: Sequence[Space], order: Sequence[int]) -> KronApply:
    """The permutation spaces[0] (x) ... -> spaces[order[0]] (x) ... of tensor
    factors: identity legs in another order, no matrix built; `twist(field,
    v, w)` is `wire(field, (v, w), (1, 0))` as a dense map.  Memoised."""
    return _wire(field, tuple(spaces), tuple(order))


@lru_cache(maxsize=8)
def _wire(field: Field, spaces: tuple[Space, ...], order: tuple[int, ...]) -> KronApply:
    if sorted(order) != list(range(len(spaces))):
        raise ShapeError(f"order {tuple(order)} does not permute {len(spaces)} spaces")
    first = list(accumulate((len(s.dims) for s in spaces), initial=0))
    inputs = [first[k] + i for k in order for i in range(len(spaces[k].dims))]
    return KronApply(*(identity(field, spaces[k]) for k in order), inputs=inputs)


class _Columns(dict):
    """Column j of a chain, sorted numerators over the chain's denominator,
    computed the first time it is read."""

    __slots__ = ("chain", "field")

    def __missing__(self, j: int) -> tuple[tuple[int, Scalar], ...]:
        col = self[j] = tuple(sorted(chain_apply_basis(self.chain, j, self.field).items()))
        return col


class Composite:
    """A chain read as one map, each column computed once, when first read.

    `_cols` has the shape of `LinearMap._cols`, numerators over `_den`, the
    chain's denominator, so the composite works as a chain element (through
    `LinearMap.apply_sparse`) and as a Kronecker leg.
    A law that fails at its first column computes only the columns that
    column's block reaches, and a column read again costs a dict lookup.  The
    columns live as long as the composite; nothing is cached across
    composites.
    """

    __slots__ = ("chain", "field", "domain_dims", "codomain_dims", "_shape", "_cols", "_den")
    _is_identity = _is_wire = False

    def __init__(self, chain: Chain):
        chain, self._den = _as_chain(chain)
        self.chain = chain
        self.field = chain[0].field
        self.domain_dims = chain[-1].domain_dims
        self.codomain_dims = chain[0].codomain_dims
        self._shape = (prod(self.domain_dims), prod(self.codomain_dims))
        cols = self._cols = _Columns()
        cols.chain, cols.field = chain, self.field

    @property
    def domain(self) -> Space:
        return self.chain[-1].domain

    @property
    def codomain(self) -> Space:
        return self.chain[0].codomain

    @property
    def rows(self) -> tuple[Sequence[Scalar], ...]:
        """Rows as read-only views, for readers of a map's `rows` (perfbench's
        tracer tests each Kronecker leg for the identity this way): entry
        (i, j) computes column j only."""
        n, m = self._shape
        return tuple(_Row(self, i, n) for i in range(m))

    apply_sparse = LinearMap.apply_sparse

    def __repr__(self):
        return f"Composite({prod(self.domain_dims)}->{prod(self.codomain_dims)})"


class _Row(Sequence):
    __slots__ = ("_of", "_i", "_n")

    def __init__(self, of: Composite, i: int, n: int):
        self._of, self._i, self._n = of, i, n

    def __len__(self):
        return self._n

    def __getitem__(self, j: int) -> Scalar:
        if not 0 <= j < self._n:
            raise IndexError(j)
        of = self._of
        for r, x in of._cols[j]:
            if r == self._i:
                return _quotient(of.field, of._den)(x)
        return of.field.zero


ChainElt = LinearMap | KronApply | Composite
Chain = ChainElt | list | tuple
# (name, lhs, rhs): each side a list of layers, a layer a name or a tuple of names
Law = tuple[str, list, list]


def lazy_kron(*legs) -> KronApply:
    return KronApply(*legs)


def _as_chain(x: Chain) -> tuple[list[ChainElt], int]:
    # the chain, its elements checked to compose, and its denominator: the
    # product of their `_den`
    if isinstance(x, (LinearMap, KronApply, Composite)):
        return [x], x._den
    chain = list(x)
    if not chain:
        raise ShapeError("empty composition chain")
    den = chain[0]._den
    for outer, inner in zip(chain, chain[1:]):
        if outer.field != inner.field:
            raise ShapeError("composition across fields")
        if outer.domain_dims != inner.codomain_dims:
            raise ShapeError(f"chain mismatch: {outer.domain_dims} vs {inner.codomain_dims}")
        den *= inner._den
    return chain, den


def _seed(lo: int, hi: int, n: int, x: int) -> dict[int, int]:
    # the block x*e_lo, ..., x*e_(hi-1) of an n-dim domain: slot c holds
    # x*e_(lo + c) at key c*n + lo + c (a loop: as a comprehension, whose
    # frame every single column pays, it cost 2 % of the CLI catalogue's time)
    col = {lo: x}
    for c in range(1, hi - lo):
        col[lo + c * (n + 1)] = x
    return col


@lru_cache(maxsize=64)
def _schedule(n: int) -> tuple[tuple[int, int], ...]:
    """The blocks (lo, hi) that stream columns 0..n-1: [0], [1, 4], [5, 20], [21, 84], ...,
    each four times as wide as the one before, up to MAX_BLOCK."""
    out = []
    lo, width = 0, 1
    while lo < n:
        hi = min(n, lo + width)
        out.append((lo, hi))
        lo, width = hi, min(4 * width, MAX_BLOCK)
    return tuple(out)


def chain_apply_basis(
    chain: list[ChainElt], j: int, field: Field, hi: int | None = None, x: int = 1
) -> dict[int, int]:
    """Column j of the composite or, given `hi`, the block of columns j..hi-1,
    whose key c*m + r holds entry r of column j + c (m the codomain dim), each
    times x: numerators over the chain's denominator (see `_as_chain`),
    zeros dropped, reduced once at the end."""
    col = _seed(j, j + 1 if hi is None else hi, prod(chain[-1].domain_dims), x)
    for elt in reversed(chain):
        if not col:
            break
        col = elt.apply_sparse(col)
    return field.nonzero(col)


def materialize(chain: Chain) -> LinearMap:
    """Every column of the chain, streamed in blocks, as dense rows (small shapes only)."""
    chain, den = _as_chain(chain)
    field = chain[0].field
    return _filled(
        field, chain[-1].domain, chain[0].codomain, lambda lo, hi: chain_apply_basis(chain, lo, field, hi), den
    )


def combine(terms) -> LinearMap:
    """The linear combination sum c_k * chain_k of (scalar, chain) pairs, as one dense map.

    The terms share a field and a shape (domain and codomain dims), and the
    first term gives the result its spaces.  Each column is computed once for
    all terms: every nonzero term's chain is applied to e_j times an int
    seed, c_k's numerator scaled so that all terms are numerators over one
    denominator (the coefficients' least common one times the lcm of the
    chains'), the raw sums are added, and the total is reduced once and
    divided once.  A zero coefficient skips its term, which still fixes the
    shape, so an all-zero combination is the zero map.  A coefficient outside the field's `types` is refused with
    FieldError.
    """
    terms = [(c, *_as_chain(chain)) for c, chain in terms]
    if not terms:
        raise ShapeError("empty linear combination")
    first = terms[0][1]
    field = first[0].field
    n = prod(first[-1].domain_dims)
    m = prod(first[0].codomain_dims)
    l = 1  # the lcm of the chains' denominators
    for _, chain, d in terms:
        if chain[0].field != field:
            raise ShapeError("maps over different fields")
        if prod(chain[-1].domain_dims) != n or prod(chain[0].codomain_dims) != m:
            raise ShapeError("map shapes differ")
        if d != 1:
            l = lcm(l, d)
    coeffs = [c for c, _, _ in terms]
    b = 1 if field.whole.issuperset(map(type, coeffs)) else _lcd(field, coeffs, "scale by")
    # the coefficients as numerators over b, and each nonzero term as (its
    # seed, its elements innermost first): all terms are then over b * l
    num = field.numerator(b)
    live = [(a * (l // d), chain[::-1]) for c, chain, d in terms if (a := num(c))]

    def block(lo: int, hi: int) -> dict[int, int]:
        total: dict[int, int] = {}
        for c, elts in live:
            col = _seed(lo, hi, n, c)
            for elt in elts:
                if not col:
                    break
                col = elt.apply_sparse(col)
            if not total:
                total = col
                continue
            get = total.get
            for i, x in col.items():
                cur = get(i)
                total[i] = x if cur is None else cur + x
        return field.nonzero(total)

    return _filled(field, first[-1].domain, first[0].codomain, block, b * l)


def _filled(field: Field, domain: Space, codomain: Space, block, den: int) -> LinearMap:
    # the dense map whose columns lo..hi-1 are block(lo, hi) over den, a block
    # of numerators as `chain_apply_basis` gives it; its sorted columns, over
    # the map's own `_den`, are the sparse columns the kernels read: those a
    # scan of its rows gives
    n, m = domain.dim, codomain.dim
    value = _quotient(field, den)
    rows = [[field.zero] * n for _ in range(m)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for lo, hi in _schedule(n):
        # key k of the block is entry i of column j, for j*m + i = k + lo*m
        off = lo * m
        for k, x in sorted(block(lo, hi).items()):
            j, i = divmod(k + off, m)
            cols[j].append((i, x))
            rows[i][j] = value(x)
    f = LinearMap(field, domain, codomain, tuple(map(tuple, rows)))
    if den != f._den:
        # the least common denominator of the entries divides den
        g = den // f._den
        cols = [[(i, x // g) for i, x in col] for col in cols]
    f.__dict__["_cols"] = tuple(map(tuple, cols))
    return f


def check_map_identity(name: str, lhs: Chain, rhs: Chain) -> IdentityCheck:
    """Compare two composites block by block; witness = first failing basis tuple.

    A failure's witness and residual are computed when first read (see
    `IdentityCheck.failed`).
    """
    lc, dl = _as_chain(lhs)
    rc, dr = _as_chain(rhs)
    field = lc[0].field
    if field != rc[0].field:
        raise ShapeError("identity sides over different fields")
    dom_dim = prod(lc[-1].domain_dims)
    if dom_dim != prod(rc[-1].domain_dims):
        raise ShapeError(f"identity domains differ: {dom_dim} vs {prod(rc[-1].domain_dims)}")
    cod_dim = prod(lc[0].codomain_dims)
    if cod_dim != prod(rc[0].codomain_dims):
        raise ShapeError(f"identity codomains differ: {cod_dim} vs {prod(rc[0].codomain_dims)}")
    # both sides as numerators over the lcm of their denominators: each is
    # seeded with what the other side's denominator adds to its own, so
    # sides of one denominator compare their raw blocks
    g = gcd(dl, dr)
    for lo, hi in _schedule(dom_dim):
        left = chain_apply_basis(lc, lo, field, hi, dr // g)
        right = chain_apply_basis(rc, lo, field, hi, dl // g)
        if left != right:
            return IdentityCheck.failed(
                name, partial(_block_failure, field, lc[-1], cod_dim, lo, left, right, dl // g * dr)
            )
    return IdentityCheck(name, True)


def _block_failure(field: Field, inner: ChainElt, cod_dim: int, lo: int, left, right, den: int) -> tuple:
    """(witness, residual) of two differing blocks of numerators over den,
    from column lo: their first failing column is the slot that holds the
    smallest key where they differ, the witness the basis tuple of that input
    of the chain's innermost element, and the residual (left - right)/den of
    that slot rendered."""
    first = min(left.items() ^ right.items())[0]
    base = first - first % cod_dim
    # only the keys of the two blocks can differ; they hold ints, so 0 is
    # zero, and render reduces the difference over F_p
    value, render = _quotient(field, den), field.render
    zero = render(field.zero)
    residual = tuple(
        render(value(left.get(k, 0) - right.get(k, 0))) if k in left or k in right else zero
        for k in range(base, base + cod_dim)
    )
    return inner.domain.basis_tuple(lo + base // cod_dim), residual


def mirror(law: Law, prefix: str = "left-") -> Law:
    """The same law on the other leg: every tuple layer reversed, name prefixed `prefix`."""
    name, lhs, rhs = law

    def flip(side):
        return [w[::-1] if isinstance(w, tuple) else w for w in side]

    return (prefix + name, flip(lhs), flip(rhs))


# the involution of `dual` on map names and on the words of a law's name
_DUALS = {"m": "Δ", "η": "ε", "A": "C", "B": "D", "ρ": "δ", "unit": "counit"}
_DUALS |= {w: "co" + w for w in ("associativity", "multiplicativity", "action")}
_DUALS |= {v: k for k, v in _DUALS.items()}


def dual(law: Law) -> Law:
    """The transposed law, that of the dual structure: each side's layers reversed, each map
    name and `-`-separated word of the law's name swapped by `_DUALS`, leg order kept."""
    name, lhs, rhs = law
    word = _DUALS.get

    def swap(side):
        return [tuple(word(n, n) for n in w) if isinstance(w, tuple) else word(w, w) for w in reversed(side)]

    return ("-".join(word(w, w) for w in name.split("-")), swap(lhs), swap(rhs))


def law_chains(
    law: Law, maps: dict, built: dict | None = None
) -> tuple[list[ChainElt], list[ChainElt]]:
    """The two sides of the law `(name, lhs, rhs)` as chains over the bound maps.

    Each side lists its layers outermost first.  A layer is a bound name, or a
    tuple of names tensored left to right; a tuple bound as a whole (a unit
    insertion such as ("B", "η")) is looked up before it is split.  A layer
    that is a wire (its legs all identities) is folded into the layer just
    outside it when their dims match, so it costs no kernel pass; a side's
    outermost wire stays a layer.  Each distinct layer and fold is built
    once, so the two sides share their lazy Kronecker products; `built`, a
    dict kept across calls over the same maps, shares them across laws too.
    """
    _, lhs, rhs = law
    if built is None:
        built = {}
    return _side(lhs, maps, built), _side(rhs, maps, built)


def _side(words: list, maps: dict, built: dict) -> list[ChainElt]:
    # innermost first, each layer built once under its key: its word, or, for a
    # layer a wire is folded into, both keys marked apart from every word
    chain: list[ChainElt] = []
    key = None
    for w in reversed(words):
        bound = isinstance(w, str) or w in maps
        if chain and chain[-1]._is_wire:
            inner, fold = chain[-1], (_side, w, key)
            layer = built.get(fold)
            if layer is None:
                legs = (maps[w],) if bound else [maps[n] for n in w]
                if [d for leg in legs for d in leg.domain_dims] == list(inner.codomain_dims):
                    layer = built[fold] = KronApply(*legs, inputs=getattr(inner, "_inputs", None))
                    layer._domain = inner.domain
            if layer is not None:
                chain[-1], key = layer, fold
                continue
        layer = built.get(w)
        if layer is None:
            layer = built[w] = maps[w] if bound else lazy_kron(*(maps[n] for n in w))
        chain.append(layer)
        key = w
    return chain[::-1]


def check_laws(table, maps: dict) -> tuple[IdentityCheck, ...]:
    """Evaluate each law `(name, lhs, rhs)` of the table on the maps bound to its names.

    The checks are deferred: `law_chains` binds and builds a law's layers, and
    the columns are streamed, the first time its verdict is read, against the
    maps bound when `check_laws` was called.  The maps are copied once for
    the table, and a layer two laws share is built once.  A `ShapeError` from
    a law's chains surfaces at that read.
    """
    maps, built = dict(maps), {}
    return tuple(IdentityCheck.deferred(law[0], partial(_law_verdict, law, maps, built)) for law in table)


def check_law(law: Law, maps: dict) -> IdentityCheck:
    """`check_laws` of the one-law table."""
    return check_laws((law,), maps)[0]


def _law_verdict(law: Law, maps: dict, built: dict) -> IdentityCheck:
    # bound through the module-level names, which a tracer may wrap
    return check_map_identity(law[0], *law_chains(law, maps, built))


def is_invertible(f: LinearMap) -> bool:
    """True iff the matrix is square of full rank: one fraction-free (Bareiss)
    elimination over Z, on both fields, of the map's rows times `_den` as
    ints, which keeps the rank.  The last pivot is then plus or minus the
    integer determinant, and the verdict is whether it is nonzero in the
    field, so over F_p a pivot that vanishes mod p ends nothing early."""
    n = f.domain.dim
    if f.codomain.dim != n:
        raise ShapeError("invertibility requires a square matrix")
    # rows left, cut to the columns left, each with the pivot it was last updated
    # at, d: its Bareiss value is row * last / d, so a zero under a pivot costs nothing
    rows = [(list(map(f.field.numerator(f._den), row)), 1) for row in f.rows]
    last = 1
    while rows:
        i = next((i for i, (r, _) in enumerate(rows) if r[0]), None)
        if i is None:
            return False
        top, d = rows.pop(i)
        top = top if d == last else [a * last // d for a in top]
        pk, tail = top[0], top[1:]
        rows = [([(pk * a - r[0] * b) // d for a, b in zip(r[1:], tail)], pk) if r[0] else (r[1:], d) for r, d in rows]
        last = pk
    return bool(f.field.nonzero({0: last}))


def tensor_vec(v, w) -> tuple:
    return tuple(a * b for a in v for b in w)


def _vector_map(field: Field, vec, w: Space, v: Space, dom: Space, cod: Space, strides) -> LinearMap:
    # vec[k] (vec on W) at (rj*j + rk*k, cj*j + ck*k) for each j < dim V; strides = (rj, rk, cj, ck)
    vec = tuple(vec)
    if len(vec) != w.dim:
        raise ShapeError(f"a vector of length {len(vec)} on a space of dim {w.dim}")
    rj, rk, cj, ck = strides
    entries = ((rj * j + rk * k, cj * j + ck * k, c) for j in range(v.dim) for k, c in enumerate(vec) if c)
    return from_entries(field, dom, cod, entries)


def insert_right(field: Field, v: Space, w_vec, w: Space) -> LinearMap:
    """V -> V (x) W, x -> x (x) w."""
    return _vector_map(field, w_vec, w, v, v, tensor(v, w), (w.dim, 1, 1, 0))


def insert_left(field: Field, w_vec, w: Space, v: Space) -> LinearMap:
    """V -> W (x) V, x -> w (x) x."""
    return _vector_map(field, w_vec, w, v, v, tensor(w, v), (1, v.dim, 1, 0))


def contract_right(field: Field, v: Space, phi, w: Space) -> LinearMap:
    """V (x) W -> V, x (x) y -> phi(y) x."""
    return _vector_map(field, phi, w, v, tensor(v, w), v, (1, 0, w.dim, 1))


def contract_left(field: Field, phi, w: Space, v: Space) -> LinearMap:
    """W (x) V -> V, y (x) x -> phi(y) x."""
    return _vector_map(field, phi, w, v, tensor(w, v), v, (1, 0, 1, v.dim))


def vector_map(field: Field, vec, v: Space) -> LinearMap:
    """The vector vec of V as the map K -> V, 1 -> vec."""
    return _vector_map(field, vec, v, K, K, v, (0, 1, 0, 0))


def covector_map(field: Field, phi, v: Space) -> LinearMap:
    """The covector phi on V as the map V -> K, x -> phi(x) 1."""
    return _vector_map(field, phi, v, K, v, K, (0, 0, 0, 1))
