"""Built-in example structures and the named-instance grammar.

The registry covers commutative and noncommutative algebras, quotient
algebras, bialgebras with and without a group-like bilateral integral, and a
group-like coalgebra, all of dimension at most four with integral structure
constants — so every verdict is meaningful over any coefficient field.

Every name is written once, as a key of a table: `ALGEBRAS`, `COALGEBRAS`
and `BIALGEBRAS` map each registry name to its builder, and `INSTANCE_HEADS`
and `WRAPPERS` give each head and prefix of an instance expression (such as
`mult_twist@Kx3,q=1/2` or `dual:quad@p=1,q=2`) with its `entwiner list` line.
The lookups, `resolve_instance`, `INSTANCE_GRAMMAR` and `entwiner list` all
read these tables, so a name that `list` does not show does not resolve.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

from .entwine import (
    EntwiningData,
    comm_twist,
    doi_koppinen,
    module_entwining,
    mult_twist,
    transpose_entwining,
)
from .fields import Field, Scalar
from .linalg import LinearMap, ShapeError, Space, from_columns, from_entries, space, tensor, twist
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    ComoduleCoaction,
    ModuleAction,
    convolution_algebra,
    dualize_algebra,
    regular_module,
)


def algebra_from_products(field, labels, products, unit) -> Algebra:
    """Assemble an algebra from the product vectors of basis pairs."""
    sp = space(*labels)
    n = sp.dim
    cols = tuple(tuple(products[(i, j)]) for i in range(n) for j in range(n))
    mult = from_columns(field, tensor(sp, sp), sp, cols)
    return Algebra(field, sp, mult, tuple(unit))


def ground_field(field) -> Algebra:
    one = field.one
    return algebra_from_products(field, ("1",), {(0, 0): (one,)}, (one,))


def quadratic_algebra(field, p: Scalar) -> Algebra:
    """K[x]/(x^2 - p)."""
    o, z = field.one, field.zero
    products = {(0, 0): (o, z), (0, 1): (z, o), (1, 0): (z, o), (1, 1): (p, z)}
    return algebra_from_products(field, ("1", "x"), products, (o, z))


def truncated_cubic(field) -> Algebra:
    """K[x]/(x^3)."""
    o, z = field.one, field.zero
    products = {
        (0, 0): (o, z, z),
        (0, 1): (z, o, z),
        (0, 2): (z, z, o),
        (1, 0): (z, o, z),
        (1, 1): (z, z, o),
        (1, 2): (z, z, z),
        (2, 0): (z, z, o),
        (2, 1): (z, z, z),
        (2, 2): (z, z, z),
    }
    return algebra_from_products(field, ("1", "x", "x2"), products, (o, z, z))


def matrix_algebra(field) -> Algebra:
    """2x2 matrices on the matrix-unit basis."""
    o, z = field.one, field.zero
    products = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    vec = [z, z, z, z]
                    if j == k:
                        vec[i * 2 + l] = o
                    products[(i * 2 + j, k * 2 + l)] = tuple(vec)
    return algebra_from_products(
        field, ("e00", "e01", "e10", "e11"), products, (o, z, z, o)
    )


def _grouplike_comult(field, sp: Space) -> LinearMap:
    n = sp.dim
    return from_entries(field, sp, tensor(sp, sp), ((i * n + i, i, field.one) for i in range(n)))


def group_bialgebra_z2(field) -> Bialgebra:
    """K[Z/2]: basis 1, g with g^2 = 1, both group-like."""
    o, z = field.one, field.zero
    products = {(0, 0): (o, z), (0, 1): (z, o), (1, 0): (z, o), (1, 1): (o, z)}
    a = algebra_from_products(field, ("1", "g"), products, (o, z))
    comult = _grouplike_comult(field, a.space)
    return Bialgebra(field, a.space, a.mult, a.unit, comult, (o, o))


def monoid_bialgebra(field) -> Bialgebra:
    """K[{1, z}] with z absorbing (z^2 = z), both elements group-like."""
    o, zz = field.one, field.zero
    products = {(0, 0): (o, zz), (0, 1): (zz, o), (1, 0): (zz, o), (1, 1): (zz, o)}
    a = algebra_from_products(field, ("1", "z"), products, (o, zz))
    comult = _grouplike_comult(field, a.space)
    return Bialgebra(field, a.space, a.mult, a.unit, comult, (o, o))


def grouplike_coalgebra(field) -> Coalgebra:
    """Two group-like basis elements and nothing else."""
    sp = space("g0", "g1")
    return Coalgebra(
        field, sp, _grouplike_comult(field, sp), (field.one, field.one)
    )


def _quadratic(p: int, field) -> Algebra:
    return quadratic_algebra(field, field.from_int(p))


def _algebra_of(name: str, field) -> Algebra:
    return bialgebra(name, field).algebra


def _coalgebra_of(name: str, field) -> Coalgebra:
    return bialgebra(name, field).coalgebra


def _dual_algebra(name: str, field) -> Algebra:
    return convolution_algebra(coalgebra(name, field))


def _dual_coalgebra(name: str, field) -> Coalgebra:
    return dualize_algebra(algebra(name, field))


# Each registry name, mapped to the builder of its structure over a field.
# The lookups below, the instance heads and `entwiner list` read these
# tables; any other name is refused.
BIALGEBRAS = {"KZ2": group_bialgebra_z2, "Kmono": monoid_bialgebra}
ALGEBRAS = {
    "K": ground_field,
    **{f"Kx2-{p}": partial(_quadratic, p) for p in range(3)},
    "Kx3": truncated_cubic,
    "M2": matrix_algebra,
    **{name: partial(_algebra_of, name) for name in BIALGEBRAS},
    "GL2*": partial(_dual_algebra, "GL2"),
}
COALGEBRAS = {
    "GL2": grouplike_coalgebra,
    **{name: partial(_coalgebra_of, name) for name in BIALGEBRAS},
    # a dual's dual is the structure itself, so it gets no second name
    **{f"{name}*": partial(_dual_coalgebra, name) for name in ALGEBRAS if not name.endswith("*")},
}
ALGEBRA_NAMES = tuple(ALGEBRAS)
BIALGEBRA_NAMES = tuple(BIALGEBRAS)
COALGEBRA_NAMES = tuple(COALGEBRAS)


def _build(table: dict, what: str, name: str, field):
    build = table.get(name)
    if build is None:
        raise ShapeError(f"unknown registry {what} '{name}'")
    return build(field)


def bialgebra(name: str, field) -> Bialgebra:
    return _build(BIALGEBRAS, "bialgebra", name, field)


def algebra(name: str, field) -> Algebra:
    return _build(ALGEBRAS, "algebra", name, field)


def coalgebra(name: str, field) -> Coalgebra:
    return _build(COALGEBRAS, "coalgebra", name, field)


# ---------------------------------------------------------------------------
# modules, comodules, deterministic randomness


def character_module(a: Algebra, values: tuple[Scalar, ...]) -> ModuleAction:
    """One-dimensional module where basis element a_j acts by the scalar values[j]."""
    m = space("m")
    act = LinearMap(a.field, tensor(m, a.space), m, (tuple(values),))
    return ModuleAction(a, m, act)


def trivial_module(h: Bialgebra) -> ModuleAction:
    return character_module(h.algebra, h.counit)


def sign_module(h: Bialgebra) -> ModuleAction:
    """g acts by -1 on a one-dimensional carrier (for a dim-2 group bialgebra)."""
    return character_module(h.algebra, (h.field.one, -h.field.one))


def self_module(h: Bialgebra) -> ModuleAction:
    return regular_module(h.algebra)


def self_comodule(h: Bialgebra) -> ComoduleCoaction:
    return ComoduleCoaction(h.coalgebra, h.space, h.comult)


def parity_comodule(h: Bialgebra) -> tuple[ComoduleCoaction, Coalgebra]:
    """The dual of K[x]/(x^2), graded by the second group-like of H (x* odd).

    The grading makes it an H-comodule coalgebra: the odd part sits in the
    counit's kernel, so the coaction is compatible with both Delta and eps.
    """
    field = h.field
    c = dualize_algebra(quadratic_algebra(field, field.zero))
    hd = h.space.dim
    grades = (h.unit, tuple(field.one if j == 1 else field.zero for j in range(hd)))
    rows = tuple(
        tuple(grades[k][j] if l == k else field.zero for k in range(2))
        for l in range(2)
        for j in range(hd)
    )
    coact = LinearMap(field, c.space, tensor(c.space, h.space), rows)
    return ComoduleCoaction(h.coalgebra, c.space, coact), c


def random_entwining_matrix(field, left: Space, right: Space, seed: int) -> LinearMap:
    """Seeded map left (x) right -> right (x) left with entries from {-1, 0, 1}.

    Its sparse columns, which the kernels read, are filled as its rows are
    drawn, so no second pass reads them off the rows."""
    # rng.randrange(-1, 2) draws getrandbits(2) until it is below 3; drawing
    # the same bits here gives the same matrices without its per-call checks
    bits = random.Random(seed).getrandbits
    entries = tuple(map(field.from_int, (-1, 0, 1)))
    # the nonzero draws -1 and 1 as the kernels read them, plain
    minus, plus = field.plain(entries[0]), field.plain(entries[2])
    dim = left.dim * right.dim
    rows = []
    cols = [[] for _ in range(dim)]
    for i in range(dim):
        row = []
        for col in cols:
            r = bits(2)
            while r == 3:
                r = bits(2)
            row.append(entries[r])
            if r != 1:
                col.append((i, plus if r else minus))
        rows.append(tuple(row))
    psi = LinearMap(field, tensor(left, right), tensor(right, left), tuple(rows))
    object.__setattr__(psi, "_cols", tuple(map(tuple, cols)))
    return psi


def corrupt_map(m: LinearMap) -> LinearMap:
    """Bump the matrix entry in the first row and last column by one."""
    last = m.domain.dim - 1
    rows = tuple(
        tuple(v + m.field.one if (r == 0 and j == last) else v for j, v in enumerate(vals))
        for r, vals in enumerate(m.rows)
    )
    return LinearMap(m.field, m.domain, m.codomain, rows)


# ---------------------------------------------------------------------------
# named entwining instances


def make_twist(b: Algebra, a: Algebra) -> EntwiningData:
    psi = twist(a.field, b.space, a.space)
    return EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=b)


def make_cotwist(d: Coalgebra, c: Coalgebra) -> EntwiningData:
    psi = twist(c.field, d.space, c.space)
    return EntwiningData(kind="cofactorization", psi=psi, coalgebra=c, left_coalgebra=d)


def make_mult_twist(a: Algebra, q: Scalar) -> EntwiningData:
    return EntwiningData(
        kind="factorization", psi=mult_twist(a, q), algebra=a, left_algebra=a
    )


def make_comm_twist(a: Algebra, q: Scalar) -> EntwiningData:
    return EntwiningData(
        kind="factorization", psi=comm_twist(a, q), algebra=a, left_algebra=a
    )


def make_module_instance(a: Algebra) -> EntwiningData:
    psi = module_entwining(regular_module(a))
    return EntwiningData(kind="semi", psi=psi, algebra=a)


def quad_factorization(field, p: Scalar, q: Scalar) -> EntwiningData:
    """psi on K[x]/(x^2-p): 1,x flip through, and x (x) x -> q 1 (x) 1 - x (x) x."""
    a = quadratic_algebra(field, p)
    o, z = field.one, field.zero
    cols = (
        (o, z, z, z),
        (z, z, o, z),
        (z, o, z, z),
        (q, z, z, -o),
    )
    aa = tensor(a.space, a.space)
    psi = from_columns(field, aa, aa, cols)
    return EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=a)


# the H-modules a crossed instance names, each built from the bialgebra H
DK_MODULES = {"trivial": trivial_module, "sign": sign_module, "regular": self_module}


def make_crossed(hname: str, modname: str, field, alt: bool = False) -> EntwiningData:
    """Entwining from an H-comodule (co)algebra and a named H-module.

    The plain form entwines H (as a comodule algebra over itself) with a
    module carrier; the alt form entwines a parity-graded comodule coalgebra
    with the same module carriers, landing on the coalgebra side.  The
    regular module's carrier is H itself, so it entwines two (co)algebras.
    """
    h = bialgebra(hname, field)
    mod = DK_MODULES[modname](h)
    if alt:
        comod, c = parity_comodule(h)
        psi = doi_koppinen(h, comod, mod)
        if modname == "regular":
            return EntwiningData(
                kind="cofactorization", psi=psi, coalgebra=c, left_coalgebra=h.coalgebra
            )
        return EntwiningData(kind="cosemi", psi=psi, coalgebra=c)
    psi = doi_koppinen(h, self_comodule(h), mod)
    if modname == "regular":
        return EntwiningData(
            kind="factorization", psi=psi, algebra=h.algebra, left_algebra=h.algebra
        )
    return EntwiningData(kind="semi", psi=psi, algebra=h.algebra)


# head -> (the registry lookup for each positional name, the scalar keys it
# needs, each once, its builder, its `entwiner list` line).  The builder takes
# the looked-up structures (or the field, when the head names none), then the
# scalars in key order.
INSTANCE_HEADS = {
    "twist": ((algebra, algebra), (), make_twist,
              "twist@B,A           tensor-swap entwining of registry algebras B, A"),
    "cotwist": ((coalgebra, coalgebra), (), make_cotwist,
                "cotwist@D,C         tensor-swap entwining of registry coalgebras D, C"),
    "mult_twist": ((algebra,), ("q",), make_mult_twist,
                   "mult_twist@A,q=Q    a(x)b -> 1(x)ab + q(ab(x)1) - q(b(x)a)"),
    "comm_twist": ((algebra,), ("q",), make_comm_twist,
                   "comm_twist@A,q=Q    a(x)b -> b(x)a + q(ab-ba)(x)1"),
    "module": ((algebra,), (), make_module_instance,
               "module@A            b(x)a -> 1(x)ba from the regular action"),
    "quad": ((), ("p", "q"), quad_factorization,
             "quad@p=P,q=Q        two-generator factorization of K[x]/(x^2-p)"),
    **{
        f"{form}-{hname}-{modname}": ((), (), partial(make_crossed, hname, modname, alt=alt), line)
        for form, alt, line in (
            ("dk", False, "dk-H-M              crossed entwining of bialgebra H with module M"),
            ("dkalt", True, "dkalt-H-M           its coalgebra-side variant"),
        )
        for hname in BIALGEBRAS
        for modname in DK_MODULES
    },
}


def _corrupt(e: EntwiningData) -> EntwiningData:
    return replace(e, psi=corrupt_map(e.psi))


# prefix -> (its map of the inner expression's data, the kind that data must
# have or None, its `entwiner list` line)
WRAPPERS = {
    "corrupt:": (_corrupt, None,
                 "corrupt:EXPR        EXPR with one matrix entry bumped"),
    "dual:": (transpose_entwining, "factorization",
              "dual:EXPR           transpose of a factorization EXPR"),
}
# the grammar `entwiner list` prints and README.md shows
INSTANCE_GRAMMAR = tuple(
    dict.fromkeys(line for *_, line in (*INSTANCE_HEADS.values(), *WRAPPERS.values()))
)


INSTANCE_NAMES = (
    "twist@Kx2-0,Kx2-0",
    "twist@Kx2-1,Kx3",
    "twist@M2,Kx2-1",
    "cotwist@GL2,GL2",
    "cotwist@Kx2-1*,GL2",
    "mult_twist@K,q=1",
    "mult_twist@Kx2-0,q=1",
    "mult_twist@Kx2-1,q=1",
    "mult_twist@Kx2-2,q=2",
    "mult_twist@Kx3,q=1/2",
    "mult_twist@M2,q=1",
    "mult_twist@KZ2,q=1",
    "mult_twist@Kmono,q=-1",
    "comm_twist@Kx2-1,q=1",
    "comm_twist@M2,q=1",
    "module@Kx2-1",
    "module@Kx3",
    "module@M2",
    "quad@p=0,q=1",
    "quad@p=1,q=2",
    "quad@p=2,q=-1",
    "dk-KZ2-trivial",
    "dk-KZ2-sign",
    "dk-KZ2-regular",
    "dk-Kmono-trivial",
    "dk-Kmono-regular",
    "dkalt-KZ2-sign",
    "dkalt-KZ2-regular",
    "dkalt-Kmono-trivial",
)


def resolve_instance(expr: str, field: Field) -> EntwiningData:
    """Turn an instance expression into entwining data (see `INSTANCE_GRAMMAR`)."""
    spans = []
    start = 0
    while expr.startswith(tuple(WRAPPERS), start):
        end = expr.index(":", start) + 1
        spans.append((start, end))
        start = end
    e = _resolve_base(expr[start:], field)
    for start, end in reversed(spans):
        apply, kind, _ = WRAPPERS[expr[start:end]]
        if kind not in (None, e.kind):
            raise ShapeError(f"{expr[start:end]} needs a {kind}; '{expr[end:]}' is {e.kind}")
        e = apply(e)
    return e


def _resolve_base(expr: str, field: Field) -> EntwiningData:
    head, _, argstr = expr.partition("@")
    if head not in INSTANCE_HEADS:
        raise ShapeError(f"unknown instance '{expr}'")
    lookups, keys, build, _ = INSTANCE_HEADS[head]
    named = {}
    positional = []
    for tok in argstr.split(",") if argstr else ():
        if "=" in tok:
            key, _, val = tok.partition("=")
            if key in named or key not in keys:
                why = "repeats" if key in named else "does not take"
                raise ShapeError(f"instance '{expr}' {why} key '{key}'")
            named[key] = val
        else:
            positional.append(tok)
    if len(positional) != len(lookups):
        raise ShapeError(
            f"instance '{expr}' takes {len(lookups)} registry name(s), not {len(positional)}"
        )

    def scalar(key):
        if key not in named:
            raise ShapeError(f"instance '{expr}' needs {key}=<scalar>")
        return field.parse(named[key])

    structures = [lookup(name, field) for lookup, name in zip(lookups, positional)]
    return build(*(structures or [field]), *map(scalar, keys))


# ---------------------------------------------------------------------------
# grids used by the verification suite

PAIR_ALGEBRAS = ("K", "Kx2-0", "Kx2-1", "Kx2-2", "Kx3", "KZ2", "Kmono")
EXTRA_PAIRS = (("M2", "M2"), ("M2", "Kx2-1"), ("Kx2-1", "M2"))
PAIR_COALGEBRAS = ("GL2", "K*", "Kx2-0*", "Kx2-1*", "Kx2-2*", "KZ2", "Kmono")
EXTRA_COPAIRS = (("M2*", "M2*"), ("M2*", "GL2"), ("GL2", "M2*"))


def algebra_pairs():
    for left in PAIR_ALGEBRAS:
        for right in PAIR_ALGEBRAS:
            yield left, right
    yield from EXTRA_PAIRS


def coalgebra_pairs():
    for left in PAIR_COALGEBRAS:
        for right in PAIR_COALGEBRAS:
            yield left, right
    yield from EXTRA_COPAIRS

