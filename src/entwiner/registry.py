"""Built-in example structures and the named-instance grammar.

The registry covers commutative and noncommutative algebras, quotient
algebras, bialgebras with and without a group-like bilateral integral, and a
group-like coalgebra, all of dimension at most four with integral structure
constants — so every verdict is meaningful over any coefficient field.

Instance expressions name entwining data:

    twist@B,A             flip map over two registry algebras
    cotwist@D,C           flip map over two registry coalgebras
    mult_twist@A,q=1      multiplication twist on a registry algebra
    comm_twist@A,q=1/2    commutator twist on a registry algebra
    module@A              regular-module map m (x) a -> 1 (x) ma
    quad@p=1,q=2          the quadratic-pair factorization on K[x]/(x^2-p)
    dk-KZ2-sign           crossed map from a comodule algebra and a module
    dkalt-KZ2-sign        its coalgebra-side counterpart
    corrupt:<expr>        same data with one psi entry bumped by one
    dual:<expr>           transpose of a factorization instance
"""

from __future__ import annotations

import random
from dataclasses import replace

from .entwine import (
    EntwiningData,
    comm_twist,
    doi_koppinen,
    module_entwining,
    mult_twist,
    transpose_entwining,
)
from .fields import Field, Scalar
from .linalg import LinearMap, ShapeError, Space, from_columns, space, tensor, twist
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
    cols = []
    for i in range(n):
        vec = [field.zero] * (n * n)
        vec[i * n + i] = field.one
        cols.append(tuple(vec))
    return from_columns(field, sp, tensor(sp, sp), tuple(cols))


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


_BASE_ALGEBRAS = ("K", "Kx2-0", "Kx2-1", "Kx2-2", "Kx3", "M2", "KZ2", "Kmono")
ALGEBRA_NAMES = _BASE_ALGEBRAS + ("GL2*",)
BIALGEBRA_NAMES = ("KZ2", "Kmono")
COALGEBRA_NAMES = ("GL2", "KZ2", "Kmono") + tuple(f"{n}*" for n in _BASE_ALGEBRAS)


def bialgebra(name: str, field) -> Bialgebra:
    if name == "KZ2":
        return group_bialgebra_z2(field)
    if name == "Kmono":
        return monoid_bialgebra(field)
    raise ShapeError(f"unknown registry bialgebra '{name}'")


def algebra(name: str, field) -> Algebra:
    if name == "K":
        return ground_field(field)
    if name.startswith("Kx2-"):
        p = field.parse(name[4:])
        return quadratic_algebra(field, p)
    if name == "Kx3":
        return truncated_cubic(field)
    if name == "M2":
        return matrix_algebra(field)
    if name in BIALGEBRA_NAMES:
        return bialgebra(name, field).algebra
    if name == "GL2*":
        return convolution_algebra(grouplike_coalgebra(field))
    raise ShapeError(f"unknown registry algebra '{name}'")


def coalgebra(name: str, field) -> Coalgebra:
    if name == "GL2":
        return grouplike_coalgebra(field)
    if name in BIALGEBRA_NAMES:
        return bialgebra(name, field).coalgebra
    if name.endswith("*"):
        return dualize_algebra(algebra(name[:-1], field))
    raise ShapeError(f"unknown registry coalgebra '{name}'")


# ---------------------------------------------------------------------------
# modules, comodules, deterministic randomness


def character_module(a: Algebra, values: tuple[Scalar, ...], label: str = "m") -> ModuleAction:
    """One-dimensional module where basis element a_j acts by the scalar values[j]."""
    m = space(label)
    act = LinearMap(a.field, tensor(m, a.space), m, (tuple(values),))
    return ModuleAction(a, m, act)


def trivial_module(h: Bialgebra) -> ModuleAction:
    return character_module(h.algebra, h.counit)


def sign_module(h: Bialgebra) -> ModuleAction:
    """g acts by -1 on a one-dimensional carrier (for a dim-2 group bialgebra)."""
    return character_module(h.algebra, (h.field.one, -h.field.one))


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
    """Seeded map left (x) right -> right (x) left with entries from {-1, 0, 1}."""
    rng = random.Random(seed)
    dim = left.dim * right.dim
    rows = tuple(
        tuple(field.from_int(rng.randrange(-1, 2)) for _ in range(dim))
        for _ in range(dim)
    )
    return LinearMap(field, tensor(left, right), tensor(right, left), rows)


def corrupt_map(m: LinearMap, row: int = 0, col: int | None = None) -> LinearMap:
    """Bump one matrix entry by one (default: first row, last column)."""
    c = m.domain.dim - 1 if col is None else col
    rows = tuple(
        tuple(v + m.field.one if (r == row and j == c) else v for j, v in enumerate(vals))
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


_DK_MODULES = ("trivial", "sign", "regular")


def make_crossed(hname: str, modname: str, field, alt: bool = False) -> EntwiningData:
    """Entwining from an H-comodule (co)algebra and a named H-module.

    The plain form entwines H (as a comodule algebra over itself) with a
    module carrier; the alt form entwines a parity-graded comodule coalgebra
    with the same module carriers, landing on the coalgebra side.
    """
    h = bialgebra(hname, field)
    if modname == "trivial":
        mod = trivial_module(h)
    elif modname == "sign":
        mod = sign_module(h)
    elif modname == "regular":
        mod = regular_module(h.algebra)
    else:
        raise ShapeError(f"unknown module name '{modname}'")
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
    """Turn an instance expression into entwining data (see module docstring)."""
    wrappers = []
    start = 0
    while expr.startswith(("corrupt:", "dual:"), start):
        wrappers.append(start)
        start = expr.index(":", start) + 1
    e = _resolve_base(expr[start:], field)
    for pos in reversed(wrappers):
        if expr.startswith("corrupt:", pos):
            e = replace(e, psi=corrupt_map(e.psi))
        elif e.kind == "factorization":
            e = transpose_entwining(e)
        else:
            inner = expr[pos + len("dual:") :]
            raise ShapeError(f"dual: needs a factorization; '{inner}' is {e.kind}")
    return e


_INSTANCE_KEYS = {"mult_twist": ("q",), "comm_twist": ("q",), "quad": ("p", "q")}
# registry names each named head takes before its keys; dk-/dkalt- heads take none
_INSTANCE_ARITY = {"twist": 2, "cotwist": 2, "mult_twist": 1, "comm_twist": 1, "module": 1, "quad": 0}


def _resolve_base(expr: str, field: Field) -> EntwiningData:
    head, _, argstr = expr.partition("@")
    if head not in _INSTANCE_ARITY and not head.startswith(("dk-", "dkalt-")):
        raise ShapeError(f"unknown instance '{expr}'")
    tokens = argstr.split(",") if argstr else []
    named = {}
    positional = []
    for tok in tokens:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if key in named or key not in _INSTANCE_KEYS.get(head, ()):
                why = "repeats" if key in named else "does not take"
                raise ShapeError(f"instance '{expr}' {why} key '{key}'")
            named[key] = val
        else:
            positional.append(tok)
    arity = _INSTANCE_ARITY.get(head, 0)
    if len(positional) != arity:
        raise ShapeError(
            f"instance '{expr}' takes {arity} registry name(s), not {len(positional)}"
        )

    def scalar(key, default=None):
        if key not in named:
            if default is None:
                raise ShapeError(f"instance '{expr}' needs {key}=<scalar>")
            return default
        return field.parse(named[key])

    if head == "twist":
        return make_twist(algebra(positional[0], field), algebra(positional[1], field))
    if head == "cotwist":
        return make_cotwist(
            coalgebra(positional[0], field), coalgebra(positional[1], field)
        )
    if head == "mult_twist":
        return make_mult_twist(algebra(positional[0], field), scalar("q"))
    if head == "comm_twist":
        return make_comm_twist(algebra(positional[0], field), scalar("q"))
    if head == "module":
        return make_module_instance(algebra(positional[0], field))
    if head == "quad":
        return quad_factorization(field, scalar("p"), scalar("q"))
    alt = head.startswith("dkalt-")
    rest = head[len("dkalt-") :] if alt else head[len("dk-") :]
    hname, _, modname = rest.partition("-")
    if hname not in BIALGEBRA_NAMES or modname not in _DK_MODULES:
        raise ShapeError(f"unknown crossed instance '{expr}'")
    return make_crossed(hname, modname, field, alt=alt)


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

