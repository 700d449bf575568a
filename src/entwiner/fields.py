"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every verdict in this package reduces to equalities between scalars, so
arithmetic is exact and equality decidable.  Floats never appear.  Over the
rationals, elements are plain ints wherever possible and Fraction otherwise;
over F_p they are int subclasses reduced mod p, so matrix code can use the
ordinary operators (+, *, -, unary -, **) and truthiness for zero tests.  An
F_p element refuses /, // and % (use `field.div`) and any operand that is
neither an int nor an element of the same F_p, with FieldError.

The product kernels of `linalg` compute on plain ints on both fields.  A
map's entries are ints over one positive denominator: `whole` is the set of
scalar types of denominator 1 (int over Q; over F_p every scalar, so only Q
has `lcd`, the least common denominator of some scalars), and
`numerator(den)` the function that makes a scalar its int numerator over
den (over Q `int` when den is 1; over F_p `plain`, which gives an int in
[0, p) and refuses a foreign scalar; over Q `plain` is the value itself,
unchecked, as map entries are checked when a map is built).  The kernels add
raw sums of products of numerators, `nonzero` drops the zeros of a chain's
column and, over F_p, reduces each entry once, at the end of the chain
(delayed reduction, as in FFLAS-FFPACK), and `elem` makes an element again
of a numerator over the denominator 1.  Over another denominator `div` makes
it: over Q the one division of a chain's value.  `types` is the set of
entry types a map over the field may hold: int and Fraction over Q, int and
the element class over F_p; a map refuses any other entry (a float, a bool,
an element of another field) with FieldError when it is built, and so does
`LinearMap.apply` for a vector entry.  `from_int`, `div` and `render` refuse
such a scalar on both fields.  `render` gives every digit of a value of any
length: a computed value can outgrow the digit limit of `str` of an int, and
such a value's digits come from `decimal.Decimal`, which has none.

`parse` takes "n" or "n/d" with optional surrounding whitespace; the
strings "-9" ... "9" are looked up in a table of their values first.  A
string with more digits than `int` converts is refused with FieldError.

Field tags ("q", "fp:<p>") are shared by the CLI --field flag and the
structure-file format.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from math import lcm


class FieldError(ValueError):
    """Malformed scalar string, bad field tag, or cross-field mixing."""


_SCALAR_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
# the strings "-9" ... "9": `parse` looks them up before it tries the regex
_SMALL = tuple(str(n) for n in range(-9, 10))

Scalar = int | Fraction  # F_p elements are int subclasses


def _digits(n: int) -> str:
    # the one path from an int to its decimal digits: `str` of an int refuses
    # more than `sys.get_int_max_str_digits()` digits, so a longer value goes
    # through `Decimal`, exact, whose `str` has no digit limit (`str` stays
    # first: rendering a short value through `Decimal` costs about 3x)
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _parse(field, s: str):
    # `parse` of both fields, their one scalar-string grammar: the field's
    # table of "-9" ... "9", then "n" or "n/d" as ints, which `field._ratio(s,
    # n, d)` makes a scalar (d None for "n")
    x = field._small.get(s)
    if x is not None:
        return x
    m = _SCALAR_RE.match(s.strip())
    if not m:
        raise FieldError(f"bad scalar string {s!r}")
    num, den = m.groups()
    try:
        num, den = int(num), den and int(den)
    except ValueError:  # more digits than `int` converts
        raise FieldError(f"scalar string of {len(s)} characters has too many digits") from None
    return field._ratio(s, num, den)


def _normalize(x):
    # keep integers as plain ints: cheaper arithmetic, stable rendering
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


class Rationals:
    """The rational field Q.  Elements: int | Fraction."""

    tag = "q"
    zero = 0
    one = 1
    types = frozenset((int, Fraction))
    whole = frozenset((int,))
    _small = {t: int(t) for t in _SMALL}

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("field:q")

    def _own(self, x):
        # plain and the kernels skip this: map entries are checked when built
        if type(x) not in self.types:
            raise FieldError(f"a scalar over Q is an int or a Fraction, not {type(x).__name__} {x!r}")
        return x

    def from_int(self, n: int):
        return self._own(n)

    parse = _parse

    def _ratio(self, s: str, num: int, den: int | None):
        if den is None:
            return num
        if den == 0:
            raise FieldError(f"zero denominator in {s!r}")
        return _normalize(Fraction(num, den))

    def render(self, x) -> str:
        if type(x) is not int:
            x = _normalize(self._own(x))
            if type(x) is Fraction:
                return f"{_digits(x.numerator)}/{_digits(x.denominator)}"
        return _digits(x)

    def div(self, a, b):
        if not self._own(b):
            raise ZeroDivisionError("division by zero scalar")
        return _normalize(Fraction(self._own(a), b))

    def plain(self, x):
        return x

    elem = plain

    def lcd(self, xs) -> int:
        """The least common denominator of the scalars xs."""
        return lcm(*[x.denominator for x in xs])

    def numerator(self, den: int) -> Callable:
        """The function that makes a scalar x whose denominator divides den the int x * den."""
        if den == 1:
            return int  # of an int, or of a Fraction n/1
        return lambda x: x.numerator * (den // x.denominator)

    def nonzero(self, col: dict) -> dict:
        return {k: v for k, v in col.items() if v}


_fp_element_classes: dict[int, type] = {}


def _mixing(p: int, other):
    kind = type(other).__name__
    raise FieldError(f"an F_{p} element cannot be combined with {kind} {other!r}")


def _fp_class(p: int) -> type:
    cls = _fp_element_classes.get(p)
    if cls is not None:
        return cls

    class Fp(int):
        __slots__ = ()
        modulus = p

        def __new__(cls, v):
            return int.__new__(cls, v % p)

        # an operand that is neither an int nor an element of this F_p is
        # refused: returning NotImplemented would let Fraction or float win
        def __add__(self, other):
            if type(other) is not Fp and type(other) is not int:
                _mixing(p, other)
            return Fp(int.__add__(self, other))

        __radd__ = __add__

        def __sub__(self, other):
            if type(other) is not Fp and type(other) is not int:
                _mixing(p, other)
            return Fp(int.__sub__(self, other))

        def __rsub__(self, other):
            if type(other) is not Fp and type(other) is not int:
                _mixing(p, other)
            return Fp(int.__sub__(other, self))

        def __mul__(self, other):
            if type(other) is not Fp and type(other) is not int:
                _mixing(p, other)
            return Fp(int.__mul__(self, other))

        __rmul__ = __mul__

        def __neg__(self):
            return Fp(-int(self))

        def __pow__(self, e):
            if type(e) is not int:
                raise FieldError(f"F_{p} powers take an int exponent, not {e!r}")
            if e < 0 and not self:
                raise ZeroDivisionError("division by zero scalar")
            return Fp(pow(int(self), e, p))

        def _no_division(self, other):
            raise FieldError(f"F_{p} elements have no / // %; use field.div(a, b)")

        __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _no_division
        __mod__ = __rmod__ = __divmod__ = __rdivmod__ = _no_division

        def __repr__(self):
            return str(int(self))

    Fp.__name__ = f"F{p}elem"
    _fp_element_classes[p] = Fp
    return Fp


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field F_p.  Elements: int subclass reduced mod p."""

    def __init__(self, p: int):
        if p >= 2**31:
            raise FieldError(f"fp:{p} is too large: the prime must be below 2**31")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.elem = _fp_class(p)
        self.zero = self.elem(0)
        self.one = self.elem(1)
        self.types = self.whole = frozenset((int, self.elem))
        self._small = {t: self.elem(int(t)) for t in _SMALL}

    @property
    def tag(self) -> str:
        return f"fp:{self.p}"

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field:fp", self.p))

    def from_int(self, n: int):
        return self.elem(self.plain(n))

    parse = _parse

    def _ratio(self, s: str, num: int, den: int | None):
        if den is None:
            return self.elem(num)
        if den % self.p == 0:
            raise FieldError(f"denominator of {s!r} vanishes mod {self.p}")
        return self.elem(num * pow(den, self.p - 2, self.p))

    def render(self, x) -> str:
        return _digits(self.plain(x))

    def div(self, a, b):
        a, b = self.plain(a), self.plain(b)
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self.elem(a * pow(b, self.p - 2, self.p))

    def plain(self, x) -> int:
        if type(x) is not self.elem and type(x) is not int:
            _mixing(self.p, x)
        return int(x) % self.p

    def numerator(self, den: int) -> Callable:
        return self.plain

    def nonzero(self, col: dict) -> dict:
        p = self.p
        return {k: r for k, v in col.items() if (r := v % p)}


Field = Rationals | PrimeField

QQ = Rationals()


def field_from_tag(tag: str) -> Field:
    """Resolve "q" or "fp:<p>" to a field object."""
    tag = tag.strip().lower()
    if tag == "q":
        return QQ
    if tag.startswith("fp:"):
        try:
            p = int(tag[3:])
        except ValueError:
            raise FieldError(f"bad field tag {tag!r}") from None
        return PrimeField(p)
    raise FieldError(f"unknown field tag {tag!r} (expected 'q' or 'fp:<p>')")
