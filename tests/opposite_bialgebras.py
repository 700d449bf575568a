"""Bialgebras that tell a law from its opposite, for the tests: Sweedler's H4 and the band bialgebra.

Both registry bialgebras, KZ2 and Kmono, are commutative and cocommutative
with a basis of group-likes.  On such a bialgebra a law and its opposite
agree (m = m o tau, Delta = tau o Delta, a left integral is a right one), so
a law written on the wrong leg passes on every bialgebra the registry holds.
The two built here tell them apart; they live in the tests, not in the
registry, so `suite`, `list` and the benchmark catalogue are unchanged.

- Sweedler's H4 (Sweedler, *Hopf Algebras*, 1969): basis 1, g, x, gx with
  g^2 = 1, x^2 = 0, xg = -gx; g group-like, Delta x = x (x) 1 + g (x) x,
  eps(x) = 0.  Its structure constants are integers, so it is a bialgebra
  over every field, and it is not cocommutative.
- The band bialgebra: the monoid algebra of {1, a, b} with uv = u for u, v in
  {a, b}, a left-zero band with an identity adjoined.  Every basis element is
  group-like, and it is not commutative.
"""

import itertools

from entwiner.linalg import from_entries, space, tensor
from entwiner.structures import Bialgebra


def h4(field) -> Bialgebra:
    """Sweedler's H4; basis vector g^a x^b has index a + 2b."""
    h = space("1", "g", "x", "gx")
    one = field.one
    # g^a x^b . g^c x^d = (-1)^(bc) g^(a+c) x^(b+d), zero when x^2 appears
    mult = from_entries(
        field,
        tensor(h, h),
        h,
        (
            ((a + c) % 2 + 2 * (b + d), (a + 2 * b) * 4 + c + 2 * d, -one if b * c else one)
            for a, b, c, d in itertools.product((0, 1), repeat=4)
            if b + d < 2
        ),
    )
    # Delta 1 = 1 (x) 1, Delta g = g (x) g, Delta x = x (x) 1 + g (x) x, Delta gx = gx (x) g + 1 (x) gx
    pairs = (((0, 0),), ((1, 1),), ((2, 0), (1, 2)), ((3, 1), (0, 3)))
    comult = from_entries(field, h, tensor(h, h), ((u * 4 + v, k, one) for k, p in enumerate(pairs) for u, v in p))
    zero = field.zero
    return Bialgebra(field, h, mult, (one, zero, zero, zero), comult, (one, one, zero, zero))


def band(field) -> Bialgebra:
    """The band bialgebra on 1, a, b: 1 the unit, uv = u for u, v in {a, b}."""
    s = space("1", "a", "b")
    one, zero = field.one, field.zero
    products = ((v if u == 0 else u, u * 3 + v, one) for u in range(3) for v in range(3))
    mult = from_entries(field, tensor(s, s), s, products)
    comult = from_entries(field, s, tensor(s, s), ((e * 4, e, one) for e in range(3)))
    return Bialgebra(field, s, mult, (one, zero, zero), comult, (one, one, one))
