"""An exhaustive small-scope check of the product-iff and coproduct-iff theorems.

psi : B (x) A -> A (x) B is an algebra factorization exactly when the twisted
product on A (x) B is an algebra (Cap-Schichl-Vanzura 1995).  Over F_3, for
the dim-2 algebras whose unit is basis vector 0, the unit axioms fix every
column of a factorization but psi(x (x) x); all 3^4 choices of that column
are enumerated.  The library's two halves of the theorem are compared on each
psi, and its count of factorizations per pair with a naive structure-constant
evaluator's.  The transpose of each psi, a map between the dual coalgebras,
goes through the coalgebra side of the theorem, and its count of coalgebra
factorizations must be the same.  The three algebras isomorphic to Kx2-1
carry each psi along the isomorphisms to a psi on (Kx2-1, Kx2-1), and the
verdicts with it.
"""

import functools
import itertools

import pytest

from entwiner.entwine import (
    EntwiningData,
    check_coproduct_iff,
    check_product_iff,
    transpose_entwining,
    verify,
)
from entwiner.fields import PrimeField
from entwiner.linalg import LinearMap, compose, kron, tensor
from entwiner.registry import algebra
from reference import twisted_product_is_algebra

F3 = PrimeField(3)
UNIT_FIRST = ("Kx2-0", "Kx2-1", "Kx2-2", "KZ2", "Kmono")
# over F_3: x^2 = 0, K x K and the field F_9, so every pair of isomorphism
# classes occurs among these; KZ2 and Kmono are K x K too
LIBRARY_SIDE = ("Kx2-0", "Kx2-1", "Kx2-2", "KZ2")
ISOMORPHIC = ("Kx2-1", "KZ2", "Kmono")


def unital_psis(b, a):
    """Every psi : B (x) A -> A (x) B fixing 1 (x) a -> a (x) 1 and b (x) 1 -> 1 (x) b."""
    one, zero = F3.one, F3.zero
    for free in itertools.product(range(3), repeat=4):
        rows = [[zero] * 4 for _ in range(4)]
        rows[0][0] = rows[2][1] = rows[1][2] = one  # 1(x)1, 1(x)x -> x(x)1, x(x)1 -> 1(x)x
        for i, x in enumerate(free):
            rows[i][3] = F3.from_int(x)
        yield LinearMap(F3, tensor(b.space, a.space), tensor(a.space, b.space), tuple(map(tuple, rows)))


@functools.cache
def naive_count(an, bn):
    a, b = algebra(an, F3), algebra(bn, F3)
    assert a.unit == b.unit == (F3.one, F3.zero)
    return sum(
        twisted_product_is_algebra((a.mult.rows, a.unit), (b.mult.rows, b.unit), psi.rows, 3)
        for psi in unital_psis(b, a)
    )


def test_the_naive_counts_are_invariant_under_isomorphism():
    counts = {pair: naive_count(*pair) for pair in itertools.product(UNIT_FIRST, repeat=2)}
    assert all(counts.values())  # the flip is always one
    assert len({counts[pair] for pair in itertools.product(ISOMORPHIC, repeat=2)}) == 1
    assert sum(counts.values()) == 149


def assert_iff_counts(an, check, side=lambda e: e):
    """`check` on `side` of each unital psi onto `an`: its two halves agree, and
    it counts each pair's factorizations as the naive evaluator does."""
    a = algebra(an, F3)
    for bn in LIBRARY_SIDE:
        b = algebra(bn, F3)
        found = 0
        for psi in unital_psis(b, a):
            e = EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=b)
            rep = check(side(e))
            assert rep.check("verdict-agreement").passed, (an, bn, psi.rows)
            found += all(c.passed for c in rep.checks if c.name.startswith("factorization:"))
        assert found == naive_count(an, bn), (an, bn)


@pytest.mark.parametrize("an", LIBRARY_SIDE)
def test_product_iff_holds_for_every_unital_psi_over_f3(an):
    assert_iff_counts(an, check_product_iff)


@pytest.mark.parametrize("an", LIBRARY_SIDE)
def test_coproduct_iff_holds_for_every_transposed_psi_over_f3(an):
    assert_iff_counts(an, check_coproduct_iff, transpose_entwining)


# the basis images of an algebra isomorphism onto Kx2-1 over F_3: KZ2 sends
# g to x, Kmono sends 1 to 1 and z to (1 + x)/2 = 2 + 2x; each matrix is its
# own inverse
TO_KX2_1 = {"Kx2-1": ((1, 0), (0, 1)), "KZ2": ((1, 0), (0, 1)), "Kmono": ((1, 2), (0, 2))}


def onto_kx2_1(an):
    """(phi, phi^-1) between `an` and Kx2-1, checked to be an algebra map."""
    a, t = algebra(an, F3), algebra("Kx2-1", F3)
    rows = tuple(tuple(map(F3.from_int, r)) for r in TO_KX2_1[an])
    phi, inverse = LinearMap(F3, a.space, t.space, rows), LinearMap(F3, t.space, a.space, rows)
    assert compose(phi, inverse).rows == ((F3.one, F3.zero), (F3.zero, F3.one))
    assert compose(phi, a.mult).rows == compose(t.mult, kron(phi, phi)).rows
    assert phi.apply(a.unit) == t.unit
    return phi, inverse


def factorization(psi, a, b):
    return verify(EntwiningData(kind="factorization", psi=psi, algebra=a, left_algebra=b))


@pytest.mark.parametrize("an, bn", itertools.product(ISOMORPHIC, repeat=2))
def test_conjugation_is_a_bijection_onto_the_unital_psis_of_kx2_1(an, bn):
    a, b, t = algebra(an, F3), algebra(bn, F3), algebra("Kx2-1", F3)
    (phi_a, inv_a), (phi_b, inv_b) = onto_kx2_1(an), onto_kx2_1(bn)
    outer, inner = kron(phi_a, phi_b), kron(inv_b, inv_a)
    unital = [psi.rows for psi in unital_psis(t, t)]
    images, found = set(), 0
    for psi in unital_psis(b, a):
        image = compose(outer, compose(psi, inner))
        # psi' fixes 1 (x) a -> a (x) 1 and b (x) 1 -> 1 (x) b: its first three
        # columns are those every unital psi has
        assert [row[:3] for row in image.rows] == [row[:3] for row in unital[0]], psi.rows
        images.add(image.rows)
        rep, rep_image = factorization(psi, a, b), factorization(image, t, t)
        verdicts = [(c.name, c.passed) for c in rep.checks]
        assert verdicts == [(c.name, c.passed) for c in rep_image.checks], psi.rows
        found += rep.passed
    assert len(images) == len(unital) == 81 and images == set(unital)
    assert found == naive_count(an, bn)
