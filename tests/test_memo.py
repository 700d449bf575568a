"""The memos of `linalg`, `structures` and `entwine` hit only on equal content.

The iff checks bind what every ψ of one (co)algebra pair shares once per
pair (`entwine._product_parts`, `_semi_maps`, ...), and `check_algebra`
and `check_coalgebra` once per (field, space, (co)unit).  A key that misses
part of the content would hand one pair another pair's maps, so the checks
below run pairs whose spaces coincide while their structures differ:
Kx2-0, Kx2-1 and Kx2-2 share the labels 1, x; KZ2 has Kx2-1's constants
under other labels; GL2* shares no label with them, so a witness that
reads a wrong space's labels shows at its first basis vector; a
`corrupt_map` copy shares its original's space and unit; and Kx2-1 on its
reversed basis shares the space but not the unit.
Every report, computed with the memos warm from all the others, must equal
the one computed with every memo cleared.
"""

import itertools

from entwiner import entwine, linalg, registry, structures
from entwiner.entwine import EntwiningData, check_coproduct_iff, check_product_iff
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import Space, space, tensor, twist
from entwiner.registry import algebra, algebra_from_products, corrupt_map, random_entwining_matrix
from entwiner.structures import Algebra, dualize_algebra

FIELDS = (QQ, PrimeField(7))


def clear_memos():
    for module in (linalg, structures, entwine, registry):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def reversed_kx2_1(field) -> Algebra:
    """K[x]/(x^2 - 1) on the basis x, 1, still labelled 1, x: its unit is (0, 1)."""
    o, z = field.one, field.zero
    products = {(0, 0): (z, o), (0, 1): (o, z), (1, 0): (o, z), (1, 1): (z, o)}
    return algebra_from_products(field, ("1", "x"), products, (z, o))


def algebras(field) -> dict:
    out = {name: algebra(name, field) for name in ("Kx2-0", "Kx2-1", "Kx2-2", "KZ2", "GL2*")}
    a = out["Kx2-1"]
    out["corrupt:Kx2-1"] = Algebra(field, a.space, corrupt_map(a.mult), a.unit)
    out["reversed:Kx2-1"] = reversed_kx2_1(field)
    return out


def cases(field):
    """(label, check, entwining data): both iff checks on every ordered pair of
    the algebras above and of their dual coalgebras, for the flip and two
    random ψ, the product and coproduct checks interleaved."""
    algs = algebras(field)
    coalgs = {name: dualize_algebra(a) for name, a in algs.items()}
    for (bn, an), i in itertools.product(itertools.permutations(algs, 2), range(3)):
        a, b, c, d = algs[an], algs[bn], coalgs[an], coalgs[bn]
        if i == 0:
            psi, copsi = twist(field, b.space, a.space), twist(field, d.space, c.space)
        else:
            psi = random_entwining_matrix(field, b.space, a.space, seed=31 * i)
            copsi = random_entwining_matrix(field, d.space, c.space, seed=37 * i)
        label = f"{bn},{an}#{i}"
        yield label, check_product_iff, EntwiningData("factorization", psi, algebra=a, left_algebra=b)
        yield label, check_coproduct_iff, EntwiningData("cofactorization", copsi, coalgebra=c, left_coalgebra=d)


def test_both_fields_interleaved_give_the_reports_of_cleared_memos():
    # one list over both fields, so a key that drops the field is read across them
    todo = [case for pair in zip(*(cases(field) for field in FIELDS)) for case in pair]
    fresh = []
    for _, check, e in todo:
        clear_memos()
        fresh.append(check(e).to_json())
    clear_memos()
    warm = [check(e).to_json() for _, check, e in todo]
    for (label, check, e), got, want in zip(todo, warm, fresh):
        assert got == want, (label, check.__name__, e.field)
    # the sweep reaches failing verdicts on every side, so residuals are compared
    assert sum('"passed": false' in r for r in fresh) > len(fresh) // 2


def test_tensor_gives_one_object_per_content():
    v, w = space("1", "x"), space("1", "g")
    assert tensor(v, w) is tensor(v, w)
    assert tensor(v, w) == Space(factors=(v, w))
    assert tensor(space("1", "x"), space("1", "g")) is tensor(v, w)
    assert tensor(tensor(v, w), v) == tensor(v, tensor(w, v))
    assert tensor(v) == v
