"""The lifting functor of a semi-entwining, checked against `verify`.

A map ψ : B (x) A -> A (x) B lifts a right A-module (M, ρ) to M (x) B with
the action (ρ (x) B)(M (x) ψ), m (x) b (x) a -> m·a_ψ (x) b^ψ.  When ψ is a
semi-entwining every lift is a module.  For the regular module M = A the
converse holds too: its module laws at m = 1 are the semi laws.  So the
lift of the regular module is a module exactly when ψ is a semi-entwining.
The lift is built here from `materialize` and `lazy_kron`, not by the
library's `induced_AtensorB_module`, and `check_module` judges it: a second
route to the verdict of `verify(replace(e, kind="semi"))`.

It runs on every algebra-side registry instance in its plain, `corrupt:` and
`dual:` forms over Q and F_7, and on the exhaustive semi domain over F_2:
every ψ on a dim-2 B over the five unit-first dim-2 algebras with
ψ(b (x) 1) = 1 (x) b, whose 8 other entries are free, 1,280 ψ in all.
"""

import itertools
from dataclasses import replace

import pytest

from entwiner.entwine import SEMI_KINDS, EntwiningData, verify
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import ShapeError, from_columns, identity, lazy_kron, materialize, space, tensor
from entwiner.registry import INSTANCE_NAMES, algebra, resolve_instance
from entwiner.structures import ModuleAction, check_module, regular_module

FIELDS = (QQ, PrimeField(7))
FIELD_IDS = ("q", "fp7")
F2 = PrimeField(2)
UNIT_FIRST = ("Kx2-0", "Kx2-1", "Kx2-2", "KZ2", "Kmono")


def lift(mod: ModuleAction, b, psi) -> ModuleAction:
    """M (x) B with the action (ρ (x) B)(M (x) ψ)."""
    field = mod.field
    act = materialize([lazy_kron(mod.act, identity(field, b)), lazy_kron(identity(field, mod.space), psi)])
    return ModuleAction(mod.algebra, tensor(mod.space, b), act)


def lift_agrees(a, b, psi, semi) -> bool:
    return check_module(lift(regular_module(a), b, psi)).passed == semi.passed


def algebra_side(field):
    for name in INSTANCE_NAMES:
        for expr in (name, "corrupt:" + name, "dual:" + name):
            try:
                e = resolve_instance(expr, field)
            except ShapeError:  # dual: of a non-factorization
                continue
            if e.kind in SEMI_KINDS:
                yield expr, replace(e, kind="semi")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_lift_of_the_regular_module_is_a_module_iff_psi_is_semi(field):
    verdicts = []
    for expr, e in algebra_side(field):
        semi = verify(e)
        assert lift_agrees(e.algebra, e.left_space, e.psi, semi), expr
        verdicts.append(semi.passed)
    assert (len(verdicts), verdicts.count(False)) == (48, 18)


def unital_psis(a, b):
    """Every ψ : B (x) A -> A (x) B over F_2 with ψ(b (x) 1) = 1 (x) b, A's unit
    being basis vector 0: the columns b (x) x are free."""
    one, zero = F2.one, F2.zero
    dom, cod = tensor(b, a.space), tensor(a.space, b)
    fixed = {2 * k: tuple(one if r == k else zero for r in range(4)) for k in range(2)}
    for free in itertools.product((zero, one), repeat=8):
        cols = dict(fixed)
        cols[1], cols[3] = free[:4], free[4:]
        yield from_columns(F2, dom, cod, (cols[j] for j in range(4)))


def test_the_lift_agrees_with_verify_on_the_f2_semi_domain():
    b = space("b0", "b1")
    semis = {}
    for name in UNIT_FIRST:
        a = algebra(name, F2)
        count = 0
        for psi in unital_psis(a, b):
            semi = verify(EntwiningData(kind="semi", psi=psi, algebra=a))
            assert lift_agrees(a, b, psi, semi), (name, psi.rows)
            count += semi.passed
        semis[name] = count
    # K[x]/x^2 in characteristic 2 four times, and K x K
    assert semis == {"Kx2-0": 28, "Kx2-1": 28, "Kx2-2": 28, "KZ2": 28, "Kmono": 64}
