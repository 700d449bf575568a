"""Laws that a commutative and cocommutative bialgebra cannot tell from their opposites.

Sweedler's H4 and the band bialgebra (built in `opposite_bialgebras`) pass
`check_bialgebra` over Q and every F_p tried, tell cocommutativity and a right
integral from the laws written, and carry a Doi-Koppinen datum whose verdicts
are those of the registry's dk-KZ2 instances.
"""

import itertools

import pytest

from entwiner.entwine import EntwiningData, check_product_iff, doi_koppinen, verify
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import twist
from entwiner.registry import make_crossed, trivial_module
from entwiner.structures import (
    ComoduleCoaction,
    check_bialgebra,
    check_grouplike_bilateral_integral,
    check_module,
    regular_module,
)
from entwiner.tambara import action_from_semi, check_tambara_relations
from opposite_bialgebras import band, h4
from test_lifting import lift
from test_transport import verdicts

F7, F3, F2 = PrimeField(7), PrimeField(3), PrimeField(2)
FIELDS = (QQ, F7, F2)
FIELD_IDS = ("q", "fp7", "fp2")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_h4_and_the_band_are_bialgebras_that_are_not_their_opposites(field):
    # kills a comult-multiplicative written Delta(ab) = tau Delta(ab): that is
    # cocommutativity, which H4 lacks
    h, b = h4(field), band(field)
    for bialg in (h, b):
        rep = check_bialgebra(bialg)
        assert rep.passed, rep.render()
        assert len(rep.checks) == 10
    flip_h, flip_b = twist(field, h.space, h.space), twist(field, b.space, b.space)
    assert not (flip_h * h.comult).same_matrix(h.comult)
    assert not (b.mult * flip_b).same_matrix(b.mult)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_band_element_a_is_a_left_integral_and_not_a_right_one(field):
    # a h = eps(h) a for every basis h, but b a = b; kills an integral-right
    # written with ("ξ", "H"), a second copy of integral-left
    rep = check_grouplike_bilateral_integral(band(field), (field.zero, field.one, field.zero))
    assert verdicts(rep) == [
        ("grouplike-comult", True),
        ("grouplike-counit", True),
        ("integral-left", True),
        ("integral-right", False),
    ]
    assert rep.check("integral-right").witness == ("b",)


@pytest.mark.parametrize("field", (F3, F2), ids=("fp3", "fp2"))
def test_h4_has_no_grouplike_bilateral_integral(field):
    h = h4(field)
    vectors = list(itertools.product(range(field.p), repeat=4))
    assert len(vectors) == field.p**4
    for v in vectors:
        assert not check_grouplike_bilateral_integral(h, tuple(map(field.from_int, v))).passed, v


def failing(rep):
    return [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("field", (QQ, F7, F3), ids=("q", "fp7", "fp3"))
def test_doi_koppinen_over_h4_gives_the_verdicts_of_kz2(field):
    # built as `registry.make_crossed` builds dk-KZ2-*: H4 as a comodule
    # algebra over itself, entwined with the trivial or the regular module
    h = h4(field)
    comod = ComoduleCoaction(h.coalgebra, h.space, h.comult)
    trivial = EntwiningData(kind="semi", psi=doi_koppinen(h, comod, trivial_module(h)), algebra=h.algebra)
    regular = EntwiningData(
        kind="factorization",
        psi=doi_koppinen(h, comod, regular_module(h.algebra)),
        algebra=h.algebra,
        left_algebra=h.algebra,
    )
    assert verify(trivial).passed
    # the regular one passes the semi laws and fails the left leg's, as dk-KZ2-regular does
    assert failing(verify(regular)) == failing(verify(make_crossed("KZ2", "regular", field)))
    assert failing(verify(regular)) == ["left-unit", "left-multiplicativity"]
    assert check_product_iff(regular).check("verdict-agreement").passed
    # the Tambara relations and the lift of the regular module agree with the semi verdict
    semi = EntwiningData(kind="semi", psi=regular.psi, algebra=h.algebra)
    for e, b in ((trivial, trivial_module(h).space), (semi, h.space)):
        assert check_tambara_relations(action_from_semi(e)).passed
        assert check_module(lift(regular_module(h.algebra), b, e.psi)).passed
