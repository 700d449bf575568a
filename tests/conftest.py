"""A deterministic, deadline-free hypothesis profile and shared fixtures."""

import pytest
from hypothesis import HealthCheck, settings

from entwiner.entwine import EntwiningData
from entwiner.fields import QQ
from entwiner.linalg import twist
from entwiner.registry import algebra, coalgebra

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("exact")


@pytest.fixture
def flip_entwining():
    """The tensor flip between Kx2-1 and GL2, as an entwining-ll or entwining-rr."""

    def build(kind):
        a, c = algebra("Kx2-1", QQ), coalgebra("GL2", QQ)
        if kind == "entwining-ll":
            psi = twist(QQ, c.space, a.space)
            return EntwiningData(kind=kind, psi=psi, algebra=a, left_coalgebra=c)
        psi = twist(QQ, a.space, c.space)
        return EntwiningData(kind=kind, psi=psi, coalgebra=c, left_algebra=a)

    return build
