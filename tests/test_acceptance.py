"""Acceptance gate: every verification suite row must pass over the rationals.

Each test reads one named row of a single run of the full suite grid and
prints a single PASS/FAIL line, so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report.  All arithmetic is exact; a row fails on any nonzero
residual, and the failure message carries the first counterexample witness.
"""

import pytest

from entwiner.suite import run_suite


@pytest.fixture(scope="module")
def suite():
    """One run of the whole suite over Q: each (row, field) pair is built once."""
    return dict(run_suite("q"))


def row(suite, name):
    rep = suite[name]
    status = "PASS" if rep.passed else "FAIL"
    print(f"criterion {name}: {status}")
    assert rep.passed, rep.render()
    return rep


def test_criterion_twist_families(suite):
    row(suite, "twists")


def test_criterion_twisted_product_iff(suite):
    row(suite, "product-iff")


def test_criterion_biproducts(suite):
    row(suite, "biproduct")


def test_criterion_twisted_coproduct_iff(suite):
    row(suite, "coproduct-iff")


def test_criterion_entwined_modules(suite):
    row(suite, "entwined-modules")


def test_criterion_intertwining(suite):
    row(suite, "intertwining")


def test_criterion_braided_structures(suite):
    row(suite, "braided")


def test_criterion_generator_actions(suite):
    row(suite, "generator-actions")


def test_criterion_yang_baxter_systems(suite):
    row(suite, "yb-systems")


def test_criterion_field_independence(suite):
    row(suite, "field-independence")
