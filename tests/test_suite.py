"""The suite driver: which (row, field) pairs it builds and how it compares them.

Fake row builders stand in for the real ones, so these tests run in
milliseconds and can force a verdict that differs between fields.
"""

import pytest

from entwiner import suite
from entwiner.report import IdentityCheck, Report


def fake_rows(monkeypatch, verdicts=lambda name, tag: (("ok", True),)):
    """Replace every row builder; return the list of (row, field tag) builds."""
    calls = []

    def fake(name):
        def build(field):
            calls.append((name, field.tag))
            return Report(name, tuple(IdentityCheck(c, p) for c, p in verdicts(name, field.tag)))

        return build

    for name in suite.BASE_ROWS:
        monkeypatch.setitem(suite.ROW_BUILDERS, name, fake(name))
    return calls


@pytest.mark.parametrize(
    "tag, rows, alt",
    (
        ("q", ["field-independence"], "fp:7"),
        ("q", None, "fp:7"),
        ("fp:7", ["twists", "field-independence"], "q"),
    ),
)
def test_each_row_and_field_is_built_once(monkeypatch, tag, rows, alt):
    calls = fake_rows(monkeypatch)
    results = suite.run_suite(tag, rows)
    assert len(calls) == 18
    assert sorted(calls) == sorted((n, t) for n in suite.BASE_ROWS for t in (tag, alt))
    assert [n for n, _ in results] == list(rows or suite.ROW_NAMES)
    assert all(rep.passed for _, rep in results)


def test_only_requested_rows_are_built_without_field_independence(monkeypatch):
    calls = fake_rows(monkeypatch)
    suite.run_suite("q", ["braided", "twists"])
    assert calls == [("braided", "q"), ("twists", "q")]


def test_a_verdict_differing_over_f7_names_the_first_differing_check(monkeypatch):
    def verdicts(name, tag):
        flipped = name == "braided" and tag == "fp:7"
        return (("a", True), ("b", not flipped), ("c", flipped))

    fake_rows(monkeypatch, verdicts)
    (_, rep), = suite.run_suite("q", ["field-independence"])
    assert rep.failures() == (IdentityCheck("verdicts-match:braided", False, ("b",)),)
    assert len(rep.checks) == len(suite.BASE_ROWS)


def test_a_row_of_another_length_over_f7_fails_with_lengths_differ(monkeypatch):
    def verdicts(name, tag):
        extra = (("extra", True),) if name == "twists" and tag == "fp:7" else ()
        return (("a", True),) + extra

    fake_rows(monkeypatch, verdicts)
    (_, rep), = suite.run_suite("q", ["field-independence"])
    assert rep.failures() == (
        IdentityCheck("verdicts-match:twists", False, ("row-lengths-differ",)),
    )

