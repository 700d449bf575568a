"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import copy
import gzip
import json
import os
import statistics
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def catalogue():
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def expected():
    with gzip.open(os.path.join(HERE, "expected.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_same_seed_gives_byte_identical_commands(catalogue):
    assert json.dumps(mix.draw(catalogue, 7)) == json.dumps(mix.draw(catalogue, 7))


def test_other_seed_gives_other_order_in_the_same_shares(catalogue, expected):
    a, b = mix.draw(catalogue, 7), mix.draw(catalogue, 8)
    assert a != b and sorted(a) == sorted(b)
    shares = Counter(g for g, _ in a)
    assert shares == Counter(g for g, _ in b)
    assert shares == {g: len(catalogue["groups"][g]) for g in mix.GROUPS}
    for ops in (a, b):
        exit2 = [argv for g, argv in ops if expected["ops"][mix.key(argv)][0] == 2]
        assert len(exit2) == shares["exit2"]


def test_every_catalogue_command_has_an_expected_output(catalogue, expected):
    for group, commands in catalogue["groups"].items():
        for argv in commands:
            rc = expected["ops"][mix.key(argv)][0]
            assert (rc == 2) == (group == "exit2"), argv


def test_known_answers_accept_the_recorded_file(expected):
    run.check_known_answers(expected)


def test_known_answers_reject_a_failing_suite_row(expected):
    doc = copy.deepcopy(expected)
    key = mix.key(("suite", "--json"))
    suite = json.loads(doc["ops"][key][1])
    suite["rows"][3]["passed"] = False
    doc["ops"][key][1] = json.dumps(suite)
    with pytest.raises(run.BenchError, match="failing row"):
        run.check_known_answers(doc)


@pytest.mark.parametrize("form", ("twist@Kx2-1,Kx3", "corrupt:module@M2", "corrupt:quad@p=0,q=1"))
def test_known_answers_reject_a_wrong_verdict(expected, form):
    doc = copy.deepcopy(expected)
    key = mix.key(("verify", "--json", form))
    doc["ops"][key][0] = 1 - doc["ops"][key][0]
    with pytest.raises(run.BenchError, match="exit"):
        run.check_known_answers(doc)


@pytest.fixture
def tracer():
    t = layers.Tracer()
    yield t
    t.uninstall()


def test_tracer_wraps_every_rebinding_and_restores_it(tracer):
    import entwiner
    import entwiner.entwine
    import entwiner.suite

    original = entwiner.entwine.check_product_iff
    tracer.install()
    wrapped = entwiner.suite.check_product_iff
    assert wrapped.__wrapped__ is original
    assert entwiner.entwine.check_product_iff is wrapped
    assert entwiner.check_product_iff is wrapped
    assert all(hasattr(f, "__wrapped__") for f in entwiner.suite.ROW_BUILDERS.values())
    tracer.uninstall()
    assert entwiner.suite.check_product_iff is original
    assert not any(hasattr(f, "__wrapped__") for f in entwiner.suite.ROW_BUILDERS.values())


def test_tracer_reports_a_deleted_name_as_absent(tracer, monkeypatch):
    import entwiner.fields
    import entwiner.linalg

    monkeypatch.delattr(entwiner.fields, "_fp_class")
    monkeypatch.delattr(entwiner.linalg, "materialize")
    tracer.install()
    found = tracer.collect()
    for name in ("fields.fp_ops", "linalg.dense.calls", "linalg.dense.s"):
        assert name in found.absent and name not in found.values
    assert found.values["linalg.kron_apply.calls"] == 0


def test_tracer_times_suite_rows_and_builds(tracer):
    import entwiner.suite

    tracer.install()
    rows = ["biproduct", "intertwining"]
    results = entwiner.suite.run_suite("fp:7", rows)
    found = tracer.collect()
    assert [n for n, _ in results] == rows
    assert found.values["suite.row_builds"] == 2
    assert found.values["suite.unique_pair_ratio"] == 1.0
    assert found.values["suite.row.biproduct.s"] > 0
    assert found.values["suite.row.intertwining.s"] > 0
    assert found.values["suite.row.twists.s"] == 0
    assert found.values["fields.fp_ops"] > 0


def test_tracer_reports_suite_metrics_absent_when_the_pool_runs_rows(tracer):
    import entwiner.suite

    tracer.install()
    entwiner.suite.run_suite("fp:7", ["biproduct", "intertwining"], jobs=2)
    found = tracer.collect()
    for name in ("suite.row.biproduct.s", "suite.row_builds", "suite.unique_pair_ratio"):
        assert name in found.absent and name not in found.values


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in layers.METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_sampler_leaves_out_slice_time_and_normalises_by_it():
    import time

    import hostspeed

    with hostspeed.Sampler() as sampler:
        t0, s0 = time.perf_counter(), sampler.spent
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    assert len(sampler.durations) >= 3 and sampler.spent - s0 > 0
    work = t1 - t0 - (sampler.spent - s0)
    assert 0 < work < t1 - t0
    scale = sampler.scale(t0, t1)
    assert scale == hostspeed.REF_S / statistics.median(sampler.durations)
    with pytest.raises(RuntimeError):
        sampler.scale(t1 + 10, t1 + 11)
