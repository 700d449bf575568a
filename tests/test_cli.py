"""The command line: verify, suite, construct, list; exit codes 0/1/2."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entwiner
import entwiner.cli
import entwiner.registry
from entwiner.cli import CHECKS, CONSTRUCTIONS, build_parser, main
from entwiner.entwine import EntwiningData
from entwiner.fields import QQ
from entwiner.linalg import ShapeError
from entwiner.registry import INSTANCE_NAMES, algebra, bialgebra, coalgebra
from entwiner.report import IdentityCheck, Report, render_tuple
from entwiner.serial import document, emit, ensure_space, parse
from entwiner.suite import worker_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passing_instance(capsys):
    code, out, _ = run(capsys, "verify", "mult_twist@Kx2-1,q=1")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_failing_instance(capsys):
    code, out, _ = run(capsys, "verify", "mult_twist@Kx3,q=1/2")
    assert code == 1
    assert "[FAIL]" in out
    assert "witness=" in out
    assert "verdict: FAIL" in out


def test_a_failing_check_renders_its_witness_alike_in_verify_and_suite(capsys, monkeypatch):
    rep = entwiner.verify(entwiner.registry.resolve_instance("mult_twist@Kx3,q=1/2", QQ))
    checks = (*rep.failures(), IdentityCheck("no-witness", False))
    monkeypatch.setattr(entwiner.cli, "run_suite", lambda *a, **k: [("row", Report("row", checks))])
    code, suite_out, _ = run(capsys, "suite")
    assert code == 1
    report_out = Report("row", checks).render()
    assert "  [FAIL] left-unit  witness=(x)  residual=(0, 1/2, 0, -1/2, 0, 0, 0, 0, 0)\n" in report_out
    assert "  [FAIL] no-witness  witness=-  residual=-\n" in report_out
    for c in checks:
        line = f"  [FAIL] {c.name}  witness={render_tuple(c.witness)}"
        assert f"{line}\n" in suite_out and f"{line}  residual={render_tuple(c.residual)}\n" in report_out
    assert "  [FAIL] left-unit  witness=(x)\n" in suite_out


def test_verify_of_a_target_without_a_declared_check_is_a_usage_error(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "mult_twist", "Kx2-1", "2")
    path = tmp_path / "gamma.json"
    path.write_text(out)
    assert run(capsys, "verify", f"{path}:A-space") == (2, "", "error: no declared check for Space\n")


def test_verify_over_prime_field(capsys):
    code, out, _ = run(capsys, "verify", "--field", "fp:7", "mult_twist@Kx3,q=1/2")
    assert code == 1


def test_verify_check_selector(capsys):
    code, _, _ = run(capsys, "verify", "--check", "braid", "corrupt:module@Kx3")
    assert code == 1
    code, _, _ = run(capsys, "verify", "--check", "braid", "mult_twist@Kx2-1,q=1")
    assert code == 0
    # corruption that happens to preserve both axiom families still passes
    code, _, _ = run(capsys, "verify", "--check", "braid", "corrupt:mult_twist@Kx2-1,q=1")
    assert code == 0


def test_verify_misspelled_check_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--check", "briad", "mult_twist@Kx2-1,q=1")
    assert code == 2
    assert "briad" in err
    assert "braid" in err  # the known names are listed


def test_verify_unknown_instance_is_usage_error(capsys):
    for expr in ("nonsense@foo", "nonsense@k=1"):
        code, _, err = run(capsys, "verify", expr)
        assert code == 2
        assert err == f"error: unknown instance '{expr}'\n"


@pytest.mark.parametrize(
    "expr",
    (
        "quad@p=1,q=2,q=3",
        "quad@p=1,q=2,r=5",
        "mult_twist@Kx3,q=1,p=2",
        "module@Kx3,q=1",
        "quad@foo,p=1,q=2",
        "dk-KZ2-sign@x",
        "dkalt-KZ2-sign@x,y",
        "quad@p=1,q=2,3",
    ),
)
def test_verify_refuses_repeated_and_foreign_keys(capsys, expr):
    code, out, err = run(capsys, "verify", expr)
    assert code == 2
    assert out == ""
    assert expr in err


def test_verify_dual_of_a_non_factorization_names_it(capsys):
    code, out, err = run(capsys, "verify", "dual:module@Kx3")
    assert code == 2
    assert out == ""
    assert err == "error: dual: needs a factorization; 'module@Kx3' is semi\n"


def test_verify_refuses_a_huge_prime_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "--field", "fp:1000000000000000003", "quad@p=1,q=2")
    assert code == 2
    assert "2**31" in err
    assert time.perf_counter() - start < 5


ONES = "1" * 4301


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", f"mult_twist@Kx3,q={ONES}"),
        ("verify", "--field", "fp:7", f"mult_twist@Kx3,q={ONES}"),
        ("construct", "mult_twist", "Kx3", ONES),
        ("construct", "--field", "fp:7", "mult_twist", "Kx3", f"1/{ONES}"),
    ),
)
def test_a_scalar_with_too_many_digits_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: scalar string of {len(argv[-1].rpartition('=')[2])} characters has too many digits\n"


def digits_value(s):
    """The int that a decimal string spells, read 1,000 digits at a time, each
    chunk well within the digit limit of `int`."""
    sign, s = (-1, s[1:]) if s.startswith("-") else (1, s)
    value = 0
    for k in range(0, len(s), 1000):
        chunk = s[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
def test_a_residual_beyond_the_digit_limit_of_str_is_rendered_in_full(capsys, as_json):
    # q has 4,000 digits, below the parse limit; left-multiplicativity's residual has 7,999
    q = "1" * 4000
    code, out, err = run(capsys, "verify", *(["--json"] if as_json else []), f"mult_twist@Kx3,q={q}")
    assert (code, err) == (1, "")
    if as_json:
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        residuals = {name: checks[name]["residual"] for name in ("left-unit", "left-multiplicativity")}
    else:
        lines = {line.split()[1]: line for line in out.splitlines() if line.startswith("  [FAIL]")}
        residuals = {
            name: lines[name].split("residual=(")[1].rstrip(")").split(", ")
            for name in ("left-unit", "left-multiplicativity")
        }
    # the residuals are those of any q: (0, 1 - q, 0, q - 1, 0, ...) and (0, q² - q, 0, q - q², 0, ...)
    n = int(q)
    zeros = [0] * 5
    assert [digits_value(x) for x in residuals["left-unit"]] == [0, 1 - n, 0, n - 1, *zeros]
    square = n * n - n
    assert [digits_value(x) for x in residuals["left-multiplicativity"]] == [0, square, 0, -square, *zeros]
    assert len(residuals["left-multiplicativity"][1]) == 7999


@pytest.mark.parametrize("what", ("structure file", "grid file"))
def test_a_json_number_with_too_many_digits_is_bad_input(capsys, tmp_path, what):
    p = tmp_path / "big.json"
    if what == "grid file":
        p.write_text('{"rows": [' + "1" * 5000 + "]}")
        argv = ("suite", "--grid", str(p))
    else:
        p.write_text('{"format": ' + "1" * 5000 + ', "field": "q", "objects": []}')
        argv = ("verify", f"{p}:A")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} holds a number with too many digits\n"


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--json", "mult_twist@Kx3,q=1/2")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert any(not c["passed"] for c in doc["checks"])


def test_verify_file_target(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "mult_twist", "Kx2-1", "1")
    assert code == 0
    p = tmp_path / "gamma.json"
    p.write_text(out)
    code, out2, _ = run(capsys, "verify", f"{p}:psi")
    assert code == 0
    assert "verdict: PASS" in out2
    code, _, err = run(capsys, "verify", "--field", "fp:7", f"{p}:psi")
    assert code == 2
    assert "field" in err


@pytest.mark.parametrize("tag", ("fp:7", "FP:7", " fp:7", "fp:07"))
def test_verify_file_target_compares_fields_not_tags(capsys, tmp_path, tag):
    code, out, _ = run(capsys, "construct", "--field", "fp:7", "mult_twist", "Kx2-1", "1")
    assert code == 0
    p = tmp_path / "gamma.json"
    p.write_text(out)
    code, out, err = run(capsys, "verify", "--field", tag, f"{p}:psi")
    assert code == 0, err
    assert "verdict: PASS" in out
    code, _, err = run(capsys, "verify", "--field", "FP:5", f"{p}:psi")
    assert code == 2
    assert "file declares field 'fp:7' but --field says 'fp:5'" in err


@pytest.mark.parametrize(
    "construct, obj, key, value",
    (
        (("mult_twist", "Kx2-1", "1"), "psi", "algebra", []),
        (("mult_twist", "Kx2-1", "1"), "psi", "algebra", {}),
        (("mult_twist", "Kx2-1", "1"), "psi", "algebra", [1]),
        (("mult_twist", "Kx2-1", "1"), "psi", "left_algebra", []),
        (("mult_twist", "Kx2-1", "1"), "A", "space", [["x"]]),
        (("rmatrix", "Kx3", "1", "2"), "W", "codomain", [{}]),
        (("mult_twist", "Kx2-1", "1"), "psi", "name", 7),
        (("mult_twist", "Kx2-1", "1"), "psi", "name", ["psi"]),
        (("mult_twist", "Kx2-1", "1"), "psi", "name", None),
        (("mult_twist", "Kx2-1", "1"), "psi", "type", []),
        (("mult_twist", "Kx2-1", "1"), "psi", "type", {}),
        (("mult_twist", "Kx2-1", "1"), "psi", "kind", []),
    ),
    ids=(
        "algebra=[]",
        "algebra={}",
        "algebra=[1]",
        "left_algebra=[]",
        "space=[[x]]",
        "codomain=[{}]",
        "name=7",
        "name=[psi]",
        "name=null",
        "type=[]",
        "type={}",
        "kind=[]",
    ),
)
def test_verify_refuses_non_string_references(capsys, tmp_path, construct, obj, key, value):
    code, out, _ = run(capsys, "construct", *construct)
    assert code == 0
    doc = json.loads(out)
    next(o for o in doc["objects"] if o["name"] == obj)[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    # a renamed object is asked for by the name str() would give it
    target = str(value) if key == "name" else "psi" if construct[0] == "mult_twist" else "W"
    code, out, err = run(capsys, "verify", f"{p}:{target}")
    assert code == 2
    assert out == ""
    if key == "name":
        assert err.startswith("error: object names must be nonempty strings")
    elif key in ("type", "kind"):
        assert f"unknown {'object type' if key == 'type' else 'kind'} '{value}'" in err
    else:
        assert err.startswith("error: object references must be names, got ")


def test_verify_refuses_checks_whose_structures_are_missing(capsys, tmp_path, flip_entwining):
    wrong = {
        "entwining-rr": ("algebra-factorization", "product-iff"),
        "entwining-ll": ("coalgebra-factorization", "coproduct-iff"),
    }
    for kind, checks in wrong.items():
        e = flip_entwining(kind)
        sf = document(QQ)
        for sp in (e.left_space, e.psi.domain.factors[1]):
            ensure_space(sf, sp)
        sf.add("A", e.algebra or e.left_algebra)
        sf.add("C", e.coalgebra or e.left_coalgebra)
        sf.add("psi", e)
        p = tmp_path / f"{kind}.json"
        p.write_text(emit(sf))
        code, out, _ = run(capsys, "verify", f"{p}:psi")
        assert code == 0, out
        for check in checks:
            code, _, err = run(capsys, "verify", "--check", check, f"{p}:psi")
            assert code == 2, (kind, check)
            assert kind in err


def test_verify_deeply_nested_corrupt(capsys):
    code, out, err = run(capsys, "verify", "corrupt:" * 5000 + "mult_twist@K,q=1")
    assert code == 1, err
    assert "verdict: FAIL" in out


def test_verify_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "no_such_file.json:psi")
    assert code == 2
    assert err


def test_suite_single_row(capsys):
    code, out, _ = run(capsys, "suite", "--grid", "twists")
    assert code == 0
    assert "row twists: PASS" in out
    assert "total:" in out


def test_suite_grid_file(capsys, tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({"rows": ["twists", "biproduct"]}))
    code, out, _ = run(capsys, "suite", "--grid", str(p))
    assert code == 0
    assert "row twists: PASS" in out
    assert "row biproduct: PASS" in out


@pytest.mark.parametrize("grid", (",", "", "empty.json"))
def test_suite_refuses_an_empty_grid(capsys, tmp_path, monkeypatch, grid):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text(json.dumps({"rows": []}))
    code, out, err = run(capsys, "suite", "--grid", grid)
    assert code == 2
    assert "no rows" in err
    assert out == ""


@pytest.mark.parametrize("grid", ("biproduct,biproduct", "twice.json"))
def test_suite_refuses_a_repeated_row(capsys, tmp_path, monkeypatch, grid):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "twice.json").write_text(json.dumps({"rows": ["biproduct", "twists", "biproduct"]}))
    code, out, err = run(capsys, "suite", "--grid", grid)
    assert code == 2
    assert out == ""
    assert err == "error: the suite grid repeats row 'biproduct'\n"


def test_suite_unknown_row_is_usage_error(capsys):
    code, _, err = run(capsys, "suite", "--grid", "twsits")
    assert code == 2
    assert "twsits" in err


def test_suite_bad_field_is_usage_error(capsys):
    code, _, err = run(capsys, "suite", "--field", "fp:6", "--grid", "twists")
    assert code == 2


def test_suite_refuses_a_field_without_its_grid_points(capsys):
    code, out, err = run(capsys, "suite", "--field", "fp:2", "--grid", "twists")
    assert code == 2
    assert "1/2" in err
    assert out == ""


@pytest.mark.parametrize("jobs", ("0", "-5"))
def test_suite_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "suite", "--grid", "twists", "--jobs", jobs)
    assert code == 2
    assert "jobs" in err
    assert out == ""


def test_worker_count_is_capped_by_tasks_and_cpus(monkeypatch):
    import entwiner.suite

    monkeypatch.setattr(entwiner.suite.os, "cpu_count", lambda: 4)
    assert worker_count(1, 10) == 1
    assert worker_count(3, 10) == 3
    assert worker_count(10_000, 10) == 4
    assert worker_count(10_000, 2) == 2
    monkeypatch.setattr(entwiner.suite.os, "cpu_count", lambda: None)
    assert worker_count(8, 10) == 1
    for jobs in (0, -5):
        with pytest.raises(ShapeError):
            worker_count(jobs, 10)


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "--json", "--grid", "twists,biproduct")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "q"
    assert [r["suite"] for r in doc["rows"]] == ["twists", "biproduct"]
    assert all(r["passed"] for r in doc["rows"])


def test_suite_json_names_the_field_by_its_canonical_tag(capsys):
    code, out, _ = run(capsys, "suite", "--json", "--field", " FP:07", "--grid", "biproduct")
    assert code == 0
    assert json.loads(out)["field"] == "fp:7"


def test_suite_output_deterministic_across_jobs(capsys):
    _, one, _ = run(capsys, "suite", "--grid", "twists,biproduct", "--jobs", "1")
    _, two, _ = run(capsys, "suite", "--grid", "twists,biproduct", "--jobs", "2")
    assert one == two


def test_construct_emits_canonical_file(capsys):
    code, out, _ = run(capsys, "construct", "comm_twist", "M2", "1")
    assert code == 0
    sf = parse(out)
    assert sf.order == ["A-space", "A", "psi"]
    e = sf["psi"]
    assert isinstance(e, EntwiningData)
    from entwiner.serial import emit

    assert emit(sf) == out


def test_construct_biproduct_rejects_bad_integral(capsys):
    code, out, _ = run(
        capsys, "construct", "biproduct", "KZ2", "mult_twist@KZ2,q=1", "0:1"
    )
    assert code == 1
    assert "construction precondition failed" in out
    assert "[FAIL]" in out


@pytest.mark.parametrize("integral", ("1:2:3", "1"))
def test_construct_biproduct_refuses_an_integral_of_the_wrong_length(capsys, integral):
    code, out, err = run(capsys, "construct", "biproduct", "KZ2", "twist@Kx2-0,Kx2-0", integral)
    assert code == 2
    assert out == ""
    length = len(integral.split(":"))
    assert err == f"error: the integral has length {length}, but dim H is 2\n"


def test_construct_biproduct_refuses_a_psi_of_the_wrong_shape(capsys):
    code, out, err = run(capsys, "construct", "biproduct", "KZ2", "mult_twist@Kx3,q=1")
    assert code == 2
    assert out == ""
    assert err == "error: psi maps (3, 3) -> (3, 3), not B (x) H -> H (x) B, (3, 2) -> (2, 3)\n"


def test_construct_type2_on_noncommutative_fails_with_report(capsys):
    code, out, _ = run(capsys, "construct", "type2", "M2", "1", "1")
    assert code == 1
    assert "construction precondition failed" in out


def test_construct_action_entwining_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "action", "module@Kx3")
    assert code == 0
    p = tmp_path / "act.json"
    p.write_text(out)
    code, out2, _ = run(capsys, "construct", "entwining", f"{p}:action")
    assert code == 0
    sf = parse(out2)
    from entwiner.fields import QQ
    from entwiner.registry import resolve_instance

    original = resolve_instance("module@Kx3", QQ)
    assert sf["psi"].psi.rows == original.psi.rows


def test_construct_unknown_template_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "wormhole")
    assert code == 2
    assert err


def test_list_sections(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for section in ("algebras", "coalgebras", "instances", "checks", "constructions", "suite-rows"):
        assert section in out


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "mult_twist@Kx2-1,q=1" in doc["instances"]
    assert "twists" in doc["suite-rows"]


def test_every_listed_name_resolves(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    doc = json.loads(out)
    lookups = {"algebras": algebra, "coalgebras": coalgebra, "bialgebras": bialgebra}
    for section, build in lookups.items():
        for name in doc[section]:
            assert build(name, QQ).field == QQ, (section, name)
    for name in doc["instances"]:
        code, _, err = run(capsys, "verify", name)
        assert code in (0, 1), (name, err)


def test_every_instance_head_has_its_line_in_the_grammar(capsys):
    _, out, _ = run(capsys, "list", "--json")
    grammar = json.loads(out)["instance-grammar"]
    for head, (*_, line) in entwiner.registry.INSTANCE_HEADS.items():
        assert line in grammar, head


@pytest.mark.parametrize(
    "command, what, name",
    (
        ("verify twist@Kx2-5,K", "algebra", "Kx2-5"),
        ("verify twist@Kx2-1/2,Kx3", "algebra", "Kx2-1/2"),
        ("verify cotwist@GL2**,GL2", "coalgebra", "GL2**"),
        ("verify cotwist@Kx2-7*,GL2", "coalgebra", "Kx2-7*"),
        ("construct mult_twist Kx2-9 1", "algebra", "Kx2-9"),
    ),
)
def test_names_that_list_does_not_show_are_refused(capsys, command, what, name):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err == f"error: unknown registry {what} '{name}'\n"


def readme_block(after: str) -> list[str]:
    """The lines of README.md's first code block after the text `after`."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read().split(after)[1].split("```")[1].strip("\n").splitlines()


@pytest.mark.parametrize("what", sorted(CONSTRUCTIONS))
def test_constructions_refuse_one_argument_too_few_or_too_many(capsys, what):
    # README.md lists `construct WHAT PARAMS` for each construction
    usages = dict(line.split(" ", 2)[1:] for line in readme_block("their parameters"))
    assert set(usages) == set(CONSTRUCTIONS)
    words = usages[what].split()
    required = [w for w in words if not w.startswith("[")]
    for count in (len(required) - 1, len(words) + 1):
        code, out, err = run(capsys, "construct", what, *["x"] * count)
        assert (code, out) == (2, ""), count
        assert err == f"error: usage: construct {what} {usages[what]}\n"


def test_the_readme_shows_the_grammar_that_list_prints(capsys):
    _, out, _ = run(capsys, "list", "--json")
    assert readme_block("expression grammar") == json.loads(out)["instance-grammar"]


BAD_JSON = {"not UTF-8": b'{"rows": ["\xff"]}', "nested too deeply": b"[" * 200_000}


@pytest.mark.parametrize("fault", sorted(BAD_JSON))
@pytest.mark.parametrize("kind", ("structure file", "grid file"))
def test_undecodable_json_inputs_are_usage_errors(capsys, tmp_path, kind, fault):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_JSON[fault])
    argv = ("verify", f"{path}:psi") if kind == "structure file" else ("suite", "--grid", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind} is {fault}")


def _child_env():
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(entwiner.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "entwiner.cli", "verify", "quad@p=1,q=2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "verdict: PASS" in proc.stdout


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # only `suite --jobs N` with N > 1 imports the pool; --jobs 2 is covered by
    # test_suite_output_deterministic_across_jobs
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, entwiner.cli; print('concurrent.futures.process' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def run_in_process(argv):
    """Exit code, stdout and stderr of one `main` call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_parser_is_built_once_behind_a_plain_function():
    assert build_parser() is build_parser()
    # a plain function, not a cache wrapper, so a tracer can still wrap it
    assert type(entwiner.cli.build_parser) is types.FunctionType
    assert not hasattr(entwiner.cli.build_parser, "cache_info")


def test_a_usage_error_leaves_the_shared_parser_as_it_was():
    argv = ["verify", "--json", "mult_twist@Kx3,q=1/2"]
    first = run_in_process(argv)
    assert first[0] == 1
    for bad in (["verify", "--check"], ["verify", "--nosuch", "quad@p=1,q=2"], ["frobnicate"]):
        code, out, err = run_in_process(bad)
        assert (code, out) == (2, "")
        assert "usage: entwiner" in err
    assert run_in_process(argv) == first


def test_usage_errors_reach_the_stderr_of_the_call_not_of_the_build():
    entwiner.cli._parser.cache_clear()
    at_build = io.StringIO()
    with contextlib.redirect_stderr(at_build):
        build_parser()
    code, out, err = run_in_process(["verify"])
    assert (code, out) == (2, "")
    assert "usage: entwiner verify" in err and "instance" in err
    assert at_build.getvalue() == ""


FUZZ_SOURCES = (
    ("mult_twist", "Kx2-1", "1"),
    ("action", "module@Kx3"),
    ("dualize", "cotwist@GL2,GL2"),
    ("rmatrix", "Kx3", "1", "2"),
    ("biproduct", "Kmono", "mult_twist@Kmono,q=1", "0:1"),
)
FUZZ_VALUES = ([], {}, [1], [[]], [{}], 0, 3, -1, None, True, "", "nosuch", "1/0", "0.5")


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    docs = []
    for argv in FUZZ_SOURCES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["construct", *argv]) == 0
        doc = json.loads(out.getvalue())
        docs.append((doc, list(_leaf_paths(doc)), [o["name"] for o in doc["objects"]]))
    return tmp_path_factory.mktemp("fuzz") / "mutant.json", docs


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_structure_files_keep_the_exit_code_contract(fuzz_documents, data):
    # one JSON leaf of a constructed file replaced by a value of the wrong
    # type or an unknown name: every command exits 0, 1 or 2 and raises nothing
    path, docs = fuzz_documents
    doc, leaves, names = data.draw(st.sampled_from(docs))
    where = data.draw(st.sampled_from(leaves))
    mutant = copy.deepcopy(doc)
    node = mutant
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
    path.write_text(json.dumps(mutant))
    target = f"{path}:{data.draw(st.sampled_from(names))}"
    argv = data.draw(
        st.sampled_from(
            [["verify", target]]
            + [["verify", "--check", c, target] for c in CHECKS]
            + [["construct", "entwining", target], ["construct", "product", target]]
        )
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


FIELD_TAGS = ("q", "Q", " fp:7", "FP:7", "fp:07", "fp:5", "fp:2", "fp:6", "fp:", "fp:x")
FIELD_TAGS += ("fp:-7", "fp:2147483659", "r", "")
# every head and structure name of the registry, and foreign ones
EXPR_HEADS = (*entwiner.registry.INSTANCE_HEADS, "nosuch", "dk-nosuch-trivial", "dk-KZ2", "")
EXPR_TOKENS = tuple(dict.fromkeys([*entwiner.registry.ALGEBRAS, *entwiner.registry.COALGEBRAS]))
EXPR_TOKENS += ("nosuch", "", "q=1", "q=1/2", "q=x", "q=1/0", "p=2", "r=1")
# only the cheap `biproduct` row runs, so the test stays fast
GRID_FILES = ({"rows": ["biproduct"]}, {"rows": ["biproduct", "nosuch"]}, {"rows": []})
GRID_FILES += ({"rows": "biproduct"}, {"rows": [1]}, ["biproduct"], {}, "{", "")


@st.composite
def instance_expressions(draw):
    # a registry instance, or a head with up to three drawn arguments
    wrappers = draw(st.lists(st.sampled_from(("corrupt:", "dual:")), max_size=3))
    if draw(st.booleans()):
        return "".join(wrappers) + draw(st.sampled_from(INSTANCE_NAMES))
    tokens = draw(st.lists(st.sampled_from(EXPR_TOKENS), max_size=3))
    at = draw(st.sampled_from(("@", ""))) if not tokens else "@"
    return "".join(wrappers) + draw(st.sampled_from(EXPR_HEADS)) + at + ",".join(tokens)


@pytest.fixture(scope="module")
def grid_path(tmp_path_factory):
    return tmp_path_factory.mktemp("grid") / "grid.json"


@settings(max_examples=80)
@given(data=st.data())
def test_instances_fields_and_grids_keep_the_exit_code_contract(grid_path, data):
    # every command over the instance grammar, --field tags and grid files
    # exits 0, 1 or 2 and raises nothing
    field = data.draw(st.sampled_from(((),) + tuple(("--field", t) for t in FIELD_TAGS)))
    if data.draw(st.booleans()):
        check = data.draw(st.sampled_from(((),) + tuple(("--check", c) for c in CHECKS)))
        argv = ["verify", *field, *check, data.draw(instance_expressions())]
    else:
        grid = data.draw(st.sampled_from(GRID_FILES))
        grid_path.write_text(grid if isinstance(grid, str) else json.dumps(grid))
        argv = ["suite", "--json", *field, "--grid", str(grid_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
