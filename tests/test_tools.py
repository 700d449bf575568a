"""Smoke tests of the scripts under tools/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_AB = os.path.join(ROOT, "tools", "row_ab.py")


def test_row_ab_times_one_row_of_this_checkout_against_itself():
    argv = [sys.executable, ROW_AB, ROOT, ROOT, "--rounds", "1", "--rows", "biproduct"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines[1:3]] == [["biproduct", "q"], ["biproduct", "fp:7"]]
    assert lines[3].startswith("round 1: parent ")
    assert lines[4].startswith("median round ratio ")


def test_row_ab_refuses_a_row_that_is_not_a_base_row():
    argv = [sys.executable, ROW_AB, ROOT, ROOT, "--rows", "field-independence"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "'field-independence' is not a base row of both trees" in done.stderr


MIX_AB = os.path.join(ROOT, "tools", "mix_ab.py")


def test_mix_ab_times_one_group_of_this_checkout_against_itself():
    argv = [sys.executable, MIX_AB, ROOT, ROOT, "--rounds", "1", "--groups", "exit2"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split()[:2] == ["exit2", "20"]
    assert lines[2].startswith("round 1: parent ")
    assert lines[3].startswith("median round ratio ")
    words = lines[4].split()
    assert lines[4].startswith("per-command min over rounds, ms: parent p50 ")
    p50_a, p99_a, p50_b, p99_b = (float(words[i]) for i in (7, 9, 12, 14))
    assert 0 < p50_a <= p99_a and 0 < p50_b <= p99_b
    words = lines[5].split()
    assert lines[5].startswith("per-command ratio quartiles: ")
    q1, q2, q3 = map(float, words[3:6])
    assert 0 < q1 <= q2 <= q3
    assert words[6:] == ["(over", "20", "commands)"]


def test_mix_ab_refuses_a_group_that_is_not_in_the_catalogue():
    argv = [sys.executable, MIX_AB, ROOT, ROOT, "--groups", "suite"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "'suite' is not a catalogue group" in done.stderr


DIGEST = os.path.join(ROOT, "tools", "output_digest.py")


def test_output_digest_of_this_checkout_is_the_same_by_default_and_by_root(tmp_path):
    # both from another directory, the root given relative to it, on the
    # cheapest group; the whole digest takes about 7 s a run
    runs = [
        subprocess.run([sys.executable, DIGEST, "--groups", "list", *extra], cwd=tmp_path, capture_output=True, text=True, timeout=60)
        for extra in ([], ["--root", os.path.relpath(ROOT, tmp_path)])
    ]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    default, rooted = (run.stdout for run in runs)
    assert [line.split()[:2] for line in default.splitlines()] == [["list:", "2"]]
    assert rooted == default


def test_output_digest_has_four_groups_and_refuses_any_other():
    done = subprocess.run([sys.executable, DIGEST, "--groups", "lst"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "'lst' is not a group (known: suite, verify, construct, list)" in done.stderr


def test_output_digest_refuses_a_root_without_the_package(tmp_path):
    done = subprocess.run([sys.executable, DIGEST, "--root", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "holds no src/entwiner" in done.stderr
