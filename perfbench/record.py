"""Record the cli-mix catalogue and the expected output of every operation.

    python3 perfbench/record.py        # from the repository root

Writes `perfbench/catalogue.json` (the commands `cli-mix` may draw, and the
structure files it writes at set-up) and `perfbench/expected.json.gz`, which
holds the exit code and exact stdout of every operation of every workload:
the two suite commands and every catalogue command.  Each CLI command is run
twice and must give the same output both times.  Re-record only when a
change is meant to alter output, and say so with the change.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mix  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

REGISTRY_JSON = "src/entwiner/data/registry.json"
QS = ("0", "1", "-1", "2", "-2", "3", "1/2", "-1/3")
RS = ("0", "1", "-1", "2")
LAMBDAS = (("1", "1"), ("2", "3"), ("0", "5"), ("-1", "2"))


def _slug(i: int, argv) -> str:
    return f"{i:03d}-" + re.sub(r"[^A-Za-z0-9.-]+", "_", "-".join(argv[1:])) + ".json"


def _objects(text: str) -> list[str]:
    return [o["name"] for o in json.loads(text)["objects"]]


def _catalogue_text(groups: dict, files: list) -> str:
    """The catalogue as JSON with one command per line, so diffs stay readable."""

    def block(items, indent: int) -> str:
        pad = " " * indent
        return "[\n" + ",\n".join(f"{pad}  {json.dumps(x)}" for x in items) + f"\n{pad}]"

    inner = ",\n".join(f'    "{g}": {block(v, 4)}' for g, v in groups.items())
    return '{\n  "groups": {\n' + inner + '\n  },\n  "files": ' + block(files, 2) + "\n}\n"


class Recorder:
    def __init__(self, cli, files_dir: str):
        self.cli = cli
        self.files_dir = files_dir
        self.ops: dict[str, list] = {}
        self.groups: dict[str, list] = {g: [] for g in mix.GROUPS}

    def run(self, argv, runs: int = 2) -> tuple[int, str]:
        real = mix.expand(argv, self.files_dir)
        results = {workload.run_command(self.cli, real) for _ in range(runs)}
        if len(results) != 1:
            raise SystemExit(f"nondeterministic output: {argv}")
        ((rc, out),) = results
        self.ops[mix.key(argv)] = [rc, out]
        return rc, out

    def add(self, group: str, argv) -> tuple[int, str]:
        """Run a command and file it under `group` if it gives a verdict.

        An `emit` command must give a structure file (exit 0).  Commands of
        the enumeration that exit 2 (a check that does not apply, an object
        that is not checkable) are left out: the `exit2` group holds one
        request per kind of user error instead.
        """
        rc, out = self.run(argv)
        if rc == 0 or (rc == 1 and group != "emit"):
            self.groups[group].append(list(argv))
        return rc, out


def main() -> int:
    root = os.getcwd()
    cli = workload.import_cli(root)
    from entwiner.cli import CHECKS
    from entwiner.entwine import COSEMI_KINDS, SEMI_KINDS
    from entwiner.fields import QQ
    from entwiner.registry import ALGEBRA_NAMES, BIALGEBRA_NAMES, INSTANCE_NAMES, resolve_instance

    work = os.path.join(root, ".perfbench", "record")
    files_dir = os.path.join(work, "files")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(files_dir)
    rec = Recorder(cli, files_dir)

    for name in INSTANCE_NAMES:
        for form in (name, "corrupt:" + name, "dual:" + name):
            for check in (None,) + tuple(sorted(CHECKS)):
                for js in (False, True):
                    argv = ["verify"] + (["--check", check] if check else [])
                    rec.add("verify", argv + (["--json"] if js else []) + [form])

    emit = []
    for a in ALGEBRA_NAMES:
        for q in QS:
            emit += [["construct", "mult_twist", a, q], ["construct", "comm_twist", a, q]]
        emit += [["construct", "rmatrix", a, r, s] for r in RS for s in RS]
        emit += [["construct", "type2", a, l1, l2] for l1, l2 in LAMBDAS]
    for name in INSTANCE_NAMES:
        e = resolve_instance(name, QQ)
        for form in (name, "corrupt:" + name):
            if e.kind in SEMI_KINDS:
                emit.append(["construct", "action", form])
                emit += [["construct", "biproduct", h, form] for h in BIALGEBRA_NAMES]
            if e.left_algebra is not None:
                emit.append(["construct", "product", form])
            if e.kind in COSEMI_KINDS:
                emit.append(["construct", "dualize", form])

    # Set-up files: one structure file per kind of construction and parameter,
    # uncorrupted instances only, so parse commands read a mix of object types.
    files = []
    for argv in emit:
        rc, out = rec.add("emit", argv)
        if rc != 0 or any(a.startswith("corrupt:") for a in argv):
            continue
        if argv[1] in ("mult_twist", "comm_twist") and argv[3] != "2":
            continue
        if argv[1] == "rmatrix" and argv[3:] != ["1", "-1"]:
            continue
        if argv[1] == "type2" and argv[3:] != ["2", "3"]:
            continue
        name = _slug(len(files), argv)
        with open(os.path.join(files_dir, name), "w", encoding="utf-8") as fh:
            fh.write(out)
        files.append([name, argv])

    for name, argv in files:
        path = f"{mix.FILES}/{name}"
        if argv[1] == "action":
            rec.add("emit", ["construct", "entwining", f"{path}:action"])
        for obj in _objects(rec.ops[mix.key(argv)][1]):
            for js in ([], ["--json"]):
                rec.add("parse", ["verify"] + js + [f"{path}:{obj}"])
    with open(REGISTRY_JSON, encoding="utf-8") as fh:
        registry_objects = _objects(fh.read())
    for obj in registry_objects:
        for js in ([], ["--json"]):
            rec.add("parse", ["verify"] + js + [f"{REGISTRY_JSON}:{obj}"])

    first = f"{mix.FILES}/{files[0][0]}"
    for argv in (
        ["verify", "nosuch@K"],
        ["verify", "twist@K"],
        ["verify", "quad@p=1"],
        ["verify", "mult_twist@K,q=x"],
        ["verify", "dk-KZ2-nosuch"],
        ["verify", "--check", "nosuch", "twist@Kx2-0,Kx2-0"],
        ["verify", "--field", "fp:4", "twist@K,K"],
        ["verify", "--field", "fp:7", f"{first}:psi"],
        ["verify", f"{mix.FILES}/missing.json:psi"],
        ["verify", f"{first}:nosuch"],
        ["verify", f"{REGISTRY_JSON}:nosuch"],
        ["verify"],
        ["frobnicate"],
        ["suite", "--jobs", "x"],
        ["suite", "--grid", "nosuch-row"],
        ["construct", "nosuch"],
        ["construct", "mult_twist", "K"],
        ["construct", "mult_twist", "Q9", "1"],
        ["construct", "rmatrix", "K", "1", "1/0"],
        ["construct", "entwining", "twist@K,K"],
    ):
        rc, _ = rec.run(argv)
        if rc != 2:
            raise SystemExit(f"expected exit 2 from {argv}, got {rc}")
        rec.groups["exit2"].append(argv)

    for argv in run.KNOWN_SUITES:
        rec.run(argv, runs=1)
    kept = {mix.key(argv) for argv in run.KNOWN_SUITES}
    kept.update(mix.key(argv) for commands in rec.groups.values() for argv in commands)
    ops = {k: v for k, v in rec.ops.items() if k in kept}

    with open(os.path.join(HERE, "catalogue.json"), "w", encoding="utf-8") as fh:
        fh.write(_catalogue_text(rec.groups, files))
    doc = {"format": 1, "instances": list(INSTANCE_NAMES), "ops": ops}
    data = json.dumps(doc, sort_keys=True).encode("utf-8")
    with open(os.path.join(HERE, "expected.json.gz"), "wb") as fh:
        fh.write(gzip.compress(data, compresslevel=9, mtime=0))
    shutil.rmtree(work)
    print({g: len(v) for g, v in rec.groups.items()}, "files:", len(files), "ops:", len(ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
