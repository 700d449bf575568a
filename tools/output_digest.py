"""Digest of the CLI's observable output, for byte-identity checks of refactors.

Runs `entwiner.cli.main` in process over a fixed sweep and prints, per group,
the number of commands and one sha256 over each command's argv, exit code and
stdout bytes:

- `suite --json` over `q` and `fp:7`;
- `verify` and `verify --json` with every `--check` name, on every registry
  instance in its plain, `corrupt:` and `dual:` forms, over `q` and `fp:7`;
- `construct` of every construction on fixed arguments over `q` and `fp:7`,
  each output written to a structure file in a temporary directory, then
  `verify` and `verify --json` on every object that file names;
- `list` and `list --json`.

Two checkouts whose digests match give the same stdout and exit code on every
command of the sweep.  Stderr is not part of the digest: it carries only the
wording of exit-2 refusals.  Stdlib only.  Run it from any directory; it
imports the package from `ROOT/src`, ROOT being the checkout this file sits
in unless `--root` names another, so one copy of the script digests any tree.
`--groups` runs only the named groups, in the order above:

    python3 tools/output_digest.py [--root ROOT] [--groups g,h]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile

HOME = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = ("q", "fp:7")
# construction -> arguments; `entwining` reads the file `action` wrote
CONSTRUCT_ARGS = {
    "mult_twist": ["Kx2-1", "2"],
    "comm_twist": ["Kx3", "2"],
    "rmatrix": ["Kx3", "1", "-1"],
    "type2": ["Kx2-1", "2", "3"],
    "biproduct": ["Kmono", "mult_twist@Kmono,q=1", "0:1"],
    "product": ["quad@p=1,q=2"],
    "dualize": ["cotwist@GL2,GL2"],
    "action": ["module@Kx3"],
    "entwining": ["action.json:action"],
}


def load(root: str):
    """`entwiner.cli` and `entwiner.registry`, imported from ROOT/src."""
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    return importlib.import_module("entwiner.cli"), importlib.import_module("entwiner.registry")


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def digest(results) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for argv, code, stdout in results:
        h.update(repr((argv, code, len(stdout))).encode("utf-8"))
        h.update(stdout)
        count += 1
    return count, h.hexdigest()


def ran(commands):
    for argv in commands:
        yield (argv, *run(argv))


def suite_commands():
    for tag in FIELDS:
        yield ["suite", "--json", "--field", tag]


def verify_commands():
    for tag in FIELDS:
        for check in cli.CHECKS:
            for name in registry.INSTANCE_NAMES:
                for expr in (name, "corrupt:" + name, "dual:" + name):
                    for json_flag in ([], ["--json"]):
                        yield ["verify", *json_flag, "--field", tag, "--check", check, expr]


def construct_results():
    # files go by relative name into a fresh directory, so argv does not vary
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for tag in FIELDS:
                for what in cli.CONSTRUCTIONS:
                    argv = ["construct", "--field", tag, what, *CONSTRUCT_ARGS[what]]
                    code, stdout = run(argv)
                    yield argv, code, stdout
                    if code != 0:
                        continue
                    with open(f"{what}.json", "wb") as fh:
                        fh.write(stdout)
                    for obj in json.loads(stdout)["objects"]:
                        for json_flag in ([], ["--json"]):
                            argv = ["verify", *json_flag, f"{what}.json:{obj['name']}"]
                            yield (argv, *run(argv))
        finally:
            os.chdir(home)


# group -> its (argv, exit code, stdout) results, in the order the digest prints them
GROUPS = {
    "suite": lambda: ran(suite_commands()),
    "verify": lambda: ran(verify_commands()),
    "construct": construct_results,
    "list": lambda: ran([["list"], ["list", "--json"]]),
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest the CLI output of a checkout.")
    parser.add_argument("--root", default=HOME, help="the checkout to digest (default: this file's)")
    parser.add_argument("--groups", help=f"comma-separated groups (default: all of {', '.join(GROUPS)})")
    args = parser.parse_args()
    root = args.root
    chosen = args.groups.split(",") if args.groups else GROUPS
    for g in chosen:
        if g not in GROUPS:
            parser.error(f"'{g}' is not a group (known: {', '.join(GROUPS)})")
    if not os.path.isdir(os.path.join(root, "src", "entwiner")):
        parser.error(f"{root} holds no src/entwiner")
    cli, registry = load(root)
    for group, results in GROUPS.items():
        if group not in chosen:
            continue
        count, sha = digest(results())
        print(f"{group}: {count} commands sha256={sha}", flush=True)
