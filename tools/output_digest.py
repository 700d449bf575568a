"""Digest of the CLI's observable output, for byte-identity checks of refactors.

Runs `entwiner.cli.main` in process over a fixed sweep and prints, per group,
the number of commands and one sha256 over each command's argv, exit code and
stdout bytes:

- `suite --json` over `q` and `fp:7`;
- `verify` and `verify --json` with every `--check` name, on every registry
  instance in its plain, `corrupt:` and `dual:` forms, over `q` and `fp:7`.

Two checkouts whose digests match give the same stdout and exit code on every
command of the sweep.  Stderr is not part of the digest: it carries only the
wording of exit-2 refusals.  Stdlib only; takes no options.  Run it from any
directory; it imports the package from the `src/` next to this file:

    python3 tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from entwiner.cli import CHECKS, main  # noqa: E402
from entwiner.registry import INSTANCE_NAMES  # noqa: E402

FIELDS = ("q", "fp:7")


def run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def digest(commands) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for argv in commands:
        code, stdout = run(argv)
        h.update(repr((argv, code, len(stdout))).encode("utf-8"))
        h.update(stdout)
        count += 1
    return count, h.hexdigest()


def suite_commands():
    for tag in FIELDS:
        yield ["suite", "--json", "--field", tag]


def verify_commands():
    for tag in FIELDS:
        for check in CHECKS:
            for name in INSTANCE_NAMES:
                for expr in (name, "corrupt:" + name, "dual:" + name):
                    for json_flag in ([], ["--json"]):
                        yield ["verify", *json_flag, "--field", tag, "--check", check, expr]


if __name__ == "__main__":
    for group, commands in (("suite", suite_commands()), ("verify", verify_commands())):
        count, sha = digest(commands)
        print(f"{group}: {count} commands sha256={sha}", flush=True)
