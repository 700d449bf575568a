"""The `cli-mix` command stream.

The catalogue (`catalogue.json`, written by `record.py`) lists every CLI
command the stream contains, in four groups:

- `verify`: `verify [--check C] [--json] EXPR` over every registry instance
  and its `corrupt:`/`dual:` forms, for every (instance, check) pair that
  gives a verdict (exit 0 or 1);
- `emit`: every `construct ...` command of `record.py`'s enumeration whose
  stdout is a structure file, which the benchmark writes to disk as a user
  redirecting stdout would;
- `parse`: `verify [--json] FILE.json:name` over every checkable object of
  the structure files written at set-up and of the packaged
  `data/registry.json`;
- `exit2`: one request per kind of user error the CLI rejects with exit 2
  (bad input, a bad field, missing files and objects, usage errors).

The shares of the groups are the sizes of these enumerations; nothing
weights them.  A stream runs every catalogue command once, in an order
shuffled by the seed, so every seed gives the same commands in the same
shares and only the order differs.

Command templates may contain `{files}`, the directory holding the set-up
structure files; `expand` substitutes it.
"""

from __future__ import annotations

import json
import random

FILES = "{files}"
GROUPS = ("verify", "emit", "parse", "exit2")


def draw(catalogue: dict, seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """The (group, argv template) list for one seed."""
    ops = [(g, tuple(argv)) for g in GROUPS for argv in catalogue["groups"][g]]
    random.Random(seed).shuffle(ops)
    return ops


def key(argv) -> str:
    """The expected-output key of a command template."""
    return json.dumps(list(argv))


def expand(argv, files_dir: str) -> list[str]:
    return [a.replace(FILES, files_dir) for a in argv]
