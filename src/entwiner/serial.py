"""Exact-scalar structure files.

A structure file is JSON: a format version, a field tag ("q" or "fp:<p>"),
and an ordered list of named objects.  Matrices are arrays of exact scalar
strings ("-3/2" style), row-major over the declared bases; objects refer to
previously declared objects by name (space references are lists of atomic
space names, tensored in order).  Emission is canonical, so parse then emit
reproduces a canonically emitted file byte for byte.

The format is data: `TYPES` gives each object type its class and its keys in
emitted order, each with a codec (space references, a reference, a vector, a
matrix, a map or a grid of maps).  One `_encode` and one `_decode` walk it;
only `space` (labels, not references) and `entwining` (the kind picks the
keys) are special cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as _field

from .entwine import KIND_TABLE, KINDS, EntwiningData
from .fields import Field, field_from_tag
from .linalg import LinearMap, ShapeError, Space, tensor
from .structures import Algebra, Bialgebra, Coalgebra, ComoduleCoaction, ModuleAction
from .tambara import GeneratorAction
from .yangbaxter import TypeIISystem, WXZSystem

FORMAT = 1

# Key codecs.  A map's domain and codomain are tensor words over earlier keys
# of the same object; a key holding a structure stands for its space.
SPACES = ("spaces",)  # list of atomic space names, tensored in order
VEC = ("vec",)  # scalar vector
ROWS = ("rows",)  # a bare matrix, row-major
MULT = ("map", ("space", "space"), ("space",))
COMULT = ("map", ("space",), ("space", "space"))
MAP_REF = ("ref", "map")  # the name of an earlier object of that type

# type tag -> (class, whether its constructor takes the field first, keys in
# emitted order); `space` and `entwining` objects are special-cased
TYPES = {
    "map": (LinearMap, True, {"domain": SPACES, "codomain": SPACES, "rows": ROWS}),
    "bialgebra": (
        Bialgebra,
        True,
        {"space": SPACES, "mult": MULT, "unit": VEC, "comult": COMULT, "counit": VEC},
    ),
    "algebra": (Algebra, True, {"space": SPACES, "mult": MULT, "unit": VEC}),
    "coalgebra": (Coalgebra, True, {"space": SPACES, "comult": COMULT, "counit": VEC}),
    "module": (
        ModuleAction,
        False,
        {
            "algebra": ("ref", "algebra"),
            "space": SPACES,
            "act": ("map", ("space", "algebra"), ("space",)),
        },
    ),
    "comodule": (
        ComoduleCoaction,
        False,
        {
            "coalgebra": ("ref", "coalgebra"),
            "space": SPACES,
            "coact": ("map", ("space",), ("space", "coalgebra")),
        },
    ),
    "generator-action": (
        GeneratorAction,
        False,
        {
            "algebra": ("ref", "algebra"),
            "carrier": SPACES,
            "maps": ("grid", ("carrier",), ("carrier",)),
        },
    ),
    "wxz-system": (WXZSystem, False, {"w": MAP_REF, "x": MAP_REF, "z": MAP_REF}),
    "type2-system": (TypeIISystem, False, {"a": MAP_REF, "b": MAP_REF, "c": MAP_REF, "d": MAP_REF}),
}


# an entwining names its left structure, if it has one, else its `left` space
LEFT_KEYS = ("left_algebra", "left_coalgebra")


def _entwining_keys(kind: str, left: str) -> dict:
    """An entwining's keys after `kind`: the right structure of its kind, `left`, psi."""
    right = KIND_TABLE[kind][1]
    left_codec = SPACES if left == "left" else ("ref", left.removeprefix("left_"))
    return {right: ("ref", right), left: left_codec, "psi": ("map", (left, right), (right, left))}


class FormatError(ValueError):
    """Malformed structure file: bad JSON, bad reference, or bad shape."""


@dataclass
class StructureFile:
    """Named objects over one field, in declaration order."""

    field: Field
    objects: dict = _field(default_factory=dict)

    @property
    def order(self) -> list:
        """The object names in declaration order."""
        return list(self.objects)

    def add(self, name: str, obj):
        if not name or not isinstance(name, str):
            raise FormatError("object names must be nonempty strings")
        if name in self.objects:
            raise FormatError(f"duplicate object name '{name}'")
        self.objects[name] = obj
        return obj

    def __getitem__(self, name: str):
        if not isinstance(name, str):
            raise FormatError(f"object references must be names, got {type(name).__name__}")
        try:
            return self.objects[name]
        except KeyError:
            raise FormatError(f"unknown object name '{name}'") from None

    def get(self, name: str, kind: type, what: str):
        obj = self[name]
        if not isinstance(obj, kind):
            raise FormatError(f"'{name}' is not a {what}")
        return obj


def document(field: Field) -> StructureFile:
    return StructureFile(field)


# ---------------------------------------------------------------------------
# emission


def _rows(field, rows) -> list:
    return [[field.render(v) for v in row] for row in rows]


def _name_of(sf: StructureFile, obj, what: str) -> str:
    for name, named in sf.objects.items():
        if named == obj:
            return name
    raise FormatError(f"referenced {what} is not a named object in this file")


def _space_refs(sf: StructureFile, sp: Space) -> list:
    return [_name_of(sf, f, "space") for f in (sp.factors or (sp,))]


def ensure_space(sf: StructureFile, sp: Space) -> None:
    """Add the atomic factors of sp under synthesized names if not yet present."""
    for f in sp.factors or (sp,):
        try:
            _name_of(sf, f, "space")
        except FormatError:
            i = 0
            while f"S{i}" in sf.objects:
                i += 1
            sf.add(f"S{i}", f)


def _encode_value(sf: StructureFile, codec: tuple, value):
    how = codec[0]
    if how == "spaces":
        return _space_refs(sf, value)
    if how == "ref":
        return _name_of(sf, value, codec[1])
    if how == "vec":
        return [sf.field.render(v) for v in value]
    if how == "grid":
        return [[_rows(sf.field, m.rows) for m in row] for row in value]
    return _rows(sf.field, value.rows if how == "map" else value)


def _encode(sf: StructureFile, name: str, obj) -> dict:
    out = {"name": name}
    if isinstance(obj, Space):
        if not obj.labels:
            raise FormatError("only atomic spaces are named; tensor in references")
        out.update(type="space", labels=list(obj.labels))
        return out
    if isinstance(obj, EntwiningData):
        out.update(type="entwining", kind=obj.kind)
        left = next((k for k in LEFT_KEYS if getattr(obj, k) is not None), "left")
        keys, values = _entwining_keys(obj.kind, left), vars(obj) | {"left": obj.left_space}
    else:
        typ = next((t for t, (cls, _, _) in TYPES.items() if isinstance(obj, cls)), None)
        if typ is None:
            raise FormatError(f"cannot serialize object of type {type(obj).__name__}")
        out["type"] = typ
        keys, values = TYPES[typ][2], vars(obj)
    for key, codec in keys.items():
        out[key] = _encode_value(sf, codec, values[key])
    return out


def emit(sf: StructureFile) -> str:
    doc = {
        "format": FORMAT,
        "field": sf.field.tag,
        "objects": [_encode(sf, name, obj) for name, obj in sf.objects.items()],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _parse_vec(field, data, what: str):
    if not isinstance(data, list):
        raise FormatError(f"{what} must be a list of scalar strings")
    try:
        return tuple(field.parse(s) for s in data)
    except (TypeError, AttributeError):
        raise FormatError(f"{what} entries must be scalar strings") from None


def _parse_rows(field, data, what: str):
    if not isinstance(data, list):
        raise FormatError(f"{what} must be a list of rows")
    return tuple(_parse_vec(field, row, what) for row in data)


def _ref_space(sf: StructureFile, refs, what: str) -> Space:
    if isinstance(refs, str):
        refs = [refs]
    if not isinstance(refs, list) or not refs:
        raise FormatError(f"{what} must be a list of space names")
    return tensor(*[sf.get(n, Space, "space") for n in refs])


def _need(entry: dict, key: str):
    if key not in entry:
        raise FormatError(f"object '{entry.get('name', '?')}' is missing '{key}'")
    return entry[key]


def _space_of(value) -> Space:
    return value if isinstance(value, Space) else value.space


def _decode_value(sf: StructureFile, codec: tuple, data, values: dict, key: str):
    how = codec[0]
    if how == "spaces":
        return _ref_space(sf, data, key)
    if how == "ref":
        return sf.get(data, TYPES[codec[1]][0], codec[1])
    if how == "vec":
        return _parse_vec(sf.field, data, key)
    if how == "rows":
        return _parse_rows(sf.field, data, key)
    dom, cod = (tensor(*[_space_of(values[k]) for k in word]) for word in codec[1:])
    if how == "map":
        return LinearMap(sf.field, dom, cod, _parse_rows(sf.field, data, key))
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{key} must be a grid of maps")
    return tuple(
        tuple(LinearMap(sf.field, dom, cod, _parse_rows(sf.field, m, key)) for m in row)
        for row in data
    )


def _decode_keys(sf: StructureFile, entry: dict, keys) -> dict:
    values = {}
    for key, codec in keys.items():
        values[key] = _decode_value(sf, codec, _need(entry, key), values, key)
    return values


def _decode(sf: StructureFile, entry: dict):
    typ = _need(entry, "type")
    name = entry["name"]
    if typ == "space":
        labels = _need(entry, "labels")
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise FormatError(f"space '{name}' labels must be strings")
        return Space(labels=tuple(labels))
    if typ == "entwining":
        kind = _need(entry, "kind")
        if kind not in KINDS:
            raise FormatError(f"entwining '{name}' has unknown kind '{kind}'")
        left = next((k for k in LEFT_KEYS if k in entry), "left")
        values = _decode_keys(sf, entry, _entwining_keys(kind, left))
        values.pop("left", None)
        return EntwiningData(kind=kind, **values)
    spec = TYPES.get(typ) if isinstance(typ, str) else None
    if spec is None:
        raise FormatError(f"unknown object type '{typ}'")
    cls, takes_field, keys = spec
    values = _decode_keys(sf, entry, keys)
    return cls(sf.field, **values) if takes_field else cls(**values)


def decode_json(text: str, what: str):
    """`text` decoded as JSON; a FormatError naming `what` if it cannot be."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what} is nested too deeply to decode") from None
    except ValueError:  # a number with more digits than `int` converts
        raise FormatError(f"{what} holds a number with too many digits") from None


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at `path`; a FormatError naming `what` if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8: {exc}") from None


def parse(text: str) -> StructureFile:
    doc = decode_json(text, "structure file")
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    if doc.get("format") != FORMAT:
        raise FormatError(f"unsupported format {doc.get('format')!r}")
    field = field_from_tag(str(doc.get("field", "")))
    entries = doc.get("objects")
    if not isinstance(entries, list):
        raise FormatError("'objects' must be a list")
    sf = StructureFile(field)
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("each object must be a JSON object")
        try:
            sf.add(_need(entry, "name"), _decode(sf, entry))
        except ShapeError as exc:
            raise FormatError(f"object '{entry.get('name', '?')}': {exc}") from None
    return sf


def load(path: str) -> StructureFile:
    return parse(read_text(path, "structure file"))
