"""Exact-scalar structure files.

A structure file is JSON: a format version, a field tag ("q" or "fp:<p>"),
and an ordered list of named objects.  Matrices are arrays of exact scalar
strings ("-3/2" style), row-major over the declared bases; objects refer to
previously declared objects by name (space references are lists of atomic
space names, tensored in order).  Emission is canonical, so parse then emit
reproduces a canonically emitted file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as _field

from .entwine import KINDS, SEMI_KINDS, EntwiningData
from .fields import Field, field_from_tag
from .linalg import LinearMap, ShapeError, Space, tensor
from .structures import Algebra, Bialgebra, Coalgebra, ComoduleCoaction, ModuleAction
from .tambara import GeneratorAction
from .yangbaxter import TypeIISystem, WXZSystem

FORMAT = 1


class FormatError(ValueError):
    """Malformed structure file: bad JSON, bad reference, or bad shape."""


@dataclass
class StructureFile:
    """Named objects over one field, in declaration order."""

    field: Field
    objects: dict = _field(default_factory=dict)
    order: list = _field(default_factory=list)

    def add(self, name: str, obj):
        if not name or not isinstance(name, str):
            raise FormatError("object names must be nonempty strings")
        if name in self.objects:
            raise FormatError(f"duplicate object name '{name}'")
        self.objects[name] = obj
        self.order.append(name)
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


def _vec(field, vec) -> list:
    return [field.render(v) for v in vec]


def _name_of(sf: StructureFile, obj, what: str) -> str:
    for name in sf.order:
        if sf.objects[name] == obj:
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


def _encode(sf: StructureFile, name: str, obj) -> dict:
    field = sf.field
    if isinstance(obj, Space):
        if not obj.labels:
            raise FormatError("only atomic spaces are named; tensor in references")
        return {"name": name, "type": "space", "labels": list(obj.labels)}
    if isinstance(obj, LinearMap):
        return {
            "name": name,
            "type": "map",
            "domain": _space_refs(sf, obj.domain),
            "codomain": _space_refs(sf, obj.codomain),
            "rows": _rows(field, obj.rows),
        }
    if isinstance(obj, Bialgebra):
        return {
            "name": name,
            "type": "bialgebra",
            "space": _space_refs(sf, obj.space),
            "mult": _rows(field, obj.mult.rows),
            "unit": _vec(field, obj.unit),
            "comult": _rows(field, obj.comult.rows),
            "counit": _vec(field, obj.counit),
        }
    if isinstance(obj, Algebra):
        return {
            "name": name,
            "type": "algebra",
            "space": _space_refs(sf, obj.space),
            "mult": _rows(field, obj.mult.rows),
            "unit": _vec(field, obj.unit),
        }
    if isinstance(obj, Coalgebra):
        return {
            "name": name,
            "type": "coalgebra",
            "space": _space_refs(sf, obj.space),
            "comult": _rows(field, obj.comult.rows),
            "counit": _vec(field, obj.counit),
        }
    if isinstance(obj, ModuleAction):
        return {
            "name": name,
            "type": "module",
            "algebra": _name_of(sf, obj.algebra, "algebra"),
            "space": _space_refs(sf, obj.space),
            "act": _rows(field, obj.act.rows),
        }
    if isinstance(obj, ComoduleCoaction):
        return {
            "name": name,
            "type": "comodule",
            "coalgebra": _name_of(sf, obj.coalgebra, "coalgebra"),
            "space": _space_refs(sf, obj.space),
            "coact": _rows(field, obj.coact.rows),
        }
    if isinstance(obj, EntwiningData):
        out = {"name": name, "type": "entwining", "kind": obj.kind}
        if obj.kind in SEMI_KINDS:
            out["algebra"] = _name_of(sf, obj.algebra, "algebra")
        else:
            out["coalgebra"] = _name_of(sf, obj.coalgebra, "coalgebra")
        if obj.left_algebra is not None:
            out["left_algebra"] = _name_of(sf, obj.left_algebra, "algebra")
        elif obj.left_coalgebra is not None:
            out["left_coalgebra"] = _name_of(sf, obj.left_coalgebra, "coalgebra")
        else:
            out["left"] = _space_refs(sf, obj.left_space)
        out["psi"] = _rows(field, obj.psi.rows)
        return out
    if isinstance(obj, GeneratorAction):
        return {
            "name": name,
            "type": "generator-action",
            "algebra": _name_of(sf, obj.algebra, "algebra"),
            "carrier": _space_refs(sf, obj.carrier),
            "maps": [[_rows(field, m.rows) for m in row] for row in obj.maps],
        }
    if isinstance(obj, WXZSystem):
        return {
            "name": name,
            "type": "wxz-system",
            "w": _name_of(sf, obj.w, "map"),
            "x": _name_of(sf, obj.x, "map"),
            "z": _name_of(sf, obj.z, "map"),
        }
    if isinstance(obj, TypeIISystem):
        return {
            "name": name,
            "type": "type2-system",
            "a": _name_of(sf, obj.a, "map"),
            "b": _name_of(sf, obj.b, "map"),
            "c": _name_of(sf, obj.c, "map"),
            "d": _name_of(sf, obj.d, "map"),
        }
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def emit(sf: StructureFile) -> str:
    doc = {
        "format": FORMAT,
        "field": sf.field.tag,
        "objects": [_encode(sf, name, sf.objects[name]) for name in sf.order],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _parse_rows(field, data, what: str):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{what} must be a list of rows")
    try:
        return tuple(tuple(field.parse(s) for s in row) for row in data)
    except (TypeError, AttributeError):
        raise FormatError(f"{what} entries must be scalar strings") from None


def _parse_vec(field, data, what: str):
    if not isinstance(data, list):
        raise FormatError(f"{what} must be a list of scalar strings")
    try:
        return tuple(field.parse(s) for s in data)
    except (TypeError, AttributeError):
        raise FormatError(f"{what} entries must be scalar strings") from None


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


def _decode(sf: StructureFile, entry: dict):
    field = sf.field
    typ = _need(entry, "type")
    name = _need(entry, "name")
    if typ == "space":
        labels = _need(entry, "labels")
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise FormatError(f"space '{name}' labels must be strings")
        return Space(labels=tuple(labels))
    if typ == "map":
        dom = _ref_space(sf, _need(entry, "domain"), "domain")
        cod = _ref_space(sf, _need(entry, "codomain"), "codomain")
        return LinearMap(field, dom, cod, _parse_rows(field, _need(entry, "rows"), "rows"))
    if typ == "algebra":
        sp = _ref_space(sf, _need(entry, "space"), "space")
        mult = LinearMap(field, tensor(sp, sp), sp, _parse_rows(field, _need(entry, "mult"), "mult"))
        return Algebra(field, sp, mult, _parse_vec(field, _need(entry, "unit"), "unit"))
    if typ == "coalgebra":
        sp = _ref_space(sf, _need(entry, "space"), "space")
        comult = LinearMap(
            field, sp, tensor(sp, sp), _parse_rows(field, _need(entry, "comult"), "comult")
        )
        return Coalgebra(field, sp, comult, _parse_vec(field, _need(entry, "counit"), "counit"))
    if typ == "bialgebra":
        sp = _ref_space(sf, _need(entry, "space"), "space")
        mult = LinearMap(field, tensor(sp, sp), sp, _parse_rows(field, _need(entry, "mult"), "mult"))
        comult = LinearMap(
            field, sp, tensor(sp, sp), _parse_rows(field, _need(entry, "comult"), "comult")
        )
        return Bialgebra(
            field,
            sp,
            mult,
            _parse_vec(field, _need(entry, "unit"), "unit"),
            comult,
            _parse_vec(field, _need(entry, "counit"), "counit"),
        )
    if typ == "module":
        a = sf.get(_need(entry, "algebra"), Algebra, "algebra")
        sp = _ref_space(sf, _need(entry, "space"), "space")
        act = LinearMap(
            field, tensor(sp, a.space), sp, _parse_rows(field, _need(entry, "act"), "act")
        )
        return ModuleAction(a, sp, act)
    if typ == "comodule":
        c = sf.get(_need(entry, "coalgebra"), Coalgebra, "coalgebra")
        sp = _ref_space(sf, _need(entry, "space"), "space")
        coact = LinearMap(
            field, sp, tensor(sp, c.space), _parse_rows(field, _need(entry, "coact"), "coact")
        )
        return ComoduleCoaction(c, sp, coact)
    if typ == "entwining":
        kind = _need(entry, "kind")
        if kind not in KINDS:
            raise FormatError(f"entwining '{name}' has unknown kind '{kind}'")
        extra = {}
        if kind in SEMI_KINDS:
            right = sf.get(_need(entry, "algebra"), Algebra, "algebra")
            extra["algebra"] = right
        else:
            right = sf.get(_need(entry, "coalgebra"), Coalgebra, "coalgebra")
            extra["coalgebra"] = right
        if "left_algebra" in entry:
            left_obj = sf.get(entry["left_algebra"], Algebra, "algebra")
            extra["left_algebra"] = left_obj
            left_sp = left_obj.space
        elif "left_coalgebra" in entry:
            left_obj = sf.get(entry["left_coalgebra"], Coalgebra, "coalgebra")
            extra["left_coalgebra"] = left_obj
            left_sp = left_obj.space
        else:
            left_sp = _ref_space(sf, _need(entry, "left"), "left")
        psi = LinearMap(
            field,
            tensor(left_sp, right.space),
            tensor(right.space, left_sp),
            _parse_rows(field, _need(entry, "psi"), "psi"),
        )
        return EntwiningData(kind=kind, psi=psi, **extra)
    if typ == "generator-action":
        a = sf.get(_need(entry, "algebra"), Algebra, "algebra")
        carrier = _ref_space(sf, _need(entry, "carrier"), "carrier")
        data = _need(entry, "maps")
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise FormatError(f"generator-action '{name}' maps must be a grid")
        maps = tuple(
            tuple(
                LinearMap(field, carrier, carrier, _parse_rows(field, m, "maps"))
                for m in row
            )
            for row in data
        )
        return GeneratorAction(a, carrier, maps)
    if typ == "wxz-system":
        return WXZSystem(
            sf.get(_need(entry, "w"), LinearMap, "map"),
            sf.get(_need(entry, "x"), LinearMap, "map"),
            sf.get(_need(entry, "z"), LinearMap, "map"),
        )
    if typ == "type2-system":
        return TypeIISystem(
            sf.get(_need(entry, "a"), LinearMap, "map"),
            sf.get(_need(entry, "b"), LinearMap, "map"),
            sf.get(_need(entry, "c"), LinearMap, "map"),
            sf.get(_need(entry, "d"), LinearMap, "map"),
        )
    raise FormatError(f"unknown object type '{typ}'")


def parse(text: str) -> StructureFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
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
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
