"""Structure files: canonical emission, parsing, and the registry data file."""

import json
from pathlib import Path

import pytest

from entwiner.entwine import EntwiningData
from entwiner.fields import QQ, FieldError, PrimeField
from entwiner.linalg import twist
from entwiner.registry import (
    ALGEBRA_NAMES,
    BIALGEBRA_NAMES,
    COALGEBRA_NAMES,
    algebra,
    bialgebra,
    coalgebra,
    resolve_instance,
)
from entwiner.serial import (
    FormatError,
    document,
    emit,
    ensure_space,
    load,
    parse,
)
from entwiner.structures import Coalgebra, ComoduleCoaction, regular_module
from entwiner.suite import ROW_NAMES
from entwiner.tambara import action_from_semi
from entwiner.yangbaxter import TypeIISystem, WXZSystem, make_algebra_rmatrix


# every named registry structure over Q; the benchmark catalogue reads it by this path
REGISTRY_JSON = Path(__file__).resolve().parents[1] / "src" / "entwiner" / "data" / "registry.json"
GRID_JSON = Path(__file__).resolve().parent / "data" / "grid.json"


def registry_document(field):
    """Every named registry structure in one structure file.

    `REGISTRY_JSON` is the canonical emission of this document over the
    rationals; a test regenerates it so the data file and the builders cannot
    drift apart.
    """
    sf = document(field)
    seen = {}

    def carry(name, obj):
        if obj.space not in seen:
            seen[obj.space] = sf.add(f"{name}-space", obj.space)
        sf.add(name, obj)

    for name in BIALGEBRA_NAMES:
        carry(name, bialgebra(name, field))
    for name in ALGEBRA_NAMES:
        if name not in BIALGEBRA_NAMES:
            carry(name, algebra(name, field))
    for name in COALGEBRA_NAMES:
        if name not in BIALGEBRA_NAMES:
            carry(name, coalgebra(name, field))
    return sf


def test_packaged_registry_is_canonical():
    text = REGISTRY_JSON.read_text()
    assert emit(parse(text)) == text


def test_packaged_registry_matches_builders():
    assert emit(registry_document(QQ)) == REGISTRY_JSON.read_text()


def test_packaged_registry_objects_equal_builders():
    sf = parse(REGISTRY_JSON.read_text())
    assert sf["Kx2-1"] == algebra("Kx2-1", QQ)
    assert sf["KZ2"] == bialgebra("KZ2", QQ)
    assert sf["GL2"] == coalgebra("GL2", QQ)
    assert sf["M2*"] == coalgebra("M2*", QQ)


def test_packaged_grid_lists_suite_rows():
    doc = json.loads(GRID_JSON.read_text())
    assert tuple(doc["rows"]) == ROW_NAMES


def kitchen_sink(field):
    sf = document(field)
    a = algebra("Kx2-1", field)
    ensure_space(sf, a.space)
    sf.add("A", a)
    h = bialgebra("KZ2", field)
    ensure_space(sf, h.space)
    sf.add("H", h)
    sf.add("H-coalgebra", h.coalgebra)
    sf.add("tau", twist(field, a.space, a.space))
    sf.add("regular", regular_module(a))
    sf.add("self-coaction", ComoduleCoaction(h.coalgebra, h.space, h.comult))
    semi = resolve_instance("mult_twist@Kx2-1,q=1", field)
    sf.add("gamma", EntwiningData(kind="semi", psi=semi.psi, algebra=a))
    sf.add("gamma-fact", EntwiningData(kind="factorization", psi=semi.psi, algebra=a, left_algebra=a))
    c = coalgebra("GL2", field)
    ensure_space(sf, c.space)
    sf.add("C", c)
    cot = resolve_instance("cotwist@GL2,GL2", field)
    sf.add("cot", EntwiningData(kind="cosemi", psi=cot.psi, coalgebra=c))
    sf.add("cot-fact", EntwiningData(kind="cofactorization", psi=cot.psi, coalgebra=c, left_coalgebra=c))
    sf.add("gen", action_from_semi(semi))
    w = make_algebra_rmatrix(a, field.one, field.one)
    sf.add("W", w)
    sf.add("wxz", WXZSystem(w, w, w))
    sf.add("type2", TypeIISystem(w, w, w, w))
    return sf


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_every_object_type_roundtrips(field):
    sf = kitchen_sink(field)
    text = emit(sf)
    back = parse(text)
    assert emit(back) == text
    assert back.order == sf.order
    for name in sf.order:
        assert back[name] == sf.objects[name], name


def test_scalars_serialize_as_fraction_strings():
    sf = document(QQ)
    e = resolve_instance("mult_twist@Kx3,q=1/2", QQ)
    ensure_space(sf, e.algebra.space)
    sf.add("A", e.algebra)
    sf.add("gamma", EntwiningData(kind="semi", psi=e.psi, algebra=e.algebra))
    text = emit(sf)
    assert '"1/2"' in text
    assert "." not in json.dumps(json.loads(text)["objects"][0])
    assert text.endswith("\n")


def test_parse_rejects_malformed_documents():
    with pytest.raises(FormatError):
        parse("not json")
    with pytest.raises(FormatError):
        parse(json.dumps([]))
    with pytest.raises(FormatError):
        parse(json.dumps({"format": 99, "field": "q", "objects": []}))
    with pytest.raises(FieldError):
        parse(json.dumps({"format": 1, "field": "fp:6", "objects": []}))
    with pytest.raises(FormatError):
        parse(json.dumps({"format": 1, "field": "q", "objects": {}}))


@pytest.mark.parametrize("number", ("1" * 5000, "-" + "1" * 5000), ids=("positive", "negative"))
def test_parse_refuses_a_json_number_with_too_many_digits(number):
    text = json.dumps({"format": 1, "field": "q", "objects": []}).replace("1", number, 1)
    with pytest.raises(FormatError, match="structure file holds a number with too many digits"):
        parse(text)


def test_parse_rejects_bad_references_and_names():
    base = {"format": 1, "field": "q"}
    missing_ref = dict(
        base,
        objects=[
            {
                "name": "f",
                "type": "map",
                "domain": ["S"],
                "codomain": ["S"],
                "rows": [["1"]],
            }
        ],
    )
    with pytest.raises(FormatError):
        parse(json.dumps(missing_ref))
    dup = dict(
        base,
        objects=[
            {"name": "S", "type": "space", "labels": ["e"]},
            {"name": "S", "type": "space", "labels": ["e"]},
        ],
    )
    with pytest.raises(FormatError):
        parse(json.dumps(dup))
    unknown_type = dict(base, objects=[{"name": "x", "type": "wat"}])
    with pytest.raises(FormatError):
        parse(json.dumps(unknown_type))


def test_parse_rejects_bad_scalars():
    doc = {
        "format": 1,
        "field": "q",
        "objects": [
            {"name": "S", "type": "space", "labels": ["e"]},
            {
                "name": "f",
                "type": "map",
                "domain": ["S"],
                "codomain": ["S"],
                "rows": [["0.5"]],
            },
        ],
    }
    with pytest.raises(FieldError):
        parse(json.dumps(doc))


def test_structure_file_lookup_errors():
    sf = document(QQ)
    with pytest.raises(FormatError):
        sf["missing"]
    with pytest.raises(FormatError):
        sf.add("", 1)
    a = algebra("K", QQ)
    ensure_space(sf, a.space)
    sf.add("A", a)
    with pytest.raises(FormatError):
        sf.get("A", Coalgebra, "coalgebra")


def test_ensure_space_synthesizes_names_once():
    sf = document(QQ)
    a = algebra("Kx3", QQ)
    ensure_space(sf, a.space)
    ensure_space(sf, a.space)
    spaces = [n for n in sf.order if sf.objects[n] == a.space]
    assert len(spaces) == 1


def test_load_reads_files(tmp_path):
    p = tmp_path / "doc.json"
    sf = kitchen_sink(QQ)
    p.write_text(emit(sf))
    assert emit(load(str(p))) == emit(sf)
