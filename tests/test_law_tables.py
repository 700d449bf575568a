"""The law tables: every identity is a row, vector laws included."""

import os
import random
from dataclasses import replace

import pytest

import entwiner
from entwiner import entwine, structures, suite, tambara, yangbaxter
from entwiner.fields import QQ, PrimeField
from entwiner.linalg import K, LinearMap, dual, from_columns, mirror, tensor, tensor_vec
from entwiner.registry import algebra, bialgebra
from entwiner.report import render_tuple
from entwiner.structures import (
    check_bialgebra,
    check_comodule_algebra,
    check_derivation,
    check_grouplike_bilateral_integral,
)
from entwiner.yangbaxter import check_braided_morphism, make_braiding

from opposite_bialgebras import h4
from reference import vector_identity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def law_tables() -> dict:
    """Every module-level law table of the modules that check laws, by name: a
    `*_LAWS` tuple or dict of rows, or a single `*_LAW` row."""
    tables = {}
    for module in (structures, entwine, yangbaxter, suite, tambara):
        for name, value in vars(module).items():
            if name.endswith("_LAWS"):
                tables[name] = tuple(value.values()) if isinstance(value, dict) else value
            elif name.endswith("_LAW"):
                tables[name] = (value,)
    return tables


def test_every_law_table_row_is_a_name_and_two_words():
    tables = law_tables()
    assert {"BIALGEBRA_LAWS", "INTEGRAL_LAWS", "DERIVATION_LAWS", "ROUNDTRIP_LAWS"} <= set(tables)
    assert {"BRAIDED_MORPHISM_LAWS", "R_COMMUTATIVE_LAW", "SELF_INVERSE_LAW"} <= set(tables)
    for name, rows in tables.items():
        assert rows, name
        for row in rows:
            assert type(row) is tuple and len(row) == 3, (name, row)
            law, lhs, rhs = row
            assert type(law) is str and type(lhs) is list and type(rhs) is list, (name, row)
            for layer in lhs + rhs:
                legs = layer if type(layer) is tuple else (layer,)
                assert legs and all(type(leg) is str for leg in legs), (name, layer)


def test_reading_a_law_names_every_law_table():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Reading a law")[1].split("\n## ")[0]
    assert [name for name in law_tables() if f"`{name}`" not in section] == []


def test_only_linalg_and_the_package_name_the_identity_checker():
    src = os.path.dirname(entwiner.__file__)
    naming = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                if "check_map_identity" in fh.read():
                    naming.append(name)
    assert naming == ["__init__.py", "linalg.py"]


def test_dual_is_an_involution_on_every_law_table_row():
    for name, rows in law_tables().items():
        for row in rows:
            assert dual(dual(row)) == row, (name, row)


def test_dual_transposes_a_law_and_mirror_moves_it_back_to_the_right_leg():
    # README's example: associativity of m is coassociativity of Δ, layer order reversed
    assert dual(structures.ALGEBRA_LAWS[0]) == ("coassociativity", [("Δ", "C"), "Δ"], [("C", "Δ"), "Δ"])
    # the dual of a semi law holds C on the left leg; `mirror` under the same name moves it
    unit = dual(entwine.SEMI_LAWS[0])
    assert unit == ("counit", [("D", "ε"), "ψ"], [("ε", "D")])
    assert mirror(unit, prefix="") == entwine.COSEMI_LAWS[0] == ("counit", [("ε", "D"), "ψ"], [("D", "ε")])


# the package's public names, submodules included; `linalg.mirror` and
# `linalg.dual` are used inside the package and not re-exported
PUBLIC_NAMES = [
    "Algebra", "Bialgebra", "COSEMI_KINDS", "Coalgebra", "ComoduleCoaction", "EntwiningData",
    "FieldError", "FormatError", "GeneratorAction", "IdentityCheck", "KINDS", "KIND_TABLE",
    "LinearMap", "MeasuredModule", "ModuleAction", "PreconditionError", "PrimeField", "QQ",
    "Rationals", "Report", "SEMI_KINDS", "ShapeError", "Space", "StructureFile", "TripleSystem",
    "TypeIISystem", "WXZSystem", "action_from_semi", "algebra_axioms", "check_action_roundtrip",
    "check_algebra", "check_bialgebra", "check_braided_algebra", "check_coalgebra",
    "check_comodule", "check_comodule_coalgebra_refinement", "check_coproduct_iff",
    "check_cotambara_relations", "check_entwined_variant", "check_law", "check_laws",
    "check_map_identity", "check_module", "check_module_algebra_refinement", "check_product_iff",
    "check_qybe", "check_tambara_relations", "check_type2", "check_wxz", "check_yb_operator",
    "coalgebra_axioms", "comm_twist", "commutator_check", "convolution_algebra",
    "cotambara_action", "document", "dual_space", "dualize_algebra", "dualize_cosemi", "emit",
    "ensure_space", "entwine", "entwined_roundtrip", "factorization_product", "field_from_tag",
    "fields", "identity", "intertwining_from_semi", "kron", "linalg", "load",
    "make_algebra_rmatrix", "make_biproduct", "make_braiding", "make_type2_family",
    "materialize", "merge", "mult_twist", "opposite_algebra", "parse", "regular_module",
    "report", "semi_from_action", "semi_system_equivalence", "serial", "space", "structures",
    "tambara", "tensor", "transpose_entwining", "twist", "verify", "yangbaxter",
]


def test_the_package_exports_exactly_its_public_names():
    assert entwiner.__all__ == PUBLIC_NAMES


def _pairing(field, phi, vec):
    return sum((a * b for a, b in zip(phi, vec)), field.zero)


# law -> (field, a vector v) -> (a report that holds the law, the space of its
# two sides as vectors, the two sides computed eagerly); v is the unit of KZ2,
# the image of 1 under a coaction of K, an integral of KZ2, or the image of 1
# under a derivation or an endomorphism of Kx2-1 that fixes x, all of dim 2
def _comult_unit(field, u):
    b = replace(bialgebra("KZ2", field), unit=u)
    return check_bialgebra(b), tensor(b.space, b.space), b.comult.apply(u), tensor_vec(u, u)


def _counit_unit(field, u):
    b = replace(bialgebra("KZ2", field), unit=u)
    return check_bialgebra(b), K, (_pairing(field, b.counit, u),), (field.one,)


def _coaction_unit(field, v):
    k, h = algebra("K", field), bialgebra("KZ2", field)
    coact = from_columns(field, k.space, tensor(k.space, h.space), (v,))
    rep = check_comodule_algebra(k, h, coact)
    return rep, coact.codomain, coact.apply(k.unit), tensor_vec(k.unit, h.unit)


def _grouplike_comult(field, x):
    h = bialgebra("KZ2", field)
    return check_grouplike_bilateral_integral(h, x), tensor(h.space, h.space), h.comult.apply(x), tensor_vec(x, x)


def _grouplike_counit(field, x):
    h = bialgebra("KZ2", field)
    return check_grouplike_bilateral_integral(h, x), K, (_pairing(field, h.counit, x),), (field.one,)


def _unit_annihilation(field, v):
    a = algebra("Kx2-1", field)
    d = from_columns(field, a.space, a.space, (v, (field.zero, field.zero)))
    return check_derivation(a, d), a.space, d.apply(a.unit), (field.zero, field.zero)


def _morphism_unit(field, v):
    a = algebra("Kx2-1", field)
    f = from_columns(field, a.space, a.space, (v, (field.zero, field.one)))
    braiding = make_braiding(a)
    return check_braided_morphism(f, a, braiding, a, braiding), a.space, f.apply(a.unit), a.unit


VECTOR_LAWS = {
    "comult-unit": _comult_unit,
    "counit-unit": _counit_unit,
    "coaction-unit": _coaction_unit,
    "grouplike-comult": _grouplike_comult,
    "grouplike-counit": _grouplike_counit,
    "unit-annihilation": _unit_annihilation,
    "morphism-unit": _morphism_unit,
}
VECTORS = ((1, 0), (0, 1), (1, 1), (2, 0), (3, -1), (0, 0), (4, 4))


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
@pytest.mark.parametrize("law", VECTOR_LAWS)
def test_a_vector_law_fails_at_the_basis_tuple_of_K_with_the_eager_residual(law, field):
    failed = 0
    for ints in VECTORS:
        vec = tuple(map(field.from_int, ints))
        rep, space_, lhs, rhs = VECTOR_LAWS[law](field, vec)
        got, want = rep.check(law), vector_identity(law, field, space_, lhs, rhs)
        assert got.passed == want.passed, (law, ints)
        if not got.passed:
            failed += 1
            assert got.witness == K.basis_tuple(0) == ("1",)
            assert got.residual == want.residual, (law, ints)
            assert f"  [FAIL] {law}  witness=(1)  residual={render_tuple(want.residual)}\n" in rep.render()
    assert failed, law


# ---------------------------------------------------------------------------
# wires: a law's crossings are layout, not layers; no law binds a dense flip


@pytest.fixture
def kernel_calls(monkeypatch):
    """A one-item list: the number of kernel calls (`apply_sparse` of a map,
    a `KronApply` or a `Composite`) made from here on."""
    from entwiner import linalg

    calls = [0]

    def counting(kernel):
        def call(self, col):
            calls[0] += 1
            return kernel(self, col)

        return call

    for cls in (linalg.LinearMap, linalg.KronApply, linalg.Composite):
        monkeypatch.setattr(cls, "apply_sparse", counting(cls.apply_sparse))
    return calls


def bound_maps(monkeypatch, module, run):
    """{law name: (law, maps)} of every law that `module` checks while `run()` runs."""
    laws = {}
    real = module.check_laws

    def recording(table, maps):
        laws.update((law[0], (law, dict(maps))) for law in table)
        return real(table, maps)

    monkeypatch.setattr(module, "check_laws", recording)
    run()
    return laws


def test_a_commutator_column_takes_three_kernel_passes_per_side(kernel_calls):
    # S13 folds its two wires into the layers outside them: 3 layers a side
    rng = random.Random(5)
    a = algebra("Kx2-1", QQ)
    v3 = tensor(a.space, a.space, a.space)
    while True:
        r, s, t = (
            LinearMap(QQ, tensor(a.space, a.space), tensor(a.space, a.space), tuple(tuple(rng.randrange(-1, 2) for _ in range(4)) for _ in range(4)))
            for _ in range(3)
        )
        check = yangbaxter.commutator_check("c", r, s, t)
        kernel_calls[0] = 0
        if not check.passed and check.witness == v3.basis_tuple(0):
            break
    assert kernel_calls[0] == 6


@pytest.mark.parametrize(
    "module, law, run, layers",
    (
        (structures, "comult-multiplicative", lambda: check_bialgebra(h4(QQ)).passed, 2),
        (tambara, "action", lambda: tambara.check_tambara_relations(_m2_action()).passed, 3),
        (tambara, "coaction", lambda: tambara.check_cotambara_relations(_m2_dual()).passed, 3),
    ),
    ids=("comult-multiplicative", "action", "coaction"),
)
def test_a_wire_costs_no_kernel_pass(monkeypatch, kernel_calls, module, law, run, layers):
    from entwiner.linalg import chain_apply_basis, law_chains

    law_, maps = bound_maps(monkeypatch, module, run)[law]
    _, rhs = law_chains(law_, maps)
    assert len(rhs) == layers
    kernel_calls[0] = 0
    assert chain_apply_basis(rhs, 0, QQ)
    assert kernel_calls[0] == layers


def _m2_action():
    from entwiner.registry import resolve_instance

    return tambara.action_from_semi(resolve_instance("comm_twist@M2,q=1", QQ))


def _m2_dual():
    from entwiner.registry import resolve_instance

    return resolve_instance("dual:comm_twist@M2,q=1", QQ)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=("q", "fp7"))
def test_no_law_binds_a_dense_flip(field):
    from entwiner import linalg
    from entwiner.registry import resolve_instance

    kz2, sweedler = bialgebra("KZ2", field), h4(field)
    e, e_dual = (resolve_instance(x, field) for x in ("comm_twist@M2,q=1", "dual:comm_twist@M2,q=1"))
    g = tambara.action_from_semi(e)
    reports = (
        lambda: check_bialgebra(sweedler),
        lambda: check_comodule_algebra(kz2.algebra, kz2, kz2.comult),
        lambda: tambara.check_tambara_relations(g),
        lambda: tambara.check_cotambara_relations(e_dual),
        lambda: tambara.check_module_algebra_refinement(g, e.left_algebra),
        lambda: tambara.check_comodule_coalgebra_refinement(e_dual, e_dual.left_coalgebra),
    )
    linalg._twist.cache_clear()
    verdicts = [rep().to_dict() for rep in reports]
    assert linalg._twist.cache_info().misses == 0
    # the same verdicts as with the flips bound as dense maps, failing ones included
    assert [v["passed"] for v in verdicts] == [True, True, True, False, False, False]
