"""Exact verification and construction of entwining structures.

Everything is computed over an exact field (rationals or a prime field):
verdicts are equalities of matrices, never tolerances.  The main entry
points are re-exported here; the CLI lives in `entwiner.cli`.
"""

from .entwine import (
    COSEMI_KINDS,
    KIND_TABLE,
    KINDS,
    SEMI_KINDS,
    EntwiningData,
    MeasuredModule,
    algebra_axioms,
    check_coproduct_iff,
    check_entwined_variant,
    check_product_iff,
    coalgebra_axioms,
    comm_twist,
    dualize_cosemi,
    entwined_roundtrip,
    factorization_product,
    intertwining_from_semi,
    make_biproduct,
    mult_twist,
    transpose_entwining,
    verify,
)
from .fields import QQ, FieldError, PrimeField, Rationals, field_from_tag
from .linalg import (
    LinearMap,
    ShapeError,
    Space,
    check_law,
    check_laws,
    check_map_identity,
    dual_space,
    identity,
    kron,
    materialize,
    space,
    tensor,
    twist,
)
from .report import IdentityCheck, PreconditionError, Report, merge
from .serial import FormatError, StructureFile, document, emit, ensure_space, load, parse
from .structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    ComoduleCoaction,
    ModuleAction,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_comodule,
    check_module,
    convolution_algebra,
    dualize_algebra,
    opposite_algebra,
    regular_module,
)
from .tambara import (
    GeneratorAction,
    action_from_semi,
    check_action_roundtrip,
    check_comodule_coalgebra_refinement,
    check_cotambara_relations,
    check_module_algebra_refinement,
    check_tambara_relations,
    cotambara_action,
    semi_from_action,
)
from .yangbaxter import (
    TripleSystem,
    TypeIISystem,
    WXZSystem,
    check_braided_algebra,
    check_qybe,
    check_type2,
    check_wxz,
    check_yb_operator,
    commutator_check,
    make_algebra_rmatrix,
    make_braiding,
    make_type2_family,
    semi_system_equivalence,
)

__all__ = [n for n in dir() if not n.startswith("_")]
