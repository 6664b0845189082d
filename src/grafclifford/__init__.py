"""Exact-arithmetic engine for the Clifford algebra of exterior forms.

The package realizes the Clifford product directly on exterior forms
over a pseudo-Euclidean coframe (the signed contracted-wedge product),
builds exact matrix representations and their admissible bilinear
pairings, verifies the quadratic Fierz identities of spinor bilinears
in all three commutant cases, and classifies spinors on signature
(1,2) and pinors on signature (9,0) by the zero pattern of their
covariant forms.  All arithmetic is integer/rational; every check is
an exact equality.
"""

from .errors import (
    DimensionMismatch,
    FormParseError,
    GrafError,
    NotASpinor,
    StructureError,
    UnsupportedSignature,
)
from .exterior import (
    Form,
    Metric,
    Signature,
    grade_involution,
    grade_project,
    interior,
    rational_from_str,
    rational_to_str,
    reversal,
)
from .graf import (
    contracted_wedge,
    graf_product,
    hodge,
    in_truncation_regime,
    lower_projection,
    projector_pm,
    truncated_product,
    volume_form,
    volume_square_sign,
    wedge,
)
from .matrixrep import (
    CASE_ALMOST_COMPLEX,
    CASE_NORMAL,
    CASE_QUATERNIONIC,
    AbsType,
    MainSubalgebra,
    Rep,
    abs_type,
    build_rep,
    build_structure,
)
from .bilinear import (
    Pairing,
    admissible_pairings,
    b_eval,
    solve_pairing,
    standard_pairing,
    table_sigma,
    table_tau,
)
from .fierz import (
    UnitTable,
    check_fierz,
    covariant,
    endo_E,
    fundamental_identity_holds,
    reconstruct_check,
    unit_table,
)
from .classify import (
    Geometry,
    appendix_check,
    census,
    class_report,
    covariants,
    geometry_of,
    majorana_project,
    prepare,
    reduced_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GrafError",
    "DimensionMismatch",
    "UnsupportedSignature",
    "StructureError",
    "NotASpinor",
    "FormParseError",
    # exterior algebra
    "Signature",
    "Metric",
    "Form",
    "wedge",
    "interior",
    "contracted_wedge",
    "grade_project",
    "grade_involution",
    "reversal",
    "rational_from_str",
    "rational_to_str",
    # Clifford product layer
    "graf_product",
    "volume_square_sign",
    "volume_form",
    "hodge",
    "projector_pm",
    "lower_projection",
    "in_truncation_regime",
    "truncated_product",
    # representations
    "AbsType",
    "abs_type",
    "Rep",
    "build_rep",
    "MainSubalgebra",
    "build_structure",
    "CASE_NORMAL",
    "CASE_ALMOST_COMPLEX",
    "CASE_QUATERNIONIC",
    # pairings
    "Pairing",
    "solve_pairing",
    "admissible_pairings",
    "standard_pairing",
    "b_eval",
    "table_sigma",
    "table_tau",
    # Fierz machinery
    "UnitTable",
    "unit_table",
    "covariant",
    "endo_E",
    "fundamental_identity_holds",
    "reconstruct_check",
    "check_fierz",
    # classification
    "Geometry",
    "geometry_of",
    "majorana_project",
    "prepare",
    "covariants",
    "reduced_verdict",
    "class_report",
    "census",
    "appendix_check",
]
