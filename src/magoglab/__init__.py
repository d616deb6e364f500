"""magoglab: exact-arithmetic toolkit for magog matrices, the triangles
in bijection with them, and the two TSSCPP polytopes.

The names of core (the objects, rational points included, validators and
statistics) and of enumeration are bound on import.  The hull layer,
polytope and the lp solver beneath it, is loaded on the first access to
one of its names or modules (``magoglab.lp_membership``, ``from magoglab
import btp_decompose``, ``magoglab.polytope``), so a program that
computes no hull never compiles it.  __all__ lists every public name.
"""

import importlib

from .core import (
    BooleanTriangle,
    Classification,
    InversionStats,
    MagogTriangle,
    Permutation,
    RationalMatrixPoint,
    RationalTrianglePoint,
    SignMatrix,
    ValidationFailure,
    ValidationReport,
    classify,
    column_one_positions,
    column_partial_sums,
    inversion_profile,
    inversion_stats,
    is_132_avoiding,
    magog_triangle_to_matrix,
    matrix_to_magog_triangle,
    max_negative_ones_bound,
    max_negative_ones_matrix,
    validate_asm,
    validate_boolean_triangle,
    validate_magog,
    validate_square_sign,
)
from .enumeration import (
    CeilingExceeded,
    DistributionTable,
    boundary_count,
    conjecture_suite,
    count,
    distribution,
    distribution_bundle,
    enumerate_objects,
    product_formula,
    theorem_suite,
)
# the public names of the hull layer, each resolved by __getattr__
_HULL_NAMES = frozenset({
    "ConvexDecomposition",
    "MagogVertices",
    "NotInHull",
    "RationalPolynomial",
    "affine_dimension",
    "boolean_separating_hyperplane",
    "btp_contains",
    "btp_decompose",
    "btp_facet_audit",
    "btp_split",
    "check_necessary_inequalities",
    "ehrhart_interpolate",
    "hull_dimension",
    "lattice_points_in_dilate",
    "lp_membership",
    "magog_separating_hyperplane",
    "tsscpp3_vertex_audit",
    "verify_vertex_certificates",
})
# the public names bound above from the package's modules, and the hull names
__all__ = sorted({name for name, value in globals().items() if not name.startswith("_")
                  and getattr(value, "__module__", "").startswith(f"{__name__}.")} | _HULL_NAMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("polytope", "lp"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HULL_NAMES:
        return getattr(importlib.import_module(f"{__name__}.polytope"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
