"""The public API computes what it is asked: resource ceilings belong to
the command-line front end alone.  Its names are those of __all__, the
hull layer's among them though that layer is loaded on first access."""

import importlib
import inspect

import magoglab

KNOBS = {"ceiling", "allow_large"}

# every name the package root exports
EXPORTED = {
    "BooleanTriangle", "CeilingExceeded", "Classification", "ConvexDecomposition", "DistributionTable",
    "InversionStats", "MagogTriangle", "MagogVertices", "NotInHull", "Permutation", "RationalMatrixPoint",
    "RationalPolynomial", "RationalTrianglePoint", "SignMatrix", "ValidationFailure", "ValidationReport",
    "affine_dimension", "boolean_separating_hyperplane", "boundary_count", "btp_contains", "btp_decompose",
    "btp_facet_audit", "btp_split", "check_necessary_inequalities", "classify", "column_one_positions",
    "column_partial_sums", "conjecture_suite", "count", "distribution", "distribution_bundle",
    "ehrhart_interpolate", "enumerate_objects", "hull_dimension", "inversion_profile", "inversion_stats",
    "is_132_avoiding", "lattice_points_in_dilate", "lp_membership", "magog_separating_hyperplane",
    "magog_triangle_to_matrix", "matrix_to_magog_triangle", "max_negative_ones_bound",
    "max_negative_ones_matrix", "product_formula", "theorem_suite", "tsscpp3_vertex_audit", "validate_asm",
    "validate_boolean_triangle", "validate_magog", "validate_square_sign", "verify_vertex_certificates",
}


def test_every_exported_name_is_importable():
    from magoglab import lp_membership, polytope
    assert set(magoglab.__all__) == EXPORTED
    for name in magoglab.__all__:
        assert getattr(magoglab, name) is not None, name
    assert lp_membership is polytope.lp_membership
    assert magoglab.lp is importlib.import_module("magoglab.lp")
    assert magoglab.RationalMatrixPoint is polytope.RationalMatrixPoint is magoglab.core.RationalMatrixPoint


def test_no_exported_callable_takes_a_resource_knob():
    # exception classes take only a message
    exported = [(name, obj) for name, obj in ((name, getattr(magoglab, name)) for name in magoglab.__all__)
                if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException))]
    assert exported
    for name, obj in exported:
        assert not KNOBS & set(inspect.signature(obj).parameters), name
