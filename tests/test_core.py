import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magoglab import core, enumeration, lp, polytope, serialize
from magoglab import (
    BooleanTriangle,
    MagogTriangle,
    Permutation,
    SignMatrix,
    ValidationFailure,
    classify,
    column_one_positions,
    column_partial_sums,
    enumerate_objects,
    inversion_profile,
    inversion_stats,
    is_132_avoiding,
    magog_separating_hyperplane,
    magog_triangle_to_matrix,
    matrix_to_magog_triangle,
    max_negative_ones_bound,
    max_negative_ones_matrix,
    validate_asm,
    validate_boolean_triangle,
    validate_magog,
    validate_square_sign,
)
from magoglab.core import ValidationReport

# the eight 3x3 square sign matrices; all but the last are ASMs, all but
# the second to last are magog matrices
EIGHT = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[0, 1, 0], [1, -1, 1], [0, 1, 0]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 1], [1, 1, -1], [0, 0, 1]],
]

BIJECTION_DEMO_MATRIX = [[0, 0, 0, 1], [0, 1, 1, -1], [1, 0, 0, 0], [0, 0, 0, 1]]
BIJECTION_DEMO_PARTIAL = [[0, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
BIJECTION_DEMO_TRIANGLE = [[4], [2, 3], [1, 2, 3], [1, 2, 3, 4]]


def test_validate_square_sign_accepts_the_eight():
    for rows in EIGHT:
        assert validate_square_sign(SignMatrix.from_rows(rows)).valid


def test_validate_square_sign_identity():
    assert validate_square_sign(SignMatrix.identity(3)).valid


def test_validate_square_sign_column_sum_violation():
    report = validate_square_sign(SignMatrix.from_rows([[1, 0], [1, 0]]))
    assert not report.valid
    assert report.violations[0] == ("column-prefix", (2, 1))
    full = validate_square_sign(SignMatrix.from_rows([[1, 0], [1, 0]]), collect_all=True)
    assert ("column-sum", (2,)) in full.violations


def test_validate_magog_on_the_eight():
    flags = [validate_magog(SignMatrix.from_rows(rows)).valid for rows in EIGHT]
    assert flags == [True, True, True, True, True, True, False, True]


def test_validate_asm_on_the_eight():
    flags = [validate_asm(SignMatrix.from_rows(rows)).valid for rows in EIGHT]
    assert flags == [True, True, True, True, True, True, True, False]


def test_validate_asm_row_prefix_violation_location():
    report = validate_asm(SignMatrix.from_rows(EIGHT[7]))
    assert report.violations[0] == ("row-prefix-upper", (2, 2))


def test_special_inequality_example():
    bad = SignMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    report = validate_magog(bad)
    assert report.violations == (("special", (2, 2)),)


def test_bijection_demo_matrix_is_magog():
    assert validate_magog(SignMatrix.from_rows(BIJECTION_DEMO_MATRIX)).valid


def test_column_partial_sums_demo():
    ps = column_partial_sums(SignMatrix.from_rows(BIJECTION_DEMO_MATRIX))
    assert [list(r) for r in ps.entries] == BIJECTION_DEMO_PARTIAL


def test_column_partial_sums_identity_and_antidiagonal():
    assert [list(r) for r in column_partial_sums(SignMatrix.identity(3)).entries] == [
        [1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert [list(r) for r in column_partial_sums(SignMatrix.antidiagonal(3)).entries] == [
        [0, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_column_partial_sums_rejects_invalid():
    with pytest.raises(ValidationFailure):
        column_partial_sums(SignMatrix.from_rows([[1, 0], [1, 0]]))


def test_partial_sum_row_counts():
    from magoglab import enumerate_objects
    mats = [SignMatrix.from_rows(rows) for rows in EIGHT]
    mats += list(enumerate_objects("square_sign", 4))
    for m in mats:
        ps = column_partial_sums(m)
        for i, row in enumerate(ps.entries, start=1):
            assert sum(row) == i


def test_matrix_to_triangle_demo():
    tri = matrix_to_magog_triangle(SignMatrix.from_rows(BIJECTION_DEMO_MATRIX))
    assert [list(r) for r in tri.rows] == BIJECTION_DEMO_TRIANGLE


def test_matrix_to_triangle_identity():
    tri = matrix_to_magog_triangle(SignMatrix.identity(3))
    assert [list(r) for r in tri.rows] == [[1], [1, 2], [1, 2, 3]]


def test_matrix_to_triangle_antidiagonal_against_direct_sums():
    # independent oracle: accumulate column sums by hand and record ones
    m = SignMatrix.antidiagonal(3)
    expected = []
    run = [0, 0, 0]
    for i in range(3):
        run = [run[j] + m.entries[i][j] for j in range(3)]
        expected.append([j + 1 for j in range(3) if run[j] == 1])
    assert expected == [[3], [2, 3], [1, 2, 3]]
    tri = matrix_to_magog_triangle(m)
    assert [list(r) for r in tri.rows] == expected


def test_matrix_to_triangle_requires_magog():
    with pytest.raises(ValidationFailure):
        matrix_to_magog_triangle(SignMatrix.from_rows(EIGHT[6]))


def test_triangle_to_matrix_demo():
    tri = MagogTriangle.from_rows(BIJECTION_DEMO_TRIANGLE)
    assert [list(r) for r in magog_triangle_to_matrix(tri).entries] == BIJECTION_DEMO_MATRIX


def test_triangle_to_matrix_small_cases():
    assert magog_triangle_to_matrix(MagogTriangle.from_rows([[1], [1, 2], [1, 2, 3]])) == SignMatrix.identity(3)
    # 2x2 case derived by hand: partial sums [[0,1],[1,1]]
    assert [list(r) for r in magog_triangle_to_matrix(MagogTriangle.from_rows([[2], [1, 2]])).entries] == [
        [0, 1], [1, 0]]


def test_triangle_invariants_rejected_at_construction():
    with pytest.raises(ValidationFailure, match="entry-range"):
        MagogTriangle.from_rows([[1], [1, 3], [1, 2, 4]])
    with pytest.raises(ValidationFailure, match="row-increase"):
        MagogTriangle.from_rows([[1], [2, 2], [1, 2, 3]])
    with pytest.raises(ValidationFailure, match="diagonal-step"):
        MagogTriangle.from_rows([[1], [2, 3], [1, 2, 3]])


def test_public_constructors_and_documents_still_check_their_input():
    # only rows a move rule of the enumeration engine emitted skip these
    # checks (core._trusted)
    with pytest.raises(ValueError, match="outside"):
        SignMatrix(2, ((2, 0), (0, 1)))
    with pytest.raises(ValidationFailure, match="diagonal-step"):
        MagogTriangle(3, ((1,), (1, 3), (1, 2, 3)))
    with pytest.raises(ValueError, match="outside"):
        BooleanTriangle(3, ((2,), (0, 1)))
    with pytest.raises(ValidationFailure, match="diagonal-step"):
        serialize.loads('{"kind":"magog-triangle","n":3,"rows":[[1],[1,3],[1,2,3]]}')


def test_psi_raw_extraction_total_on_square_sign():
    # the non-magog permutation still has a well-defined position triangle
    rows = column_one_positions(SignMatrix.from_rows(EIGHT[6]))
    assert rows == ((1,), (1, 3), (1, 2, 3))
    with pytest.raises(ValidationFailure):
        MagogTriangle.from_rows(rows)  # diagonal step 3 > 1 + 1


def test_classify_the_eight():
    c = classify(SignMatrix.from_rows(EIGHT[3]))
    assert (c.square_sign, c.magog, c.asm) == (True, True, True)
    c = classify(SignMatrix.from_rows(EIGHT[6]))
    assert (c.square_sign, c.magog, c.asm) == (True, False, True)
    c = classify(SignMatrix.from_rows(EIGHT[7]))
    assert (c.square_sign, c.magog, c.asm) == (True, True, False)


def test_classification_consistency_on_arbitrary_entries():
    ms = [
        SignMatrix.from_rows([[1, 1], [0, -1]]),
        SignMatrix.from_rows([[0, 0], [0, 0]]),
        SignMatrix.from_rows([[1, 0], [0, 1]]),
    ]
    for m in ms:
        c = classify(m)
        if c.magog or c.asm:
            assert c.square_sign


def test_is_132_avoiding():
    assert not is_132_avoiding(Permutation((2, 4, 3, 1)))
    assert is_132_avoiding(Permutation((1, 2, 3, 4)))
    assert is_132_avoiding(Permutation((3, 2, 1)))
    assert not is_132_avoiding(Permutation((1, 3, 2)))


def test_permutation_law_through_n7():
    for n in range(1, 8):
        for vals in itertools.permutations(range(1, n + 1)):
            p = Permutation(vals)
            assert classify(p.matrix()).magog == is_132_avoiding(p)


def test_inversion_stats_examples():
    s = inversion_stats(SignMatrix.identity(3))
    assert (s.inv, s.posinv, s.neg_count) == (0, 0, 0)
    s = inversion_stats(SignMatrix.antidiagonal(3))
    assert (s.inv, s.posinv, s.neg_count) == (3, 3, 0)
    s = inversion_stats(SignMatrix.from_rows(EIGHT[3]))
    assert (s.inv, s.posinv, s.neg_count) == (2, 1, 1)


def test_inversion_profile_examples():
    assert inversion_profile(SignMatrix.identity(4), 2, 3) == 0
    # direct evaluation of the double sum for the antidiagonal
    assert inversion_profile(SignMatrix.antidiagonal(3), 1, 3) == 2


def test_inversion_profile_sums_to_inv():
    for rows in EIGHT:
        m = SignMatrix.from_rows(rows)
        total = sum(inversion_profile(m, k, l) for k in range(1, 4) for l in range(1, 4))
        assert total == inversion_stats(m).inv


def test_max_negative_ones_matrix_printed_cases():
    assert [list(r) for r in max_negative_ones_matrix(5).entries] == [
        [0, 0, 1, 0, 0],
        [0, 1, -1, 1, 0],
        [1, -1, 1, -1, 1],
        [0, 1, -1, 1, 0],
        [0, 0, 1, 0, 0],
    ]
    assert [list(r) for r in max_negative_ones_matrix(6).entries] == [
        [0, 0, 1, 0, 0, 0],
        [0, 1, -1, 1, 0, 0],
        [1, -1, 1, -1, 1, 0],
        [0, 1, -1, 1, -1, 1],
        [0, 0, 1, -1, 1, 0],
        [0, 0, 0, 1, 0, 0],
    ]


def test_max_negative_ones_matrix_properties():
    for n in range(1, 9):
        m = max_negative_ones_matrix(n)
        negs = sum(1 for row in m.entries for v in row if v == -1)
        assert negs == max_negative_ones_bound(n)
        c = classify(m)
        assert c.magog and c.asm


def test_max_negative_ones_matrix_n2_degenerates_to_permutation():
    m = max_negative_ones_matrix(2)
    assert sum(1 for row in m.entries for v in row if v == -1) == 0
    assert classify(m).magog and classify(m).asm


def test_validate_boolean_triangle_examples():
    bad = BooleanTriangle.from_rows(4, [[1], [1, 1], [1, 0, 1]])
    report = validate_boolean_triangle(bad)
    assert report.violations == (("diagonal", (3, 1)),)

    good = BooleanTriangle.from_rows(6, [[0], [0, 1], [1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0, 0]])
    assert validate_boolean_triangle(good).valid

    for n in (1, 2, 5):
        zero = BooleanTriangle.from_rows(n, [[0] * i for i in range(1, n)])
        assert validate_boolean_triangle(zero).valid


def test_boolean_triangle_shape_checks():
    with pytest.raises(ValueError):
        BooleanTriangle.from_rows(4, [[1], [1, 1]])
    with pytest.raises(ValueError):
        BooleanTriangle.from_rows(3, [[2], [0, 0]])


@pytest.mark.parametrize("call", [matrix_to_magog_triangle, column_one_positions, column_partial_sums,
                                  classify, magog_separating_hyperplane],
                         ids=lambda f: f.__name__)
def test_one_prefix_pass_per_call(monkeypatch, call):
    """Each call checks the square sign conditions once, on the prefixes it
    then reads its answer off."""
    real = core._square_sign_violations
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_square_sign_violations", counted)
    call(SignMatrix.from_rows(BIJECTION_DEMO_MATRIX))
    assert len(calls) == 1


@functools.cache
def square_sign_matrices(n):
    return list(enumerate_objects("square_sign", n))


@st.composite
def sign_rows(draw):
    """Rows of an n x n {-1,0,1} matrix, n <= 6: uniform entries, or (n <= 5)
    a square sign matrix with up to two entries redrawn, so that the three
    families are told apart and not only refused."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((-1, 0, 1))
    if n > 5 or draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = [list(r) for r in draw(st.sampled_from(square_sign_matrices(n))).entries]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entry)
    return rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=sign_rows())
def test_default_report_is_the_first_violation_and_classify_agrees(rows):
    m = SignMatrix.from_rows(rows)
    valid = []
    for validate in (validate_square_sign, validate_magog, validate_asm):
        full = validate(m, collect_all=True)
        assert validate(m) == ValidationReport.of(full.violations[:1])
        valid.append(full.valid)
    c = classify(m)
    assert [c.square_sign, c.magog, c.asm] == valid


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_default_boolean_triangle_report_is_the_first_violation(data, n):
    rows = [data.draw(st.lists(st.integers(0, 1), min_size=i, max_size=i)) for i in range(1, n)]
    b = BooleanTriangle.from_rows(n, rows)
    full = validate_boolean_triangle(b, collect_all=True)
    assert validate_boolean_triangle(b) == ValidationReport.of(full.violations[:1])


# each check of a caller's argument, in every module the CLI calls: the CLI
# reports a ValidationFailure with exit 1 and any other ValueError as a bug
ARGUMENT_CHECKS = {
    "sign-matrix-order": lambda: SignMatrix(0, ()),
    "sign-matrix-shape": lambda: SignMatrix(2, ((1, 0),)),
    "sign-matrix-entry": lambda: SignMatrix(1, ((2,),)),
    "magog-triangle-order": lambda: MagogTriangle(0, ()),
    "magog-triangle-shape": lambda: MagogTriangle(2, ((1,),)),
    "boolean-triangle-order": lambda: BooleanTriangle(0, ()),
    "boolean-triangle-shape": lambda: BooleanTriangle(3, ((0,),)),
    "boolean-triangle-entry": lambda: BooleanTriangle(2, ((2,),)),
    "permutation": lambda: Permutation((1, 1)),
    "inversion-profile": lambda: inversion_profile(SignMatrix.identity(2), 3, 1),
    "max-negative-ones-matrix": lambda: max_negative_ones_matrix(0),
    "enumerate-kind": lambda: enumeration.enumerate_objects("cube", 3),
    "enumerate-order": lambda: enumeration.enumerate_objects("asm", 0),
    "count-kind": lambda: enumeration.count("cube", 3),
    "count-order": lambda: enumeration.count("asm", 0),
    "product-formula": lambda: enumeration.product_formula(0),
    "distribution-kind": lambda: enumeration.distribution_bundle("gapless", 3),
    "distribution-statistic": lambda: enumeration.distribution_bundle("asm", 3, ("height",)),
    "distribution-no-statistics": lambda: enumeration.distribution_bundle("asm", 3, ()),
    "distribution-order": lambda: enumeration.distribution("asm", "inv", 0),
    "boundary-position": lambda: enumeration.boundary_count(3, 4, 1),
    "theorem-suite": lambda: enumeration.theorem_suite(1),
    "conjecture-suite": lambda: enumeration.conjecture_suite(2),
    "rational-matrix-order": lambda: polytope.RationalMatrixPoint.from_rows([]),
    "rational-matrix-shape": lambda: polytope.RationalMatrixPoint(2, ()),
    "rational-triangle-shape": lambda: polytope.RationalTrianglePoint(3, ()),
    "decomposition-empty": lambda: polytope.ConvexDecomposition(()),
    "decomposition-weights": lambda: polytope.ConvexDecomposition(((Fraction(1, 2), SignMatrix.identity(1)),)),
    "certificates-order": lambda: polytope.verify_vertex_certificates(0, "btp"),
    "certificates-polytope": lambda: polytope.verify_vertex_certificates(3, "cube"),
    "lp-no-vertices": lambda: polytope.lp_membership(SignMatrix.identity(2), []),
    "lp-shape": lambda: polytope.lp_membership(SignMatrix.identity(2), [SignMatrix.identity(3)]),
    "lp-mixed-shapes": lambda: polytope.lp_membership(
        BooleanTriangle(3, ((0,), (0, 0))),
        [BooleanTriangle(3, ((0,), (0, 0))), BooleanTriangle(4, ((0,), (0, 0), (0, 0, 0)))]),
    "lp-entry-literal": lambda: lp.solve_feasibility([["x", 0]], [1, 1]),
    "lp-entry-none": lambda: lp.solve_feasibility([[None, 0]], [1, 1]),
    "lp-list-item": lambda: lp.solve_feasibility([[[1, 0], 1]], [1, 0, 1]),
    "lp-vertex-entry": lambda: polytope.lp_membership(
        [[1, 0], [0, 1]], [[[1, 0], [0, 1]], [[0, 1], [1, "x"]]]),
    "lp-vertex-list-item": lambda: polytope.lp_membership([[1, 0], [0, 1]], [[[1, [0]], [0, 1]]]),
    "rational-literal": lambda: polytope.as_fraction("x"),
    "rational-point-entry": lambda: polytope.lp_membership([[1, 0], [0, "x"]], [[[1, 0], [0, 1]]]),
    "facet-audit": lambda: polytope.btp_facet_audit(1),
    "dilate-t": lambda: polytope.check_dilate("btp", -1, n=3),
    "dilate-btp-order": lambda: polytope.check_dilate("btp", 2),
    "dilate-btp-positive": lambda: polytope.lattice_points_in_dilate("btp", 2, n=0),
    "dilate-tsscpp3-order": lambda: polytope.check_dilate("tsscpp3", 2, n=4),
    "dilate-tsscpp-order": lambda: polytope.check_dilate("tsscpp", 2, n=5),
    "dilate-polytope": lambda: polytope.check_dilate("cube", 2, n=3),
    "dilate-interior-tsscpp3": lambda: polytope.lattice_points_in_dilate("tsscpp3", 2, interior=True),
    "dilate-interior-tsscpp": lambda: polytope.lattice_points_in_dilate("tsscpp", 2, n=4, interior=True),
    "dilate-interior-int": lambda: polytope.lattice_points_in_dilate("btp", 2, n=3, interior=1),
    "dilate-interior-text": lambda: polytope.lattice_points_in_dilate("btp", 2, n=3, interior="yes"),
    "dilate-interior-none": lambda: polytope.lattice_points_in_dilate("btp", 2, n=3, interior=None),
    "polynomial-leading": lambda: polytope.RationalPolynomial((Fraction(1), Fraction(0))),
    "affine-dimension": lambda: polytope.affine_dimension([]),
    "affine-dimension-mixed-lengths": lambda: polytope.affine_dimension([(1, 2), (1,)]),
    "affine-dimension-mixed-shapes": lambda: polytope.affine_dimension([((1, 2),), ((1,),)]),
    # as many entries, in rows of other lengths
    "affine-dimension-row-lengths": lambda: polytope.affine_dimension([[[1, 2], [3]], [[1, 2, 3]]]),
    "hull-dimension-kind": lambda: polytope.hull_dimension("cube", 3),
    "hull-dimension-order": lambda: polytope.hull_dimension("asm", 0),
    "polynomial-no-coefficients": lambda: polytope.RationalPolynomial(()),
    "functional-point-length": lambda: polytope.NotInHull((Fraction(1), Fraction(2)), Fraction(0)).value_at([[1]]),
    # a float, a bool or a whole Fraction is no entry of an integer kind, and
    # from_rows keeps only whole values: nothing is truncated
    "sign-matrix-bool-entry": lambda: SignMatrix(2, ((True, False), (False, True))),
    "sign-matrix-float-entry": lambda: SignMatrix(1, ((1.0,),)),
    "sign-matrix-fraction-entry": lambda: SignMatrix(1, ((Fraction(1),),)),
    "sign-matrix-rows-half": lambda: SignMatrix.from_rows([[Fraction(3, 2)]]),
    "sign-matrix-rows-float": lambda: SignMatrix.from_rows([[1.9]]),
    "magog-triangle-rows-float": lambda: MagogTriangle.from_rows([[1.0]]),
    "boolean-triangle-bool-entry": lambda: BooleanTriangle(3, ((False,), (True, False))),
    "boolean-triangle-rows-float": lambda: BooleanTriangle.from_rows(2, [[0.99]]),
    "permutation-float": lambda: Permutation((1.0,)),
    "rational-bool": lambda: polytope.as_fraction(True),
    "rational-matrix-float": lambda: polytope.RationalMatrixPoint(1, ((1.0,),)),
    "rational-triangle-float": lambda: polytope.RationalTrianglePoint(2, ((0.5,),)),
    "rational-triangle-order": lambda: polytope.RationalTrianglePoint(None, ()),
    "decomposition-float-weight": lambda: polytope.ConvexDecomposition(
        ((0.5, SignMatrix.identity(2)), (0.5, SignMatrix.antidiagonal(2)))),
    "lp-float-entry": lambda: lp.solve_feasibility([[0.5]], [1]),
    "lp-float-rhs": lambda: lp.solve_feasibility([[1]], [0.5]),
    "lp-vertex-float": lambda: polytope.lp_membership([[1]], [[[0.5]], [[1]]]),
    "lp-column-not-a-sequence": lambda: lp.solve_feasibility([1, 2], [1]),
    "lp-vertex-not-rows": lambda: polytope.lp_membership([[1]], [1, 2]),
    "count-order-float": lambda: enumeration.count("asm", 2.5),
    "count-order-text": lambda: enumeration.count("asm", "3"),
    "dilate-t-float": lambda: polytope.lattice_points_in_dilate("btp", 1.5, n=3),
    "facet-audit-float": lambda: polytope.btp_facet_audit(2.5),
    "serialize-unknown": lambda: serialize.dumps(object()),
    "boundary-position-float": lambda: enumeration.boundary_count(3, 1.0, 1),
    "boundary-order-text": lambda: enumeration.boundary_count("3", 1, 1),
    "inversion-profile-float": lambda: inversion_profile(SignMatrix.identity(2), 1.0, 1),
    "theorem-suite-float": lambda: enumeration.theorem_suite(2.5),
    "conjecture-suite-float": lambda: enumeration.conjecture_suite(3.0),
    "interpolation-degree-float": lambda: polytope.ehrhart_interpolate([(0, 1), (1, 2)], 1.5),
    "functional-float": lambda: polytope.NotInHull((0.5,), Fraction(1)),
    "polynomial-float": lambda: polytope.RationalPolynomial((0.5, 1)),
    # a row, a right-hand side or a term that is not a sequence or a pair
    "sign-matrix-row-not-a-sequence": lambda: SignMatrix(1, (5,)),
    "boolean-triangle-row-not-a-sequence": lambda: BooleanTriangle(2, (None,)),
    "rational-triangle-row-not-a-sequence": lambda: polytope.RationalTrianglePoint(2, (Fraction(1, 2),)),
    "lp-rhs-not-a-sequence": lambda: lp.solve_feasibility([[1]], 0.5),
    "decomposition-term-not-a-pair": lambda: polytope.ConvexDecomposition((Fraction(1, 2),)),
    "interpolation-repeated-t": lambda: polytope.ehrhart_interpolate([(0, 1), (0, 2)]),
    "interpolation-inconsistent": lambda: polytope.ehrhart_interpolate([(0, 1), (Fraction(3, 2), 2), (2, 3)], 1),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_CHECKS))
def test_argument_checks_raise_validation_failure(name):
    with pytest.raises(ValidationFailure):
        ARGUMENT_CHECKS[name]()


# a value that is not an exact number, or not one of the right type
JUNK = (0.5, 1.0, True, None, "x", Fraction(3, 2), [0])


# entry points and valid arguments; a junk value goes in place of one
# argument that is a number or a word, or of one cell of an argument made
# of rows, or, where the library reads plain rows, of one row, column or
# vertex (``nested``)
JUNK_CALLS = {
    "SignMatrix": (SignMatrix, (2, ((0, 1), (1, 0))), False),
    "SignMatrix.from_rows": (SignMatrix.from_rows, ([[0, 1], [1, 0]],), False),
    "MagogTriangle": (MagogTriangle, (2, ((1,), (1, 2))), False),
    "MagogTriangle.from_rows": (MagogTriangle.from_rows, ([[2], ["1", 2]],), False),
    "BooleanTriangle": (BooleanTriangle, (3, ((1,), (0, 1))), False),
    "BooleanTriangle.from_rows": (BooleanTriangle.from_rows, (3, [[1], [0, Fraction(1)]]), False),
    "RationalMatrixPoint": (polytope.RationalMatrixPoint, (2, ((Fraction(1, 2), 0), (Fraction(1, 2), 1))), False),
    "RationalMatrixPoint.from_rows": (polytope.RationalMatrixPoint.from_rows, ([["1/2", 0], [Fraction(1, 2), 1]],),
                                      False),
    "RationalTrianglePoint": (polytope.RationalTrianglePoint, (3, ((Fraction(1, 2),), (0, 1))), False),
    "RationalTrianglePoint.from_rows": (polytope.RationalTrianglePoint.from_rows, (3, [["1/2"], [0, 1]]), False),
    "btp_contains": (lambda n, rows: polytope.btp_contains(polytope.RationalTrianglePoint(n, rows)),
                     (3, ((Fraction(1, 2),), (0, 1))), False),
    "btp_contains-boolean": (lambda n, rows: polytope.btp_contains(BooleanTriangle(n, rows)),
                             (3, ((1,), (0, 1))), False),
    "solve_feasibility": (lp.solve_feasibility, ([[1, 0], [Fraction(1, 2), (1,)]], [1, "2"]), True),
    "lp_membership": (polytope.lp_membership,
                      ([["1/2", Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
                       [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]), True),
    "affine_dimension": (polytope.affine_dimension, ([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, "1/2"], [0, 1]]],),
                         True),
    "hull_dimension": (polytope.hull_dimension, ("asm", 3), False),
    "boundary_count": (enumeration.boundary_count, (3, 2, 1), False),
    "inversion_profile": (lambda k, l: inversion_profile(SignMatrix.identity(3), k, l), (2, 1), False),
    "theorem_suite": (enumeration.theorem_suite, (2,), False),
    "NotInHull": (lambda c, o: polytope.NotInHull(c, o).value_at([[1, 0]]), ((Fraction(1, 2), 1), 0), False),
    "RationalPolynomial": (lambda c, t: polytope.RationalPolynomial(c)(t), ((1, Fraction(1, 2)), 3), False),
    "count": (enumeration.count, ("asm", 3), False),
    "lattice_points_in_dilate": (polytope.lattice_points_in_dilate, ("btp", 2, 3), False),
    "lattice_points_in_dilate-tsscpp3": (polytope.lattice_points_in_dilate, ("tsscpp3", 1, None), False),
    "lattice_points_in_dilate-interior": (polytope.lattice_points_in_dilate, ("btp", 3, 3, True), False),
    "ehrhart_interpolate": (polytope.ehrhart_interpolate, ([(0, 1), (1, 3), (2, 5)], 1), True),
}


def _junk_paths(value, nested, path=()):
    """The paths into the arguments where a junk value may go: every leaf,
    and with ``nested`` every sequence below an argument too."""
    if isinstance(value, (list, tuple)):
        if nested and len(path) > 1:
            yield path
        for k, v in enumerate(value):
            yield from _junk_paths(v, nested, path + (k,))
    else:
        yield path


def _with(value, path, new):
    if not path:
        return new
    out = list(value)
    out[path[0]] = _with(value[path[0]], path[1:], new)
    return tuple(out) if isinstance(value, tuple) else out


@settings(derandomize=True, max_examples=1200, deadline=None)
@given(name=st.sampled_from(sorted(JUNK_CALLS)), data=st.data())
def test_a_junk_value_returns_or_raises_validation_failure(name, data):
    fn, args, nested = JUNK_CALLS[name]
    path = data.draw(st.sampled_from(list(_junk_paths(args, nested))))
    junk = data.draw(st.sampled_from(JUNK))
    try:
        fn(*_with(args, path, junk))
    except ValidationFailure:
        pass
