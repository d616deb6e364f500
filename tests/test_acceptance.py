"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is pinned exactly (integer or rational
equality, no tolerances anywhere).
"""

import time
from fractions import Fraction as F

from magoglab import (
    ConvexDecomposition,
    NotInHull,
    RationalMatrixPoint,
    RationalTrianglePoint,
    SignMatrix,
    affine_dimension,
    btp_decompose,
    btp_facet_audit,
    btp_split,
    check_necessary_inequalities,
    conjecture_suite,
    count,
    distribution_bundle,
    ehrhart_interpolate,
    lattice_points_in_dilate,
    lp_membership,
    magog_triangle_to_matrix,
    matrix_to_magog_triangle,
    product_formula,
    theorem_suite,
    validate_boolean_triangle,
    verify_vertex_certificates,
)
from magoglab import golden

from conftest import CRITERION_7_PLAN, criterion_7_points


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_counting():
    t0 = time.monotonic()
    expected = [1, 2, 7, 42, 429, 7436]
    for n in range(1, 7):
        value = expected[n - 1]
        assert product_formula(n) == value
        assert count("magog_matrix", n) == value
        assert count("magog_triangle", n) == value
        assert count("asm", n) == value
        assert count("boolean_triangle", n) == value
    small = time.monotonic() - t0
    assert small < 10, f"n<=6 counting took {small:.1f}s"
    t0 = time.monotonic()
    assert product_formula(7) == 218348
    assert count("magog_matrix", 7) == 218348
    big = time.monotonic() - t0
    assert big < 300, f"n=7 count took {big:.1f}s"
    report(1, f"counts 1,2,7,42,429,7436 for n<=6 in {small:.1f}s; n=7 count 218348 in {big:.1f}s")


def test_criterion_2_square_sign_count():
    for n in range(1, 6):
        assert count("square_sign", n) == 2 ** (n * (n - 1) // 2)
    report(2, "square sign counts equal 2^C(n,2) for n<=5")


def test_criterion_3_table_reproduction():
    t0 = time.monotonic()
    for n in (3, 4, 5, 6, 7):
        magog = distribution_bundle("magog_matrix", n)
        assert magog["neg_ones"].counts == golden.TABLE1[n]
        for stat in ("first_row_one", "first_col_one", "last_row_one"):
            assert magog[stat].counts == golden.TABLE3[n][stat]
        assert magog["posinv"].counts == golden.TABLE5[n]["posinv"]
        assert magog["inv"].counts == golden.TABLE5[n]["inv"]
        asm = distribution_bundle("asm", n)
        assert asm["neg_ones"].counts == golden.TABLE2[n]
        for stat in ("first_row_one", "first_col_one", "last_row_one"):
            assert asm[stat].counts == golden.TABLE4[n]
        assert asm["posinv"].counts == golden.TABLE6[n]["posinv"]
        assert asm["inv"].counts == golden.TABLE6[n]["inv"]
    dt = time.monotonic() - t0
    assert dt < 120, f"table reproduction took {dt:.1f}s"
    report(3, f"tables 1-6 rows n=3..7 reproduced exactly in {dt:.1f}s")


def test_criterion_4_theorem_suite():
    suite = theorem_suite(6)
    assert suite.passed, [c.line() for c in suite.failures()]
    report(4, f"theorem suite: {len(suite.checks)} checks, zero failures for n<=6")


def test_criterion_5_bijection(family):
    for n in range(1, 6):
        for t in family("magog_triangle", n):
            assert matrix_to_magog_triangle(magog_triangle_to_matrix(t)) == t
        for m in family("magog_matrix", n):
            assert magog_triangle_to_matrix(matrix_to_magog_triangle(m)) == m
    demo = SignMatrix.from_rows([[0, 0, 0, 1], [0, 1, 1, -1], [1, 0, 0, 0], [0, 0, 0, 1]])
    tri = matrix_to_magog_triangle(demo)
    assert tri.rows == ((4,), (2, 3), (1, 2, 3), (1, 2, 3, 4))
    assert magog_triangle_to_matrix(tri) == demo
    report(5, "bijection round-trips exhaustively for n<=5; worked example matches bit-exactly")


def test_criterion_6_vertex_certificates():
    t0 = time.monotonic()
    sizes = {3: 7, 4: 42, 5: 429}
    for n, total in sizes.items():
        for polytope in ("tsscpp", "btp"):
            rep = verify_vertex_certificates(n, polytope)
            assert rep.candidates == total
            assert rep.separated == total
            assert rep.passed
    dt = time.monotonic() - t0
    assert dt < 120, f"certificate verification took {dt:.1f}s"
    report(6, f"certificates 7/7, 42/42, 429/429 for both hulls in {dt:.1f}s")


SPLIT_DEMO = [
    ["1/2"],
    ["4/5", 0],
    ["1/10", "1/5", 1],
    [1, "9/10", 1, "1/2"],
    ["1/10", "1/10", "1/10", "1/10", 1],
]
SPLIT_DEMO_UP = [
    ["7/10"], [1, 0], ["3/10", 0, 1], [1, "7/10", 1, "3/10"],
    ["3/10", "3/10", "3/10", "3/10", 1],
]
SPLIT_DEMO_DOWN = [
    ["2/5"], ["7/10", 0], [0, "3/10", 1], [1, 1, 1, "3/5"], [0, 0, 0, 0, 1],
]


def test_criterion_7_decomposition(family):
    t0 = time.monotonic()
    point = RationalTrianglePoint.from_rows(6, SPLIT_DEMO)
    step = btp_split(point)
    assert step.step_up == F(1, 5) and step.step_down == F(1, 10)
    to_rows = lambda rows: tuple(tuple(F(str(v)) for v in row) for row in rows)
    assert step.child_up == to_rows(SPLIT_DEMO_UP)
    assert step.child_down == to_rows(SPLIT_DEMO_DOWN)
    total = step.step_up + step.step_down
    assert (step.step_down / total, step.step_up / total) == (F(1, 3), F(2, 3))
    dec = btp_decompose(point)
    assert dec.reconstruct() == point.rows
    lp_check = lp_membership(point, family("boolean_triangle", 6))
    assert isinstance(lp_check, ConvexDecomposition)

    assert sum(k for _, k in CRITERION_7_PLAN) == 1000
    for verts, pt in criterion_7_points(family):
        dec = btp_decompose(pt)
        assert sum(w for w, _ in dec.terms) == 1
        assert all(validate_boolean_triangle(v).valid for _, v in dec.terms)
        assert dec.reconstruct() == pt.rows
        assert isinstance(lp_membership(pt, verts), ConvexDecomposition)
    dt = time.monotonic() - t0
    assert dt < 300, f"decomposition property suite took {dt:.1f}s"
    report(7, f"worked example exact; 1000 random points reproduced and LP-confirmed in {dt:.1f}s")


def test_criterion_8_facets():
    expected = {3: 7, 4: 15, 5: 26, 6: 40}
    for n, facets in expected.items():
        rep = btp_facet_audit(n)
        assert rep.passed
        assert rep.certified == facets == (n - 1) * (3 * n - 2) // 2
    assert btp_facet_audit(3).certified == golden.TABLE9_FACETS[3]
    assert btp_facet_audit(4).certified == golden.TABLE9_FACETS[4]
    report(8, "facet audits certify 7, 15, 26, 40 irredundant facets for n=3..6")


def test_criterion_9_ehrhart():
    t0 = time.monotonic()
    btp3 = ehrhart_interpolate([(t, lattice_points_in_dilate("btp", t, n=3)) for t in range(4)])
    assert btp3.coefficients == golden.TABLE9_EHRHART[3]
    assert btp3.normalized_volume() == 5
    btp4 = ehrhart_interpolate([(t, lattice_points_in_dilate("btp", t, n=4)) for t in range(7)])
    assert btp4.coefficients == golden.TABLE9_EHRHART[4]
    assert btp4.normalized_volume() == 410
    tss3 = ehrhart_interpolate([(t, lattice_points_in_dilate("tsscpp3", t)) for t in range(5)])
    assert tss3.coefficients == golden.TABLE7_EHRHART[3]
    assert tss3.normalized_volume() == 3
    dt = time.monotonic() - t0
    assert dt < 300, f"ehrhart computation took {dt:.1f}s"
    report(9, f"Ehrhart polynomials exact (volumes 5, 410, 3) in {dt:.1f}s")


def test_criterion_10_dimensions(family):
    assert affine_dimension(family("magog_matrix", 3)) == 4
    assert affine_dimension(family("magog_matrix", 4)) == 9
    assert affine_dimension(family("magog_matrix", 5)) == 16
    for n in range(2, 6):
        assert affine_dimension(family("boolean_triangle", n)) == n * (n - 1) // 2
    report(10, "dimensions 4, 9, 16 for the matrix hull and C(n,2) for the triangle hull")


def test_criterion_11_negative_acceptance(family):
    from magoglab import tsscpp3_vertex_audit

    points = (
        [["1/2", 0, "1/2"], ["1/2", 0, "1/2"], [0, 1, 0]],
        [["1/2", "1/2", 0], [0, 0, 1], ["1/2", "1/2", 0]],
    )
    verts = family("magog_matrix", 3)
    for rows in points:
        p = RationalMatrixPoint.from_rows(rows)
        rep = check_necessary_inequalities(p)
        assert not rep.valid
        # every violation is in the hook family, so the base system passes
        assert all(cid in ("inner-hook", "top-hook", "left-hook") for cid, _ in rep.violations)
        assert ("inner-hook", (1, 1)) in rep.violations
        assert isinstance(lp_membership(p, verts), NotInHull)
    audit = tsscpp3_vertex_audit()
    assert audit.matches_magog3 and len(audit.vertices) == 7
    assert audit.half_integer_relaxation_vertices_found
    report(11, "half-integer points rejected with certificates; audit recovers the 7 vertices")


def test_criterion_12_conjecture_suite(capsys):
    suite = conjecture_suite(6)
    for check in suite.checks:
        mark = "agrees" if check.passed else "DISAGREES"
        print(f"  [{mark}] n={check.n} {check.claim}: conjectured {check.expected}, computed {check.computed}")
    assert all(c.passed for c in suite.checks)
    report(12, f"all {len(suite.checks)} conjectured values agree with brute force for n<=6")
