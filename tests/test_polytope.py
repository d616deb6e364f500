import collections
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magoglab import (
    BooleanTriangle,
    ConvexDecomposition,
    MagogVertices,
    NotInHull,
    RationalMatrixPoint,
    RationalPolynomial,
    RationalTrianglePoint,
    SignMatrix,
    ValidationFailure,
    affine_dimension,
    boolean_separating_hyperplane,
    btp_contains,
    btp_decompose,
    btp_facet_audit,
    btp_split,
    check_necessary_inequalities,
    classify,
    ehrhart_interpolate,
    hull_dimension,
    lattice_points_in_dilate,
    lp_membership,
    magog_separating_hyperplane,
    product_formula,
    tsscpp3_vertex_audit,
    validate_boolean_triangle,
    verify_vertex_certificates,
)
from magoglab import golden, lp, polytope, serialize
from magoglab.core import _prefix_matrices, _special_violations, _square_sign_violations
from magoglab.enumeration import KINDS, _boolean_moves, _count_boolean_rows, _iter_square_sign_rows
from magoglab.lp import Feasible, LPError
from magoglab.polytope import (
    DecompositionError,
    InterpolationError,
    _audit_inequalities_3,
    _extreme_rays,
    _magog_facets,
    _magog_slack,
    _quarter_terms,
    _reduce,
    _solve_square,
    _vertices_3,
    as_fraction,
    btp_inequalities,
)

from conftest import (criterion_7_points, facet_witness, fractional_measure, path_sums, random_membership_point,
                      row_graph_matrices)

HALF_INTEGER_POINT_A = [["1/2", 0, "1/2"], ["1/2", 0, "1/2"], [0, 1, 0]]
HALF_INTEGER_POINT_B = [["1/2", "1/2", 0], [0, 0, 1], ["1/2", "1/2", 0]]

# passes every known-valid inequality yet a_11 > a_44 puts it outside the
# order-4 hull (a_11 <= a_44 holds on all 42 vertices)
OUTSIDE_BUT_PASSING_4 = [
    ["1/2", 0, "1/2", 0],
    [0, "1/2", 0, "1/2"],
    ["1/2", 0, 0, "1/2"],
    [0, "1/2", "1/2", 0],
]

SPLIT_DEMO = [
    ["1/2"],
    ["4/5", 0],
    ["1/10", "1/5", 1],
    [1, "9/10", 1, "1/2"],
    ["1/10", "1/10", "1/10", "1/10", 1],
]
SPLIT_DEMO_UP = [
    ["7/10"],
    [1, 0],
    ["3/10", 0, 1],
    [1, "7/10", 1, "3/10"],
    ["3/10", "3/10", "3/10", "3/10", 1],
]
SPLIT_DEMO_DOWN = [
    ["2/5"],
    ["7/10", 0],
    [0, "3/10", 1],
    [1, 1, 1, "3/5"],
    [0, 0, 0, 0, 1],
]


def rat_rows(rows):
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# necessary inequalities


def test_magog_matrices_pass_necessary_inequalities(family):
    for n in (2, 3, 4, 5):
        for m in family("magog_matrix", n):
            p = RationalMatrixPoint.from_rows(m.entries)
            assert check_necessary_inequalities(p).valid


def test_half_integer_points_fail_only_the_hook_family():
    for rows in (HALF_INTEGER_POINT_A, HALF_INTEGER_POINT_B):
        report = check_necessary_inequalities(RationalMatrixPoint.from_rows(rows))
        assert not report.valid
        assert ("inner-hook", (1, 1)) in report.violations
        assert all(cid in ("inner-hook", "top-hook", "left-hook") for cid, _ in report.violations)


def test_half_integer_point_hook_value_by_hand():
    # a_21 + a_12 + a_22 = 1/2 for the first displayed point
    rows = rat_rows(HALF_INTEGER_POINT_A)
    assert rows[1][0] + rows[0][1] + rows[1][1] == F(1, 2)


def test_necessary_inequalities_full_violation_list():
    # breaks all eight families; pins the families' order and the order
    # within each
    point = RationalMatrixPoint.from_rows([
        ["1/2", -1, 0, "3/2", 0], [0, 0, 1, -1, 0], [2, 0, 0, 0, -1], [0, 1, 0, 0, 0], [-1, 0, "1/3", 0, 1]])
    assert check_necessary_inequalities(point).violations == (
        ("column-sum", (1,)), ("column-sum", (2,)), ("column-sum", (3,)), ("column-sum", (4,)),
        ("column-sum", (5,)), ("row-sum", (2,)), ("row-sum", (5,)),
        ("column-prefix", (1, 2)), ("row-prefix", (1, 2)), ("row-prefix", (1, 3)),
        ("column-prefix", (1, 4)), ("column-prefix", (2, 2)), ("column-prefix", (3, 1)),
        ("column-prefix", (3, 2)), ("column-prefix", (3, 5)), ("column-prefix", (4, 1)),
        ("column-prefix", (4, 5)), ("column-prefix", (5, 1)), ("row-prefix", (5, 1)),
        ("row-prefix", (5, 2)), ("column-prefix", (5, 3)), ("row-prefix", (5, 3)),
        ("row-prefix", (5, 4)), ("special", (1, 1)), ("special", (3, 1)),
        ("inner-hook", (3, 1)), ("top-hook", (1,)), ("left-hook", (1,)), ("left-hook", (2,)),
    )


def test_necessary_inequalities_insufficient_at_n4(family):
    point = RationalMatrixPoint.from_rows(OUTSIDE_BUT_PASSING_4)
    assert check_necessary_inequalities(point).valid
    outcome = lp_membership(point, family("magog_matrix", 4))
    assert isinstance(outcome, NotInHull)


# ---------------------------------------------------------------------------
# separating hyperplanes


def test_identity_certificate_support():
    cert = magog_separating_hyperplane(SignMatrix.identity(3))
    assert cert.support == frozenset({(1, 1), (2, 1), (2, 2)})
    assert cert.threshold == F(5, 2)
    assert cert.evaluate(SignMatrix.identity(3)) == 3


def test_certificate_self_value_is_binomial(family):
    for m in family("magog_matrix", 4):
        cert = magog_separating_hyperplane(m)
        assert len(cert.support) == 6
        assert cert.evaluate(m) == 6


def test_demo_certificate_separates_all_41(family):
    demo = SignMatrix.from_rows([[0, 0, 0, 1], [0, 1, 1, -1], [1, 0, 0, 0], [0, 0, 0, 1]])
    cert = magog_separating_hyperplane(demo)
    others = [m for m in family("magog_matrix", 4) if m != demo]
    assert len(others) == 41
    assert all(cert.evaluate(m) <= 5 for m in others)


def test_magog_certificate_rejects_non_magog():
    with pytest.raises(ValidationFailure):
        magog_separating_hyperplane(SignMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_boolean_certificate(family):
    tris = family("boolean_triangle", 4)
    for b in tris:
        cert = boolean_separating_hyperplane(b)
        assert cert.evaluate(b) == len(cert.support)
        for other in tris:
            if other != b:
                assert cert.evaluate(other) < cert.threshold


@pytest.mark.parametrize("kind, certificate", [
    ("magog_matrix", magog_separating_hyperplane),
    ("boolean_triangle", boolean_separating_hyperplane),
])
def test_support_score_equals_evaluate(family, kind, certificate):
    vertices = family(kind, 4)
    certs = [certificate(v) for v in vertices]
    for cert in certs:
        for other, vertex in zip(certs, vertices):
            assert cert.score_vertex(other.support) == cert.evaluate(vertex)


def test_verify_vertex_certificates_small():
    for n in (2, 3, 4):
        assert verify_vertex_certificates(n, "tsscpp").passed
        assert verify_vertex_certificates(n, "btp").passed


# ---------------------------------------------------------------------------
# boolean triangle polytope membership and decomposition


def test_btp_contains_split_demo():
    assert btp_contains(RationalTrianglePoint.from_rows(6, SPLIT_DEMO)).valid


def test_btp_contains_boolean_triangles(family):
    for b in family("boolean_triangle", 4):
        assert btp_contains(RationalTrianglePoint.from_rows(4, b.rows)).valid


def test_diagonal_check_against_all_zero_one_arrays():
    # an oracle that shares none of the generator's pruning: of all
    # 2^C(n,2) triangle-shaped 0/1 arrays, exactly the boolean triangles pass
    for n in range(1, 6):
        passed = 0
        for bits in itertools.product((0, 1), repeat=n * (n - 1) // 2):
            cells = iter(bits)
            rows = tuple(tuple(next(cells) for _ in range(i)) for i in range(1, n))
            valid = validate_boolean_triangle(BooleanTriangle(n, rows)).valid
            assert btp_contains(RationalTrianglePoint.from_rows(n, rows)).valid == valid
            passed += valid
        assert passed == product_formula(n)


def test_btp_contains_rejects_the_printed_non_example():
    p = RationalTrianglePoint.from_rows(4, [[1], [1, 1], [1, 0, 1]])
    report = btp_contains(p)
    assert report.violations == (("diagonal", (3, 1)),)


def test_btp_contains_rejects_out_of_bounds():
    p = RationalTrianglePoint.from_rows(3, [["3/2"], [0, 0]])
    assert ("upper-bound", (1, 2)) in btp_contains(p).violations
    p = RationalTrianglePoint.from_rows(3, [["-1/2"], [0, 0]])
    assert ("lower-bound", (1, 2)) in btp_contains(p).violations


def test_btp_split_reproduces_frozen_step():
    step = btp_split(RationalTrianglePoint.from_rows(6, SPLIT_DEMO))
    assert step.step_up == F(1, 5)
    assert step.step_down == F(1, 10)
    assert step.child_up == rat_rows(SPLIT_DEMO_UP)
    assert step.child_down == rat_rows(SPLIT_DEMO_DOWN)
    # recombination weights 1/3 and 2/3
    w_up = step.step_down / (step.step_up + step.step_down)
    w_down = step.step_up / (step.step_up + step.step_down)
    assert (w_up, w_down) == (F(1, 3), F(2, 3))


def _draw_combination(data, vertices, min_terms):
    """Rows of a convex combination of min_terms to 5 distinct vertices,
    with weights in 1..12 over their sum."""
    chosen = data.draw(st.lists(st.integers(0, len(vertices) - 1), min_size=min_terms, max_size=5, unique=True))
    weights = [data.draw(st.integers(1, 12)) for _ in chosen]
    total = sum(weights)
    n = vertices[0].n
    return tuple(
        tuple(sum(F(w, total) * vertices[v].rows[i][k] for w, v in zip(weights, chosen)) for k in range(i + 1))
        for i in range(n - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_every_btp_split_lowers_the_fractional_measure(family, data, n):
    """On a convex combination of two or more distinct boolean triangles,
    a fractional point of the hull, both children of btp_split lie in the
    hull, have a smaller fractional measure, and recombine to the point
    with the weights step_down/(step_up+step_down) and step_up/(...)."""
    rows = _draw_combination(data, family("boolean_triangle", n), 2)
    step = btp_split(RationalTrianglePoint(n, rows))
    measure = fractional_measure(n, rows)
    for child in (step.child_up, step.child_down):
        assert fractional_measure(n, child) < measure
        assert btp_contains(RationalTrianglePoint(n, child)).valid
    steps = step.step_up + step.step_down
    w_up, w_down = step.step_down / steps, step.step_up / steps
    assert tuple(tuple(w_up * a + w_down * b for a, b in zip(up, down))
                 for up, down in zip(step.child_up, step.child_down)) == rows


def _split_tree(p):
    """The split tree of p walked node by node, with no merging of equal
    nodes: (the leaves' summed weights as sorted terms, the rows of every
    split node in walk order)."""
    weights, splits = {}, []
    stack = [(F(1), p.rows)]
    while stack:
        w, rows = stack.pop()
        if all(v.denominator == 1 for row in rows for v in row):
            key = tuple(tuple(int(v) for v in row) for row in rows)
            weights[key] = weights.get(key, 0) + w
            continue
        step = btp_split(RationalTrianglePoint(p.n, rows))
        splits.append(rows)
        total = step.step_up + step.step_down
        stack.append((w * step.step_down / total, step.child_up))
        stack.append((w * step.step_up / total, step.child_down))
    return tuple((weights[k], BooleanTriangle(p.n, k)) for k in sorted(weights)), splits


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_btp_decompose_is_the_split_tree(family, data, n):
    """Merging equal nodes changes only the order in which a leaf's weights
    are summed: the terms are those of the unmerged tree."""
    point = RationalTrianglePoint(n, _draw_combination(data, family("boolean_triangle", n), 1))
    assert btp_decompose(point).terms == _split_tree(point)[0]


# a mix of five order-7 boolean triangles whose split tree makes 255 splits
# on 115 distinct fractional nodes
ORDER_7_MIX = (
    (2, [[0], [0, 0], [0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0]]),
    (5, [[0], [1, 1], [1, 0, 1], [0, 0, 1, 0], [1, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1]]),
    (2, [[1], [1, 1], [1, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 1]]),
    (8, [[1], [1, 0], [1, 1, 0], [1, 0, 0, 0], [1, 0, 1, 0, 0], [1, 1, 0, 0, 0, 0]]),
    (8, [[1], [1, 0], [1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 1]]),
)


def test_btp_decompose_splits_each_distinct_node_once(monkeypatch):
    total = sum(w for w, _ in ORDER_7_MIX)
    vertices = [(F(w, total), BooleanTriangle.from_rows(7, rows)) for w, rows in ORDER_7_MIX]
    assert all(validate_boolean_triangle(v).valid for _, v in vertices)
    point = RationalTrianglePoint(7, tuple(
        tuple(sum(w * v.rows[i][k] for w, v in vertices) for k in range(i + 1)) for i in range(6)))
    terms, splits = _split_tree(point)
    calls = []
    split = polytope._scaled_split

    def counted(n, scale, rows, col):
        calls.append(rows)
        return split(n, scale, rows, col)

    monkeypatch.setattr(polytope, "_scaled_split", counted)
    assert btp_decompose(point).terms == terms
    assert len(calls) == len(set(calls)) == len(set(splits)) == 115
    assert len(splits) == 255


# sha256 of the dumps of btp_decompose on the 1000 criterion-7 points, one
# line each, as the unmerged split tree in Fraction arithmetic printed them
CRITERION_7_DECOMPOSITIONS_SHA256 = "925a331d10a0bfd2e6f8ab885af0fdd8276d09d114860b45c29c2a61bd8e9dad"


def test_criterion_7_decompositions_are_pinned(family):
    digest = hashlib.sha256()
    for _, point in criterion_7_points(family):
        digest.update(serialize.dumps(btp_decompose(point)).encode() + b"\n")
    assert digest.hexdigest() == CRITERION_7_DECOMPOSITIONS_SHA256


def test_btp_decompose_boolean_triangle_is_trivial():
    b = BooleanTriangle.from_rows(4, [[0], [1, 0], [1, 0, 1]])
    dec = btp_decompose(RationalTrianglePoint.from_rows(4, b.rows))
    assert len(dec.terms) == 1
    assert dec.terms[0][0] == 1
    assert dec.terms[0][1] == b


def test_btp_decompose_split_demo_reproduces():
    point = RationalTrianglePoint.from_rows(6, SPLIT_DEMO)
    dec = btp_decompose(point)
    assert sum(w for w, _ in dec.terms) == 1
    assert dec.reconstruct() == point.rows


def test_btp_decompose_random_points(family):
    rng = random.Random(7)
    for n, trials in ((3, 30), (4, 30), (5, 20)):
        verts = family("boolean_triangle", n)
        for _ in range(trials):
            point = random_membership_point(rng, verts)
            dec = btp_decompose(point)
            assert sum(w for w, _ in dec.terms) == 1
            assert dec.reconstruct() == point.rows
            from magoglab import validate_boolean_triangle
            for _, v in dec.terms:
                assert validate_boolean_triangle(v).valid


def test_btp_decompose_agrees_with_lp(family):
    rng = random.Random(11)
    for n, trials in ((3, 10), (4, 10), (5, 5)):
        verts = family("boolean_triangle", n)
        for _ in range(trials):
            point = random_membership_point(rng, verts)
            assert isinstance(btp_decompose(point), ConvexDecomposition)
            assert isinstance(lp_membership(point, verts), ConvexDecomposition)


def test_lp_rejects_points_outside_btp(family):
    verts = family("boolean_triangle", 4)
    outside = RationalTrianglePoint.from_rows(4, [[1], [1, 1], [1, 0, 1]])
    assert isinstance(lp_membership(outside, verts), NotInHull)


def test_btp_decompose_rejects_non_member():
    with pytest.raises(ValidationFailure):
        btp_decompose(RationalTrianglePoint.from_rows(4, [[1], [1, 1], [1, 0, 1]]))


# ---------------------------------------------------------------------------
# the LP oracle


def test_half_integer_points_certified_outside(family):
    verts = family("magog_matrix", 3)
    for rows in (HALF_INTEGER_POINT_A, HALF_INTEGER_POINT_B):
        point = RationalMatrixPoint.from_rows(rows)
        outcome = lp_membership(point, verts)
        assert isinstance(outcome, NotInHull)
        assert all(outcome.value_at(v) <= 0 for v in verts)
        assert outcome.value_at(point) > 0


def test_lp_trivial_decomposition(family):
    verts = family("magog_matrix", 4)
    target = RationalMatrixPoint.from_rows(verts[17].entries)
    outcome = lp_membership(target, verts)
    assert isinstance(outcome, ConvexDecomposition)
    assert outcome.terms == ((F(1), verts[17]),)


@pytest.mark.parametrize("corrupt", [
    lambda x: {j: 2 * w for j, w in x.items()},
    lambda x: {j: -w if j == min(x) else w for j, w in x.items()},
])
def test_corrupted_lp_solution_is_an_internal_error(family, monkeypatch, corrupt):
    def solve(columns, rhs):
        outcome = lp.solve_feasibility(columns, rhs)
        assert isinstance(outcome, Feasible)
        return Feasible(corrupt(outcome.x))

    monkeypatch.setattr(polytope, "solve_feasibility", solve)
    verts = family("magog_matrix", 4)
    point = RationalMatrixPoint.from_rows(
        [[F(a + b, 2) for a, b in zip(r, s)] for r, s in zip(verts[3].entries, verts[17].entries)])
    with pytest.raises((LPError, DecompositionError)):
        lp_membership(point, verts)


def test_lp_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_membership(RationalMatrixPoint.from_rows([[1, 0], [0, 1]]), [SignMatrix.identity(3)])


def test_convex_decomposition_validation():
    a, b = BooleanTriangle.from_rows(3, [[0], [0, 0]]), BooleanTriangle.from_rows(3, [[1], [0, 0]])
    with pytest.raises(ValueError):
        ConvexDecomposition(((F(1, 2), a), (F(1, 3), b)))
    with pytest.raises(ValueError):
        ConvexDecomposition(((F(1, 2), a), (F(1, 2), a)))
    with pytest.raises(ValueError):
        ConvexDecomposition(((F(3, 2), a), (F(-1, 2), b)))
    with pytest.raises(ValueError, match="same shape"):
        ConvexDecomposition(((F(1, 2), SignMatrix.identity(2)), (F(1, 2), b)))


# ---------------------------------------------------------------------------
# facets


def test_facet_audit_counts():
    assert btp_facet_audit(3).certified == 7
    assert btp_facet_audit(4).certified == 15
    assert btp_facet_audit(5).certified == 26
    assert btp_facet_audit(6).certified == 40


def test_facet_audit_all_orders_through_8():
    for n in range(2, 9):
        report = btp_facet_audit(n)
        assert report.passed
        assert report.certified == (n - 1) * (3 * n - 2) // 2


def test_facet_witness_matches_printed_examples():
    w = facet_witness(6, ("lower", 3, 4))
    assert w[2] == (F(1, 2), F(0), F(1, 4))
    w = facet_witness(6, ("upper", 3, 4))
    assert w[2] == (F(3, 4), F(1), F(1, 2))
    w = facet_witness(6, ("diagonal", 4, 2))
    assert w[1] == (F(3, 4), F(1, 2))
    assert w[3] == (F(1, 2), F(1, 2), F(3, 4), F(1, 2))
    assert w[4] == (F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 2))


def dense_slack(ineq, n, rows):
    """Independent oracle: the slack of one inequality, summed in Fractions
    over the whole witness."""
    kind = ineq[0]
    if kind == "lower":
        _, i, c = ineq
        return rows[i - 1][c - (n - i)]
    if kind == "upper":
        _, i, c = ineq
        return 1 - rows[i - 1][c - (n - i)]
    _, i, j = ineq
    c = n - j
    s_main = sum(rows[k - 1][c - (n - k)] for k in range(j, i + 1))
    s_left = sum(rows[k - 1][(c - 1) - (n - k)] for k in range(j + 1, i + 1))
    return 1 + s_left - s_main


def dense_facet_failures(n):
    """Every witness against every inequality, stopping at the first
    offender in btp_inequalities order."""
    ineqs = btp_inequalities(n)
    failures = []
    for ineq in ineqs:
        witness = facet_witness(n, ineq)
        for other in ineqs:
            s = dense_slack(other, n, witness)
            if other == ineq and s != 0:
                failures.append((ineq, "not-tight"))
                break
            if other != ineq and s <= 0:
                failures.append((ineq, "tie-or-violation", other))
                break
    return tuple(failures)


def test_sparse_facet_audit_agrees_with_the_dense_slacks():
    for n in range(2, 9):
        ineqs = btp_inequalities(n)
        for ineq in ineqs:
            witness = facet_witness(n, ineq)
            slacks = [dense_slack(other, n, witness) for other in ineqs]
            assert [s == 0 for s in slacks] == [other == ineq for other in ineqs]
            assert min(slacks) == 0
        report = btp_facet_audit(n)
        assert report.failures == dense_facet_failures(n) == ()
        assert report.certified == len(ineqs)


@pytest.mark.parametrize("target, cell, quarters, expected", [
    # the diagonal witness's tight cell (4, 4) put back to 1/2 leaves its
    # own inequality slack
    (("diagonal", 4, 2), (4, 4), 2, (("diagonal", 4, 2), "not-tight")),
    # raising the lower witness's neighbour to 1 ties its upper bound
    (("lower", 3, 4), (3, 5), 4, (("lower", 3, 4), "tie-or-violation", ("upper", 3, 5))),
])
def test_facet_audit_reports_the_dense_failure_on_a_broken_witness(monkeypatch, target, cell, quarters, expected):
    real = polytope._facet_bumps

    def broken(n, ineq):
        bumps = real(n, ineq)
        if ineq == target:
            bumps[cell] = quarters
        return bumps

    monkeypatch.setattr(polytope, "_facet_bumps", broken)
    report = btp_facet_audit(6)
    assert report.failures == dense_facet_failures(6) == (expected,)
    assert report.certified == report.expected - 1
    assert not report.passed


# ---------------------------------------------------------------------------
# lattice points and Ehrhart


def brute_force_btp_dilate(n, t, interior=False):
    """Independent oracle: product scan over all entry assignments; with
    ``interior``, entries in [1, t-1] and every diagonal inequality strict."""
    shape = [i for i in range(1, n)]
    cells = sum(shape)
    total = 0
    entries = range(1, t) if interior else range(t + 1)
    for vals in itertools.product(entries, repeat=cells):
        rows = []
        k = 0
        for w in shape:
            rows.append(vals[k:k + w])
            k += w
        def entry(i, c):
            return rows[i - 1][c - (n - i)]
        ok = True
        for i in range(2, n):
            for j in range(1, i):
                lhs = t + sum(entry(k2, n - j - 1) for k2 in range(j + 1, i + 1))
                rhs = sum(entry(k2, n - j) for k2 in range(j, i + 1))
                if lhs < rhs or (interior and lhs == rhs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def test_btp_dilate_against_brute_force():
    # n=4 with t<=4 and n=5 with t<=2 fail if a floor of the dilate walk's
    # column differences is one row too tight
    for n in (2, 3):
        for t in range(4):
            assert lattice_points_in_dilate("btp", t, n=n) == brute_force_btp_dilate(n, t)
    for n, tmax in ((4, 4), (5, 2)):
        for t in range(tmax + 1):
            assert lattice_points_in_dilate("btp", t, n=n) == brute_force_btp_dilate(n, t)
    # the interior window: entries in [1, t-1], every inequality strict
    for n in (2, 3, 4):
        for t in range(5):
            assert lattice_points_in_dilate("btp", t, n=n, interior=True) == brute_force_btp_dilate(n, t, True)


def test_btp_interior_dilates_follow_reciprocity():
    # L°(t) = (-1)^d L(-t), L the golden polynomial, d = C(n, 2)
    for n in (2, 3, 4, 5):
        poly, d = RationalPolynomial(golden.TABLE9_EHRHART[n]), n * (n - 1) // 2
        counts = [lattice_points_in_dilate("btp", t, n=n, interior=True) for t in range(1, 8)]
        assert counts == [(-1) ** d * poly(-t) for t in range(1, 8)], n


def test_btp_is_gorenstein_of_index_2_through_order_6():
    # computed, not proved: the interior of the t-th dilate holds as many
    # points as the (t-2)-th dilate
    for n in range(2, 7):
        for t in range(2, 9):
            assert _count_boolean_rows(n, t, interior=True) == _count_boolean_rows(n, t - 2), (n, t)


def test_dilate_counts_equal_the_count_of_each_dilate():
    # tmax = m and m + 1, m = C(n,2) + 1 - floor(C(n,2)/2), are where the
    # series turns to reciprocity
    for n in range(1, 6):
        counts = [lattice_points_in_dilate("btp", t, n=n) for t in range(11 if n < 5 else 9)]
        for tmax in range(len(counts)):
            assert list(polytope._dilate_counts("btp", tmax, n)) == counts[:tmax + 1], (n, tmax)
    poly = RationalPolynomial(golden.TABLE7_EHRHART[3])
    assert list(polytope._dilate_counts("tsscpp3", 6)) == [poly(t) for t in range(7)]


def test_dilate_counts_check_the_spare_value(monkeypatch):
    real = polytope.lattice_points_in_dilate

    def off_by_one(polytope_name, t, n=None, interior=False):
        return real(polytope_name, t, n, interior) + (interior and t == 3)

    monkeypatch.setattr(polytope, "lattice_points_in_dilate", off_by_one)
    # the check is made on the call, before a value is yielded
    with pytest.raises(DecompositionError):
        polytope._dilate_counts("btp", 8, 4)


def test_btp_gorenstein_check_passes_through_order_60():
    # every inequality has slack 1 at the all-ones point of 2*btp(n)
    for n in range(2, 61):
        assert polytope._btp_gorenstein_check(n) is None


def test_dilate_counts_check_the_gorenstein_certificate(monkeypatch):
    real = polytope._quarter_terms

    def shifted(n, ineq):
        const, terms = real(n, ineq)
        return const + (ineq == ("upper", 2, 3)), terms

    monkeypatch.setattr(polytope, "_quarter_terms", shifted)
    with pytest.raises(DecompositionError):
        polytope._dilate_counts("btp", 8, 4)


def test_btp_series_makes_one_interior_count_at_even_dimension(monkeypatch):
    # L°(t) = L(t - 2) replaces every interior count; the only one left is
    # the spare at t = 3 where d = C(n,2) is even (n = 4, 5), none at odd d
    real = polytope.lattice_points_in_dilate
    interior_counts = []

    def recorded(polytope_name, t, n=None, interior=False):
        if interior:
            interior_counts.append((n, t))
        return real(polytope_name, t, n, interior)

    monkeypatch.setattr(polytope, "lattice_points_in_dilate", recorded)
    for n in range(3, 7):
        list(polytope._dilate_counts("btp", 12, n))
    assert interior_counts == [(4, 3), (5, 3)]


def test_tsscpp_interior_counts_follow_reciprocity():
    # the strict facet filter against the golden polynomial: L°(t) = L(-t)
    poly = RationalPolynomial(golden.TABLE7_EHRHART[3])
    assert [polytope._tsscpp_dilate_count(3, t, interior=True) for t in range(1, 7)] == \
        [poly(-t) for t in range(1, 7)]


def test_tsscpp_dilate_counts_check_the_spare_value(monkeypatch):
    real = polytope._tsscpp_dilate_count

    def off_by_one(n, t, interior=False):
        return real(n, t, interior) + (interior and t == 2)

    monkeypatch.setattr(polytope, "_tsscpp_dilate_count", off_by_one)
    with pytest.raises(DecompositionError):
        polytope._dilate_counts("tsscpp3", 6)


def _h_star(counts, d):
    """h*_0..h*_d of L(t) = sum_k h*_k C(t+d-k, d): the coefficients of
    (1 - z)^(d+1) sum_t L(t) z^t up to z^d."""
    return [sum((-1) ** j * math.comb(d + 1, j) * counts[k - j] for j in range(k + 1)) for k in range(d + 1)]


def test_btp_h_star_vectors_are_nonnegative_palindromes():
    # Gorenstein of index 2: h* has degree d - 1 and h*_k = h*_{d-1-k}
    for n in range(2, 7):
        d = n * (n - 1) // 2
        h = _h_star(list(polytope._dilate_counts("btp", d, n)), d)
        assert h[0] == 1 and h[d] == 0 and min(h) >= 0, n
        assert h[:d] == h[d - 1::-1], n
        if n == 6:
            assert tuple(h[:d]) == BTP6_H_STAR


# h*-vector of btp(6), degree 14 and palindromic: interpolated from closed
# counts to t=7 and interior counts to t=8 (Ehrhart-Macdonald reciprocity),
# both taken on unfloored column prefix sums
BTP6_H_STAR_HALF = (1, 7420, 2396881, 133015746, 2244986257, 14933917995,
                    44631434616, 63875759960)
BTP6_H_STAR = BTP6_H_STAR_HALF + BTP6_H_STAR_HALF[-2::-1]


def test_btp6_dilates_follow_the_h_star_vector():
    """L(t) = sum_k h*_k C(t+d-k, d) with d = 15 for btp(6), at t<=15,
    where the floors of the dilate walk bind at many cells; t = 8..15 come
    from the series past its closed and interior counts.  The normalized
    volume, the sum of h*, is computed here, not a paper value."""
    d = 15
    assert len(BTP6_H_STAR) == 15
    assert sum(BTP6_H_STAR) == 187767277792
    counts = list(polytope._dilate_counts("btp", 15, n=6))
    assert counts == [sum(h * math.comb(t + d - k, d) for k, h in enumerate(BTP6_H_STAR))
                      for t in range(16)]
    poly = ehrhart_interpolate(enumerate(counts), degree=d)
    assert poly.degree == d and poly.normalized_volume() == 187767277792


def _btp_dilate_by_edges(n, t, interior=False):
    """The btp dilate count as paths of _boolean_moves, one cell and one
    edge per step: the second route for the layer transfer."""
    cells = [(i, c) for i in range(1, n) for c in range(n - i, n)]
    return path_sums(len(cells), (0,) * n, lambda k: _boolean_moves(n, t, *cells[k - 1], interior))


def test_btp_dilate_transfer_matches_the_edge_by_edge_pass():
    for n, tmax in [(n, 4) for n in range(1, 7)] + [(7, 2)]:
        for t in range(tmax + 1):
            for inside in (False, True):
                assert _count_boolean_rows(n, t, inside) == _btp_dilate_by_edges(n, t, inside), (n, t, inside)


def test_btp_dilate_transfer_edge_cases():
    # n=1 has no cell; n=2 has one, both the edge column and the last row
    for t in range(8):
        assert _count_boolean_rows(1, t) == 1
        assert _count_boolean_rows(2, t) == t + 1
    for n in range(1, 8):
        assert _count_boolean_rows(n, 0) == 1
    # the interior window [1, t-1] is empty below t=2, and n=1's point is
    # its own interior
    for t in range(8):
        assert _count_boolean_rows(1, t, True) == 1
        assert _count_boolean_rows(2, t, True) == max(t - 1, 0)
    for n in range(2, 8):
        assert _count_boolean_rows(n, 0, True) == _count_boolean_rows(n, 1, True) == 0


def test_btp_dilate_base_cases(family):
    for n in (2, 3, 4, 5):
        assert lattice_points_in_dilate("btp", 0, n=n) == 1
        assert lattice_points_in_dilate("btp", 1, n=n) == len(family("boolean_triangle", n))


def test_dilate_counts_monotone():
    prev = 0
    for t in range(5):
        c = lattice_points_in_dilate("btp", t, n=4)
        assert c >= prev
        prev = c


def test_relaxation_walk_counts():
    # integer points of the t-th dilate of the square-sign relaxation, the
    # candidates of the tsscpp dilate counts
    def points(n, t):
        return sum(1 for _ in _iter_square_sign_rows(n, t))

    assert [points(3, t) for t in range(7)] == [1, 8, 31, 85, 190, 371, 658]
    assert points(4, 2) == 1115
    assert [points(2, t) for t in range(7)] == [t + 1 for t in range(7)]


def test_tsscpp3_dilate_counts():
    assert [lattice_points_in_dilate("tsscpp3", t) for t in range(3)] == [1, 7, 25]


def test_tsscpp3_dilates_follow_the_golden_polynomial():
    poly = RationalPolynomial(golden.TABLE7_EHRHART[3])
    counts = [lattice_points_in_dilate("tsscpp3", t) for t in range(7)]
    assert counts == [poly(t) for t in range(7)]
    assert counts[6] == 462


def test_tsscpp3_filter_agrees_with_the_lp(family):
    # a candidate passes the six scaled inequalities exactly when the LP
    # writes it (divided by t) as a convex combination of the 7 vertices
    verts = family("magog_matrix", 3)
    ineqs = _audit_inequalities_3()
    for t in range(1, 4):
        members = 0
        for cand in _iter_square_sign_rows(3, t):
            flat = [v for row in cand for v in row]
            passes = all(sum(a * x for a, x in zip(row, flat)) >= t * rhs for _, row, rhs in ineqs)
            point = RationalMatrixPoint.from_rows([[F(v, t) for v in row] for row in cand])
            assert passes == isinstance(lp_membership(point, verts), ConvexDecomposition)
            members += passes
        assert members == lattice_points_in_dilate("tsscpp3", t)


def test_tsscpp3_dilates_call_no_lp(monkeypatch):
    # the facets come from the seven vertices, once per process
    def refuse(*args, **kwargs):
        raise AssertionError("the order-3 dilate count must not use this")

    for name in ("lp_membership", "solve_feasibility", "check_necessary_inequalities"):
        monkeypatch.setattr(polytope, name, refuse)
    assert lattice_points_in_dilate("tsscpp3", 5) == 266


# the degree-9 counting polynomial of the order-4 hull, transcribed
# independently of the dilate code
TSSCPP4_EHRHART = (F(1), F(1691, 360), F(32693, 3360), F(1055983, 90720), F(5647, 640),
                   F(18899, 4320), F(1357, 960), F(1237, 4320), F(443, 13440), F(149, 90720))


def test_tsscpp_dilate_opt_in_order_4(family):
    # at t=1 the only lattice points of the dilate are the 42 vertices;
    # at t=2..4 the count must match the order-4 polynomial
    assert lattice_points_in_dilate("tsscpp", 0, n=4) == 1
    assert lattice_points_in_dilate("tsscpp", 1, n=4) == 42
    values = [sum(c * t ** k for k, c in enumerate(TSSCPP4_EHRHART)) for t in (2, 3, 4)]
    assert values == [560, 4100, 20731]
    assert [lattice_points_in_dilate("tsscpp", t, n=4) for t in (2, 3, 4)] == values


def test_tsscpp4_series_interpolates_to_the_order_4_polynomial():
    # closed counts t <= 4 and strict-filter interior counts t <= 6 fix
    # the series to t = 9; the first interior points are the 7 at t = 5
    counts = list(polytope._dilate_counts("tsscpp", 9, n=4))
    poly = ehrhart_interpolate(enumerate(counts), degree=9)
    assert poly.coefficients == TSSCPP4_EHRHART
    assert poly.normalized_volume() == 596


def test_tsscpp4_facet_filter_agrees_with_the_lp(family):
    # a candidate passes the order-4 facets exactly when the LP writes it
    # (divided by t) as a convex combination of the 42 vertices
    verts = family("magog_matrix", 4)
    facets = _magog_facets(4)
    for t in range(1, 3):
        members = 0
        for cand in _iter_square_sign_rows(4, t):
            flat = [v for row in cand for v in row]
            passes = all(sum(a * x for a, x in zip(row, flat)) >= t * rhs for row, rhs in facets)
            point = RationalMatrixPoint.from_rows([[F(v, t) for v in row] for row in cand])
            assert passes == isinstance(lp_membership(point, verts), ConvexDecomposition)
            members += passes
        assert members == lattice_points_in_dilate("tsscpp", t, n=4)


def test_order_5_lp_membership_agrees_with_the_facets(family):
    # a second route for the LP on the row graph: the order-5 hull is the
    # matrices with unit row and column sums that satisfy its 45 facets
    # (the double description of _magog_facets), a check that shares no
    # code with the simplex
    n = 5
    facets = _magog_facets(n)
    magog = [m.entries for m in family("magog_matrix", n)]
    others = [m.entries for m in family("square_sign", n) if not classify(m).magog]
    rng = random.Random(20261021)

    def mix(row_lists):
        weights = [rng.randint(1, 9) for _ in row_lists]
        total = sum(weights)
        return [[sum(F(w, total) * rows[i][j] for w, rows in zip(weights, row_lists)) for j in range(n)]
                for i in range(n)]

    points = []
    for _ in range(10):
        points.append(mix(rng.sample(magog, rng.randint(1, 5))))
        points.append(mix([rng.choice(magog), rng.choice(others)]))
    for _ in range(6):
        # non-sign matrices: a mix moved by +-e on a 2 x 2 block, which keeps
        # the unit sums
        rows = mix(rng.sample(magog, 3))
        i, j, e = rng.randrange(n - 1), rng.randrange(n - 1), F(rng.randint(1, 4), 7)
        for di, dj, sign in ((0, 0, 1), (1, 1, 1), (0, 1, -1), (1, 0, -1)):
            rows[i + di][j + dj] += sign * e
        points.append(rows)
    points += [[[F(1, n)] * n for _ in range(n)], [[F(2, n)] * n for _ in range(n)]]

    outcomes = []
    for rows in points:
        flat = [v for row in rows for v in row]
        inside = (all(sum(row) == 1 for row in rows) and all(sum(col) == 1 for col in zip(*rows))
                  and all(sum(a * x for a, x in zip(row, flat)) >= rhs for row, rhs in facets))
        outcome = lp_membership(RationalMatrixPoint.from_rows(rows), MagogVertices(n))
        assert isinstance(outcome, ConvexDecomposition) == inside, rows
        outcomes.append(inside)
    assert outcomes[:20:2] == [True] * 10 and False in outcomes[1:20:2]
    assert {True, False} <= set(outcomes[20:26])


def _tight_vertices(rows, listed):
    """The listed (entries, column prefixes, row prefixes) whose matrices
    are tight wherever the point of these rows is: the same column prefix
    where the point's is 0 or 1, and a row prefix of 0 where the point's
    is 0."""
    col, rowp = _prefix_matrices(rows)
    cells = list(itertools.product(range(len(rows)), repeat=2))
    fixed = [(i, j) for i, j in cells if col[i][j] in (0, 1)]
    cut = [(i, j) for i, j in cells if rowp[i][j] == 0]
    return [entries for entries, vc, vr in listed
            if all(vc[i][j] == col[i][j] for i, j in fixed) and all(vr[i][j] == 0 for i, j in cut)]


def _face_route_points(rng, n, magog, others):
    """Seeded points of order n: mixes of k magog matrices, each with two
    twins (a first-row zero pushed to -1/97 with the unit sums kept, and
    the mix pushed on away from one of its matrices), integer matrices
    that are not sign matrices, and mixes with a non-magog sign matrix
    that pass check_necessary_inequalities."""
    def mix(row_lists):
        weights = [rng.randint(1, 9) for _ in row_lists]
        total = sum(weights)
        return [[sum(F(w, total) * rows[i][j] for w, rows in zip(weights, row_lists)) for j in range(n)]
                for i in range(n)]

    points = []
    for k in (1, 2, 3, 5, 10):
        chosen = rng.sample(magog, min(k, len(magog)))
        rows = mix(chosen)
        away = [[v + (v - a) / 7 for v, a in zip(row, vertex)] for row, vertex in zip(rows, chosen[0])]
        points += [rows, away]
        if 0 in rows[0]:
            off = [list(row) for row in rows]
            j, l = off[0].index(0), next(l for l, v in enumerate(off[0]) if v > 0)
            e = F(1, 97)
            off[0][j], off[0][l], off[1][j], off[1][l] = off[0][j] - e, off[0][l] + e, off[1][j] + e, off[1][l] - e
            points.append(off)
    for _ in range(3):
        # +-1 on a 2 x 2 block keeps the unit sums
        rows = [list(row) for row in rng.choice(magog)]
        i, j = rng.randrange(n - 1), rng.randrange(n - 1)
        for di, dj, sign in ((0, 0, 1), (1, 1, 1), (0, 1, -1), (1, 0, -1)):
            rows[i + di][j + dj] += sign
        points.append(rows)
    passing = 0
    while passing < 12:
        rows = mix(rng.sample(magog, rng.randint(1, 3)) + [rng.choice(others)])
        if check_necessary_inequalities(RationalMatrixPoint.from_rows(rows)).valid:
            points.append(rows)
            passing += 1
    return points


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_face_route_agrees_with_the_facets_and_the_listed_vertices(family, n):
    # a second route for lp_membership on the row graph, which solves on the
    # point's face: every answer is checked on the listed magog matrices,
    # the outcome equals the verdict of the hull's facets (_magog_facets,
    # double description, for n <= 5), and the face's columns are the
    # listed matrices tight wherever the point is
    listed = [(m.entries, *_prefix_matrices(m.entries)) for m in family("magog_matrix", n)]
    magog = [entries for entries, _, _ in listed]
    others = [m.entries for m in family("square_sign", n) if not classify(m).magog]
    facets = _magog_facets(n) if n <= 5 else None
    kinds = collections.Counter()
    for rows in _face_route_points(random.Random(20261023 + n), n, magog, others):
        point = RationalMatrixPoint.from_rows(rows)
        outcome = lp_membership(point, MagogVertices(n))
        member = isinstance(outcome, ConvexDecomposition)
        if member:
            assert outcome.reconstruct() == tuple(map(tuple, rows))
            assert {vertex.entries for _, vertex in outcome.terms} <= set(magog)
        else:
            scale = math.lcm(*(c.denominator for c in (*outcome.coefficients, outcome.offset)))
            y = [int(c * scale) for c in (*outcome.coefficients, outcome.offset)]
            assert outcome.value_at(point) > 0
            assert all(sum(map(operator.mul, y, (*itertools.chain(*m), 1))) <= 0 for m in magog)
        if facets is not None:
            flat = [v for row in rows for v in row]
            inside = (all(sum(row) == 1 for row in rows) and all(sum(col) == 1 for col in zip(*rows))
                      and all(sum(a * x for a, x in zip(row, flat)) >= rhs for row, rhs in facets))
            assert member == inside, rows
        col, rowp = _prefix_matrices(rows)
        if not any(itertools.chain(_square_sign_violations(col, rowp), _special_violations(col, rowp))):
            moves = polytope._face_moves(n, polytope._tight_prefixes(col, rowp))
            dag = lp._ColumnDag.of_paths(n, 0, moves, n * n + 1, tail=(1,))
            face = [dag.column(j)[:-1] for j in range(dag.counts[-1])]
            assert sorted(face) == sorted(_tight_vertices(rows, listed))
            kinds["face member" if member else "face non-member"] += 1
        else:
            kinds["violated"] += 1
    assert kinds["violated"] and kinds["face member"]
    if n in (4, 5):
        assert kinds["face non-member"]


def test_order_9_three_mix_and_its_twin_answer_on_the_face():
    # the seeded order-9 mix of three magog matrices, as built in
    # test_order_7_membership_answers_are_checked_again, took 329 s on the
    # whole row graph; on its face it is a small LP.  Its twin has a
    # first-row zero pushed to -1/97, a column prefix below 0
    n = 9
    rng = random.Random(20261022)
    dag, matrix = row_graph_matrices(n)
    chosen = [matrix(rng.randrange(dag.counts[-1])) for _ in range(3)]
    weights = [rng.randint(1, 9) for _ in chosen]
    rows = [[sum(F(w, sum(weights)) * m.entries[i][j] for w, m in zip(weights, chosen)) for j in range(n)]
            for i in range(n)]
    e = F(1, 97)
    j = rows[0].index(0)
    k = next(k for k, v in enumerate(rows[0]) if v > 0)
    off = [list(row) for row in rows]
    off[0][j], off[0][k], off[1][j], off[1][k] = off[0][j] - e, off[0][k] + e, off[1][j] + e, off[1][k] - e

    vertices = MagogVertices(n)
    member = lp_membership(RationalMatrixPoint.from_rows(rows), vertices)
    assert member.reconstruct() == tuple(map(tuple, rows))
    assert all(classify(vertex).magog for _, vertex in member.terms)
    point = RationalMatrixPoint.from_rows(off)
    cert = lp_membership(point, vertices)
    assert cert.value_at(point) > 0
    scale = math.lcm(*(c.denominator for c in (*cert.coefficients, cert.offset)))
    assert vertices._max_value([int(c * scale) for c in (*cert.coefficients, cert.offset)]) <= 0


def test_order_4_dilates_and_the_audit_call_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the order-4 dilate count and the audit must not use this")

    for name in ("lp_membership", "solve_feasibility", "check_necessary_inequalities"):
        monkeypatch.setattr(polytope, name, refuse)
    monkeypatch.setattr(lp, "solve_feasibility", refuse)
    assert lattice_points_in_dilate("tsscpp", 2, n=4) == 560
    assert tsscpp3_vertex_audit().passed


def test_magog_facets_run_the_double_description_once_per_order(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return _extreme_rays(rows)

    _magog_facets.cache_clear()
    monkeypatch.setattr(polytope, "_extreme_rays", counted)
    assert [lattice_points_in_dilate("tsscpp", t, n=4) for t in range(3)] == [1, 42, 560]
    assert calls == [42]


@pytest.mark.parametrize("polytope_name, kind, orders", [
    ("btp", "boolean_triangle", (2, 3, 4, 5)),
    ("tsscpp", "magog_matrix", (3, 4)),
])
def test_check_dilate_gives_the_hull_dimension(family, polytope_name, kind, orders):
    for n in orders:
        assert polytope.check_dilate(polytope_name, 0, n) == (n, affine_dimension(family(kind, n)))
        assert hull_dimension(kind, n) == affine_dimension(family(kind, n))


def test_ehrhart_interpolate_refuses_no_samples():
    with pytest.raises(InterpolationError):
        ehrhart_interpolate([])


def test_ehrhart_interpolate_refuses_a_negative_degree():
    with pytest.raises(ValidationFailure):
        ehrhart_interpolate([(0, 1)], degree=-1)


def test_magog_facets(family):
    # the facet counts at n = 3, 4, 5; at n=3 the computed facets cut the
    # same sets of vertices as the six inequalities of the audited description
    assert [len(_magog_facets(n)) for n in (3, 4, 5)] == [6, 17, 45]
    flats = [[v for row in m.entries for v in row] for m in family("magog_matrix", 3)]

    def tight_sets(ineqs):
        return {frozenset(k for k, x in enumerate(flats) if sum(a * v for a, v in zip(row, x)) == rhs)
                for row, rhs in ineqs}

    assert tight_sets(_magog_facets(3)) == tight_sets((row, rhs) for _, row, rhs in _audit_inequalities_3())


@st.composite
def _point_sets(draw):
    """Full-dimensional integer point sets in dimension 2-4.  A small box
    and up to 12 points make degenerate sets (many points on one facet)
    common."""
    d = draw(st.integers(2, 4))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=12, unique=True))
    assume(affine_dimension([(p,) for p in points]) == d)
    return points


@settings(derandomize=True, max_examples=150, deadline=None)
# a degenerate set on which combining non-adjacent rays yields a non-facet
@example(points=[(0, -1, 0, 1), (0, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 0), (0, -1, -1, 1),
                 (-1, 1, -1, 1), (-1, -1, 0, -1), (1, -1, 1, 0)])
@given(points=_point_sets())
def test_extreme_rays_are_the_facets_of_a_point_set(points):
    """On a full-dimensional integer point set, the extreme rays (a, a0) of
    {a.p + a0 >= 0 at every point} are its hull's facets: valid everywhere,
    tight on an affinely (d-1)-dimensional subset, and a point is a vertex
    (outside the hull of the others, by the LP) exactly when the normals of
    its tight facets have rank d."""
    d = len(points[0])
    rays = _extreme_rays([[*p, 1] for p in points])
    for ray, tight in rays:
        values = [sum(a * x for a, x in zip(ray, (*p, 1))) for p in points]
        assert min(values) >= 0 and math.gcd(*ray) == 1
        assert tight == sum(1 << k for k, v in enumerate(values) if v == 0)
        assert affine_dimension([(p,) for k, p in enumerate(points) if tight >> k & 1]) == d - 1
    for k, p in enumerate(points):
        normals = [list(ray[:-1]) for ray, tight in rays if tight >> k & 1]
        others = [(q,) for q in points if q != p]
        outside = isinstance(lp_membership((p,), others), NotInHull)
        assert (len(_reduce(normals, d)) == d) == outside


def test_ehrhart_btp3():
    samples = [(t, lattice_points_in_dilate("btp", t, n=3)) for t in range(4)]
    poly = ehrhart_interpolate(samples)
    assert poly.coefficients == (F(1), F(8, 3), F(5, 2), F(5, 6))
    assert poly.normalized_volume() == 5
    assert str(poly) == "(5/6)t^3 + (5/2)t^2 + (8/3)t + 1"
    for t, c in samples:
        assert poly(t) == c


def test_ehrhart_evaluates_at_one_to_vertex_count(family):
    samples = [(t, lattice_points_in_dilate("btp", t, n=4)) for t in range(7)]
    poly = ehrhart_interpolate(samples)
    assert poly(1) == len(family("boolean_triangle", 4))


def test_ehrhart_interpolation_errors():
    with pytest.raises(InterpolationError):
        ehrhart_interpolate([(0, 1), (0, 2)])
    with pytest.raises(InterpolationError):
        ehrhart_interpolate([(0, 1), (1, 7)], degree=3)
    with pytest.raises(InterpolationError):
        # quadratic data cannot fit a line through three samples
        ehrhart_interpolate([(0, 0), (1, 1), (2, 4)], degree=1)


def test_rational_polynomial_basics():
    p = RationalPolynomial((F(1), F(1)))
    assert str(p) == "t + 1"
    assert p(3) == 4
    assert p.normalized_volume() == 1
    with pytest.raises(ValueError):
        RationalPolynomial((F(1), F(0)))


def test_rational_polynomial_text_skips_zero_terms_and_subtracts():
    assert str(RationalPolynomial((F(0), F(0), F(1, 2)))) == "(1/2)t^2"
    assert str(RationalPolynomial((F(-1), F(0), F(1)))) == "t^2 - 1"
    # a zero leading coefficient is trimmed from the fit
    assert ehrhart_interpolate([(0, 1), (1, 2), (2, 3)]).coefficients == (1, 1)


def test_as_fraction_rejects_floats():
    with pytest.raises(ValidationFailure):
        as_fraction(0.5)


# ---------------------------------------------------------------------------
# order-3 vertex audit and dimensions


def test_tsscpp3_vertex_audit():
    report = tsscpp3_vertex_audit()
    assert report.matches_magog3
    assert len(report.vertices) == 7
    for label, incident, dim in report.facet_incidences:
        assert incident >= 4 and dim == 3
    assert report.half_integer_relaxation_vertices_found
    assert report.relaxation_vertex_count == 11


def test_tsscpp3_audit_certifies_boundedness():
    report = tsscpp3_vertex_audit()
    assert report.bounded and report.passed
    sums = [_magog_slack(3, label, (k,), False)[:-1] for label in ("row-sum", "column-sum") for k in range(1, 4)]
    ineqs = _audit_inequalities_3()
    slacks = [[*r, -rhs] for _, r, rhs in ineqs]
    # every five of the six inequalities leave a recession direction, an
    # extreme ray with x0 = 0 (the stacked rows still have rank 9)
    for k in range(6):
        rest = ineqs[:k] + ineqs[k + 1:]
        assert len(_reduce(sums + [r for _, r, _ in rest], 9)) == 9
        assert not _vertices_3(slacks[:k] + slacks[k + 1:])[1]
    # with two inequalities the rank test alone fails
    assert not _vertices_3(slacks[:2])[1]


def test_ehrhart_btp5_stretch():
    from magoglab import golden
    samples = [(t, lattice_points_in_dilate("btp", t, n=5)) for t in range(11)]
    poly = ehrhart_interpolate(samples)
    assert poly.coefficients == golden.TABLE9_EHRHART[5]


def test_elimination_runs_over_integers():
    rows = [[F(1, 2), F(1, 3), F(5, 6)], [F(2), F(-1, 4), F(7, 4)]]
    assert _reduce(rows, 2) == [0, 1]
    assert all(type(v) is int for row in rows for v in row)
    assert [F(row[2], row[k]) for k, row in enumerate(rows)] == [1, 1]
    assert _solve_square([[F(1, 2), F(1, 3), F(5, 6)], [2, F(-1, 4), F(7, 4)]]) == [1, 1]
    assert _solve_square([[1, 1, 1], [2, 2, 3]]) is None
    assert _solve_square([[1, 1, 2], [2, 2, 4]]) is None


def test_affine_dimension_values(family):
    assert affine_dimension(family("magog_matrix", 3)) == 4
    assert affine_dimension(family("magog_matrix", 4)) == 9
    assert affine_dimension(family("boolean_triangle", 4)) == 6
    assert affine_dimension([SignMatrix.identity(3)]) == 0
    assert affine_dimension(family("magog_matrix", 2)) == 1


def test_magog_triangles_are_points_of_their_hull(family):
    triangles = family("magog_triangle", 4)
    # the least and the greatest entry sum are each taken by one triangle,
    # a vertex of the hull; other triangles need not be vertices
    for best in (min, max):
        t = best(triangles, key=lambda t: sum(map(sum, t.rows)))
        assert lp_membership(t, triangles).terms == ((1, t),)
    for t in triangles[::5]:
        assert lp_membership(t, triangles).reconstruct() == t.rows


@st.composite
def move_rules(draw):
    """(depth, moves) of a random move rule from state 0 over states 0..2,
    met at every step, with up to three moves per state and step, each
    emitting a tuple of the step's width: dead ends, several end states and
    rules with no path at all come up among them."""
    depth = draw(st.integers(1, 4))
    steps = []
    for _ in range(depth):
        emitted = st.tuples(*[st.integers(-1, 2)] * draw(st.integers(1, 3)))
        steps.append({q: draw(st.lists(st.tuples(emitted, st.integers(0, 2)), max_size=3)) for q in range(3)})
    return depth, lambda i: steps[i - 1].__getitem__


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rule=move_rules())
def test_the_path_differences_span_the_listed_paths(rule):
    from magoglab.enumeration import _path_differences, _paths, _walk

    depth, moves = rule
    paths = [sum(path, ()) for path in _paths(_walk(depth, 0, moves))]
    if not paths:
        for route in (lambda: list(_path_differences(depth, 0, moves)), lambda: affine_dimension([])):
            with pytest.raises(ValidationFailure):
                route()
        return
    rank = len(_reduce([[a - b for a, b in zip(p, paths[0])] for p in paths], len(paths[0])))
    assert polytope._path_dimension(depth, 0, moves) == affine_dimension([(p,) for p in paths]) == rank


@pytest.mark.parametrize("kind", KINDS)
def test_hull_dimension_is_the_dimension_of_the_listed_objects(family, kind):
    for n in range(1, 6):
        assert hull_dimension(kind, n) == affine_dimension(family(kind, n))


def test_hull_dimensions_past_the_golden_orders():
    # computed values, not golden data: the tsscpp and ASM hulls have
    # dimension (n-1)^2 and the btp hull C(n, 2), its Ehrhart degree
    dims = {(kind, n): hull_dimension(kind, n) for kind in ("magog_matrix", "asm", "boolean_triangle") for n in (6, 7)}
    assert dims == {("magog_matrix", 6): 25, ("magog_matrix", 7): 36, ("asm", 6): 25, ("asm", 7): 36,
                    ("boolean_triangle", 6): 15, ("boolean_triangle", 7): 21}
    for n in (6, 7):
        assert dims["boolean_triangle", n] == polytope.check_dilate("btp", 0, n)[1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_btp_contains_violations_are_the_negative_slacks(data, n):
    """btp_contains reads the diagonal inequalities off right-aligned column
    prefixes; its violations must be, as a set, the defining inequalities
    whose slack (by _quarter_terms, cell by cell) is negative."""
    entry = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=6)
    rows = [data.draw(st.lists(entry, min_size=i, max_size=i)) for i in range(1, n)]
    label = {"lower": "lower-bound", "upper": "upper-bound", "diagonal": "diagonal"}
    negative = set()
    for ineq in btp_inequalities(n):
        constant, terms = _quarter_terms(n, ineq)
        if constant + sum(4 * coef * rows[i - 1][c - (n - i)] for (i, c), coef in terms) < 0:
            negative.add((label[ineq[0]], ineq[1:]))
    assert set(btp_contains(RationalTrianglePoint.from_rows(n, rows)).violations) == negative
