import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magoglab import (
    BooleanTriangle,
    ConvexDecomposition,
    MagogVertices,
    NotInHull,
    RationalMatrixPoint,
    RationalTrianglePoint,
    SignMatrix,
    classify,
    lp,
    lp_membership,
    magog_separating_hyperplane,
    polytope,
    product_formula,
    serialize,
    validate_boolean_triangle,
    validate_magog,
)
from magoglab.core import ValidationFailure
from magoglab.lp import Feasible, Infeasible, LPError, solve_feasibility

from conftest import row_graph_matrices


def test_simple_feasible():
    # x1*(1,0) + x2*(0,1) = (2,3)
    out = solve_feasibility([[1, 0], [0, 1]], [2, 3])
    assert isinstance(out, Feasible)
    assert out.x == {0: F(2), 1: F(3)}


def test_simple_infeasible_with_certificate():
    # columns all have nonnegative coordinates; rhs has a negative one
    out = solve_feasibility([[1, 0], [1, 1]], [F(1), F(-1)])
    assert isinstance(out, Infeasible)
    y = out.y
    for col in ([1, 0], [1, 1]):
        assert sum(a * b for a, b in zip(y, col)) <= 0
    assert y[0] * 1 + y[1] * (-1) > 0


def test_convexity_row_forces_affine_combination():
    # (1/2, 1/2) is a convex combination of (0,1) and (1,0)
    cols = [[0, 1, 1], [1, 0, 1]]
    out = solve_feasibility(cols, [F(1, 2), F(1, 2), 1])
    assert isinstance(out, Feasible)
    assert sum(out.x.values()) == 1


def test_point_outside_segment():
    cols = [[0, 1, 1], [1, 0, 1]]
    out = solve_feasibility(cols, [F(2), F(-1), 1])
    assert isinstance(out, Infeasible)


def test_rational_columns():
    cols = [[F(1, 2), 1], [F(1, 3), 1]]
    out = solve_feasibility(cols, [F(5, 12), 1])
    assert isinstance(out, Feasible)
    total = sum(out.x.values())
    mass = sum(w * cols[j][0] for j, w in out.x.items())
    assert total == 1 and mass == F(5, 12)


def test_degenerate_duplicate_columns():
    cols = [[0, 0, 1]] * 5
    out = solve_feasibility(cols, [0, 0, 1])
    assert isinstance(out, Feasible)
    assert sum(out.x.values()) == 1


def test_column_length_mismatch():
    with pytest.raises(ValueError):
        solve_feasibility([[1, 0]], [1, 0, 0])
    # columns of items: every item must be as wide as the first column's
    with pytest.raises(ValueError):
        solve_feasibility([((1, 0), 1), ((1,), (0, 1))], [1, 0, 1])
    with pytest.raises(ValueError):
        solve_feasibility([((1, 0), 1), ((1, 0), 1, 0)], [1, 0, 1])
    with pytest.raises(ValueError):
        solve_feasibility([((1, 0), 1)], [1, 0])


SMALL_ENTRIES = (0, 1, -1, 2, F(1, 2), F(-3, 4))


def small_lps(seed=20231018, count=300):
    """Seeded batch of small systems with mixed-sign rational right-hand
    sides; some repeat a column."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        k = rng.randint(1, 8)
        cols = [[rng.choice(SMALL_ENTRIES) for _ in range(m)] for _ in range(k)]
        if k > 1 and rng.random() < 0.4:
            cols[rng.randrange(k)] = list(rng.choice(cols))
        rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        yield cols, rhs


def test_pivot_sequence_is_pinned():
    # the pivot rules (Dantzig pricing, the lexicographic ratio test) fix
    # the basis each system ends in, hence the exact values returned; the
    # outcomes were checked against a Fraction simplex under the same rules
    outs = [solve_feasibility(cols, rhs) for cols, rhs in small_lps()]
    assert sum(isinstance(o, Feasible) for o in outs) == 112
    digest = hashlib.sha256("\n".join(map(repr, outs)).encode()).hexdigest()
    assert digest == "60fe4f2332801de07dac2be8446c13ae6f1051a3d79fa8a9ecc440634e8bece3"


def test_ratio_ties_break_lexicographically():
    # x (0, 1, 1) = (1, 1, 1): the first pivot ties rows 1 and 2 on the
    # ratio 1.  The smallest basic index would take row 1 and end at
    # y = (1, -1, 1).  The rows (xb_k, delta B^-1 row k) / d_k are
    # (1, 0, 1, 0) and (1, 0, 0, 1), so row 2 leaves, and y = c_B B^-1
    # solves y0 = y1 = 1, y1 + y2 = 0
    assert lp._leaving_row([0, 1, 1], [1, 1, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 2
    assert solve_feasibility([[0, 1, 1]], [1, 1, 1]) == Infeasible((F(1), F(1), F(-1)))
    # a tie at ratio 0 with unequal directions, broken at the second entry
    # of delta B^-1: (0, 2, 1) / 2 = (0, 1, 1/2) comes before (0, 1, 3) / 1
    assert lp._leaving_row([2, 1], [0, 0], [[2, 1], [1, 3]]) == 0
    with pytest.raises(LPError, match="unbounded"):
        lp._leaving_row([0, -1], [1, 1], [[1, 0], [0, 1]])


def test_verification_rejects_wrong_results():
    support = lp._integer_column([1, -1], 2, 1)
    # a list's max_value scans its columns scaled to integers: the second
    # column's y.A_j for y = (0, 1) is -1/2, read as -3 at the DAG's scale 6
    columns = lp._list_paths([[1, -1], [F(1, 3), F(-1, 2)]], 2)
    assert columns.max_value([0, 1]) < 0
    with pytest.raises(LPError):
        lp._verify_functional([1, 0], columns.max_value([1, 0]), [1, 0])  # positive on a column
    with pytest.raises(LPError):
        lp._verify_functional([1, 1], columns.max_value([1, 1]), [0, 0])  # not positive on b
    lp._verify_solution({0: 2}, [support], [2, -2], 1)
    with pytest.raises(LPError):
        lp._verify_solution({0: 2}, [support], [2, 2], 1)  # A x != b
    with pytest.raises(LPError):
        lp._verify_solution({0: -2}, [support], [-2, 2], 1)  # x < 0


def _combination(weights, row_lists):
    """Rows of the convex combination of the row lists with these positive
    weights."""
    total = sum(weights)
    return [[sum(F(w, total) * rows[i][j] for w, rows in zip(weights, row_lists)) for j in range(len(row))]
            for i, row in enumerate(row_lists[0])]


def _outside(rng, bad, vertices, entries):
    """A point that puts weight above 1 - 1/entries on ``bad``, a 0/1 point
    (in column-prefix coordinates for matrices) that is not a vertex.  The
    cube facet through ``bad`` cuts it off from every vertex by 1, and no
    vertex sits more than ``entries`` below it, so the point is outside."""
    others = rng.sample(vertices, rng.randint(0, 3))
    weights = [rng.randint(1, 9) for _ in others]
    return _combination([entries * sum(weights) or 1] + weights, [bad] + others)


def membership_batch(family, seed=20261019):
    """Seeded lp_membership calls against vertex lists whose rows share long
    prefixes: the 429 boolean triangles of order 5 and the 42 magog
    matrices of order 4.  Each round draws a member and a non-member of
    each hull; magog non-members lean on square sign matrices that are not
    magog, whose column prefixes are 0/1 like a magog matrix's."""
    rng = random.Random(seed)
    boolean = [v.rows for v in family("boolean_triangle", 5)]
    magog = [v.entries for v in family("magog_matrix", 4)]
    square = [m.entries for m in family("square_sign", 4) if not classify(m).magog]
    for _ in range(3):
        chosen = rng.sample(boolean, rng.randint(1, 5))
        yield RationalTrianglePoint.from_rows(5, _combination([rng.randint(1, 9) for _ in chosen], chosen)), 5
        while True:
            bad = tuple(tuple(rng.randint(0, 1) for _ in range(i)) for i in range(1, 5))
            if not validate_boolean_triangle(BooleanTriangle(5, bad)).valid:
                break
        yield RationalTrianglePoint.from_rows(5, _outside(rng, bad, boolean, 10)), 5
        chosen = rng.sample(magog, rng.randint(1, 5))
        yield RationalMatrixPoint.from_rows(_combination([rng.randint(1, 9) for _ in chosen], chosen)), 4
        yield RationalMatrixPoint.from_rows(_outside(rng, rng.choice(square), magog, 16)), 4


def test_membership_batch_is_pinned(family):
    # vertex lists with shared row prefixes, so the pricing walks a column
    # DAG with real sharing; the outcomes were checked against a Fraction
    # simplex that scans the list under the same pivot rules
    vertices = {5: family("boolean_triangle", 5), 4: family("magog_matrix", 4)}
    outs = [lp_membership(point, vertices[n]) for point, n in membership_batch(family)]
    assert [isinstance(o, ConvexDecomposition) for o in outs] == [True, False, True, False] * 3
    digest = hashlib.sha256("\n".join(map(repr, outs)).encode()).hexdigest()
    assert digest == "ac97394d4567ffa624d24c811b2295909cdf79ef6d561bc4c874a3892259cd77"


@st.composite
def sign_systems(draw):
    m = draw(st.integers(1, 5))
    column = st.lists(st.sampled_from((-1, 0, 1)), min_size=m, max_size=m)
    cols = draw(st.lists(column, max_size=8))
    rhs = draw(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=m, max_size=m))
    return cols, rhs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sign_systems())
def test_results_carry_exact_certificates(system):
    cols, rhs = system
    out = solve_feasibility(cols, rhs)
    if isinstance(out, Feasible):
        assert all(v > 0 for v in out.x.values())
        assert [sum(w * cols[j][i] for j, w in out.x.items()) for i in range(len(rhs))] == rhs
    else:
        assert all(sum(a * b for a, b in zip(out.y, col)) <= 0 for col in cols)
        assert sum(a * b for a, b in zip(out.y, rhs)) > 0


DAG_ENTRIES = (0, 1, -1, 2, F(1, 2))


@st.composite
def item_columns(draw):
    """Columns of items with shared prefixes: each level is a number or a
    tuple of one to three numbers (a width-1 level may mix the two), its
    items drawn from a small pool; the list holds adjacent and non-adjacent
    duplicates in no particular order."""
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 3))
        entry = st.sampled_from(DAG_ENTRIES)
        kinds = [st.tuples(*[entry] * width)] + ([entry] if width == 1 else [])
        levels.append(draw(st.lists(st.one_of(*kinds), min_size=1, max_size=3)))
    column = st.tuples(*[st.sampled_from(pool) for pool in levels])
    columns = draw(st.lists(column, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        if columns:
            at = draw(st.integers(0, len(columns) - 1))
            columns.insert(draw(st.sampled_from((at, at + 1, len(columns)))), columns[at])
    m = sum(len(item) if isinstance(item, tuple) else 1 for item in (columns[0] if columns else ()))
    return columns, m


def _flat(column):
    return [v for item in column for v in (item if isinstance(item, tuple) else (item,))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(item_columns(), st.data())
def test_dag_pricing_is_the_linear_scan(system, data):
    # Dantzig's rule: the smallest j among the columns of largest y.A_j > 0,
    # against a scan in Fractions (the DAG's scale need not be 1)
    columns, m = system
    assume(columns)
    dag = lp._list_paths(columns, m).dag
    for _ in range(4):
        y = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        values = [sum(a * F(v) for a, v in zip(y, _flat(col))) for col in columns]
        top = max(values)
        j, path = dag.most_positive(y)
        assert j == (values.index(top) if top > 0 else -1)
        if j >= 0:
            support = lp._integer_column(_flat(columns[j]), m, dag.scale)
            assert lp._dot(y, dag.support(path)) == lp._dot(y, support) > 0
            assert [sorted(part) for part in dag.support(path)] == [sorted(part) for part in support]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(item_columns(), st.data())
def test_item_columns_solve_as_their_flat_form(system, data):
    columns, m = system
    rhs = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=m, max_size=m))
    assert repr(solve_feasibility(columns, rhs)) == repr(solve_feasibility([_flat(c) for c in columns], rhs))


def test_a_rule_with_no_path_gives_the_dag_of_no_columns():
    dag = lp._ColumnDag.of_paths(1, 0, lambda i: (lambda s: []), 0)
    assert dag.counts[-1] == 0 and dag.most_positive([]) == (-1, None)
    # the empty list is such a rule: its certificate is y = sign b
    assert solve_feasibility([], [1, -1]) == Infeasible((F(1), F(-1)))
    assert solve_feasibility([], [F(1, 2), 0, -3]) == Infeasible((F(1), F(1), F(-1)))
    assert solve_feasibility([], [0, 0]) == Feasible({})


def test_column_dag_sizes_are_pinned(family):
    # the list DAGs are the tries of the boolean triangles with equal
    # subtrees merged, and the row-graph DAG has a node per interned state
    def size(dag):
        return len(dag.counts), sum(map(len, dag.edges))

    for n, expected in ((4, (9, 34)), (5, (18, 122)), (6, (39, 455))):
        columns = [(*v.rows, 1) for v in family("boolean_triangle", n)]
        assert size(lp._list_paths(columns, n * (n - 1) // 2 + 1).dag) == expected
    assert size(row_graph_matrices(6)[0]) == (65, 429)


def test_lp_membership_refuses_a_later_vertex_of_another_shape(family):
    vertices = family("magog_matrix", 3) + [SignMatrix.identity(4)]
    point = RationalMatrixPoint.from_rows(vertices[0].entries)
    with pytest.raises(ValueError):
        lp_membership(point, vertices)
    triangles = family("boolean_triangle", 4) + [[[0], [0, 0], [0, 0, 0, 0]]]
    with pytest.raises(ValueError):
        lp_membership(RationalTrianglePoint.from_rows(4, triangles[0].rows), triangles)


SIGN_MATRICES_4 = st.lists(st.lists(st.sampled_from((-1, 0, 1)), min_size=4, max_size=4),
                           min_size=4, max_size=4)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_lp_membership_certifies_non_magog_sign_matrices(family, data):
    vertices = family("magog_matrix", 4)
    square = [m.entries for m in family("square_sign", 4) if not classify(m).magog]
    rows = data.draw(st.one_of(st.sampled_from(square), SIGN_MATRICES_4))
    point = SignMatrix.from_rows(rows)
    assume(not validate_magog(point).valid)
    cert = lp_membership(point, vertices)
    assert isinstance(cert, NotInHull)
    assert cert.value_at(point) > 0
    assert all(cert.value_at(v) <= 0 for v in vertices)


def test_row_graph_columns_are_the_enumeration(family):
    for n in range(1, 7):
        dag, matrix = row_graph_matrices(n)
        listed = family("magog_matrix", n)
        assert dag.counts[-1] == len(listed)
        assert [matrix(j) for j in range(len(listed))] == listed
        assert [dag.column(j) for j in range(len(listed))] == [(*m.entries, 1) for m in listed]
        with pytest.raises(IndexError):
            matrix(len(listed))
    for n in range(7, 11):
        assert row_graph_matrices(n)[0].counts[-1] == product_formula(n)


def magog_batch(family, seed=20261020):
    """Seeded tsscpp points at n=3..5: members (mixes of one to five magog
    matrices), non-members (sign matrices that are not magog, and points
    cut off by a cube facet), mixes of a magog matrix with a non-magog sign
    matrix, and vertices."""
    rng = random.Random(seed)
    for n in (3, 4, 5):
        magog = [v.entries for v in family("magog_matrix", n)]
        others = [m.entries for m in family("square_sign", n) if not classify(m).magog]
        for _ in range(3):
            chosen = rng.sample(magog, rng.randint(1, 5))
            yield RationalMatrixPoint.from_rows(_combination([rng.randint(1, 9) for _ in chosen], chosen))
            yield SignMatrix.from_rows(rng.choice(others))
            yield RationalMatrixPoint.from_rows(_outside(rng, rng.choice(others), magog, 2 * n * n))
            mix = [rng.choice(magog), rng.choice(others)]
            yield RationalMatrixPoint.from_rows(_combination([rng.randint(1, 9) for _ in mix], mix))
            yield SignMatrix.from_rows(rng.choice(magog))


def recheck_magog_answer(point, outcome, listed):
    """An answer for the tsscpp hull checked apart from the solver, on the
    listed magog matrices: a decomposition reproduces the point from
    listed matrices, and a certificate is positive at the point and at
    most 0 on every listed matrix."""
    if isinstance(outcome, ConvexDecomposition):
        assert outcome.reconstruct() == tuple(map(tuple, point.entries))
        assert all(vertex in listed for _, vertex in outcome.terms)
    else:
        assert outcome.value_at(point) > 0
        assert all(outcome.value_at(vertex) <= 0 for vertex in listed)


def test_row_graph_path_answers_as_the_vertex_list(family):
    # the row-graph path solves on the point's face, the list on every
    # vertex, so the two end in other bases: the outcome kinds agree, and
    # each answer is checked on its own
    outcomes = set()
    for point in magog_batch(family):
        vertices = family("magog_matrix", point.n)
        listed = lp_membership(point, vertices)
        face = lp_membership(point, MagogVertices(point.n))
        assert type(face) is type(listed)
        recheck_magog_answer(point, listed, vertices)
        recheck_magog_answer(point, face, vertices)
        outcomes.add(type(listed))
    assert outcomes == {ConvexDecomposition, NotInHull}


def test_max_plus_pass_checks_certificates(family):
    rng = random.Random(4)
    for n in (3, 4):
        listed = family("magog_matrix", n)
        vertices = MagogVertices(n)
        for _ in range(20):
            y = [rng.randint(-3, 3) for _ in range(n * n + 1)]
            assert vertices._max_value(y) == max(
                sum(a * v for a, v in zip(y, (*(v for row in m.entries for v in row), 1))) for m in listed)

    # twice the separating functional of one vertex, less 2 C(n,2) - 1: 1
    # on that vertex and negative on every other
    n = 4
    listed = family("magog_matrix", n)
    vertex = listed[17]
    cert = magog_separating_hyperplane(vertex)
    y = [0] * (n * n) + [1 - n * (n - 1)]
    for i, j in cert.support:
        for above in range(i):
            y[above * n + j - 1] += 2
    values = [2 * cert.evaluate(m) + y[-1] for m in listed]
    assert [j for j, v in enumerate(values) if v > 0] == [17]
    vertices = MagogVertices(n)
    assert vertices._max_value(y) == 1
    b = [0] * (n * n) + [1]
    with pytest.raises(LPError):
        lp._verify_functional(y, vertices._max_value(y), b)  # positive on one column
    y = [0] * (n * n) + [-1]
    assert vertices._max_value(y) == -1
    with pytest.raises(LPError):
        lp._verify_functional(y, vertices._max_value(y), b)  # not positive on b


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
def test_row_graph_answers_hold_with_the_rule_memo(family, monkeypatch, warm):
    # cold: every read of the magog rule lists its moves afresh; warm: all
    # but the first of each order take the kept lists
    memo = polytope._magog_rule
    memo.cache_clear()
    if not warm:
        monkeypatch.setattr(polytope, "_magog_rule", lambda n: (memo.cache_clear(), memo(n))[1])
    test_row_graph_path_answers_as_the_vertex_list(family)
    hits = memo.cache_info().hits
    assert hits >= 40 if warm else hits == 0
    memo.cache_clear()


def test_a_list_changed_in_place_is_solved_afresh(family):
    # a column changed in place: (1/2, 1/2) leaves the segment
    cols = [[0, 1, 1], [1, 0, 1]]
    rhs = [F(1, 2), F(1, 2), 1]
    assert isinstance(solve_feasibility(cols, rhs), Feasible)
    cols[1][0] = 2
    assert repr(solve_feasibility(cols, rhs)) == repr(solve_feasibility([list(c) for c in cols], rhs))
    assert isinstance(solve_feasibility(cols, rhs), Infeasible)

    # a vertex list whose member point is a vertex: replacing that vertex
    # or dropping it puts the point outside
    vertices = list(family("boolean_triangle", 5))
    point = RationalTrianglePoint.from_rows(5, vertices[100].rows)
    assert isinstance(lp_membership(point, vertices), ConvexDecomposition)
    for change in (lambda: vertices.__setitem__(100, vertices[101]), lambda: vertices.pop(100)):
        change()
        outcome = lp_membership(point, vertices)
        assert isinstance(outcome, NotInHull)
        assert serialize.dumps(outcome) == serialize.dumps(lp_membership(point, list(vertices)))


def test_equal_columns_give_one_outcome():
    forms = ([[0, 1, 1], [1, 0, 1], [1, 1, 1]],
             [[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(1)]],
             [(0, 1, 1), (1, 0, 1), (1, 1, 1)],
             ((0, F(1), 1), [1, 0, F(1)], (1, 1, 1)))
    for rhs in ([F(1, 2), F(1, 3), 1], [F(2), F(-1), 1]):
        assert len({repr(solve_feasibility(cols, rhs)) for cols in forms}) == 1


def test_a_wrong_certificate_on_a_list_raises(monkeypatch):
    cols = [[1, 0], [0, 1]]
    # a pricing that finds no entering column stops at the artificial basis,
    # whose y = sign(b) = (1, -1) is positive on the first column alone; the
    # second solve takes the kept DAG and is checked all the same
    monkeypatch.setattr(lp._ColumnDag, "most_positive", lambda self, y: (-1, None))
    for _ in range(2):
        with pytest.raises(LPError, match="positive on a column"):
            solve_feasibility(cols, [1, -1])


def test_pricing_makes_no_fraction(monkeypatch):
    # items in halves and thirds: the DAG holds them at its one scale 6,
    # so pricing gives the scan's choice in integers alone
    columns = [[F(1, 2), 1, 0], [F(1, 3), F(2, 3), 1], [1, F(-1, 2), F(1, 3)], [0, F(1, 2), F(1, 2)]]
    dag = lp._list_paths(columns, 3).dag
    assert dag.scale == 6
    ys = [[a, b, c] for a in (-2, 0, 3) for b in (-1, 1) for c in (-3, 0, 2)]
    scans = []
    for y in ys:
        values = [sum(a * v for a, v in zip(y, col)) for col in columns]
        scans.append(values.index(max(values)) if max(values) > 0 else -1)
    assert -1 in scans and {0, 1, 2, 3} & set(scans)

    def refuse(*args):
        raise AssertionError("pricing made a Fraction")

    monkeypatch.setattr(lp, "Fraction", refuse)
    assert [dag.most_positive(y)[0] for y in ys] == scans


def test_a_column_off_the_dag_scale_raises():
    # the DAG holds halves (scale 2); a source that gives a basic column in
    # thirds fails the solution check, and is not truncated to the scale
    listed = lp._list_paths([[F(1, 2), 0], [0, 1]], 2)
    assert listed.dag.scale == 2
    columns = lp.ColumnPaths(listed.dag, lambda j: (F(1, 3), 0) if j == 0 else (0, 1), listed.max_value)
    with pytest.raises(LPError, match="scale"):
        solve_feasibility(columns, [1, 1])
    assert solve_feasibility(listed, [1, 1]) == Feasible({0: F(2), 1: F(1)})


def _spy(monkeypatch, owner, name):
    """Calls of owner.name, each recorded by its arguments."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def test_an_equal_list_reuses_its_dag(family, monkeypatch):
    vertices = family("boolean_triangle", 5)
    chosen = [vertices[3].rows, vertices[200].rows, vertices[411].rows]
    point = RationalTrianglePoint.from_rows(5, _combination([1, 2, 4], chosen))
    memo = lp._list_paths_of
    memo.cache_clear()
    first = serialize.dumps(lp_membership(point, vertices))
    built = _spy(monkeypatch, lp._ColumnDag, "of_paths")
    checked = _spy(monkeypatch, lp, "_verify_solution")
    # the same list, and an equal one of other objects, take the kept DAG;
    # the solution is checked on every call
    copies = [BooleanTriangle(5, tuple(tuple(r) for r in v.rows)) for v in vertices]
    for same in (vertices, copies):
        assert serialize.dumps(lp_membership(point, same)) == first
    assert built == [] and len(checked) == 2
    assert memo.cache_info().hits == 2 and memo.cache_info().maxsize == 4
    # a list changed in one column is built afresh
    changed = list(vertices)
    changed[-1] = changed[0]
    assert isinstance(lp_membership(point, changed), ConvexDecomposition)
    assert len(built) == 1 and memo.cache_info().misses == 2
    memo.cache_clear()


@pytest.mark.parametrize("junk", [1.0, True])
def test_an_inexact_list_equal_to_a_kept_one_is_refused(junk):
    # 1.0 == 1 and True == 1 hash alike, so a caller's list is read before
    # the memo is asked: after an exact list is solved, an equal one with a
    # float or a bool in it is still refused
    assert isinstance(solve_feasibility([[1], [2]], [1]), Feasible)
    with pytest.raises(ValidationFailure):
        solve_feasibility([[junk], [2]], [1])
    point = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    assert isinstance(lp_membership(point, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]), ConvexDecomposition)
    with pytest.raises(ValidationFailure):
        lp_membership(point, [[[junk, 0], [0, 1]], [[0, 1], [1, 0]]])


def test_a_kept_list_with_another_rhs_length_is_refused():
    cols = [[0, 1, 1], [1, 0, 1]]
    assert isinstance(solve_feasibility(cols, [F(1, 2), F(1, 2), 1]), Feasible)
    for rhs in ([F(1, 2), 1], [F(1, 2), F(1, 2), 1, 0]):
        with pytest.raises(ValidationFailure):
            solve_feasibility(cols, rhs)


def test_a_list_certificate_scan_makes_each_support_once(family, monkeypatch):
    vertices = family("boolean_triangle", 5)
    point = RationalTrianglePoint.from_rows(5, [[2], [0, 0], [0, 0, 0], [0, 0, 0, 0]])
    lp._list_paths_of.cache_clear()
    made = _spy(monkeypatch, lp, "_integer_column")
    outcomes = [lp_membership(point, vertices) for _ in range(2)]
    assert isinstance(outcomes[0], NotInHull)
    assert serialize.dumps(outcomes[0]) == serialize.dumps(outcomes[1])
    # the DAG's labels take one item each; the scan takes whole columns
    columns = [args[0] for args in made if len(args[0]) > 1]
    assert sorted(columns) == sorted((*v.rows, 1) for v in vertices)
    lp._list_paths_of.cache_clear()
