import random
from fractions import Fraction

import pytest

from magoglab import enumeration, polytope
from magoglab.core import _column_prefixes
from magoglab.polytope import RationalTrianglePoint


@pytest.fixture(scope="session")
def family():
    """Cached enumerations shared across the whole run."""
    cache = {}

    def get(kind, n):
        key = (kind, n)
        if key not in cache:
            cache[key] = list(enumeration.enumerate_objects(kind, n))
        return cache[key]

    return get


def row_graph_matrices(n):
    """(dag, matrix): the column DAG of the whole magog row graph of order
    n, which lp_membership solves on for a point with no tight prefix, and
    j -> its magog matrix j, rebuilt and checked as lp_membership rebuilds
    a basic column."""
    dag = polytope._magog_paths(n, polytope._face_moves(n, ()), {}).dag
    return dag, lambda j: polytope._magog_matrix(n, dag, j)


def path_sums(depth, start, moves):
    """The number of paths of enumeration._walk(depth, start, moves): a
    forward pass that pushes each layer, state -> paths ending there, to
    the next step edge by edge.  It reads any move rule as it is listed,
    the reference the faster counting passes are held to."""
    layer = {start: 1}
    for i in range(1, depth + 1):
        move = moves(i)
        nxt = {}
        for state, ways in layer.items():
            for _, q in move(state):
                nxt[q] = nxt.get(q, 0) + ways
        layer = nxt
    return sum(layer.values())


def fractional_measure(n, rows):
    """Count of non-integral entries plus non-integral diagonal partial-sum
    differences of a boolean-triangle point; strictly decreases along both
    split branches."""
    scale, rows = polytope._scaled_rows(rows)
    return polytope._scaled_measure(n, scale, rows, _column_prefixes(rows))


def facet_witness(n, ineq):
    """Interior-ish point tight exactly on the requested btp inequality:
    all entries 1/2 except the bumps of polytope._facet_bumps."""
    rows = [[Fraction(1, 2)] * i for i in range(1, n)]
    for (i, c), q in polytope._facet_bumps(n, ineq).items():
        rows[i - 1][c - (n - i)] = Fraction(q, 4)
    return tuple(tuple(r) for r in rows)


def random_membership_point(rng: random.Random, vertices, max_terms: int = 5) -> RationalTrianglePoint:
    """Exact rational convex combination of up to max_terms vertices."""
    m = rng.randint(1, max_terms)
    chosen = rng.sample(vertices, m)
    weights = [rng.randint(1, 12) for _ in chosen]
    total = sum(weights)
    n = chosen[0].n
    rows = [[Fraction(0)] * i for i in range(1, n)]
    for w, v in zip(weights, chosen):
        for i, r in enumerate(v.rows):
            for j, x in enumerate(r):
                rows[i][j] += Fraction(w, total) * x
    return RationalTrianglePoint.from_rows(n, rows)


# acceptance criterion 7: random points per order, 1000 in all
CRITERION_7_PLAN = ((3, 400), (4, 350), (5, 230), (6, 20))


def criterion_7_points(family):
    """(vertices, point) for each random point of acceptance criterion 7, in
    a fixed order."""
    rng = random.Random(20250808)
    for n, trials in CRITERION_7_PLAN:
        verts = family("boolean_triangle", n)
        for _ in range(trials):
            yield verts, random_membership_point(rng, verts)
