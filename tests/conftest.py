import random
from fractions import Fraction

import pytest

from magoglab import enumeration, polytope
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
    dag = polytope._magog_paths(n, polytope._face_moves(n, polytope._face_masks(n, ())), {}).dag
    return dag, lambda j: polytope._magog_matrix(n, dag, j)


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
