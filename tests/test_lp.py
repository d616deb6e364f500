import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magoglab import NotInHull, SignMatrix, classify, lp, lp_membership, validate_magog
from magoglab.lp import Feasible, Infeasible, LPError, solve_feasibility


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
    # Bland's rule fixes the basis each system ends in, hence the exact
    # values returned; the digest was taken from the Fraction simplex
    outs = [solve_feasibility(cols, rhs) for cols, rhs in small_lps()]
    assert sum(isinstance(o, Feasible) for o in outs) == 112
    digest = hashlib.sha256("\n".join(map(repr, outs)).encode()).hexdigest()
    assert digest == "0d7984db34b2d5873da52f85ab5ae23483173b61afb8b82ed35fae8e051bae5d"


def test_verification_rejects_wrong_results():
    _, support = lp._integer_column([1, -1], 2)
    with pytest.raises(LPError):
        lp._verify_certificate([1, 0], [support], [1, 0])  # positive on the column
    with pytest.raises(LPError):
        lp._verify_certificate([1, 1], [support], [0, 0])  # not positive on b
    lp._verify_solution({0: 2}, [support], [2, -2], 1)
    with pytest.raises(LPError):
        lp._verify_solution({0: 2}, [support], [2, 2], 1)  # A x != b
    with pytest.raises(LPError):
        lp._verify_solution({0: -2}, [support], [-2, 2], 1)  # x < 0


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
