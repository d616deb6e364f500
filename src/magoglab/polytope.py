"""Exact-rational polytope computations for the two hulls studied here:
the hull of the n x n magog matrices and the hull of the order-n boolean
triangles.

Everything runs on Fractions; floats are rejected at the boundary.  The
boolean-triangle hull has a complete inequality description (entry bounds
plus the diagonal partial-sum inequalities), which makes membership a
direct check and supports a constructive convex decomposition.  The magog
hull has no known inequality description for n >= 4, so membership there
is decided by an exact LP against the enumerated vertex list, with a
Farkas functional returned as the non-membership certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BooleanTriangle,
    SignMatrix,
    ValidationFailure,
    ValidationReport,
    _column_prefixes,
    _diagonal_violations,
    _prefix_matrices,
    _special_from_prefixes,
    column_one_positions,
    validate_magog,
)
from .enumeration import (
    DEFAULT_CEILING,
    CeilingExceeded,
    _guard,
    _iter_boolean_triangle_rows,
    _iter_magog_matrix_rows,
    _iter_square_sign_rows,
)
from .lp import Feasible, Infeasible, solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class DecompositionError(RuntimeError):
    """An internal invariant of the decomposition algorithm failed; this
    signals a bug, not bad input."""


def as_fraction(v) -> Fraction:
    """Exact coercion; floats are refused to keep the module float-free."""
    if isinstance(v, float):
        raise TypeError("floats are not accepted; pass ints, Fractions, or 'p/q' strings")
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


@dataclass(frozen=True)
class RationalMatrixPoint:
    """n x n array of exact rationals; candidate point for the magog hull."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must be square of order n")

    @staticmethod
    def from_rows(rows) -> "RationalMatrixPoint":
        t = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        return RationalMatrixPoint(len(t), t)


@dataclass(frozen=True)
class RationalTrianglePoint:
    """Boolean-triangle-shaped array of exact rationals (n-1 ragged rows)."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n - 1 or any(len(r) != i + 1 for i, r in enumerate(self.rows)):
            raise ValueError("rows must have lengths 1..n-1")

    @staticmethod
    def from_rows(n: int, rows) -> "RationalTrianglePoint":
        return RationalTrianglePoint(n, tuple(tuple(as_fraction(v) for v in row) for row in rows))


def _rows_of(obj):
    if isinstance(obj, (SignMatrix, RationalMatrixPoint)):
        return obj.entries
    if isinstance(obj, (BooleanTriangle, RationalTrianglePoint)):
        return obj.rows
    return tuple(tuple(r) for r in obj)


def _flatten(obj) -> tuple:
    return tuple(v for row in _rows_of(obj) for v in row)


def _shape(obj) -> tuple[int, ...]:
    return tuple(len(r) for r in _rows_of(obj))


@dataclass(frozen=True)
class ConvexDecomposition:
    """Positive rational weights summing to one, attached to pairwise
    distinct vertices whose weighted sum is the decomposed point."""

    terms: tuple[tuple[Fraction, object], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a decomposition needs at least one term")
        if any(w <= 0 for w, _ in self.terms):
            raise ValueError("weights must be positive")
        if sum(w for w, _ in self.terms) != 1:
            raise ValueError("weights must sum to one exactly")
        seen = [_rows_of(v) for _, v in self.terms]
        if len(set(seen)) != len(seen):
            raise ValueError("vertices must be pairwise distinct")

    def reconstruct(self) -> tuple[tuple[Fraction, ...], ...]:
        shape = _shape(self.terms[0][1])
        acc = [[ZERO] * w for w in shape]
        for weight, vertex in self.terms:
            for i, row in enumerate(_rows_of(vertex)):
                for j, v in enumerate(row):
                    acc[i][j] += weight * v
        return tuple(tuple(row) for row in acc)


@dataclass(frozen=True)
class NotInHull:
    """Separating functional: coefficients.x + offset is <= 0 on every
    vertex and > 0 at the rejected point."""

    coefficients: tuple[Fraction, ...]
    offset: Fraction

    def value_at(self, obj) -> Fraction:
        flat = _flatten(obj)
        return sum((c * as_fraction(x) for c, x in zip(self.coefficients, flat)), self.offset)


# ---------------------------------------------------------------------------
# necessary inequalities for the magog hull


def check_necessary_inequalities(p: RationalMatrixPoint) -> ValidationReport:
    """All inequalities known to hold on the magog hull: unit row/column
    sums, column prefixes in [0,1], nonnegative row prefixes, the
    (i,j)-special inequalities, and the three hook families

      inner-hook (i,j), i+j >= n-1:  row(i+1) prefix j + col(j+1) prefix i+1 >= 1
      top-hook   (j),  1 <= j <= n-3: row-2 prefix j+1 + row-1 suffix from j+1 >= 1
      left-hook  (i),  1 <= i <= n-3: col-2 prefix i+1 + col-1 suffix from i+1 >= 1

    Passing is necessary but not sufficient for membership when n >= 3.
    """
    n = p.n
    col, rowp = _prefix_matrices(p.entries)
    out = []
    for j in range(n):
        if col[n - 1][j] != 1:
            out.append(("column-sum", (j + 1,)))
    for i in range(n):
        if rowp[i][n - 1] != 1:
            out.append(("row-sum", (i + 1,)))
    for i in range(n):
        for j in range(n):
            if not ZERO <= col[i][j] <= ONE:
                out.append(("column-prefix", (i + 1, j + 1)))
            if rowp[i][j] < 0:
                out.append(("row-prefix", (i + 1, j + 1)))
    out += _special_from_prefixes(col, rowp, collect_all=True)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if i + j >= n - 1 and rowp[i][j - 1] + col[i][j] < 1:
                out.append(("inner-hook", (i, j)))
    for j in range(1, n - 2):
        if rowp[1][j] + (rowp[0][n - 1] - rowp[0][j - 1]) < 1:
            out.append(("top-hook", (j,)))
    for i in range(1, n - 2):
        if col[i][1] + (col[n - 1][0] - col[i - 1][0]) < 1:
            out.append(("left-hook", (i,)))
    return ValidationReport.of(out)


# ---------------------------------------------------------------------------
# vertex separation certificates


@dataclass(frozen=True)
class SeparationCertificate:
    """Linear functional plus threshold witnessing that one candidate sits
    strictly above and every other candidate strictly below."""

    kind: str  # "matrix-prefix" or "triangle-signed"
    n: int
    support: frozenset[tuple[int, int]]
    threshold: Fraction

    def evaluate(self, obj):
        rows = _rows_of(obj)
        if self.kind == "matrix-prefix":
            return sum(rows[i2][j - 1] for (i, j) in self.support for i2 in range(i))
        n = self.n
        total = 0
        for i, row in enumerate(rows, start=1):
            for k, v in enumerate(row):
                total += v if (i, n - i + k) in self.support else -v
        return total

    def score_vertex(self, support) -> int:
        """:meth:`evaluate` at the vertex whose own certificate has this
        support.  A vertex's column prefixes in rows 1..n-1 are one exactly
        on its support (zero elsewhere), and a boolean triangle is one
        exactly on its support."""
        shared = len(self.support & support)
        return shared if self.kind == "matrix-prefix" else 2 * shared - len(support)


def magog_separating_hyperplane(a: SignMatrix) -> SeparationCertificate:
    """Certificate separating a magog matrix from all others: sum the
    column prefixes over the positions (rows 1..n-1) where this matrix's
    prefix is one.  The candidate scores C(n,2); any other magog matrix
    scores at most C(n,2) - 1."""
    report = validate_magog(a)
    if not report.valid:
        raise ValidationFailure(f"not a magog matrix: {report.first()}", report)
    n = a.n
    support = frozenset(
        (i, j) for i, cols in enumerate(column_one_positions(a)[:-1], start=1) for j in cols
    )
    binom2 = n * (n - 1) // 2
    if len(support) != binom2:
        raise DecompositionError("prefix support size must be C(n,2) on a magog matrix")
    return SeparationCertificate("matrix-prefix", n, support, Fraction(binom2) - HALF)


def boolean_separating_hyperplane(b: BooleanTriangle) -> SeparationCertificate:
    """Certificate for a boolean triangle: +1 on its one-entries, -1 off
    them; the triangle itself scores the size of its support."""
    support = b.ones()
    return SeparationCertificate("triangle-signed", b.n, support, Fraction(len(support)) - HALF)


@dataclass(frozen=True)
class CertificateReport:
    polytope: str
    n: int
    candidates: int
    separated: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.separated == self.candidates and not self.failures

    def line(self) -> str:
        return f"{self.polytope}(n={self.n}): {self.separated}/{self.candidates} vertex certificates separate"


def verify_vertex_certificates(n: int, polytope: str = "tsscpp", ceiling: int = DEFAULT_CEILING) -> CertificateReport:
    """Check, for every vertex candidate, strict separation from all other
    candidates under the certificate its public constructor returns."""
    _guard(n, ceiling)
    if polytope == "tsscpp":
        certs = [magog_separating_hyperplane(SignMatrix(n, rows)) for rows in _iter_magog_matrix_rows(n)]
    elif polytope == "btp":
        certs = [boolean_separating_hyperplane(BooleanTriangle(n, rows)) for rows in _iter_boolean_triangle_rows(n)]
    else:
        raise ValueError("polytope must be 'tsscpp' or 'btp'")
    failures = []
    separated = 0
    for k, cert in enumerate(certs):
        # scores are integers and thresholds sit halfway between two, so
        # "strictly above" is "above the floor" and "strictly below" is not
        floor = math.floor(cert.threshold)
        ok = True
        for k2, other in enumerate(certs):
            if (cert.score_vertex(other.support) > floor) != (k2 == k):
                ok = False
                failures.append(("self-value" if k2 == k else "not-separated", k, k2))
        if ok:
            separated += 1
    return CertificateReport(polytope, n, len(certs), separated, tuple(failures))


# ---------------------------------------------------------------------------
# the boolean triangle polytope: membership and decomposition


def btp_contains(p: RationalTrianglePoint) -> ValidationReport:
    """Complete membership test for the boolean-triangle hull: entries in
    [0,1] plus every (i,j)-diagonal inequality."""
    n = p.n
    out = []
    for idx, row in enumerate(p.rows):
        i = idx + 1
        for k, v in enumerate(row):
            c = n - i + k
            if v < 0:
                out.append(("lower-bound", (i, c)))
            if v > 1:
                out.append(("upper-bound", (i, c)))
    out += _diagonal_violations(n, p.rows, collect_all=True)
    return ValidationReport.of(out)


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def _fractional_measure(n, rows) -> int:
    """Count of non-integral entries plus non-integral diagonal partial-sum
    differences; strictly decreases along both split branches."""
    m = sum(1 for row in rows for v in row if not _is_int(v))
    pref = _column_prefixes(n, rows)
    for c in range(2, n):
        for i in range(n - c + 1, n):
            if not _is_int(pref[(i, c)] - pref[(i, c - 1)]):
                m += 1
    return m


@dataclass(frozen=True)
class SplitStep:
    """One step of the decomposition: the point equals
    (step_down / (step_up + step_down)) * child_up
    + (step_up / (step_up + step_down)) * child_down."""

    step_up: Fraction
    step_down: Fraction
    child_up: tuple
    child_down: tuple


def btp_split(p: RationalTrianglePoint) -> SplitStep:
    """Label the entries that open ((+)) and close ((-)) fractional runs of
    the column prefix sums, then shift the labelled entries by the largest
    steps that keep both children inside the polytope.

    step_up is bounded by 1-x over (+) entries, y over (-) entries, and
    1-p over the diagonal differences p whose positive column is
    unbalanced (fractional prefix) while the subtracted one is balanced;
    step_down swaps the roles.  Both steps are strictly positive and each
    child gains at least one more integral entry or difference.
    """
    n = p.n
    rows = p.rows
    pref = _column_prefixes(n, rows)

    plus, minus = [], []
    for idx, row in enumerate(rows):
        i = idx + 1
        for k, v in enumerate(row):
            c = n - i + k
            prev = pref.get((i - 1, c), ZERO) if i - 1 >= n - c else ZERO
            before = _is_int(prev)
            after = _is_int(pref[(i, c)])
            if before and not after:
                plus.append((idx, k, v))
            elif not before and after:
                minus.append((idx, k, v))

    if not plus and not minus:
        raise DecompositionError("split requested on an integral point")

    def unbalanced(i, c):
        return not _is_int(pref[(i, c)])

    up_cands = [ONE - v for _, _, v in plus] + [v for _, _, v in minus]
    down_cands = [v for _, _, v in plus] + [ONE - v for _, _, v in minus]
    for c in range(2, n):
        for i in range(n - c + 1, n):
            diff = pref[(i, c)] - pref[(i, c - 1)]
            if unbalanced(i, c) and not unbalanced(i, c - 1):
                up_cands.append(ONE - diff)
            elif not unbalanced(i, c) and unbalanced(i, c - 1):
                down_cands.append(ONE - diff)

    step_up = min(up_cands)
    step_down = min(down_cands)
    if step_up <= 0 or step_down <= 0:
        raise DecompositionError("shift steps must be strictly positive")

    def shifted(delta):
        out = [list(r) for r in rows]
        for idx, k, _ in plus:
            out[idx][k] += delta
        for idx, k, _ in minus:
            out[idx][k] -= delta
        return tuple(tuple(r) for r in out)

    return SplitStep(step_up, step_down, shifted(step_up), shifted(-step_down))


def btp_decompose(p: RationalTrianglePoint) -> ConvexDecomposition:
    """Write a point of the boolean-triangle hull as an exact convex
    combination of boolean triangles via repeated splitting."""
    report = btp_contains(p)
    if not report.valid:
        raise ValidationFailure(f"point is outside the hull: {report.first()}", report)
    n = p.n
    weights: dict[tuple, Fraction] = {}
    stack = [(ONE, p.rows)]
    while stack:
        w, rows = stack.pop()
        if all(_is_int(v) for row in rows for v in row):
            key = tuple(tuple(int(v) for v in row) for row in rows)
            weights[key] = weights.get(key, ZERO) + w
            continue
        measure = _fractional_measure(n, rows)
        step = btp_split(RationalTrianglePoint(n, rows))
        for child in (step.child_up, step.child_down):
            if _fractional_measure(n, child) >= measure:
                raise DecompositionError("integrality measure failed to decrease")
            child_report = btp_contains(RationalTrianglePoint(n, child))
            if not child_report.valid:
                raise DecompositionError(f"split left the polytope: {child_report.first()}")
        total = step.step_up + step.step_down
        stack.append((w * step.step_down / total, step.child_up))
        stack.append((w * step.step_up / total, step.child_down))

    terms = []
    for key in sorted(weights):
        if weights[key] != 0:
            terms.append((weights[key], BooleanTriangle(n, key)))
    decomposition = ConvexDecomposition(tuple(terms))
    if decomposition.reconstruct() != p.rows:
        raise DecompositionError("decomposition does not reproduce the input point")
    return decomposition


# ---------------------------------------------------------------------------
# LP membership oracle


def lp_membership(point, vertices) -> ConvexDecomposition | NotInHull:
    """Exact membership of a point in the convex hull of an explicit vertex
    list, via phase-one simplex.  Returns a reproducing decomposition or a
    verified separating functional."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("vertex list is empty")
    shape = _shape(point)
    for v in vertices:
        if _shape(v) != shape:
            raise ValueError("vertex shape does not match the point's shape")
    target = [as_fraction(x) for x in _flatten(point)]
    columns = [list(_flatten(v)) + [1] for v in vertices]
    rhs = target + [ONE]

    outcome = solve_feasibility(columns, rhs)
    if isinstance(outcome, Feasible):
        terms = [(w, vertices[j]) for j, w in sorted(outcome.x.items())]
        decomposition = ConvexDecomposition(tuple(terms))
        rebuilt = decomposition.reconstruct()
        flat = tuple(v for row in rebuilt for v in row)
        if flat != tuple(target):
            raise DecompositionError("feasible basis does not reproduce the point")
        return decomposition
    assert isinstance(outcome, Infeasible)
    y = outcome.y
    cert = NotInHull(coefficients=y[:-1], offset=y[-1])
    for v in vertices:
        if cert.value_at(v) > 0:
            raise DecompositionError("separating functional fails on a vertex")
    if cert.value_at(point) <= 0:
        raise DecompositionError("separating functional fails on the point")
    return cert


# ---------------------------------------------------------------------------
# facets of the boolean triangle polytope


def btp_inequalities(n: int):
    """All defining inequalities: ('lower', i, c) and ('upper', i, c) per
    entry, ('diagonal', i, j) for 1 <= j < i <= n-1.  Their count is
    (n-1)(3n-2)/2."""
    out = []
    for i in range(1, n):
        for c in range(n - i, n):
            out.append(("lower", i, c))
    for i in range(1, n):
        for c in range(n - i, n):
            out.append(("upper", i, c))
    for i in range(2, n):
        for j in range(1, i):
            out.append(("diagonal", i, j))
    return out


def _slack(ineq, n, rows) -> Fraction:
    kind = ineq[0]
    if kind == "lower":
        _, i, c = ineq
        return rows[i - 1][c - (n - i)]
    if kind == "upper":
        _, i, c = ineq
        return ONE - rows[i - 1][c - (n - i)]
    _, i, j = ineq
    c = n - j
    s_main = sum(rows[k - 1][c - (n - k)] for k in range(j, i + 1))
    s_left = sum(rows[k - 1][(c - 1) - (n - k)] for k in range(j + 1, i + 1))
    return ONE + s_left - s_main


def _facet_witness(n: int, ineq) -> tuple:
    """Interior-ish point tight exactly on the requested inequality: all
    entries 1/2 except small bumps around the tight position."""
    rows = [[HALF] * i for i in range(1, n)]

    def put(i, c, v):
        rows[i - 1][c - (n - i)] = v

    kind = ineq[0]
    if kind == "lower":
        _, i, c = ineq
        put(i, c, ZERO)
        if c + 1 <= n - 1:
            put(i, c + 1, Fraction(1, 4))
    elif kind == "upper":
        _, i, c = ineq
        put(i, c, ONE)
        if c - 1 >= n - i:
            put(i, c - 1, Fraction(3, 4))
        elif c >= 2:
            # first entry of its row: column c-1 starts one row lower
            put(i + 1, c - 1, Fraction(3, 4))
    else:
        _, i, j = ineq
        c = n - j
        put(j, c, Fraction(3, 4))
        put(i, c, Fraction(3, 4))
        if i + 1 <= n - 1:
            put(i + 1, c, Fraction(1, 4))
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class FacetAuditReport:
    n: int
    expected: int
    certified: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.certified == self.expected and not self.failures

    def line(self) -> str:
        return f"btp(n={self.n}): {self.certified}/{self.expected} facets certified irredundant"


def btp_facet_audit(n: int) -> FacetAuditReport:
    """Certify every defining inequality as a facet by exhibiting a point
    of the hull tight on it and strictly slack on all the others."""
    if n < 2:
        raise ValueError("order must be at least 2")
    ineqs = btp_inequalities(n)
    expected = (n - 1) * (3 * n - 2) // 2
    if len(ineqs) != expected:
        raise DecompositionError("inequality count disagrees with (n-1)(3n-2)/2")
    certified = 0
    failures = []
    for ineq in ineqs:
        witness = _facet_witness(n, ineq)
        ok = True
        for other in ineqs:
            s = _slack(other, n, witness)
            if other == ineq:
                if s != 0:
                    ok = False
                    failures.append((ineq, "not-tight"))
                    break
            elif s <= 0:
                ok = False
                failures.append((ineq, "tie-or-violation", other))
                break
        if ok:
            certified += 1
    return FacetAuditReport(n, expected, certified, tuple(failures))


# ---------------------------------------------------------------------------
# lattice points and Ehrhart interpolation

BTP_DILATE_N_CEILING = 5
BTP_DILATE_T_CEILING = 10
TSSCPP3_DILATE_T_CEILING = 6


def lattice_points_in_dilate(polytope: str, t: int, n: int | None = None, allow_large: bool = False) -> int:
    """Number of integer points in the t-th dilate.

    'btp' counts integer triangles with entries in [0, t] satisfying the
    scaled diagonal inequalities by column-ordered backtracking (each
    column is pruned against the previously filled neighbour that bounds
    it).  'tsscpp3' enumerates integer relaxation points of the scaled
    3 x 3 system and keeps those that pass the LP oracle against the
    vertex list; 'tsscpp' at n=4 is the same procedure over the 42-vertex
    list, gated behind allow_large because the candidate space explodes
    with t (no usable inequality description exists there).
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    if polytope == "btp":
        if n is None:
            raise ValueError("btp requires the order n")
        if n < 1:
            raise ValueError("order must be positive")
        if not allow_large and (n > BTP_DILATE_N_CEILING or t > BTP_DILATE_T_CEILING):
            raise CeilingExceeded(f"btp dilate ceiling is n<={BTP_DILATE_N_CEILING}, t<={BTP_DILATE_T_CEILING}")
        return _btp_dilate_count(n, t)
    if polytope in ("tsscpp3", "tsscpp"):
        if polytope == "tsscpp3" and n not in (None, 3):
            raise ValueError("tsscpp3 is fixed at order 3")
        order = 3 if n is None else n
        if order == 3:
            if not allow_large and t > TSSCPP3_DILATE_T_CEILING:
                raise CeilingExceeded(f"tsscpp3 dilate ceiling is t<={TSSCPP3_DILATE_T_CEILING}")
            return _tsscpp_dilate_count(3, t)
        if order == 4:
            if not allow_large:
                raise CeilingExceeded("tsscpp dilates at n=4 are opt-in; pass allow_large")
            return _tsscpp_dilate_count(4, t)
        raise ValueError("tsscpp dilate counting supports n = 3 and (opt-in) n = 4")
    raise ValueError("polytope must be 'btp', 'tsscpp3', or 'tsscpp'")


def _btp_dilate_count(n: int, t: int) -> int:
    if n == 1:
        return 1
    memo: dict = {}

    def count_cols(c: int, left_profile: tuple) -> int:
        if c == n:
            return 1
        key = (c, left_profile)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        profile: list[int] = []

        def fill(idx: int, s: int):
            nonlocal total
            if idx == c:
                total += count_cols(c + 1, tuple(profile))
                return
            hi = t
            if idx > 0:
                hi = min(hi, t + left_profile[idx - 1] - s)
            for v in range(hi + 1):
                profile.append(s + v)
                fill(idx + 1, s + v)
                profile.pop()

        fill(0, 0)
        memo[key] = total
        return total

    return count_cols(1, ())


def _tsscpp_dilate_count(n: int, t: int) -> int:
    """Candidates from the scaled relaxation, prefiltered through the
    known necessary inequalities of the unit hull (applied to the point
    divided by t), then decided by the LP oracle."""
    if t == 0:
        return 1
    vertices = list(_iter_magog_matrix_rows(n))
    count = 0
    for cand in _iter_square_sign_rows(n, t):
        point = RationalMatrixPoint.from_rows(
            [[Fraction(v, t) for v in row] for row in cand])
        if not check_necessary_inequalities(point).valid:
            continue
        if isinstance(lp_membership(point, vertices), ConvexDecomposition):
            count += 1
    return count


class InterpolationError(ValueError):
    """Samples are insufficient or mutually inconsistent."""


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending by degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t) -> Fraction:
        x = as_fraction(t)
        acc = ZERO
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def normalized_volume(self) -> Fraction:
        return self.coefficients[-1] * math.factorial(self.degree)

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0 and self.degree > 0:
                continue
            if c.denominator == 1:
                coef = str(c.numerator) if (abs(c) != 1 or k == 0) else ("-" if c < 0 else "")
            else:
                coef = f"({c})"
            if k == 0:
                parts.append(str(c) if c.denominator == 1 else f"({c})")
            elif k == 1:
                parts.append(f"{coef}t")
            else:
                parts.append(f"{coef}t^{k}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def ehrhart_interpolate(samples, degree: int | None = None) -> RationalPolynomial:
    """Exact polynomial through the (t, count) samples.

    With ``degree`` given, the first degree+1 samples (sorted by t) pin the
    polynomial and every remaining sample must evaluate exactly; otherwise
    all samples are used.  Trailing zero coefficients are trimmed.
    """
    pts = sorted((as_fraction(t), as_fraction(c)) for t, c in samples)
    if len({t for t, _ in pts}) != len(pts):
        raise InterpolationError("sample abscissae must be distinct")
    if degree is None:
        degree = len(pts) - 1
    if len(pts) < degree + 1:
        raise InterpolationError(f"need {degree + 1} samples for degree {degree}")
    base = pts[: degree + 1]

    # Vandermonde solve by exact elimination
    size = degree + 1
    aug = [[t ** k for k in range(size)] + [c] for t, c in base]
    coeffs = _solve_square(aug)
    if coeffs is None:
        raise InterpolationError("interpolation system is singular")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    poly = RationalPolynomial(tuple(coeffs))
    for t, c in pts:
        if poly(t) != c:
            raise InterpolationError(f"sample at t={t} is inconsistent with the fitted polynomial")
    return poly


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(rows, cols: int) -> list[int]:
    """Gauss-Jordan elimination, in place, over the first ``cols`` columns
    of ``rows`` (lists of Fractions; later columns ride along).  Returns
    the pivot columns; pivot row r ends up normalised with a one at
    pivots[r].  Stops as soon as every row holds a pivot."""
    m = len(rows)
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((r for r in range(rank, m) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
    return pivots


def _solve_square(aug) -> list[Fraction] | None:
    """Solve an augmented system with exactly as many unknowns as
    aug[0][:-1]; None when the solution is not unique or inconsistent."""
    rows = [[as_fraction(v) for v in r] for r in aug]
    cols = len(rows[0]) - 1
    rank = len(_reduce(rows, cols))
    if any(row[cols] != 0 for row in rows[rank:]):
        return None  # inconsistent
    if rank < cols:
        return None  # underdetermined
    return [row[cols] for row in rows[:cols]]


def affine_dimension(points) -> int:
    """Rank of the difference set {p - p0} under exact elimination."""
    pts = [tuple(as_fraction(v) for v in _flatten(p)) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return len(_reduce(diffs, len(base)))


# ---------------------------------------------------------------------------
# the complete n=3 vertex audit


def _eq_rows_3():
    """Row/column sum equalities of the 3x3 system, as coefficient rows."""
    eqs = []
    for i in range(3):
        row = [ZERO] * 9
        for j in range(3):
            row[3 * i + j] = ONE
        eqs.append((row, ONE))
    for j in range(3):
        row = [ZERO] * 9
        for i in range(3):
            row[3 * i + j] = ONE
        eqs.append((row, ONE))
    return eqs


def _audit_inequalities_3():
    """The six inequalities of the complete order-3 hull description:
    five entry nonnegativities and a_12 + a_21 + a_22 >= 1."""
    def unit(i, j):
        row = [ZERO] * 9
        row[3 * (i - 1) + (j - 1)] = ONE
        return row

    ineqs = [
        ("a11>=0", unit(1, 1), ZERO),
        ("a12>=0", unit(1, 2), ZERO),
        ("a13>=0", unit(1, 3), ZERO),
        ("a31>=0", unit(3, 1), ZERO),
        ("a32>=0", unit(3, 2), ZERO),
    ]
    hook = [ZERO] * 9
    for (i, j) in ((1, 2), (2, 1), (2, 2)):
        hook[3 * (i - 1) + (j - 1)] = ONE
    ineqs.append(("a12+a21+a22>=1", hook, ONE))
    return ineqs


def _relaxation_inequalities_3():
    """The scaled-down (order 3) relaxation: column prefixes in [0,1]
    for rows 1..2, row prefixes >= 0 for columns 1..2, and the single
    (1,1)-special inequality."""
    def coeffs(pairs):
        row = [ZERO] * 9
        for (i, j), w in pairs:
            row[3 * (i - 1) + (j - 1)] += w
        return row

    out = []
    for j in range(1, 4):
        for i in range(1, 3):
            pref = [((i2, j), ONE) for i2 in range(1, i + 1)]
            out.append((f"colpref({i},{j})>=0", coeffs(pref), ZERO))
            out.append((f"colpref({i},{j})<=1", [-v for v in coeffs(pref)], -ONE))
    for i in range(1, 4):
        for j in range(1, 3):
            pref = [((i, j2), ONE) for j2 in range(1, j + 1)]
            out.append((f"rowpref({i},{j})>=0", coeffs(pref), ZERO))
    special = coeffs([((2, 1), ONE), ((1, 2), ONE), ((2, 2), ONE), ((1, 1), -ONE)])
    out.append(("special(1,1)>=0", special, ZERO))
    return out


def _basic_feasible_solutions(eqs, ineqs, dim_free: int):
    """Vertices of {eqs hold, ineqs >= rhs}: all unique solutions of the
    equality system plus dim_free tight inequalities that satisfy every
    inequality."""
    found = {}
    for combo in itertools.combinations(range(len(ineqs)), dim_free):
        aug = [row + [rhs] for row, rhs in eqs]
        for idx in combo:
            _, row, rhs = ineqs[idx]
            aug.append(list(row) + [rhs])
        sol = _solve_square(aug)
        if sol is None:
            continue
        good = all(
            sum(r * v for r, v in zip(row, sol)) >= rhs for _, row, rhs in ineqs
        )
        if good:
            found[tuple(sol)] = True
    return list(found)


@dataclass(frozen=True)
class Tsscpp3AuditReport:
    vertices: tuple
    matches_magog3: bool
    facet_incidences: tuple  # (label, incident count, affine dimension)
    relaxation_vertex_count: int
    half_integer_relaxation_vertices_found: bool

    @property
    def passed(self) -> bool:
        return self.matches_magog3


HALF_INTEGER_RELAXATION_VERTICES = (
    ((Fraction(1, 2), ZERO, Fraction(1, 2)), (Fraction(1, 2), ZERO, Fraction(1, 2)), (ZERO, ONE, ZERO)),
    ((Fraction(1, 2), Fraction(1, 2), ZERO), (ZERO, ZERO, ONE), (Fraction(1, 2), Fraction(1, 2), ZERO)),
)


def tsscpp3_vertex_audit() -> Tsscpp3AuditReport:
    """Recover the order-3 hull's vertices from its six-inequality
    description by basic-solution enumeration, confirm they are exactly
    the seven magog matrices, record facet incidence evidence, and verify
    the weaker relaxation admits the two half-integer vertices."""
    eqs = _eq_rows_3()
    ineqs = _audit_inequalities_3()
    sols = _basic_feasible_solutions(eqs, ineqs, dim_free=4)

    magog3 = {tuple(Fraction(v) for row in rows for v in row) for rows in _iter_magog_matrix_rows(3)}
    matches = set(map(tuple, sols)) == magog3

    incidences = []
    for label, row, rhs in ineqs:
        incident = [s for s in sols if sum(r * v for r, v in zip(row, s)) == rhs]
        mats = [tuple(tuple(s[3 * i + j] for j in range(3)) for i in range(3)) for s in incident]
        dim = affine_dimension(mats) if mats else -1
        incidences.append((label, len(incident), dim))

    relax = _basic_feasible_solutions(eqs, _relaxation_inequalities_3(), dim_free=4)
    relax_set = set(map(tuple, relax))
    halves_found = all(
        tuple(v for row in m for v in row) in relax_set for m in HALF_INTEGER_RELAXATION_VERTICES
    )
    return Tsscpp3AuditReport(
        vertices=tuple(sorted(sols)),
        matches_magog3=matches,
        facet_incidences=tuple(incidences),
        relaxation_vertex_count=len(relax),
        half_integer_relaxation_vertices_found=halves_found,
    )
