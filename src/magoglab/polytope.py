"""Exact polytope computations for the two hulls studied here: the hull
of the n x n magog matrices and the hull of the order-n boolean triangles.

All arithmetic is exact.  Points and weights are ints and Fractions: a
caller's value is read by core.as_fraction (re-exported here), which
refuses a float, and the rational points (core's, re-exported here, so
that reading a document loads no hull code) take only int and Fraction
entries.  Rows given as plain sequences are read through it too
(_rows_of), for the LP, affine_dimension and the certificates.  The inner
loops run over integers: the LP and the elimination scale their rows to
integers, the split decomposition runs on the point scaled to integers,
the facet audit keeps slacks in quarter units, and dilates are counted by
integer filters.  The dimension of a family's hull (hull_dimension) is
the rank of one path difference per fundamental cycle of its move rule
(enumeration._path_differences), so no vertex is listed; affine_dimension
of a point list is the same rank over a rule of one step.  The
boolean-triangle hull has a complete inequality description (entry
bounds plus the diagonal partial-sum inequalities), which makes
membership a direct check and supports a constructive convex
decomposition.  An integer double-description routine computes the magog hull's facets from its
vertices once per order, and they filter its dilates at n = 3, 4; at n=3
they are, up to the unit sums, the six inequalities tsscpp3_vertex_audit
certifies.  For n >= 4 membership is decided on the magog row graph
(MagogVertices, an oracle that lists no vertex).  A point that breaks a
prefix, unit sum or special inequality (the core generators
validate_magog reads) has that inequality as its certificate, with no
LP.  Any other point is solved by the exact LP on its face: every magog matrix of a decomposition is
tight wherever the point is, so the tight column and row prefixes filter
the row graph's moves, and the face's paths are the LP's columns: the
DAG of that face is built for the call, and a point with no tight prefix
solves on the DAG of the whole row graph, built for the call too.  A
Farkas functional on the face is lifted to the whole hull by subtracting
a multiple of the tight prefixes' summed slack, which is 0 on the face
and at least 1 on every other vertex, and every certificate is checked
on every magog matrix before it is returned.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    _EXACT,
    BooleanTriangle,
    MagogTriangle,
    RationalMatrixPoint,
    RationalTrianglePoint,
    SignMatrix,
    ValidationFailure,
    ValidationReport,
    _check_types,
    _column_ones,
    _column_prefixes,
    _diagonal_differences,
    _diagonal_violations,
    _guard,
    _integer,
    _prefix_matrices,
    _read_rows,
    _special_violations,
    _square_sign_violations,
    _trusted,
    as_fraction,
    validate_magog,
)
from .enumeration import (
    _count_boolean_rows,
    _iter_square_sign_rows,
    _path_differences,
    _path_max,
    _raw_rows,
    _row_moves,
    _rule,
)
from .lp import (ColumnPaths, Feasible, Infeasible, _ColumnDag, _list_paths_of, _scaled, _verify_functional,
                 solve_feasibility)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class DecompositionError(RuntimeError):
    """An internal invariant of a decomposition, a facet or a dilate series
    failed; this signals a bug, not bad input."""


def _rows_of(obj):
    """The rows of a matrix or triangle object as it holds them, or of rows
    of a caller's values, each read by as_fraction (core._read_rows)."""
    if isinstance(obj, (SignMatrix, RationalMatrixPoint)):
        return obj.entries
    if isinstance(obj, (BooleanTriangle, MagogTriangle, RationalTrianglePoint)):
        return obj.rows
    return _read_rows(obj)


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
            raise ValidationFailure("a decomposition needs at least one term")
        try:
            weights = tuple(w for w, _ in self.terms)
        except (TypeError, ValueError):
            raise ValidationFailure("each term must be a (weight, vertex) pair") from None
        _check_types((weights,), _EXACT, "an int or a Fraction")
        if any(w <= 0 for w in weights):
            raise ValidationFailure("weights must be positive")
        if sum(weights) != 1:
            raise ValidationFailure("weights must sum to one exactly")
        if len({_shape(v) for _, v in self.terms}) != 1:
            raise ValidationFailure("vertices must all have the same shape")
        seen = [_rows_of(v) for _, v in self.terms]
        if len(set(seen)) != len(seen):
            raise ValidationFailure("vertices must be pairwise distinct")

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

    def __post_init__(self):
        _check_types((self.coefficients, (self.offset,)), _EXACT, "an int or a Fraction")

    def value_at(self, obj) -> Fraction:
        flat = _flatten(obj)
        if len(flat) != len(self.coefficients):
            raise ValidationFailure("the point has not one entry per coefficient")
        return sum((c * x for c, x in zip(self.coefficients, flat)), self.offset)


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
    out += _special_violations(col, rowp)
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
    n = a.n
    support = frozenset(
        (i, j) for i, cols in enumerate(_column_ones(a, magog=True)[:-1], start=1) for j in cols
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


def verify_vertex_certificates(n: int, polytope: str = "tsscpp") -> CertificateReport:
    """Check, for every vertex candidate, strict separation from all other
    candidates under the certificate its public constructor returns."""
    _guard(n)
    if polytope == "tsscpp":
        certs = [magog_separating_hyperplane(_trusted(SignMatrix, n, rows))
                 for rows in _raw_rows("magog_matrix", n)]
    elif polytope == "btp":
        certs = [boolean_separating_hyperplane(_trusted(BooleanTriangle, n, rows))
                 for rows in _raw_rows("boolean_triangle", n)]
    else:
        raise ValidationFailure("polytope must be 'tsscpp' or 'btp'")
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


def _scaled_rows(rows) -> tuple[int, tuple]:
    """(D, D * rows) for the lcm D of the entries' denominators: the rows of
    a rational or boolean triangle as ints over one common denominator."""
    scale, flat = _scaled([v for row in rows for v in row])
    cells = iter(flat)
    return scale, tuple(tuple(next(cells) for _ in row) for row in rows)


def _hull_violations(n, scale, rows, col):
    """Violated inequalities of the boolean-triangle hull at rows / scale,
    given scaled rows and their column prefixes: entries in [0, scale],
    then every diagonal difference at most scale."""
    for i, row in enumerate(rows, start=1):
        for k, v in enumerate(row):
            if v < 0:
                yield ("lower-bound", (i, n - i + k))
            if v > scale:
                yield ("upper-bound", (i, n - i + k))
    yield from _diagonal_violations(n, col, scale)


def btp_contains(p: RationalTrianglePoint | BooleanTriangle) -> ValidationReport:
    """Complete membership test for the boolean-triangle hull of a rational
    or boolean triangle: entries in [0,1] plus every (i,j)-diagonal
    inequality."""
    scale, rows = _scaled_rows(p.rows)
    return ValidationReport.of(_hull_violations(p.n, scale, rows, _column_prefixes(rows)))


def _scaled_measure(n, scale, rows, col) -> int:
    """Count of scaled entries and scaled diagonal differences that are not
    multiples of scale, i.e. of non-integral ones at rows / scale."""
    m = sum(1 for row in rows for v in row if v % scale)
    return m + sum(1 for *_, d in _diagonal_differences(n, col) if d % scale)


def _fractional_measure(n, rows) -> int:
    """Count of non-integral entries plus non-integral diagonal partial-sum
    differences; strictly decreases along both split branches."""
    scale, rows = _scaled_rows(rows)
    return _scaled_measure(n, scale, rows, _column_prefixes(rows))


@dataclass(frozen=True)
class SplitStep:
    """One step of the decomposition: the point equals
    (step_down / (step_up + step_down)) * child_up
    + (step_up / (step_up + step_down)) * child_down."""

    step_up: Fraction
    step_down: Fraction
    child_up: tuple
    child_down: tuple


def _scaled_split(n, scale, rows, col):
    """The split of :func:`btp_split` at rows / scale, all in ints scaled by
    scale: (step_up, step_down, child_up, child_down)."""
    plus, minus = [], []
    for idx, row in enumerate(rows):
        above = col[idx - 1] if idx else None
        here = col[idx]
        for k, v in enumerate(row):
            c = n - idx - 1 + k
            before = above is None or above[c - 1] % scale == 0
            after = here[c - 1] % scale == 0
            if before and not after:
                plus.append((idx, k, v))
            elif not before and after:
                minus.append((idx, k, v))

    if not plus and not minus:
        raise ValidationFailure("split requested on an integral point")

    up_cands = [scale - v for _, _, v in plus] + [v for _, _, v in minus]
    down_cands = [v for _, _, v in plus] + [scale - v for _, _, v in minus]
    for i, _, c, diff in _diagonal_differences(n, col):
        prefixes = col[i - 1]
        balanced, balanced_before = prefixes[c - 1] % scale == 0, prefixes[c - 2] % scale == 0
        if balanced_before and not balanced:
            up_cands.append(scale - diff)
        elif balanced and not balanced_before:
            down_cands.append(scale - diff)

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
        return tuple(map(tuple, out))

    return step_up, step_down, shifted(step_up), shifted(-step_down)


def btp_split(p: RationalTrianglePoint | BooleanTriangle) -> SplitStep:
    """Label the entries that open ((+)) and close ((-)) fractional runs of
    the column prefix sums, then shift the labelled entries by the largest
    steps that keep both children inside the polytope.

    step_up is bounded by 1-x over (+) entries, y over (-) entries, and
    1-p over the diagonal differences p whose positive column is
    unbalanced (fractional prefix) while the subtracted one is balanced;
    step_down swaps the roles.  Both steps are strictly positive and each
    child gains at least one more integral entry or difference.  The point
    is a rational or boolean triangle with a fractional entry; an integral
    one raises ValidationFailure.

    The split runs on the point scaled by the lcm D of its denominators
    (_scaled_split, the one split rule, which btp_decompose also runs);
    every step and child entry is a multiple of 1/D, and is divided back by
    D here.
    """
    scale, rows = _scaled_rows(p.rows)
    up, down, child_up, child_down = _scaled_split(p.n, scale, rows, _column_prefixes(rows))

    def unscaled(child):
        return tuple(tuple(Fraction(v, scale) for v in row) for row in child)

    return SplitStep(Fraction(up, scale), Fraction(down, scale), unscaled(child_up), unscaled(child_down))


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, as an int pair."""
    g = math.gcd(num, den)
    return num // g, den // g


def btp_decompose(p: RationalTrianglePoint | BooleanTriangle) -> ConvexDecomposition:
    """Write a point of the boolean-triangle hull, a rational or boolean
    triangle, as an exact convex combination of boolean triangles via
    repeated splitting.

    The search runs in ints: the point is scaled once by the lcm D of its
    denominators, and every split child keeps D, since each step is a min
    of D - x, x and D - d.  Children equal as rows are one node, which gets
    the sum of the weights flowing into it (kept as reduced int pairs).
    Nodes are split in decreasing fractional measure, one list of nodes per
    measure.  Each distinct child is checked once, when first met, for
    lying in the hull and for a measure strictly below its parent's, so
    every weight has arrived before its node is split, and each distinct
    node is split once (a node met again after its split would be met
    anew and fail that check).  The leaves, the integral nodes, are the
    boolean triangles of the answer, in sorted order, and the answer is
    checked to reproduce the point exactly."""
    n = p.n
    scale, point = _scaled_rows(p.rows)
    col = _column_prefixes(point)
    report = ValidationReport.of(_hull_violations(n, scale, point, col))
    if not report.valid:
        raise ValidationFailure(f"point is outside the hull: {report.first()}", report)
    measure = _scaled_measure(n, scale, point, col)
    # every node met: rows -> [weight numerator, weight denominator, column
    # prefixes]; a fractional node leaves it when it is split, so the
    # integral ones, the leaves, are what remains
    nodes = {point: [1, 1, col]}
    by_measure = [[] for _ in range(measure + 1)]
    by_measure[measure].append(point)
    for parent_measure in range(measure, 0, -1):
        for rows in by_measure[parent_measure]:
            num, den, col = nodes.pop(rows)
            up, down, child_up, child_down = _scaled_split(n, scale, rows, col)
            for child, share in ((child_up, down), (child_down, up)):
                node = nodes.get(child)
                if node is None:
                    child_col = _column_prefixes(child)
                    report = ValidationReport.of(_hull_violations(n, scale, child, child_col))
                    if not report.valid:
                        raise DecompositionError(f"split left the polytope: {report.first()}")
                    child_measure = _scaled_measure(n, scale, child, child_col)
                    if child_measure >= parent_measure:
                        raise DecompositionError("integrality measure failed to decrease")
                    node = nodes[child] = [0, 1, child_col]
                    by_measure[child_measure].append(child)
                w_num, w_den = num * share, den * (up + down)
                node[0], node[1] = _reduced(node[0] * w_den + w_num * node[1], node[1] * w_den)

    terms = tuple(
        (Fraction(*nodes[key][:2]), BooleanTriangle(n, tuple(tuple(v // scale for v in row) for row in key)))
        for key in sorted(nodes))
    decomposition = ConvexDecomposition(terms)
    # the weighted vertices sum to the point: in ints over the weights' lcm
    w_scale, w_ints = _scaled([w for w, _ in terms])
    acc = [[0] * len(row) for row in point]
    for c, (_, vertex) in zip(w_ints, terms):
        for acc_row, row in zip(acc, vertex.rows):
            for k, v in enumerate(row):
                if v:
                    acc_row[k] += c
    if any(a * scale != w_scale * v for acc_row, row in zip(acc, point) for a, v in zip(acc_row, row)):
        raise DecompositionError("decomposition does not reproduce the input point")
    return decomposition


# ---------------------------------------------------------------------------
# LP membership oracle


@functools.lru_cache(maxsize=4)
def _magog_rule(n: int):
    """(moves, bits) of the magog row graph of order n: moves(i) maps a
    state, the last triangle row, to its (matrix row, next row) moves
    (_row_moves), listed on the state's first visit and kept, with equal
    matrix rows and states held once; bits maps each state met to its
    mask, bit v-1 per entry v.  Kept for the last four orders asked for."""
    move = _row_moves(n, "magog", matrix=True)(1)
    listed, bits, items = {}, {(): 0}, {}

    def moves_of(prev):
        out = listed.get(prev)
        if out is None:
            out = []
            for item, row in move(prev):
                if row not in bits:
                    bits[row] = sum(1 << (v - 1) for v in row)
                out.append((items.setdefault(item, item), row))
            out = listed[prev] = tuple(out)
        return out

    return (lambda i: moves_of), bits


def _magog_matrix(n: int, dag: _ColumnDag, j: int) -> SignMatrix:
    """Column j of a column DAG built from a magog move rule, read down the
    DAG by its counts and rebuilt through the checking SignMatrix
    constructor and validate_magog; DecompositionError when it is not a
    magog matrix followed by the convexity item 1."""
    *rows, one = dag.column(j)
    try:
        matrix = SignMatrix(n, tuple(rows))
    except ValidationFailure as exc:
        raise DecompositionError(f"row-graph column {j} is not a sign matrix: {exc}") from exc
    if one != 1 or not validate_magog(matrix).valid:
        raise DecompositionError(f"row-graph column {j} is not a magog matrix")
    return matrix


def _magog_max(n: int, moves, y) -> int | None:
    """The largest y.(A, 1) over the matrices A of a magog move rule
    ``moves``, for integer y: one max-plus pass over the rule (_path_max),
    apart from any DAG; None when the rule has no path."""
    rows = [y[k * n:(k + 1) * n] for k in range(n)]
    top = _path_max(n, (), moves, lambda i, row: sum(map(operator.mul, rows[i - 1], row)))
    return None if top is None else top + y[-1]


def _magog_paths(n: int, moves, rebuilt: dict) -> ColumnPaths:
    """The columns (A, 1) of the magog move rule ``moves`` (a face of the
    row graph, _face_moves), as the paths of the DAG built from ``moves``,
    with its routes apart from the DAG: column j is _magog_matrix(n, dag,
    j), also put in ``rebuilt`` by j, and max_value is _magog_max over the
    same ``moves``, 0 when it has no path (as for a list of no column)."""
    dag = _ColumnDag.of_paths(n, (), moves, n * n + 1, tail=(1,))

    def column(j):
        matrix = rebuilt[j] = _magog_matrix(n, dag, j)
        return (*matrix.entries, 1)

    def max_value(y):
        top = _magog_max(n, moves, y)
        return 0 if top is None else top

    return ColumnPaths(dag, column, max_value)


class MagogVertices:
    """The n x n magog matrices, the vertices of the tsscpp hull, as an
    oracle for lp_membership and not as a list: no matrix is listed or
    indexed.  lp_membership solves on a DAG of the point's face of the
    magog row graph, built for the call (_magog_membership), and
    _max_value checks a certificate by a max-plus pass over the whole row
    graph."""

    def __init__(self, n: int):
        _guard(n)
        self.n = n

    def _max_value(self, y) -> int:
        """The largest y.(A, 1) over the magog matrices A, for integer y:
        _magog_max over the row graph, which has a path at every n."""
        return _magog_max(self.n, _magog_rule(self.n)[0], y)


# the bounds (lower, upper; None for none) that every magog matrix keeps on
# the quantity each violation label of core._square_sign_violations and
# core._special_violations names
_MAGOG_BOUNDS = {"column-prefix": (0, 1), "column-sum": (1, 1), "row-prefix": (0, None),
                 "row-sum": (1, 1), "special": (0, None)}


def _magog_slack(n: int, label: str, index: tuple, upper: bool) -> list[int]:
    """The slack of one side of a magog inequality, named as the core
    violation generators name it, as the integer vector (coefficients over
    the cells row-major, then the offset) of an affine function that is
    >= 0 on every magog matrix: the quantity less its lower bound, or with
    ``upper`` its upper bound less the quantity.  The quantities are a
    column prefix (i, j) or sum (j,), a row prefix (i, j) or sum (i,), and
    the (i, j)-special sum, row i+1 through column j plus column j+1
    through row i+1 less column j through row i."""
    form = [0] * (n * n + 1)

    def add(cells, c):
        for i, j in cells:
            form[i * n + j] += c

    if label == "column-prefix":
        i, j = index
        add(((k, j - 1) for k in range(i)), 1)
    elif label == "column-sum":
        (j,) = index
        add(((k, j - 1) for k in range(n)), 1)
    elif label == "row-prefix":
        i, j = index
        add(((i - 1, k) for k in range(j)), 1)
    elif label == "row-sum":
        (i,) = index
        add(((i - 1, k) for k in range(n)), 1)
    elif label == "special":
        i, j = index
        add(((i, k) for k in range(j)), 1)
        add(((k, j) for k in range(i + 1)), 1)
        add(((k, j - 1) for k in range(i)), -1)
    else:
        raise DecompositionError(f"no magog inequality is named {label!r}")
    low, high = _MAGOG_BOUNDS[label]
    if upper:
        return [-c for c in form[:-1]] + [high]
    form[-1] = -low
    return form


def _tight_prefixes(col, rowp):
    """(label, index, upper) as _magog_slack takes them, of each prefix
    inequality that a point with the prefix matrices col and rowp meets
    with equality: a column prefix of 0 (its lower side) or 1 (upper), and
    a row prefix of 0."""
    n = len(col)
    for i in range(n):
        for j in range(n):
            if col[i][j] in (0, 1):
                yield "column-prefix", (i + 1, j + 1), col[i][j] == 1
            if rowp[i][j] == 0:
                yield "row-prefix", (i + 1, j + 1), False


def _face_masks(n: int, tight) -> list[tuple[int, int, tuple]]:
    """Per step i of the magog row graph, the face filter of the tight
    prefixes ``tight`` (_tight_prefixes): (fixed, ones, cuts), where a
    tight column prefix (i, j) puts bit j-1 in fixed, and in ones when it
    is 1, and a row prefix (i, j) of 0 puts the mask of columns 1..j in
    cuts.  A triangle row r (bit v-1 per entry v) after prev lies on the
    face when r & fixed == ones and r and prev hold as many entries under
    every mask of cuts."""
    fixed, ones, cuts = [0] * n, [0] * n, [[] for _ in range(n)]
    for label, (i, j), upper in tight:
        if label == "column-prefix":
            fixed[i - 1] |= 1 << (j - 1)
            ones[i - 1] |= upper << (j - 1)
        else:
            cuts[i - 1].append((1 << j) - 1)
    return list(zip(fixed, ones, map(tuple, cuts)))


def _face_moves(n: int, masks):
    """moves(i) of the magog row graph (_magog_rule), less the moves off
    the face that ``masks`` (_face_masks) describe."""
    step, bits = _magog_rule(n)

    def moves(i):
        move = step(i)
        fixed, ones, cuts = masks[i - 1]
        if not fixed and not cuts:
            return move

        def face_move(prev):
            p = bits[prev]
            kept = [(p & low).bit_count() for low in cuts]
            out = []
            for item, row in move(prev):
                r = bits[row]
                if r & fixed == ones and all((r & low).bit_count() == c for low, c in zip(cuts, kept)):
                    out.append((item, row))
            return out

        return face_move

    return moves


def _magog_membership(rows, vertices: MagogVertices):
    """(the rebuilt matrices by column, Feasible or NotInHull) for the
    point whose rows are ``rows`` in the hull of ``vertices``.

    The point's prefix matrices are formed once (core._prefix_matrices).
    The first violation that core._square_sign_violations and
    core._special_violations yield on them is its own certificate: that
    side's slack, negated (_magog_slack).  Otherwise every magog matrix
    of a decomposition is tight wherever the point is, so the LP runs on
    the point's face: the row graph filtered by its tight column and row
    prefixes (_face_moves), whose DAG _magog_paths builds.  A face
    certificate y is lifted to y - mu * g, where g, the sum of the tight
    prefixes' slacks, is 0 on the face and the point and at least 1 on
    every other vertex, and mu = max(0, the largest y.(A, 1) over the
    whole row graph).  Each certificate is checked by _verify_functional
    on the whole row graph (vertices._max_value) before it is returned."""
    n = vertices.n
    rhs = [*(v for row in rows for v in row), 1]
    b = _scaled(rhs)[1]
    col, rowp = _prefix_matrices(rows)
    violation = next(itertools.chain(_square_sign_violations(col, rowp), _special_violations(col, rowp)), None)
    if violation is not None:
        label, index = violation
        slack = _magog_slack(n, label, index, False)
        if sum(map(operator.mul, slack, b)) >= 0:
            slack = _magog_slack(n, label, index, True)
        y = [-v for v in slack]
    else:
        tight = list(_tight_prefixes(col, rowp))
        moves = _face_moves(n, _face_masks(n, tight))
        vertex = {}
        columns = _magog_paths(n, moves, vertex)
        outcome = solve_feasibility(columns, rhs)
        if isinstance(outcome, Feasible):
            return vertex, outcome
        # solve_feasibility has checked y.(A, 1) <= 0 on the face
        g = list(map(sum, zip([0] * (n * n + 1), *(_magog_slack(n, *t) for t in tight))))
        y = _scaled(outcome.y)[1]
        mu = max(0, vertices._max_value(y))
        y = [a - mu * c for a, c in zip(y, g)]
    _verify_functional(y, vertices._max_value(y), b)
    return {}, NotInHull(tuple(map(Fraction, y[:-1])), Fraction(y[-1]))


def lp_membership(point, vertices) -> ConvexDecomposition | NotInHull:
    """Exact membership of a point in the convex hull of the vertices, via
    phase-one simplex.  The vertices are an explicit list, or
    MagogVertices(n) for the tsscpp hull, which is solved on the point's
    face of the row graph (_magog_membership).  The point is a rational
    point or an integer object of the vertices' shape.  Returns a
    reproducing decomposition or a verified separating functional.

    A list gives columns (A, 1), each vertex's rows as items and the
    convexity item after them, whose run-rule DAG is kept for the last
    four lists and reused for an equal list (lp._list_paths).  On
    MagogVertices(n), a point that breaks a prefix, sum or special
    inequality gets that inequality as its certificate with no LP; any
    other is solved on the DAG of its face, and a face certificate is
    lifted to one for the whole hull.  Every call checks its outcome in
    integers: a decomposition on its basic columns as the source gives
    them (each basic magog matrix rebuilt and checked once, and taken as
    the term), a certificate on every vertex (for the tsscpp hull, by a
    max-plus pass over the whole row graph)."""
    if isinstance(vertices, MagogVertices):
        rows = _rows_of(point)
        if _shape(rows) != (vertices.n,) * vertices.n:
            raise ValidationFailure("vertex shape does not match the point's shape")
        vertex, outcome = _magog_membership(rows, vertices)
    else:
        vertex = vertices = list(vertices)
        if not vertices:
            raise ValidationFailure("vertex list is empty")
        # keyed on the vertices' own rows, each value of a raw one read by
        # as_fraction before the memo is asked; the solver refuses a later
        # vertex whose row widths differ from the first's
        shape = _shape(vertices[0])
        columns = _list_paths_of(tuple(map(_rows_of, vertices)), sum(shape) + 1, (1,))
        if shape != _shape(point):
            raise ValidationFailure("vertex shape does not match the point's shape")
        outcome = solve_feasibility(columns, [*_flatten(point), 1])
        if isinstance(outcome, Infeasible):
            # solve_feasibility has checked y.(v, 1) <= 0 on every vertex v
            outcome = NotInHull(coefficients=outcome.y[:-1], offset=outcome.y[-1])
    if isinstance(outcome, Feasible):
        # solve_feasibility has checked A x = b in integers, the convexity
        # row included, so the weights reproduce the point
        try:
            return ConvexDecomposition(tuple((w, vertex[j]) for j, w in sorted(outcome.x.items())))
        except ValidationFailure as exc:
            raise DecompositionError(f"feasible basis is not a convex decomposition: {exc}") from exc
    if outcome.value_at(point) <= 0:
        raise DecompositionError("separating functional fails on the point")
    return outcome


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


def _quarter_terms(n: int, ineq) -> tuple:
    """The inequality's slack in quarter units, as (constant, terms): four
    times the slack at a triangle with entries q/4 is constant plus the sum
    of coefficient * q over the (cell, coefficient) terms."""
    kind = ineq[0]
    if kind == "lower":
        _, i, c = ineq
        return 0, [((i, c), 1)]
    if kind == "upper":
        _, i, c = ineq
        return 4, [((i, c), -1)]
    # 1 + (column c-1, rows j+1..i) - (column c, rows j..i) >= 0
    _, i, j = ineq
    c = n - j
    return 4, [((k, c), -1) for k in range(j, i + 1)] + [((k, c - 1), 1) for k in range(j + 1, i + 1)]


def _facet_bumps(n: int, ineq) -> dict:
    """The cells of the inequality's witness that are not 1/2, as
    {(i, c): value in quarters}: the tight cell and small bumps around it."""
    bumps = {}
    kind = ineq[0]
    if kind == "lower":
        _, i, c = ineq
        bumps[(i, c)] = 0
        if c + 1 <= n - 1:
            bumps[(i, c + 1)] = 1
    elif kind == "upper":
        _, i, c = ineq
        bumps[(i, c)] = 4
        if c - 1 >= n - i:
            bumps[(i, c - 1)] = 3
        elif c >= 2:
            # first entry of its row: column c-1 starts one row lower
            bumps[(i + 1, c - 1)] = 3
    else:
        _, i, j = ineq
        c = n - j
        bumps[(j, c)] = 3
        bumps[(i, c)] = 3
        if i + 1 <= n - 1:
            bumps[(i + 1, c)] = 1
    return bumps


def _facet_witness(n: int, ineq) -> tuple:
    """Interior-ish point tight exactly on the requested inequality: all
    entries 1/2 except the bumps of _facet_bumps."""
    rows = [[HALF] * i for i in range(1, n)]
    for (i, c), q in _facet_bumps(n, ineq).items():
        rows[i - 1][c - (n - i)] = Fraction(q, 4)
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
    of the hull tight on it and strictly slack on all the others.

    Slacks are integers in quarter units.  Those at the all-1/2 point are
    computed once; a witness differs from it only in its few bumped cells,
    so its slacks are the base ones plus the bumped cells' deltas on the
    inequalities that contain them.  A failure names the first offending
    inequality in btp_inequalities order."""
    _integer(n, "order")
    if n < 2:
        raise ValidationFailure("order must be at least 2")
    ineqs = btp_inequalities(n)
    expected = (n - 1) * (3 * n - 2) // 2
    if len(ineqs) != expected:
        raise DecompositionError("inequality count disagrees with (n-1)(3n-2)/2")
    base = []
    incidence: dict[tuple, list] = {}
    for m, ineq in enumerate(ineqs):
        const, terms = _quarter_terms(n, ineq)
        base.append(const + sum(2 * coef for _, coef in terms))
        for cell, coef in terms:
            incidence.setdefault(cell, []).append((m, coef))
    failing_at_base = [m for m, s in enumerate(base) if s <= 0]
    certified = 0
    failures = []
    for own, ineq in enumerate(ineqs):
        slack = {m: base[m] for m in failing_at_base}
        slack[own] = base[own]
        for cell, q in _facet_bumps(n, ineq).items():
            for m, coef in incidence[cell]:
                slack[m] = slack.get(m, base[m]) + coef * (q - 2)
        bad = [m for m, s in slack.items() if (s != 0 if m == own else s <= 0)]
        if not bad:
            certified += 1
            continue
        first = min(bad)
        failures.append((ineq, "not-tight") if first == own else (ineq, "tie-or-violation", ineqs[first]))
    return FacetAuditReport(n, expected, certified, tuple(failures))


# ---------------------------------------------------------------------------
# lattice points and Ehrhart interpolation


def check_dilate(polytope: str, t: int, n: int | None = None) -> tuple[int, int]:
    """The order and the dimension (the Ehrhart degree: C(n, 2) for btp,
    (n-1)^2 for tsscpp) of the polytope whose t-th dilate
    lattice_points_in_dilate counts.  Raises what that call would raise
    before any counting, and a check at the largest t clears 0..t."""
    _integer(t, "dilation factor")
    if t < 0:
        raise ValidationFailure("dilation factor must be nonnegative")
    if n is not None:
        _integer(n, "order")
    if polytope == "btp":
        if n is None:
            raise ValidationFailure("btp requires the order n")
        _guard(n)
        return n, n * (n - 1) // 2
    if polytope in ("tsscpp3", "tsscpp"):
        if polytope == "tsscpp3" and n not in (None, 3):
            raise ValidationFailure("tsscpp3 is fixed at order 3")
        order = 3 if n is None else n
        if order not in (3, 4):
            raise ValidationFailure("tsscpp dilate counting supports n = 3 and n = 4")
        return order, (order - 1) ** 2
    raise ValidationFailure("polytope must be 'btp', 'tsscpp3', or 'tsscpp'")


def lattice_points_in_dilate(polytope: str, t: int, n: int | None = None, interior: bool = False) -> int:
    """Number of integer points in the t-th dilate, or with ``interior``
    (btp only) in its interior.

    'btp' counts integer triangles with entries in [0, t] satisfying the
    scaled diagonal inequalities as paths of the boolean triangles'
    cell-state walk at t, without listing them; its interior points have
    entries in [1, t-1] and satisfy every diagonal inequality strictly
    (enumeration._boolean_cell), so there are none at t < 2 for n >= 2.
    'tsscpp3' and 'tsscpp' (n = 3, 4) keep the integer points of the scaled
    relaxation that satisfy the unit hull's facets (_magog_facets) scaled
    by t, with no LP.
    """
    order, _ = check_dilate(polytope, t, n)
    if not isinstance(interior, bool):
        raise ValidationFailure("interior must be True or False")
    if polytope == "btp":
        return _count_boolean_rows(order, t, interior)
    if interior:
        raise ValidationFailure("interior dilate counts support only btp")
    return _tsscpp_dilate_count(order, t)


def _dilate_counts(polytope: str, tmax: int, n: int | None = None) -> Iterator[int]:
    """L(0), ..., L(tmax), the lattice points of the dilates t = 0..tmax.

    btp(n) is a lattice polytope of dimension d = C(n, 2), so L is a
    polynomial of degree d, and Ehrhart-Macdonald reciprocity gives
    L(-t) = (-1)^d L°(t), L° the interior count.  So past t = m =
    d + 1 - floor(d/2) the closed counts t = 0..floor(d/2) and the interior
    counts t = 1..m give d + 2 consecutive values L(-m), ..., L(floor(d/2)),
    which fix L with one to spare: their (d+1)-th difference must be 0, or
    DecompositionError (a bug, not bad input).  The difference table then
    extends them to tmax in ints.  The largest count is the interior one
    at m, about the cost of the closed one at m - 2, so no count is larger
    than the direct loop's, which runs up to t = m and for tsscpp.

    Every count of a dilate, and the check of the spare value, is made on
    the call; the values the difference table extends are yielded as they
    are made, so a caller that writes them as they come holds none.
    """
    order, d = check_dilate(polytope, tmax, n)
    k = d // 2
    m = d + 1 - k
    if polytope != "btp" or tmax <= m:
        return iter([lattice_points_in_dilate(polytope, t, n=order) for t in range(tmax + 1)])
    sign = -1 if d % 2 else 1
    values = [sign * lattice_points_in_dilate(polytope, t, n=order, interior=True) for t in range(m, 0, -1)]
    values += [lattice_points_in_dilate(polytope, t, n=order) for t in range(k + 1)]
    # the last entry of each row of the difference table, orders 0..d+1
    ends = []
    row = values
    while row:
        ends.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    if ends.pop():
        raise DecompositionError(f"btp({order}) counts at t = -{m}..{k} are not of degree {d}")

    def extend():
        for _ in range(k + 1, tmax + 1):
            for j in range(d - 1, -1, -1):
                ends[j] += ends[j + 1]
            yield ends[0]
    return itertools.chain(values[m:], extend())


def _tsscpp_dilate_count(n: int, t: int) -> int:
    """Scaled-relaxation candidates, whose row and column sums are t, with
    row.x >= t*rhs for each facet (row, rhs) of the unit hull."""
    scaled = [(row, t * rhs) for row, rhs in _magog_facets(n)]
    count = 0
    for cand in _iter_square_sign_rows(n, t):
        flat = [v for row in cand for v in row]
        count += all(sum(map(operator.mul, row, flat)) >= b for row, b in scaled)
    return count


@functools.cache
def _magog_facets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The facets row.x >= rhs of the n x n magog matrices' hull, x row-major,
    once per order in a process.  Unit row and column sums fix the entries
    outside the top-left block y, a lattice-preserving chart where the hull
    is full-dimensional: they are the extreme rays (a, a0) of {a.y + a0 >= 0
    at every vertex}, each checked valid and tight on a (d-1)-dim set."""
    m = n - 1
    vertices = list(_raw_rows("magog_matrix", n))
    charts = [[v for row in rows[:m] for v in row[:m]] + [1] for rows in vertices]
    facets = []
    for ray, _ in _extreme_rays(charts):
        values = [sum(a * x for a, x in zip(ray, y)) for y in charts]
        if min(values) < 0 or affine_dimension([v for v, c in zip(vertices, values) if c == 0]) != m * m - 1:
            raise DecompositionError(f"{ray} is not a facet of the order-{n} hull")
        row = tuple(ray[m * i + j] if i < m and j < m else 0 for i in range(n) for j in range(n))
        facets.append((row, -ray[-1]))
    return tuple(facets)


class InterpolationError(ValidationFailure):
    """A caller's samples are insufficient or mutually inconsistent; the CLI
    reports it with exit 1."""


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending by degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationFailure("a polynomial needs at least one coefficient")
        _check_types((self.coefficients,), _EXACT, "an int or a Fraction")
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValidationFailure("leading coefficient must be nonzero")

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
                parts.append(coef)
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
    if degree is not None:
        _integer(degree, "degree")
        if degree < 0:
            raise ValidationFailure("degree must be nonnegative")
    try:
        pairs = [(t, c) for t, c in samples]
    except (TypeError, ValueError):
        raise ValidationFailure("samples must be (t, count) pairs") from None
    pts = sorted((as_fraction(t), as_fraction(c)) for t, c in pairs)
    if not pts:
        raise InterpolationError("need at least one sample")
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
    # every sample, in integers: with s the lcm of the coefficients'
    # denominators, a_k = s*c_k and t = p/q, poly(t) = c exactly when
    # sum_k a_k p^k q^(d-k) = s*q^d*c, read by Horner's rule homogeneously
    scale, scaled = _scaled(coeffs)
    for t, c in pts:
        p, q = t.numerator, t.denominator
        acc, qk = 0, 1
        for a in reversed(scaled):
            acc = acc * p + a * qk
            qk *= q
        if acc * q * c.denominator != scale * qk * c.numerator:
            raise InterpolationError(f"sample at t={t} is inconsistent with the fitted polynomial")
    return poly


# ---------------------------------------------------------------------------
# exact linear algebra


def _reduce(rows, cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination, in place, over the first
    ``cols`` columns of ``rows`` (later columns ride along).  Each row is
    first scaled to integers by the lcm of its denominators; a pivot p in
    column c clears c from every other row as p*row - f*pivot_row, divided
    by the gcd of its entries.  Returns the pivot columns: row r ends up
    with a nonzero integer at pivots[r] and zero in every other pivot
    column.  Stops as soon as every row holds a pivot.

    f*pivot_row is subtracted at the pivot row's nonzero entries alone.
    They are few for the path differences of a move rule, most of which
    end up zero: for the 753 magog differences at n=7, of rank 36, every
    pivot row has 4 nonzero entries of 49."""
    rows[:] = [_scaled(r)[1] for r in rows]
    m = len(rows)
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((r for r in range(rank, m) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[c]
        support = [(j, b) for j, b in enumerate(prow) if b]
        for r in range(m):
            row = rows[r]
            f = row[c]
            if r != rank and f:
                # each row is a list of this call's own, so it may change in place
                if p != 1:
                    row = [p * a for a in row]
                for j, b in support:
                    row[j] -= f * b
                g = math.gcd(*row)
                rows[r] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
    return pivots


def _solve_square(aug) -> list[Fraction] | None:
    """Solve an augmented system with exactly as many unknowns as
    aug[0][:-1]; None when the solution is not unique or inconsistent."""
    rows = [list(r) for r in aug]
    cols = len(rows[0]) - 1
    rank = len(_reduce(rows, cols))
    if any(row[cols] != 0 for row in rows[rank:]):
        return None  # inconsistent
    if rank < cols:
        return None  # underdetermined
    return [Fraction(row[cols], row[r]) for r, row in enumerate(rows[:cols])]


def _path_dimension(depth: int, start, moves) -> int:
    """The dimension of the affine hull of the paths of a move rule, each
    read as the concatenation of the tuples its steps emit: the rank of
    the distinct enumeration._path_differences, each read with zeros past
    its end, under _reduce.  ValidationFailure when the rule has no path."""
    diffs = list(dict.fromkeys(_path_differences(depth, start, moves)))
    width = max(map(len, diffs), default=0)
    return len(_reduce([d + (0,) * (width - len(d)) for d in diffs], width))


def hull_dimension(kind: str, n: int) -> int:
    """The dimension of the hull of the kind's objects at order n, equal to
    affine_dimension of the rows of every object but listing none: its
    work grows with the edges of the kind's move rule (enumeration._rule),
    not with its objects."""
    return _path_dimension(*_rule(kind, n))


def affine_dimension(points) -> int:
    """The dimension of the affine hull of the points, the rank of the
    differences p - p0 under exact elimination: the one-step case of
    _path_dimension, where every point is a move from one start to one end
    state.  A point is a matrix or triangle object, or rows of numbers,
    read row by row; every point must have the rows of the first, as many
    and each as long.  ValidationFailure for no point."""
    rows = [_rows_of(p) for p in points]
    if len({tuple(map(len, r)) for r in rows}) > 1:
        raise ValidationFailure("points have different shapes")
    flat = [tuple(itertools.chain.from_iterable(r)) for r in rows]
    return _path_dimension(1, 0, lambda i: lambda start: [(p, 1) for p in flat])


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _extreme_rays(rows) -> list[tuple[tuple[int, ...], int]] | None:
    """Extreme rays of {x : r.x >= 0 for every integer row r}, each a
    primitive integer vector with the bitset of its tight rows (bit k for
    rows[k]); None when the rows have rank below their length.  Double
    description (Motzkin et al. 1953; Fukuda and Prodon 1996): start from
    the rays of a basis B of the rows, the columns of B^-1; each row keeps
    the rays on its nonnegative side and adds the tight combination of each
    adjacent pair across it (no third ray is tight wherever both are)."""
    d = len(rows[0])
    basis = _reduce([list(col) for col in zip(*rows)], len(rows))
    if len(basis) < d:
        return None
    # the basis rows beside the identity reduce to D | C with C.B = D diagonal
    aug = [[*rows[k]] + [int(j == i) for j in range(d)] for i, k in enumerate(basis)]
    _reduce(aug, d)
    scale = math.lcm(*(abs(r[i]) for i, r in enumerate(aug)))
    rays = [(_primitive([r[d + i] * scale // r[j] for j, r in enumerate(aug)]),
             sum(1 << b for b in basis if b != k)) for i, k in enumerate(basis)]
    for k, row in enumerate(rows):
        signed = [(sum(a * x for a, x in zip(row, ray)), ray, tight) for ray, tight in rays]
        kept = [(ray, tight if v else tight | 1 << k) for v, ray, tight in signed if v >= 0]
        pos = [s for s in signed if s[0] > 0]
        neg = [s for s in signed if s[0] < 0]
        for vp, p, tp in pos:
            for vn, q, tq in neg:
                common = tp & tq
                if common.bit_count() < d - 2 or any(
                        t & common == common and t not in (tp, tq) for _, _, t in signed):
                    continue
                kept.append((_primitive([vp * b - vn * a for a, b in zip(p, q)]), common | 1 << k))
        rays = kept
    return rays


# ---------------------------------------------------------------------------
# the complete n=3 vertex audit


def _form(*cells) -> list[int]:
    """Row over the 3x3 cells, row-major: how often each (i, j) is named."""
    return [cells.count((i, j)) for i in range(1, 4) for j in range(1, 4)]


def _audit_inequalities_3():
    """The six inequalities of the complete order-3 hull description:
    five entry nonnegativities and a_12 + a_21 + a_22 >= 1."""
    ineqs = [(f"a{i}{j}>=0", _form((i, j)), 0) for i, j in ((1, 1), (1, 2), (1, 3), (3, 1), (3, 2))]
    ineqs.append(("a12+a21+a22>=1", _form((1, 2), (2, 1), (2, 2)), 1))
    return ineqs


def _vertices_3(slacks) -> tuple[list, bool]:
    """The vertices of {unit row and column sums, a.x + a0 >= 0 for each
    slack (a, a0) of ``slacks``} over the 3x3 cells, and whether it is
    bounded, from the extreme rays (x, x0) of a.x + a0*x0 >= 0 (both sides
    of each unit sum, _magog_slack) and x0 >= 0.  A ray with x0 > 0 is the
    vertex x/x0; one with x0 = 0, or a rank below 10, means unbounded."""
    rows = [_magog_slack(3, label, (k,), upper)
            for label in ("row-sum", "column-sum") for k in range(1, 4) for upper in (False, True)]
    rays = _extreme_rays([*rows, *slacks, [0] * 9 + [1]])
    vertices = [tuple(Fraction(v, ray[-1]) for v in ray[:-1]) for ray, _ in rays or () if ray[-1]]
    return vertices, rays is not None and len(vertices) == len(rays)


@dataclass(frozen=True)
class Tsscpp3AuditReport:
    vertices: tuple
    matches_magog3: bool
    facet_incidences: tuple  # (label, incident count, affine dimension)
    relaxation_vertex_count: int
    half_integer_relaxation_vertices_found: bool
    bounded: bool

    @property
    def passed(self) -> bool:
        # the system is the hull of its vertices only when it is bounded
        return self.matches_magog3 and self.bounded


HALF_INTEGER_RELAXATION_VERTICES = (
    ((Fraction(1, 2), ZERO, Fraction(1, 2)), (Fraction(1, 2), ZERO, Fraction(1, 2)), (ZERO, ONE, ZERO)),
    ((Fraction(1, 2), Fraction(1, 2), ZERO), (ZERO, ZERO, ONE), (Fraction(1, 2), Fraction(1, 2), ZERO)),
)


def tsscpp3_vertex_audit() -> Tsscpp3AuditReport:
    """Recover the order-3 hull's vertices from its six-inequality
    description by the double-description method, confirm they are exactly
    the seven magog matrices and that the description is bounded (so it is
    their hull), record facet incidence evidence, and verify the weaker
    relaxation admits the two half-integer vertices."""
    ineqs = _audit_inequalities_3()
    sols, bounded = _vertices_3([*row, -rhs] for _, row, rhs in ineqs)

    magog3 = {tuple(Fraction(v) for row in rows for v in row) for rows in _raw_rows("magog_matrix", 3)}
    matches = set(sols) == magog3

    incidences = []
    for label, row, rhs in ineqs:
        incident = [s for s in sols if sum(r * v for r, v in zip(row, s)) == rhs]
        mats = [tuple(tuple(s[3 * i + j] for j in range(3)) for i in range(3)) for s in incident]
        dim = affine_dimension(mats) if mats else -1
        incidences.append((label, len(incident), dim))

    # the scaled-down relaxation: column prefixes of rows 1..2 in [0, 1],
    # row prefixes of columns 1..2 >= 0 and the (1,1)-special inequality
    relax = [_magog_slack(3, "column-prefix", (i, j), upper)
             for j in range(1, 4) for i in (1, 2) for upper in (False, True)]
    relax += [_magog_slack(3, "row-prefix", (i, j), False) for i in range(1, 4) for j in (1, 2)]
    relax = set(_vertices_3([*relax, _magog_slack(3, "special", (1, 1), False)])[0])
    halves_found = all(
        tuple(v for row in m for v in row) in relax for m in HALF_INTEGER_RELAXATION_VERTICES
    )
    return Tsscpp3AuditReport(
        vertices=tuple(sorted(sols)),
        matches_magog3=matches,
        facet_incidences=tuple(incidences),
        relaxation_vertex_count=len(relax),
        half_integer_relaxation_vertices_found=halves_found,
        bounded=bounded,
    )
