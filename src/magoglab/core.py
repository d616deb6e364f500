"""Core objects: sign matrices, magog/boolean triangles, the rational
points the two hulls are asked about, validators, and statistics.

The central family is the set of square sign matrices: {0,1,-1}-matrices
whose rows and columns sum to one, whose column prefix sums stay in {0,1},
and whose row prefix sums stay nonnegative.  Magog matrices additionally
satisfy the (i,j)-special inequalities; alternating sign matrices instead
bound the row prefix sums by one.  Magog matrices correspond one-to-one to
magog triangles through column partial sums (record, per row, the columns
whose prefix sum is one), and that map is invertible.

Prefix sums are formed in one place: _column_prefixes (of a matrix, or of
a triangle whose rows are aligned right) and _prefix_matrices (row
prefixes too).  Each public check forms them once.  Every constraint
family is a generator that reads them and yields its violations in a fixed
order; a report keeps all of them, or only the first.

A caller's value becomes an exact number in one place, as_fraction: an
int or a Fraction as it is, or a 'p/q' string parsed; a float, a bool or
anything else is refused with ValidationFailure.  _read_rows reads a
caller's rows through it.  The three integer kinds take only entries
whose type is int, and their from_rows keep a value only when as_fraction
reads it as a whole number (_whole), so nothing is truncated.

All indices in violation reports are 1-based to match the usual (i,j)
naming of the inequalities.  All objects are immutable after construction
and every function here is pure.
"""

from __future__ import annotations

import itertools
import operator
import reprlib
from dataclasses import dataclass
from fractions import Fraction


class ValidationFailure(ValueError):
    """A caller's argument or object breaks a stated constraint; the CLI
    reports it with exit 1."""

    def __init__(self, message: str, report: "ValidationReport | None" = None):
        super().__init__(message)
        self.report = report


# the types of an exact number; compared exactly, so a bool is not an int
_INT = {int}
_EXACT = {int, Fraction}


def as_fraction(v) -> int | Fraction:
    """The exact number a caller's value stands for: an int or a Fraction
    as it is, or the Fraction a 'p/q' string names.  A float, a bool, None
    or anything else raises ValidationFailure, so no float enters the
    library."""
    if type(v) in _EXACT:
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationFailure(f"cannot read {reprlib.repr(v)} as an exact rational")


def _whole(v) -> int:
    """A caller's value as an int, read by as_fraction (where an int
    passes at once) and kept only when it is whole: 3/2 is refused, not
    truncated."""
    q = as_fraction(v)
    if q.denominator != 1:
        raise ValidationFailure(f"{reprlib.repr(v)} is not an integer")
    return q.numerator


def _read_rows(rows, read=as_fraction) -> tuple:
    """A caller's rows as tuples, each value read by ``read``;
    ValidationFailure when they are not a sequence of sequences."""
    try:
        return tuple(tuple(map(read, row)) for row in rows)
    except TypeError:
        raise ValidationFailure(f"{reprlib.repr(rows)} is not a sequence of sequences") from None


def _lengths(rows) -> tuple[int, ...]:
    """The length of each of a caller's rows; ValidationFailure when they
    are not a sequence of sequences."""
    try:
        return tuple(map(len, rows))
    except TypeError:
        raise ValidationFailure(f"{reprlib.repr(rows)} is not a sequence of sequences") from None


def _integer(v, what: str):
    """ValidationFailure unless the type of v is int; a bool, a float and a
    Fraction are not."""
    if type(v) is not int:
        raise ValidationFailure(f"{what} {reprlib.repr(v)} is not an integer")


def _guard(n: int):
    """ValidationFailure unless the order n is an int of at least 1."""
    _integer(n, "order")
    if n < 1:
        raise ValidationFailure("order must be positive")


def _check_types(rows, types: set, what: str):
    """ValidationFailure at the first entry of the rows whose type is not in
    ``types`` (_INT or _EXACT)."""
    for row in rows:
        if not types.issuperset(map(type, row)):
            v = next(v for v in row if type(v) not in types)
            raise ValidationFailure(f"entry {reprlib.repr(v)} is not {what}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator.

    ``violations`` holds (constraint-id, index-tuple) pairs; ``valid`` is
    true exactly when it is empty.  Indices are 1-based.
    """

    valid: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.valid != (len(self.violations) == 0):
            raise ValueError("valid flag inconsistent with violation list")

    @staticmethod
    def of(violations) -> "ValidationReport":
        vs = tuple(violations)
        return ValidationReport(len(vs) == 0, vs)

    def first(self) -> str:
        if self.valid:
            return "valid"
        cid, idx = self.violations[0]
        return f"{cid} at {idx}"


@dataclass(frozen=True)
class SignMatrix:
    """An n x n integer matrix with entries in {-1, 0, 1}.

    This is the raw carrier; whether it is a square sign matrix, a magog
    matrix, or an ASM is decided by the validators below.
    """

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _guard(self.n)
        if _lengths(self.entries) != (self.n,) * self.n:
            raise ValidationFailure(f"entries must form an {self.n}x{self.n} matrix")
        _check_types(self.entries, _INT, "an int")
        for row in self.entries:
            for v in row:
                if v not in (-1, 0, 1):
                    raise ValidationFailure(f"entry {v!r} outside {{-1,0,1}}")

    @staticmethod
    def from_rows(rows) -> "SignMatrix":
        t = _read_rows(rows, _whole)
        return SignMatrix(len(t), t)

    @staticmethod
    def identity(n: int) -> "SignMatrix":
        return SignMatrix(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def antidiagonal(n: int) -> "SignMatrix":
        return SignMatrix(n, tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class MagogTriangle:
    """Triangular array t[i][k] (row i has i entries, 1-based) with
    strictly increasing rows of values in 1..n, bottom row 1..n, and the
    diagonal step bound t[i+1][k+1] <= t[i][k] + 1.

    Construction enforces every invariant, so a held instance is always a
    genuine magog triangle.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        _guard(n)
        if _lengths(rows) != tuple(range(1, n + 1)):
            raise ValidationFailure("row i must hold exactly i entries")
        _check_types(rows, _INT, "an int")
        for i, row in enumerate(rows, start=1):
            for k, v in enumerate(row, start=1):
                if not 1 <= v <= n:
                    raise ValidationFailure(f"entry-range violated at ({i},{k}): {reprlib.repr(v)}")
                if k > 1 and row[k - 2] >= v:
                    raise ValidationFailure(f"row-increase violated at ({i},{k})")
        for i in range(1, n):
            above, below = rows[i - 1], rows[i]
            for k in range(1, i + 1):
                if below[k] > above[k - 1] + 1:
                    raise ValidationFailure(f"diagonal-step violated at ({i + 1},{k + 1})")
        if rows[n - 1] != tuple(range(1, n + 1)):
            raise ValidationFailure("bottom-row must be 1..n")

    @staticmethod
    def from_rows(rows) -> "MagogTriangle":
        t = _read_rows(rows, _whole)
        return MagogTriangle(len(t), t)


@dataclass(frozen=True)
class BooleanTriangle:
    """Triangular {0,1} array with n-1 rows; row i holds i entries sitting
    in columns n-i .. n-1.

    Only shape and the binary entry domain are enforced here; the
    (i,j)-inequalities are checked by :func:`validate_boolean_triangle` so
    that non-examples can be represented and reported on.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _guard(self.n)
        if _lengths(self.rows) != tuple(range(1, self.n)):
            raise ValidationFailure("boolean triangle of order n needs rows of lengths 1..n-1")
        _check_types(self.rows, _INT, "an int")
        for row in self.rows:
            for v in row:
                if v not in (0, 1):
                    raise ValidationFailure(f"entry {v!r} outside {{0,1}}")

    @staticmethod
    def from_rows(n: int, rows) -> "BooleanTriangle":
        return BooleanTriangle(n, _read_rows(rows, _whole))

    def ones(self) -> frozenset[tuple[int, int]]:
        """Positions (row, column) of the one entries, both 1-based."""
        out = []
        for i, row in enumerate(self.rows, start=1):
            for k, v in enumerate(row):
                if v:
                    out.append((i, self.n - i + k))
        return frozenset(out)


@dataclass(frozen=True)
class RationalMatrixPoint:
    """n x n array of exact rationals; candidate point for the magog hull."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _guard(self.n)
        if _lengths(self.entries) != (self.n,) * self.n:
            raise ValidationFailure("entries must be square of order n")
        _check_types(self.entries, _EXACT, "an int or a Fraction")

    @staticmethod
    def from_rows(rows) -> "RationalMatrixPoint":
        t = _read_rows(rows)
        return RationalMatrixPoint(len(t), t)


@dataclass(frozen=True)
class RationalTrianglePoint:
    """Boolean-triangle-shaped array of exact rationals (n-1 ragged rows)."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _guard(self.n)
        if _lengths(self.rows) != tuple(range(1, self.n)):
            raise ValidationFailure("rows must have lengths 1..n-1")
        _check_types(self.rows, _EXACT, "an int or a Fraction")

    @staticmethod
    def from_rows(n: int, rows) -> "RationalTrianglePoint":
        return RationalTrianglePoint(n, _read_rows(rows))


# the field that holds the rows, after n, of each kind _trusted builds
_ROWS_ATTR = {SignMatrix: "entries", MagogTriangle: "rows", BooleanTriangle: "rows"}


def _trusted(cls, n: int, rows):
    """A SignMatrix, MagogTriangle or BooleanTriangle holding ``n`` and
    ``rows`` (a tuple of int tuples), built without the checks of its
    constructor.  Only for rows a move rule of the enumeration engine
    emitted, or the magog triangle of a matrix that passed the magog check,
    which keep every invariant those checks test; the test suite rebuilds
    every streamed object at n <= 6, and every mapped triangle at n <= 5,
    through its constructor."""
    obj = object.__new__(cls)
    fields = obj.__dict__
    fields["n"] = n
    fields[_ROWS_ATTR[cls]] = rows
    return obj


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n; its matrix has a 1 at (i, pi_i)."""

    values: tuple[int, ...]

    def __post_init__(self):
        _check_types((self.values,), _INT, "an int")
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValidationFailure("values must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.values)

    def matrix(self) -> SignMatrix:
        n = self.n
        return SignMatrix(n, tuple(
            tuple(1 if self.values[i] == j + 1 else 0 for j in range(n)) for i in range(n)
        ))


@dataclass(frozen=True)
class Classification:
    square_sign: bool
    magog: bool
    asm: bool


@dataclass(frozen=True)
class InversionStats:
    inv: int
    posinv: int
    neg_count: int


# ---------------------------------------------------------------------------
# raw-row helpers, shared with the enumeration engine


def _column_prefixes(rows):
    """Column prefix sums, 0-based [i][j], of a matrix or of a
    triangle-shaped array whose rows are aligned right (boolean-triangle row
    i sits in columns n-i..n-1): [i-1][c-1] sums column c through row i, and
    a column reads 0 above its first entry."""
    width = len(rows[-1]) if rows else 0
    run = [0] * width
    out = []
    for row in rows:
        skip = width - len(row)
        run = [*run[:skip], *map(operator.add, run[skip:], row)]
        out.append(run)
    return out


def _prefix_matrices(rows):
    """(column-prefix, row-prefix) matrices of a square matrix, both 0-based [i][j]."""
    return _column_prefixes(rows), [list(itertools.accumulate(row)) for row in rows]


def _matrix_row(n: int, prev, row) -> tuple[int, ...]:
    """Matrix row i from triangle rows i-1 (``prev``, empty for i=1) and i:
    the indicator of ``row`` minus the indicator of ``prev`` over 1..n."""
    ind = [0] * n
    for v in row:
        ind[v - 1] = 1
    for v in prev:
        ind[v - 1] -= 1
    return tuple(ind)


def _triangle_to_matrix_rows(tri) -> tuple[tuple[int, ...], ...]:
    """Matrix rows from triangle rows, one _matrix_row per pair of
    consecutive rows."""
    n = len(tri)
    return tuple(_matrix_row(n, prev, row) for prev, row in zip(((),) + tuple(tri), tri))


def _square_sign_violations(col, rowp):
    """Per column its prefixes in {0,1} and its unit sum, then per row its
    prefixes >= 0 and its unit sum."""
    for j, prefixes in enumerate(zip(*col), start=1):
        for i, s in enumerate(prefixes, start=1):
            if not 0 <= s <= 1:
                yield ("column-prefix", (i, j))
        if prefixes[-1] != 1:
            yield ("column-sum", (j,))
    for i, prefixes in enumerate(rowp, start=1):
        for j, s in enumerate(prefixes, start=1):
            if s < 0:
                yield ("row-prefix", (i, j))
        if prefixes[-1] != 1:
            yield ("row-sum", (i,))


def _special_violations(col, rowp):
    """Violated (i,j)-special inequalities, 1 <= i,j <= n-2."""
    n = len(col)
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            # row i+1 prefix through column j, plus column j+1 prefix
            # through row i+1, minus column j prefix through row i
            if rowp[i][j - 1] + col[i][j] - col[i - 1][j - 1] < 0:
                yield ("special", (i, j))


def _diagonal_differences(n, col):
    """(i, j, c, d) for 1 <= j < i <= n-1 in that order, from the column
    prefixes P of a triangle-shaped array: c = n-j and d = P_c(i) - P_{c-1}(i),
    so that the (i,j)-diagonal inequality
    1 + sum_{k=j+1..i} b[k][n-j-1] >= sum_{k=j..i} b[k][n-j] reads d <= 1."""
    for i in range(2, n):
        prefixes = col[i - 1]
        for j in range(1, i):
            c = n - j
            yield i, j, c, prefixes[c - 1] - prefixes[c - 2]


def _diagonal_violations(n, col, scale=1):
    """Violated (i,j)-diagonal inequalities of a triangle-shaped array, given
    its column prefixes; with ``scale``, of the array divided by scale."""
    for i, j, _, d in _diagonal_differences(n, col):
        if d > scale:
            yield ("diagonal", (i, j))


def _asm_extra_violations(rowp):
    """Row prefix sums above one."""
    for i, prefixes in enumerate(rowp, start=1):
        for j, s in enumerate(prefixes, start=1):
            if s > 1:
                yield ("row-prefix-upper", (i, j))


def _report(violations, collect_all: bool) -> ValidationReport:
    """A report of all the violations, or of the first."""
    return ValidationReport.of(violations if collect_all else itertools.islice(violations, 1))


def _neg_count(rows) -> int:
    return sum(1 for row in rows for v in row if v == -1)


def _nonzeros(rows):
    return [(i, j, rows[i][j]) for i in range(len(rows)) for j in range(len(rows)) if rows[i][j]]


def _inv(rows) -> int:
    """Sum of a_ij * a_kl over pairs with k < i and j < l."""
    nz = _nonzeros(rows)
    total = 0
    for i1, j1, v1 in nz:
        for i2, j2, v2 in nz:
            if i2 < i1 and j2 > j1:
                total += v1 * v2
    return total


# ---------------------------------------------------------------------------
# validators


def validate_square_sign(m: SignMatrix, collect_all: bool = False) -> ValidationReport:
    """Check unit row/column sums, column prefixes in {0,1}, row prefixes >= 0."""
    return _report(_square_sign_violations(*_prefix_matrices(m.entries)), collect_all)


def validate_magog(m: SignMatrix, collect_all: bool = False) -> ValidationReport:
    """Square sign conditions plus every (i,j)-special inequality."""
    col, rowp = _prefix_matrices(m.entries)
    return _report(itertools.chain(_square_sign_violations(col, rowp), _special_violations(col, rowp)),
                   collect_all)


def validate_asm(m: SignMatrix, collect_all: bool = False) -> ValidationReport:
    """Square sign conditions plus row prefix sums bounded by one."""
    col, rowp = _prefix_matrices(m.entries)
    return _report(itertools.chain(_square_sign_violations(col, rowp), _asm_extra_violations(rowp)),
                   collect_all)


def classify(m: SignMatrix) -> Classification:
    """Which of the three families the matrix belongs to."""
    col, rowp = _prefix_matrices(m.entries)
    if any(_square_sign_violations(col, rowp)):
        return Classification(False, False, False)
    return Classification(True, not any(_special_violations(col, rowp)), not any(_asm_extra_violations(rowp)))


def validate_boolean_triangle(b: BooleanTriangle, collect_all: bool = False) -> ValidationReport:
    """Check every (i,j)-inequality
    1 + sum_{k=j+1..i} b[k][n-j-1] >= sum_{k=j..i} b[k][n-j]."""
    return _report(_diagonal_violations(b.n, _column_prefixes(b.rows)), collect_all)


# ---------------------------------------------------------------------------
# the bijection between magog matrices and magog triangles


def _checked_column_prefixes(m: SignMatrix, magog: bool = False):
    """Column prefixes of ``m``, after one check on the same prefixes that
    it is a square sign matrix (and a magog matrix, when asked); raises
    ValidationFailure otherwise."""
    col, rowp = _prefix_matrices(m.entries)
    violations = _square_sign_violations(col, rowp)
    if magog:
        violations = itertools.chain(violations, _special_violations(col, rowp))
    report = _report(violations, False)
    if not report.valid:
        kind = "magog" if magog else "square sign"
        raise ValidationFailure(f"not a {kind} matrix: {report.first()}", report)
    return col


def _column_ones(m: SignMatrix, magog: bool = False) -> tuple[tuple[int, ...], ...]:
    """Row i lists, increasing, the columns whose prefix through row i is
    one; checked prefixes are all 0 or 1."""
    col = _checked_column_prefixes(m, magog)
    return tuple(tuple(j for j, v in enumerate(row, start=1) if v) for row in col)


def column_partial_sums(m: SignMatrix) -> SignMatrix:
    """Matrix of column prefix sums; row i holds exactly i ones.

    Requires a valid square sign matrix (so all prefixes are 0 or 1).
    """
    return SignMatrix(m.n, tuple(map(tuple, _checked_column_prefixes(m))))


def column_one_positions(m: SignMatrix) -> tuple[tuple[int, ...], ...]:
    """Row i of the result lists, increasing, the columns whose prefix sum
    through row i equals one.  Defined for every square sign matrix; the
    result is a magog triangle exactly when the matrix is magog."""
    return _column_ones(m)


def matrix_to_magog_triangle(m: SignMatrix) -> MagogTriangle:
    """Map a magog matrix to its magog triangle (record per row of the
    column-partial-sum matrix the positions of the ones)."""
    return _trusted(MagogTriangle, m.n, _column_ones(m, magog=True))


def magog_triangle_to_matrix(t: MagogTriangle) -> SignMatrix:
    """Inverse map: rebuild the 0/1 partial-sum matrix from the recorded
    positions, then difference consecutive rows."""
    return SignMatrix(t.n, _triangle_to_matrix_rows(t.rows))


# ---------------------------------------------------------------------------
# statistics


def inversion_stats(m: SignMatrix) -> InversionStats:
    """Inversion number, positive inversion number, and count of -1 entries."""
    inv = _inv(m.entries)
    neg = _neg_count(m.entries)
    return InversionStats(inv=inv, posinv=inv - neg, neg_count=neg)


def inversion_profile(m: SignMatrix, k: int, l: int) -> int:
    """Inversions involving the (k,l) entry and entries strictly southwest
    of it: a_kl * sum_{i>k, j<l} a_ij.  1-based."""
    _integer(k, "row")
    _integer(l, "column")
    if not (1 <= k <= m.n and 1 <= l <= m.n):
        raise ValidationFailure("indices out of range")
    v = m.entries[k - 1][l - 1]
    if v == 0:
        return 0
    total = 0
    for i in range(k, m.n):
        for j in range(l - 1):
            total += m.entries[i][j]
    return v * total


def is_132_avoiding(p: Permutation) -> bool:
    """True when no i < j < k has pi_i < pi_k < pi_j."""
    vals = p.values
    n = len(vals)
    prefix_min = None
    for j in range(n):
        if prefix_min is not None:
            for k in range(j + 1, n):
                if prefix_min < vals[k] < vals[j]:
                    return False
        if prefix_min is None or vals[j] < prefix_min:
            prefix_min = vals[j]
    return True


def max_negative_ones_bound(n: int) -> int:
    """floor((n-1)/2) * ceil((n-1)/2), the sharp bound for all three families."""
    return ((n - 1) // 2) * (n // 2)


def max_negative_ones_matrix(n: int) -> SignMatrix:
    """Half-turn symmetric matrix attaining the maximum number of -1 entries.

    Row floor((n+1)/2) alternates 1,-1,...,1 across the full odd width
    (a trailing zero is appended when n is even); each row above gains one
    more zero at each end; the bottom half is the half-turn image.
    """
    _guard(n)
    half = (n + 1) // 2
    odd = n if n % 2 == 1 else n - 1
    top = []
    for i in range(1, half + 1):
        z = half - i
        middle = [1 if t % 2 == 0 else -1 for t in range(odd - 2 * z)]
        row = [0] * z + middle + [0] * z
        if n % 2 == 0:
            row.append(0)
        top.append(row)
    rows = []
    for i in range(1, n + 1):
        if i <= half:
            rows.append(tuple(top[i - 1]))
        else:
            rows.append(tuple(reversed(top[n - i])))
    return SignMatrix(n, tuple(rows))
