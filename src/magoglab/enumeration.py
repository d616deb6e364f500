"""Exhaustive, order-deterministic enumeration of the object families,
their statistics tables, and brute-force verification suites.

Generation goes through triangles wherever possible.  Magog triangles,
monotone triangles (the partial-sum position triangles of ASMs) and the
gapless triangles (both at once) are paths through one graph whose nodes
are triangle rows and whose edges are a window rule between consecutive
rows (_next_rows); magog matrices, ASMs and gapless matrices come from
their triangles by inverting the partial-sum map.  Boolean triangles are
filled row by row under the diagonal partial-sum inequalities, and square
sign matrices directly in row-major lexicographic order over entries.

Canonical orders: triangle-backed kinds stream in lexicographic order of
the triangle read row 1 to row n, left to right; square sign matrices
stream in row-major lexicographic order of entries with -1 < 0 < 1.
Counts of the triangle-backed kinds are path counts over the row graph
(the transfer-matrix method) and never enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .core import (
    BooleanTriangle,
    MagogTriangle,
    Permutation,
    SignMatrix,
    _inv,
    _neg_count,
    _one_position_in_col,
    _one_position_in_row,
    _triangle_to_matrix_rows,
    is_132_avoiding,
    max_negative_ones_bound,
    max_negative_ones_matrix,
    classify,
)

DEFAULT_CEILING = 8

KINDS = (
    "magog_triangle",
    "magog_matrix",
    "square_sign",
    "asm",
    "boolean_triangle",
    "gapless",
)


class CeilingExceeded(RuntimeError):
    """Requested order lies above the configured resource ceiling."""


def _guard(n: int, ceiling: int):
    if n < 1:
        raise ValueError("order must be positive")
    if n > ceiling:
        raise CeilingExceeded(f"n={n} exceeds ceiling {ceiling}; raise the ceiling to proceed")


# ---------------------------------------------------------------------------
# raw generators (tuples of row tuples)


def _next_rows(n: int, prev: tuple, rule: str) -> tuple:
    """Rows that may follow ``prev`` (one entry longer) in a triangle of
    order n, in lex order; ``prev == ()`` gives the possible first rows.

    Rows increase strictly and leave room for the entries still to come.
    The magog window adds v_k <= prev[k-2] + 1 (magog triangles, the
    column-partial-sum triangles of magog matrices); the monotone window
    adds prev[k-2] <= v_k <= prev[k-1] (monotone triangles, those of ASMs);
    gapless applies both, so it yields the magog matrices that are ASMs.
    """
    magog = rule in ("magog", "gapless")
    monotone = rule in ("monotone", "gapless")
    r = len(prev) + 1
    out = []
    row: list[int] = []

    def fill(k: int, lo: int):
        if k > r:
            out.append(tuple(row))
            return
        hi = n - (r - k)
        if k >= 2:
            if magog:
                hi = min(hi, prev[k - 2] + 1)
            if monotone:
                lo = max(lo, prev[k - 2])
        if monotone and k < r:
            hi = min(hi, prev[k - 1])
        for v in range(lo, hi + 1):
            row.append(v)
            fill(k + 1, v + 1)
            row.pop()

    fill(1, 1)
    return tuple(out)


def _iter_triangle_rows(n: int, rule: str) -> Iterator[tuple]:
    """Triangles whose consecutive rows pass ``rule``, in row-lex order: a
    depth-first walk over successor lists kept for this call only.  The
    bottom row is forced to 1..n."""
    successors: dict[tuple, tuple] = {}

    def walk(tri: tuple, prev: tuple):
        if len(tri) == n:
            yield tri
            return
        nxt = successors.get(prev)
        if nxt is None:
            nxt = successors[prev] = _next_rows(n, prev, rule)
        for row in nxt:
            yield from walk(tri + (row,), row)

    return walk((), ())


def _count_triangle_rows(n: int, rule: str) -> int:
    """Length of _iter_triangle_rows(n, rule) without walking it: the number
    of paths from the empty row to row n, memoised per row for this call
    (the transfer-matrix method)."""
    paths: dict[tuple, int] = {}

    def completions(prev: tuple) -> int:
        if len(prev) == n:
            return 1
        hit = paths.get(prev)
        if hit is None:
            hit = paths[prev] = sum(completions(row) for row in _next_rows(n, prev, rule))
        return hit

    return completions(())


def _iter_boolean_triangle_rows(n: int) -> Iterator[tuple]:
    """Boolean triangles in row-lex order.  Column prefix sums are carried
    along so each (i,j)-inequality is checked as soon as its last entry is
    placed; any valid prefix extends by zero rows, so no dead ends."""
    if n == 1:
        yield ()
        return
    rows: list[tuple[int, ...]] = []

    def rec(i: int, colsum: dict):
        if i > n - 1:
            yield tuple(rows)
            return
        row: list[int] = []

        def fill(k: int, cs: dict):
            if k == i:
                rows.append(tuple(row))
                yield from rec(i + 1, cs)
                rows.pop()
                return
            c = n - i + k
            for v in (0, 1):
                s = cs.get(c, 0) + v
                # (i, n-c)-inequality once both columns c, c-1 reach row i;
                # column c-1 was already filled through row i (it sits left)
                if c >= 2 and i > n - c and s > 1 + cs.get(c - 1, 0):
                    continue
                ncs = dict(cs)
                ncs[c] = s
                row.append(v)
                yield from fill(k + 1, ncs)
                row.pop()

        yield from fill(0, colsum)

    yield from rec(1, {})


def _iter_square_sign_rows(n: int, t: int = 1) -> Iterator[tuple]:
    """Square sign matrices in row-major lexicographic entry order.

    With t > 1 the walk yields the integer points of the t-th dilate of
    the square-sign relaxation: row and column sums t, column prefixes in
    [0, t], row prefixes >= 0.  The last row is forced (each column prefix
    must close at t), and the in-row bound (what the columns to the right
    can still add) closes every row at sum t with no dead ends.
    """
    colpref = [0] * n
    rows: list[tuple[int, ...]] = []

    def row_dfs(i: int, j: int, row: list[int], rsum: int, rest: int):
        # rest: sum of the column prefixes from column j rightwards
        if j == n:
            rows.append(tuple(row))
            yield from mat_dfs(i + 1)
            rows.pop()
            return
        q0 = colpref[j]
        right = rest - q0
        lo, hi = (t - q0, t - q0) if i == n else (-q0, t - q0)
        for a in range(lo, hi + 1):
            r = rsum + a
            # the columns right of j can still add -right .. (n-j-1)t - right
            if r < 0 or r - right > t or r + (n - j - 1) * t - right < t:
                continue
            colpref[j] = q0 + a
            row.append(a)
            yield from row_dfs(i, j + 1, row, r, right)
            row.pop()
        colpref[j] = q0

    def mat_dfs(i: int):
        if i > n:
            yield tuple(rows)
            return
        yield from row_dfs(i, 0, [], 0, (i - 1) * t)

    yield from mat_dfs(1)


# the triangle-backed kinds and the row rule of their triangles
_TRIANGLE_RULES = {"magog_triangle": "magog", "magog_matrix": "magog", "asm": "monotone", "gapless": "gapless"}


def _raw_rows(kind: str, n: int) -> Iterator[tuple]:
    if kind == "square_sign":
        return _iter_square_sign_rows(n)
    if kind == "boolean_triangle":
        return _iter_boolean_triangle_rows(n)
    tris = _iter_triangle_rows(n, _TRIANGLE_RULES[kind])
    return tris if kind == "magog_triangle" else map(_triangle_to_matrix_rows, tris)


def _iter_magog_matrix_rows(n: int) -> Iterator[tuple]:
    return _raw_rows("magog_matrix", n)


# ---------------------------------------------------------------------------
# public streaming interface


def enumerate_objects(kind: str, n: int, ceiling: int = DEFAULT_CEILING):
    """Stream every object of the family exactly once, in canonical order."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    _guard(n, ceiling)
    raw = _raw_rows(kind, n)
    if kind == "magog_triangle":
        return (MagogTriangle(n, t) for t in raw)
    if kind == "boolean_triangle":
        return (BooleanTriangle(n, t) for t in raw)
    return (SignMatrix(n, t) for t in raw)


def count(kind: str, n: int, ceiling: int = DEFAULT_CEILING) -> int:
    """Stream length of enumerate_objects(kind, n).

    The triangle-backed kinds are counted as row-graph paths without
    enumerating; the other two kinds are enumerated.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    _guard(n, ceiling)
    if kind in _TRIANGLE_RULES:
        return _count_triangle_rows(n, _TRIANGLE_RULES[kind])
    return sum(1 for _ in _raw_rows(kind, n))


def product_formula(n: int) -> int:
    """prod_{j=0}^{n-1} (3j+1)! / (n+j)!, evaluated exactly.

    Gives 1, 2, 7, 42, 429, 7436, 218348, ... and matches the magog, ASM,
    and boolean triangle counts.
    """
    if n < 1:
        raise ValueError("order must be positive")
    num = 1
    den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    assert num % den == 0
    return num // den


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# statistics tables


@dataclass(frozen=True)
class DistributionTable:
    """Counts of a statistic over one family, indexed from the smallest
    attained value (positional statistics start at 1, the numeric ones
    at 0 for every family and order covered here)."""

    kind: str
    statistic: str
    n: int
    start: int
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)

    def items(self):
        return [(self.start + i, c) for i, c in enumerate(self.counts)]

    def get(self, value: int) -> int:
        """Count at ``value``; 0 outside the attained range."""
        k = value - self.start
        return self.counts[k] if 0 <= k < len(self.counts) else 0


# each statistic from the rows and the object's inversion and -1 counts,
# which distribution_bundle works out once per object and only on demand
_STAT_VALUE = {
    "neg_ones": lambda rows, inv, neg: neg,
    "inv": lambda rows, inv, neg: inv,
    "posinv": lambda rows, inv, neg: inv - neg,
    "first_row_one": lambda rows, inv, neg: _one_position_in_row(rows, 0),
    "first_col_one": lambda rows, inv, neg: _one_position_in_col(rows, 0),
    "last_row_one": lambda rows, inv, neg: _one_position_in_row(rows, len(rows) - 1),
}
STATISTICS = tuple(_STAT_VALUE)
_TABLE_KINDS = ("magog_matrix", "asm", "square_sign")


def distribution(kind: str, statistic: str, n: int, ceiling: int = DEFAULT_CEILING) -> DistributionTable:
    """Distribution of a statistic over magog matrices, ASMs or square sign matrices."""
    return distribution_bundle(kind, n, (statistic,), ceiling)[statistic]


def distribution_bundle(kind: str, n: int, statistics=STATISTICS,
                        ceiling: int = DEFAULT_CEILING) -> dict[str, DistributionTable]:
    """All requested distributions from a single enumeration pass."""
    if kind not in _TABLE_KINDS:
        raise ValueError(f"distributions are defined for {', '.join(_TABLE_KINDS)}")
    for s in statistics:
        if s not in STATISTICS:
            raise ValueError(f"unknown statistic {s!r}; expected one of {STATISTICS}")
    _guard(n, ceiling)
    acc: dict[str, dict[int, int]] = {s: {} for s in statistics}
    tallies = [(tally, _STAT_VALUE[s]) for s, tally in acc.items()]
    need_inv = "inv" in acc or "posinv" in acc
    need_neg = "neg_ones" in acc or "posinv" in acc
    for rows in _raw_rows(kind, n):
        inv = _inv(rows) if need_inv else 0
        neg = _neg_count(rows) if need_neg else 0
        for tally, value in tallies:
            v = value(rows, inv, neg)
            tally[v] = tally.get(v, 0) + 1
    out = {}
    for s, counts in acc.items():
        lo, hi = min(counts), max(counts)
        out[s] = DistributionTable(kind, s, n, lo, tuple(counts.get(v, 0) for v in range(lo, hi + 1)))
    return out


def boundary_count(n: int, i: int, j: int, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of magog matrices of order n with a one in row i, column j."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("position out of range")
    _guard(n, ceiling)
    return sum(1 for rows in _iter_magog_matrix_rows(n) if rows[i - 1][j - 1] == 1)


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class SuiteCheck:
    claim: str
    n: int
    expected: object
    computed: object
    passed: bool

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] n={self.n} {self.claim}: expected {self.expected}, computed {self.computed}"


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[SuiteCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        status = "all checks passed" if self.passed else f"{len(self.failures())} check(s) FAILED"
        out.append(f"{self.name}: {status} ({len(self.checks)} checks)")
        return out


def theorem_suite(n_max: int, ceiling: int = DEFAULT_CEILING) -> SuiteReport:
    """Brute-force verification of the proved counting identities:
    the Catalan count of negative-one-free magog matrices and their
    identification with 132-avoiding permutation matrices, the five
    boundary-one identities, the five inversion identities, the shared
    maximum for the number of negative ones, and the square sign count."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    checks: list[SuiteCheck] = []

    def add(claim, n, expected, computed):
        checks.append(SuiteCheck(claim, n, expected, computed, expected == computed))

    for n in range(1, n_max + 1):
        magog = distribution_bundle("magog_matrix", n, ceiling=ceiling)
        neg, inv, posinv = magog["neg_ones"], magog["inv"], magog["posinv"]
        first_row, first_col, last_row = magog["first_row_one"], magog["first_col_one"], magog["last_row_one"]
        asm_neg = distribution_bundle("asm", n, ("neg_ones",), ceiling)["neg_ones"]
        sign_neg = distribution_bundle("square_sign", n, ("neg_ones",), ceiling)["neg_ones"]
        binom2 = n * (n - 1) // 2

        # negative-one-free magog matrices are the 132-avoiding permutations
        add("catalan count of negative-one-free magog matrices", n, catalan(n), neg.get(0))
        perms = map(Permutation, itertools.permutations(range(1, n + 1)))
        avoiders = [p.matrix() for p in perms if is_132_avoiding(p)]
        # -1-free sign matrices are permutation matrices: all avoiders magog + equal counts = equal sets
        add("negative-one-free magog = 132-avoiding permutation matrices", n, True,
            len(avoiders) == neg.get(0) and all(classify(m).magog for m in avoiders))

        # boundary ones; positions outside a small matrix count zero
        add("unique magog matrix with a one at (1,1)", n, 1, first_row.get(1))
        if n > 1:
            add(
                "ones at (n,1) and (n,2) both counted by the order n-1 total",
                n,
                (product_formula(n - 1), product_formula(n - 1)),
                (last_row.get(1), last_row.get(2)),
            )
            add("ones at (1,n) and (1,n-1) equinumerous", n, first_row.get(n), first_row.get(n - 1))
        add("ones at (2,1) counted by Catalan(n) - 1", n, catalan(n) - 1, first_col.get(2))
        add("ones at (1,2) counted by 2^(n-1) - 1", n, 2 ** (n - 1) - 1, first_row.get(2))

        # inversion identities
        add("unique magog matrix with zero inversions", n, (1, 1), (inv.get(0), posinv.get(0)))
        if n >= 2:
            add("unique magog matrix with one inversion", n, 1, inv.get(1))
            add("n-1 magog matrices one positive inversion below the maximum", n,
                n - 1, posinv.get(binom2 - 1))
            add("unique magog matrix attaining the inversion maximum", n, (1, 1),
                (inv.get(binom2), posinv.get(binom2)))
        if n >= 3:
            add("n+1 magog matrices with two inversions", n, n + 1, inv.get(2))

        # negative-one maxima across the three families: each table's last value
        bound = max_negative_ones_bound(n)
        for family, table in (("square sign matrices", sign_neg), ("ASMs", asm_neg), ("magog matrices", neg)):
            add(f"max negative ones over {family}", n, bound, table.start + len(table.counts) - 1)
        cls = classify(max_negative_ones_matrix(n))
        add("extremal construction is both magog and ASM", n, (True, True), (cls.magog, cls.asm))

        add("square sign count is 2^C(n,2)", n, 2 ** binom2, sign_neg.total())

    return SuiteReport("theorem suite", tuple(checks))


def conjecture_suite(n_max: int, ceiling: int = DEFAULT_CEILING) -> SuiteReport:
    """Compare the four conjectured inversion enumerations against brute
    force.  Agreement within the tested range is evidence, not proof, so a
    caller should report rather than hard-fail on a mismatch."""
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    checks: list[SuiteCheck] = []
    for n in range(3, n_max + 1):
        bundle = distribution_bundle("magog_matrix", n, ("inv", "posinv"), ceiling)
        inv, posinv = bundle["inv"], bundle["posinv"]
        binom2 = n * (n - 1) // 2
        f2 = 2 * math.comb(n - 1, 2) + 4 * math.comb(n - 1, 3) + 3 * math.comb(n - 1, 4)
        for claim, expected, computed in (
            ("posinv=1 count equals C(n,2)", binom2, posinv.get(1)),
            ("posinv=2 count equals 2C(n-1,2)+4C(n-1,3)+3C(n-1,4)", f2, posinv.get(2)),
            ("posinv=C(n,2)-2 count equals n(n-2)", n * (n - 2), posinv.get(binom2 - 2)),
            ("inv=C(n,2)-1 count equals 2^n-n-1", 2 ** n - n - 1, inv.get(binom2 - 1)),
        ):
            checks.append(SuiteCheck(claim, n, expected, computed, expected == computed))
    return SuiteReport("conjecture suite", tuple(checks))
