"""Exhaustive, order-deterministic enumeration of the object families,
their statistics tables, and brute-force verification suites.

Every family is a move rule over states: for each step, what a state may
emit and where that leads (_rule).  One depth-first walk (_walk) streams
every family, and forward passes (the transfer-matrix method) work on the
rule without listing a path: _path_max takes the largest weight of a
path (the tsscpp LP's pricing) and holds two layers, and
_path_differences yields one path difference per fundamental cycle of
the rule's live graph, which span the differences of all its paths (the
hull dimensions).  _walk and _path_differences read one forward listing
of each state's moves per step (_listing).

The row-graph families are counted, and their statistics tallied
(distribution_bundle, boundary_count), by one pass of their own that
holds two layers, _tallies.  Its states are rows as column bitmasks, and
each state builds its successor rows level by level from the bounds of
each entry (_row_bounds, the one statement of the windows), with the
scores an edge's statistics read summed as the row grows.  Every
statistic of the tables adds a value >= 0 per edge, a boundary one 0 on
each edge but the one that sets it, so a state holds each tally as a
generating polynomial packed into one int (Kronecker substitution),
shifted along the edges.

Magog, monotone (ASM) and gapless triangles step row by row through one
graph of triangle rows under a window rule (_row_moves, over the same
column bitmask states, built by _successors from the same bounds): an
edge emits its row, decoded once per move rule, and their matrices one
matrix row per edge (core._matrix_row).  Square sign matrices are counted
on the graph under the sign window, and stream row by row over states of
column prefix sums (_sign_moves), which keeps their entry order and walks
the dilates of their relaxation.  Boolean triangles step over column
differences under one rule per cell (_boolean_cell): its diagonal cap,
and floors where the cap can no longer bind, which keep every count
exact.  The walk takes a row of cells per step (_boolean_row_moves over
_boolean_moves, each cell's move built once per step).  The count, which
also counts the btp dilates, is its own pass over states packed into
ints: a cell moves a whole layer, each next state taking a range sum over
the states that differ from it only in the cell's two columns
(_boolean_transfer), not one update per edge.
The same rule with its interior window (entries in [1, t-1], every
diagonal cap strict) counts the lattice points inside a dilate, which
Ehrhart-Macdonald reciprocity turns into closed counts at -t.

The walk hands over its paths in blocks: each state with at most
_CHUNK_LINES completions (the paths on from it) keeps their list, built
once per walk from the blocks of the states it moves to, and every path
that reaches the state hands over that list with its prefix.  So a
stream's work grows with the states of its move rule and their blocks,
not with its paths.  enumerate_objects builds each path of the blocks
into its typed object.  The CLI's stream builds none: the walk maps each
emitted row to its JSON text as it lists a state's moves (_walk's
``emit``), so a row's text is read once per edge of the move rule, and
serialize._rows_documents joins each block's completions into text once
and writes each prefix's block with one join.

Canonical orders: triangles stream in lexicographic order read row 1 to
row n, left to right; square sign matrices in row-major lexicographic
order of entries with -1 < 0 < 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .core import (
    BooleanTriangle,
    MagogTriangle,
    Permutation,
    SignMatrix,
    ValidationFailure,
    _guard,
    _integer,
    _matrix_row,
    _prefix_matrices,
    _special_violations,
    _trusted,
    is_132_avoiding,
    max_negative_ones_bound,
    max_negative_ones_matrix,
    classify,
)

KINDS = (
    "magog_triangle",
    "magog_matrix",
    "square_sign",
    "asm",
    "boolean_triangle",
    "gapless",
)


class CeilingExceeded(ValidationFailure):
    """Raised by the CLI for work above its ceiling table; the library has none."""


# ---------------------------------------------------------------------------
# the walk and the forward passes


# the most completions a state's block of _walk holds, and so the fewest
# lines per write of the CLI's stream, all but its last write
_CHUNK_LINES = 128


def _listing(depth: int, start, moves, emit=None) -> list[dict]:
    """The forward listing of a move rule, as _walk describes it: entry k
    maps each state met after k steps to the list of its moves, in order,
    and each state after the last step to None.  Each state's moves are
    listed once per step, with ``emit`` applied to what each edge emits."""
    listed = [{start: None}]
    for i in range(1, depth + 1):
        move, here, nxt = moves(i), listed[-1], {}
        for q in here:
            out = here[q] = list(move(q)) if emit is None else [(emit(e), p) for e, p in move(q)]
            for _, p in out:
                nxt[p] = None
        listed.append(nxt)
    return listed


def _walk(depth: int, start, moves, emit=None) -> Iterator[tuple]:
    """Every path of ``depth`` steps from ``start``, depth first in the
    order the moves are listed, as pairs (prefix, block): the paths are
    prefix + c for each completion c in the block, and a path is the tuple
    of what its steps emit.

    ``moves(i)`` is step i's move function, state -> iterable of
    (emitted, next state).  A forward pass (_listing) lists each state's
    moves once per call, step by step.  With ``emit``, the steps emit
    emit(emitted) instead, worked out as a state's list is built, so once
    per edge of the rule and not once per path through it.

    A state's block is the list of its completions, the paths on from it,
    when there are at most _CHUNK_LINES of them.  A backward pass builds
    each state's block once per call from the blocks of the states it
    moves to, and every path that reaches the state hands over the same
    list.  Above the states with a block, the walk holds one iterator over
    the moves of each step on the current path.  So its work grows with
    the states and their blocks, not with the paths, and a call holds at
    most _CHUNK_LINES completions per state."""
    listed = _listing(depth, start, moves, emit)
    # kept[k]: each state after k steps -> its block, None above _CHUNK_LINES
    kept = [dict.fromkeys(listed[depth], [()])]
    for here in reversed(listed[:depth]):
        below, blocks = kept[0], {}
        for q, out in here.items():
            block = []
            for e, p in out:
                tail = below[p]
                if tail is None or len(block) + len(tail) > _CHUNK_LINES:
                    block = None
                    break
                for c in tail:
                    block.append((e,) + c)
            blocks[q] = block
        kept.insert(0, blocks)
    top = kept[0][start]
    if top is not None:
        if top:
            yield (), top
        return
    # stack[k-1]: the moves of step k not yet taken, and what steps < k emitted
    stack = [(iter(listed[0][start]), ())]
    while stack:
        it, out = stack[-1]
        k = len(stack)
        for emitted, q in it:
            path = out + (emitted,)
            tail = kept[k][q]
            if tail is None:
                stack.append((iter(listed[k][q]), path))
                break
            if tail:
                yield path, tail
        else:
            stack.pop()


def _paths(blocks) -> Iterator[tuple]:
    """The paths of _walk's (prefix, block) pairs, one by one."""
    return itertools.chain.from_iterable(map(prefix.__add__, block) for prefix, block in blocks)


def _path_max(depth: int, start, moves, weight) -> int | None:
    """The largest sum of weight(i, emitted) over the steps i of a path of
    _walk(depth, start, moves), None when there is no path: a forward pass
    in the max-plus semiring that holds two layers, one value per state."""
    layer = {start: 0}
    for i in range(1, depth + 1):
        move = moves(i)
        nxt: dict = {}
        for state, value in layer.items():
            for emitted, q in move(state):
                v = value + weight(i, emitted)
                if q not in nxt or v > nxt[q]:
                    nxt[q] = v
        layer = nxt
    return max(layer.values(), default=None)


def _path_differences(depth: int, start, moves) -> Iterator[tuple]:
    """Differences of paths of _walk(depth, start, moves) that span every
    p - p0 over its paths p, where a path is read as the concatenation of
    the tuples its steps emit, all of one length at a step.  A difference
    is 0 past its end.

    A path's vector is linear in its edges, and the differences of two
    paths span the cycle space of the rule's live graph: the edges between
    a state after k steps and one after k+1 that the last step can still
    be reached from, per step, since a rule may meet a state at several
    steps.  The first live path into each live state, in listing order,
    is a spanning tree of that graph, so its fundamental cycles span the
    space.  With rep(q) what that path emits, every other live edge u -> v
    emitting e gives rep(u) + e - rep(v), and every end state after the
    first gives rep(end) - rep(first end).  So the work grows with the
    edges of the rule (_listing), not with its paths.  ValidationFailure
    when the rule has no path."""
    listed = _listing(depth, start, moves)
    # live[k]: the states after k steps from which step depth is reached
    live = [set(listed[depth])]
    for here in reversed(listed[:depth]):
        below = live[0]
        live.insert(0, {q for q, out in here.items() if any(p in below for _, p in out)})
    if start not in live[0]:
        raise ValidationFailure("need at least one point: the move rule has no path")
    rep = {start: ()}
    for k in range(depth):
        below, nxt = live[k + 1], {}
        for q, base in rep.items():
            for e, p in listed[k][q]:
                if p in nxt:
                    yield tuple(map(operator.sub, base + e, nxt[p]))
                elif p in below:
                    nxt[p] = base + e
        rep = nxt
    first, *ends = rep.values()
    for end in ends:
        yield tuple(map(operator.sub, end, first))


# ---------------------------------------------------------------------------
# move rules


def _row_bounds(n: int, prev: tuple, rule: str) -> list:
    """[(lo, hi)] for the entries k = 1..r of the rows that may follow
    ``prev`` (one entry longer) in a triangle of order n: entry k lies in
    [lo, hi] and above entry k-1.  ``prev == ()`` bounds the first rows.

    Row i is the set of columns whose prefix sum is 1 after matrix row i,
    and matrix row i is its indicator minus that of row i-1.  Rows
    increase strictly from 1 and leave room for the entries still to come,
    v_k <= n - (r-k).  The four windows:
    - sign: v_k <= prev[k-1] for k < r, the matrix row's prefixes are >= 0
      (square sign matrices);
    - magog: v_k <= prev[k-2] + 1 for k >= 2, which implies the sign window
      (magog triangles, the column-partial-sum triangles of magog
      matrices);
    - monotone: the sign window and prev[k-2] <= v_k for k >= 2 (monotone
      triangles, those of ASMs);
    - gapless: magog and monotone, the magog matrices that are ASMs.
    _successors builds the rows from these bounds level by level, one
    entry at a time, for every reader of the row graph (_row_moves,
    _tallies)."""
    magog = rule in ("magog", "gapless")
    monotone = rule in ("monotone", "gapless")
    upper = monotone or rule == "sign"
    r = len(prev) + 1
    bounds = []
    for k in range(1, r + 1):
        lo, hi = 1, n - (r - k)
        if k >= 2:
            if magog:
                hi = min(hi, prev[k - 2] + 1)
            if monotone:
                lo = prev[k - 2]
        if upper and k < r:
            hi = min(hi, prev[k - 1])
        bounds.append((lo, hi))
    return bounds


def _successors(bounds: list, score: list) -> list:
    """(mask, last entry, score sum) of each row whose entries lie within
    ``bounds`` (_row_bounds), in lex order: its column bitmask, sum(1 << v
    for v in row), and the sum of score[v] over its entries v.  Built level
    by level, entry k of every row at level k; the only builder of rows."""
    rows = [(0, 0, 0)]
    for lo, hi in bounds:
        rows = [(row | 1 << v, v, total + score[v])
                for row, last, total in rows for v in range(last + 1 if last >= lo else lo, hi + 1)]
    return rows


def _columns(mask: int) -> tuple:
    """The row of a column bitmask, increasing."""
    return tuple([v for v in range(1, mask.bit_length()) if mask >> v & 1])


def _row_moves(n: int, rule: str, matrix: bool = False):
    """moves(i) of the row graph (n, rule): the state is the last row as its
    column bitmask (0 before the first row), its next states come from
    _successors in lex order, and each edge emits the next row, or with
    ``matrix`` its matrix row.  Each mask is decoded (_columns) once per
    call, into a dict of at most 2^n rows."""
    unscored = [0] * (n + 1)
    rows: dict = {}
    get = rows.get

    def move(prev: int) -> list:
        before = get(prev) or _columns(prev)
        out = []
        for mask, _, _ in _successors(_row_bounds(n, before, rule), unscored):
            row = get(mask)
            if row is None:
                row = rows[mask] = _columns(mask)
            out.append((_matrix_row(n, before, row) if matrix else row, mask))
        return out
    return lambda i: move


def _boolean_cell(n: int, t: int, i: int, c: int, interior: bool = False) -> tuple:
    """The rule of cell (i, c) in a boolean triangle of order n dilated by
    t, over the column differences d[c] = P_c - P_{c-1} of the column
    prefix sums (d[0] = 0): (lo, hi, floor_c, floor_next).

    Cells are placed in row-major order; row i covers columns n-i..n-1.
    Entries v lie in [lo, hi] = [0, t], the window's two bounds, or with
    ``interior`` in [1, t-1], where every inequality of the dilate is
    strict and so the points are those of its interior.  Once column c-1,
    which starts a row later and sits left of c, has reached row i, the
    diagonal inequality P_c(i) <= t + P_{c-1}(i) (strict: P_c(i) <= t - 1
    + P_{c-1}(i)) lowers the top to hi - d[c]: the new difference d[c] + v
    is at most hi.  Before that, at column c's first cell, d[c] is still 0,
    so the cap reads the same there.  The top never falls below 0, so in
    the closed window every prefix extends by zeros and no path dead-ends;
    in the interior one a top below 1 ends the path, and lo > hi (t < 2)
    leaves none.

    Only column c's own cap reads d[c], each later entry of column c raises
    it by at most hi (those of column c-1 lower it), and the cap is hi
    whenever d[c] <= 0.  So a column with R checks still to come reads
    "cap hi" at all of them from any d[c] <= -hi*(R-1), and the next state
    floors d[c] there: such states have the same completions and merge.
    Column c has its checks in rows i+1..n-1 after cell (i, c), so
    d[c] + v is floored at floor_c, and column c+1 in rows i..n-1, so
    d[c+1] - v is floored at floor_next.  In the last row column c is
    done: floor_c is None, and the next state sets d[c] to 0.  Every
    difference so stays in [-t*(n-2), t].
    """
    lo, hi = (1, t - 1) if interior else (0, t)
    floor_c = None if i == n - 1 else -hi * (n - 2 - i)
    return lo, hi, floor_c, -hi * (n - 1 - i)


def _boolean_moves(n: int, t: int, i: int, c: int, interior: bool = False):
    """The move of cell (i, c) in a boolean triangle of order n dilated by
    t (its interior with ``interior``), by _boolean_cell's rule: state d ->
    (v, next state) for each entry v, increasing, one edge each.  The row
    walk reads it at t=1; the count moves whole layers by the same rule
    (_boolean_transfer)."""
    lo, hi, floor_c, floor_next = _boolean_cell(n, t, i, c, interior)

    def move(d: tuple) -> list:
        s = d[c]
        top = min(hi, hi - s)
        head = d[:c]
        if c + 1 == n:
            return [(v, head + (0 if floor_c is None else max(s + v, floor_c),)) for v in range(lo, top + 1)]
        s1, tail = d[c + 1], d[c + 2:]
        return [(v, head + (0 if floor_c is None else max(s + v, floor_c), max(s1 - v, floor_next)) + tail)
                for v in range(lo, top + 1)]
    return move


def _boolean_row_moves(n: int, i: int):
    """moves(i) of boolean triangles of order n: state -> (row, next state)
    for each row i, in lex order, the cells of the row expanded together.
    Each cell's move is built once per call, not once per state."""
    cells = [_boolean_moves(n, 1, i, c) for c in range(n - i, n)]

    def move(pref: tuple) -> list:
        out = [((), pref)]
        for cell in cells:
            out = [(row + (v,), q) for row, p in out for v, q in cell(p)]
        return out
    return move


def _count_boolean_rows(n: int, t: int = 1, interior: bool = False) -> int:
    """Integer points of the t-th dilate of the boolean triangle polytope
    (at t=1 the number of boolean triangles of order n), or with
    ``interior`` of its interior: the paths of _boolean_cell's rule,
    counted by a forward pass that moves a whole layer per cell
    (_boolean_transfer).  The interior holds none at t < 2 for n >= 2; at
    n=1 there is no cell and either count is 1.

    A state is packed into one int, column c in digit c-1 of radix
    t*(n-1)+1, offset by t*(n-2): every difference lies in [-t*(n-2), t]
    (_boolean_cell), and column 0's is always 0."""
    off, radix = t * (n - 2), t * (n - 1) + 1
    weights = [0] + [radix ** k for k in range(n - 1)]
    layer = {off * sum(weights): 1}
    for i in range(1, n):
        for c in range(n - i, n):
            cell = _boolean_cell(n, t, i, c, interior)
            layer = _boolean_transfer(layer, cell, weights[c], radix, off, c + 1 < n)
    return sum(layer.values())


def _boolean_transfer(layer: dict, cell: tuple, w: int, radix: int, off: int, pair: bool) -> dict:
    """The next layer of _count_boolean_rows after one cell, packed state
    -> paths ending there; ``w`` is the weight of the cell's column c, and
    ``pair`` says column c+1 exists.

    The cell adds v to d[c] and takes v from d[c+1], so it moves a state
    along its line: the states that differ only in d[c] and d[c+1] and
    agree on d[c] + d[c+1] (at column n-1, only in d[c]).  Before the
    floors, the target with a = d[c] + v takes every source of its line
    with d[c] in [a-hi, a-lo], and the diagonal cap holds exactly when
    a <= hi; so a running sum over the line gives each target its paths in
    O(1), whatever the number of edges.  The floors of the cell apply to
    the target afterwards."""
    lo, hi, floor_c, floor_next = cell
    span = radix * radix if pair else radix
    lines: dict = {}
    for key, ways in layer.items():
        digits = key // w % span
        if pair:
            x = digits % radix
            # the line: the other columns and the offset sum of c and c+1
            lines.setdefault(key + (x - digits + digits // radix) * w, {})[x] = ways
        else:
            lines.setdefault(key - digits * w, {})[digits] = ways
    low_c = None if floor_c is None else floor_c + off
    low_next = floor_next + off
    w1 = w * radix
    nxt: dict = {}
    get = nxt.get
    for line, src in lines.items():
        if pair:
            total = line // w % span
            rest = line - total * w
        else:
            rest = line
        run = 0
        # a and the sources are digits, offset by off: the cap is a <= hi + off
        for a in range(min(src) + lo, min(max(src), off) + hi + 1):
            run += src.get(a - lo, 0) - src.get(a - hi - 1, 0)
            if not run:
                continue
            key = rest + (off if low_c is None else a if a > low_c else low_c) * w
            if pair:
                b = total - a
                key += (b if b > low_next else low_next) * w1
            nxt[key] = get(key, 0) + run
    return nxt


def _sign_moves(n: int, t: int, i: int, pref: tuple) -> list:
    """(row, next state) for each row i of a square sign matrix of order n
    dilated by t, in lex order, after rows whose column prefix sums are
    ``pref``.

    Entries keep the column prefixes in [0, t] and the row prefixes >= 0,
    and the last row is forced (each column prefix must close at t).  The
    in-row bound, on what the columns right of j can still add (each from
    minus its prefix to t minus it), closes every row at sum t.
    """
    rows = [((), 0)]
    for j, q in enumerate(pref):
        right = sum(pref[j + 1:])
        room = (n - j - 1) * t - right
        lo = t - q if i == n else -q
        rows = [(row + (a,), r + a) for row, r in rows for a in range(lo, t - q + 1)
                if 0 <= r + a <= t + right and r + a + room >= t]
    return [(row, tuple(p + a for p, a in zip(pref, row))) for row, _ in rows]


def _sign_rule(n: int, t: int = 1) -> tuple:
    """(depth, start, moves) of square sign matrices, one row per step, in
    row-major lexicographic entry order; with t > 1 of the integer points
    of the t-th dilate of the square-sign relaxation: row and column sums
    t, column prefixes in [0, t], row prefixes >= 0."""
    return n, (0,) * n, lambda i: functools.partial(_sign_moves, n, t, i)


def _iter_square_sign_rows(n: int, t: int = 1) -> Iterator[tuple]:
    """The rows of the paths of _sign_rule(n, t), one by one."""
    return _paths(_walk(*_sign_rule(n, t)))


# the kinds that are paths through the row graph and the rule of their
# edges; square sign matrices are counted on it but stream by column prefix
# state (_sign_rule), whose order is that of their entries
_ROW_RULES = {"magog_triangle": "magog", "magog_matrix": "magog", "asm": "monotone", "gapless": "gapless",
              "square_sign": "sign"}


# the class of each kind's objects that is not a SignMatrix
_STREAM_CLASS = {"magog_triangle": MagogTriangle, "boolean_triangle": BooleanTriangle}


def _check_kind(kind: str, n: int) -> None:
    """The checks of enumerate_objects and count: a kind of KINDS, n >= 1."""
    if kind not in KINDS:
        raise ValidationFailure(f"unknown kind {kind!r}; expected one of {KINDS}")
    _guard(n)


def _rule(kind: str, n: int) -> tuple:
    """(depth, start, moves) of the kind's move rule at order n, whose paths
    are the rows of its objects in canonical order, checked by _check_kind.
    Triangles step through the row graph (_row_moves) from the empty row,
    mask 0 (the bottom row is forced to 1..n), their matrices emitting
    matrix rows; boolean triangles take rows 1..n-1, one per step."""
    _check_kind(kind, n)
    if kind == "square_sign":
        return _sign_rule(n)
    if kind == "boolean_triangle":
        return n - 1, (0,) * n, functools.partial(_boolean_row_moves, n)
    return n, 0, _row_moves(n, _ROW_RULES[kind], kind != "magog_triangle")


def _stream(kind: str, n: int, emit=None):
    """The class of the kind's objects and _walk's blocks of their rows, in
    canonical order; ``emit`` as in _walk.  Checked by _check_kind on the
    call, before a row streams."""
    return _STREAM_CLASS.get(kind, SignMatrix), _walk(*_rule(kind, n), emit)


def _raw_rows(kind: str, n: int, emit=None) -> Iterator[tuple]:
    """The rows of each object of the kind at order n, in canonical order,
    path by path off _stream's blocks; ``emit`` as in _walk."""
    return _paths(_stream(kind, n, emit)[1])


# ---------------------------------------------------------------------------
# public streaming interface


def enumerate_objects(kind: str, n: int):
    """Stream every object of the family exactly once, in canonical order."""
    cls, blocks = _stream(kind, n)
    return map(functools.partial(_trusted, cls, n), _paths(blocks))


def count(kind: str, n: int) -> int:
    """Stream length of enumerate_objects(kind, n), without enumerating:
    boolean triangles are counted as cell-state paths and every other kind
    (square sign matrices through the sign window) as row-graph paths, the
    path count _tallies carries with no statistic."""
    _check_kind(kind, n)
    if kind == "boolean_triangle":
        return _count_boolean_rows(n)
    return _tallies(n, _ROW_RULES[kind])[0]


def product_formula(n: int) -> int:
    """prod_{j=0}^{n-1} (3j+1)! / (n+j)!, evaluated exactly.

    Gives 1, 2, 7, 42, 429, 7436, 218348, ... and matches the magog, ASM,
    and boolean triangle counts.
    """
    _guard(n)
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


# the additive statistics, each a sum along a row-graph path of one value
# per edge (_tallies)
_ADDITIVE = ("neg_ones", "inv", "posinv")
# the boundary statistics, each set by exactly one edge of every path:
# value(n, i, prev, row) of the edge from row i-1 to row i, both as column
# bitmasks (_tallies), 0 on every edge but the one that sets it, as every
# value set is >= 1.  Column 1 never holds a -1, so its one sits where it
# enters the row, and row n-1 misses from 1..n just the column of the last
# matrix row's one (at step n, i is n).
_BOUNDARY = {
    "first_row_one": lambda n, i, prev, row: row.bit_length() - 1 if i == 1 else 0,
    "first_col_one": lambda n, i, prev, row: i if row & 2 and not prev & 2 else 0,
    "last_row_one": lambda n, i, prev, row: (row & ~prev).bit_length() - 1 if i == n else 0,
}
STATISTICS = (*_ADDITIVE, *_BOUNDARY)
_TABLE_KINDS = ("magog_matrix", "asm", "square_sign")


def _tallies(n: int, rule: str, additive=(), boundary=()) -> tuple:
    """(paths, tallies) of the row graph (n, rule): its number of paths,
    and value -> paths for each additive statistic named in ``additive``,
    then for each boundary value function in ``boundary`` (as in
    _BOUNDARY), from one forward pass that holds two layers.  With no
    statistic it is the count.

    A state is a row as its column bitmask, sum(1 << v for v in row).  It
    holds its path count and, per statistic, its generating polynomial
    sum_v c_v x^v over the paths that end there, packed into one int at
    slot width w, c_v << w*v (Kronecker substitution; _unpack reads it).
    An edge of value d adds its source's int shifted left by w*d: integer
    shifts and sums.  A boundary statistic is additive too, of value 0 on
    every edge but the one of each path that sets it.

    The edge from row r-1 (prev, the columns whose prefix sum is 1) to row
    r (row) makes matrix row r.  Its -1s are the columns that leave the
    set, neg = #{p in prev: p not in row}, and it adds
        inv = sum_{p in prev} #{v in row: v < p} - C(r-1, 2)
    inversions, each new entry pairing with the column prefixes right of
    it; posinv = inv - neg.  Each state scores every column once: the
    entries of prev above the column (only with inv or posinv asked for),
    times n+1, plus 1 for a column of prev.  It builds its next rows level
    by level from _row_bounds, as (mask, last entry, score sum), so an
    edge's score sum accrues as its row grows.  A pass with no additive
    statistic scores every column 0.

    Packing needs every edge value >= 0 and every coefficient < 2^w.  Every
    row rule keeps the sign window v_k <= p_k for k < r (the magog window
    v_{k+1} <= p_k + 1 implies it), so the k-th entry p_k of prev has at
    least k-1 entries of row below it, and k when p_k is not in row: the sum
    is at least C(r-1, 2) + neg, so inv >= neg >= 0 on every edge and no
    offset is needed.  The slot width w = C(n,2) + 1 is fixed before the
    pass: every rule's window implies the sign window, so its row graph is
    a subgraph of the sign window's, where every state has a completion
    (1, ..., r, n may follow any row of r < n entries).  So the paths into a
    state are at most the 2^C(n,2) square sign matrices, a coefficient
    counts some of them, and no slot carries into the next.  An edge with
    inv < neg raises RuntimeError (an internal error), and so does a
    decoded tally whose total is not the state's path count, which is what
    a carry leaves."""
    w = n * (n - 1) // 2 + 1
    which = [_ADDITIVE.index(s) for s in additive]
    need_inv = any(which)
    # a state's list: its path count in slot 0, then one packed tally per statistic
    size = 1 + len(which) + len(boundary)
    slots = list(enumerate(which, 1))
    boundary = list(enumerate(boundary, 1 + len(which)))
    # a state's columns scored 0, for a pass that reads no score
    unscored = [0] * (n + 1)
    layer = {0: [1] * size}
    for i in range(1, n + 1):
        base = (i - 1) * (i - 2) // 2  # C(r-1, 2) at row r = i
        nxt: dict = {}
        get = nxt.get
        for prev, src in layer.items():
            ways = src[0]
            score = unscored
            if which:
                score = [((prev >> v + 1).bit_count() * (n + 1) if need_inv else 0) + (prev >> v & 1)
                         for v in range(n + 1)]
            for row, _, total in _successors(_row_bounds(n, _columns(prev), rule), score):
                into = get(row)
                if into is None:
                    into = nxt[row] = [0] * size
                into[0] += ways
                if which:
                    inv, shared = divmod(total, n + 1)
                    neg = i - 1 - shared
                    inv = inv - base if need_inv else neg
                    if inv < neg:
                        raise RuntimeError(f"the edge {_columns(prev)} -> {_columns(row)} adds {inv} inversions "
                                           f"and {neg} negative ones")
                    values = (neg, inv, inv - neg)
                    for j, s in slots:
                        into[j] += src[j] << w * values[s]
                for j, value in boundary:
                    into[j] += src[j] << w * value(n, i, prev, row)
        layer = nxt
    ((total, *packed),) = layer.values()
    tallies = [_unpack(p, w) for p in packed]
    for tally in tallies:
        if sum(tally.values()) != total:
            raise RuntimeError(f"a tally over the {rule} row graph at n={n} counts {sum(tally.values())} "
                               f"of {total} paths")
    return total, tallies


def _unpack(packed: int, w: int) -> dict:
    """value -> coefficient over the nonzero slots of a polynomial packed at
    slot width w (_tallies)."""
    mask = (1 << w) - 1
    slots = (packed >> w * v & mask for v in range(-(-packed.bit_length() // w)))
    return {v: c for v, c in enumerate(slots) if c}


def distribution(kind: str, statistic: str, n: int) -> DistributionTable:
    """Distribution of a statistic over magog matrices, ASMs or square sign matrices."""
    return distribution_bundle(kind, n, (statistic,))[statistic]


def distribution_bundle(kind: str, n: int, statistics=STATISTICS) -> dict[str, DistributionTable]:
    """All requested distributions from one forward pass over the kind's
    row rule, without enumerating or listing the row graph (_tallies):
    each statistic, boundary ones included, is a packed generating
    polynomial pushed along the edges."""
    if kind not in _TABLE_KINDS:
        raise ValidationFailure(f"distributions are defined for {', '.join(_TABLE_KINDS)}")
    stats = tuple(dict.fromkeys(statistics))
    if not stats:
        raise ValidationFailure("at least one statistic is required")
    for s in stats:
        if s not in STATISTICS:
            raise ValidationFailure(f"unknown statistic {s!r}; expected one of {STATISTICS}")
    _guard(n)
    additive = [s for s in stats if s in _ADDITIVE]
    boundary = [s for s in stats if s in _BOUNDARY]
    _, tallies = _tallies(n, _ROW_RULES[kind], additive, [_BOUNDARY[s] for s in boundary])
    tallies = dict(zip(additive + boundary, tallies))
    out = {}
    for s in stats:
        counts = tallies[s]
        lo, hi = min(counts), max(counts)
        out[s] = DistributionTable(kind, s, n, lo, tuple(counts.get(v, 0) for v in range(lo, hi + 1)))
    return out


def boundary_count(n: int, i: int, j: int) -> int:
    """Number of magog matrices of order n with a one in row i, column j:
    the paths of the magog row graph on whose step i column j enters the
    row, tallied as a boundary statistic of value 1 there (_tallies)."""
    _guard(n)
    _integer(i, "row")
    _integer(j, "column")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationFailure("position out of range")
    _, (tally,) = _tallies(n, "magog", boundary=[
        lambda n, r, prev, row: 1 if r == i and row >> j & 1 and not prev >> j & 1 else 0])
    return tally.get(1, 0)


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


def _avoider_moves(n: int, state: tuple) -> list:
    """(value, next state) for each value that may follow a 132-free prefix
    of a permutation of 1..n, increasing.  A 132 in a prefix stays in every
    extension, so only 132-free prefixes grow.  The state is (low,
    blocked): the least value so far (n+1 at the start), and the bitset of
    the used values and those that would close a 132, the ones strictly
    between an earlier value and the least before it."""
    low, blocked = state
    out = []
    for x in range(1, n + 1):
        if not blocked >> x & 1:
            gap = (1 << x) - (1 << low + 1) if low < x else 0
            out.append((x, (min(low, x), blocked | 1 << x | gap)))
    return out


def _iter_132_avoiders(n: int) -> Iterator[Permutation]:
    """The 132-avoiding permutations of 1..n in lexicographic order, the
    paths of _avoider_moves."""
    move = functools.partial(_avoider_moves, n)
    return map(Permutation, _paths(_walk(n, (n + 1, 0), lambda i: move)))


def theorem_suite(n_max: int) -> SuiteReport:
    """Brute-force verification of the proved counting identities:
    the Catalan count of negative-one-free magog matrices and their
    identification with 132-avoiding permutation matrices, the five
    boundary-one identities, the five inversion identities, the shared
    maximum for the number of negative ones, and the square sign count."""
    _integer(n_max, "n_max")
    if n_max < 2:
        raise ValidationFailure("n_max must be at least 2")
    checks: list[SuiteCheck] = []

    def add(claim, n, expected, computed):
        checks.append(SuiteCheck(claim, n, expected, computed, expected == computed))

    for n in range(1, n_max + 1):
        magog = distribution_bundle("magog_matrix", n)
        neg, inv, posinv = magog["neg_ones"], magog["inv"], magog["posinv"]
        first_row, first_col, last_row = magog["first_row_one"], magog["first_col_one"], magog["last_row_one"]
        asm_neg = distribution_bundle("asm", n, ("neg_ones",))["neg_ones"]
        sign_neg = distribution_bundle("square_sign", n, ("neg_ones",))["neg_ones"]
        binom2 = n * (n - 1) // 2

        # negative-one-free magog matrices are the 132-avoiding permutations
        add("catalan count of negative-one-free magog matrices", n, catalan(n), neg.get(0))
        # a permutation matrix is a square sign matrix, so it is magog iff
        # it passes every special inequality
        avoider_rows = ([[int(v == j) for j in range(1, n + 1)] for v in p.values]
                        for p in _iter_132_avoiders(n) if is_132_avoiding(p))
        avoiders_magog = [not any(_special_violations(*_prefix_matrices(rows))) for rows in avoider_rows]
        # -1-free sign matrices are permutation matrices: all avoiders magog + equal counts = equal sets
        add("negative-one-free magog = 132-avoiding permutation matrices", n, True,
            len(avoiders_magog) == neg.get(0) and all(avoiders_magog))

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


def conjecture_suite(n_max: int) -> SuiteReport:
    """Compare the four conjectured inversion enumerations against brute
    force.  Agreement within the tested range is evidence, not proof, so a
    caller should report rather than hard-fail on a mismatch."""
    _integer(n_max, "n_max")
    if n_max < 3:
        raise ValidationFailure("n_max must be at least 3")
    checks: list[SuiteCheck] = []
    for n in range(3, n_max + 1):
        bundle = distribution_bundle("magog_matrix", n, ("inv", "posinv"))
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
