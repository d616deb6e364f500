"""Exact feasibility oracle for equality-constrained systems A x = b,
x >= 0, solved by a revised phase-one simplex in integer arithmetic.

The simplex state is fraction-free (Edmonds 1967; Bareiss 1968).  The
right-hand side is scaled by the lcm D of its denominators and every
column by the lcm S of its DAG's denominators, so pricing runs in
integers; one scale for all columns scales every y.A_j and every row of
the ratio test by one factor, and y not at all, so it keeps every pivot.
With delta = |det B| for the current basis B (the previous pivot,
positive because the ratio test only pivots on d > 0), the solver keeps
delta * B^{-1} and delta * x_B, whose entries are minors and so
integers.  A pivot on row r with pivot p replaces every other row k by
(p * a - d_k * c) // delta, an exact division.  When p = delta, as in
most pivots on 0/1 columns, that is a - d_k * c // delta, so only the
entries where row r is nonzero change, and a row with d_k = 0 not at
all.  The artificial basis starts as
diag(sign b_i), so the multipliers y come out in the caller's
coordinates.  delta * y is one more row of the same tableau: it starts
as sign b and takes the same update, its entry in the entering column
being delta * (y.A_q - c_q).

The entering column is Dantzig's: the first of the columns of largest
y.A_j > 0, found on a DAG of the columns (_ColumnDag).  A column may be
given as items (numbers, or tuples of numbers, such as the rows of a
vertex), and columns that share leading items, or whose remaining items
form equal subtrees, share their paths.  One backward pass prices each
distinct item once and gives each node its largest suffix y.A: column
generation with a longest-path subproblem (Gilmore and Gomory 1961).  An
artificial column enters only when no real column prices positive.  The
leaving row is the lexicographic ratio test (Dantzig, Orden and Wolfe
1955): of the rows that tie on xb_k / d_k, the one whose row of
delta * B^{-1}, divided by d_k, is lexicographically smallest.  The start
basis diag(sign b) makes every row (xb_k, delta * B^{-1} row k)
lexicographically positive; each pivot keeps it so and lowers the
phase-one row (c_B B^{-1} b, c_B B^{-1}) lexicographically, by a negative
reduced cost times the leaving row over d_l.  So no basis repeats, and
termination is unconditional under any entering rule.  On infeasible
systems the simplex multipliers of the optimal phase-one basis form a
Farkas certificate y with y.A_j <= 0 for every column and y.b > 0.

Every column DAG is built by _ColumnDag.of_paths from a move rule, and
held with its source's own routes for checking an outcome (ColumnPaths).
A list's rule moves from a run of adjacent columns that agree on their
first d items to the runs within it that agree on item d, so its DAG is
its trie with equal subtrees merged.  That DAG depends on the list's
contents alone, so the ColumnPaths of the last four lists are kept,
keyed by their columns as tuples and m: a later call with an equal list
reuses its DAG, and a list that differs in any item, or was changed in
place since, is built afresh.  Equal items are equal numbers, so a
reused DAG has a fresh one's scale and supports, and prices as it would.
A caller's list is read value by value (core.as_fraction) before the memo
is asked, since 1.0 == 1 and True == 1 hash alike: a float, a bool or any
other value that is not an exact number is refused whatever the memo
holds.  A list of typed vertices (polytope.lp_membership) is not read
again, as its constructors have checked every entry.
The magog row graph (polytope.MagogVertices) lists no column: the hull
LP runs on the DAG of the point's face, built per call from the row
graph's move rule, and a point with no tight prefix on the DAG of the
whole row graph, built for the call too.  Either outcome is verified in
integers on every call before it is returned, also on a kept DAG, and a
failed check raises LPError: a solution on its basic columns as the
source gives them, a certificate by the source's max_value, apart from
the DAG (a scan over a list, a max-plus pass over the magog rules).
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import _INT, ValidationFailure, _read_rows, as_fraction


class LPError(RuntimeError):
    """Internal invariant of the pivoting method failed."""


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: y.column <= 0 for all columns while y.rhs > 0."""

    y: tuple[Fraction, ...]


@dataclass(frozen=True)
class Feasible:
    """Nonnegative solution, sparse: {column index: value > 0}."""

    x: dict


def _scaled(values) -> tuple[int, list[int]]:
    """(s, s * values) for the lcm s of the values' denominators, each read
    by core.as_fraction; integers come back as they are, with s = 1."""
    if _INT.issuperset(map(type, values)):
        return 1, list(values)
    values = [as_fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _values(item) -> tuple:
    return item if isinstance(item, tuple) else (item,)


def _integer_column(items, m, scale, offset=0):
    """Scale the column that concatenates ``items`` (numbers or tuples of
    numbers) by ``scale``, which its denominators must divide (LPError
    otherwise), and split scale * column into (+1 positions, -1 positions,
    other (position, value) pairs), the positions counted from ``offset``.

    Columns made of 0/1/-1 entries admit a multiplication-free dot
    product, which dominates the pricing cost on large vertex lists.
    """
    column = [v for item in items for v in _values(item)]
    if len(column) != m:
        raise ValidationFailure("column length does not match rhs")
    own, column = _scaled(column)
    if scale % own:
        raise LPError("a column's denominators do not divide the scale of its DAG")
    pos, neg, other = [], [], []
    for i, v in enumerate(column, offset):
        if v:
            v *= scale // own
            if v == 1:
                pos.append(i)
            elif v == -1:
                neg.append(i)
            else:
                other.append((i, v))
    return tuple(pos), tuple(neg), tuple(other)


def _dot(y, support) -> int:
    pos, neg, other = support
    s = 0
    for i in pos:
        s += y[i]
    if neg:
        for i in neg:
            s -= y[i]
    if other:
        for i, v in other:
            s += y[i] * v
    return s


class _ColumnDag:
    """The columns as paths of a DAG, in index order, for Dantzig pricing.

    A column is a sequence of items, each a number or a tuple of numbers;
    the column is their concatenation, of length m.  Node k has
    ``counts[k]`` columns below it and the edges ``edges[k]``, in index
    order, each a triple (label, child, child's count), so its leaves, read
    depth first, are the columns in index order; children come before their
    parents, and the root is the last node.  Nodes are interned by (edges,
    count), so equal subtrees are stored once (the ordered form of a minimal
    acyclic automaton, Daciuk et al. 2000), and edge labels by (level,
    item), each holding its item and its integer support at the item's
    offset and the DAG's ``scale`` S.  Every DAG is built by of_paths.
    """

    def __init__(self, m, scale, items, supports, edges, counts):
        self.m, self.scale, self.items, self.supports = m, scale, items, supports
        self.edges, self.counts = edges, counts
        # the nodes with edges, children first, for pricing: (node, label,
        # child) for a node of one edge, else (node, None, its (label, child)
        # pairs)
        self.inner = [(k, *e[0][:2]) if len(e) == 1 else (k, None, [(l, c) for l, c, _ in e])
                      for k, e in enumerate(edges) if e]

    @classmethod
    def of_paths(cls, depth, start, moves, m, count=lambda state: 1, tail=()):
        """The paths of ``depth`` steps from ``start`` under a move rule,
        ``moves(i)`` mapping a state to its (item, next state) pairs in
        order (the rules of magoglab.enumeration), then of a step per item
        of ``tail`` that keeps the state, as columns in depth-first order.

        Each state a step reaches is a node (states with equal paths below
        them share one), each move an edge labelled with its item; a state
        after the last step is a leaf of ``count(state)`` equal columns, and
        a state with no column below it is left out, so a rule with no path
        gives the DAG of no columns.  No column is listed; the scale and the
        labels' supports are made last, from every item and each width."""
        rules = [moves(i) for i in range(1, depth + 1)]
        rules += [lambda state, item=item: ((item, state),) for item in tail]
        depth = len(rules)
        items, all_edges, counts = [], [], []
        labels = [{} for _ in range(depth)]
        registry = {}
        # per step, the node of each state met
        seen = [{} for _ in range(depth + 1)]

        def node(edges, total):
            key = (edges, total)
            k = registry.get(key)
            if k is None:
                k = registry[key] = len(counts)
                all_edges.append(edges)
                counts.append(total)
            return k

        def finish(d, out):
            # the node of a state after d steps from its moves, each into a
            # state that has its node or that ends a path (a leaf)
            below, ids = seen[d + 1], labels[d]
            edges, total = [], 0
            for item, q in out:
                k = below.get(q)
                if k is None:
                    k = below[q] = node((), count(q))
                c = counts[k]
                if c:
                    label = ids.get(item)
                    if label is None:
                        label = ids[item] = len(items)
                        items.append(item)
                    edges.append((label, k, c))
                    total += c
            return node(tuple(edges), total)

        # depth first: the stack holds (step, state, its moves once listed),
        # and a state whose moves reach one with no node yet goes under those
        todo = [(0, start, None)] if depth else []
        while todo:
            d, state, out = todo.pop()
            if out is None:
                if state in seen[d]:
                    continue
                out = list(rules[d](state))
                if d + 1 < depth:  # else every move ends a path
                    unmet = [(d + 1, q, None) for _, q in reversed(out) if q not in seen[d + 1]]
                    if unmet:
                        todo += [(d, state, out)] + unmet
                        continue
            seen[d][state] = finish(d, out)
        root = seen[0][start] if depth else node((), count(start))
        if root != len(counts) - 1:
            raise LPError("the root of the column DAG is not its last node")

        # each step's items are as wide as the first of them
        widths = [len(_values(next(iter(ids)))) for ids in labels if ids]
        if counts[root] and sum(widths) != m:
            raise ValidationFailure("column length does not match rhs")
        scale = math.lcm(*(_scaled(_values(item))[0] for item in items))
        supports = [None] * len(items)
        for d, ids in enumerate(labels):
            for item, label in ids.items():
                supports[label] = _integer_column((item,), widths[d], scale, sum(widths[:d]))
        return cls(m, scale, items, supports, all_edges, counts)

    def most_positive(self, y):
        """Dantzig's entering column: the smallest j among the columns of
        largest y.A_j, when that is positive, and the labels on its path;
        else (-1, None).

        One backward pass, children before parents, prices each label once
        and gives each node its largest suffix y.A (0 at a leaf).  From the
        root, the first edge of each node that attains its value leads to
        the first column of largest y.A: every column under an earlier edge
        has a smaller value.
        """
        all_edges = self.edges
        val = [_dot(y, support) for support in self.supports]
        best = [0] * len(all_edges)
        for k, l, below in self.inner:
            if l is None:
                best[k] = max([val[a] + best[c] for a, c in below])
            else:
                best[k] = val[l] + best[below]
        k = len(all_edges) - 1
        if best[k] <= 0:
            return -1, None
        j, path = 0, []
        while all_edges[k]:
            top = best[k]
            for l, c, count in all_edges[k]:
                if val[l] + best[c] == top:
                    break
                j += count
            path.append(l)
            k = c
        return j, path

    def support(self, path):
        """The column on this path, as its labels' supports concatenated."""
        pos, neg, other = [], [], []
        for l in path:
            p, n, o = self.supports[l]
            pos += p
            neg += n
            other += o
        return tuple(pos), tuple(neg), tuple(other)

    def column(self, j):
        """The items on the path of column j, read down by the counts."""
        if not 0 <= j < self.counts[-1]:
            raise IndexError("column index out of range")
        k, items = len(self.edges) - 1, []
        while self.edges[k]:
            for l, c, count in self.edges[k]:
                if j < count:
                    break
                j -= count
            items.append(self.items[l])
            k = c
        return tuple(items)


class ColumnPaths:
    """Columns held as the paths of a prebuilt DAG (_ColumnDag.of_paths),
    in index order, with the source's own routes for checking an outcome:
    ``column(j)`` gives column j as items, apart from the DAG, and
    ``max_value(y)``, for an integer y, has the sign of the largest y.A_j
    over every column and is computed without the DAG.  len() is the number
    of columns."""

    def __init__(self, dag: _ColumnDag, column: Callable[[int], tuple], max_value: Callable[[list], int]):
        self.dag, self.column, self.max_value = dag, column, max_value

    def __len__(self) -> int:
        return self.dag.counts[-1]


def _item(item):
    """A caller's column item, a number or a tuple of numbers, read by
    core.as_fraction."""
    return tuple(map(as_fraction, item)) if type(item) is tuple else as_fraction(item)


def _list_paths(columns, m: int) -> ColumnPaths:
    """_list_paths_of a caller's column list, read item by item (_item)
    before the memo is asked."""
    return _list_paths_of(_read_rows(columns, _item), m, ())


@functools.lru_cache(maxsize=4)
def _list_paths_of(columns: tuple, m: int, tail: tuple) -> ColumnPaths:
    """A column list as the paths of its run rule, each column a tuple of
    items followed by the items of ``tail``: a state after d steps is a
    run of adjacent columns that agree on their first d items, named by
    its first column, and it moves by item d to the runs within it; after
    the last step it is the run's length, the equal columns its leaf
    stands for, and ``tail`` is the DAG's tail.  So the DAG is the list's
    trie with equal subtrees merged.  Column j is read from the list, and
    max_value(y) scans every column at the DAG's positive scale.

    The result is kept for the last four (columns, m, tail), compared by
    value; a build that raises keeps nothing.  Every item must already be
    an exact number or a tuple of them: a caller's list comes through
    _list_paths, and polytope.lp_membership's vertices through
    polytope._rows_of."""
    width = len(columns[0]) if columns else 0
    # diff[j]: the first item where column j differs from column j - 1
    # (width when they are equal); -1 past the last column ends every run
    diff = [0]
    for prev, column in zip(columns, columns[1:]):
        if len(column) != width:
            raise ValidationFailure("column length does not match rhs")
        d = 0
        while d < width and column[d] == prev[d]:
            d += 1
        diff.append(d)
    diff.append(-1)

    def moves(i):
        d, last = i - 1, i == width

        def runs(lo):
            # the run from column lo ends before the next column differing in
            # its first d items, and is cut before each differing first in item d
            out, j = [], lo + 1
            while True:
                split = diff[j]
                if split <= d:
                    out.append((columns[lo][d], j - lo if last else lo))
                    if split < d:
                        return out
                    lo = j
                j += 1

        return runs

    @functools.cache
    def supports():
        # each column's integer support, made on the list's first certificate
        return [_integer_column(column + tail, m, dag.scale) for column in columns]

    def max_value(y):
        return max((_dot(y, support) for support in supports()), default=0)

    dag = _ColumnDag.of_paths(width, 0 if width else len(columns), moves, m, lambda count: count, tail)
    if dag.counts[-1] != len(columns):
        raise LPError("column DAG does not count every column")
    return ColumnPaths(dag, lambda j: columns[j] + tail, max_value)


def solve_feasibility(columns, rhs) -> Feasible | Infeasible:
    """Decide whether rhs lies in the cone {A x : x >= 0} spanned by the
    columns: a list, each column a sequence of numbers, or of items that
    are numbers or tuples of numbers, concatenated to length len(rhs); or a
    ColumnPaths, whose DAG is used as it is and whose routes check the
    outcome.  A list is read value by value, so a value that is not an
    exact number (core.as_fraction) raises ValidationFailure, and made a
    ColumnPaths of its run rule (_list_paths), whose DAG is reused when an
    equal list was among the last four solved.  The outcome is checked on
    every call."""
    try:
        m = len(rhs)
    except TypeError:
        raise ValidationFailure(f"right-hand side {reprlib.repr(rhs)} is not a sequence") from None
    if not isinstance(columns, ColumnPaths):
        columns = _list_paths(columns, m)
    dag = columns.dag
    if dag.m != m:
        raise ValidationFailure("column length does not match rhs")
    rhs_scale, b = _scaled(rhs)
    signs = [1 if v >= 0 else -1 for v in b]
    n_real = dag.counts[-1]

    # artificial i (0..m-1) is column n_real + i, equal to signs[i] * e_i;
    # the basis starts as the artificial one, so delta * B^{-1} = diag(signs)
    # and delta * y = signs, y = c_B B^{-1} the simplex multipliers
    basis = [n_real + i for i in range(m)]
    binv = [[signs[i] if i == j else 0 for j in range(m)] for i in range(m)]
    xb = [abs(v) for v in b]
    y = list(signs)
    delta = 1

    while True:
        # Dantzig's rule: the first of the columns whose reduced cost
        # c_j - y.A_j is most negative; a basic column has reduced cost 0
        entering, path = dag.most_positive(y)
        if entering < 0:
            for i in range(m):
                if delta - signs[i] * y[i] < 0:
                    entering = n_real + i
                    break

        if entering < 0:
            if sum(xb[k] for k, bj in enumerate(basis) if bj >= n_real) == 0:
                # checked on the columns as the source gives them, not the DAG
                x = {bj: xb[k] for k, bj in enumerate(basis) if bj < n_real and xb[k] != 0}
                _verify_solution(x, {j: _integer_column(columns.column(j), m, dag.scale) for j in x}, b, delta)
                return Feasible({j: Fraction(v * dag.scale, delta * rhs_scale) for j, v in x.items()})
            _verify_functional(y, columns.max_value(y), b)
            return Infeasible(tuple(Fraction(v, delta) for v in y))

        # direction delta * B^{-1} A_entering, and delta * (y.A_entering -
        # c_entering), the entering column's entry in the y row
        if entering < n_real:
            support = dag.support(path)
            d = [_dot(row, support) for row in binv]
            fy = _dot(y, support)
        else:
            i = entering - n_real
            d = [row[i] * signs[i] for row in binv]
            fy = signs[i] * y[i] - delta

        leaving = _leaving_row(d, xb, binv)

        # each row r becomes (piv * r - f * rowl) / delta, divided exactly;
        # when the pivot equals delta that is r - f * rowl / delta (each
        # f * c / delta an integer, as r and the new row are), which leaves
        # a row with f = 0, and every entry where rowl is 0, as it is
        piv = d[leaving]
        rowl, xl = binv[leaving], xb[leaving]
        if piv == delta:
            nonzero = [(i, c) for i, c in enumerate(rowl) if c]
            for k in range(m):
                f = d[k]
                if f and k != leaving:
                    row = binv[k]
                    for i, c in nonzero:
                        row[i] -= f * c // delta
                    xb[k] -= f * xl // delta
            if fy:
                for i, c in nonzero:
                    y[i] -= fy * c // delta
        else:
            for k in range(m):
                f = d[k]
                if k != leaving:
                    binv[k] = [(piv * a - f * c) // delta for a, c in zip(binv[k], rowl)]
                    xb[k] = (piv * xb[k] - f * xl) // delta
            y = [(piv * a - fy * c) // delta for a, c in zip(y, rowl)]
        delta = piv
        basis[leaving] = entering


def _leaving_row(d, xb, binv):
    """The lexicographic ratio test: of the rows k with d_k > 0, the one
    whose (xb_k, binv[k]) / d_k is lexicographically smallest, compared in
    integers as (xb_k, binv[k]) * d_l against (xb_l, binv[l]) * d_k up to
    the first entry where they differ.  The rows of binv are independent,
    so no two rows tie on every entry."""
    leaving = -1
    for k, f in enumerate(d):
        if f > 0:
            if leaving >= 0:
                g = d[leaving]
                here, best = xb[k] * g, xb[leaving] * f
                if here == best:
                    for a, c in zip(binv[k], binv[leaving]):
                        here, best = a * g, c * f
                        if here != best:
                            break
                    else:
                        raise LPError("two rows of the basis inverse are proportional")
                if here > best:
                    continue
            leaving = k
    if leaving < 0:
        raise LPError("unbounded direction in a bounded-below phase-one problem")
    return leaving


def _verify_solution(x, supports, b, delta):
    """x >= 0 and sum_j x_j A_j = delta * b, all in scaled integers."""
    acc = [0] * len(b)
    for j, v in x.items():
        if v < 0:
            raise LPError("basic solution has a negative entry")
        pos, neg, other = supports[j]
        for i in pos:
            acc[i] += v
        for i in neg:
            acc[i] -= v
        for i, a in other:
            acc[i] += v * a
    if acc != [delta * v for v in b]:
        raise LPError("basic solution does not satisfy A x = b")


def _verify_functional(y, top, b):
    """top, the largest y.A_j over every column, is <= 0 and y.b > 0."""
    if top > 0:
        raise LPError("Farkas certificate is positive on a column")
    if sum(a * c for a, c in zip(y, b)) <= 0:
        raise LPError("Farkas certificate is not positive on the right-hand side")
