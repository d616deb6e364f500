"""Exact feasibility oracle for equality-constrained systems A x = b,
x >= 0, solved by a revised phase-one simplex in integer arithmetic.

The simplex state is fraction-free (Edmonds 1967; Bareiss 1968).  The
right-hand side is scaled by the lcm D of its denominators and each
column by the lcm of its own denominators; a positive column scale
changes neither the sign of a reduced cost nor the order of the ratio
test.  With delta = |det B| for the current basis B (the previous pivot,
positive because the ratio test only pivots on d > 0), the solver keeps
delta * B^{-1} and delta * x_B, whose entries are minors and so
integers.  A pivot on row r with pivot p replaces every other row k by
(p * a - d_k * c) // delta, an exact division.  The artificial basis
starts as diag(sign b_i), so the multipliers y come out in the caller's
coordinates.

Bland's smallest-index rule is used for both the entering and leaving
choices, which rules out cycling, so termination is unconditional.  On
infeasible systems the simplex multipliers of the optimal phase-one basis
form a Farkas certificate y with y.A_j <= 0 for every column and y.b > 0.
Either outcome is verified in integers against every column before it is
returned, and a failed check raises LPError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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


def _integer_column(column, m):
    """Scale a column by the lcm s of its denominators and split s * column
    into (+1 positions, -1 positions, other (position, value) pairs).

    Columns made of 0/1/-1 entries admit a multiplication-free dot
    product, which dominates the pricing cost on large vertex lists.
    Returns (s, support).
    """
    if len(column) != m:
        raise ValueError("column length does not match rhs")
    scale = 1
    if not all(type(v) is int for v in column):
        column = [Fraction(v) for v in column]
        scale = math.lcm(*(v.denominator for v in column))
        column = [v.numerator * (scale // v.denominator) for v in column]
    pos, neg, other = [], [], []
    for i, v in enumerate(column):
        if v == 1:
            pos.append(i)
        elif v == -1:
            neg.append(i)
        elif v != 0:
            other.append((i, v))
    return scale, (tuple(pos), tuple(neg), tuple(other))


def _dot(y, support) -> int:
    pos, neg, other = support
    s = 0
    for i in pos:
        s += y[i]
    for i in neg:
        s -= y[i]
    for i, v in other:
        s += y[i] * v
    return s


def solve_feasibility(columns, rhs) -> Feasible | Infeasible:
    """Decide whether rhs lies in the cone {A x : x >= 0} spanned by the
    given columns (each a sequence of length len(rhs))."""
    m = len(rhs)
    b = [Fraction(v) for v in rhs]
    rhs_scale = math.lcm(*(v.denominator for v in b))
    b = [v.numerator * (rhs_scale // v.denominator) for v in b]
    signs = [1 if v >= 0 else -1 for v in b]
    scales, supports = [], []
    for column in columns:
        scale, support = _integer_column(column, m)
        scales.append(scale)
        supports.append(support)
    n_real = len(supports)

    # artificial i (0..m-1) is column n_real + i, equal to signs[i] * e_i;
    # the basis starts as the artificial one, so delta * B^{-1} = diag(signs)
    basis = [n_real + i for i in range(m)]
    binv = [[signs[i] if i == j else 0 for j in range(m)] for i in range(m)]
    xb = [abs(v) for v in b]
    delta = 1

    while True:
        # delta * y, with y = c_B B^{-1} the simplex multipliers
        y = [0] * m
        for k, bj in enumerate(basis):
            if bj >= n_real:
                y = [a + c for a, c in zip(y, binv[k])]

        # Bland's rule: the first column whose reduced cost c_j - y.A_j is
        # negative; a basic column has reduced cost 0, so none is skipped
        entering = -1
        for j, support in enumerate(supports):
            if _dot(y, support) > 0:
                entering = j
                break
        if entering < 0:
            for i in range(m):
                if delta - signs[i] * y[i] < 0:
                    entering = n_real + i
                    break

        if entering < 0:
            if sum(xb[k] for k, bj in enumerate(basis) if bj >= n_real) == 0:
                x = {bj: xb[k] for k, bj in enumerate(basis) if bj < n_real and xb[k] != 0}
                _verify_solution(x, supports, b, delta)
                return Feasible({j: Fraction(v * scales[j], delta * rhs_scale) for j, v in x.items()})
            _verify_certificate(y, supports, b)
            return Infeasible(tuple(Fraction(v, delta) for v in y))

        # direction delta * B^{-1} A_entering
        if entering < n_real:
            support = supports[entering]
            d = [_dot(row, support) for row in binv]
        else:
            i = entering - n_real
            d = [row[i] * signs[i] for row in binv]

        # ratio test xb_k / d_k, ties to the smallest basic index
        leaving = -1
        for k in range(m):
            if d[k] <= 0:
                continue
            if leaving >= 0:
                here, best = xb[k] * d[leaving], xb[leaving] * d[k]
                if here > best or (here == best and basis[k] > basis[leaving]):
                    continue
            leaving = k
        if leaving < 0:
            raise LPError("unbounded direction in a bounded-below phase-one problem")

        piv = d[leaving]
        rowl, xl = binv[leaving], xb[leaving]
        for k in range(m):
            if k != leaving:
                f = d[k]
                binv[k] = [(piv * a - f * c) // delta for a, c in zip(binv[k], rowl)]
                xb[k] = (piv * xb[k] - f * xl) // delta
        delta = piv
        basis[leaving] = entering


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


def _verify_certificate(y, supports, b):
    """y.A_j <= 0 for every column and y.b > 0, in scaled integers."""
    if any(_dot(y, support) > 0 for support in supports):
        raise LPError("Farkas certificate is positive on a column")
    if sum(a * c for a, c in zip(y, b)) <= 0:
        raise LPError("Farkas certificate is not positive on the right-hand side")
