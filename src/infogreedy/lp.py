"""Exact rational linear programming for the fractional clique relaxations.

A small dense two-phase simplex with Bland's anti-cycling rule, run on a
fraction-free integer tableau (the integer-preserving pivots of Edmonds,
1967, and Bareiss, 1968).  Each row of [A | b] is scaled by the lcm of its
denominators, and all rows share one positive denominator d; a pivot on p
maps every entry a to (p*a - f*b) // d, an exact division, and sets d = p.
Ratio tests compare by cross-multiplying, so the pivot sequence, the vertex
and the dual are exactly those of the same simplex over fractions.Fraction;
only the point, the value and the dual are turned back into Fractions.  No
floating point anywhere: claims like "the fractional independence number of
the five-cycle is 5/2" must be bit-exact, and the clique LPs are heavily
degenerate, so epsilon pivoting would be fragile.

The solver handles max/min objectives and <=/>= rows with nonnegative
variables, which covers both clique relaxations:

  primal    max 1'z   s.t.  Wz <= 1, z >= 0     (fractional independence)
  dual      min 1'y   s.t.  W'y >= 1, y >= 0     (fractional clique cover)

Every solution carries a dual certificate that ``verify_certificate``
re-checks exactly against the original LinearProgram, independently of the
tableau: on integers, with each row scaled by the lcm of its denominators
and every comparison made by cross-multiplying.

A graph's independence LP is solved once: the verified solution is kept on
the graph with its other facts (see ``graphs``).  Its dual is a fractional
cover by maximal cliques whose feasibility and zero gap ``verify_certificate``
has already proved, so ``k_star`` reads k* = a* from it instead of solving
``cover_lp``; ``cover_lp`` stays as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfeasibleLpError,
    InputError,
    InternalConsistencyError,
    UnboundedLpError,
)
from .graphs import InfoGraph, maximal_cliques
from .oracles import _scaled

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective'x subject to rows, x >= 0.

    Rows are normalized to <= at construction; a >= row is negated.  The
    certificate of any solution refers to this normalized orientation.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    sense: str  # "max" | "min"

    @staticmethod
    def build(objective, rows, senses, rhs, sense) -> "LinearProgram":
        if sense not in ("max", "min"):
            raise InputError(f"unknown objective sense {sense!r}")
        objective = tuple(Fraction(c) for c in objective)
        norm_rows, norm_rhs = [], []
        if not (len(rows) == len(senses) == len(rhs)):
            raise InputError("rows, senses, and rhs must have equal length")
        for row, s, b in zip(rows, senses, rhs):
            if len(row) != len(objective):
                raise InputError("row width does not match objective length")
            row = tuple(Fraction(a) for a in row)
            b = Fraction(b)
            if s == "<=":
                norm_rows.append(row)
                norm_rhs.append(b)
            elif s == ">=":
                norm_rows.append(tuple(-a for a in row))
                norm_rhs.append(-b)
            else:
                raise InputError(f"unknown row sense {s!r}")
        return LinearProgram(objective, tuple(norm_rows), tuple(norm_rhs), sense)


@dataclass(frozen=True)
class LpSolution:
    optimum: Fraction
    point: tuple[Fraction, ...]
    certificate: dict


def _eliminate(row: list[int], prow: list[int], p: int, d: int, c: int) -> list[int]:
    """One row of an integer-preserving pivot from denominator d to p > 0.

    The true row is row / d; the result is the same row with column c
    eliminated against the pivot row prow, over the new denominator p.  The
    division is exact by Sylvester's identity: every entry is a minor of
    the initial integer tableau.
    """
    f = row[c]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, prow)]
    if p == d:
        return row
    return [p * a // d for a in row]


class _Tableau:
    """Fraction-free dense simplex tableau: integer rows of [coeffs | rhs].

    All rows share one positive denominator ``d``: the true tableau is
    rows / d, and each basic column holds d in its own row and 0 elsewhere.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.d = 1

    def pivot(self, r: int, c: int, cost: list[int] | None = None):
        """Pivot on (r, c), eliminating column c from ``cost`` too when given."""
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        if p < 0:
            # negating the pivot row keeps the shared denominator positive
            p = -p
            rows[r] = prow = [-a for a in prow]
        d = self.d
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, p, d, c)
        if cost is not None:
            cost[:] = _eliminate(cost, prow, p, d, c)
        self.d = p
        self.basis[r] = c


def _priced_cost(tab: _Tableau, obj: list[int]) -> list[int]:
    """Reduced-cost row [c | -value] of integer ``obj`` over the basis, times d."""
    d = tab.d
    cost = [d * c for c in obj] + [0]
    for r, b in enumerate(tab.basis):
        f = obj[b]
        if f:
            cost = [a - f * x for a, x in zip(cost, tab.rows[r])]
    return cost


def _bland_max(tab: _Tableau, cost: list[int], ncols: int):
    """Run simplex maximizing with Bland's rule, updating ``cost`` in place.

    ``cost`` is the integer reduced objective row over the tableau's
    denominator.  Ratio-test candidates are compared by cross-multiplying,
    with ties broken on the smaller basic variable.  Raises UnboundedLpError
    if a cost-improving column has no blocking row.
    """
    rows = tab.rows
    basis = tab.basis
    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), -1)
        if enter < 0:
            return
        leave, best_rhs, best_a = -1, 0, 1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            raise UnboundedLpError("objective is unbounded")
        tab.pivot(leave, enter, cost)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimum, optimal point, and a re-verifiable dual certificate."""
    n = len(lp.objective)
    m = len(lp.rows)
    obj_scale, obj = _scaled(lp.objective)
    if lp.sense == "min":
        obj = [-c for c in obj]

    # Equality system [S A | I](x, s) = S b with S the positive diagonal of
    # row scales, so every coefficient is an integer.  The scaled slack is
    # s_i times the original one, which leaves every pivot choice unchanged.
    # Flip rows with negative rhs and give them artificials so the
    # slack/artificial basis starts feasible.
    ncols = n + m
    flipped = [b < 0 for b in lp.rhs]
    art_of = {i: ncols + k for k, i in enumerate(i for i in range(m) if flipped[i])}
    total_cols = ncols + len(art_of)
    rows: list[list[int]] = []
    basis: list[int] = []
    scales: list[int] = []
    for i in range(m):
        scale, coeffs = _scaled(lp.rows[i] + (lp.rhs[i],))
        sign = -1 if flipped[i] else 1
        row = [sign * a for a in coeffs[:n]]
        row += [sign if j == i else 0 for j in range(m)]
        row += [1 if art_of.get(i) == c else 0 for c in range(ncols, total_cols)]
        row.append(sign * coeffs[n])
        rows.append(row)
        basis.append(art_of.get(i, n + i))
        scales.append(scale)
    art_cols = sorted(art_of.values())
    tab = _Tableau(rows, basis)

    if art_cols:
        # phase 1: maximize -(sum of artificials), priced out over the basis;
        # the artificial of row i stands for s_i original units, so it costs
        # 1/s_i, brought to integers by the lcm of the flipped rows' scales
        flipped_scales = [scales[i] for i in art_of]
        unit = math.lcm(*flipped_scales)
        cost = _priced_cost(tab, [0] * ncols + [-(unit // s) for s in flipped_scales])
        _bland_max(tab, cost, total_cols)
        if cost[-1] != 0:
            raise InfeasibleLpError("no feasible point")
        # drive leftover artificials out of the basis, dropping redundant rows
        keep = []
        for r in range(m):
            if tab.basis[r] in art_cols:
                prow = tab.rows[r]
                piv = next((j for j in range(ncols) if prow[j] != 0), None)
                if piv is None:
                    continue  # redundant row
                tab.pivot(r, piv)
            keep.append(r)
        tab.rows = [tab.rows[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        # blank artificial columns so they can never re-enter
        for row in tab.rows:
            for c in art_cols:
                row[c] = 0

    # phase 2
    cost = _priced_cost(tab, obj + [0] * (total_cols - n))
    _bland_max(tab, cost, ncols)

    d = tab.d
    point = [ZERO] * n
    for r, b in enumerate(tab.basis):
        if b < n:
            point[b] = Fraction(tab.rows[r][-1], d)
    # the true reduced cost row is cost / (d * obj_scale)
    den = d * obj_scale
    value = Fraction(-cost[-1], den)
    # dual of the normalized <= system: the slack column of row i is its
    # identity column up to the row's flip sign, which cancels against the
    # flipped multiplier, so y_i is the negated reduced cost of the
    # original slack, which is s_i times that of the scaled slack
    dual = [Fraction(-cost[n + i] * scales[i], den) for i in range(m)]
    if lp.sense == "min":
        value = -value
        dual = [-y for y in dual]

    sol = LpSolution(value, tuple(point), {"dual": tuple(dual)})
    ok, why = verify_certificate(lp, sol)
    if not ok:
        raise InternalConsistencyError(f"simplex certificate failed: {why}")
    return sol


def verify_certificate(lp: LinearProgram, sol: LpSolution) -> tuple[bool, str]:
    """Exact primal feasibility, dual feasibility, and objective equality.

    Checked on integers against ``lp`` alone, independently of the solver:
    each row with its rhs is scaled by the lcm ``s_i`` of its denominators,
    the objective by its own lcm, and ``x`` and ``y`` are written over their
    common denominators, so every comparison is a cross-multiplied integer
    one.  For the dual columns, ``W_i = Y_i * (L / s_i)``, with ``L`` the lcm
    of all ``s_i``, puts every row over the one denominator ``L``.
    """
    n = len(lp.objective)
    if len(sol.point) != n:
        return False, "point has wrong dimension"
    # x = X / dx
    dx, xs = _scaled(sol.point)
    if any(v < 0 for v in xs):
        return False, "point violates nonnegativity"
    scales, rows = [], []
    for row, b in zip(lp.rows, lp.rhs):
        scale, ints = _scaled(row + (b,))
        scales.append(scale)
        rows.append(ints)
    support = [(j, v) for j, v in enumerate(xs) if v]
    for ints in rows:
        if sum(ints[j] * v for j, v in support) > ints[n] * dx:
            return False, "point violates a row"
    # c = C / sc and optimum = p / q: c'x = optimum iff C'X * q = p * sc * dx
    sc, cs = _scaled(lp.objective)
    p, q = sol.optimum.numerator, sol.optimum.denominator
    if sum(cs[j] * v for j, v in support) * q != p * sc * dx:
        return False, "objective value mismatch"

    y = sol.certificate["dual"]
    if len(y) != len(lp.rows):
        return False, "dual has wrong dimension"
    # y = Y / dy; the normalized dual is min y'b s.t. A'y >= c, y >= 0 (for
    # a max-sense primal; both inequalities flip for a min-sense one)
    dy, ys = _scaled(y)
    sign = 1 if lp.sense == "max" else -1
    if any(sign * v < 0 for v in ys):
        return False, "dual violates nonnegativity"
    big = math.lcm(*scales)
    weighted = [(ints, v * (big // s)) for ints, v, s in zip(rows, ys, scales) if v]
    # column j of A'y is cols[j] / den
    den = big * dy
    cols = [0] * n
    for ints, w in weighted:
        cols = [col + a * w for col, a in zip(cols, ints)]
    for j in range(n):
        if sign * (cols[j] * sc - cs[j] * den) < 0:
            return False, f"dual violates column {j}"
    if sum(ints[n] * w for ints, w in weighted) * q != p * den:
        return False, "strong duality gap"
    return True, "ok"


# ---------------------------------------------------------------------------
# Clique relaxations
# ---------------------------------------------------------------------------


def _clique_rows(g: InfoGraph) -> list[tuple[frozenset[int], tuple[Fraction, ...]]]:
    rows = []
    for c in maximal_cliques(g):
        rows.append((c, tuple(ONE if v in c else ZERO for v in range(1, g.n + 1))))
    return rows


def independence_lp(g: InfoGraph) -> LinearProgram:
    """max 1'z s.t. (maximal-clique rows) z <= 1, z >= 0.

    Every clique row is dominated by a maximal superset's row when z >= 0, so
    restricting to maximal cliques leaves the optimum unchanged while keeping
    the tableau small.
    """
    rows = _clique_rows(g)
    return LinearProgram.build(
        [ONE] * g.n,
        [r for _, r in rows],
        ["<="] * len(rows),
        [ONE] * len(rows),
        "max",
    )


def cover_lp(g: InfoGraph) -> LinearProgram:
    """min 1'y s.t. (maximal-clique columns) y >= 1, y >= 0.

    The dual of ``independence_lp``.  ``k_star`` does not solve it; solving
    it is an independent cross-check of a* = k* (``verify`` and the tests).
    """
    rows = _clique_rows(g)
    ncl = len(rows)
    cols = []
    for v in range(1, g.n + 1):
        cols.append(tuple(rows[c][1][v - 1] for c in range(ncl)))
    return LinearProgram.build(
        [ONE] * ncl,
        cols,
        [">="] * g.n,
        [ONE] * g.n,
        "min",
    )


def _independence_solution(g: InfoGraph) -> LpSolution:
    """The verified solution of ``independence_lp(g)``, solved once per graph."""
    return g._fact("independence_lp", lambda g: solve_lp(independence_lp(g)))


def alpha_star_solution(g: InfoGraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Fractional independence number and an optimal vertex of its LP."""
    if g.n == 0:
        return ZERO, ()
    sol = _independence_solution(g)
    return sol.optimum, sol.point


def alpha_star(g: InfoGraph) -> Fraction:
    return alpha_star_solution(g)[0]


def k_star(g: InfoGraph) -> Fraction:
    """Fractional clique cover number, the weight of the verified dual.

    The dual of the independence LP is ``cover_lp``: its multipliers weight
    the maximal cliques so that every agent is covered at least once, and
    ``solve_lp`` has checked that they do and that their total equals a*.
    """
    if g.n == 0:
        return ZERO
    return sum(_independence_solution(g).certificate["dual"], ZERO)
