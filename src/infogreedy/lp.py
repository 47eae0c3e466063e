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

Each LinearProgram carries these integer rows, made once; ``solve_lp`` and
``verify_certificate``, which re-checks every dual certificate apart from
the tableau, both read them.  ``LP_GUARD`` bounds the m * (n + m) entries.

A graph's independence LP is solved once: the verified solution is kept on
the graph with its other facts (see ``graphs``).  Its dual is a fractional
cover by maximal cliques whose feasibility and zero gap ``verify_certificate``
has already proved, so ``k_star`` reads k* = a* from it instead of solving
``cover_lp``; ``cover_lp`` stays as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction

from .errors import (
    GuardRefusal,
    InfeasibleLpError,
    InputError,
    InternalConsistencyError,
    UnboundedLpError,
)
from .graphs import InfoGraph, _cliques
from .oracles import _scaled

ZERO = Fraction(0)
ONE = Fraction(1)
# On tableau entries m * (n + m): a graph on n <= 16 agents has at most 324
# maximal cliques, so its largest clique LP has 324 * 340 = 110,160.
LP_GUARD = 120_000


@dataclass(frozen=True)
class LinearProgram:
    """max/min objective'x subject to rows, x >= 0.

    Rows are normalized to <= at construction; a >= row is negated.  The
    certificate of any solution refers to this normalized orientation.

    ``_form`` is ``(obj_scale, obj, row_scales, rows)`` as ``_scaled`` makes
    it, rhs last in each row: handed in as ``form`` or derived.  Not being a
    field, it is ignored by ==, hash and repr and derived afresh by replace.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    sense: str  # "max" | "min"
    form: InitVar[tuple | None] = None

    def __post_init__(self, form):
        if form is None:
            scale, obj = _scaled(self.objective)
            rows = [_scaled((*row, b)) for row, b in zip(self.rows, self.rhs)]
            form = scale, tuple(obj), tuple(s for s, _ in rows), tuple(tuple(r) for _, r in rows)
        object.__setattr__(self, "_form", form)

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
            if s not in ("<=", ">="):
                raise InputError(f"unknown row sense {s!r}")
            sign = 1 if s == "<=" else -1
            norm_rows.append(tuple(sign * Fraction(a) for a in row))
            norm_rhs.append(sign * Fraction(b))
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


def _refuse_tableau(m: int, n: int):
    if m * (n + m) > LP_GUARD:
        raise GuardRefusal(f"LP of {m} rows, {n} columns exceeds tableau guard {LP_GUARD:,}")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimum, optimal point, and a re-verifiable dual certificate."""
    n, m = len(lp.objective), len(lp.rows)
    _refuse_tableau(m, n)
    obj_scale, obj, scales, int_rows = lp._form
    obj = [-c for c in obj] if lp.sense == "min" else list(obj)

    # Equality system [S A | I](x, s) = S b with S the positive diagonal of
    # row scales, so every coefficient is an integer.  The scaled slack is
    # s_i times the original one, which leaves every pivot choice unchanged.
    # Flip rows with negative rhs and give them artificials so the
    # slack/artificial basis starts feasible.
    ncols = n + m
    flipped = [ints[n] < 0 for ints in int_rows]
    art_of = {i: ncols + k for k, i in enumerate(i for i in range(m) if flipped[i])}
    total_cols = ncols + len(art_of)
    pad = [0] * (total_cols - n)
    rows, basis = [], []
    for i, ints in enumerate(int_rows):
        sign = -1 if flipped[i] else 1
        row = [sign * a for a in ints[:n]] + pad
        row.append(sign * ints[n])
        row[n + i] = sign
        basis.append(art_of.get(i, n + i))
        row[basis[-1]] = 1  # the basic column: the slack, or a flipped row's artificial
        rows.append(row)
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

    Checked on the integer form of ``lp`` alone, independently of the solver:
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
    sc, cs, scales, rows = lp._form
    support = [(j, v) for j, v in enumerate(xs) if v]
    for ints in rows:
        if sum(ints[j] * v for j, v in support) > ints[n] * dx:
            return False, "point violates a row"
    # c = C / sc and optimum = p / q: c'x = optimum iff C'X * q = p * sc * dx
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


# a 0/1 membership bit as a Fraction entry, plain and negated
_UNIT = (ZERO, ONE)
_NEG_UNIT = (ZERO, -ONE)


def independence_lp(g: InfoGraph) -> LinearProgram:
    """max 1'z s.t. (maximal-clique rows) z <= 1, z >= 0.

    Every clique row is dominated by a maximal superset's row when z >= 0, so
    restricting to maximal cliques leaves the optimum unchanged while keeping
    the tableau small.
    """
    masks = _cliques(g)
    _refuse_tableau(len(masks), g.n)
    bits = [tuple(c >> v & 1 for v in range(g.n)) for c in masks]
    rows = tuple(tuple(map(_UNIT.__getitem__, b)) for b in bits)
    form = (1, (1,) * g.n, (1,) * len(masks), tuple((*b, 1) for b in bits))
    return LinearProgram((ONE,) * g.n, rows, (ONE,) * len(masks), "max", form)


def cover_lp(g: InfoGraph) -> LinearProgram:
    """min 1'y s.t. (maximal-clique columns) y >= 1, y >= 0.

    The dual of ``independence_lp``.  ``k_star`` does not solve it; solving
    it is an independent cross-check of a* = k* (``verify`` and the tests).
    Its >= rows are stored negated, as ``LinearProgram.build`` stores them.
    """
    masks = _cliques(g)
    _refuse_tableau(g.n, len(masks))
    bits = [tuple(c >> v & 1 for c in masks) for v in range(g.n)]
    rows = tuple(tuple(map(_NEG_UNIT.__getitem__, b)) for b in bits)
    form = (1, (1,) * len(masks), (1,) * g.n, tuple((*(-a for a in b), -1) for b in bits))
    return LinearProgram((ONE,) * len(masks), rows, (-ONE,) * g.n, "min", form)


def _independence_solution(g: InfoGraph) -> LpSolution:
    """The verified solution of ``independence_lp(g)``, solved once per graph."""
    return g._fact("independence_lp", lambda g: solve_lp(independence_lp(g)))


def alpha_star_solution(g: InfoGraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Fractional independence number and an optimal vertex of its LP."""
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
    return sum(_independence_solution(g).certificate["dual"], ZERO)
