"""Edge-budget-optimal information structures.

The fewest-edge graph with independence number r is a disjoint union of r
near-equal cliques (the complement of a Turán graph).  Under an edge budget
m, the best guaranteed worst-case efficiency is achieved by the such union
with the smallest feasible r, except one edge short of complete, where the
clique missing its last edge guarantees 1/2 outright.

Guarantees returned here are certificates, not empirical measurements: a
disjoint-clique design with r < n has the sibling property and alpha = k, so
its guarantee 1/(1+r) is realized by an explicit instance; the edgeless
design guarantees exactly 1/n (with no information, each agent's solo pick
is at least a 1/n fraction of any profile by subadditivity, and the shared
target instance meets it); the clique-minus-edge case guarantees 1/2.

A design has O(n^2) edges and a curve n(n-1)/2 + 1 rows, so both refuse
more than ``DESIGN_GUARD`` agents before any work.  The curve is piecewise
constant, one run per block count, so ``curve_runs`` computes it per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import GuardRefusal, InputError, InternalConsistencyError
from .graphs import InfoGraph

CASE_TURAN = "t_hat"
CASE_CLIQUE_MINUS_EDGE = "clique_minus_edge"
DESIGN_GUARD = 1000


@dataclass(frozen=True)
class TuranDesign:
    n: int
    r: int
    partition: tuple[tuple[int, ...], ...]
    graph: InfoGraph


@dataclass(frozen=True)
class DesignResult:
    graph: InfoGraph
    m_used: int
    gamma_guaranteed: Fraction
    case_tag: str
    partition: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class CurvePoint:
    m: int
    gamma: Fraction
    r: int  # independence number of the emitted design
    case_tag: str


def _block_sizes(n: int, r: int) -> list[int]:
    big = n % r
    size = n // r
    return [size + 1] * big + [size] * (r - big)


def complement_turan(n: int, r: int) -> TuranDesign:
    """r disjoint cliques with near-equal sizes, larger blocks first.

    Blocks occupy contiguous increasing index ranges, so every in-block edge
    respects the agent order and outputs are reproducible.
    """
    if not 1 <= r <= n:
        raise InputError(f"need 1 <= r <= n, got r={r}, n={n}")
    sizes = _block_sizes(n, r)
    partition = []
    edges = []
    nxt = 1
    for size in sizes:
        block = tuple(range(nxt, nxt + size))
        partition.append(block)
        edges.extend(
            (block[a], block[b])
            for a in range(size)
            for b in range(a + 1, size)
        )
        nxt += size
    return TuranDesign(n, r, tuple(partition), InfoGraph(n, edges))


def edge_count(n: int, r: int) -> int:
    """Closed-form edge count of the r-block near-equal clique union."""
    if not 1 <= r <= n:
        raise InputError(f"need 1 <= r <= n, got r={r}, n={n}")
    big = n % r
    hi = -(-n // r)  # ceil
    lo = n // r
    return (big * hi * (hi - 1) + (r - big) * lo * (lo - 1)) // 2


def turan_within_budget(n: int, m: int) -> TuranDesign:
    """The disjoint-clique design of smallest independence number within m edges.

    Search starts at the Turan-type lower bound r >= ceil(n^2 / (2m + n))
    and increments until the edge count fits; r = n (edgeless) always fits.
    """
    if n < 1:
        raise InputError("need at least one agent")
    if m < 0:
        raise InputError("edge budget must be nonnegative")
    r = max(1, ceil(n * n / (2 * m + n)))
    while edge_count(n, r) > m:
        r += 1
    return complement_turan(n, r)


def _design_guarantee(n: int, r: int) -> Fraction:
    if r == n:
        return Fraction(1, n)  # no information: solo picks are a 1/n fraction
    return Fraction(1, 1 + r)


def _check_agents(n: int):
    if n < 1:
        raise InputError("need at least one agent")
    if n > DESIGN_GUARD:
        raise GuardRefusal(f"n={n} exceeds the design guard {DESIGN_GUARD}")


def optimal_structure(n: int, m: int) -> DesignResult:
    """The best certified design for n agents under an edge budget m."""
    _check_agents(n)
    if not 0 <= m <= n * (n - 1) // 2:
        raise InputError(f"edge budget {m} outside 0..{n * (n - 1) // 2}")
    if n >= 2 and m == n * (n - 1) // 2 - 1:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) != (n - 1, n)
        ]
        return DesignResult(
            InfoGraph(n, edges), m, Fraction(1, 2), CASE_CLIQUE_MINUS_EDGE
        )
    design = turan_within_budget(n, m)
    return DesignResult(
        design.graph,
        design.graph.m,
        _design_guarantee(n, design.r),
        CASE_TURAN,
        design.partition,
    )


def curve_runs(n: int) -> list[tuple[int, int, Fraction, int, str]]:
    """The guarantee curve as runs of equal guarantee, in increasing budget.

    Each run is ``(lo, hi, gamma, r, case_tag)``: every budget m with
    lo <= m < hi gets guarantee gamma from a design of independence number
    r.  The smallest block count r with edge_count(n, r) <= m only falls as
    m grows, and edge_count falls strictly in r, so block count r serves
    the budgets edge_count(n, r) .. edge_count(n, r - 1) - 1.  The budget
    one short of complete, the last of the r = 2 run, is a run of its own.
    At most n + 1 runs, one Fraction each.
    """
    _check_agents(n)
    top = n * (n - 1) // 2
    runs = []
    lo = 0
    for r in range(n, 1, -1):
        hi = edge_count(n, r - 1) if r > 2 else top - 1
        if lo < hi:  # only n = 2 leaves the r = 2 run empty
            runs.append((lo, hi, _design_guarantee(n, r), r, CASE_TURAN))
        lo = hi
    if n > 1:
        # the missing edge leaves one nonadjacent pair
        runs.append((top - 1, top, Fraction(1, 2), 2, CASE_CLIQUE_MINUS_EDGE))
    runs.append((top, top + 1, _design_guarantee(n, 1), 1, CASE_TURAN))
    return runs


def efficiency_curve(n: int) -> list[CurvePoint]:
    """Guaranteed efficiency of the optimal design for every budget m.

    Closed form of ``optimal_structure(n, m)`` row by row, building no
    graph: the rows of ``curve_runs(n)``, one point per budget.
    """
    return [
        CurvePoint(m, gamma, r, case_tag)
        for lo, hi, gamma, r, case_tag in curve_runs(n)
        for m in range(lo, hi)
    ]


@dataclass(frozen=True)
class NoSiblingWitness:
    m_min: int
    witness: InfoGraph


def min_edges_no_sibling(n: int, r: int) -> NoSiblingWitness:
    """Fewest edges of a graph with independence number r and no sibling property.

    The witness places the unique maximum independent set J on the last r
    indices, a disjoint-clique graph of independence r-1 on the rest, and
    wires block j to the j-th and (j+1)-th members of J.  Staggering the
    wiring keeps every mixed independent set below r: an independent pick of
    s blocks sees at least s+1 distinct J-members, so pure J is the unique
    maximum.  All wiring points up in index, and J-members have no outgoing
    edges at all, so no maximum independent set is observed from outside.
    """
    if not 2 <= r <= n - 1:
        raise InputError(f"need 2 <= r <= n-1, got r={r}, n={n}")
    inner = n - r
    # with more blocks than inner vertices the blocks degenerate to
    # singletons, matching the closed form's value of zero edges
    blocks = min(r - 1, inner)
    design = complement_turan(inner, blocks)
    edges = list(design.graph.edges)
    j_members = list(range(n - r + 1, n + 1))
    for b, block in enumerate(design.partition):
        lo_j, hi_j = j_members[b], j_members[b + 1]
        for v in block:
            edges.append((v, lo_j))
            edges.append((v, hi_j))
    witness = InfoGraph(n, edges)
    m_min = edge_count(inner, blocks) + 2 * inner
    if witness.m != m_min:
        raise InternalConsistencyError(
            f"witness has {witness.m} edges, expected {m_min}"
        )
    return NoSiblingWitness(m_min, witness)
