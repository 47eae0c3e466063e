"""Ordered information graphs and their exact combinatorial statistics.

Agents are labeled 1..n and decide in label order; an edge (j, i) with j < i
means agent i observes agent j's decision.  Only this admissible class is
representable: the constructor rejects any edge that points backward.

Cliques, independence numbers, and clique covers are computed exactly on the
undirected shadow of the graph (clique membership ignores edge direction).
Vertices map to bits: agent i occupies bit i-1.  One enumerator lists
maximal cliques: Bron & Kerbosch (1973) with the pivot rule of Tomita,
Tanaka & Takahashi (2006), refusing past ``MAXIMAL_CLIQUE_GUARD`` cliques.
The maximum independent sets come from it too, with no scan over subsets:
the maximal independent sets of G are the maximal cliques of its
complement, and the largest of them are the maximum ones.

Each graph computes its facts at most once: the maximal cliques (as
bitmasks; ``maximal_cliques`` hands out frozensets), the ``ExactNumbers``,
the ``SiblingVerdict``, (in ``lp``) the verified solution of the
independence LP and (in ``bounds``) the certified ``1/a*`` and sibling
instances are computed on first use and kept on the graph itself, so every
later caller reads the stored value and the facts go away with the graph.  Stored values are immutable; a size guard is checked
on every call, before the stored value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import AdmissibilityError, GuardRefusal, InputError, InternalConsistencyError

EXACT_GUARD = 16
# A graph on n <= 16 agents has at most 324 maximal cliques (Moon & Moser,
# 1965), so neither the exact numbers nor the complement path ever refuse.
MAXIMAL_CLIQUE_GUARD = 10000


class InfoGraph:
    """Immutable ordered DAG on agents 1..n with edges from lower to higher index.

    ``_facts`` holds the per-graph facts computed so far, by name.  It belongs
    to this object alone: an equal graph built separately starts empty.
    """

    __slots__ = ("n", "edges", "in_masks", "adj_masks", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError("agent count must be nonnegative")
        edge_set = set()
        for edge in edges:
            i, j = edge
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge {edge} mentions an agent outside 1..{n}")
            if i >= j:
                raise AdmissibilityError(
                    f"edge {edge} violates the agent order (need i < j)"
                )
            edge_set.add((i, j))
        self.n = n
        self.edges = frozenset(edge_set)
        in_masks = [0] * (n + 1)
        adj_masks = [0] * (n + 1)
        for i, j in edge_set:
            in_masks[j] |= 1 << (i - 1)
            adj_masks[i] |= 1 << (j - 1)
            adj_masks[j] |= 1 << (i - 1)
        self.in_masks = tuple(in_masks)
        self.adj_masks = tuple(adj_masks)
        self._facts: dict = {}

    def _fact(self, name: str, compute: Callable[[InfoGraph], object]):
        """The fact ``name``, computed by ``compute(self)`` on first use."""
        facts = self._facts
        if name not in facts:
            facts[name] = compute(self)
        return facts[name]

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Agents whose decisions agent i observes; empty for agent 1."""
        if not 1 <= i <= self.n:
            raise InputError(f"agent {i} outside 1..{self.n}")
        return _vertices(self.in_masks[i])

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj_masks[i] >> (j - 1) & 1)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, InfoGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"InfoGraph(n={self.n}, edges={self.sorted_edges()})"


def complete_graph(n: int) -> InfoGraph:
    return InfoGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def edgeless_graph(n: int) -> InfoGraph:
    return InfoGraph(n, [])


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertices(mask: int) -> frozenset[int]:
    # vertex v is bit v - 1 of the mask, so bit v of the mask shifted once
    return frozenset(_bits(mask << 1))


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


def _maximal_clique_masks(adj: Sequence[int], allowed: int) -> list[int]:
    """Pivoting Bron-Kerbosch over the induced subgraph on ``allowed``.

    Depth first on an explicit stack, so a large clique cannot exhaust the
    interpreter's recursion limit.  Each node's children depend only on the
    node, so they are pushed together, in reverse to keep the recursive
    visiting order.  Refuses once it has found more than
    ``MAXIMAL_CLIQUE_GUARD`` cliques.
    """
    found: list[int] = []
    nbr = [a & allowed for a in adj]
    stack = [(0, allowed, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            found.append(r)
            if len(found) > MAXIMAL_CLIQUE_GUARD:
                raise GuardRefusal(f"more than {MAXIMAL_CLIQUE_GUARD} maximal cliques")
            continue
        # pivot eliminating the most candidates, lowest bit on ties
        pivot, best = -1, -1
        px = p | x
        while px:
            u = px & -px
            deg = (p & nbr[u.bit_length()]).bit_count()
            if deg > best:
                best, pivot = deg, u.bit_length()
            px &= px - 1
        cand = p & ~nbr[pivot]
        children = []
        while cand:
            v = cand & -cand
            vb = v.bit_length()
            children.append((r | v, p & nbr[vb], x & nbr[vb]))
            p &= ~v
            x |= v
            cand &= cand - 1
        stack.extend(reversed(children))
    return found


def _find_maximal_cliques(g: InfoGraph) -> tuple[int, ...]:
    if g.n == 0:
        return ()
    masks = _maximal_clique_masks(g.adj_masks, (1 << g.n) - 1)
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), _bits(m))))


def _cliques(g: InfoGraph) -> tuple[int, ...]:
    """The maximal cliques as bitmasks, by size and then by their sorted members."""
    return g._fact("cliques", _find_maximal_cliques)


def maximal_cliques(g: InfoGraph) -> list[frozenset[int]]:
    """All inclusion-maximal cliques of the undirected shadow, sorted.

    A fresh list on every call; the graph keeps its own tuple of bitmasks.
    """
    return [_vertices(m) for m in _cliques(g)]


# ---------------------------------------------------------------------------
# Independence number, clique cover, clique number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactNumbers:
    alpha: int
    k: int
    omega: int
    max_independent_sets: tuple[frozenset[int], ...]


def _max_independent_masks(g: InfoGraph) -> tuple[int, list[int]]:
    """alpha and every maximum independent set, as bitmasks.

    The maximal independent sets of G are the maximal cliques of its
    complement, so the clique enumerator lists them without a subset scan;
    the largest of them are the maximum independent sets.
    """
    sets = _maximal_clique_masks(_complement(g), (1 << g.n) - 1)
    best = max(s.bit_count() for s in sets)
    return best, [s for s in sets if s.bit_count() == best]


def _complement(g: InfoGraph) -> list[int]:
    """The adjacency masks of the complement of the undirected shadow."""
    full = (1 << g.n) - 1
    return [0] + [~a & full & ~(1 << v) for v, a in enumerate(g.adj_masks[1:])]


def _min_clique_cover(g: InfoGraph) -> int:
    """Exact minimum clique cover via subset DP over the graph's maximal cliques.

    Some optimal cover has its block through the lowest uncovered vertex equal
    to a clique maximal within the remaining vertices.  Each such clique is
    the restriction ``c & mask`` of a maximal clique ``c`` of the whole graph
    (any maximal clique containing it), and every restriction is a clique, so
    branching on the restrictions through that vertex reaches the same
    minimum without enumerating cliques per subset.
    """
    cliques = _cliques(g)
    memo = {0: 0}

    def solve(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        low = mask & -mask
        best = None
        for c in {c & mask for c in cliques if c & low}:
            sub = 1 + solve(mask & ~c)
            if best is None or sub < best:
                best = sub
        memo[mask] = best
        return best

    return solve((1 << g.n) - 1)


def _refuse_past(g: InfoGraph):
    if g.n > EXACT_GUARD:
        raise GuardRefusal(f"n={g.n} exceeds exhaustive guard {EXACT_GUARD}")


def exact_numbers(g: InfoGraph) -> ExactNumbers:
    """alpha, minimum clique cover, clique number, and all maximum independent sets."""
    _refuse_past(g)
    return g._fact("numbers", _find_exact_numbers)


def _find_exact_numbers(g: InfoGraph) -> ExactNumbers:
    alpha, ind_masks = _max_independent_masks(g)
    k = _min_clique_cover(g)
    omega = max((c.bit_count() for c in _cliques(g)), default=0)
    sets = tuple(sorted(map(_vertices, ind_masks), key=sorted))
    return ExactNumbers(alpha, k, omega, sets)


# ---------------------------------------------------------------------------
# Sibling property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiblingVerdict:
    has_property: bool
    witness: tuple[frozenset[int], int, int] | None  # (J, member of J, observer w)
    witnesses: tuple[tuple[frozenset[int], int, int], ...]  # every (J, w) pair
    audit: Mapping[str, bool] | None  # structural audit, read-only, when absent

    def __bool__(self) -> bool:
        return self.has_property


def sibling_property(g: InfoGraph) -> SiblingVerdict:
    """Does some maximum independent set J have a member observed from outside?

    Returns every witness triple (J, i, w) with i in J observed by w outside
    J, ordered by (J, w); ``witness`` is the first.  When the property is
    absent, the four structural consequences are audited (unique maximum J;
    agents n and n-1 belong to J; removing J strictly drops the independence
    number; every outside agent sends at least two edges into J) and any
    violation raises an internal-consistency failure.  If J = V there is no
    outside vertex at all, so the property is absent and the audit of the
    outside-facing consequences is vacuous.
    """
    _refuse_past(g)
    return g._fact("sibling", _find_sibling_verdict)


def _find_sibling_verdict(g: InfoGraph) -> SiblingVerdict:
    nums = exact_numbers(g)
    witnesses: list[tuple[frozenset[int], int, int]] = []
    for jset in nums.max_independent_sets:
        jmask = _mask(jset)
        for w in range(1, g.n + 1):
            hit = g.in_masks[w] & jmask  # 0 for w in J, which is independent
            if hit:
                witnesses.append((jset, (hit & -hit).bit_length(), w))
    if witnesses:
        return SiblingVerdict(True, witnesses[0], tuple(witnesses), None)

    audit: dict = {"unique_maximum": len(nums.max_independent_sets) == 1}
    jmask = _mask(nums.max_independent_sets[0])
    outside = ((1 << g.n) - 1) & ~jmask
    if not outside:
        audit["vacuous"] = True
    else:
        # some agent is outside J, so n >= 2: one agent alone is its own J
        audit["contains_last_two"] = jmask >> (g.n - 2) & 3 == 3
        # alpha(G - J) is the size of the largest clique of the complement outside J
        rest = _maximal_clique_masks(_complement(g), outside)
        audit["alpha_drops"] = max(s.bit_count() for s in rest) < nums.alpha
        audit["outside_double_links"] = all(
            (_out_mask(g, w) & jmask).bit_count() >= 2 for w in _vertices(outside)
        )
        if not all(audit.values()):
            raise InternalConsistencyError(
                f"graph lacks the sibling property but fails its structural audit: {audit}"
            )
    return SiblingVerdict(False, None, (), MappingProxyType(audit))


def _out_mask(g: InfoGraph, v: int) -> int:
    # every edge points up, so out-neighbors are the adjacent higher indices
    return g.adj_masks[v] & ~((1 << v) - 1)


def _induced(g: InfoGraph, vertices: Sequence[int]) -> InfoGraph:
    order = {v: idx + 1 for idx, v in enumerate(sorted(vertices))}
    edges = [
        (order[i], order[j]) for i, j in g.edges if i in order and j in order
    ]
    return InfoGraph(len(vertices), edges)


def to_dot(g: InfoGraph, clusters: Sequence[Sequence[int]] | None = None) -> str:
    """DOT export; optional vertex clusters (one subgraph per block)."""
    lines = ["digraph info {", "  rankdir=LR;"]
    if clusters:
        for b, block in enumerate(clusters):
            lines.append(f"  subgraph cluster_{b} {{")
            for v in block:
                lines.append(f"    {v};")
            lines.append("  }")
    else:
        for v in range(1, g.n + 1):
            lines.append(f"  {v};")
    for i, j in g.sorted_edges():
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
