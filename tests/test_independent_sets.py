"""Maximum independent sets from complement cliques, checked two ways.

``exact_numbers`` lists the maximum independent sets of a graph as the
largest maximal cliques of its complement, and finds the minimum clique
cover by branching on the graph's own maximal cliques.  The subset scan and
the per-subset clique DP they replaced are kept below as references and
must give identical ``ExactNumbers``, as must the induced graph that the
sibling audit once built for alpha(G - J) and the frozenset sort that once
ordered the maximal cliques; networkx
(an optional test dependency) independently lists maximal cliques of the
graph and of its complement.
"""

import random

import pytest

import infogreedy.graphs as graphs_mod
from infogreedy import (
    ExactNumbers,
    GuardRefusal,
    InfoGraph,
    complete_graph,
    edgeless_graph,
    exact_numbers,
    maximal_cliques,
    sibling_property,
)
from infogreedy.design import min_edges_no_sibling
from infogreedy.graphs import MAXIMAL_CLIQUE_GUARD
from infogreedy.verify import labelled_graphs
from conftest import all_pairs, random_graph, unlabeled_classes


def cycle(n: int) -> InfoGraph:
    return InfoGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def antihole(n: int) -> InfoGraph:
    ring = cycle(n).edges
    return InfoGraph(n, [e for e in all_pairs(n) if e not in ring])


def disjoint_cliques(sizes) -> InfoGraph:
    edges, start = [], 1
    for size in sizes:
        block = range(start, start + size)
        edges += [(i, j) for i in block for j in block if i < j]
        start += size
    return InfoGraph(start - 1, edges)


def complement(g: InfoGraph) -> InfoGraph:
    return InfoGraph(g.n, [e for e in all_pairs(g.n) if e not in g.edges])


def moon_moser_16() -> InfoGraph:
    """The most maximal cliques any 16-agent graph has (Moon & Moser, 1965):
    3 * 3 * 3 * 3 * 4, one vertex from each independent part."""
    return complement(disjoint_cliques([3, 3, 3, 3, 4]))


def small_graphs() -> list[InfoGraph]:
    return [g for n in range(1, 7) for g in unlabeled_classes(n)]


def large_graphs() -> list[InfoGraph]:
    """200 seeded G(n, p) with n = 7..16, and the extreme families."""
    rng = random.Random(1973)
    graphs = [random_graph(rng, n) for n in range(7, 17) for _ in range(20)]
    for n in range(7, 17):
        graphs += [edgeless_graph(n), complete_graph(n)]
    for n in range(7, 17, 2):
        graphs += [cycle(n), antihole(n)]
    graphs += [moon_moser_16(), disjoint_cliques([3, 3, 3, 3, 4])]
    return graphs


# ---------------------------------------------------------------------------
# The subset scan and the per-subset clique DP the library replaced
# ---------------------------------------------------------------------------


def reference_max_independent_masks(g: InfoGraph) -> tuple[int, list[int]]:
    """alpha and every maximum independent set, by testing all 2^n subsets."""
    def independent(mask):
        m = mask
        while m:
            v = m & -m
            if g.adj_masks[v.bit_length()] & mask:
                return False
            m &= m - 1
        return True

    best, sets = 0, [0]
    for mask in range(1, 1 << g.n):
        size = bin(mask).count("1")
        if size < best or not independent(mask):
            continue
        if size > best:
            best, sets = size, [mask]
        else:
            sets.append(mask)
    return best, sets


def reference_min_clique_cover(g: InfoGraph) -> int:
    """Minimum clique cover by a subset DP that enumerates, for every subset
    it visits, the cliques maximal within it and branches on those through
    its lowest vertex."""
    memo = {0: 0}

    def solve(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length()
        best = None
        for c in graphs_mod._maximal_clique_masks(g.adj_masks, mask):
            if not c >> (v - 1) & 1:
                continue
            sub = 1 + solve(mask & ~c)
            if best is None or sub < best:
                best = sub
        memo[mask] = best
        return best

    return solve((1 << g.n) - 1)


def reference_exact_numbers(g: InfoGraph) -> ExactNumbers:
    if g.n == 0:
        return ExactNumbers(0, 0, 0, (frozenset(),))
    alpha, masks = reference_max_independent_masks(g)
    sets = tuple(sorted((graphs_mod._vertices(m) for m in masks), key=sorted))
    k = reference_min_clique_cover(g)
    omega = max(len(c) for c in maximal_cliques(g))
    return ExactNumbers(alpha, k, omega, sets)


class TestAgainstTheSubsetScan:
    def test_shadow_classes_up_to_six(self):
        for g in (InfoGraph(0, []), *small_graphs()):
            assert exact_numbers(g) == reference_exact_numbers(g), g

    def test_seeded_and_extreme_graphs_up_to_sixteen(self):
        for g in large_graphs():
            assert exact_numbers(g) == reference_exact_numbers(g), g


# ---------------------------------------------------------------------------
# The induced graphs and frozenset cliques the library replaced
# ---------------------------------------------------------------------------


def reference_alpha_within(g: InfoGraph, mask: int) -> int:
    """alpha of the subgraph induced on ``mask``, from a graph built for it."""
    return exact_numbers(graphs_mod._induced(g, graphs_mod._vertices(mask))).alpha


def alpha_within(g: InfoGraph, mask: int) -> int:
    """The sibling audit's alpha(G - J): the largest complement clique in ``mask``."""
    rest = graphs_mod._maximal_clique_masks(graphs_mod._complement(g), mask)
    return max(s.bit_count() for s in rest)


def reference_maximal_cliques(g: InfoGraph) -> list[frozenset[int]]:
    """The cliques as frozensets, sorted by size and then by sorted members."""
    if g.n == 0:
        return []
    masks = graphs_mod._maximal_clique_masks(g.adj_masks, (1 << g.n) - 1)
    return sorted(map(graphs_mod._vertices, masks), key=lambda c: (len(c), sorted(c)))


def labelled_up_to_four() -> list[InfoGraph]:
    return [g for n in range(5) for g in labelled_graphs(n)]


def seeded_subsets() -> list[tuple[InfoGraph, int]]:
    """200 seeded (G, S) with n = 5..12, S a uniform vertex subset."""
    rng = random.Random(1965)
    pairs = []
    for n in range(5, 13):
        for _ in range(25):
            g = random_graph(rng, n)
            pairs.append((g, rng.randrange(1 << n)))
    return pairs


class TestMaskPathsMatchTheReplacedOnes:
    def test_alpha_of_every_induced_subgraph_up_to_four(self):
        for g in labelled_up_to_four():
            for mask in range(1 << g.n):
                assert alpha_within(g, mask) == reference_alpha_within(g, mask), (g, mask)

    def test_alpha_of_seeded_induced_subgraphs(self):
        for g, mask in seeded_subsets():
            assert alpha_within(g, mask) == reference_alpha_within(g, mask), (g, mask)

    def test_the_sibling_audit_reads_alpha_outside_j(self, monkeypatch):
        calls = []
        original = graphs_mod._maximal_clique_masks

        def recorded(adj, allowed):
            found = original(adj, allowed)
            calls.append((allowed, found))
            return found

        monkeypatch.setattr(graphs_mod, "_maximal_clique_masks", recorded)
        graphs = [g for n in range(6) for g in labelled_graphs(n)]
        graphs += [min_edges_no_sibling(n, r).witness for n in range(3, 10) for r in range(2, n)]
        audited = 0
        for g in graphs:
            verdict = sibling_property(g)
            if verdict or "vacuous" in verdict.audit:
                continue
            # the audit's enumeration is the last: exact_numbers ran before it
            allowed, found = calls[-1]
            jmask = graphs_mod._mask(exact_numbers(g).max_independent_sets[0])
            assert allowed == ((1 << g.n) - 1) & ~jmask, g
            assert max(s.bit_count() for s in found) == reference_alpha_within(g, allowed), g
            audited += 1
        assert audited >= 28

    def test_clique_order(self):
        graphs = labelled_up_to_four() + [g for g, _ in seeded_subsets()] + [moon_moser_16()]
        for g in graphs:
            assert maximal_cliques(g) == reference_maximal_cliques(g), g


# ---------------------------------------------------------------------------
# networkx
# ---------------------------------------------------------------------------


def nx_graph(nx, g: InfoGraph):
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges)
    return G


@pytest.mark.parametrize("family", ["small", "large"])
def test_cliques_and_independent_sets_match_networkx(family):
    nx = pytest.importorskip("networkx")
    graphs = small_graphs() if family == "small" else large_graphs()
    for g in graphs:
        G = nx_graph(nx, g)
        want = sorted(sorted(c) for c in nx.find_cliques(G))
        assert sorted(sorted(c) for c in maximal_cliques(g)) == want, g
        comp = [frozenset(c) for c in nx.find_cliques(nx.complement(G))]
        alpha = max(len(c) for c in comp)
        nums = exact_numbers(g)
        assert nums.alpha == alpha, g
        assert set(nums.max_independent_sets) == {c for c in comp if len(c) == alpha}, g
        assert len(nums.max_independent_sets) == len(set(nums.max_independent_sets))


# ---------------------------------------------------------------------------
# Work done and guards
# ---------------------------------------------------------------------------


class TestComplementPath:
    def test_edgeless_sixteen_finds_one_clique(self, monkeypatch):
        found = []
        original = graphs_mod._maximal_clique_masks

        def counted(adj, allowed):
            out = original(adj, allowed)
            found.append(len(out))
            return out

        monkeypatch.setattr(graphs_mod, "_maximal_clique_masks", counted)
        assert graphs_mod._max_independent_masks(edgeless_graph(16)) == (16, [(1 << 16) - 1])
        assert found == [1]

    def test_most_cliques_on_sixteen_agents_stay_under_the_guard(self):
        assert MAXIMAL_CLIQUE_GUARD > 324
        g = moon_moser_16()
        assert len(maximal_cliques(g)) == 324
        assert exact_numbers(g).k == 4  # the largest part
        nums = exact_numbers(disjoint_cliques([3, 3, 3, 3, 4]))
        assert (nums.alpha, len(nums.max_independent_sets)) == (5, 324)

    def test_refuses_past_the_guard(self, monkeypatch):
        monkeypatch.setattr(graphs_mod, "MAXIMAL_CLIQUE_GUARD", 323)
        with pytest.raises(GuardRefusal, match="more than 323 maximal cliques"):
            maximal_cliques(moon_moser_16())
        monkeypatch.setattr(graphs_mod, "MAXIMAL_CLIQUE_GUARD", 324)
        assert len(maximal_cliques(moon_moser_16())) == 324

    def test_a_large_clique_needs_no_recursion(self):
        # one maximal clique 1200 deep, past the default recursion limit
        n = 1200
        full = (1 << n) - 1
        adj = [0] + [full & ~(1 << v) for v in range(n)]
        assert graphs_mod._maximal_clique_masks(adj, full) == [full]
