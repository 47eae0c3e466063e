"""Information-graph validation and exact combinatorics."""

from itertools import combinations

import pytest

import infogreedy.graphs as graphs_mod
from infogreedy import (
    AdmissibilityError,
    GuardRefusal,
    InputError,
    InfoGraph,
    complete_graph,
    edgeless_graph,
    exact_numbers,
    maximal_cliques,
    sibling_property,
    to_dot,
)
from infogreedy.verify import labelled_graphs
from conftest import clique_matrix, random_graph

K4_MINUS_EDGE = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
FIVE_CYCLE = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]


class TestConstruction:
    def test_accepts_admissible_edges(self):
        g = InfoGraph(4, K4_MINUS_EDGE)
        assert g.m == 5
        assert g.in_neighbors(3) == {1, 2}
        assert g.in_neighbors(1) == frozenset()

    def test_rejects_backward_edge(self):
        with pytest.raises(AdmissibilityError):
            InfoGraph(3, [(2, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(AdmissibilityError):
            InfoGraph(3, [(2, 2)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            InfoGraph(3, [(1, 7)])

    def test_duplicate_edges_collapse(self):
        assert InfoGraph(3, [(1, 2), (1, 2)]).m == 1

    def test_first_agent_never_observes(self):
        for g in labelled_graphs(4):
            assert g.in_neighbors(1) == frozenset()


class TestMaximalCliques:
    def test_near_clique_quartet(self):
        got = maximal_cliques(InfoGraph(4, K4_MINUS_EDGE))
        assert got == [frozenset({1, 2, 3}), frozenset({1, 2, 4})]

    def test_edgeless_gives_singletons(self):
        assert maximal_cliques(edgeless_graph(4)) == [
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})
        ]

    def test_five_cycle_gives_its_edges(self):
        got = maximal_cliques(InfoGraph(5, FIVE_CYCLE))
        assert got == sorted(
            (frozenset(e) for e in FIVE_CYCLE), key=lambda c: (len(c), sorted(c))
        )

    def test_brute_force_agreement(self, rng):
        # maximality and cliqueness against direct subset checks
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n)
            cliques = maximal_cliques(g)
            seen = set()
            for c in cliques:
                assert c not in seen
                seen.add(c)
                assert all(g.adjacent(i, j) for i, j in combinations(sorted(c), 2))
                for v in range(1, n + 1):
                    if v not in c:
                        assert not all(g.adjacent(v, u) for u in c)
            # every vertex appears in some maximal clique
            assert set().union(*cliques) == set(range(1, n + 1))


class TestCliqueMatrix:
    def test_near_clique_quartet_has_eleven_rows(self):
        mat = clique_matrix(InfoGraph(4, K4_MINUS_EDGE))
        assert len(mat.rows) == 11
        assert mat.cliques[0] == frozenset({1})
        assert mat.cliques[-1] == frozenset({1, 2, 4})
        assert mat.rows[-1] == (1, 1, 0, 1)

    def test_single_node(self):
        mat = clique_matrix(InfoGraph(1, []))
        assert mat.rows == ((1,),)

    def test_triangle_has_seven_rows(self):
        assert len(clique_matrix(complete_graph(3)).rows) == 7

    def test_edgeless_row_count_is_n(self):
        for n in range(1, 8):
            assert len(clique_matrix(edgeless_graph(n)).rows) == n

    def test_complete_row_count_is_all_nonempty_subsets(self):
        for n in range(1, 9):
            assert len(clique_matrix(complete_graph(n)).rows) == (1 << n) - 1

    def test_guard_refusal(self):
        with pytest.raises(GuardRefusal):
            clique_matrix(complete_graph(6), guard=10)


class TestExactNumbers:
    def test_near_clique_quartet(self):
        nums = exact_numbers(InfoGraph(4, K4_MINUS_EDGE))
        assert (nums.alpha, nums.k, nums.omega) == (2, 2, 3)
        assert nums.max_independent_sets == (frozenset({3, 4}),)

    def test_five_cycle(self):
        nums = exact_numbers(InfoGraph(5, FIVE_CYCLE))
        assert (nums.alpha, nums.k) == (2, 3)
        assert len(nums.max_independent_sets) == 5

    def test_edgeless(self):
        nums = exact_numbers(edgeless_graph(6))
        assert (nums.alpha, nums.k, nums.omega) == (6, 6, 1)

    def test_complete(self):
        nums = exact_numbers(complete_graph(5))
        assert (nums.alpha, nums.k, nums.omega) == (1, 1, 5)

    def test_guard(self):
        with pytest.raises(GuardRefusal):
            exact_numbers(edgeless_graph(17))

    def test_cover_bounded_by_greedy_partition(self, rng):
        # k is a genuine minimum: never above a greedy clique partition and
        # never below alpha
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            nums = exact_numbers(g)
            remaining = set(range(1, g.n + 1))
            greedy_blocks = 0
            while remaining:
                v = min(remaining)
                block = {v}
                for u in sorted(remaining - {v}):
                    if all(g.adjacent(u, w) for w in block):
                        block.add(u)
                remaining -= block
                greedy_blocks += 1
            assert nums.alpha <= nums.k <= greedy_blocks


class TestSiblingProperty:
    def test_five_cycle_has_it_with_documented_witness(self):
        verdict = sibling_property(InfoGraph(5, FIVE_CYCLE))
        assert verdict.has_property
        assert (frozenset({2, 4}), 2, 3) in verdict.witnesses
        for jset, i, w in verdict.witnesses:
            g = InfoGraph(5, FIVE_CYCLE)
            assert i in jset and w not in jset and i in g.in_neighbors(w)

    def test_near_clique_quartet_lacks_it(self):
        verdict = sibling_property(InfoGraph(4, K4_MINUS_EDGE))
        assert not verdict.has_property
        assert verdict.audit["unique_maximum"]
        assert verdict.audit["contains_last_two"]

    def test_edgeless_lacks_it_vacuously(self):
        verdict = sibling_property(edgeless_graph(4))
        assert not verdict.has_property
        assert verdict.audit.get("vacuous")

    def test_star_direction_matters(self):
        # center first: both leaves observe only the center, no leaf is
        # observed from outside the unique maximum independent set
        assert not sibling_property(InfoGraph(3, [(1, 2), (1, 3)])).has_property
        # center last: it observes both leaves
        assert sibling_property(InfoGraph(3, [(1, 3), (2, 3)])).has_property

    def test_path_has_it(self):
        assert sibling_property(InfoGraph(3, [(1, 2), (2, 3)])).has_property

    def test_structural_audit_never_fails_exhaustively(self):
        # sibling_property raises InternalConsistencyError if a non-sibling
        # graph violates its four structural consequences; sweep everything
        for n in range(1, 6):
            for g in labelled_graphs(n):
                sibling_property(g)


class TestDot:
    def test_contains_edges_and_nodes(self):
        text = to_dot(InfoGraph(3, [(1, 3)]))
        assert "1 -> 3;" in text and "2;" in text

    def test_clusters(self):
        text = to_dot(edgeless_graph(2), clusters=[(1,), (2,)])
        assert "subgraph cluster_0" in text


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStoredFacts:
    def test_each_fact_is_computed_once_per_graph(self, monkeypatch):
        searches = _count_calls(monkeypatch, graphs_mod, "_max_independent_masks")
        enumerations = _count_calls(monkeypatch, graphs_mod, "_find_maximal_cliques")
        g = InfoGraph(5, FIVE_CYCLE)
        first = (exact_numbers(g), sibling_property(g), maximal_cliques(g))
        for _ in range(3):
            assert (exact_numbers(g), sibling_property(g), maximal_cliques(g)) == first
        assert len(searches) == 1 and len(enumerations) == 1

    def test_equal_graphs_do_not_share_facts(self, monkeypatch):
        searches = _count_calls(monkeypatch, graphs_mod, "_max_independent_masks")
        g1, g2 = InfoGraph(4, K4_MINUS_EDGE), InfoGraph(4, K4_MINUS_EDGE)
        assert g1 == g2 and hash(g1) == hash(g2) and g1 is not g2
        assert exact_numbers(g1) == exact_numbers(g2)
        assert len(searches) == 2

    def test_mutating_returned_cliques_leaves_the_graph_alone(self):
        g = InfoGraph(4, K4_MINUS_EDGE)
        got = maximal_cliques(g)
        got.append(frozenset({4}))
        got.pop(0)
        assert maximal_cliques(g) == [frozenset({1, 2, 3}), frozenset({1, 2, 4})]
        assert exact_numbers(g).omega == 3

    def test_sibling_audit_is_read_only(self):
        verdict = sibling_property(InfoGraph(4, K4_MINUS_EDGE))
        with pytest.raises(TypeError):
            verdict.audit["unique_maximum"] = False
        assert verdict.audit["unique_maximum"]

    def test_guard_is_checked_before_the_stored_value(self, monkeypatch):
        g = InfoGraph(5, FIVE_CYCLE)
        exact_numbers(g)
        sibling_property(g)
        monkeypatch.setattr(graphs_mod, "EXACT_GUARD", 4)
        with pytest.raises(GuardRefusal):
            exact_numbers(g)
        with pytest.raises(GuardRefusal):
            sibling_property(g)
