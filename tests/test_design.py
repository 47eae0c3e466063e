"""Disjoint-clique designs, edge budgets, and the guarantee curve."""

from fractions import Fraction

import pytest

from infogreedy import (
    InputError,
    alpha_star,
    complement_turan,
    complete_graph,
    edge_count,
    efficiency_curve,
    exact_numbers,
    min_edges_no_sibling,
    optimal_structure,
    sibling_property,
    turan_within_budget,
)
from infogreedy.design import CASE_CLIQUE_MINUS_EDGE, CASE_TURAN

F = Fraction


class TestComplementTuran:
    def test_eight_into_three_blocks(self):
        d = complement_turan(8, 3)
        assert [len(b) for b in d.partition] == [3, 3, 2]
        assert d.graph.m == 7

    def test_trivial_ends(self):
        assert complement_turan(5, 5).graph.m == 0
        assert complement_turan(5, 1).graph == complete_graph(5)

    def test_rejects_bad_r(self):
        with pytest.raises(InputError):
            complement_turan(4, 5)
        with pytest.raises(InputError):
            complement_turan(4, 0)

    def test_blocks_are_contiguous_descending(self):
        d = complement_turan(11, 4)
        sizes = [len(b) for b in d.partition]
        assert sizes == sorted(sizes, reverse=True)
        flat = [v for b in d.partition for v in b]
        assert flat == list(range(1, 12))


class TestEdgeCount:
    def test_known_values(self):
        assert edge_count(10, 3) == 12
        assert edge_count(10, 2) == 20
        assert edge_count(7, 2) == 9
        assert edge_count(6, 6) == 0

    def test_matches_construction_up_to_thirty(self):
        for n in range(1, 31):
            for r in range(1, n + 1):
                assert complement_turan(n, r).graph.m == edge_count(n, r)


class TestTuranWithinBudget:
    def test_dead_zone_budgets_share_a_design(self):
        assert turan_within_budget(10, 12).r == 3
        assert turan_within_budget(10, 19).r == 3
        assert turan_within_budget(10, 20).r == 2

    def test_zero_budget_is_edgeless(self):
        d = turan_within_budget(7, 0)
        assert d.r == 7 and d.graph.m == 0

    def test_lower_bound_start_is_valid(self):
        # the arithmetic starting point never overshoots the true minimum
        from math import ceil

        for n in range(1, 16):
            for m in range(n * (n - 1) // 2 + 1):
                start = max(1, ceil(n * n / (2 * m + n)))
                best = turan_within_budget(n, m).r
                assert start <= best


class TestOptimalStructure:
    def test_two_five_blocks(self):
        res = optimal_structure(10, 20)
        assert res.case_tag == CASE_TURAN
        assert [len(b) for b in res.partition] == [5, 5]
        assert res.gamma_guaranteed == F(1, 3)

    def test_one_short_of_complete(self):
        res = optimal_structure(4, 5)
        assert res.case_tag == CASE_CLIQUE_MINUS_EDGE
        assert res.gamma_guaranteed == F(1, 2)
        assert sorted(res.graph.edges) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

    def test_complete_budget(self):
        res = optimal_structure(10, 45)
        assert res.gamma_guaranteed == F(1, 2)

    def test_budget_out_of_range(self):
        with pytest.raises(InputError):
            optimal_structure(4, 7)

    def test_designs_certify_their_guarantee(self):
        # every design's guarantee is realized by a constructed instance:
        # sibling designs meet 1/(1+alpha) with alpha = k, the edgeless
        # design meets 1/n, and clique-minus-edge realizes exactly 1/2
        from infogreedy import adversarial_search, sibling_instance

        for n in (1, 2, 3, 4, 5):
            for m in range(n * (n - 1) // 2 + 1):
                res = optimal_structure(n, m)
                g = res.graph
                nums = exact_numbers(g)
                if res.case_tag == CASE_CLIQUE_MINUS_EDGE:
                    probe = adversarial_search(g, budget=40, seed=1)
                    assert probe.min_gamma == res.gamma_guaranteed == F(1, 2)
                elif sibling_property(g):
                    cert = sibling_instance(g)
                    assert nums.alpha == nums.k
                    assert cert.realized.gamma == res.gamma_guaranteed
                else:
                    # edgeless: guarantee is 1/n
                    assert g.m == 0 and res.gamma_guaranteed == F(1, g.n)


class TestBlockDesignFacts:
    def test_alpha_k_and_fractional_agree_with_block_count(self):
        for n in range(1, 13):
            for r in range(1, n + 1):
                g = complement_turan(n, r).graph
                nums = exact_numbers(g)
                assert nums.alpha == nums.k == r
                assert alpha_star(g) == r

    def test_sibling_unless_edgeless(self):
        for n in range(2, 11):
            for r in range(1, n + 1):
                g = complement_turan(n, r).graph
                assert sibling_property(g).has_property == (r < n)


class TestEfficiencyCurve:
    def test_ten_agent_landmarks(self):
        curve = efficiency_curve(10)
        vals = {p.m: p.gamma for p in curve}
        assert all(vals[m] == F(1, 4) for m in range(12, 20))
        assert vals[20] == F(1, 3)
        assert vals[44] == F(1, 2) and vals[45] == F(1, 2)
        assert vals[0] == F(1, 10)

    def test_single_agent(self):
        curve = efficiency_curve(1)
        assert len(curve) == 1 and curve[0].gamma == 1

    def test_nondecreasing_and_terminal_half(self):
        for n in range(2, 11):
            curve = efficiency_curve(n)
            assert all(
                curve[i].gamma <= curve[i + 1].gamma for i in range(len(curve) - 1)
            )
            assert curve[-1].gamma == F(1, 2)
            assert curve[-2].gamma == F(1, 2)

    def test_matches_optimal_structure_row_by_row(self):
        for n in range(1, 41):
            curve = efficiency_curve(n)
            assert [p.m for p in curve] == list(range(n * (n - 1) // 2 + 1))
            for p in curve:
                res = optimal_structure(n, p.m)
                r = 2 if res.case_tag == CASE_CLIQUE_MINUS_EDGE else len(res.partition)
                assert (p.gamma, p.r, p.case_tag) == (res.gamma_guaranteed, r, res.case_tag)


class TestNoSiblingWitness:
    def test_quartet_witness_is_the_near_clique(self):
        w = min_edges_no_sibling(4, 2)
        assert w.m_min == 5
        assert sorted(w.witness.edges) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

    def test_out_of_domain(self):
        with pytest.raises(InputError):
            min_edges_no_sibling(5, 5)
        with pytest.raises(InputError):
            min_edges_no_sibling(5, 1)

    def test_ten_three(self):
        w = min_edges_no_sibling(10, 3)
        assert w.m_min == edge_count(7, 2) + 14 == 23

    def test_all_witnesses_to_ten(self):
        for n in range(3, 11):
            for r in range(2, n):
                w = min_edges_no_sibling(n, r)
                nums = exact_numbers(w.witness)
                assert w.witness.m == w.m_min
                assert nums.alpha == r
                assert not sibling_property(w.witness).has_property
