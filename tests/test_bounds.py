"""Efficiency brackets, certified worst-case instances, adversarial probe."""

import gc
import weakref
from fractions import Fraction

import pytest

import infogreedy.bounds as bounds_mod
import infogreedy.graphs as graphs_mod
import infogreedy.lp as lp_mod
from infogreedy import (
    GuardRefusal,
    InfoGraph,
    InputError,
    adversarial_search,
    alpha_star_solution,
    audit_properties,
    capped_sum_tie_safe,
    complete_graph,
    efficiency,
    efficiency_bounds,
    exact_numbers,
    marginal,
    run_generalized_greedy,
    sibling_instance,
    sibling_property,
    upper_bound_instance,
    alpha_star,
)
from infogreedy.bounds import synthesize_shared_table
from infogreedy.errors import DegenerateInstanceError, InfeasibleLpError
from conftest import random_graph, random_wsc_instance

F = Fraction

K4_MINUS_EDGE = InfoGraph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
FIVE_CYCLE = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
SINGLE_EDGE_TRIO = InfoGraph(3, [(1, 2)])
# an orientation where both double observers cross one watched edge, so the
# shared-capacity tie system is provably infeasible for the unique LP vertex
CROSSED_FIVE_CYCLE = InfoGraph(5, [(1, 4), (1, 5), (2, 3), (2, 5), (3, 4)])


class TestBounds:
    def test_near_clique_quartet(self):
        b = efficiency_bounds(K4_MINUS_EDGE)
        assert (b.lower, b.upper) == (F(1, 3), F(1, 2))
        assert b.sibling_upper is None
        assert b.tight == {"lower": False, "upper": True}

    def test_pileup_trio(self):
        b = efficiency_bounds(SINGLE_EDGE_TRIO)
        assert (b.lower, b.upper) == (F(1, 3), F(1, 2))
        assert b.sibling_upper == F(1, 3)
        assert b.tight["lower"] is True

    def test_five_cycle(self):
        b = efficiency_bounds(FIVE_CYCLE)
        assert (b.lower, b.upper) == (F(2, 7), F(2, 5))
        assert b.sibling_upper == F(1, 3)
        assert b.sibling_upper <= b.upper

    def test_lower_strictly_below_upper(self, rng):
        for _ in range(30):
            b = efficiency_bounds(random_graph(rng, rng.randint(1, 6)))
            assert b.lower < b.upper

    def test_guard_refuses_before_cliques_or_simplex(self, monkeypatch):
        work = []
        for module, name in ((lp_mod, "solve_lp"), (graphs_mod, "_maximal_clique_masks")):
            monkeypatch.setattr(module, name, lambda *args, name=name: work.append(name))
        with pytest.raises(GuardRefusal):
            efficiency_bounds(InfoGraph(17, [(1, 2), (2, 3)]))
        assert work == []


class TestUpperBoundInstance:
    def test_near_clique_quartet_capped(self):
        cert = upper_bound_instance(K4_MINUS_EDGE)
        assert cert.predicted_gamma == F(1, 2)
        assert cert.realized.gamma == F(1, 2)
        assert cert.instance.oracle.kind == "capped_sum"
        assert tuple(cert.instance.oracle.weights) == (0, 0, 1, 1)

    def test_single_node_is_optimal(self):
        cert = upper_bound_instance(InfoGraph(1, []))
        assert cert.realized.gamma == 1

    def test_five_cycle_synthesized(self):
        cert = upper_bound_instance(FIVE_CYCLE)
        assert cert.realized.gamma == F(2, 5)
        assert cert.instance.oracle.kind == "two_block"
        assert audit_properties(cert.instance.oracle).ok

    def test_crossed_cycle_falls_back_to_padding(self):
        cert = upper_bound_instance(CROSSED_FIVE_CYCLE)
        assert cert.realized.gamma == F(2, 5)
        assert cert.instance.oracle.kind == "wsc"

    def test_degenerate_face_takes_an_independent_set_indicator(self, monkeypatch):
        # the LP stops at the all-1/2 vertex, which is not tie-safe, but
        # alpha = a* = 3, so the indicator of the first maximum independent
        # set {1, 2, 6} is optimal too and the capped sum needs no synthesis
        def refuse(*args):
            raise AssertionError("table synthesis was called")

        monkeypatch.setattr(bounds_mod, "synthesize_shared_table", refuse)
        g = InfoGraph(6, [(1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 6)])
        a_star, z = alpha_star_solution(g)
        assert a_star == exact_numbers(g).alpha == 3
        assert z == (F(1, 2),) * 6
        assert not capped_sum_tie_safe(z, g)
        cert = upper_bound_instance(g)
        oracle = cert.instance.oracle
        assert oracle.kind == "capped_sum"
        assert tuple(oracle.weights) == (1, 1, 0, 0, 0, 1)
        assert cert.predicted_gamma == cert.realized.gamma == F(1, 3)
        assert oracle.ground_size == 12
        assert audit_properties(oracle).ok

    def test_crossed_cycle_tie_system_provably_infeasible(self):
        z = (F(1, 2),) * 5
        with pytest.raises(InfeasibleLpError):
            synthesize_shared_table(CROSSED_FIVE_CYCLE, z)

    def test_worst_chain_and_optimum_split_the_blocks(self):
        cert = upper_bound_instance(K4_MINUS_EDGE)
        oracle = cert.instance.oracle
        sol = set().union(*cert.realized.sol_profile)
        assert sol == {oracle.u_id(i) for i in range(4)}
        assert cert.realized.sol_value == 1
        # all-private achieves the optimum (zero-weight agents leave ties, so
        # the reported optimal profile may be another maximizer)
        all_private = {oracle.v_id(i) for i in range(4)}
        assert oracle.value(all_private) == cert.realized.opt_value == 2

    def test_audits_and_private_marginal_exhaustive(self, rng):
        # every constructed instance passes the full audit; the private
        # element's marginal is its weight against every base whatsoever
        for _ in range(12):
            n = rng.randint(1, 3)
            g = random_graph(rng, n)
            cert = upper_bound_instance(g)
            oracle = cert.instance.oracle
            assert audit_properties(oracle).ok
            weights = oracle.weights
            for base_mask in range(1 << (2 * n)):
                for agent in range(n):
                    v = 1 << oracle.v_id(agent)
                    if not base_mask & v:
                        assert (
                            oracle.value_mask(base_mask | v)
                            - oracle.value_mask(base_mask)
                            == weights[agent]
                        )

    def test_certificates_are_stored_with_the_graph(self):
        g = InfoGraph(5, FIVE_CYCLE.edges)
        for construct in (upper_bound_instance, sibling_instance):
            first, again = construct(g), construct(g)
            assert again == first
            assert again.instance is first.instance
            assert construct(FIVE_CYCLE).instance is not first.instance

    def test_stored_certificates_are_freed_with_the_graph(self):
        # no reference cycle: dropping the graph frees them without the collector
        g = InfoGraph(5, FIVE_CYCLE.edges)
        oracles = [weakref.ref(construct(g).instance.oracle)
                   for construct in (upper_bound_instance, sibling_instance)]
        gc.collect()  # the engine's recursive search leaves cycles of its own
        gc.disable()
        try:
            del g
            assert [ref() for ref in oracles] == [None, None]
        finally:
            gc.enable()

    def test_realizes_inverse_fractional_number(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 6))
            cert = upper_bound_instance(g)
            assert cert.realized.gamma == 1 / alpha_star(g)


class TestSiblingInstance:
    def test_five_cycle(self):
        cert = sibling_instance(FIVE_CYCLE)
        assert cert.realized.gamma == F(1, 3)

    def test_pileup_trio_matches_fixture_shape(self):
        cert = sibling_instance(SINGLE_EDGE_TRIO)
        assert cert.realized.gamma == F(1, 3)
        assert cert.realized.opt_value == 3
        assert cert.realized.sol_value == 1
        # the observer w = 2 is pinned to its own target
        assert cert.instance.actions[1] == (frozenset({1}),)

    def test_requires_property(self):
        with pytest.raises(InputError):
            sibling_instance(K4_MINUS_EDGE)

    def test_equality_case_realizes_the_lower_bound(self, rng):
        # alpha = k together with the property pins gamma(G) exactly
        hits = 0
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 6))
            verdict = sibling_property(g)
            nums = exact_numbers(g)
            if not verdict or nums.alpha != nums.k:
                continue
            hits += 1
            cert = sibling_instance(g)
            assert cert.realized.gamma == efficiency_bounds(g).lower
        assert hits > 10

    def test_realizes_inverse_alpha_plus_one(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 6))
            if not sibling_property(g):
                continue
            cert = sibling_instance(g)
            assert cert.realized.gamma == F(1, 1 + exact_numbers(g).alpha)

    def test_decoy_fallback_still_exact(self):
        # force the decoy path: every witness pair has the observer watched
        # back by a later member of J
        used_decoy = False
        for edges, n in [
            ([(1, 2), (2, 3)], 3),
            ([(1, 2), (2, 3), (3, 4)], 4),
        ]:
            g = InfoGraph(n, edges)
            verdict = sibling_property(g)
            if not verdict:
                continue
            cert = sibling_instance(g)
            assert cert.realized.gamma == F(1, 1 + exact_numbers(g).alpha)
            if cert.instance.oracle.ground_size == n + 1:
                used_decoy = True
        assert used_decoy


class TestAdversarialSearch:
    def test_near_clique_quartet_floor(self):
        result = adversarial_search(K4_MINUS_EDGE, budget=500, seed=0)
        assert result.min_gamma == F(1, 2)

    def test_pileup_trio(self):
        result = adversarial_search(SINGLE_EDGE_TRIO, budget=500, seed=0)
        assert result.min_gamma == F(1, 3)

    def test_complete_trio_never_below_half(self):
        result = adversarial_search(complete_graph(3), budget=500, seed=0)
        assert result.min_gamma >= F(1, 2)

    def test_reproducible(self):
        a = adversarial_search(FIVE_CYCLE, budget=120, seed=9)
        b = adversarial_search(FIVE_CYCLE, budget=120, seed=9)
        assert a.min_gamma == b.min_gamma and a.evaluated == b.evaluated

    def test_minimum_stays_in_the_bracket(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 5))
            b = efficiency_bounds(g)
            result = adversarial_search(g, budget=60, seed=rng.randint(0, 99))
            assert b.lower <= result.min_gamma <= b.upper


class TestBracketFloorSweep:
    def test_random_instances_respect_the_bracket(self, rng):
        # the realized ratio of any instance never dips below 1/(a*+1)
        for _ in range(80):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            inst = random_wsc_instance(rng, n)
            try:
                rep = efficiency(inst, g)
            except DegenerateInstanceError:
                continue
            assert rep.gamma >= efficiency_bounds(g).lower


class TestNearCliqueChain:
    def test_appendix_inequality_chain(self, rng):
        # the four-agent near-clique argument chains the greedy profile as
        # f(opt) <= f(x_{1:3}) + f(x_{1:2} + x_4) <= 2 f(x_{1:4})
        for _ in range(60):
            inst = random_wsc_instance(rng, 4)
            try:
                rep = efficiency(inst, K4_MINUS_EDGE)
            except DegenerateInstanceError:
                continue
            sol = run_generalized_greedy(inst, K4_MINUS_EDGE, "worst")
            x = [set(a) for a in sol.profile]
            f = lambda s: inst.oracle.value(s)
            lhs = rep.opt_value
            mid = f(x[0] | x[1] | x[2]) + f(x[0] | x[1] | x[3])
            rhs = 2 * f(x[0] | x[1] | x[2] | x[3])
            assert lhs <= mid <= rhs
