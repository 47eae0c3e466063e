"""Greedy execution, tie exploration, brute force, and efficiency reports."""

import random
from fractions import Fraction

import pytest

from infogreedy import (
    DegenerateInstanceError,
    GuardRefusal,
    InfoGraph,
    InputError,
    Instance,
    brute_force_opt,
    build_wsc,
    complete_graph,
    efficiency,
    make_instance,
    run_generalized_greedy,
)
from conftest import random_graph, random_wsc_instance

F = Fraction


def demo_cover():
    oracle = build_wsc([2, 1, 3, 3, 1])
    inst = make_instance(
        oracle, [[[0], [2]], [[1], [2]], [[3], [4]], [[3], [4]]]
    )
    g = InfoGraph(4, [(1, 3), (2, 3), (1, 4)])
    return inst, g


def pileup_cover():
    inst = make_instance(build_wsc([1, 1, 1]), [[[1], [0]], [[1]], [[1], [2]]])
    return inst, InfoGraph(3, [(1, 2)])


class TestGeneralizedGreedy:
    def test_demo_cover_constrained_run(self):
        inst, g = demo_cover()
        out = run_generalized_greedy(inst, g, "worst")
        assert [sorted(a) for a in out.profile] == [[2], [2], [3], [3]]
        assert out.value == 6

    def test_demo_cover_full_information_run(self):
        inst, _ = demo_cover()
        out = run_generalized_greedy(inst, complete_graph(4), "worst")
        assert [sorted(a) for a in out.profile] == [[2], [1], [3], [4]]
        assert out.value == 8

    def test_pileup_worst_chain(self):
        inst, g = pileup_cover()
        out = run_generalized_greedy(inst, g, "worst")
        assert all(a == frozenset({1}) for a in out.profile)
        assert out.value == 1

    def test_dimension_mismatch(self):
        inst, _ = demo_cover()
        with pytest.raises(InputError):
            run_generalized_greedy(inst, InfoGraph(3, []), "worst")

    def test_unknown_policy(self):
        inst, g = demo_cover()
        with pytest.raises(InputError):
            run_generalized_greedy(inst, g, "pessimist")

    def test_branch_guard(self):
        # 8 agents, each tied between two private worthless targets, so no
        # two branch states collapse: 2^8 distinct leaves
        inst = make_instance(
            build_wsc([0] * 16), [[[2 * i], [2 * i + 1]] for i in range(8)]
        )
        g = InfoGraph(8, [])
        with pytest.raises(GuardRefusal):
            run_generalized_greedy(inst, g, "worst", max_branches=100)

    def test_worst_below_other_policies(self, rng):
        for _ in range(60):
            n = rng.randint(1, 5)
            inst = random_wsc_instance(rng, n, max_targets=6)
            g = random_graph(rng, n)
            worst = run_generalized_greedy(inst, g, "worst").value
            assert worst <= run_generalized_greedy(inst, g, "first").value
            assert worst <= run_generalized_greedy(inst, g, "random", seed=3).value

    def test_seeded_random_reproducible(self, rng):
        inst = random_wsc_instance(rng, 4, max_targets=5)
        g = random_graph(rng, 4)
        a = run_generalized_greedy(inst, g, "random", seed=11)
        b = run_generalized_greedy(inst, g, "random", seed=11)
        assert a.profile == b.profile

    def test_first_index_profile_is_a_fixed_point(self, rng):
        # with everything decided, re-running any agent's choice against its
        # observation set reproduces the recorded choice
        for _ in range(40):
            n = rng.randint(1, 5)
            inst = random_wsc_instance(rng, n, max_targets=6)
            g = random_graph(rng, n)
            out = run_generalized_greedy(inst, g, "first")
            oracle = inst.oracle
            for i in range(1, n + 1):
                observed = frozenset().union(
                    *(out.profile[j - 1] for j in g.in_neighbors(i)), frozenset()
                )
                values = [
                    oracle.value(a | observed) for a in inst.actions[i - 1]
                ]
                best = max(values)
                first_best = values.index(best)
                assert out.profile[i - 1] == inst.actions[i - 1][first_best]

    def test_trace_shape(self):
        inst, g = demo_cover()
        out = run_generalized_greedy(inst, g, "worst")
        assert len(out.trace) == 4
        third = out.trace[2]
        assert third.agent == 3
        assert third.observed == {2}  # saw agents 1 and 2 both on target 2
        assert third.chosen in third.tied

    def test_monotone_information_sets(self, rng):
        # adding edges can only grow what each agent observes
        for _ in range(20):
            n = rng.randint(2, 6)
            g1 = random_graph(rng, n, p=0.3)
            extra = [e for e in complete_graph(n).edges if e not in g1.edges]
            g2 = InfoGraph(n, list(g1.edges) + extra[: len(extra) // 2])
            for i in range(1, n + 1):
                assert g1.in_neighbors(i) <= g2.in_neighbors(i)


class TestBruteForce:
    def test_demo_cover_optimum(self):
        inst, _ = demo_cover()
        opt = brute_force_opt(inst)
        assert opt.value == 9
        assert [sorted(a) for a in opt.profile] == [[0], [2], [3], [4]]

    def test_pileup_optimum(self):
        inst, _ = pileup_cover()
        assert brute_force_opt(inst).value == 3

    def test_single_agent(self):
        inst = make_instance(build_wsc([1, 5]), [[[0], [1]]])
        opt = brute_force_opt(inst)
        assert opt.value == 5 and opt.profile == (frozenset({1}),)

    def test_guard(self):
        inst = make_instance(build_wsc([1, 1]), [[[0], [1]]] * 10)
        with pytest.raises(GuardRefusal):
            brute_force_opt(inst, max_profiles=100)


class TestEfficiency:
    def test_demo_cover_ratio(self):
        inst, g = demo_cover()
        assert efficiency(inst, g).gamma == F(6, 9)

    def test_pileup_ratio(self):
        inst, g = pileup_cover()
        rep = efficiency(inst, g)
        assert (rep.gamma, rep.opt_value, rep.sol_value) == (F(1, 3), 3, 1)

    def test_degenerate_instance_rejected(self):
        inst = make_instance(build_wsc([0, 0]), [[[0], [1]]])
        with pytest.raises(DegenerateInstanceError):
            efficiency(inst, InfoGraph(1, []))

    def test_full_information_floor(self, rng):
        # half of optimal, always, with complete information
        for _ in range(80):
            n = rng.randint(1, 6)
            inst = random_wsc_instance(rng, n)
            try:
                rep = efficiency(inst, complete_graph(n))
            except DegenerateInstanceError:
                continue
            assert rep.gamma >= F(1, 2)


def clique_marginal_identity_check(
    inst: Instance, g: InfoGraph, samples: int = 100, seed: int = 0
) -> bool:
    """On a complete graph, marginals along the agent order telescope to f(x).

    Samples random profiles with a seeded generator and verifies
    sum_i [f(x_1..x_i) - f(x_1..x_{i-1})] = f(x) exactly for each.
    """
    if g.m != g.n * (g.n - 1) // 2:
        raise InputError("identity check requires the complete information graph")
    if g.n != inst.n:
        raise InputError(f"graph has {g.n} agents but instance has {inst.n}")
    oracle = inst.oracle
    masks = inst.action_masks()
    rng = random.Random(seed)
    for _ in range(samples):
        picks = [rng.randrange(len(m)) for m in masks]
        prefix = 0
        total = Fraction(0)
        for i in range(inst.n):
            a = masks[i][picks[i]]
            total += oracle.value_mask(prefix | a) - oracle.value_mask(prefix)
            prefix |= a
        if total != oracle.value_mask(prefix):
            return False
    return True


class TestCliqueIdentity:
    def test_telescoping_on_complete_graph(self):
        inst, _ = demo_cover()
        assert clique_marginal_identity_check(inst, complete_graph(4))

    def test_full_information_profile_telescopes_to_eight(self):
        inst, _ = demo_cover()
        f = inst.oracle.value
        profile = [{2}, {1}, {3}, {4}]
        prefix: set = set()
        total = 0
        for x in profile:
            total += f(prefix | x) - f(prefix)
            prefix |= x
        assert total == f(prefix) == 8

    def test_requires_complete_graph(self):
        inst, g = demo_cover()
        with pytest.raises(InputError):
            clique_marginal_identity_check(inst, g)

    def test_random_instances(self, rng):
        for _ in range(10):
            n = rng.randint(1, 5)
            inst = random_wsc_instance(rng, n)
            assert clique_marginal_identity_check(
                inst, complete_graph(n), samples=50, seed=5
            )
