"""Acceptance suite: one test per release criterion, exact tolerances.

Every assertion is exact rational equality or an exact ordering; there are
no float tolerances anywhere.  Each criterion prints its own PASS line so a
`pytest -s` run reads as a checklist.
"""

import random
from fractions import Fraction
from math import ceil, floor

from infogreedy import (
    InfoGraph,
    adversarial_search,
    alpha_star,
    alpha_star_solution,
    audit_properties,
    brute_force_opt,
    complement_turan,
    complete_graph,
    edge_count,
    efficiency,
    efficiency_bounds,
    efficiency_curve,
    exact_numbers,
    k_star,
    min_edges_no_sibling,
    optimal_structure,
    run_generalized_greedy,
    sibling_instance,
    sibling_property,
    solve_lp,
    upper_bound_instance,
)
from infogreedy.graphs import _max_independent_masks
from infogreedy.lp import cover_lp
from infogreedy.verify import load_fixture_graph, load_fixture_instance
from conftest import all_graphs, all_pairs, random_wsc_instance, unlabeled_classes

F = Fraction

PAIR_BUDGET = 500  # criteria 5 and 6 sample at least this many cases


def report(n: int, message: str):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_demo_cover_reproduction():
    inst = load_fixture_instance("demo_cover_instance.json")
    g = load_fixture_graph("demo_cover_graph.json")
    opt = brute_force_opt(inst)
    full = run_generalized_greedy(inst, complete_graph(g.n), "worst")
    constrained = run_generalized_greedy(inst, g, "worst")
    rep = efficiency(inst, g)
    assert opt.value == 9
    assert full.value == 8
    assert constrained.value == 6
    assert rep.gamma == F(6, 9)
    report(1, "committed demo instance gives 9 / 8 / 6 with ratio 6/9 exactly")


def test_criterion_2_near_clique_quartet_analysis():
    g = load_fixture_graph("k4_minus_edge.json")
    nums = exact_numbers(g)
    assert (nums.alpha, nums.k, nums.omega) == (2, 2, 3)
    assert alpha_star(g) == 2
    assert k_star(g) == 2
    bounds = efficiency_bounds(g)
    assert (bounds.lower, bounds.upper) == (F(1, 3), F(1, 2))
    result = adversarial_search(g, budget=2000, seed=0)
    assert result.min_gamma == F(1, 2)
    report(2, "near-clique quartet: alpha=k=2, omega=3, a*=k*=2, bracket "
              "[1/3, 1/2], probe minimum exactly 1/2")


def test_criterion_3_five_cycle_analysis():
    g = load_fixture_graph("five_cycle.json")
    nums = exact_numbers(g)
    assert (nums.alpha, nums.k) == (2, 3)
    value, point = alpha_star_solution(g)
    assert value == F(5, 2)
    assert k_star(g) == F(5, 2)
    assert point == (F(1, 2),) * 5
    verdict = sibling_property(g)
    assert verdict.has_property
    assert (frozenset({2, 4}), 2, 3) in verdict.witnesses
    report(3, "five-cycle: alpha=2, k=3, a*=k*=5/2 at the all-halves point, "
              "sibling property with observer w=3")


def test_criterion_4_pileup_reproduction():
    g = load_fixture_graph("single_edge_trio.json")
    inst = load_fixture_instance("pileup_cover_instance.json")
    rep = efficiency(inst, g)
    assert rep.opt_value == 3
    assert rep.sol_value == 1
    assert rep.gamma == F(1, 3)
    assert rep.gamma == 1 / (alpha_star(g) + 1)
    cert = sibling_instance(g)
    assert cert.realized.gamma == F(1, 3)
    assert cert.instance.actions == inst.actions
    report(4, "pile-up trio: optimum 3, worst chain 1, ratio 1/3 = 1/(a*+1), "
              "matching the generated sibling instance")


def test_criterion_5_bracket_and_exact_upper_certificates():
    rng = random.Random(20180521)
    upper_cache: dict = {}
    checked = 0
    for _ in range(PAIR_BUDGET):
        n = rng.randint(1, 6)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = InfoGraph(n, [e for e in all_pairs(n) if rng.random() < p])
        inst = random_wsc_instance(rng, n, max_targets=10)
        a_star = alpha_star(g)
        rep = efficiency(inst, g)
        assert rep.gamma >= 1 / (a_star + 1), (g, inst)
        key = (g.n, g.edges)
        if key not in upper_cache:
            cert = upper_bound_instance(g)
            assert cert.realized.gamma == 1 / a_star, g
            upper_cache[key] = cert.realized.gamma
        checked += 1
    assert checked >= 500
    report(5, f"{checked} seeded (graph, instance) pairs respect the lower "
              f"bound; every distinct graph's upper-bound instance realizes "
              f"1/a* exactly ({len(upper_cache)} graphs)")


def test_criterion_6_full_information_floor():
    rng = random.Random(1978)
    checked = 0
    while checked < PAIR_BUDGET:
        n = rng.randint(1, 6)
        inst = random_wsc_instance(rng, n, max_targets=8)
        assert audit_properties(inst.oracle).ok
        rep = efficiency(inst, complete_graph(n))
        assert rep.gamma >= F(1, 2), inst
        checked += 1
    report(6, f"{checked} audited instances with full information, none below 1/2")


def test_criterion_7_duality_chain_exhaustive():
    classes = 0
    for n in range(1, 7):
        for g in unlabeled_classes(n):
            nums = exact_numbers(g)
            a = alpha_star(g)
            k = k_star(g)
            assert a == k == solve_lp(cover_lp(g)).optimum
            assert nums.alpha <= a <= nums.k
            classes += 1
    report(7, f"alpha <= a* = k* <= k with exact equality across all {classes} "
              f"shadow classes of graphs with n <= 6")


def test_criterion_8_closed_form_edge_counts():
    pairs = 0
    for n in range(1, 31):
        for r in range(1, n + 1):
            assert complement_turan(n, r).graph.m == edge_count(n, r)
            pairs += 1
    report(8, f"closed-form edge count matches the construction on {pairs} "
              f"(n, r) pairs up to n=30")


def _independent_curve(n: int):
    """Second code path for the guarantee curve, from the closed form only."""

    def blocks_edges(nn, rr):
        big = nn % rr
        hi = ceil(nn / rr)
        lo = floor(nn / rr)
        return (big * hi * (hi - 1) + (rr - big) * lo * (lo - 1)) // 2

    out = {}
    for m in range(n * (n - 1) // 2 + 1):
        if n >= 2 and m == n * (n - 1) // 2 - 1:
            out[m] = F(1, 2)
            continue
        r = next(rr for rr in range(1, n + 1) if blocks_edges(n, rr) <= m)
        out[m] = F(1, n) if r == n else F(1, 1 + r)
    return out


def test_criterion_9_ten_agent_curve():
    curve = efficiency_curve(10)
    vals = {p.m: p.gamma for p in curve}
    assert all(
        curve[i].gamma <= curve[i + 1].gamma for i in range(len(curve) - 1)
    )
    for m in range(12, 20):
        assert vals[m] == F(1, 4)
    assert vals[20] == F(1, 3)
    assert vals[44] == F(1, 2) and vals[45] == F(1, 2)
    recomputed = _independent_curve(10)
    assert vals == recomputed
    report(9, "ten-agent curve is piecewise constant, 1/4 across budgets "
              "12..19, 1/3 at 20, 1/2 at 44 and 45, and matches the "
              "closed-form recomputation at every budget")


def test_criterion_10_design_optimality_exhaustive():
    for n in range(1, 6):
        certs = []
        for g in all_graphs(n):
            cert = upper_bound_instance(g).realized.gamma
            if sibling_property(g):
                cert = min(cert, sibling_instance(g).realized.gamma)
            certs.append((g.m, cert))
        for m in range(n * (n - 1) // 2 + 1):
            guarantee = optimal_structure(n, m).gamma_guaranteed
            for edges, cert in certs:
                if edges <= m:
                    assert cert <= guarantee, (n, m, edges, cert, guarantee)
    report(10, "for n <= 5 and every budget, no admissible graph carries an "
               "instance-certified efficiency above the emitted design's "
               "guarantee")


def _fast_alpha_sibling(n: int, g: InfoGraph) -> tuple[int, bool]:
    alpha, masks = _max_independent_masks(g)
    for jmask in masks:
        for w in range(1, n + 1):
            if not jmask >> (w - 1) & 1 and g.in_masks[w] & jmask:
                return alpha, True
    return alpha, False


def test_criterion_11_no_sibling_edge_minimum():
    formula_pairs = 0
    for n in range(3, 11):
        for r in range(2, n):
            w = min_edges_no_sibling(n, r)
            inner, blocks = n - r, min(r - 1, n - r)
            assert w.m_min == edge_count(inner, blocks) + 2 * inner
            assert w.witness.m == w.m_min
            nums = exact_numbers(w.witness)
            assert nums.alpha == r
            assert not sibling_property(w.witness).has_property
            formula_pairs += 1
    # exhaustive minimality for n <= 6: nothing smaller exists
    for n in range(3, 7):
        best: dict[int, int] = {}
        for g in all_graphs(n):
            alpha, sib = _fast_alpha_sibling(n, g)
            if sib:
                continue
            if alpha not in best or g.m < best[alpha]:
                best[alpha] = g.m
        for r in range(2, n):
            assert best[r] == min_edges_no_sibling(n, r).m_min, (n, r)
    report(11, f"{formula_pairs} witnesses up to n=10 hit the closed-form "
               f"minimum with alpha=r and no sibling property; exhaustive "
               f"search at n <= 6 finds nothing smaller")
