"""Acceptance suite: one test per release criterion, at the full size.

Each criterion is one function in ``infogreedy.verify``; ``infogreedy
verify`` runs the same functions at a quick size.  A criterion returns
``None`` or its first failing case, which the assertion prints.  What is
checked here and nowhere else is independent of the library: the
closed-form guarantee curve, the exhaustive no-sibling minimality search,
the shadow classes of ``conftest``, and the audit of every criterion-6
instance.  Every assertion is exact; a `pytest -s` run reads as a checklist.
"""

import random
from fractions import Fraction
from math import ceil, floor

from infogreedy import audit_properties, efficiency_curve, min_edges_no_sibling, verify
from infogreedy.graphs import _max_independent_masks
from infogreedy.verify import labelled_graphs
from conftest import random_graph, random_wsc_instance, unlabeled_classes

F = Fraction

PAIR_BUDGET = 500  # criteria 5 and 6 check this many cases
PROBE_BUDGET = 2000  # criterion 2


def passes(n: int, failure: str | None, message: str):
    assert failure is None, failure
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_demo_cover_reproduction():
    passes(1, verify.demo_cover(),
           "committed demo instance gives 9 / 8 / 6 with ratio 6/9 exactly")


def test_criterion_2_near_clique_quartet_analysis():
    passes(2, verify.near_clique_quartet(PROBE_BUDGET),
           "near-clique quartet: alpha=k=2, omega=3, a*=k*=2, bracket "
           "[1/3, 1/2], probe minimum exactly 1/2")


def test_criterion_3_five_cycle_analysis():
    passes(3, verify.five_cycle(),
           "five-cycle: alpha=2, k=3, a*=k*=5/2 at the all-halves point, "
           "sibling property with observer w=3, certificates 2/5 and 1/3")


def test_criterion_4_pileup_reproduction():
    passes(4, verify.pileup(),
           "pile-up trio: optimum 3, worst chain 1, ratio 1/3 = 1/(a*+1), "
           "matching the generated sibling instance")


def test_criterion_5_bracket_and_exact_upper_certificates():
    rng = random.Random(20180521)
    pairs = []
    for _ in range(PAIR_BUDGET):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        pairs.append((random_wsc_instance(rng, n, max_targets=10), g))
    graphs = list(dict.fromkeys(g for _, g in pairs))
    passes(5, verify.bracket_floor(pairs) or verify.upper_certificates(graphs),
           f"{len(pairs)} seeded (graph, instance) pairs respect the lower "
           f"bound; every distinct graph's upper-bound instance realizes "
           f"1/a* exactly ({len(graphs)} graphs)")


def test_criterion_6_full_information_floor():
    rng = random.Random(1978)
    instances = []
    for _ in range(PAIR_BUDGET):
        n = rng.randint(1, 6)
        instances.append(random_wsc_instance(rng, n, max_targets=8))
    for inst in instances:
        assert audit_properties(inst.oracle).ok, inst
    passes(6, verify.full_information_floor(instances),
           f"{len(instances)} audited instances with full information, none below 1/2")


def test_criterion_7_duality_chain_exhaustive():
    classes = [g for n in range(1, 7) for g in unlabeled_classes(n)]
    passes(7, verify.duality_chain(classes),
           f"alpha <= a* = k* <= k with exact equality across all "
           f"{len(classes)} shadow classes of graphs with n <= 6")


def test_criterion_8_closed_form_edge_counts():
    passes(8, verify.edge_counts(),
           "closed-form edge count matches the construction on all (n, r) "
           "pairs up to n=30")


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
    assert {p.m: p.gamma for p in efficiency_curve(10)} == _independent_curve(10)
    passes(9, verify.guarantee_curve(),
           "ten-agent curve is piecewise constant, 1/4 across budgets "
           "12..19, 1/3 at 20, 1/2 at 44 and 45, and matches the "
           "closed-form recomputation at every budget")


def test_criterion_10_design_optimality_exhaustive():
    passes(10, verify.design_optimality(5),
           "for n <= 5 and every budget, no admissible graph carries an "
           "instance-certified efficiency above the emitted design's "
           "guarantee")


def _fast_alpha_sibling(n: int, g) -> tuple[int, bool]:
    alpha, masks = _max_independent_masks(g)
    for jmask in masks:
        for w in range(1, n + 1):
            if not jmask >> (w - 1) & 1 and g.in_masks[w] & jmask:
                return alpha, True
    return alpha, False


def test_criterion_11_no_sibling_edge_minimum():
    # exhaustive minimality for n <= 6: nothing smaller exists
    for n in range(3, 7):
        best: dict[int, int] = {}
        for g in labelled_graphs(n):
            alpha, sib = _fast_alpha_sibling(n, g)
            if sib:
                continue
            if alpha not in best or g.m < best[alpha]:
                best[alpha] = g.m
        for r in range(2, n):
            assert best[r] == min_edges_no_sibling(n, r).m_min, (n, r)
    passes(11, verify.no_sibling_witnesses(),
           "witnesses up to n=10 hit the closed-form minimum with alpha=r "
           "and no sibling property; exhaustive search at n <= 6 finds "
           "nothing smaller")
