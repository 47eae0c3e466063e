"""Self-verification: fixture replays and cross-module invariant sweeps.

Run via ``infogreedy verify``.  Each check prints one PASS/FAIL line; the
committed fixtures pin the reference results for the bundled demo instances
and graphs, and the sweeps re-derive the structural invariants (duality
chain, floor guarantees, design consistency) on seeded families.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from . import serialize
from .bounds import adversarial_search, efficiency_bounds, sibling_instance, upper_bound_instance
from .design import (
    complement_turan,
    edge_count,
    efficiency_curve,
    min_edges_no_sibling,
    optimal_structure,
)
from .errors import DegenerateInstanceError
from .graphs import InfoGraph, complete_graph, exact_numbers, sibling_property
from .greedy import brute_force_opt, efficiency, run_generalized_greedy
from .lp import alpha_star, alpha_star_solution, cover_lp, k_star, solve_lp
from .oracles import audit_properties, build_wsc, make_instance


def load_fixture_graph(name: str) -> InfoGraph:
    with resources.files("infogreedy.fixtures").joinpath(name).open() as fh:
        import json

        return serialize.graph_from_obj(json.load(fh))


def load_fixture_instance(name: str):
    with resources.files("infogreedy.fixtures").joinpath(name).open() as fh:
        import json

        return serialize.instance_from_obj(json.load(fh))


def _check_demo_cover(log) -> bool:
    inst = load_fixture_instance("demo_cover_instance.json")
    g = load_fixture_graph("demo_cover_graph.json")
    opt = brute_force_opt(inst)
    full = run_generalized_greedy(inst, complete_graph(g.n), "worst")
    constrained = run_generalized_greedy(inst, g, "worst")
    rep = efficiency(inst, g)
    ok = (
        opt.value == 9
        and full.value == 8
        and constrained.value == 6
        and rep.gamma == Fraction(6, 9)
    )
    log(ok, f"demo cover: optimal 9, full greedy 8, constrained greedy 6, ratio 2/3 "
            f"(got {opt.value}/{full.value}/{constrained.value}/{rep.gamma})")
    return ok


def _check_k4_minus_edge(log) -> bool:
    g = load_fixture_graph("k4_minus_edge.json")
    nums = exact_numbers(g)
    a_star = alpha_star(g)
    bounds = efficiency_bounds(g)
    search = adversarial_search(g, budget=400, seed=0)
    ok = (
        (nums.alpha, nums.k, nums.omega) == (2, 2, 3)
        and a_star == 2
        and k_star(g) == 2
        and (bounds.lower, bounds.upper) == (Fraction(1, 3), Fraction(1, 2))
        and bounds.tight["upper"]
        and not sibling_property(g).has_property
        and search.min_gamma == Fraction(1, 2)
    )
    log(ok, f"near-clique quartet: alpha=k=2, omega=3, a*=2, bracket [1/3, 1/2], "
            f"probe floor 1/2 (got min {search.min_gamma})")
    return ok


def _check_five_cycle(log) -> bool:
    g = load_fixture_graph("five_cycle.json")
    nums = exact_numbers(g)
    a_star, point = alpha_star_solution(g)
    verdict = sibling_property(g)
    upper = upper_bound_instance(g)
    sib = sibling_instance(g)
    ok = (
        (nums.alpha, nums.k) == (2, 3)
        and a_star == Fraction(5, 2)
        and k_star(g) == Fraction(5, 2)
        and point == (Fraction(1, 2),) * 5
        and verdict.has_property
        and any(w == 3 for _, _, w in verdict.witnesses)
        and upper.realized.gamma == Fraction(2, 5)
        and sib.realized.gamma == Fraction(1, 3)
    )
    log(ok, f"five-cycle: alpha=2, k=3, a*=5/2 at the all-halves vertex, sibling "
            f"with observer 3, certificates 2/5 and 1/3")
    return ok


def _check_pileup(log) -> bool:
    inst = load_fixture_instance("pileup_cover_instance.json")
    g = load_fixture_graph("single_edge_trio.json")
    rep = efficiency(inst, g)
    sib = sibling_instance(g)
    ok = (
        rep.opt_value == 3
        and rep.sol_value == 1
        and rep.gamma == Fraction(1, 3)
        and rep.gamma == 1 / (alpha_star(g) + 1)
        and sib.realized.gamma == Fraction(1, 3)
        and sib.instance.actions == inst.actions
    )
    log(ok, f"pile-up trio: optimum 3, worst tie chain 1, ratio 1/3 meets the "
            f"lower bound (got {rep.gamma})")
    return ok


def _duality_chain_holds(g: InfoGraph) -> bool:
    """alpha <= a* = k* <= k, with k* also solved independently by cover_lp."""
    nums = exact_numbers(g)
    a_star = alpha_star(g)
    cover = solve_lp(cover_lp(g)).optimum
    return nums.alpha <= a_star == k_star(g) == cover <= nums.k


def _check_duality_sweep(log) -> bool:
    rng = random.Random(2024)
    ok = True
    for _ in range(120):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < rng.choice((0.25, 0.5, 0.75))
        ]
        g = InfoGraph(n, edges)
        if not _duality_chain_holds(g):
            ok = False
            break
    log(ok, "duality sweep: alpha <= a* = k* <= k on 120 seeded graphs")
    return ok


def _check_floors(log) -> bool:
    rng = random.Random(7)
    ok = True
    for _ in range(120):
        n = rng.randint(1, 5)
        n_targets = rng.randint(1, 8)
        values = [rng.randint(0, 3) for _ in range(n_targets)]
        if not any(values):
            values[0] = 1
        actions = []
        for _ in range(n):
            acts = set()
            for _ in range(rng.randint(1, 4)):
                size = 1 if rng.random() < 0.7 else 2
                acts.add(frozenset(rng.sample(range(n_targets), min(size, n_targets))))
            actions.append(sorted(acts, key=sorted))
        inst = make_instance(build_wsc(values), actions)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = InfoGraph(n, edges)
        try:
            rep = efficiency(inst, g)
            full = efficiency(inst, complete_graph(n))
        except DegenerateInstanceError:
            continue
        if rep.gamma < 1 / (alpha_star(g) + 1) or full.gamma < Fraction(1, 2):
            ok = False
            break
    log(ok, "floor sweep: ratio >= 1/(a*+1) constrained and >= 1/2 with full "
            "information on 120 seeded instances")
    return ok


def _check_designs(log) -> bool:
    ok = True
    for n in range(1, 31):
        for r in range(1, n + 1):
            if complement_turan(n, r).graph.m != edge_count(n, r):
                ok = False
    curve = efficiency_curve(10)
    vals = {p.m: p.gamma for p in curve}
    ok = ok and all(
        curve[i].gamma <= curve[i + 1].gamma for i in range(len(curve) - 1)
    )
    ok = ok and all(vals[m] == Fraction(1, 4) for m in range(12, 20))
    ok = ok and vals[20] == Fraction(1, 3)
    ok = ok and vals[44] == vals[45] == Fraction(1, 2)
    ok = ok and optimal_structure(4, 5).gamma_guaranteed == Fraction(1, 2)
    for n in range(3, 11):
        for r in range(2, n):
            w = min_edges_no_sibling(n, r)
            nums = exact_numbers(w.witness)
            if (
                w.witness.m != w.m_min
                or nums.alpha != r
                or sibling_property(w.witness).has_property
            ):
                ok = False
    log(ok, "designs: closed-form edge counts up to n=30, the 10-agent curve "
            "plateaus at 1/4 on 12..19 and ends at 1/2, no-sibling witnesses "
            "up to n=10 check out")
    return ok


def _check_duality_exhaustive_small(log) -> bool:
    # every admissible graph with up to 5 agents: each edge subset is one
    # labelled graph, so isomorphic shadows are all checked, not deduplicated
    ok = True
    count = 0
    for n in range(1, 6):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if not _duality_chain_holds(InfoGraph(n, edges)):
                ok = False
            count += 1
    log(ok, f"duality chain exact on all {count} admissible graphs with n <= 5")
    return ok


def _check_design_optimality_small(log) -> bool:
    ok = True
    for n in range(1, 5):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        certs = []
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = InfoGraph(n, edges)
            cert = upper_bound_instance(g).realized.gamma
            if sibling_property(g):
                cert = min(cert, sibling_instance(g).realized.gamma)
            certs.append((g.m, cert))
        for m in range(n * (n - 1) // 2 + 1):
            guarantee = optimal_structure(n, m).gamma_guaranteed
            if any(c > guarantee for edges, c in certs if edges <= m):
                ok = False
    log(ok, "design optimality: no graph with n <= 4 certifies above the "
            "emitted design at any budget")
    return ok


def _check_certificates(log) -> bool:
    rng = random.Random(99)
    ok = True
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < rng.choice((0.3, 0.6))
        ]
        g = InfoGraph(n, edges)
        cert = upper_bound_instance(g)
        if cert.realized.gamma != 1 / alpha_star(g):
            ok = False
            break
        if not audit_properties(cert.instance.oracle).ok:
            ok = False
            break
    log(ok, "certificates: 40 seeded upper-bound instances realize 1/a* exactly "
            "and audit as submodular")
    return ok


CHECKS = (
    _check_demo_cover,
    _check_k4_minus_edge,
    _check_five_cycle,
    _check_pileup,
    _check_duality_sweep,
    _check_duality_exhaustive_small,
    _check_floors,
    _check_designs,
    _check_design_optimality_small,
    _check_certificates,
)


def run_all(stream=None) -> bool:
    import sys

    stream = stream or sys.stdout
    results = []

    def log(ok: bool, message: str):
        stream.write(f"{'PASS' if ok else 'FAIL'}  {message}\n")

    for check in CHECKS:
        results.append(check(log))
    total = len(results)
    good = sum(results)
    stream.write(f"{good}/{total} checks passed\n")
    return good == total
