"""The release criteria, each one function, and the ``infogreedy verify`` self-check.

Each criterion returns ``None`` when it holds, or a description of its first
failing case.  Its only inputs are the cases to check, so one predicate
serves two sizes: ``CHECKS`` runs every criterion at a quick size for
``infogreedy verify`` (one PASS or FAIL line each), and
``tests/test_acceptance.py`` runs the same functions at a full size.  The
seeded families are generated lazily, on the call that checks them.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from importlib import resources
from typing import Iterable, Iterator

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
from .oracles import Instance, audit_properties, build_wsc, make_instance


def _fixture(name: str, parse):
    """A bundled fixture, read by ``serialize.graph_from_obj`` or ``instance_from_obj``."""
    return parse(json.loads(resources.files("infogreedy.fixtures").joinpath(name).read_text()))


def _mismatches(facts: dict) -> str | None:
    """Each fact is ``(got, want)``; names those that differ, or None."""
    bad = [f"{name} {got} (want {want})" for name, (got, want) in facts.items() if got != want]
    return ", ".join(bad) or None


def _instance_text(inst: Instance) -> str:
    return json.dumps(serialize.instance_to_obj(inst), sort_keys=True)


def labelled_graphs(n: int) -> Iterator[InfoGraph]:
    """Every admissible graph on agents 1..n, one per edge subset.

    Isomorphic labellings are kept apart: each is a different LP and, for
    the sibling property, a different graph.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for bits in range(1 << len(pairs)):
        yield InfoGraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------


def demo_cover() -> str | None:
    """The bundled demo instance: optimum 9, full-information greedy 8,
    constrained greedy 6, ratio 2/3."""
    inst = _fixture("demo_cover_instance.json", serialize.instance_from_obj)
    g = _fixture("demo_cover_graph.json", serialize.graph_from_obj)
    return _mismatches({
        "optimum": (brute_force_opt(inst).value, 9),
        "full greedy": (run_generalized_greedy(inst, complete_graph(g.n), "worst").value, 8),
        "constrained greedy": (run_generalized_greedy(inst, g, "worst").value, 6),
        "ratio": (efficiency(inst, g).gamma, Fraction(2, 3)),
    })


def near_clique_quartet(probe_budget: int) -> str | None:
    """K4 minus an edge: alpha = k = 2, omega = 3, a* = k* = 2, bracket
    [1/3, 1/2] with a tight upper end, no sibling property, and a probe of
    ``probe_budget`` instances whose minimum is exactly 1/2."""
    g = _fixture("k4_minus_edge.json", serialize.graph_from_obj)
    nums = exact_numbers(g)
    bounds = efficiency_bounds(g)
    return _mismatches({
        "alpha, k, omega": ((nums.alpha, nums.k, nums.omega), (2, 2, 3)),
        "a*": (alpha_star(g), 2),
        "k*": (k_star(g), 2),
        "bracket": ((bounds.lower, bounds.upper), (Fraction(1, 3), Fraction(1, 2))),
        "upper end tight": (bounds.tight["upper"], True),
        "sibling property": (sibling_property(g).has_property, False),
        "probe minimum": (adversarial_search(g, budget=probe_budget, seed=0).min_gamma,
                          Fraction(1, 2)),
    })


def five_cycle() -> str | None:
    """C5: alpha = 2, k = 3, a* = k* = 5/2 at the all-halves vertex, the
    sibling witness ({2, 4}, 2, 3), and certificates realizing 2/5 and 1/3."""
    g = _fixture("five_cycle.json", serialize.graph_from_obj)
    nums = exact_numbers(g)
    a_star, point = alpha_star_solution(g)
    return _mismatches({
        "alpha, k": ((nums.alpha, nums.k), (2, 3)),
        "a*": (a_star, Fraction(5, 2)),
        "k*": (k_star(g), Fraction(5, 2)),
        "LP vertex": (point, (Fraction(1, 2),) * 5),
        "witness ({2, 4}, 2, 3)": (
            (frozenset({2, 4}), 2, 3) in sibling_property(g).witnesses, True),
        "1/a* certificate": (upper_bound_instance(g).realized.gamma, Fraction(2, 5)),
        "sibling certificate": (sibling_instance(g).realized.gamma, Fraction(1, 3)),
    })


def pileup() -> str | None:
    """The pile-up trio: optimum 3, worst tie chain 1, ratio 1/3 = 1/(a*+1),
    the very instance that ``sibling_instance`` generates."""
    inst = _fixture("pileup_cover_instance.json", serialize.instance_from_obj)
    g = _fixture("single_edge_trio.json", serialize.graph_from_obj)
    rep = efficiency(inst, g)
    sib = sibling_instance(g)
    return _mismatches({
        "optimum": (rep.opt_value, 3),
        "worst chain": (rep.sol_value, 1),
        "ratio": (rep.gamma, Fraction(1, 3)),
        "ratio at 1/(a*+1)": (rep.gamma, 1 / (alpha_star(g) + 1)),
        "sibling certificate": (sib.realized.gamma, Fraction(1, 3)),
        "sibling instance is the fixture": (sib.instance.actions == inst.actions, True),
    })


def duality_chain(graphs: Iterable[InfoGraph]) -> str | None:
    """alpha <= a* = k* <= k on every graph, with k* also solved
    independently as the optimum of ``cover_lp``."""
    for g in graphs:
        nums = exact_numbers(g)
        a_star, k = alpha_star(g), k_star(g)
        cover = solve_lp(cover_lp(g)).optimum
        if not nums.alpha <= a_star == k == cover <= nums.k:
            return (f"{g!r}: alpha {nums.alpha}, a* {a_star}, k* {k}, "
                    f"cover LP {cover}, k {nums.k}")
    return None


def bracket_floor(pairs: Iterable[tuple[Instance, InfoGraph]]) -> str | None:
    """Every (instance, graph) pair with a positive optimum has worst-case
    ratio at least 1/(a*+1)."""
    for inst, g in pairs:
        try:
            gamma = efficiency(inst, g).gamma
        except DegenerateInstanceError:
            continue
        floor = 1 / (alpha_star(g) + 1)
        if gamma < floor:
            return f"{g!r} with {_instance_text(inst)}: ratio {gamma} below {floor}"
    return None


def full_information_floor(instances: Iterable[Instance]) -> str | None:
    """Every instance with a positive optimum has worst-case ratio at least
    1/2 on the complete graph."""
    for inst in instances:
        try:
            gamma = efficiency(inst, complete_graph(inst.n)).gamma
        except DegenerateInstanceError:
            continue
        if gamma < Fraction(1, 2):
            return f"{_instance_text(inst)}: ratio {gamma} below 1/2"
    return None


def upper_certificates(graphs: Iterable[InfoGraph]) -> str | None:
    """Each graph's upper-bound instance realizes exactly 1/a* and its
    oracle audits as normalized, monotone and submodular."""
    for g in graphs:
        cert = upper_bound_instance(g)
        target = 1 / alpha_star(g)
        if cert.realized.gamma != target:
            return f"{g!r}: certificate realizes {cert.realized.gamma}, 1/a* is {target}"
        if not audit_properties(cert.instance.oracle).ok:
            return f"{g!r}: certificate oracle fails its audit"
    return None


def edge_counts() -> str | None:
    """The closed-form edge count matches the construction for every
    1 <= r <= n <= 30."""
    for n in range(1, 31):
        for r in range(1, n + 1):
            built, closed = complement_turan(n, r).graph.m, edge_count(n, r)
            if built != closed:
                return f"(n, r) = ({n}, {r}): construction has {built} edges, closed form {closed}"
    return None


def guarantee_curve() -> str | None:
    """The ten-agent curve never falls, is 1/4 on budgets 12..19, 1/3 at 20
    and 1/2 at 44 and 45; the four-agent design one edge short of complete
    guarantees 1/2."""
    curve = efficiency_curve(10)
    vals = {p.m: p.gamma for p in curve}
    return _mismatches({
        "never falls": (all(a.gamma <= b.gamma for a, b in zip(curve, curve[1:])), True),
        "budgets 12..19": ([vals[m] for m in range(12, 20)], [Fraction(1, 4)] * 8),
        "budget 20": (vals[20], Fraction(1, 3)),
        "budgets 44, 45": ((vals[44], vals[45]), (Fraction(1, 2), Fraction(1, 2))),
        "n=4, m=5 design": (optimal_structure(4, 5).gamma_guaranteed, Fraction(1, 2)),
    })


def no_sibling_witnesses() -> str | None:
    """For 2 <= r < n <= 10 the no-sibling witness has alpha = r, lacks the
    sibling property, and has exactly
    ``edge_count(n - r, min(r - 1, n - r)) + 2(n - r)`` edges."""
    for n in range(3, 11):
        for r in range(2, n):
            w = min_edges_no_sibling(n, r)
            failure = _mismatches({
                "m_min": (w.m_min, edge_count(n - r, min(r - 1, n - r)) + 2 * (n - r)),
                "witness edges": (w.witness.m, w.m_min),
                "alpha": (exact_numbers(w.witness).alpha, r),
                "sibling property": (sibling_property(w.witness).has_property, False),
            })
            if failure:
                return f"(n, r) = ({n}, {r}): {failure}"
    return None


def design_optimality(max_n: int) -> str | None:
    """For n <= max_n and every budget, no labelled graph within the budget
    certifies an efficiency above the emitted design's guarantee."""
    for n in range(1, max_n + 1):
        certs = []
        for g in labelled_graphs(n):
            cert = upper_bound_instance(g).realized.gamma
            if sibling_property(g):
                cert = min(cert, sibling_instance(g).realized.gamma)
            certs.append((g.m, cert, g.edges))
        for m in range(n * (n - 1) // 2 + 1):
            guarantee = optimal_structure(n, m).gamma_guaranteed
            for size, cert, edges in certs:
                if size <= m and cert > guarantee:
                    return (f"{InfoGraph(n, edges)!r} certifies {cert} within budget {m}, "
                            f"design guarantees {guarantee}")
    return None


# ---------------------------------------------------------------------------
# The quick size: ``infogreedy verify``
# ---------------------------------------------------------------------------


def _seeded_graphs(seed: int, count: int, densities: tuple[float, ...]) -> Iterator[InfoGraph]:
    """``count`` graphs with 1..6 agents; each pair's density is drawn anew."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield InfoGraph(n, [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < rng.choice(densities)
        ])


def _floor_cases() -> Iterator[tuple[Instance, InfoGraph]]:
    """120 seeded weighted-cover instances with 1..5 agents, each on a G(n, 1/2)."""
    rng = random.Random(7)
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
        yield inst, InfoGraph(n, edges)


def _report(log, failure: str | None, message: str) -> bool:
    """PASS with ``message``, or FAIL with its title (the text before the
    first ': ') and the first failing case."""
    if failure is None:
        log(True, message)
    else:
        log(False, f"{message.split(': ')[0]}: {failure}")
    return failure is None


def _check_demo_cover(log) -> bool:
    return _report(log, demo_cover(), "demo cover: optimal 9, full greedy 8, constrained "
                   "greedy 6, ratio 2/3 (got 9/8/6/2/3)")


def _check_k4_minus_edge(log) -> bool:
    return _report(log, near_clique_quartet(400), "near-clique quartet: alpha=k=2, omega=3, "
                   "a*=2, bracket [1/3, 1/2], probe floor 1/2 (got min 1/2)")


def _check_five_cycle(log) -> bool:
    return _report(log, five_cycle(), "five-cycle: alpha=2, k=3, a*=5/2 at the all-halves "
                   "vertex, sibling with observer 3, certificates 2/5 and 1/3")


def _check_pileup(log) -> bool:
    return _report(log, pileup(), "pile-up trio: optimum 3, worst tie chain 1, ratio 1/3 "
                   "meets the lower bound (got 1/3)")


def _check_duality_sweep(log) -> bool:
    return _report(log, duality_chain(_seeded_graphs(2024, 120, (0.25, 0.5, 0.75))),
                   "duality sweep: alpha <= a* = k* <= k on 120 seeded graphs")


def _check_duality_exhaustive_small(log) -> bool:
    # not deduplicated: each labelling of a shadow class is a different LP
    graphs = (g for n in range(1, 6) for g in labelled_graphs(n))
    return _report(log, duality_chain(graphs),
                   "duality chain exact on all 1099 admissible graphs with n <= 5")


def _check_floors(log) -> bool:
    failure = None
    for inst, g in _floor_cases():  # one case at a time, so none outlives its check
        failure = bracket_floor([(inst, g)]) or full_information_floor([inst])
        if failure:
            break
    return _report(log, failure, "floor sweep: ratio >= 1/(a*+1) constrained and >= 1/2 "
                   "with full information on 120 seeded instances")


def _check_designs(log) -> bool:
    failure = edge_counts() or guarantee_curve() or no_sibling_witnesses()
    return _report(log, failure, "designs: closed-form edge counts up to n=30, the 10-agent "
                   "curve plateaus at 1/4 on 12..19 and ends at 1/2, no-sibling witnesses "
                   "up to n=10 check out")


def _check_design_optimality_small(log) -> bool:
    return _report(log, design_optimality(4), "design optimality: no graph with n <= 4 "
                   "certifies above the emitted design at any budget")


def _check_certificates(log) -> bool:
    return _report(log, upper_certificates(_seeded_graphs(99, 40, (0.3, 0.6))),
                   "certificates: 40 seeded upper-bound instances realize 1/a* exactly "
                   "and audit as submodular")


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
    stream = stream or sys.stdout

    def log(ok: bool, message: str):
        stream.write(f"{'PASS' if ok else 'FAIL'}  {message}\n")

    results = [check(log) for check in CHECKS]
    good = sum(results)
    stream.write(f"{good}/{len(results)} checks passed\n")
    return good == len(results)
