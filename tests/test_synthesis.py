"""Shared-capacity table synthesis: the early stop and its differential check.

Interval propagation stops at the first pass that leaves an interval empty,
and runs on integer numerators over the lcm of the weights' denominators.
The reference below is the earlier loop on Fractions, which ran up to 200
passes before looking, with its own Fraction validator; since bounds only
tighten, both must return the same table or raise the same
``InfeasibleLpError`` on every input.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import infogreedy.bounds as bounds_mod
from infogreedy import InfoGraph, alpha_star_solution, upper_bound_instance
from infogreedy.bounds import synthesize_shared_table
from infogreedy.errors import InfeasibleLpError, InternalConsistencyError
from conftest import all_pairs, unlabeled_classes

ZERO = Fraction(0)
ONE = Fraction(1)

CROSSED_FIVE_CYCLE = InfoGraph(5, [(1, 4), (1, 5), (2, 3), (2, 5), (3, 4)])
CROSSED_SEVEN_CYCLE = InfoGraph(
    7, [(1, 3), (1, 4), (2, 4), (2, 6), (3, 7), (5, 6), (5, 7)]
)


# ---------------------------------------------------------------------------
# Reference: propagation capped at 200 passes, emptiness checked afterwards
# ---------------------------------------------------------------------------


def reference_dense(g: InfoGraph, w: list[Fraction]) -> dict[int, Fraction]:
    n = g.n
    full = (1 << n) - 1

    def wsum(mask: int) -> Fraction:
        total = ZERO
        m = mask
        while m:
            total += w[(m & -m).bit_length() - 1]
            m &= m - 1
        return total

    ties: list[tuple[int, int, Fraction]] = []
    for i in range(1, n + 1):
        nbr = g.in_masks[i]
        sub = nbr
        while True:
            ties.append((sub, sub | (1 << (i - 1)), w[i - 1]))
            if sub == 0:
                break
            sub = (sub - 1) & nbr

    lo = [ZERO] * (1 << n)
    hi = [min(ONE, wsum(m)) for m in range(1 << n)]
    lo[full] = hi[full] = ONE
    for i in range(n):
        lo[1 << i] = hi[1 << i] = w[i]
    lo[0] = hi[0] = ZERO

    singles = [1 << i for i in range(n)]
    changed = True
    passes = 0
    while changed and passes < 200:
        changed = False
        passes += 1
        for a, b, d in ties:
            if lo[a] + d > lo[b]:
                lo[b] = lo[a] + d
                changed = True
            if hi[a] + d < hi[b]:
                hi[b] = hi[a] + d
                changed = True
            if lo[b] - d > lo[a]:
                lo[a] = lo[b] - d
                changed = True
            if hi[b] - d < hi[a]:
                hi[a] = hi[b] - d
                changed = True
        for mask in range(1 << n):
            for s in singles:
                if mask & s:
                    continue
                sup = mask | s
                if lo[mask] > lo[sup]:
                    lo[sup] = lo[mask]
                    changed = True
                if hi[sup] < hi[mask]:
                    hi[mask] = hi[sup]
                    changed = True
        for mask in range(1 << n):
            free = [s for s in singles if not mask & s]
            for sx, sy in combinations(free, 2):
                ax, ay, axy = mask | sx, mask | sy, mask | sx | sy
                cap = hi[ax] + hi[ay] - lo[mask]
                if cap < hi[axy]:
                    hi[axy] = cap
                    changed = True
                floor = lo[axy] + lo[mask] - hi[ay]
                if floor > lo[ax]:
                    lo[ax] = floor
                    changed = True
                floor = lo[axy] + lo[mask] - hi[ax]
                if floor > lo[ay]:
                    lo[ay] = floor
                    changed = True
    for mask in range(1 << n):
        if lo[mask] > hi[mask]:
            raise InfeasibleLpError("reference: empty interval")

    table = {mask: hi[mask] for mask in range(1 << n)}
    if not reference_table_valid(n, w, ties, table):
        raise InternalConsistencyError("reference: invalid table")
    return table


def reference_table_valid(n, w, ties, table) -> bool:
    full = (1 << n) - 1
    if table[0] != 0 or table[full] != 1:
        return False
    for i in range(n):
        if table[1 << i] != w[i]:
            return False
    for a, b, d in ties:
        if table[b] - table[a] != d:
            return False
    singles = [1 << i for i in range(n)]
    for mask in range(1 << n):
        free = [s for s in singles if not mask & s]
        for s in free:
            if table[mask | s] < table[mask]:
                return False
        for sx, sy in combinations(free, 2):
            if table[mask | sx] + table[mask | sy] < table[mask | sx | sy] + table[mask]:
                return False
    return True


# ---------------------------------------------------------------------------
# Inputs: the (graph, weights) pairs that upper_bound_instance synthesizes for
# ---------------------------------------------------------------------------


def synthesis_inputs(monkeypatch, graphs) -> list:
    seen = []
    original = bounds_mod.synthesize_shared_table

    def recorded(g, weights):
        seen.append((g, tuple(weights)))
        return original(g, weights)

    with monkeypatch.context() as m:
        m.setattr(bounds_mod, "synthesize_shared_table", recorded)
        for g in graphs:
            upper_bound_instance(g)
    return seen


def outcome(g, weights):
    try:
        return synthesize_shared_table(g, weights)
    except InfeasibleLpError:
        return InfeasibleLpError


def orientation_classes(n: int) -> list[tuple[int, ...]]:
    """Edge orientations around an n-cycle, one per class up to rotation and
    reflection; the two cyclic orientations admit no agent order."""
    out, seen = [], set()
    for bits in product((0, 1), repeat=n):
        if len(set(bits)) == 1:
            continue
        variants = set()
        for r in range(n):
            rot = bits[r:] + bits[:r]
            variants.update((rot, tuple(1 - b for b in reversed(rot))))
        key = min(variants)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def oriented_cycle(rng: random.Random, orientation) -> InfoGraph:
    """The cycle with these edge directions, labelled by a seeded topological order."""
    n = len(orientation)
    succ = {v: [] for v in range(n)}
    indeg = [0] * n
    for k, forward in enumerate(orientation):
        a, b = (k, (k + 1) % n) if forward else ((k + 1) % n, k)
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    label = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = len(label) + 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return InfoGraph(n, [
        (min(label[k], label[(k + 1) % n]), max(label[k], label[(k + 1) % n]))
        for k in range(n)
    ])


def has_odd_hole(g: InfoGraph) -> bool:
    """Does the shadow contain an induced cycle on 5 or 7 agents?"""
    adj = g.adj_masks
    for mask in range(1 << g.n):
        if bin(mask).count("1") not in (5, 7):
            continue
        members = [v for v in range(1, g.n + 1) if mask >> (v - 1) & 1]
        if any(bin(adj[v] & mask).count("1") != 2 for v in members):
            continue
        reached, todo = 0, members[:1]
        while todo:
            v = todo.pop()
            reached |= 1 << (v - 1)
            todo.extend(u for u in members if (adj[v] & ~reached) >> (u - 1) & 1)
        if reached == mask:
            return True
    return False


class TestEarlyStop:
    @pytest.mark.parametrize("g", [CROSSED_FIVE_CYCLE, CROSSED_SEVEN_CYCLE])
    def test_crossed_cycle_is_refuted_within_two_passes(self, monkeypatch, g):
        # the submodularity sweep calls combinations once per mask per pass
        calls = []

        def counted(*args):
            calls.append(args)
            return combinations(*args)

        monkeypatch.setattr(bounds_mod, "combinations", counted)
        _, z = alpha_star_solution(g)
        assert set(z) == {Fraction(1, 2)}
        with pytest.raises(InfeasibleLpError):
            synthesize_shared_table(g, z)
        assert 0 < len(calls) <= 2 * (1 << g.n)


class TestAgainstCappedReference:
    def assert_same(self, monkeypatch, inputs):
        verdicts = []
        for g, z in inputs:
            got = outcome(g, z)
            with monkeypatch.context() as m:
                m.setattr(bounds_mod, "_synthesize_dense", reference_dense)
                want = outcome(g, z)
            assert got == want, (g, z)
            verdicts.append(got is InfeasibleLpError)
        return verdicts

    def test_shadow_classes_up_to_five(self, monkeypatch):
        graphs = [g for n in range(1, 6) for g in unlabeled_classes(n)]
        verdicts = self.assert_same(monkeypatch, synthesis_inputs(monkeypatch, graphs))
        assert verdicts == [True]  # the five-cycle's representative is crossed

    def test_every_cycle_orientation_class(self, monkeypatch):
        rng = random.Random(5)
        graphs = [oriented_cycle(rng, o) for n in (5, 7) for o in orientation_classes(n)]
        assert len(graphs) == 3 + 9
        verdicts = self.assert_same(monkeypatch, synthesis_inputs(monkeypatch, graphs))
        # every odd cycle synthesizes; exactly the alternating class per length is crossed
        assert len(verdicts) == len(graphs) and sum(verdicts) == 2

    def test_random_graphs_with_an_odd_hole(self, monkeypatch):
        rng = random.Random(7)
        graphs = []
        for n in (6, 7, 8):
            drawn = 0
            while drawn < 12:
                p = rng.choice((0.3, 0.5, 0.7))
                g = InfoGraph(n, [e for e in all_pairs(n) if rng.random() < p])
                if has_odd_hole(g):
                    graphs.append(g)
                    drawn += 1
        verdicts = self.assert_same(monkeypatch, synthesis_inputs(monkeypatch, graphs))
        assert any(verdicts) and not all(verdicts)
