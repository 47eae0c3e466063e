"""Differential tests for the adversarial probe.

The probe computes each draw on action masks and integer values and builds
a witness ``Instance`` only for a new minimum.  The reference below is the
probe it replaced: one ``make_instance`` and one ``efficiency`` call per
draw, with every comparison on Fractions.  Both must return the same
``SearchResult``, witness included, and raise the same error.
"""

import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import infogreedy.bounds as bounds_mod
from infogreedy import (
    DegenerateInstanceError,
    InfoGraph,
    InternalConsistencyError,
    adversarial_search,
    build_wsc,
    efficiency,
    make_instance,
)
from infogreedy.serialize import parse_graph
from conftest import random_graph
from test_synthesis import orientation_classes, oriented_cycle

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "infogreedy" / "fixtures"
GRAPH_FIXTURES = (
    "crossed_seven_cycle.json", "demo_cover_graph.json", "five_cycle.json",
    "k4_minus_edge.json", "single_edge_trio.json",
)


def reference_search(g, budget=2000, seed=0, seen=None):
    """The per-draw Instance probe; ``seen`` collects every draw's gamma.

    Bounds and certificates are looked up on the module at call time, so a
    test that replaces them replaces them here too.
    """
    rng = random.Random(seed)
    floor = bounds_mod.efficiency_bounds(g).lower
    best = None
    evaluated = 0

    def consider(inst, gamma):
        nonlocal best, evaluated
        evaluated += 1
        if gamma < floor:
            raise InternalConsistencyError(
                f"observed efficiency {gamma} below the proven floor {floor}"
            )
        if best is None or gamma < best[0]:
            best = (gamma, inst)

    cert = bounds_mod.upper_bound_instance(g)
    consider(cert.instance, cert.realized.gamma)
    if bounds_mod.sibling_property(g):
        sib = bounds_mod.sibling_instance(g)
        consider(sib.instance, sib.realized.gamma)

    n = g.n
    for _ in range(budget):
        n_targets = rng.randint(1, n + 2)
        values = [rng.randint(0, 3) for _ in range(n_targets)]
        if not any(values):
            values[rng.randrange(n_targets)] = 1
        actions = []
        for _ in range(n):
            k = rng.randint(1, min(3, n_targets))
            acts = set()
            while len(acts) < k:
                if rng.random() < 0.8:
                    acts.add(frozenset([rng.randrange(n_targets)]))
                else:
                    acts.add(
                        frozenset(rng.sample(range(n_targets), min(2, n_targets)))
                    )
            actions.append(sorted(acts, key=sorted))
        inst = make_instance(build_wsc(values), actions)
        try:
            report = efficiency(inst, g)
        except DegenerateInstanceError:
            continue
        if seen is not None:
            seen.append(report.gamma)
        consider(inst, report.gamma)

    return bounds_mod.SearchResult(best[0], best[1], evaluated)


def comparable(result):
    """A SearchResult with its witness oracle replaced by its parameters
    (oracles compare by identity)."""
    w = result.witness
    return (result.min_gamma, result.evaluated, w.oracle.kind, w.oracle.to_params(), w.actions)


def outcome(fn, *args, **kwargs):
    try:
        return comparable(fn(*args, **kwargs))
    except InternalConsistencyError as exc:
        return InternalConsistencyError, str(exc)


def fixture_graphs():
    return [parse_graph(FIXTURES / name) for name in GRAPH_FIXTURES]


def cycle_graphs():
    rng = random.Random(31)
    return [
        oriented_cycle(rng, o)
        for n in (5, 7)
        for o in orientation_classes(n)
        for _ in range(2)  # two labellings of every class
    ]


def seeded_graphs():
    rng = random.Random(57)
    return [random_graph(rng, n) for n in range(1, 9) for _ in range(4)]


class TestAgainstReference:
    def assert_same(self, graphs, budgets, seeds):
        for g in graphs:
            for budget in budgets:
                for seed in seeds:
                    want = outcome(reference_search, g, budget, seed)
                    assert outcome(adversarial_search, g, budget, seed) == want, (g, budget, seed)

    def test_graph_fixtures(self):
        self.assert_same(fixture_graphs(), (0, 1, 40), (0, 5))

    def test_every_cycle_orientation_class(self):
        self.assert_same(cycle_graphs(), (0, 25), (2,))

    def test_seeded_graphs_up_to_eight_agents(self):
        self.assert_same(seeded_graphs(), (0, 3, 30), (1, 9))

    def test_witness_is_a_full_instance(self):
        g = parse_graph(FIXTURES / "five_cycle.json")
        got = adversarial_search(g, budget=60, seed=4)
        want = reference_search(g, budget=60, seed=4)
        assert got.witness.actions == want.witness.actions
        assert got.witness.oracle.values == want.witness.oracle.values
        assert efficiency(got.witness, g).gamma == got.min_gamma


def stub_certificates(monkeypatch, floor):
    """Certificates at gamma = 1 and a raised floor: only draws can fail."""
    cert = SimpleNamespace(
        instance=make_instance(build_wsc([1]), [[[0]]]),
        realized=SimpleNamespace(gamma=Fraction(1)),
    )
    monkeypatch.setattr(bounds_mod, "upper_bound_instance", lambda g: cert)
    monkeypatch.setattr(bounds_mod, "sibling_property", lambda g: False)
    monkeypatch.setattr(
        bounds_mod, "efficiency_bounds", lambda g: SimpleNamespace(lower=floor)
    )


class TestFloorCheck:
    G = InfoGraph(4, [(1, 2), (2, 3), (3, 4)])

    def test_a_raised_floor_fails_on_a_draw(self, monkeypatch):
        stub_certificates(monkeypatch, Fraction(1))
        got = outcome(adversarial_search, self.G, 200, 3)
        assert got == outcome(reference_search, self.G, 200, 3)
        assert got[0] is InternalConsistencyError
        assert got[1].startswith("observed efficiency ")

    def test_floor_at_the_minimum_passes_and_just_above_fails(self, monkeypatch):
        stub_certificates(monkeypatch, Fraction(0))
        low = adversarial_search(self.G, budget=200, seed=3).min_gamma
        assert low < 1
        stub_certificates(monkeypatch, low)
        assert adversarial_search(self.G, budget=200, seed=3).min_gamma == low
        stub_certificates(monkeypatch, low + Fraction(1, 10 ** 9))
        with pytest.raises(InternalConsistencyError, match=f"observed efficiency {low} "):
            adversarial_search(self.G, budget=200, seed=3)


class TestWitnessBuiltOnlyForNewMinima:
    def test_one_make_instance_call_per_new_minimum(self, monkeypatch):
        # no draw here goes below the certificates, so they are stubbed at
        # gamma = 1 and every draw that lowers the running minimum counts
        stub_certificates(monkeypatch, Fraction(0))
        calls = []
        original = bounds_mod.make_instance

        def counted(oracle, actions):
            calls.append(actions)
            return original(oracle, actions)

        total = 0
        for g in seeded_graphs()[4:]:
            seen = []
            want = reference_search(g, 80, 6, seen)
            low, new_minima = Fraction(1), 0
            for gamma in seen:
                if gamma < low:
                    low = gamma
                    new_minima += 1
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(bounds_mod, "make_instance", counted)
                got = adversarial_search(g, budget=80, seed=6)
            assert comparable(got) == comparable(want)
            assert len(calls) == new_minima
            total += new_minima
        assert total > len(seeded_graphs()[4:])
