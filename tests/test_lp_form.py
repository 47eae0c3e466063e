"""The integer form each LinearProgram carries, and the tableau size guard.

The clique LPs build their Fraction rows and their integer form straight from
the clique bitmasks.  The references below are the Fraction builders they
replaced: rows from the clique frozensets, normalized by
``LinearProgram.build``, with the form derived from the Fraction fields.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import infogreedy.lp as lp_mod
from infogreedy import GuardRefusal, InfoGraph, LinearProgram, maximal_cliques, solve_lp
from infogreedy.lp import LP_GUARD, cover_lp, independence_lp
from infogreedy.verify import labelled_graphs
from conftest import all_pairs, random_graph, unlabeled_classes

F = Fraction
ONE, ZERO = F(1), F(0)


def reference_independence_lp(g: InfoGraph) -> LinearProgram:
    rows = [[ONE if v in c else ZERO for v in range(1, g.n + 1)] for c in maximal_cliques(g)]
    return LinearProgram.build([ONE] * g.n, rows, ["<="] * len(rows), [ONE] * len(rows), "max")


def reference_cover_lp(g: InfoGraph) -> LinearProgram:
    cliques = maximal_cliques(g)
    cols = [[ONE if v in c else ZERO for c in cliques] for v in range(1, g.n + 1)]
    return LinearProgram.build([ONE] * len(cliques), cols, [">="] * g.n, [ONE] * g.n, "min")


def derived(lp: LinearProgram) -> LinearProgram:
    """The same LP with its integer form derived from its Fraction fields."""
    return LinearProgram(lp.objective, lp.rows, lp.rhs, lp.sense)


def cycles_and_antiholes(rng: random.Random):
    """Odd cycles and their complements on 11..15 agents, labelled at random."""
    for n in (11, 13, 15):
        order = rng.sample(range(1, n + 1), n)
        cycle = {frozenset((order[k], order[(k + 1) % n])) for k in range(n)}
        for edges in (cycle, {frozenset(p) for p in combinations(range(1, n + 1), 2)} - cycle):
            yield InfoGraph(n, [tuple(sorted(e)) for e in edges])


def seeded_graphs():
    rng = random.Random(2024)
    yield from (random_graph(rng, rng.randint(6, 16)) for _ in range(40))
    yield from cycles_and_antiholes(rng)


def assert_mask_built_matches_reference(g: InfoGraph):
    for built, reference in ((independence_lp(g), reference_independence_lp(g)),
                             (cover_lp(g), reference_cover_lp(g))):
        assert built == reference
        assert built._form == derived(built)._form == reference._form
        assert solve_lp(built) == solve_lp(reference)


class TestMaskBuiltForm:
    def test_every_labelled_graph_up_to_five_agents(self):
        graphs = [g for n in range(1, 6) for g in labelled_graphs(n)]
        assert len(graphs) == 1099
        for g in graphs:
            assert_mask_built_matches_reference(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_unlabelled_class(self, n):
        for g in unlabeled_classes(n):
            assert_mask_built_matches_reference(g)

    def test_seeded_graphs_odd_cycles_and_antiholes(self):
        for g in seeded_graphs():
            assert_mask_built_matches_reference(g)

    def test_the_form_takes_no_part_in_equality_hash_or_repr(self):
        g = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        built, reference = cover_lp(g), reference_cover_lp(g)
        assert hash(built) == hash(reference)
        assert repr(built) == repr(reference) and "form" not in repr(built)


class TestFormLifetime:
    def test_replace_derives_the_form_afresh(self):
        lp = independence_lp(InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))
        halved = tuple(tuple(a / 2 for a in row) for row in lp.rows)
        changed = replace(lp, rows=halved)
        fresh = LinearProgram.build(lp.objective, halved, ["<="] * len(halved), lp.rhs, "max")
        assert changed._form == fresh._form != lp._form
        assert solve_lp(changed) == solve_lp(fresh)
        assert solve_lp(changed).optimum == 2 * solve_lp(lp).optimum

    def test_solving_twice_leaves_the_form_unchanged(self):
        # a min LP with >= rows takes the flipped-row, artificial-column path
        g = InfoGraph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        mixed = LinearProgram.build([F(3, 4), 2], [[F(1, 3), 1], [1, F(5, 2)]],
                                    [">=", "<="], [F(1, 2), 7], "min")
        for lp in (independence_lp(g), cover_lp(g), mixed):
            form = lp._form
            first = solve_lp(lp)
            assert solve_lp(lp) == first
            assert lp._form is form and form == derived(lp)._form


class TestTableauGuard:
    def test_the_largest_sixteen_agent_clique_lp_is_admitted(self):
        # complete multipartite K(3,3,3,3,4): 3^4 * 4 = 324 maximal cliques,
        # the most any graph on 16 agents has (Moon & Moser, 1965)
        part = [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3 + [4] * 4
        g = InfoGraph(16, [(i, j) for i, j in all_pairs(16) if part[i - 1] != part[j - 1]])
        lp = independence_lp(g)
        assert len(lp.rows) == 324 and 324 * (16 + 324) <= LP_GUARD
        assert len(cover_lp(g).rows) == 16

    def test_solve_lp_refuses_before_building_a_tableau(self, monkeypatch):
        def no_tableau(*args):
            raise AssertionError("tableau built")

        monkeypatch.setattr(lp_mod, "_Tableau", no_tableau)
        m = 1
        while m * (1 + m) <= LP_GUARD:
            m += 1
        lp = LinearProgram.build([1], [[1]] * m, ["<="] * m, [1] * m, "max")
        with pytest.raises(GuardRefusal, match="tableau guard"):
            solve_lp(lp)

    @pytest.mark.parametrize("guard, refused", [(6, False), (5, True)])
    def test_solve_lp_boundary(self, monkeypatch, guard, refused):
        # two rows and one column: 2 * (1 + 2) = 6 entries
        monkeypatch.setattr(lp_mod, "LP_GUARD", guard)
        lp = LinearProgram.build([1], [[1], [2]], ["<=", "<="], [3, 4], "max")
        if refused:
            with pytest.raises(GuardRefusal):
                solve_lp(lp)
        else:
            assert solve_lp(lp).optimum == 2

    @pytest.mark.parametrize("builder", [independence_lp, cover_lp])
    def test_clique_builders_refuse_before_building_a_row(self, monkeypatch, builder):
        # the five-cycle: five cliques on five agents, 5 * (5 + 5) = 50 entries either way
        g = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        monkeypatch.setattr(lp_mod, "LP_GUARD", 50)
        assert len(builder(g).rows) == 5
        monkeypatch.setattr(lp_mod, "LP_GUARD", 49)
        monkeypatch.setattr(lp_mod, "_UNIT", None)
        monkeypatch.setattr(lp_mod, "_NEG_UNIT", None)
        with pytest.raises(GuardRefusal):
            builder(g)
