"""Exact simplex behavior and the fractional clique relaxations."""

from fractions import Fraction

import pytest

from infogreedy import (
    InfeasibleLpError,
    InfoGraph,
    LinearProgram,
    UnboundedLpError,
    alpha_star,
    alpha_star_solution,
    complement_turan,
    complete_graph,
    edgeless_graph,
    exact_numbers,
    k_star,
    solve_lp,
    verify_certificate,
)
from infogreedy.lp import cover_lp, independence_lp
from conftest import clique_matrix, random_graph, unlabeled_classes

F = Fraction

K4_MINUS_EDGE = InfoGraph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
FIVE_CYCLE = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


class TestSolver:
    def test_textbook_max(self):
        # max 3x + 2y, x + y <= 4, x + 3y <= 6 -> 12 at (4, 0)
        lp = LinearProgram.build([3, 2], [[1, 1], [1, 3]], ["<=", "<="], [4, 6], "max")
        sol = solve_lp(lp)
        assert sol.optimum == 12 and sol.point == (4, 0)

    def test_min_with_geq_rows(self):
        # min x + y, x + 2y >= 4, 3x + y >= 6 -> at (8/5, 6/5) cost 14/5
        lp = LinearProgram.build([1, 1], [[1, 2], [3, 1]], [">=", ">="], [4, 6], "min")
        sol = solve_lp(lp)
        assert sol.optimum == F(14, 5)

    def test_infeasible(self):
        with pytest.raises(InfeasibleLpError):
            solve_lp(LinearProgram.build([1], [[1]], ["<="], [-1], "max"))

    def test_unbounded(self):
        with pytest.raises(UnboundedLpError):
            solve_lp(LinearProgram.build([1], [[-1]], ["<="], [1], "max"))

    def test_degenerate_cycling_example_terminates(self):
        # the classic cycling tableau; Bland's rule must terminate at 1/20
        lp = LinearProgram.build(
            [F(3, 4), -150, F(1, 50), -6],
            [
                [F(1, 4), -60, F(-1, 25), 9],
                [F(1, 2), -90, F(-1, 50), 3],
                [0, 0, 1, 0],
            ],
            ["<=", "<=", "<="],
            [0, 0, 1],
            "max",
        )
        assert solve_lp(lp).optimum == F(1, 20)

    def test_certificates_reverify(self, rng):
        for _ in range(60):
            nvar = rng.randint(1, 4)
            nrow = rng.randint(1, 5)
            rows = [[F(rng.randint(0, 4)) for _ in range(nvar)] for _ in range(nrow)]
            # keep it bounded: every variable capped by a box row
            rows += [[F(1 if j == i else 0) for j in range(nvar)] for i in range(nvar)]
            rhs = [F(rng.randint(0, 6)) for _ in range(nrow)] + [F(5)] * nvar
            obj = [F(rng.randint(-3, 5)) for _ in range(nvar)]
            sense = rng.choice(("max", "min"))
            lp = LinearProgram.build(obj, rows, ["<="] * len(rows), rhs, sense)
            sol = solve_lp(lp)
            ok, why = verify_certificate(lp, sol)
            assert ok, why


class TestCliqueRelaxations:
    def test_near_clique_quartet_point(self):
        value, point = alpha_star_solution(K4_MINUS_EDGE)
        assert value == 2 and point == (0, 0, 1, 1)

    def test_five_cycle_point(self):
        value, point = alpha_star_solution(FIVE_CYCLE)
        assert value == F(5, 2) and point == (F(1, 2),) * 5

    def test_single_node(self):
        assert alpha_star(InfoGraph(1, [])) == 1

    def test_no_agents(self):
        # the empty LP: no rows, no columns, optimum 0
        assert alpha_star_solution(InfoGraph(0, [])) == (0, ())
        assert k_star(InfoGraph(0, [])) == 0

    def test_cover_side(self):
        assert k_star(FIVE_CYCLE) == F(5, 2)
        assert k_star(K4_MINUS_EDGE) == 2
        assert k_star(edgeless_graph(6)) == 6

    def test_block_design(self):
        assert alpha_star(complement_turan(8, 3).graph) == 3

    def test_strong_duality_and_sandwich_exhaustive_n5(self):
        for g in unlabeled_classes(5):
            nums = exact_numbers(g)
            a = alpha_star(g)
            k = k_star(g)  # read from the primal's verified dual
            assert a == k == solve_lp(cover_lp(g)).optimum  # cover solved on its own
            assert nums.alpha <= a <= nums.k

    def test_sandwich_sampled_n7(self, rng):
        for _ in range(40):
            g = random_graph(rng, 7)
            nums = exact_numbers(g)
            a = alpha_star(g)
            assert a == k_star(g) == solve_lp(cover_lp(g)).optimum
            assert nums.alpha <= a <= nums.k

    def test_one_solve_per_graph(self, monkeypatch):
        import infogreedy.lp as lp_mod

        solved = []
        original = lp_mod.solve_lp

        def counted(lp):
            solved.append(lp)
            return original(lp)

        monkeypatch.setattr(lp_mod, "solve_lp", counted)
        for edges in ([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], [(1, 2)], []):
            g = InfoGraph(5, edges)
            solved.clear()
            for _ in range(2):
                value, point = alpha_star_solution(g)
                assert alpha_star(g) == k_star(g) == value == sum(point)
            assert solved == [independence_lp(g)]

    def test_maximal_clique_reduction_matches_full_matrix(self):
        # restricting rows to maximal cliques must not change the optimum
        for n in range(1, 7):
            for g in unlabeled_classes(n):
                mat = clique_matrix(g)
                lp = LinearProgram.build(
                    [1] * g.n,
                    [list(map(F, row)) for row in mat.rows],
                    ["<="] * len(mat.rows),
                    [1] * len(mat.rows),
                    "max",
                )
                assert solve_lp(lp).optimum == alpha_star(g)

    def test_relaxation_lps_carry_valid_certificates(self):
        for g in (K4_MINUS_EDGE, FIVE_CYCLE, complete_graph(4), edgeless_graph(3)):
            for lp in (independence_lp(g), cover_lp(g)):
                sol = solve_lp(lp)
                ok, why = verify_certificate(lp, sol)
                assert ok, why
