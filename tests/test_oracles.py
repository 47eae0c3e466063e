"""Valuation oracle construction, evaluation, and exhaustive audits."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogreedy import (
    GuardRefusal,
    InfoGraph,
    InputError,
    TableOracle,
    TwoBlockOracle,
    ValuationOracle,
    audit_properties,
    build_capped_sum,
    build_vta,
    build_wsc,
    capped_sum_tie_safe,
    evaluate,
    make_instance,
    marginal,
)

F = Fraction


class TestEvaluate:
    def test_cover_sums_covered_targets(self):
        oracle = build_wsc([2, 1, 3, 3, 1])
        assert evaluate(oracle, {0, 2, 3, 4}) == 9

    def test_empty_set_is_zero(self):
        for oracle in (build_wsc([2, 5]), build_vta([1], [F(1, 2)])):
            assert evaluate(oracle, set()) == 0

    def test_shared_target_counts_once_with_probabilities(self):
        oracle = build_vta([1], [F(1, 2), F(1, 2)])
        both = {oracle.element_id(0, 0), oracle.element_id(1, 0)}
        assert evaluate(oracle, both) == F(3, 4)

    def test_out_of_range_element_rejected(self):
        oracle = build_wsc([1, 1])
        with pytest.raises(InputError):
            evaluate(oracle, {5})


class TestMarginal:
    def test_already_covered_target_adds_nothing(self):
        oracle = build_wsc([2, 1, 3, 3, 1])
        assert marginal(oracle, {2}, {2}) == 0

    def test_fresh_target_adds_its_value(self):
        oracle = build_wsc([2, 1, 3, 3, 1])
        assert marginal(oracle, {1}, {2}) == 1

    def test_marginal_on_empty_base_is_value(self, rng):
        oracle = build_wsc([rng.randint(0, 5) for _ in range(6)])
        for _ in range(20):
            subset = {t for t in range(6) if rng.random() < 0.5}
            assert marginal(oracle, subset, set()) == evaluate(oracle, subset)

    def test_diminishing_in_the_base(self, rng):
        oracle = build_vta(
            [rng.randint(0, 4) for _ in range(3)],
            [F(rng.randint(0, 4), 4) for _ in range(3)],
        )
        ground = range(oracle.ground_size)
        for _ in range(50):
            small = {e for e in ground if rng.random() < 0.3}
            big = small | {e for e in ground if rng.random() < 0.3}
            x = {e for e in ground if rng.random() < 0.2}
            assert marginal(oracle, x, small) >= marginal(oracle, x, big)


class TestAudit:
    def test_cover_oracle_passes(self):
        report = audit_properties(build_wsc([3, 0, 2, 7]))
        assert report.ok

    def test_square_cardinality_fails_submodularity_with_witness(self):
        oracle = TableOracle(3, {m: F(bin(m).count("1") ** 2) for m in range(8)})
        report = audit_properties(oracle)
        assert report.normalized and report.monotone and not report.submodular
        witness = report.witnesses["submodular"]
        # hand check: 1 - 0 < 4 - 1, so a singleton base already violates it
        assert witness["A"] == [] and len(witness["B"]) == 1
        a, b, x = set(witness["A"]), set(witness["B"]), witness["x"]
        lhs = evaluate(oracle, a | {x}) - evaluate(oracle, a)
        rhs = evaluate(oracle, b | {x}) - evaluate(oracle, b)
        assert lhs < rhs

    def test_decreasing_table_fails_monotonicity(self):
        oracle = TableOracle(2, {0: F(0), 1: F(2), 2: F(1), 3: F(1)})
        report = audit_properties(oracle)
        assert not report.monotone
        assert report.witnesses["monotone"] == {"A": [0], "B": [0, 1]}

    def test_value_of_the_empty_set_is_audited(self):
        # f(empty) is asked of the function like every other value
        class Shifted(ValuationOracle):
            kind = "shifted"
            _den = 1

            def _value_num(self, mask):
                return 1 + bin(mask).count("1")

        report = audit_properties(Shifted(2))
        assert report.monotone and report.submodular
        assert not report.normalized
        assert report.witnesses == {"normalized": {"value_of_empty": F(1)}}

    def test_guard_refuses_rather_than_samples(self):
        with pytest.raises(GuardRefusal):
            audit_properties(build_wsc([1] * 17))

    def test_capped_sum_passes(self):
        g = InfoGraph(3, [(1, 2)])
        oracle = build_capped_sum([F(1, 2), F(1, 2), F(1, 3)], g)
        assert audit_properties(oracle).ok


@st.composite
def wsc_values(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [
        F(draw(st.integers(min_value=0, max_value=12)), draw(st.integers(min_value=1, max_value=4)))
        for _ in range(n)
    ]


class TestConstructorsAreSubmodular:
    @given(wsc_values())
    @settings(max_examples=60, deadline=None)
    def test_cover_family(self, values):
        assert audit_properties(build_wsc(values)).ok

    @given(wsc_values(), st.integers(min_value=1, max_value=3), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_assignment_family(self, values, agents, rnd):
        if agents * len(values) > 9:
            values = values[:3]
        probs = [F(rnd.randint(0, 4), 4) for _ in range(agents)]
        assert audit_properties(build_vta(values, probs)).ok

    @given(st.integers(min_value=1, max_value=4), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_capped_family(self, agents, rnd):
        weights = [F(rnd.randint(0, 3), 3) for _ in range(agents)]
        assert audit_properties(build_capped_sum(weights)).ok


class TestProbabilityOneReduction:
    def test_matches_cover_on_every_subset(self):
        values = [2, 0, 5]
        vta = build_vta(values, [1, 1, 1])
        wsc = build_wsc(values)
        T = len(values)
        for mask in range(1 << vta.ground_size):
            elements = [e for e in range(vta.ground_size) if mask >> e & 1]
            covered = {e % T for e in elements}
            assert evaluate(vta, elements) == evaluate(wsc, covered)


class TestCappedSum:
    def test_lp_vertex_weights_cap_at_one(self):
        oracle = build_capped_sum([0, 0, 1, 1])
        assert evaluate(oracle, {oracle.u_id(2), oracle.u_id(3)}) == 1

    def test_private_block_is_modular(self):
        oracle = build_capped_sum([0, 0, 1, 1])
        assert evaluate(oracle, {oracle.v_id(i) for i in range(4)}) == 2

    def test_empty_is_zero(self):
        assert evaluate(build_capped_sum([1, 1]), set()) == 0

    def test_clique_budget_violation_names_the_clique(self):
        g = InfoGraph(3, [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(InputError, match=r"\[1, 2, 3\]"):
            build_capped_sum([F(1, 2), F(1, 2), F(1, 2)], g)

    def test_private_marginal_constant_against_every_base(self):
        weights = [F(1, 3), F(1, 2), F(1, 6)]
        oracle = build_capped_sum(weights)
        for base_mask in range(1 << 6):
            for agent in range(3):
                v = 1 << oracle.v_id(agent)
                if base_mask & v:
                    continue
                assert (
                    oracle.value_mask(base_mask | v) - oracle.value_mask(base_mask)
                    == weights[agent]
                )

    def test_full_neighborhood_marginal_when_tie_safe(self, rng):
        # the shared element keeps its full marginal over any subset of the
        # in-neighborhood, provided the neighborhood fits under the cap
        for _ in range(50):
            n = rng.randint(1, 5)
            g = InfoGraph(
                n,
                [
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                    if rng.random() < 0.5
                ],
            )
            weights = [F(rng.randint(0, 4), 8) for _ in range(n)]
            if not capped_sum_tie_safe(weights, g):
                continue
            try:
                oracle = build_capped_sum(weights, g)
            except InputError:
                continue
            for i in range(1, n + 1):
                nbr = list(g.in_neighbors(i))
                for size in range(len(nbr) + 1):
                    for sub in combinations(nbr, size):
                        base = {oracle.u_id(j - 1) for j in sub}
                        assert (
                            marginal(oracle, {oracle.u_id(i - 1)}, base)
                            == weights[i - 1]
                        )

    def test_five_cycle_breaks_the_plain_cap(self):
        # both in-neighbors of agent 5 fill the cap, so u_5's marginal
        # collapses; this is why the tie-safety predicate exists
        g = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        weights = [F(1, 2)] * 5
        assert not capped_sum_tie_safe(weights, g)
        oracle = build_capped_sum(weights, g)
        base = {oracle.u_id(0), oracle.u_id(3)}
        assert marginal(oracle, {oracle.u_id(4)}, base) == 0


class TestTwoBlockOracle:
    def test_reduces_to_capped_sum(self):
        weights = [F(1, 2), F(1, 2)]
        table = {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}
        two = TwoBlockOracle(table, weights)
        capped = build_capped_sum(weights)
        for mask in range(1 << 4):
            assert two.value_mask(mask) == capped.value_mask(mask)

    def test_rejects_wrong_table_size(self):
        with pytest.raises(InputError):
            TwoBlockOracle({0: F(0)}, [F(1, 2), F(1, 2)])


class TestInstance:
    def test_empty_action_set_rejected(self):
        with pytest.raises(InputError):
            make_instance(build_wsc([1]), [[]])

    def test_action_elements_validated(self):
        with pytest.raises(InputError):
            make_instance(build_wsc([1]), [[[4]]])
