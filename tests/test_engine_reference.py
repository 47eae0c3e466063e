"""Differential tests for the greedy engine and the brute-force optimum.

The library compares oracle values as integers over one fixed denominator,
finds the optimum by a dynamic program over action unions, and computes the
efficiency ratio without replaying a per-agent trace.  The references below
are the implementations they replaced: a loop over the whole action-set
product, and an engine that compares Fractions and reaches the ratio through
``run_generalized_greedy``.  Both must give the same ``OptResult``,
``EfficiencyReport`` and ``GreedyOutcome`` (trace included), or raise the
same error with the same message, on every instance, monotone or not.
"""

import random
from fractions import Fraction

import pytest

from infogreedy import (
    DegenerateInstanceError,
    GuardRefusal,
    InfoGraph,
    InputError,
    TableOracle,
    TwoBlockOracle,
    brute_force_opt,
    build_capped_sum,
    build_vta,
    build_wsc,
    efficiency,
    make_instance,
    run_generalized_greedy,
)
from infogreedy.greedy import (
    BRANCH_GUARD,
    DEPTH_GUARD,
    PROFILE_GUARD,
    AgentTrace,
    EfficiencyReport,
    GreedyOutcome,
    OptResult,
)
from conftest import random_graph

F = Fraction


# ---------------------------------------------------------------------------
# References: the Fraction engine and the product-loop optimum
# ---------------------------------------------------------------------------


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def ref_argmax_actions(oracle, actions, observed):
    values = [oracle.value_mask(a | observed) for a in actions]
    best = max(values)
    return [idx for idx, v in enumerate(values) if v == best], values


def ref_worst_case_choices(inst, g, masks, max_branches):
    oracle = inst.oracle
    n = inst.n
    if n > DEPTH_GUARD:
        raise GuardRefusal(
            f"worst-case exploration guarded at {DEPTH_GUARD} agents, got {n}"
        )
    visible_after = [0] * (n + 2)
    for i in range(n, 0, -1):
        visible_after[i] = visible_after[i + 1] | g.in_masks[i]
    memo: dict = {}
    counter = [0]

    def visit(i, chosen, union):
        if i > n:
            counter[0] += 1
            if counter[0] > max_branches:
                raise GuardRefusal(
                    f"worst-case exploration exceeded {max_branches} branches"
                )
            return oracle.value_mask(union), ()
        vis = visible_after[i] & ((1 << (i - 1)) - 1)
        key = (i, tuple(chosen[j] for j in _bits(vis)), union)
        got = memo.get(key)
        if got is not None:
            return got
        observed = 0
        for j_bit in _bits(g.in_masks[i]):
            observed |= masks[j_bit][chosen[j_bit]]
        tied, _ = ref_argmax_actions(oracle, masks[i - 1], observed)
        best_val, best_tail = None, None
        for idx in tied:
            val, tail = visit(i + 1, chosen + (idx,), union | masks[i - 1][idx])
            if best_val is None or val < best_val:
                best_val, best_tail = val, (idx,) + tail
        memo[key] = (best_val, best_tail)
        return best_val, best_tail

    _, choice_vec = visit(1, (), 0)
    return list(choice_vec), counter[0]


def ref_replay(inst, g, masks, choice_idx, explored):
    oracle = inst.oracle
    trace = []
    union = 0
    chosen_masks = []
    for i in range(1, inst.n + 1):
        observed = 0
        for j_bit in _bits(g.in_masks[i]):
            observed |= chosen_masks[j_bit]
        tied, values = ref_argmax_actions(oracle, masks[i - 1], observed)
        base = oracle.value_mask(observed)
        pick = choice_idx[i - 1]
        trace.append(
            AgentTrace(
                agent=i,
                observed=frozenset(_bits(observed)),
                marginals=tuple(v - base for v in values),
                tied=tuple(tied),
                chosen=pick,
            )
        )
        chosen_masks.append(masks[i - 1][pick])
        union |= masks[i - 1][pick]
    profile = tuple(inst.actions[i][choice_idx[i]] for i in range(inst.n))
    return GreedyOutcome(profile, oracle.value_mask(union), explored, tuple(trace))


def ref_run_generalized_greedy(inst, g, policy="worst", seed=0, max_branches=BRANCH_GUARD):
    if policy not in ("worst", "first", "random"):
        raise InputError(f"unknown tie policy {policy!r}")
    if g.n != inst.n:
        raise InputError(f"graph has {g.n} agents but instance has {inst.n}")
    oracle = inst.oracle
    masks = inst.action_masks()
    if policy == "worst":
        choice_idx, explored = ref_worst_case_choices(inst, g, masks, max_branches)
    else:
        rng = random.Random(seed)
        choice_idx = []
        chosen_masks = []
        for i in range(1, inst.n + 1):
            observed = 0
            for j_bit in _bits(g.in_masks[i]):
                observed |= chosen_masks[j_bit]
            tied, _ = ref_argmax_actions(oracle, masks[i - 1], observed)
            pick = tied[0] if policy == "first" else rng.choice(tied)
            choice_idx.append(pick)
            chosen_masks.append(masks[i - 1][pick])
        explored = 1
    return ref_replay(inst, g, masks, choice_idx, explored)


def ref_brute_force_opt(inst, max_profiles=PROFILE_GUARD):
    total = 1
    for acts in inst.actions:
        total *= len(acts)
        if total > max_profiles:
            raise GuardRefusal(
                f"profile space exceeds brute-force guard {max_profiles}"
            )
    oracle = inst.oracle
    masks = inst.action_masks()
    n = inst.n
    best_val = None
    best_idx = ()
    idx = [0] * n
    while True:
        union = 0
        for i in range(n):
            union |= masks[i][idx[i]]
        val = oracle.value_mask(union)
        if best_val is None or val > best_val:
            best_val, best_idx = val, tuple(idx)
        pos = n - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < len(masks[pos]):
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            break
    profile = tuple(inst.actions[i][best_idx[i]] for i in range(n))
    return OptResult(best_val, profile)


def ref_efficiency(inst, g, max_branches=BRANCH_GUARD, max_profiles=PROFILE_GUARD):
    opt = ref_brute_force_opt(inst, max_profiles)
    if opt.value == 0:
        raise DegenerateInstanceError(
            "optimum value is 0, efficiency ratio undefined"
        )
    sol = ref_run_generalized_greedy(inst, g, "worst", max_branches=max_branches)
    return EfficiencyReport(
        gamma=sol.value / opt.value,
        opt_value=opt.value,
        sol_value=sol.value,
        opt_profile=opt.profile,
        sol_profile=sol.profile,
    )


# ---------------------------------------------------------------------------
# Seeded instances
# ---------------------------------------------------------------------------


def _rational(rng, lo=0, hi=3):
    return F(rng.randint(lo, hi * 4), rng.choice((1, 2, 3, 4)))


def _random_oracle(rng, kind, n):
    if kind == "wsc":
        return build_wsc([_rational(rng) for _ in range(rng.randint(1, 7))])
    if kind == "vta":
        values = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        probs = [F(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 2))]
        return build_vta(values, probs)
    if kind == "capped_sum":
        return build_capped_sum([F(rng.randint(0, 4), rng.choice((2, 3, 4))) for _ in range(n)])
    if kind == "two_block":
        k = rng.randint(1, 3)
        u_table = {0: F(0)}
        u_table.update({m: _rational(rng) for m in range(1, 1 << k)})
        return TwoBlockOracle(u_table, [_rational(rng) for _ in range(k)])
    # a table with no structure at all: negative values, not monotone
    ground = rng.randint(1, 5)
    table = {0: F(0)}
    table.update({m: _rational(rng, -1, 3) for m in range(1, 1 << ground)})
    return TableOracle(ground, table)


def _random_action(rng, ground):
    size = rng.choice((0, 1, 1, 2, 3))
    return rng.sample(range(ground), min(size, ground))


def random_instance(rng, kind, n):
    """Empty, duplicated and overlapping actions all appear."""
    oracle = _random_oracle(rng, kind, n)
    ground = oracle.ground_size
    actions = []
    for _ in range(n):
        acts = [_random_action(rng, ground) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            acts.append(list(rng.choice(acts)))
        actions.append(acts)
    return make_instance(oracle, actions)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DegenerateInstanceError, GuardRefusal, InputError) as exc:
        return type(exc), str(exc)


KINDS = ("wsc", "vta", "capped_sum", "two_block", "table")


def seeded_cases(seed, count):
    """(instance, graph, max_branches, max_profiles); small guards now and then."""
    rng = random.Random(seed)
    for k in range(count):
        kind = KINDS[k % len(KINDS)]
        n = rng.randint(1, 5)
        inst = random_instance(rng, kind, n)
        g = random_graph(rng, n + (1 if rng.random() < 0.03 else 0))
        max_branches = rng.choice((BRANCH_GUARD,) * 9 + (2,))
        max_profiles = rng.choice((PROFILE_GUARD,) * 9 + (6,))
        yield inst, g, max_branches, max_profiles


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_efficiency_and_optimum(self, seed):
        # five seeds of 450 instances each: 2,250 instances
        errors = set()
        for inst, g, max_branches, max_profiles in seeded_cases(seed, 450):
            got = outcome(efficiency, inst, g, max_branches, max_profiles)
            want = outcome(ref_efficiency, inst, g, max_branches, max_profiles)
            assert got == want
            assert outcome(brute_force_opt, inst, max_profiles) == outcome(
                ref_brute_force_opt, inst, max_profiles
            )
            if isinstance(want, tuple):
                errors.add(want[0])
        # every refusal class appears
        assert errors == {DegenerateInstanceError, GuardRefusal, InputError}

    @pytest.mark.parametrize("policy", ["worst", "first", "random"])
    def test_generalized_greedy_and_trace(self, policy):
        for inst, g, max_branches, _ in seeded_cases(7, 300):
            got = outcome(run_generalized_greedy, inst, g, policy, 5, max_branches)
            want = outcome(ref_run_generalized_greedy, inst, g, policy, 5, max_branches)
            assert got == want


class TestNonMonotone:
    def test_roadmap_case(self):
        # the optimum drops agent 2's worthless-alone action; greedy cannot
        inst = make_instance(
            TableOracle(2, {0: 0, 1: 1, 2: 1, 3: 0}), [[[0]], [[1], []]]
        )
        g = InfoGraph(2, [])
        opt = brute_force_opt(inst)
        assert opt == OptResult(F(1), (frozenset({0}), frozenset()))
        rep = efficiency(inst, g)
        assert (rep.gamma, rep.opt_value, rep.sol_value) == (0, 1, 0)
        assert rep == ref_efficiency(inst, g)

    def test_first_maximizer_kept_among_equal_values(self):
        # the unions {0} and {1} share the top value; {0} comes first
        inst = make_instance(
            TableOracle(3, {0: 0, 1: 2, 2: 2, 3: 1, 4: 1, 5: 0, 6: 0, 7: 2}),
            [[[], [0], [1]], [[2], [], [0, 1]]],
        )
        assert brute_force_opt(inst) == ref_brute_force_opt(inst)
        assert brute_force_opt(inst).profile == (frozenset({0}), frozenset())


class CountingTable(TableOracle):
    def __init__(self, ground_size, table):
        super().__init__(ground_size, table)
        self.asked: list[int] = []

    def value_num(self, mask):
        self.asked.append(mask)
        return super().value_num(mask)


class TestUnionProgram:
    def test_evaluates_each_final_union_once(self):
        # 3^6 = 729 profiles, but only the unions {0}, {1}, {0,1} are reachable
        oracle = CountingTable(2, {0: 0, 1: 1, 2: 1, 3: 1})
        inst = make_instance(oracle, [[[0], [0], [1]]] * 6)
        opt = brute_force_opt(inst)
        assert opt == ref_brute_force_opt(inst)
        assert sorted(oracle.asked) == [1, 2, 3]

    def test_fewer_evaluations_than_profiles_on_probe_instances(self):
        rng = random.Random(11)
        saved = 0
        for _ in range(50):
            n = rng.randint(3, 6)
            ground = rng.randint(2, 5)
            table = {m: F(bin(m).count("1")) for m in range(1 << ground)}
            oracle = CountingTable(ground, table)
            inst = make_instance(
                oracle,
                [[_random_action(rng, ground) for _ in range(3)] for _ in range(n)],
            )
            brute_force_opt(inst)
            assert len(oracle.asked) == len(set(oracle.asked)) <= 1 << ground
            saved += 3 ** n - len(oracle.asked)
        assert saved > 0


class TestLastAgentTies:
    """Every agent ties, the last one included: the leaves the engine
    evaluates in its last agent's loop are counted as branches."""

    inst = make_instance(build_wsc([1, 1, 1, 1]), [[[0], [1]], [[0], [2]], [[1], [3]]])
    graph = InfoGraph(3, [])

    def test_branch_count_matches_the_reference(self):
        got = run_generalized_greedy(self.inst, self.graph, "worst")
        assert got == ref_run_generalized_greedy(self.inst, self.graph, "worst")
        # four distinct unions reach agent 3, each with two tied leaves
        assert got.branches_explored == 8
        assert got.trace[-1].tied == (0, 1)

    def test_solve_worst_reports_the_same_count(self, tmp_path, capsys):
        import json

        from infogreedy.cli import main
        from infogreedy.serialize import dumps, graph_to_obj, instance_to_obj

        graph_path, inst_path = tmp_path / "g.json", tmp_path / "i.json"
        graph_path.write_text(dumps(graph_to_obj(self.graph)))
        inst_path.write_text(dumps(instance_to_obj(self.inst)))
        code = main(["solve", "--graph", str(graph_path), "--instance", str(inst_path),
                     "--tie", "worst", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        want = ref_run_generalized_greedy(self.inst, self.graph, "worst")
        assert code == 0
        assert out["branches_explored"] == want.branches_explored == 8
