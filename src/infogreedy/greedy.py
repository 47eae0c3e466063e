"""The distributed greedy algorithm under an information graph.

Agents decide in index order.  Agent i maximizes the objective evaluated on
its own action joined with the decisions of its in-neighborhood; under the
complete graph this is the classic distributed greedy.

Tie handling is the whole story for worst-case analysis: the efficiency ratio
is defined against the worst candidate solution over every chain of argmax
tie breaks, so the "worst" policy enumerates all branches exhaustively (with
memoization on what the future can still observe) rather than sampling.
Every policy then runs the same one pass, which differs only in how an
agent picks among its tied actions: "worst" reads the search's choice
vector, "first" takes the earliest, "random" draws from a seeded generator.
All comparisons are exact; there are no epsilon ties.  They read the
oracle's ``value_num``, an integer numerator over the oracle's one fixed
denominator, and Fractions are built only for the values handed back: the
returned values, the marginals of a ``solve`` trace, and the ratio.

The optimum is a dynamic program over action unions, exact for any set
function, monotone or not.  ``efficiency`` reads only the worst choice
vector, so it builds no per-agent trace.  Both run on a private core over
action masks, which the adversarial probe calls directly, so a probe draw
needs no ``Instance``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import DegenerateInstanceError, GuardRefusal, InputError
from .graphs import InfoGraph, _bits
from .oracles import Instance

BRANCH_GUARD = 10 ** 6
PROFILE_GUARD = 10 ** 7
# The worst-tie DFS recurses once per agent; this many agents leave room
# under Python's default recursion limit (1000) for the caller's frames.
DEPTH_GUARD = 800

POLICIES = ("worst", "first", "random")


@dataclass(frozen=True)
class AgentTrace:
    agent: int
    observed: frozenset[int]  # union of observed decisions (element ids)
    marginals: tuple[Fraction, ...]  # one per action, in action-set order
    tied: tuple[int, ...]  # indices of the argmax actions
    chosen: int  # index of the chosen action


@dataclass(frozen=True)
class GreedyOutcome:
    profile: tuple[frozenset[int], ...]
    value: Fraction
    branches_explored: int
    trace: tuple[AgentTrace, ...]


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    profile: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class EfficiencyReport:
    gamma: Fraction
    opt_value: Fraction
    sol_value: Fraction
    opt_profile: tuple[frozenset[int], ...]
    sol_profile: tuple[frozenset[int], ...]


def _argmax_actions(oracle, actions: Sequence[int], observed: int) -> list[int]:
    """Indices of the best actions against ``observed``."""
    values = [oracle.value_num(a | observed) for a in actions]
    best = max(values)
    return [idx for idx, v in enumerate(values) if v == best]


def run_generalized_greedy(
    inst: Instance,
    g: InfoGraph,
    policy: str = "worst",
    seed: int = 0,
    max_branches: int = BRANCH_GUARD,
) -> GreedyOutcome:
    """Execute the greedy pass under graph g with the given tie policy.

    worst   minimize the final value over every argmax branch (exhaustive)
    first   break ties toward the earliest action in the listed order
    random  break ties uniformly with a seeded generator
    """
    if policy not in POLICIES:
        raise InputError(f"unknown tie policy {policy!r}")
    if g.n != inst.n:
        raise InputError(f"graph has {g.n} agents but instance has {inst.n}")
    masks = inst.action_masks()
    explored = 1
    if policy == "worst":
        choice_idx, explored = _worst_case_choices(
            inst.oracle, inst.n, g, masks, max_branches
        )
        choose = lambda i, tied: choice_idx[i]
    elif policy == "first":
        choose = lambda i, tied: tied[0]
    else:
        rng = random.Random(seed)
        choose = lambda i, tied: rng.choice(tied)
    return _replay(inst, g, masks, choose, explored)


def _tie_lists(g: InfoGraph):
    """Per agent i: the agents it observes, and a getter of the choices of
    the decided agents that it or some later agent still observes (None
    when there are none), the part of the past the memo key keeps."""
    observes: list[tuple[int, ...]] = [()] * (g.n + 1)
    visible: list = [None] * (g.n + 1)
    after = 0
    for i in range(g.n, 0, -1):
        after |= g.in_masks[i]
        observes[i] = tuple(_bits(g.in_masks[i]))
        decided = tuple(_bits(after & ((1 << (i - 1)) - 1)))
        if decided:
            visible[i] = itemgetter(*decided)
    return observes, visible


def _worst_case_choices(oracle, n, g, masks, max_branches) -> tuple[list[int], int]:
    """DFS over all argmax branches; returns the minimizing choice vector.

    State collapsing: the future depends only on the choices still observable
    by some later agent plus the running union of selections, so branches are
    memoized on that pair.  The search recurses once per agent but the last,
    whose leaves it evaluates in its loop, and refuses more than DEPTH_GUARD
    agents before it starts.
    """
    if n > DEPTH_GUARD:
        raise GuardRefusal(
            f"worst-case exploration guarded at {DEPTH_GUARD} agents, got {n}"
        )
    observes, visible = g._fact("tie_lists", _tie_lists)
    value_num = oracle.value_num
    memo: dict = {}
    counter = [0]

    def visit(i: int, chosen: tuple[int, ...], union: int):
        pick = visible[i]
        key = (i, pick(chosen) if pick else None, union)
        got = memo.get(key)
        if got is not None:
            return got
        observed = 0
        for j in observes[i]:
            observed |= masks[j][chosen[j]]
        acts = masks[i - 1]
        values = [value_num(a | observed) for a in acts]
        top = max(values)
        best_val, best_tail = None, None
        for idx, v in enumerate(values):
            if v != top:
                continue
            if i == n:
                counter[0] += 1
                if counter[0] > max_branches:
                    raise GuardRefusal(
                        f"worst-case exploration exceeded {max_branches} branches"
                    )
                val, tail = value_num(union | acts[idx]), ()
            else:
                val, tail = visit(i + 1, chosen + (idx,), union | acts[idx])
            if best_val is None or val < best_val:
                best_val, best_tail = val, (idx,) + tail
        memo[key] = (best_val, best_tail)
        return best_val, best_tail

    value, choice_vec = visit(1, (), 0)
    return list(choice_vec), counter[0]


def _replay(inst, g, masks, choose, explored) -> GreedyOutcome:
    """The greedy pass with its per-agent trace: agent i (0-based) takes
    ``choose(i, tied)`` among its argmax actions ``tied``."""
    oracle = inst.oracle
    trace = []
    union = 0
    chosen_masks = []
    for i in range(1, inst.n + 1):
        observed = 0
        for j_bit in _bits(g.in_masks[i]):
            observed |= chosen_masks[j_bit]
        acts = masks[i - 1]
        tied = _argmax_actions(oracle, acts, observed)
        base = oracle.value_mask(observed)
        pick = choose(i - 1, tied)
        trace.append(
            AgentTrace(
                agent=i,
                observed=frozenset(_bits(observed)),
                marginals=tuple(oracle.value_mask(a | observed) - base for a in acts),
                tied=tuple(tied),
                chosen=pick,
            )
        )
        chosen_masks.append(acts[pick])
        union |= acts[pick]
    profile = tuple(acts[t.chosen] for acts, t in zip(inst.actions, trace))
    return GreedyOutcome(profile, oracle.value_mask(union), explored, tuple(trace))


def brute_force_opt(inst: Instance, max_profiles: int = PROFILE_GUARD) -> OptResult:
    """Exact maximum over the action-set product, first maximizer kept.

    ``f`` sees a profile only through the union of its actions, so this is
    a dynamic program over unions, not a loop over profiles (see
    ``_union_optimum``).  Nothing here assumes monotonicity or
    submodularity, so the result is exact for any ``f``.  The product-size
    guard still refuses before any search.
    """
    best, picks = _union_optimum(inst.oracle, inst.action_masks(), max_profiles)
    profile = tuple(acts[idx] for acts, idx in zip(inst.actions, picks))
    return OptResult(inst.oracle.value_mask(best), profile)


def _union_optimum(oracle, masks, max_profiles) -> tuple[int, list[int]]:
    """The first maximal final union and the first profile reaching it.

    Walking the agents in order, the program keeps for each union that some
    prefix reaches the lexicographically first such prefix of action
    indices: if two prefixes reach the same union, so does every common
    extension, and the first stays first, so the first profile of every
    final union is found.  Each layer extends the previous one in its
    order, actions in listed order, so unions stay in the lexicographic
    order of their prefixes.  ``f`` is evaluated once per final union, and
    the first largest value wins: the first maximizer in product order.
    """
    total = 1
    for acts in masks:
        total *= len(acts)
        if total > max_profiles:
            raise GuardRefusal(
                f"profile space exceeds brute-force guard {max_profiles}"
            )
    # layers[i]: union after agents 1..i+1 -> (union after agents 1..i, action index)
    layers: list[dict[int, tuple[int, int]]] = []
    reached: dict = {0: None}
    for acts in masks:
        nxt: dict[int, tuple[int, int]] = {}
        for union in reached:
            for idx, a in enumerate(acts):
                key = union | a
                if key not in nxt:
                    nxt[key] = (union, idx)
        layers.append(nxt)
        reached = nxt
    best = max(reached, key=oracle.value_num)  # max keeps the first maximal union
    picks = []
    union = best
    for layer in reversed(layers):
        union, idx = layer[union]
        picks.append(idx)
    picks.reverse()
    return best, picks


def _efficiency_core(oracle, masks, g, max_branches, max_profiles):
    """The optimum's union, its profile's action indices, the worst choice
    vector and its union, of an instance given as action masks.

    The refusals come in a fixed order: the profile guard, a zero optimum,
    a graph of the wrong size, then the tie engine's own guards.
    """
    opt_union, opt_picks = _union_optimum(oracle, masks, max_profiles)
    if oracle.value_num(opt_union) == 0:
        raise DegenerateInstanceError(
            "optimum value is 0, efficiency ratio undefined"
        )
    n = len(masks)
    if g.n != n:
        raise InputError(f"graph has {g.n} agents but instance has {n}")
    choice_idx, _ = _worst_case_choices(oracle, n, g, masks, max_branches)
    sol_union = 0
    for acts, idx in zip(masks, choice_idx):
        sol_union |= acts[idx]
    return opt_union, opt_picks, choice_idx, sol_union


def efficiency(
    inst: Instance,
    g: InfoGraph,
    max_branches: int = BRANCH_GUARD,
    max_profiles: int = PROFILE_GUARD,
) -> EfficiencyReport:
    """Worst-case greedy value divided by the brute-force optimum.

    Only the worst choice vector is needed, so no per-agent trace is built.
    """
    oracle = inst.oracle
    opt_union, opt_picks, choice_idx, sol_union = _efficiency_core(
        oracle, inst.action_masks(), g, max_branches, max_profiles
    )
    return EfficiencyReport(
        gamma=Fraction(oracle.value_num(sol_union), oracle.value_num(opt_union)),
        opt_value=oracle.value_mask(opt_union),
        sol_value=oracle.value_mask(sol_union),
        opt_profile=tuple(acts[idx] for acts, idx in zip(inst.actions, opt_picks)),
        sol_profile=tuple(acts[idx] for acts, idx in zip(inst.actions, choice_idx)),
    )
