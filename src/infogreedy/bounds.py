"""Worst-case efficiency bounds and the instances that achieve them.

For a graph G with fractional independence number a* the worst-case
efficiency of the constrained greedy lies in [1/(a*+1), 1/a*].  This module
computes that bracket, constructs certified instances realizing 1/a* (always)
and 1/(1+alpha) (whenever the sibling property holds), and runs a budgeted
adversarial probe over a small weighted-cover family.

The 1/a* construction pairs each agent i with a shared-capacity element u_i
and a private element v_i of equal weight and lets the worst tie chain send
everyone to the shared side.  The plain capped sum realizes this only when
every positive-weight agent fits under the cap together with its whole
in-neighborhood; otherwise (fractional LP optimum, smallest case an induced
5-cycle) a valid u-block table is synthesized by exact interval propagation
over all submodularity constraints, on integer numerators over the lcm of
the weights' denominators.  Every construction ends in the same step,
``_certified``: build the instance, run the greedy engine on it, and return
it only if it realizes the predicted ratio exactly.  A certificate keeps no
reference to its graph, so storing it with the graph's other facts forms no
reference cycle.  The probe solves each draw on action masks and integers
and builds an ``Instance`` only for a new minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DegenerateInstanceError,
    GuardRefusal,
    InfeasibleLpError,
    InputError,
    InternalConsistencyError,
)
from .graphs import InfoGraph, _induced, _mask, _out_mask, exact_numbers, sibling_property
from .greedy import (
    BRANCH_GUARD,
    PROFILE_GUARD,
    EfficiencyReport,
    _efficiency_core,
    efficiency,
)
from .lp import alpha_star, alpha_star_solution
from .oracles import (
    Instance,
    TwoBlockOracle,
    _scaled,
    build_capped_sum,
    build_wsc,
    capped_sum_tie_safe,
    make_instance,
)

ZERO = Fraction(0)
ONE = Fraction(1)

SYNTHESIS_GUARD = 10
# probes per adversarial search; 10,000 probes on G(16, 1/2) take about 25 s
BUDGET_GUARD = 10_000


@dataclass(frozen=True)
class BoundsReport:
    lower: Fraction  # 1 / (a* + 1)
    upper: Fraction  # 1 / a*
    alpha_star: Fraction
    sibling_upper: Fraction | None  # 1 / (1 + alpha) when the property holds
    tight: dict  # {"lower": bool, "upper": bool} certified-tight flags


@dataclass(frozen=True)
class WorstCaseInstance:
    instance: Instance
    predicted_gamma: Fraction
    construction: str  # "canonical_upper" | "sibling_lower"
    realized: EfficiencyReport


def _is_clique_minus_last_edge(g: InfoGraph) -> bool:
    return g.m == g.n * (g.n - 1) // 2 - 1 and (g.n - 1, g.n) not in g.edges


def efficiency_bounds(g: InfoGraph) -> BoundsReport:
    """The [1/(a*+1), 1/a*] bracket plus certified-tightness flags.

    The lower end is certified tight when the sibling property holds and
    alpha = k (the sibling instance then realizes it).  The upper end is
    certified tight for a single agent and for the complete graph missing
    exactly the (n-1, n) edge, where no instance can fall below 1/2.
    """
    if g.n < 1:
        raise InputError("bounds need at least one agent")
    nums = exact_numbers(g)  # refuses past its guard before any other work
    verdict = sibling_property(g)
    a_star = alpha_star(g)
    sibling_upper = Fraction(1, 1 + nums.alpha) if verdict else None
    tight = {
        "lower": bool(verdict) and nums.alpha == nums.k,
        "upper": g.n == 1 or _is_clique_minus_last_edge(g),
    }
    return BoundsReport(
        lower=1 / (a_star + 1),
        upper=1 / a_star,
        alpha_star=a_star,
        sibling_upper=sibling_upper,
        tight=tight,
    )


# ---------------------------------------------------------------------------
# Upper-bound instance: gamma = 1/a* exactly
# ---------------------------------------------------------------------------


def upper_bound_instance(g: InfoGraph) -> WorstCaseInstance:
    """Certified instance with worst-case efficiency exactly 1/a*(G).

    Preferred shape: each agent i owns a shared-capacity element u_i and a
    private element v_i of equal weight, weights an optimal vertex of the
    clique LP.  Every agent then ties between its two options in every
    branch, the worst tie chain selects every u_i for a value of 1, and the
    optimum selects every v_i for a*(G).

    The tie requirement is not always satisfiable: some orientations force a
    shared element to overlap two mutually disjoint observed elements at
    once (the in-neighborhood of one observer crosses an edge watched by
    another).  Those graphs always admit something stronger, a sibling
    instance at 1/(1+alpha) <= 1/a*, which is lifted to exactly 1/a* by
    granting agent 1 a constant always-covered bonus target.

    The certificate is built once per graph and kept with its other facts.
    """
    return g._fact("upper_bound_instance", _build_upper_bound_instance)


def _certified(g: InfoGraph, oracle, actions, predicted: Fraction,
               construction: str, what: str) -> WorstCaseInstance:
    """The instance ``oracle`` x ``actions``, returned only once the greedy
    engine realizes exactly ``predicted`` on it under ``g``; ``what`` names
    it in the internal-consistency failure raised otherwise."""
    inst = make_instance(oracle, actions)
    realized = efficiency(inst, g)
    if realized.gamma != predicted:
        raise InternalConsistencyError(
            f"{what} realized {realized.gamma}, predicted {predicted}"
        )
    return WorstCaseInstance(inst, predicted, construction, realized)


def _build_upper_bound_instance(g: InfoGraph) -> WorstCaseInstance:
    if g.n < 1:
        raise InputError("construction needs at least one agent")
    a_star, z = alpha_star_solution(g)
    if sum(z, ZERO) != a_star or a_star < 1:
        raise InternalConsistencyError("clique LP returned a non-optimal point")
    tie_safe = capped_sum_tie_safe(z, g)
    if not tie_safe:
        nums = exact_numbers(g)
        if nums.alpha == a_star:
            # the LP landed on a fractional vertex of a degenerate optimal
            # face; the indicator of a maximum independent set is optimal
            # too, and tie-safe since no member observes another
            jset = nums.max_independent_sets[0]
            z = tuple(ONE if i in jset else ZERO for i in range(1, g.n + 1))
            tie_safe = True

    if tie_safe:
        oracle = build_capped_sum(z, g)
    else:
        try:
            table = synthesize_shared_table(g, z)
            oracle = TwoBlockOracle(table, z)
        except InfeasibleLpError:
            return _padded_sibling_upper(g, a_star)
    actions = [[[i - 1], [g.n + i - 1]] for i in range(1, g.n + 1)]
    return _certified(g, oracle, actions, 1 / a_star, "canonical_upper",
                      "upper-bound instance")


def _padded_sibling_upper(g: InfoGraph, a_star: Fraction) -> WorstCaseInstance:
    """Lift a sibling instance from 1/(1+alpha) to exactly 1/a*.

    Joining a fresh target of value beta = (1+alpha-a*)/(a*-1) to every
    action of agent 1 shifts the worst value and the optimum by the same
    beta without disturbing any decision, moving the ratio to 1/a*.
    """
    nums = exact_numbers(g)
    if not sibling_property(g) or a_star > nums.alpha + 1 or a_star <= 1:
        raise InternalConsistencyError(
            "no certified construction reaches 1/a* on this graph"
        )
    base = sibling_instance(g).instance
    beta = (1 + nums.alpha - a_star) / (a_star - 1)
    pad = len(base.oracle.values)
    oracle = build_wsc([*base.oracle.values, beta])
    first, *rest = base.actions
    actions = [[sorted(a | {pad}) for a in first]] + [[sorted(a) for a in acts] for acts in rest]
    return _certified(g, oracle, actions, 1 / a_star, "canonical_upper",
                      "padded upper-bound instance")


def synthesize_shared_table(g: InfoGraph, weights) -> dict[int, Fraction]:
    """A u-block table making every in-neighborhood marginal stay full.

    Finds g_u: 2^[n] -> [0, 1] with g_u(empty) = 0, g_u({i}) = w_i,
    g_u(U) = 1, monotone, submodular, and g_u(A + i) = g_u(A) + w_i for every
    A inside the in-neighborhood of i.  The capped sum violates the last
    family exactly when some positive-weight in-neighborhood overflows the
    cap, so the table is completed by exact interval propagation over the
    constraint consequences and its upper envelope is verified exhaustively.
    Propagation stops at the first pass that leaves some interval empty
    (bounds only tighten, so the verdict is already final there) and
    otherwise runs to its fixed point, which takes at most 2^(n+1) * D
    passes for D the lcm of the weights' denominators.
    An envelope that fails verification without a provably empty interval
    is an internal-consistency failure: no graph has been seen to reach it.

    Zero-weight agents are invisible to the table (their elements add
    nothing anywhere), which also drops them from every tie base.  Raises
    InfeasibleLpError when the requirement system provably has no solution.
    """
    w_full = [Fraction(x) for x in weights]
    support = [i for i in range(1, g.n + 1) if w_full[i - 1] != 0]
    if len(support) < g.n:
        sub = _induced(g, support)
        sub_table = _synthesize_dense(sub, [w_full[i - 1] for i in support])
        table: dict[int, Fraction] = {}
        for mask in range(1 << g.n):
            proj = 0
            for idx, i in enumerate(support):
                if mask >> (i - 1) & 1:
                    proj |= 1 << idx
            table[mask] = sub_table[proj]
        return table
    return _synthesize_dense(g, w_full)


def _synthesize_dense(g: InfoGraph, w: list[Fraction]) -> dict[int, Fraction]:
    """Interval propagation over all 2^n values of the u-block table.

    Each mask carries bounds lo <= g_u <= hi, and every pass applies the
    tie, monotonicity and submodularity consequences until none changes.
    The loop terminates without a pass cap:

    - every bound is a multiple of 1/D, D the lcm of the weights'
      denominators, since it starts as 0, 1, a weight or a capped weight
      sum and each update adds or subtracts weights and other bounds;
    - lo only rises and hi only falls, so an empty interval stays empty:
      the loop raises after the first pass that leaves one, and after every
      other pass 0 <= lo <= hi <= 1 holds for every mask;
    - every pass that changes anything moves at least one of the 2^(n+1)
      bounds by at least 1/D, so at most 2^(n+1) * D passes change
      something before a pass that changes nothing ends the loop.

    Since every bound is a multiple of 1/D, the propagation and the
    validation run on the integer numerators over D, and the table's
    Fractions are built once, at the end.
    """
    n = g.n
    if n > SYNTHESIS_GUARD:
        raise GuardRefusal(f"table synthesis guarded at n <= {SYNTHESIS_GUARD}")
    full = (1 << n) - 1
    den, w = _scaled(w)

    def wsum(mask: int) -> int:
        total = 0
        m = mask
        while m:
            total += w[(m & -m).bit_length() - 1]
            m &= m - 1
        return total

    # exact ties g(A | i) - g(A) = w_i for A inside the in-neighborhood of i
    ties: list[tuple[int, int, int]] = []
    for i in range(1, n + 1):
        nbr = g.in_masks[i]
        sub = nbr
        while True:
            ties.append((sub, sub | (1 << (i - 1)), w[i - 1]))
            if sub == 0:
                break
            sub = (sub - 1) & nbr

    lo = [0] * (1 << n)
    hi = [min(den, wsum(m)) for m in range(1 << n)]
    lo[full] = hi[full] = den
    for i in range(n):
        lo[1 << i] = hi[1 << i] = w[i]
    lo[0] = hi[0] = 0

    singles = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
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
        # bounds only tighten, so an empty interval stays empty
        if any(low > high for low, high in zip(lo, hi)):
            raise InfeasibleLpError(
                "no shared-capacity table satisfies the tie requirements"
            )

    if not _table_valid(n, w, den, ties, hi):
        raise InternalConsistencyError(
            "propagated table is neither valid nor provably infeasible"
        )
    return {mask: Fraction(hi[mask], den) for mask in range(1 << n)}


def _table_valid(n, w, den, ties, table) -> bool:
    """Is ``table`` (numerators over ``den``, indexed by mask) a valid u-block
    table for the weight numerators ``w`` and the tie triples ``ties``?"""
    full = (1 << n) - 1
    if table[0] != 0 or table[full] != den:
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
# Sibling instance: gamma = 1/(1 + alpha) exactly
# ---------------------------------------------------------------------------


def sibling_instance(g: InfoGraph) -> WorstCaseInstance:
    """Weighted-cover instance realizing 1/(1 + alpha) on a sibling graph.

    One unit-value target per member of a maximum independent set J plus one
    for an outside observer w; members of J choose between w's target and
    their own, w and everyone else are pinned.  The worst tie chain piles all
    of J onto w's target.  That chain survives only if no member of J after w
    observes w (otherwise w's pinned pick reveals the pile-up and the
    observer defects), so the witness search prefers such a (J, w); when
    every witness is observed by later J-members, w instead receives a
    worthless decoy action, which keeps its observers indifferent in the
    piling branch without changing either side of the ratio.

    The instance is built once per graph and kept with its other facts.
    """
    return g._fact("sibling_instance", _build_sibling_instance)


def _build_sibling_instance(g: InfoGraph) -> WorstCaseInstance:
    verdict = sibling_property(g)
    if not verdict:
        raise InputError("graph lacks the sibling property")
    # the first witness whose w no member of J observes, else the first one
    jset, _, w = next((wit for wit in verdict.witnesses
                       if _out_mask(g, wit[2]) & _mask(wit[0]) == 0),
                      verdict.witnesses[0])
    decoy = _out_mask(g, w) & _mask(jset) != 0

    n = g.n
    values = [ONE if (i in jset or i == w) else ZERO for i in range(1, n + 1)]
    if decoy:
        values.append(ZERO)
    oracle = build_wsc(values)
    actions = []
    for i in range(1, n + 1):
        if i in jset:
            actions.append([[w - 1], [i - 1]])
        elif i == w:
            actions.append([[w - 1], [n]] if decoy else [[w - 1]])
        else:
            actions.append([[i - 1]])
    predicted = Fraction(1, 1 + exact_numbers(g).alpha)
    return _certified(g, oracle, actions, predicted, "sibling_lower", "sibling instance")


# ---------------------------------------------------------------------------
# Adversarial probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    min_gamma: Fraction
    witness: Instance
    evaluated: int


def adversarial_search(g: InfoGraph, budget: int = 2000, seed: int = 0) -> SearchResult:
    """Budgeted empirical probe of the worst efficiency over small instances.

    Samples weighted-cover instances with at most n+2 targets, values in
    0..3, and at most 3 actions per agent (the family containing every known
    tight example), always including the two constructed certificates.  The
    returned minimum can never fall below 1/(a*+1); seeing it would be an
    internal-consistency failure, not a discovery.
    """
    if g.n < 1:
        raise InputError("search needs at least one agent")
    if budget < 0:
        raise InputError(f"probe budget must be nonnegative, got {budget}")
    if budget > BUDGET_GUARD:
        raise GuardRefusal(f"probe budget {budget:,} exceeds the budget guard {BUDGET_GUARD:,}")
    rng = random.Random(seed)
    floor = efficiency_bounds(g).lower

    best: Fraction | None = None
    witness: Instance | None = None
    evaluated = 0

    def consider(sol, opt, build):
        """Count gamma = sol / opt (opt > 0), compared by cross-multiplying;
        ``build()`` gives the witness and runs only for a new minimum."""
        nonlocal best, witness, evaluated
        evaluated += 1
        if sol * floor.denominator < floor.numerator * opt:
            raise InternalConsistencyError(
                f"observed efficiency {Fraction(sol, opt)} below the proven floor {floor}"
            )
        if best is None or sol * best.denominator < best.numerator * opt:
            best, witness = Fraction(sol, opt), build()

    certs = [upper_bound_instance(g)]
    if sibling_property(g):
        certs.append(sibling_instance(g))
    for cert in certs:
        gamma = cert.realized.gamma
        consider(gamma.numerator, gamma.denominator, lambda: cert.instance)

    n = g.n
    for _ in range(budget):
        n_targets = rng.randint(1, n + 2)
        values = [rng.randint(0, 3) for _ in range(n_targets)]
        if not any(values):
            values[rng.randrange(n_targets)] = 1
        actions = []
        masks = []
        for _ in range(n):
            k = rng.randint(1, min(3, n_targets))
            drawn = set()
            while len(drawn) < k:
                if rng.random() < 0.8:
                    drawn.add((rng.randrange(n_targets),))
                else:
                    drawn.add(tuple(sorted(
                        rng.sample(range(n_targets), min(2, n_targets))
                    )))
            acts = sorted(drawn)
            actions.append(acts)
            masks.append([sum(1 << e for e in a) for a in acts])
        oracle = build_wsc(values)
        try:
            opt_union, _, _, sol_union = _efficiency_core(
                oracle, masks, g, BRANCH_GUARD, PROFILE_GUARD
            )
        except DegenerateInstanceError:
            continue  # actions only reach worthless targets; ratio undefined
        # every drawn value is a nonnegative integer, so opt > 0 here
        consider(oracle.value_num(sol_union), oracle.value_num(opt_union),
                 lambda: make_instance(oracle, actions))

    return SearchResult(best, witness, evaluated)
