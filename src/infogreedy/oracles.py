"""Valuation oracles: normalized monotone submodular set functions.

All values are exact rationals (fractions.Fraction).  Floats never enter the
pipeline; tie-breaking in the greedy engine and the bound-achieving
constructions are destroyed by floating-point ties.  Inside, every oracle
fixes one positive integer denominator at construction and computes integer
numerators over it: the set-cover, capped-sum, two-block and table oracles
scale their values by the lcm of the denominators, and the target-assignment
oracle also by the product of its probability denominators.

``value_num`` returns the cached integer numerator of a value, which orders
exactly against the oracle's other values; the greedy engine and the
exhaustive audit compare these.  ``value_mask`` returns the Fraction
``value_num / _den`` to every caller that wants the value itself.

Ground-set elements are dense integer ids 0..m-1.  Subsets travel through the
public API as iterables of ids and internally as bitmasks, with per-oracle
memoization of evaluated masks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import GuardRefusal, InputError
from .graphs import _bits, maximal_cliques

AUDIT_GUARD = 16


def mask_of(subset: Iterable[int], ground_size: int) -> int:
    """Pack element ids into a bitmask, validating the range."""
    mask = 0
    for e in subset:
        if not 0 <= e < ground_size:
            raise InputError(f"element {e} outside ground set of size {ground_size}")
        mask |= 1 << e
    return mask


def _scaled(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm ``s`` of the denominators and the integers ``s * values``."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _dense_table(table: Mapping[int, Fraction], size: int, what: str) -> list[Fraction]:
    """A table over every subset of a ``size``-element set, indexed by mask.

    The entry count is checked against 2^size without forming ``1 << size``,
    so a huge size read from a file never allocates a huge integer.
    """
    count = len(table)
    if count & (count - 1) or count.bit_length() != size + 1:
        raise InputError(f"{what} has {count} entries, expected 2^{size}")
    dense: list[Fraction] = [Fraction(0)] * count
    for mask, v in table.items():
        if not 0 <= mask < count:
            raise InputError(f"{what} mask {mask} outside the ground set")
        dense[mask] = Fraction(v)
    return dense


def set_of(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


class ValuationOracle:
    """Base class: a normalized monotone submodular f: 2^S -> Q>=0.

    Subclasses set ``_den`` (positive) at construction and implement
    ``_value_num``, f(mask) * ``_den`` as an integer, for a validated bitmask.
    Instances are immutable after construction and safe to share across
    threads; the value cache is append-only.
    """

    kind = "abstract"
    _den: int

    def __init__(self, ground_size: int):
        if ground_size < 0:
            raise InputError("ground size must be nonnegative")
        self.ground_size = ground_size
        self._cache: dict[int, int] = {}

    def _value_num(self, mask: int) -> int:
        raise NotImplementedError

    def value_num(self, mask: int) -> int:
        """f(mask) * ``_den``, an int that orders exactly against the oracle's other values."""
        got = self._cache.get(mask)
        if got is None:
            got = self._value_num(mask)
            self._cache[mask] = got
        return got

    # value_mask reads the cache through this private copy, past any
    # subclass that wraps value_num
    _cached_num = value_num

    def value_mask(self, mask: int) -> Fraction:
        return Fraction(self._cached_num(mask), self._den)

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.value_mask(mask_of(subset, self.ground_size))

    def to_params(self) -> dict:
        """JSON-ready parameters; inverse of serialize.oracle_from_obj."""
        raise NotImplementedError


class WeightedSetCoverOracle(ValuationOracle):
    """f(A) = sum of target values over covered targets, each counted once."""

    kind = "wsc"

    def __init__(self, values: Sequence[Fraction]):
        values = tuple(values)
        if all(type(v) is int for v in values):  # the probe's draws: no scaling to do
            den, nums = 1, values
        else:
            values = tuple(map(Fraction, values))
            den, nums = _scaled(values)
        for t, v in enumerate(values):
            if v < 0:
                raise InputError(f"target {t} has negative value {v}")
        super().__init__(len(values))
        self.values = values
        self._den, self._nums = den, nums

    def _value_num(self, mask: int) -> int:
        nums = self._nums
        total = 0
        t = 0
        while mask:
            if mask & 1:
                total += nums[t]
            mask >>= 1
            t += 1
        return total

    def to_params(self) -> dict:
        return {"kind": self.kind, "values": list(self.values)}


class TargetAssignmentOracle(ValuationOracle):
    """Success-probability coverage over agent-target pairs.

    Element (a, t) is the event "agent a engages target t" and has dense id
    a * T + t.  A covered target t pays v_t * (1 - prod over engaged agents of
    (1 - p_a)), so distinct agents covering the same target remain distinct
    ground elements and action sets stay disjoint across agents.

    With p_a = r_a / q_a, Q = prod q_a and L the lcm of the value
    denominators, the denominator is L * Q and target t contributes the
    integer (L * v_t) * (Q - (Q // prod q_a) * prod (q_a - r_a)), both
    products over the agents that engage it.
    """

    kind = "vta"

    def __init__(self, values: Sequence[Fraction], probs: Sequence[Fraction]):
        values = tuple(Fraction(v) for v in values)
        probs = tuple(Fraction(p) for p in probs)
        for t, v in enumerate(values):
            if v < 0:
                raise InputError(f"target {t} has negative value {v}")
        for a, p in enumerate(probs):
            if not 0 <= p <= 1:
                raise InputError(f"agent {a} has success probability {p} outside [0, 1]")
        super().__init__(len(values) * len(probs))
        self.values = values
        self.probs = probs
        scale, self._nums = _scaled(values)
        self._q = [p.denominator for p in probs]
        self._miss = [p.denominator - p.numerator for p in probs]
        self._Q = math.prod(self._q)
        self._den = scale * self._Q

    def element_id(self, agent: int, target: int) -> int:
        return agent * len(self.values) + target

    def _value_num(self, mask: int) -> int:
        T = len(self.values)
        engaged: dict[int, tuple[int, int]] = {}  # target -> (prod q_a, prod q_a - r_a)
        for e in _bits(mask):
            a, t = divmod(e, T)
            q, miss = engaged.get(t, (1, 1))
            engaged[t] = (q * self._q[a], miss * self._miss[a])
        Q = self._Q
        return sum(self._nums[t] * (Q - Q // q * miss) for t, (q, miss) in engaged.items())

    def to_params(self) -> dict:
        return {"kind": self.kind, "values": list(self.values), "probs": list(self.probs)}


class _TwoBlock(ValuationOracle):
    """Ground set {u_1..u_n, v_1..v_n}: agent i (0-based) owns ids i and n + i."""

    def __init__(self, weights: Sequence[Fraction]):
        weights = tuple(Fraction(w) for w in weights)
        for i, w in enumerate(weights):
            if w < 0:
                raise InputError(f"agent {i} has negative weight {w}")
        super().__init__(2 * len(weights))
        self.weights = weights

    @property
    def n_agents(self) -> int:
        return len(self.weights)

    def u_id(self, agent: int) -> int:
        return agent

    def v_id(self, agent: int) -> int:
        return self.n_agents + agent


class CappedSumOracle(_TwoBlock):
    """f(A) = min(1, sum of w_i over u_i in A) + sum of w_i over v_i in A.

    The u block shares a unit of capacity; the v block is modular, so the
    marginal of any v_i is w_i against every base.
    """

    kind = "capped_sum"

    def __init__(self, weights: Sequence[Fraction]):
        super().__init__(weights)
        self._den, self._nums = _scaled(self.weights)

    def _value_num(self, mask: int) -> int:
        n = self.n_agents
        nums = self._nums
        capped = 0
        modular = 0
        for i in range(n):
            if mask >> i & 1:
                capped += nums[i]
            if mask >> (n + i) & 1:
                modular += nums[i]
        return min(self._den, capped) + modular

    def to_params(self) -> dict:
        return {"kind": self.kind, "weights": list(self.weights)}


class TwoBlockOracle(_TwoBlock):
    """A tabulated u-block plus the modular v-block.

    f(A) = table[A restricted to u block] + sum of w_i over v_i in A.  The
    capped sum is the special case table[M] = min(1, sum of w_i over M); the
    general table is produced by the bound-achieving synthesis for graphs
    whose clique LP optimum is fractional.
    """

    kind = "two_block"

    def __init__(self, u_table: Mapping[int, Fraction], weights: Sequence[Fraction]):
        u_values = _dense_table(u_table, len(weights), "u table")  # refused before the weights
        super().__init__(weights)
        if u_values[0] != 0:
            raise InputError("u table must map the empty set to 0")
        n = self.n_agents
        self._den, nums = _scaled(self.weights + tuple(u_values))
        self._w_nums, self._u_nums = nums[:n], nums[n:]

    def _value_num(self, mask: int) -> int:
        n = self.n_agents
        w = self._w_nums
        total = self._u_nums[mask & ((1 << n) - 1)]
        for i in range(n):
            if mask >> (n + i) & 1:
                total += w[i]
        return total

    def to_params(self) -> dict:
        return {
            "kind": self.kind,
            "weights": list(self.weights),
            "u_table": {m: Fraction(v, self._den) for m, v in enumerate(self._u_nums)},
        }


class TableOracle(ValuationOracle):
    """Explicit table of values, one per subset; used by synthesized instances."""

    kind = "table"

    def __init__(self, ground_size: int, table: Mapping[int, Fraction]):
        super().__init__(ground_size)
        values = _dense_table(table, ground_size, "table")
        if values[0] != 0:
            raise InputError("table oracle must map the empty set to 0")
        self._den, self._nums = _scaled(values)

    def _value_num(self, mask: int) -> int:
        return self._nums[mask]

    def to_params(self) -> dict:
        return {
            "kind": self.kind,
            "ground": self.ground_size,
            "table": {m: Fraction(v, self._den) for m, v in enumerate(self._nums)},
        }


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def evaluate(oracle: ValuationOracle, subset: Iterable[int]) -> Fraction:
    """f(subset), with f(empty) = 0 by construction."""
    return oracle.value(subset)


def marginal(oracle: ValuationOracle, action: Iterable[int], base: Iterable[int]) -> Fraction:
    """f(action | base) = f(action + base) - f(base)."""
    a = mask_of(action, oracle.ground_size)
    b = mask_of(base, oracle.ground_size)
    return oracle.value_mask(a | b) - oracle.value_mask(b)


def build_wsc(values: Sequence[Fraction]) -> WeightedSetCoverOracle:
    return WeightedSetCoverOracle(values)


def build_vta(values: Sequence[Fraction], probs: Sequence[Fraction]) -> TargetAssignmentOracle:
    return TargetAssignmentOracle(values, probs)


def build_capped_sum(weights: Sequence[Fraction], graph=None) -> CappedSumOracle:
    """Capped-sum oracle; with a graph, enforce per-clique weight budgets.

    Precondition (checked when ``graph`` is given): every clique of the graph
    has total weight at most 1, so the shared u-capacity never runs out inside
    a clique.  Violations name the offending clique.
    """
    oracle = CappedSumOracle(weights)
    if graph is not None:
        if graph.n != oracle.n_agents:
            raise InputError(
                f"graph has {graph.n} agents, weights have {oracle.n_agents}"
            )
        for clique in maximal_cliques(graph):
            total = sum((oracle.weights[i - 1] for i in clique), Fraction(0))
            if total > 1:
                raise InputError(
                    f"clique {sorted(clique)} has total weight {total} > 1"
                )
    return oracle


def capped_sum_tie_safe(weights: Sequence[Fraction], graph) -> bool:
    """True when the capped sum keeps full in-neighborhood marginals.

    The capped sum satisfies "the marginal of u_i over any subset of its
    in-neighborhood equals w_i" exactly when each positive-weight agent fits
    together with its whole in-neighborhood under the unit cap.  Graphs whose
    clique LP optimum is fractional (an induced 5-cycle is the smallest case)
    can violate this even though every clique respects the cap.
    """
    weights = [Fraction(w) for w in weights]
    for i in range(1, graph.n + 1):
        w = weights[i - 1]
        if w == 0:
            continue
        if w + sum((weights[j - 1] for j in graph.in_neighbors(i)), Fraction(0)) > 1:
            return False
    return True


@dataclass(frozen=True)
class AuditReport:
    normalized: bool
    monotone: bool
    submodular: bool
    witnesses: dict

    @property
    def ok(self) -> bool:
        return self.normalized and self.monotone and self.submodular


def _split(vec: list, bit: int) -> tuple[list, list]:
    """The entries of ``vec`` whose index lacks ``bit``, and the matching
    entries with it, both in index order: the index with ``bit`` removed.

    A vector over all masks holds these as runs of length 2^bit, every
    2^(bit+1) entries, so both halves are gathered with whichever of
    strided or blocked slices needs fewer slice operations.
    """
    run = 1 << bit
    step = run << 1
    blocks = len(vec) // step
    if run <= blocks:
        lower = [None] * (run * blocks)
        upper = [None] * (run * blocks)
        for r in range(run):
            lower[r::run] = vec[r::step]
            upper[r::run] = vec[r + run::step]
    else:
        lower, upper = [], []
        for start in range(0, len(vec), step):
            lower += vec[start:start + run]
            upper += vec[start + run:start + step]
    return lower, upper


def _insert_zero(index: int, bit: int) -> int:
    """The mask whose index in ``_split``'s halves at ``bit`` is ``index``."""
    low = index & ((1 << bit) - 1)
    return (index - low) << 1 | low


def _first_below(left: list, right: list) -> int:
    """The first index at which ``left`` is smaller than ``right``."""
    return next(k for k, (a, b) in enumerate(zip(left, right)) if a < b)


def audit_properties(oracle: ValuationOracle) -> AuditReport:
    """Exhaustively audit normalization, monotonicity, and diminishing returns.

    Refuses (rather than samples) above ``AUDIT_GUARD``, read on every call:
    a sampled pass would be a false certificate.  Monotonicity is checked on
    all single-element extensions, which by transitivity covers every nested
    pair.  Diminishing
    returns is checked in the equivalent pair form
    f(A+x) + f(A+y) >= f(A+x+y) + f(A), whose failure yields the witness
    triple (A, B=A+y, x).

    The checks sweep whole vectors: per element x the marginal vector
    f(A+x) - f(A) over every A without x must be nonnegative and must not
    rise along any element y > x.  Only a failing x or (x, y) is searched
    for its first failing A, and the smallest (A, x, y) is reported, the
    witness an A-then-x-then-y loop finds first.
    """
    m = oracle.ground_size
    if m > AUDIT_GUARD:
        raise GuardRefusal(
            f"ground set of size {m} exceeds exhaustive audit guard {AUDIT_GUARD}"
        )
    witnesses: dict = {}
    values = list(map(oracle.value_num, range(1 << m)))
    empty = Fraction(values[0], oracle._den)
    normalized = empty == 0
    if not normalized:
        witnesses["normalized"] = {"value_of_empty": empty}

    mono_fail = None  # smallest (A, x) with f(A+x) < f(A)
    sub_fail = None  # smallest (A, x, y) with f(A+x) + f(A+y) < f(A+x+y) + f(A)
    for x in range(m):
        without, with_x = _split(values, x)
        if any(map(operator.lt, with_x, without)):
            fail = (_insert_zero(_first_below(with_x, without), x), x)
            mono_fail = fail if mono_fail is None else min(mono_fail, fail)
        gain = list(map(operator.sub, with_x, without))  # indexed by A without x
        for y in range(x + 1, m):
            lower, upper = _split(gain, y - 1)
            if any(map(operator.lt, lower, upper)):
                mask = _insert_zero(_insert_zero(_first_below(lower, upper), y - 1), x)
                fail = (mask, x, y)
                sub_fail = fail if sub_fail is None else min(sub_fail, fail)

    if mono_fail is not None:
        mask, x = mono_fail
        witnesses["monotone"] = {
            "A": sorted(set_of(mask)),
            "B": sorted(set_of(mask | (1 << x))),
        }
    if sub_fail is not None:
        mask, x, y = sub_fail
        witnesses["submodular"] = {
            "A": sorted(set_of(mask)),
            "B": sorted(set_of(mask | (1 << y))),
            "x": x,
        }
    return AuditReport(normalized, mono_fail is None, sub_fail is None, witnesses)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A valuation oracle plus one action set per agent."""

    oracle: ValuationOracle
    actions: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self):
        if not self.actions:
            raise InputError("instance needs at least one agent")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise InputError(f"agent {i + 1} has an empty action set")
            for a in acts:
                mask_of(a, self.oracle.ground_size)

    @property
    def n(self) -> int:
        return len(self.actions)

    def action_masks(self) -> list[list[int]]:
        g = self.oracle.ground_size
        return [[mask_of(a, g) for a in acts] for acts in self.actions]


def make_instance(oracle: ValuationOracle, actions: Sequence[Sequence[Iterable[int]]]) -> Instance:
    return Instance(oracle, tuple(tuple(frozenset(a) for a in acts) for acts in actions))
