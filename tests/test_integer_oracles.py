"""Every valuation oracle is an integer numerator over one denominator.

The target-assignment oracle (``vta``) computes its numerators over
``lcm(value denominators) * prod q_a``; here it is checked value by value,
and through the exhaustive audit, against the direct Fraction evaluation of
v_t * (1 - prod over engaged agents of (1 - p_a)).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from infogreedy import audit_properties, build_vta

from test_engine_reference import KINDS, _random_oracle
from test_exact_kernels import reference_audit


def fraction_vta(oracle, mask: int) -> F:
    """f(mask) of a ``vta`` oracle, computed in Fractions throughout."""
    T = len(oracle.values)
    miss = [F(1)] * T
    covered = [False] * T
    e = 0
    while mask:
        if mask & 1:
            a, t = divmod(e, T)
            covered[t] = True
            miss[t] *= 1 - oracle.probs[a]
        mask >>= 1
        e += 1
    return sum((oracle.values[t] * (1 - miss[t]) for t in range(T) if covered[t]), F(0))


def _prob(rng: random.Random, max_den: int) -> F:
    roll = rng.random()
    if roll < 0.15:
        return F(0)
    if roll < 0.3:
        return F(1)
    q = rng.randint(1, max_den)
    return F(rng.randint(0, q), q)


def seeded_vta(rng: random.Random, agents: int, targets: int, max_den: int):
    values = [F(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(targets)]
    return build_vta(values, [_prob(rng, max_den) for _ in range(agents)])


def differential_cases():
    rng = random.Random(2018)
    cases = [
        build_vta([2, F(1, 2)], [F(1, 3), F(2, 7), 1]),
        build_vta([1, 3, F(5, 4)], [0, 1, 0, 1]),
        build_vta([F(7, 3)], [F(999_999, 10 ** 6), F(1, 999_983), F(123_457, 999_979)]),
    ]
    for _ in range(30):
        agents = rng.randint(1, 4)
        targets = rng.randint(1, 3)
        max_den = rng.choice((3, 7, 100, 10 ** 6))
        cases.append(seeded_vta(rng, agents, targets, max_den))
    return cases


class TestTargetAssignmentAgainstFractions:
    def test_every_value_matches_on_seeded_instances(self):
        for oracle in differential_cases():
            for mask in range(1 << oracle.ground_size):
                assert oracle.value_mask(mask) == fraction_vta(oracle, mask)

    def test_sixteen_agents_on_one_target(self):
        # fourteen denominators near 10^6 and a sure and a useless agent
        rng = random.Random(16)
        dens = [rng.randint(10 ** 5, 10 ** 6) for _ in range(14)]
        probs = [F(rng.randint(1, q - 1), q) for q in dens] + [F(1), F(0)]
        rng.shuffle(probs)
        oracle = build_vta([F(5, 3)], probs)
        assert oracle._den > 10 ** 70
        # one target: the miss product of a mask extends that of the mask
        # without its lowest agent, so the Fraction reference is one product each
        miss = [F(1)] * (1 << 16)
        assert oracle.value_mask(0) == 0
        for mask in range(1, 1 << 16):
            low = mask & -mask
            miss[mask] = miss[mask ^ low] * (1 - probs[low.bit_length() - 1])
            assert oracle.value_mask(mask) == F(5, 3) * (1 - miss[mask])
        for mask in random.Random(61).sample(range(1 << 16), 300):
            assert fraction_vta(oracle, mask) == F(5, 3) * (1 - miss[mask])

    def test_audit_matches_the_fraction_reference(self):
        for oracle in differential_cases():
            report = audit_properties(oracle)
            assert report.ok and report == reference_audit(oracle)


class TestOneIntegerInterface:
    def test_value_num_is_an_int_numerator_over_den(self):
        rng = random.Random(13)
        for kind in KINDS:
            for _ in range(8):
                oracle = _random_oracle(rng, kind, rng.randint(1, 4))
                assert oracle._cache == {}
                for mask in range(1 << oracle.ground_size):
                    num = oracle.value_num(mask)
                    assert type(num) is int
                    assert oracle.value_mask(mask) == F(num, oracle._den)
                assert len(oracle._cache) == 1 << oracle.ground_size
