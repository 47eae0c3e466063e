"""Shared generators and enumeration helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import pytest

from infogreedy import GuardRefusal, InfoGraph, build_wsc, make_instance
from infogreedy.graphs import _vertices


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@lru_cache(maxsize=None)
def unlabeled_classes(n: int) -> tuple[InfoGraph, ...]:
    """One representative per isomorphism class of the undirected shadows.

    Labeled quantities (the sibling property, in-neighborhoods) are not
    preserved by relabeling, but alpha, k, omega, and the fractional numbers
    are, so shadow classes are enough wherever only those are asserted.
    """
    import numpy as np
    from itertools import permutations

    pairs = all_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    perms = []
    for perm in permutations(range(1, n + 1)):
        table = [0] * len(pairs)
        for slot, (i, j) in enumerate(pairs):
            a, b = perm[i - 1], perm[j - 1]
            table[slot] = index[(min(a, b), max(a, b))]
        perms.append(table)
    perms = np.array(perms, dtype=np.int64)

    count = 1 << len(pairs)
    bits = np.zeros((count, len(pairs)), dtype=bool)
    for slot in range(len(pairs)):
        bits[:, slot] = (np.arange(count) >> slot & 1).astype(bool)
    weights = 1 << np.arange(len(pairs), dtype=np.int64)
    canon = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    for table in perms:
        remapped = np.zeros(count, dtype=np.int64)
        for slot in range(len(pairs)):
            remapped += bits[:, slot] * weights[table[slot]]
        np.minimum(canon, remapped, out=canon)
    reps = sorted(set(int(c) for c in canon))
    out = []
    for mask in reps:
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        out.append(InfoGraph(n, edges))
    return tuple(out)


CLIQUE_ROW_GUARD = 10000


def all_clique_masks(g: InfoGraph, guard: int = CLIQUE_ROW_GUARD) -> list[int]:
    """Every nonempty clique as a bitmask; refuses past the row guard."""
    out: list[int] = []

    def grow(clique: int, candidates: int):
        while candidates:
            v = candidates & -candidates
            candidates &= candidates - 1
            ext = clique | v
            out.append(ext)
            if len(out) > guard:
                raise GuardRefusal(
                    f"more than {guard} cliques; use the maximal-clique LP path"
                )
            grow(ext, candidates & g.adj_masks[v.bit_length()])

    grow(0, (1 << g.n) - 1)
    return out


@dataclass(frozen=True)
class CliqueMatrix:
    """Binary clique-membership matrix, one row per clique (singletons included)."""

    rows: tuple[tuple[int, ...], ...]
    cliques: tuple[frozenset[int], ...]


def clique_matrix(g: InfoGraph, guard: int = CLIQUE_ROW_GUARD) -> CliqueMatrix:
    """The full clique matrix: the reference for the maximal-clique LP rows."""
    masks = all_clique_masks(g, guard)
    cliques = sorted((_vertices(m) for m in masks), key=lambda c: (len(c), sorted(c)))
    rows = tuple(
        tuple(1 if v in c else 0 for v in range(1, g.n + 1)) for c in cliques
    )
    return CliqueMatrix(rows, tuple(cliques))


def random_graph(rng: random.Random, n: int, p: float | None = None) -> InfoGraph:
    if p is None:
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return InfoGraph(n, [e for e in all_pairs(n) if rng.random() < p])


def random_wsc_instance(
    rng: random.Random,
    n: int,
    max_targets: int = 10,
    max_actions: int = 4,
    max_value: int = 3,
):
    """A weighted-cover instance with at least one reachable positive target."""
    n_targets = rng.randint(1, max_targets)
    values = [rng.randint(0, max_value) for _ in range(n_targets)]
    actions = []
    for _ in range(n):
        acts = set()
        for _ in range(rng.randint(1, max_actions)):
            size = 1 if rng.random() < 0.7 else 2
            acts.add(frozenset(rng.sample(range(n_targets), min(size, n_targets))))
        actions.append(sorted(acts, key=sorted))
    covered = set().union(*(a for acts in actions for a in acts))
    if not any(values[t] for t in covered):
        values[min(covered)] = 1
    return make_instance(build_wsc(values), actions)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
