"""Seeded request streams for the four workloads, and the check of every output.

A workload is a list of rounds; a round is a list of requests with a fixed
composition (which command, which input size, which orientation class), so
that every seed sends the same mix and only the concrete graphs, instances
and sizes inside each class change.  Every request is one ``argv`` for
``infogreedy.cli.main`` plus what its check needs to know about the input.

Checks recompute exact rationals from the printed output; where an
independent value is cheap (independence, clique and clique-cover numbers of
the input graphs, brute-force optima of the solve instances) the check
computes it without the library.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

# Rounds built during set-up: about 2.5 times what a 25 s run sent when the
# benchmark was written.  A faster program gets further rounds built as it
# asks for them, so no input is ever sent twice.
POOL_ROUNDS = {"analyze": 18, "certify": 10, "verify": 1, "curve": 30}

# Rounds sent by a traced run, once traced and once more (other rounds of the
# same composition) untraced: a fixed amount of work, so that the per-layer
# counts of one seed repeat exactly between two commits.
TRACE_ROUNDS = {"analyze": 3, "certify": 1, "verify": 1, "curve": 2}

PROBE_BUDGET = 100

# odd cycles and antiholes in every analyze round; an antihole on 15 agents
# alone takes 2-3 s on a 2-vCPU VM, so the largest antihole is 13
ANALYZE_CYCLES = (11, 13, 15)
ANALYZE_ANTIHOLES = (11, 13)
# two G(n, p) per n = 10..16, densities by the parity of n
ANALYZE_DENSITIES = ((0.2, 0.6), (0.4, 0.8))

# Edge orientations around a cycle (bit k set: edge k points forward), one
# per class up to rotation and reflection.  The alternating classes are the
# crossed ones: an observer's in-neighbourhood crosses an edge another agent
# watches, so no shared-capacity table exists and the certificate is padded.
# Under uniformly random labels 2/3 of C5 and 38 % of C7 are crossed.  A
# crossed C7, (0, 0, 1, 0, 1, 0, 1), takes 5-7 s on a 2-vCPU VM, depending
# on its labels, which alone would set a run's throughput, so C7 enters only
# uncrossed.
C5_CROSSED = (0, 0, 1, 0, 1)
C5_OTHER = ((0, 0, 0, 0, 1), (0, 0, 0, 1, 1))
C7_OTHER = (
    (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1, 1),
    (0, 0, 0, 1, 1, 0, 1), (0, 0, 1, 0, 0, 1, 1),
)
# One certify round: probes on G(n, p), one per size and density stratum,
# crossed and uncrossed cycles, and weighted-cover solves.  The G(n, p) graphs
# are perfect (an odd hole sends about 4 % of n = 7, 8 draws down the
# synthesis path at 1-7 s each, at random), so synthesis enters only through
# the labelled cycles, at a fixed share of every round.
PROBE_SIZES = (5, 6, 7, 8)
DENSITY_STRATA = ((0.2, 0.35), (0.35, 0.5), (0.5, 0.65), (0.65, 0.8))
CYCLE_ORIENTATIONS = (C5_CROSSED,) * 6 + C5_OTHER
C7_PER_ROUND = 2
SOLVES_PER_ROUND = 8

# curve sizes: one request per stratum centre, jittered by the seed; design
# requests pair 12 agent-count strata with 12 budget strata (share of the
# complete graph's edges), in a fixed pairing
CURVE_CENTRES = (22, 31, 40, 49, 58, 67)
CURVE_JITTER = 2
DESIGN_STRATA = 12


@dataclass
class Request:
    kind: str  # analyze | worst-case | solve | verify | curve | design
    argv: list[str]
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Graph and instance generators
# ---------------------------------------------------------------------------


def gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ]


def has_odd_hole(n: int, edges) -> bool:
    """Does the graph (n <= 8) contain an induced C5 or C7, or an induced C7 complement?"""
    adj = [0] * (n + 1)
    for i, j in edges:
        adj[i] |= 1 << (j - 1)
        adj[j] |= 1 << (i - 1)

    def is_cycle(mask: int, nbr) -> bool:
        members = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        if any(bin(nbr(v) & mask).count("1") != 2 for v in members):
            return False
        seen, todo = 0, members[:1]
        while todo:
            v = todo.pop()
            seen |= 1 << (v - 1)
            todo.extend(w for w in members if nbr(v) & mask & ~seen & 1 << (w - 1))
        return seen == mask

    def complement(v: int) -> int:
        return ~adj[v] & ((1 << n) - 1) & ~(1 << (v - 1))

    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size == 5 and is_cycle(mask, adj.__getitem__):
            return True
        if size == 7 and (is_cycle(mask, adj.__getitem__) or is_cycle(mask, complement)):
            return True
    return False


def perfect_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) redrawn until it has no odd hole or antihole (n <= 8)."""
    while True:
        edges = gnp(rng, n, p)
        if not has_odd_hole(n, edges):
            return edges


def labelled_cycle(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return sorted(
        (min(order[k], order[(k + 1) % n]), max(order[k], order[(k + 1) % n]))
        for k in range(n)
    )


def odd_antihole(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Complement of a randomly labelled n-cycle."""
    cycle = set(labelled_cycle(rng, n))
    return [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in cycle
    ]


def oriented_cycle(rng: random.Random, orientation) -> list[tuple[int, int]]:
    """A cycle whose edge directions follow ``orientation``, labels seeded.

    Labels are a uniformly drawn topological order of the oriented cycle, so
    every lower-to-higher edge points the way the orientation says.
    """
    n = len(orientation)
    succ = {v: [] for v in range(n)}
    indeg = [0] * n
    for k, forward in enumerate(orientation):
        a, b = (k, (k + 1) % n) if forward else ((k + 1) % n, k)
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    label = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = len(label) + 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return sorted(
        (min(label[k], label[(k + 1) % n]), max(label[k], label[(k + 1) % n]))
        for k in range(n)
    )


def wsc_instance(rng: random.Random, n: int) -> dict:
    """Weighted cover with positive target values, 2-3 actions per agent."""
    targets = rng.randint(n, n + 3)
    values = [rng.randint(1, 4) for _ in range(targets)]
    actions = []
    for _ in range(n):
        want = rng.randint(2, 3)
        acts: set[tuple[int, ...]] = set()
        while len(acts) < want:
            acts.add(tuple(sorted(rng.sample(range(targets), rng.choice((1, 1, 2))))))
        actions.append([list(a) for a in sorted(acts)])
    return {"kind": "wsc", "values": values, "actions": actions}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:05d}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def graph(self, n: int, edges) -> tuple[str, dict]:
        obj = {"n": n, "edges": [list(e) for e in sorted(edges)]}
        return self.write(obj), obj


def _analyze_round(rng, out: _Writer) -> list[Request]:
    graphs = []
    for n in range(10, 17):
        graphs += [("gnp", n, gnp(rng, n, p)) for p in ANALYZE_DENSITIES[n % 2]]
    graphs += [("cycle", n, labelled_cycle(rng, n)) for n in ANALYZE_CYCLES]
    graphs += [("antihole", n, odd_antihole(rng, n)) for n in ANALYZE_ANTIHOLES]
    rng.shuffle(graphs)
    reqs = []
    for family, n, edges in graphs:
        path, obj = out.graph(n, edges)
        reqs.append(Request("analyze", ["analyze", "--graph", path, "--format", "json"],
                            {"graph": obj, "family": family}))
    return reqs


def _certify_round(rng, out: _Writer) -> list[Request]:
    worst = [(n, perfect_gnp(rng, n, rng.uniform(*p)))
             for n in PROBE_SIZES for p in DENSITY_STRATA]
    for orientation in CYCLE_ORIENTATIONS + tuple(rng.sample(C7_OTHER, C7_PER_ROUND)):
        worst.append((len(orientation), oriented_cycle(rng, orientation)))
    reqs = []
    for n, edges in worst:
        path, obj = out.graph(n, edges)
        seed = rng.randrange(1 << 16)
        reqs.append(Request(
            "worst-case",
            ["worst-case", "--graph", path, "--budget", str(PROBE_BUDGET), "--seed", str(seed)],
            {"graph": obj},
        ))
    for _ in range(SOLVES_PER_ROUND):
        n = rng.randint(5, 8)
        gpath, gobj = out.graph(n, gnp(rng, n, 0.5))
        inst = wsc_instance(rng, n)
        ipath = out.write(inst)
        reqs.append(Request(
            "solve",
            ["solve", "--graph", gpath, "--instance", ipath, "--tie", "worst", "--format", "json"],
            {"graph": gobj, "instance": inst},
        ))
    rng.shuffle(reqs)
    return reqs


def _verify_round(rng, out: _Writer) -> list[Request]:
    return [Request("verify", ["verify"])]


def _curve_round(rng, out: _Writer) -> list[Request]:
    reqs = []
    for centre in CURVE_CENTRES:
        n = centre + rng.randint(-CURVE_JITTER, CURVE_JITTER)
        reqs.append(Request("curve", ["curve", "--n", str(n)], {"n": n}))
    for k in range(DESIGN_STRATA):
        n = 20 + 50 * (2 * k + 1) // (2 * DESIGN_STRATA) + rng.randint(-CURVE_JITTER, CURVE_JITTER)
        share = (5 * k % DESIGN_STRATA + rng.random()) / DESIGN_STRATA
        m = round(share * (n * (n - 1) // 2))
        reqs.append(Request("design", ["design", "--n", str(n), "--m", str(m), "--format", "json"],
                            {"n": n, "m": m}))
    rng.shuffle(reqs)
    return reqs


ROUND_BUILDERS = {
    "analyze": _analyze_round,
    "certify": _certify_round,
    "verify": _verify_round,
    "curve": _curve_round,
}
WORKLOADS = tuple(ROUND_BUILDERS)


class RoundStream:
    """The seed's rounds in order, each handed out once, inputs written to ``directory``.

    The first ``POOL_ROUNDS[workload]`` rounds are built on construction
    (set-up); every later round is built when it is first asked for, from the
    same seeded generator, so round i is the same whenever it is built.
    Rounds are dropped once handed out, so memory does not grow with the
    number of rounds sent.
    """

    def __init__(self, workload: str, seed: int, directory: str):
        self._rng = random.Random(f"{workload}:{seed}")
        self._out = _Writer(directory)
        self._build = ROUND_BUILDERS[workload]
        self._ready = deque(self._next_round() for _ in range(POOL_ROUNDS[workload]))
        self.built_late = 0

    def _next_round(self) -> list[Request]:
        return self._build(self._rng, self._out)

    def __iter__(self):
        return self

    def __next__(self) -> list[Request]:
        if self._ready:
            return self._ready.popleft()
        self.built_late += 1
        return self._next_round()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, why: str):
    if not cond:
        raise CheckFailed(why)


def _q(value) -> Fraction:
    """A printed rational: an int or a "p/q" string."""
    _require(isinstance(value, (int, str)) and not isinstance(value, bool),
             f"not a rational: {value!r}")
    return Fraction(value)


def _independence(adj: list[int], mask: int) -> int:
    """Largest independent subset of ``mask``: branch on a vertex of largest degree."""
    if not mask:
        return 0
    v, degree, rest = -1, -1, mask
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if (adj[u] & mask).bit_count() > degree:
            v, degree = u, (adj[u] & mask).bit_count()
        rest ^= low
    if degree <= 1:  # disjoint edges and isolated vertices: take one of each
        count = 0
        while mask:
            u = (mask & -mask).bit_length() - 1
            count += 1
            mask &= ~(adj[u] | 1 << u)
        return count
    return max(1 + _independence(adj, mask & ~(adj[v] | 1 << v)),
               _independence(adj, mask & ~(1 << v)))


def _clique_cover(adj: list[int], lower: int) -> int:
    """Fewest cliques that partition the vertices, by backtracking down from n."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: adj[v].bit_count())
    cliques: list[int] = []
    best = n

    def place(i: int):
        nonlocal best
        if len(cliques) >= best:
            return
        if i == n:
            best = len(cliques)
            return
        v = order[i]
        for c, members in enumerate(cliques):
            if members & ~adj[v] == 0:
                cliques[c] = members | 1 << v
                place(i + 1)
                cliques[c] = members
                if best <= lower:
                    return
        cliques.append(1 << v)
        place(i + 1)
        cliques.pop()

    place(0)
    return best


def graph_numbers(graph: dict) -> tuple[int, int, int]:
    """(alpha, omega, k) of a graph object, computed without the library."""
    n = graph["n"]
    full = (1 << n) - 1
    adj = [0] * n
    for i, j in graph["edges"]:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    alpha = _independence(adj, full)
    omega = _independence([~a & full & ~(1 << v) for v, a in enumerate(adj)], full)
    # every clique has at most omega vertices and covers at most one vertex of
    # an independent set, so k >= max(alpha, n / omega)
    return alpha, omega, _clique_cover(adj, max(alpha, -(-n // omega)))


def _check_analyze(req: Request, out: str):
    o = json.loads(out)
    graph = req.info["graph"]
    _require(o["graph"] == graph, "echoed graph differs from the input")
    alpha, omega, k = graph_numbers(graph)
    _require((o["alpha"], o["omega"], o["k"]) == (alpha, omega, k),
             f"alpha, omega, k read {o['alpha']}, {o['omega']}, {o['k']}, "
             f"not {alpha}, {omega}, {k}")
    a_star, k_star = _q(o["alpha_star"]), _q(o["k_star"])
    n = graph["n"]
    # uniform weight 1/omega on every vertex is a fractional independent set
    _require(max(alpha, Fraction(n, omega)) <= a_star == k_star <= k,
             f"alpha={alpha} n/omega={Fraction(n, omega)} a*={a_star} k*={k_star} k={k}")
    exact = {"cycle": Fraction(n, 2), "antihole": Fraction(2 * n, n - 1)}.get(req.info["family"])
    _require(exact is None or a_star == exact, f"a*={a_star} on an odd {req.info['family']}")
    _require(_q(o["bounds"]["lower"]) == 1 / (a_star + 1), "lower bound is not 1/(a*+1)")
    _require(_q(o["bounds"]["upper"]) == 1 / a_star, "upper bound is not 1/a*")


def _check_worst_case(req: Request, out: str):
    o = json.loads(out)
    a_star = _q(o["alpha_star"])
    up = o["upper_bound_instance"]
    _require(_q(up["realized_gamma"]) == _q(up["predicted_gamma"]) == 1 / a_star,
             "upper-bound certificate does not realize 1/a*")
    alpha = graph_numbers(req.info["graph"])[0]
    _require(alpha <= a_star, f"a*={a_star} below alpha={alpha}")
    if "sibling_instance" in o:
        sib = o["sibling_instance"]
        _require(_q(sib["realized_gamma"]) == _q(sib["predicted_gamma"])
                 == Fraction(1, 1 + alpha), "sibling certificate does not realize 1/(1+alpha)")
    probe = o["adversarial_probe"]
    _require(_q(probe["min_gamma"]) >= 1 / (a_star + 1), "probe fell below 1/(a*+1)")


def _wsc_value(values, profile) -> Fraction:
    covered = set()
    for action in profile:
        covered.update(action)
    return sum((Fraction(values[t]) for t in covered), Fraction(0))


def _check_solve(req: Request, out: str):
    o = json.loads(out)
    inst = req.info["instance"]
    values, actions = inst["values"], inst["actions"]
    rows = o["rows"]
    for name, row in rows.items():
        _require(_q(row["value"]) == _wsc_value(values, row["profile"]),
                 f"{name} value does not match its profile")
        _require(all(act in actions[i] for i, act in enumerate(row["profile"])),
                 f"{name} profile uses an action the agent does not have")
    opt = max(_wsc_value(values, prof) for prof in product(*actions))
    _require(_q(rows["optimal"]["value"]) == opt, "optimal row is not the brute-force optimum")
    constrained = _q(rows["generalized_distributed_greedy"]["value"])
    _require(_q(o["gamma"]) == constrained / opt, "gamma is not constrained/optimal")


def _check_curve(req: Request, out: str):
    n = req.info["n"]
    lines = out.splitlines()
    _require(lines[0] == "m,gamma_num,gamma_den,r,case_tag", "missing CSV header")
    rows = [ln.split(",") for ln in lines[1:]]
    _require([int(r[0]) for r in rows] == list(range(n * (n - 1) // 2 + 1)),
             "rows do not cover every budget")
    gammas = [Fraction(int(r[1]), int(r[2])) for r in rows]
    _require(all(a <= b for a, b in zip(gammas, gammas[1:])), "gamma decreases in m")
    for (m, _, _, r, tag), gamma in zip(rows, gammas):
        if tag == "t_hat" and int(r) < n:
            _require(gamma == Fraction(1, 1 + int(r)), f"m={m}: gamma is not 1/(1+r)")


def _check_design(req: Request, out: str):
    o = json.loads(out)
    n, m = req.info["n"], req.info["m"]
    edges = {tuple(e) for e in o["graph"]["edges"]}
    _require(o["graph"]["n"] == n, "design has the wrong agent count")
    _require(len(edges) == o["m_used"] <= m, "design exceeds its budget")
    gamma = _q(o["gamma_guaranteed"])
    if o["case"] == "clique_minus_edge":
        _require(gamma == Fraction(1, 2), "clique minus an edge must guarantee 1/2")
        return
    blocks = o["partition"]
    _require(sorted(v for b in blocks for v in b) == list(range(1, n + 1)),
             "partition does not cover the agents")
    want = {(b[x], b[y]) for b in blocks for x in range(len(b)) for y in range(x + 1, len(b))}
    _require(edges == want, "edges are not the disjoint cliques of the partition")
    r = len(blocks)
    _require(gamma == (Fraction(1, n) if r == n else Fraction(1, 1 + r)),
             "guarantee does not match r")


def _check_verify(req: Request, out: str):
    lines = out.splitlines()
    passed = sum(ln.startswith("PASS") for ln in lines[:-1])
    _require(passed == len(lines) - 1 >= 10, "some verify check did not pass")
    _require(lines[-1] == f"{passed}/{passed} checks passed", f"last line reads {lines[-1]!r}")


CHECKS = {
    "analyze": _check_analyze,
    "worst-case": _check_worst_case,
    "solve": _check_solve,
    "curve": _check_curve,
    "design": _check_design,
    "verify": _check_verify,
}


def check(req: Request, out: str) -> str | None:
    """None when the output is right, else why it is not."""
    try:
        CHECKS[req.kind](req, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None
