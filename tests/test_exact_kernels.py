"""Differential tests for the integer simplex, its certificate check and the
integer oracle audit.

The library runs all three kernels on Python ints.  The references below are
the plain Fraction implementations they replaced; the integer kernels must
agree with them exactly: the same optimum, vertex and dual certificate, the
same error class, the same certificate verdicts and reasons, and the same
audit verdicts and witnesses.  scipy's float
``linprog`` serves only as an independent sanity bracket, never as the
reference.  Two source scans close the file: no top-level import of a
package module goes unused, and the kernels contain no floats.
"""

import ast
import random
import re
import tokenize
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from infogreedy import (
    InfeasibleLpError,
    InfoGraph,
    InternalConsistencyError,
    LinearProgram,
    TableOracle,
    UnboundedLpError,
    audit_properties,
    build_capped_sum,
    build_wsc,
    solve_lp,
    upper_bound_instance,
    verify_certificate,
)
import infogreedy.lp as lp_mod
from infogreedy import verify
from infogreedy.lp import cover_lp, independence_lp
from infogreedy.oracles import AuditReport, set_of
from conftest import random_graph, unlabeled_classes

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "infogreedy"


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def reference_solve(lp: LinearProgram):
    """Two-phase dense simplex over Fraction with Bland's rule.

    Returns (optimum, point, dual) in the orientation of ``solve_lp``.
    """
    n, m = len(lp.objective), len(lp.rows)
    obj = lp.objective if lp.sense == "max" else tuple(-c for c in lp.objective)
    ncols = n + m
    flipped = [b < 0 for b in lp.rhs]
    art_of = {i: ncols + k for k, i in enumerate(i for i in range(m) if flipped[i])}
    total = ncols + len(art_of)
    rows, basis = [], []
    for i in range(m):
        sign = -1 if flipped[i] else 1
        row = [sign * a for a in lp.rows[i]]
        row += [F(sign if j == i else 0) for j in range(m)]
        row += [F(1 if art_of.get(i) == c else 0) for c in range(ncols, total)]
        row.append(sign * lp.rhs[i])
        rows.append(row)
        basis.append(art_of.get(i, n + i))

    def pivot(r, c):
        prow = rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        basis[r] = c

    def priced(costs):
        cost = list(costs) + [F(0)]
        for r, b in enumerate(basis):
            f = cost[b]
            if f:
                cost = [a - f * x for a, x in zip(cost, rows[r])]
        return cost

    def bland(cost, width):
        while True:
            enter = next((j for j in range(width) if cost[j] > 0), -1)
            if enter < 0:
                return cost
            leave, best = -1, None
            for i, row in enumerate(rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave < 0:
                raise UnboundedLpError("objective is unbounded")
            pivot(leave, enter)
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, rows[leave])]

    arts = sorted(art_of.values())
    if arts:
        cost = bland(priced([F(0)] * ncols + [F(-1)] * len(arts)), total)
        if cost[-1] != 0:
            raise InfeasibleLpError("no feasible point")
        keep = []
        for r in range(m):
            if basis[r] in arts:
                piv = next((j for j in range(ncols) if rows[r][j] != 0), None)
                if piv is None:
                    continue
                pivot(r, piv)
            keep.append(r)
        rows[:] = [rows[r] for r in keep]
        basis[:] = [basis[r] for r in keep]
        for row in rows:
            for c in arts:
                row[c] = F(0)
    cost = bland(priced(list(obj) + [F(0)] * (total - n)), ncols)
    point = [F(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            point[b] = rows[r][-1]
    value, dual = -cost[-1], [-cost[n + i] for i in range(m)]
    if lp.sense == "min":
        value, dual = -value, [-y for y in dual]
    return value, tuple(point), tuple(dual)


def reference_verify_certificate(lp: LinearProgram, sol) -> tuple[bool, str]:
    """The certificate check over Fraction, every sum formed exactly."""
    x = sol.point
    n = len(lp.objective)
    if len(x) != n:
        return False, "point has wrong dimension"
    if any(v < 0 for v in x):
        return False, "point violates nonnegativity"
    for row, b in zip(lp.rows, lp.rhs):
        if sum(a * v for a, v in zip(row, x)) > b:
            return False, "point violates a row"
    primal = sum(c * v for c, v in zip(lp.objective, x))
    if primal != sol.optimum:
        return False, "objective value mismatch"

    y = sol.certificate["dual"]
    if len(y) != len(lp.rows):
        return False, "dual has wrong dimension"
    sign = 1 if lp.sense == "max" else -1
    if any(sign * v < 0 for v in y):
        return False, "dual violates nonnegativity"
    for j in range(n):
        col = sum(lp.rows[i][j] * y[i] for i in range(len(lp.rows)))
        if sign * (col - lp.objective[j]) < 0:
            return False, f"dual violates column {j}"
    dual_obj = sum(b * v for b, v in zip(lp.rhs, y))
    if dual_obj != sol.optimum:
        return False, "strong duality gap"
    return True, "ok"


def reference_audit(oracle) -> AuditReport:
    """Exhaustive audit with the value vector kept as Fractions."""
    m = oracle.ground_size
    witnesses: dict = {}
    normalized = oracle.value_mask(0) == 0
    if not normalized:
        witnesses["normalized"] = {"value_of_empty": oracle.value_mask(0)}
    values = [oracle.value_mask(mask) for mask in range(1 << m)]
    monotone = True
    for mask in range(1 << m):
        for x in range(m):
            if not mask >> x & 1 and values[mask | (1 << x)] < values[mask]:
                monotone = False
                witnesses["monotone"] = {
                    "A": sorted(set_of(mask)),
                    "B": sorted(set_of(mask | (1 << x))),
                }
                break
        if not monotone:
            break
    submodular = True
    for mask in range(1 << m):
        free = [x for x in range(m) if not mask >> x & 1]
        for x, y in combinations(free, 2):
            lhs = values[mask | (1 << x)] + values[mask | (1 << y)]
            rhs = values[mask | (1 << x) | (1 << y)] + values[mask]
            if lhs < rhs:
                submodular = False
                witnesses["submodular"] = {
                    "A": sorted(set_of(mask)),
                    "B": sorted(set_of(mask | (1 << y))),
                    "x": x,
                }
                break
        if not submodular:
            break
    return AuditReport(normalized, monotone, submodular, witnesses)


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------


def random_lp(rng: random.Random) -> LinearProgram:
    """Small LP with fractional data, mixed row senses and signed right sides.

    A third of them carry a positive multiple of an existing row, which is
    redundant and, after the flip of a negative right side, exercises the
    drive-out of a basic artificial.
    """
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
    senses = [rng.choice(("<=", ">=")) for _ in range(m)]
    rhs = [F(rng.randint(-5, 8), rng.randint(1, 3)) for _ in range(m)]
    if rng.random() < 0.35:
        k = rng.randrange(m)
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        rows.append([s * a for a in rows[k]])
        senses.append(senses[k])
        rhs.append(s * rhs[k])
    objective = [F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)]
    return LinearProgram.build(objective, rows, senses, rhs, rng.choice(("max", "min")))


def outcome(solve, lp):
    try:
        return solve(lp)
    except (InfeasibleLpError, UnboundedLpError) as exc:
        return type(exc)


def integer_solve(lp):
    sol = solve_lp(lp)
    assert verify_certificate(lp, sol) == (True, "ok")
    return sol.optimum, sol.point, sol.certificate["dual"]


class TestSimplexDifferential:
    def test_random_lps_match_the_fraction_reference(self):
        rng = random.Random(1967)
        seen = set()
        for _ in range(600):
            lp = random_lp(rng)
            got = outcome(integer_solve, lp)
            assert got == outcome(reference_solve, lp), lp
            seen.add(got if isinstance(got, type) else "ok")
        assert seen == {"ok", InfeasibleLpError, UnboundedLpError}

    def test_clique_relaxations_match_the_fraction_reference(self, rng):
        graphs = list(unlabeled_classes(5))
        graphs += [random_graph(rng, rng.randint(6, 10)) for _ in range(12)]
        graphs.append(InfoGraph(7, [(i, i + 1) for i in range(1, 7)] + [(1, 7)]))
        for g in graphs:
            if g.n == 0:
                continue
            for lp in (independence_lp(g), cover_lp(g)):
                assert integer_solve(lp) == reference_solve(lp)

    def test_random_certificates_match_the_fraction_reference(self):
        # the 600 LPs above, each with its verified solution and with one
        # corruption of the point, the optimum and the dual apiece
        rng = random.Random(1967)
        verdicts = set()
        for _ in range(600):
            lp = random_lp(rng)
            try:
                sol = solve_lp(lp)
            except (InfeasibleLpError, UnboundedLpError):
                continue
            x, y = list(sol.point), list(sol.certificate["dual"])
            x[rng.randrange(len(x))] += F(rng.choice((-1, 1)), rng.randint(1, 5))
            y[rng.randrange(len(y))] += F(rng.choice((-1, 1)), rng.randint(1, 5))
            candidates = [
                sol,
                replace(sol, point=tuple(x)),
                replace(sol, optimum=sol.optimum + F(1, rng.randint(1, 5))),
                replace(sol, certificate={"dual": tuple(y)}),
            ]
            for cand in candidates:
                got = verify_certificate(lp, cand)
                assert got == reference_verify_certificate(lp, cand), (lp, cand)
                verdicts.add(re.sub(r"\d+$", "j", got[1]))
        assert verdicts == {
            "ok", "point violates nonnegativity", "point violates a row",
            "objective value mismatch", "dual violates nonnegativity",
            "dual violates column j", "strong duality gap",
        }

    def test_outcomes_agree_with_a_float_solver(self):
        # scipy only brackets: an exact optimum must sit within float
        # tolerance of HiGHS, and each error class must have a float witness
        optimize = pytest.importorskip("scipy.optimize")

        def linprog(c, rows, rhs):
            return optimize.linprog(
                [float(v) for v in c],
                A_ub=[[float(a) for a in row] for row in rows],
                b_ub=[float(b) for b in rhs],
                bounds=[(0, None)] * len(c),
                method="highs",
            )

        rng = random.Random(1968)
        lps = [random_lp(rng) for _ in range(300)]
        lps += [independence_lp(random_graph(rng, rng.randint(4, 10))) for _ in range(20)]
        for lp in lps:
            n = len(lp.objective)
            # maximize c'x in both senses
            c = lp.objective if lp.sense == "max" else tuple(-v for v in lp.objective)
            got = outcome(integer_solve, lp)
            if got is InfeasibleLpError:
                assert linprog([0] * n, lp.rows, lp.rhs).status == 2
            elif got is UnboundedLpError:
                # feasible, with an improving ray d >= 0, Ad <= 0, c'd = 1
                assert linprog([0] * n, lp.rows, lp.rhs).status == 0
                ray = linprog([-v for v in c], list(lp.rows) + [c], [0] * len(lp.rows) + [1])
                assert ray.status == 0 and ray.fun == pytest.approx(-1)
            else:
                res = linprog([-v for v in c], lp.rows, lp.rhs)
                assert res.status == 0
                value = got[0] if lp.sense == "max" else -got[0]
                assert float(value) == pytest.approx(-res.fun, rel=1e-7, abs=1e-7)


# max 3/2 x1 + x2 with a >= row; every normalized row is nonnegative
MAX_LP = LinearProgram.build(
    [F(3, 2), 1],
    [[1, F(1, 2)], [F(1, 3), 1], [-1, -1]],
    ["<=", "<=", ">="],
    [2, F(5, 3), -3],
    "max",
)
# min 1/2 x1 + 2/3 x2 + x3 over two >= rows and the <= row x1 <= 3
MIN_LP = LinearProgram.build(
    [F(1, 2), F(2, 3), 1],
    [[1, 2, F(1, 2)], [F(3, 4), 1, 1], [1, 0, 0]],
    [">=", ">=", "<="],
    [4, F(5, 2), 3],
    "min",
)


def corruptions(lp: LinearProgram, sol):
    """One corrupted copy of ``sol`` per failure reason, with that reason.

    The dual of a min-sense LP is nonpositive (``sign`` -1).  Its columns
    break when a >= row, negated to <= at construction, is weighted by -10;
    the duality gap opens by adding the multiple ``sign`` of a row with
    nonnegative coefficients, which keeps every column feasible.
    """
    x, y = sol.point, sol.certificate["dual"]
    sign = 1 if lp.sense == "max" else -1
    violating_dual = (F(0),) * len(y) if sign == 1 else (F(-10),) + y[1:]
    gap_row = 0 if sign == 1 else 2
    gapped = tuple(v + sign * (i == gap_row) for i, v in enumerate(y))

    def dual(values):
        return replace(sol, certificate={"dual": values})

    return [
        (replace(sol, point=x + (F(0),)), "point has wrong dimension"),
        (replace(sol, point=(F(-1, 5),) + x[1:]), "point violates nonnegativity"),
        (replace(sol, point=tuple(v + 10 for v in x)), "point violates a row"),
        (replace(sol, optimum=sol.optimum + F(1, 7)), "objective value mismatch"),
        (dual(y[:-1]), "dual has wrong dimension"),
        (dual((F(-sign, 4),) + y[1:]), "dual violates nonnegativity"),
        (dual(violating_dual), "dual violates column 0"),
        (dual(gapped), "strong duality gap"),
    ]


class TestCertificateCheck:
    @pytest.mark.parametrize("lp", [MAX_LP, MIN_LP], ids=["max", "min"])
    def test_each_reason_fires_on_its_corruption(self, lp):
        sol = solve_lp(lp)
        assert verify_certificate(lp, sol) == reference_verify_certificate(lp, sol) == (True, "ok")
        for bad, reason in corruptions(lp, sol):
            assert verify_certificate(lp, bad) == (False, reason)
            assert reference_verify_certificate(lp, bad) == (False, reason)

    def test_solve_lp_raises_on_a_failed_check(self, monkeypatch):
        monkeypatch.setattr(lp_mod, "verify_certificate", lambda lp, sol: (False, "probe"))
        with pytest.raises(InternalConsistencyError, match="simplex certificate failed: probe"):
            solve_lp(MAX_LP)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def random_table(rng: random.Random) -> TableOracle:
    """A table on at most 5 elements: coverage, perturbed coverage or noise."""
    m = rng.randint(0, 5)
    style = rng.choice(("coverage", "perturbed", "noise"))
    if style == "noise":
        table = {mask: F(rng.randint(0, 9), rng.randint(1, 4)) for mask in range(1 << m)}
    else:
        targets = [F(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
        covers = [rng.randrange(1 << len(targets)) for _ in range(m)]

        def value(mask):
            hit = 0
            for x in range(m):
                if mask >> x & 1:
                    hit |= covers[x]
            return sum((t for i, t in enumerate(targets) if hit >> i & 1), F(0))

        table = {mask: value(mask) for mask in range(1 << m)}
        if style == "perturbed" and m:
            mask = rng.randrange(1, 1 << m)
            table[mask] += F(rng.choice((-1, 1)), rng.randint(1, 6))
    table[0] = F(0)
    return TableOracle(m, table)


class TestAuditDifferential:
    def test_random_tables_match_the_fraction_reference(self):
        rng = random.Random(1968)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            oracle = random_table(rng)
            report = audit_properties(oracle)
            assert report == reference_audit(oracle)
            verdicts[report.ok] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 100

    def test_parametric_oracles_match_the_fraction_reference(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            weights = [F(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(n)]
            for oracle in (build_wsc(weights), build_capped_sum(weights)):
                assert audit_properties(oracle) == reference_audit(oracle)

    def test_verify_certificate_oracles_match_the_fraction_reference(self):
        # the 40 seeded upper-bound instances of the verify certificates check
        for g in verify._seeded_graphs(99, 40, (0.3, 0.6)):
            oracle = upper_bound_instance(g).instance.oracle
            report = audit_properties(oracle)
            assert report.ok and report == reference_audit(oracle)

    def test_ground_sets_of_zero_and_one_element(self):
        cases = [
            (TableOracle(0, {0: F(0)}), True, None),
            (TableOracle(1, {0: F(0), 1: F(3, 2)}), True, None),
            (TableOracle(1, {0: F(0), 1: F(-1, 2)}), False, {"A": [], "B": [0]}),
        ]
        for oracle, monotone, witness in cases:
            report = audit_properties(oracle)
            assert report == reference_audit(oracle)
            assert (report.monotone, report.submodular) == (monotone, True)
            assert report.witnesses.get("monotone") == witness

    def test_witnesses_at_different_masks(self):
        # diminishing returns fails first at A = {}, (x, y) = (0, 1);
        # monotonicity only at A = {0, 1}, x = 2
        table = {0: 0, 1: 1, 2: 1, 3: 3, 4: 1, 5: 2, 6: 2, 7: 2}
        oracle = TableOracle(3, {m: F(v) for m, v in table.items()})
        report = audit_properties(oracle)
        assert report == reference_audit(oracle)
        assert report.witnesses == {
            "monotone": {"A": [0, 1], "B": [0, 1, 2]},
            "submodular": {"A": [], "B": [1], "x": 0},
        }

    def test_larger_ground_sets_match_the_fraction_reference(self):
        # 6..9 elements: both the strided and the blocked slicing run
        rng = random.Random(4242)
        verdicts = {True: 0, False: 0}
        for _ in range(24):
            m = rng.randint(6, 9)
            targets = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(6)]
            covers = [rng.randrange(1, 1 << 6) for _ in range(m)]
            table = {}
            for mask in range(1 << m):
                hit = 0
                for x in range(m):
                    if mask >> x & 1:
                        hit |= covers[x]
                table[mask] = sum((t for i, t in enumerate(targets) if hit >> i & 1), F(0))
            if rng.random() < 0.6:
                table[rng.randrange(1, 1 << m)] += F(rng.choice((-1, 1)), rng.randint(1, 3))
            oracle = TableOracle(m, table)
            report = audit_properties(oracle)
            assert report == reference_audit(oracle)
            verdicts[report.ok] += 1
        assert verdicts[True] >= 4 and verdicts[False] >= 4

    def test_scaled_oracle_value_of_the_empty_set(self):
        class Halved(TableOracle):
            def _value_num(self, mask):
                return super()._value_num(mask) + 1

        report = audit_properties(Halved(2, {0: F(0), 1: F(1, 2), 2: F(1, 2), 3: F(1)}))
        assert report.monotone and report.submodular and not report.normalized
        assert report.witnesses == {"normalized": {"value_of_empty": F(1, 2)}}


# ---------------------------------------------------------------------------
# No floats in the exact kernels
# ---------------------------------------------------------------------------


def float_tokens(path: Path) -> list[str]:
    """Float or complex literals, the name ``float``, and true division.

    Both kernels compute on ints, and ``/`` between two ints yields a float.
    """
    found = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            text = tok.string.lower().replace("_", "")
            if tok.type == tokenize.NUMBER and not text.startswith(("0x", "0o", "0b")):
                if any(ch in text for ch in ".ej"):
                    found.append(f"{tok.start[0]}: literal {tok.string}")
            elif tok.type == tokenize.NAME and tok.string == "float":
                found.append(f"{tok.start[0]}: name float")
            elif tok.type == tokenize.OP and tok.string in ("/", "/="):
                found.append(f"{tok.start[0]}: operator {tok.string}")
    return found


def unused_imports(path: Path) -> list[str]:
    """Names bound by a top-level import that the module never reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


class TestNoDeadImports:
    @pytest.mark.parametrize(
        "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
    )
    def test_every_import_is_used(self, module):
        assert unused_imports(SRC / module) == []

    def test_scanner_flags_unused_imports(self, tmp_path):
        path = tmp_path / "probe.py"
        path.write_text(
            "from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from fractions import Fraction\n"
            "from typing import List, Sequence\n"
            "x: List[int] = osp.sep\n"
        )
        assert unused_imports(path) == ["2: os", "4: Fraction", "5: Sequence"]


class TestFloatFree:
    @pytest.mark.parametrize("module", ["graphs.py", "greedy.py", "lp.py", "oracles.py"])
    def test_kernel_has_no_float(self, module):
        assert float_tokens(SRC / module) == []

    def test_scanner_flags_floats(self, tmp_path):
        path = tmp_path / "probe.py"
        path.write_text("a = 0.5\nb = 1e3\nc = float(2)\nd = 7 / 2\ne = 0xE + 10 // 3\n")
        assert [f.split(":")[0] for f in float_tokens(path)] == ["1", "2", "3", "4"]
