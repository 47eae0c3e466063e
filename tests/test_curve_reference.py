"""Differential tests for the guarantee curve computed per run.

``design.curve_runs`` gives the curve as runs of equal guarantee, and the
CLI's CSV writer formats each run's constant text once.  The references
below are the per-row code it replaced: one ``CurvePoint`` per budget from a
downward walk over the block count, the row-by-row CSV writer, and
``json.dumps`` of the row objects.  Points, CSV bytes and JSON bytes must
all be equal.  At ``curve --n 1000`` the references would take seconds, so
those bytes are pinned by the golden hashes in ``test_cli``.
"""

import json
from fractions import Fraction

import pytest

from infogreedy import GuardRefusal, InputError, edge_count, efficiency_curve
from infogreedy.cli import main
from infogreedy.design import (
    CASE_CLIQUE_MINUS_EDGE,
    CASE_TURAN,
    DESIGN_GUARD,
    CurvePoint,
    _check_agents,
    _design_guarantee,
    curve_runs,
)
from infogreedy.serialize import format_rational


def reference_curve(n: int) -> list[CurvePoint]:
    """The per-row curve: one Fraction and one CurvePoint per budget."""
    _check_agents(n)
    top = n * (n - 1) // 2
    points = []
    r = n
    for m in range(top + 1):
        while r > 1 and edge_count(n, r - 1) <= m:
            r -= 1
        if m == top - 1:
            points.append(CurvePoint(m, Fraction(1, 2), 2, CASE_CLIQUE_MINUS_EDGE))
        else:
            points.append(CurvePoint(m, _design_guarantee(n, r), r, CASE_TURAN))
    return points


def reference_csv(points) -> str:
    lines = ["m,gamma_num,gamma_den,r,case_tag"]
    for p in points:
        lines.append(f"{p.m},{p.gamma.numerator},{p.gamma.denominator},{p.r},{p.case_tag}")
    return "\n".join(lines) + "\n"


def reference_json(points) -> str:
    obj = [
        {"m": p.m, "gamma": format_rational(p.gamma), "r": p.r, "case": p.case_tag}
        for p in points
    ]
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_points_match_the_per_row_curve():
    for n in range(1, 201):
        assert efficiency_curve(n) == reference_curve(n), n


@pytest.mark.parametrize("n", [1, 2, 3, 70])
def test_cli_bytes_match_the_per_row_writers(capsys, n):
    points = reference_curve(n)
    for fmt, want in (("csv", reference_csv(points)), ("json", reference_json(points))):
        assert main(["curve", "--n", str(n), "--format", fmt]) == 0
        assert capsys.readouterr().out == want, fmt


def test_runs_tile_every_budget_with_distinct_neighbours():
    for n in range(1, 61):
        runs = curve_runs(n)
        top = n * (n - 1) // 2
        assert runs[0][0] == 0 and runs[-1][1] == top + 1
        assert len(runs) <= n + 1
        for (_, hi, *left), (lo, _, *right) in zip(runs, runs[1:]):
            assert hi == lo and left != right
        assert all(lo < hi for lo, hi, *_ in runs)


def test_one_short_of_complete_is_a_run_of_its_own():
    for n in range(3, 40):
        top = n * (n - 1) // 2
        *_, before, cme, complete = curve_runs(n)
        assert before[1:] == (top - 1, Fraction(1, 3), 2, CASE_TURAN)
        assert cme == (top - 1, top, Fraction(1, 2), 2, CASE_CLIQUE_MINUS_EDGE)
        assert complete == (top, top + 1, Fraction(1, 2), 1, CASE_TURAN)


def test_fewest_agents():
    assert curve_runs(1) == [(0, 1, Fraction(1), 1, CASE_TURAN)]
    # two agents: the edgeless budget is already one short of complete
    assert curve_runs(2) == [
        (0, 1, Fraction(1, 2), 2, CASE_CLIQUE_MINUS_EDGE),
        (1, 2, Fraction(1, 2), 1, CASE_TURAN),
    ]
    assert curve_runs(3) == [
        (0, 1, Fraction(1, 3), 3, CASE_TURAN),
        (1, 2, Fraction(1, 3), 2, CASE_TURAN),
        (2, 3, Fraction(1, 2), 2, CASE_CLIQUE_MINUS_EDGE),
        (3, 4, Fraction(1, 2), 1, CASE_TURAN),
    ]


def test_both_sides_of_the_design_guard():
    runs = curve_runs(DESIGN_GUARD)
    assert runs[0][:4] == (0, edge_count(DESIGN_GUARD, DESIGN_GUARD - 1),
                           Fraction(1, DESIGN_GUARD), DESIGN_GUARD)
    assert runs[-1][1] == DESIGN_GUARD * (DESIGN_GUARD - 1) // 2 + 1
    with pytest.raises(GuardRefusal):
        curve_runs(DESIGN_GUARD + 1)
    with pytest.raises(InputError):
        curve_runs(0)
