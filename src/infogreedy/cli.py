"""Command-line front end.

Commands are pure input -> output and byte-stable across runs given the same
flags; seeds are always explicit in machine output.  Exit codes: 0 success,
2 input error, 3 guard refusal, 4 internal-consistency failure, 5 I/O error.

``main`` builds the parser once per process and looks each ``cmd_*`` handler
up by name per call; ``verify`` is imported by its command alone.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import (
    BUDGET_GUARD,
    adversarial_search,
    efficiency_bounds,
    sibling_instance,
    upper_bound_instance,
)
from .design import CASE_TURAN, DESIGN_GUARD, curve_runs, optimal_structure
from .errors import exit_code_for
from .graphs import complete_graph, exact_numbers, maximal_cliques, sibling_property, to_dot
from .greedy import POLICIES, brute_force_opt, run_generalized_greedy
from .lp import alpha_star, k_star
from .oracles import audit_properties
from .serialize import (
    curve_to_csv,
    dumps,
    format_rational,
    graph_to_obj,
    instance_to_obj,
    parse_graph,
    parse_instance,
)


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    g = parse_graph(args.graph)
    if args.format == "dot":
        _write(args, to_dot(g))
        return 0
    nums = exact_numbers(g)  # refuses past its guard before any other work
    bounds = efficiency_bounds(g)
    sibling = sibling_property(g)
    cliques = maximal_cliques(g)
    if args.format == "json":
        obj = {
            "graph": graph_to_obj(g),
            "alpha": nums.alpha,
            "k": nums.k,
            "omega": nums.omega,
            "alpha_star": format_rational(bounds.alpha_star),
            "k_star": format_rational(k_star(g)),
            "max_independent_sets": [sorted(s) for s in nums.max_independent_sets],
            "maximal_cliques": [sorted(c) for c in cliques],
            "sibling": sibling.has_property,
            "sibling_witness": (
                [sorted(sibling.witness[0]), sibling.witness[1], sibling.witness[2]]
                if sibling.witness else None
            ),
            "bounds": {
                "lower": format_rational(bounds.lower),
                "upper": format_rational(bounds.upper),
                "sibling_upper": (
                    format_rational(bounds.sibling_upper)
                    if bounds.sibling_upper is not None else None
                ),
                "tight": bounds.tight,
            },
        }
        _write(args, dumps(obj))
    else:
        lines = [
            f"agents                 {g.n}",
            f"edges                  {len(g.edges)}",
            f"alpha                  {nums.alpha}",
            f"clique cover k         {nums.k}",
            f"omega                  {nums.omega}",
            f"alpha* = k*            {bounds.alpha_star}",
            f"efficiency bracket     [{bounds.lower}, {bounds.upper}]",
            f"sibling property       {'yes' if sibling else 'no'}",
        ]
        if sibling.witness:
            jset, i, w = sibling.witness
            lines.append(
                f"sibling witness        J={sorted(jset)}, member {i} observed by {w}"
            )
        if bounds.sibling_upper is not None:
            lines.append(f"sibling upper bound    {bounds.sibling_upper}")
        tight = [name for name, flag in bounds.tight.items() if flag]
        lines.append(f"certified tight        {', '.join(tight) if tight else 'none known'}")
        lines.append(
            "maximal cliques        "
            + ", ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in cliques)
        )
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_solve(args) -> int:
    g = parse_graph(args.graph)
    inst = parse_instance(args.instance)
    opt = brute_force_opt(inst)
    full = run_generalized_greedy(inst, complete_graph(g.n), args.tie, seed=args.seed)
    constrained = run_generalized_greedy(inst, g, args.tie, seed=args.seed)
    gamma = constrained.value / opt.value if opt.value else None

    def fmt_profile(profile):
        return [sorted(a) for a in profile]

    if args.format == "json":
        obj = {
            "seed": args.seed,
            "tie_policy": args.tie,
            "rows": {
                "optimal": {
                    "profile": fmt_profile(opt.profile),
                    "value": format_rational(opt.value),
                },
                "distributed_greedy": {
                    "profile": fmt_profile(full.profile),
                    "value": format_rational(full.value),
                },
                "generalized_distributed_greedy": {
                    "profile": fmt_profile(constrained.profile),
                    "value": format_rational(constrained.value),
                },
            },
            "gamma": format_rational(gamma) if gamma is not None else None,
            "branches_explored": constrained.branches_explored,
        }
        _write(args, dumps(obj))
    else:
        rows = [
            ("Optimal", opt.profile, opt.value),
            ("Distributed Greedy", full.profile, full.value),
            ("Generalized Distributed Greedy", constrained.profile, constrained.value),
        ]
        width = max(len(r[0]) for r in rows)
        lines = []
        for name, profile, value in rows:
            cells = " ".join("{" + ",".join(map(str, sorted(a))) + "}" for a in profile)
            lines.append(f"{name:<{width}}  {cells}  ->  {value}")
        if gamma is not None:
            lines.append(f"efficiency ratio: {gamma}")
        _write(args, "\n".join(lines) + "\n")
    if args.trace:
        trace_obj = {
            "seed": args.seed,
            "tie_policy": args.tie,
            "agents": [
                {
                    "agent": t.agent,
                    "observed_elements": sorted(t.observed),
                    "marginals": [format_rational(v) for v in t.marginals],
                    "tied_actions": list(t.tied),
                    "chosen_action": t.chosen,
                }
                for t in constrained.trace
            ],
        }
        with open(args.trace, "w") as fh:
            fh.write(dumps(trace_obj))
    return 0


def _certificate_obj(cert) -> dict:
    return {
        "construction": cert.construction,
        "predicted_gamma": format_rational(cert.predicted_gamma),
        "realized_gamma": format_rational(cert.realized.gamma),
        "instance": instance_to_obj(cert.instance),
    }


def cmd_worst_case(args) -> int:
    g = parse_graph(args.graph)
    # the clique and tableau guards, then the exact guard, before any engine run
    a_star = alpha_star(g)
    sibling = sibling_property(g)
    obj = {
        "alpha_star": format_rational(a_star),
        "upper_bound_instance": _certificate_obj(upper_bound_instance(g)),
    }
    if sibling.has_property:
        obj["sibling_instance"] = _certificate_obj(sibling_instance(g))
    if args.budget:
        result = adversarial_search(g, budget=args.budget, seed=args.seed)
        obj["adversarial_probe"] = {
            "seed": args.seed,
            "budget": args.budget,
            "evaluated": result.evaluated,
            "min_gamma": format_rational(result.min_gamma),
            "witness": instance_to_obj(result.witness),
        }
    _write(args, dumps(obj))
    return 0


def cmd_design(args) -> int:
    result = optimal_structure(args.n, args.m)
    if args.format == "dot":
        clusters = result.partition if result.case_tag == CASE_TURAN else None
        _write(args, to_dot(result.graph, clusters))
    elif args.format == "json":
        obj = {
            "graph": graph_to_obj(result.graph),
            "m_used": result.m_used,
            "gamma_guaranteed": format_rational(result.gamma_guaranteed),
            "case": result.case_tag,
        }
        if result.partition:
            obj["partition"] = [list(b) for b in result.partition]
        _write(args, dumps(obj))
    else:
        lines = [
            f"design for n={args.n}, edge budget m={args.m}: {result.case_tag}",
            f"edges used          {result.m_used}",
            f"guaranteed ratio    {result.gamma_guaranteed}",
            f"edges               {result.graph.sorted_edges()}",
        ]
        if result.partition:
            lines.insert(1, f"clique blocks       {[list(b) for b in result.partition]}")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_curve(args) -> int:
    runs = curve_runs(args.n)
    if args.format == "json":
        rows = []
        for lo, hi, gamma, r, case_tag in runs:
            gamma = format_rational(gamma)
            rows.extend({"case": case_tag, "gamma": gamma, "m": m, "r": r} for m in range(lo, hi))
        _write(args, dumps(rows))
    else:
        _write(args, curve_to_csv(runs))
    return 0


def cmd_audit(args) -> int:
    inst = parse_instance(args.instance)
    report = audit_properties(inst.oracle)
    if args.format == "json":
        obj = {
            "normalized": report.normalized,
            "monotone": report.monotone,
            "submodular": report.submodular,
            "witnesses": report.witnesses,
        }
        _write(args, dumps(obj))
    else:
        lines = [
            f"normalized   {'pass' if report.normalized else 'FAIL'}",
            f"monotone     {'pass' if report.monotone else 'FAIL'}",
            f"submodular   {'pass' if report.submodular else 'FAIL'}",
        ]
        if report.witnesses:
            lines.append(f"witnesses    {report.witnesses}")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    return 0 if verify.run_all(sys.stdout) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogreedy",
        description=(
            "Distributed greedy submodular maximization under information "
            "constraints: exact efficiency analysis and structure design."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph statistics and efficiency bracket")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="run the greedy rows against the optimum")
    p.add_argument("--graph", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--tie", choices=POLICIES, default="worst")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write a per-agent decision trace to this path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("worst-case", help="emit certified bound-achieving instances")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=0,
                   help=f"extra adversarial probe budget (0 = skip, must be nonnegative), "
                        f"at most {BUDGET_GUARD:,} (more is refused with exit 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    n_help = f"number of agents, at most {DESIGN_GUARD:,} (more is refused with exit 3)"
    p = sub.add_parser("design", help="edge-budget-optimal information structure")
    p.add_argument("--n", type=int, required=True, help=n_help)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "dot"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("curve", help="guaranteed efficiency for every edge budget")
    p.add_argument("--n", type=int, required=True, help=n_help)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")

    p = sub.add_parser("audit", help="exhaustive oracle property audit")
    p.add_argument("--instance", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out")

    sub.add_parser("verify", help="replay fixtures and invariant sweeps")
    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except Exception as exc:  # noqa: BLE001 - map to contract exit codes
        code = exit_code_for(exc)
        if code == 1:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
