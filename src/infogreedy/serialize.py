"""JSON, CSV, and DOT interchange for graphs, instances, and results.

Rationals travel as exact "p/q" strings (plain integers stay integers); all
dumps are byte-stable across runs: keys sorted, no locale, newline-terminated.
``dumps`` writes exactly what ``json.dumps(obj, sort_keys=True, indent=2)``
writes, plus the newline, with its own emitter rather than the standard
library's pure-Python indenting encoder.  The guarantee curve's CSV is
written per run of equal guarantee (``design.curve_runs``): the text of a row
other than its budget is formatted once per run.

Instance schema:
    {"kind": "wsc",        "values": [...],                "actions": [[[e,..],..],..]}
    {"kind": "vta",        "values": [...], "probs": [...], "actions": ...}
    {"kind": "capped_sum", "weights": [...],               "actions": ...}
    {"kind": "two_block",  "weights": [...], "u_table": {"mask": val}, "actions": ...}
    {"kind": "table",      "ground": int,    "table": {"mask": val},   "actions": ...}
A table lists every mask of its 2^n ("u_table") or 2^ground subsets, keyed
in canonical decimal ("5", never "05", " 5" or "+5"): one spelling each.
Elements are 0-based ids into the oracle's ground set; for "vta" the id of
agent a engaging target t is a * n_targets + t.

Graph schema: {"n": int, "edges": [[i, j], ...]} with 1-based agents, i < j.
A graph document with more than ``AGENT_GUARD`` agents is refused before the
graph is built.  Counts, endpoints, element ids and ground sizes are JSON
integers; ``true`` and ``false`` are refused wherever an integer is wanted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .design import CurvePoint
from .errors import GuardRefusal, InputError
from .graphs import InfoGraph
from .oracles import (
    CappedSumOracle,
    Instance,
    TableOracle,
    TargetAssignmentOracle,
    TwoBlockOracle,
    ValuationOracle,
    WeightedSetCoverOracle,
    make_instance,
)

AGENT_GUARD = 10000


def _is_int(value: Any) -> bool:
    # bool is a subclass of int, but JSON true/false are not counts or ids
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value: Any, where: str = "") -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad rational {value!r}") from exc
    raise InputError(f"{where}: expected integer or 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> Any:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _rational_list(values, where: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise InputError(f"{where}: expected a list")
    return [parse_rational(v, f"{where}/{i}") for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def graph_to_obj(g: InfoGraph) -> dict:
    return {"n": g.n, "edges": [[i, j] for i, j in g.sorted_edges()]}


def graph_from_obj(obj: Any) -> InfoGraph:
    if not isinstance(obj, dict):
        raise InputError("graph document must be an object")
    if not _is_int(obj.get("n")):
        raise InputError("/n: missing or non-integer agent count")
    if obj["n"] > AGENT_GUARD:
        raise GuardRefusal(f"n={obj['n']} exceeds the agent guard {AGENT_GUARD}")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise InputError("/edges: expected a list")
    parsed = []
    for idx, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise InputError(f"/edges/{idx}: expected a pair of integers")
        parsed.append((e[0], e[1]))
    return InfoGraph(obj["n"], parsed)


def parse_graph(path) -> InfoGraph:
    return graph_from_obj(_load(path))


# ---------------------------------------------------------------------------
# Oracles and instances
# ---------------------------------------------------------------------------


def oracle_to_obj(oracle: ValuationOracle) -> dict:
    params = oracle.to_params()
    out: dict[str, Any] = {"kind": params["kind"]}
    for key in ("values", "probs", "weights"):
        if key in params:
            out[key] = [format_rational(v) for v in params[key]]
    for key in ("u_table", "table"):
        if key in params:
            out[key] = {
                str(mask): format_rational(v) for mask, v in sorted(params[key].items())
            }
    if "ground" in params:
        out["ground"] = params["ground"]
    return out


def oracle_from_obj(obj: Any) -> ValuationOracle:
    if not isinstance(obj, dict):
        raise InputError("instance document must be an object")
    kind = obj.get("kind")
    if kind == "wsc":
        return WeightedSetCoverOracle(_rational_list(obj.get("values"), "/values"))
    if kind == "vta":
        return TargetAssignmentOracle(
            _rational_list(obj.get("values"), "/values"),
            _rational_list(obj.get("probs"), "/probs"),
        )
    if kind == "capped_sum":
        return CappedSumOracle(_rational_list(obj.get("weights"), "/weights"))
    if kind == "two_block":
        weights = _rational_list(obj.get("weights"), "/weights")
        table = _mask_table(obj.get("u_table"), "/u_table")
        return TwoBlockOracle(table, weights)
    if kind == "table":
        if not _is_int(obj.get("ground")):
            raise InputError("/ground: missing or non-integer")
        return TableOracle(obj["ground"], _mask_table(obj.get("table"), "/table"))
    raise InputError(f"/kind: unknown oracle kind {kind!r}")


def _mask_table(obj: Any, where: str) -> dict[int, Fraction]:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object of mask -> value")
    table = {}
    for key, val in obj.items():
        try:
            mask = int(key)
        except ValueError as exc:
            raise InputError(f"{where}/{key}: non-integer mask") from exc
        if str(mask) != key:  # one spelling per mask, so no entry can shadow another
            raise InputError(f"{where}/{key}: mask keys must be canonical decimal integers")
        table[mask] = parse_rational(val, f"{where}/{key}")
    return table


def instance_to_obj(inst: Instance) -> dict:
    obj = oracle_to_obj(inst.oracle)
    obj["actions"] = [[sorted(a) for a in acts] for acts in inst.actions]
    return obj


def instance_from_obj(obj: Any) -> Instance:
    oracle = oracle_from_obj(obj)
    actions = obj.get("actions")
    if not isinstance(actions, list) or not actions:
        raise InputError("/actions: expected a nonempty list of agent action sets")
    parsed = []
    for i, acts in enumerate(actions):
        if not isinstance(acts, list) or not acts:
            raise InputError(f"/actions/{i}: each agent needs a nonempty action list")
        agent_actions = []
        for j, act in enumerate(acts):
            if not isinstance(act, list) or not all(_is_int(e) for e in act):
                raise InputError(f"/actions/{i}/{j}: an action is a list of element ids")
            for e in act:
                if not 0 <= e < oracle.ground_size:
                    raise InputError(
                        f"/actions/{i}/{j}: element {e} outside ground set of size "
                        f"{oracle.ground_size}"
                    )
            agent_actions.append(act)
        parsed.append(agent_actions)
    return make_instance(oracle, parsed)


def parse_instance(path) -> Instance:
    return instance_from_obj(_load(path))


# ---------------------------------------------------------------------------
# Files and stable dumps
# ---------------------------------------------------------------------------


def _load(path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")  # as RFC 8259 says, whatever the locale
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc})") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    The standard library runs its pure-Python encoder whenever it indents,
    so this emitter writes the same layout itself.  Strings and keys are
    escaped by ``json.encoder.encode_basestring_ascii``, keys are sorted,
    a tuple prints as a list, and lists of ints and lists of int lists
    (edges, partitions, profiles, masks) are formatted by joins.  Keys
    must be strings and numbers plain ints: a float raises TypeError, as a
    Fraction or any other value ``json.dumps`` cannot encode does.
    """
    return _encode(obj, "\n") + "\n"


_quote = json.encoder.encode_basestring_ascii


def _encode(obj: Any, nl: str) -> str:
    """``obj`` indented two spaces a level, ``nl`` the newline and indent of its line."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            _quote(key) + ": " + _encode(value, inner) for key, value in sorted(obj.items())
        ]) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(x) is int for x in obj):
            return "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
        if (kind is list and all(type(x) is list and x for x in obj)
                and all(type(y) is int for x in obj for y in x)):
            deeper = inner + "  "
            sep = "," + deeper
            close = inner + "]"
            return "[" + inner + ("," + inner).join(
                ["[" + deeper + sep.join(map(str, x)) + close for x in obj]) + nl + "]"
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + nl + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def curve_to_csv(runs) -> str:
    """CSV with columns m, gamma_num, gamma_den, r, case_tag from ``design.curve_runs``.

    The rest of a row is the same across a run, so it is formatted once per run.
    """
    parts = ["m,gamma_num,gamma_den,r,case_tag\n"]
    for lo, hi, gamma, r, case_tag in runs:
        rest = f",{gamma.numerator},{gamma.denominator},{r},{case_tag}\n"
        parts.append(rest.join(map(str, range(lo, hi))) + rest)
    return "".join(parts)


def curve_from_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "m,gamma_num,gamma_den,r,case_tag":
        raise InputError("curve CSV missing its header")
    points = []
    for ln in lines[1:]:
        m, num, den, r, tag = ln.split(",")
        points.append(
            CurvePoint(int(m), Fraction(int(num), int(den)), int(r), tag)
        )
    return points
