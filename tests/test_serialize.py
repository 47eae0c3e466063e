"""JSON/CSV interchange: parsing, validation errors, round trips, and the emitter."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infogreedy.cli as cli_mod
from infogreedy import InfoGraph, InputError, make_instance, build_wsc
from infogreedy.cli import main
from infogreedy.design import curve_runs, efficiency_curve
from infogreedy.serialize import (
    curve_from_csv,
    curve_to_csv,
    dumps,
    format_rational,
    graph_from_obj,
    graph_to_obj,
    instance_from_obj,
    instance_to_obj,
    parse_rational,
)

F = Fraction


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational(3) == 3
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational("-2/7") == F(-2, 7)

    def test_rejects_junk(self):
        for bad in (1.5, "x", None, True, "1/0"):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_format_round_trip(self):
        for v in (F(0), F(7), F(1, 3), F(-5, 2)):
            assert parse_rational(format_rational(v)) == v

    def test_integers_stay_integers(self):
        assert format_rational(F(4, 2)) == 2
        assert format_rational(F(1, 2)) == "1/2"


class TestGraphDocuments:
    def test_round_trip(self):
        g = InfoGraph(4, [(1, 2), (2, 4)])
        assert graph_from_obj(graph_to_obj(g)) == g

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError, match="/n"):
            graph_from_obj({"edges": []})
        with pytest.raises(InputError, match="/edges/0"):
            graph_from_obj({"n": 3, "edges": [[1]]})

    def test_inadmissible_edge_propagates(self):
        with pytest.raises(InputError):
            graph_from_obj({"n": 3, "edges": [[3, 1]]})


class TestInstanceDocuments:
    def test_cover_round_trip(self):
        inst = make_instance(build_wsc([1, F(1, 3)]), [[[0], [1]], [[0, 1]]])
        obj = instance_to_obj(inst)
        back = instance_from_obj(json.loads(dumps(obj)))
        assert back.actions == inst.actions
        for mask in range(4):
            assert back.oracle.value_mask(mask) == inst.oracle.value_mask(mask)

    def test_exact_rational_values(self):
        inst = instance_from_obj(
            {"kind": "wsc", "values": ["1/3"], "actions": [[[0]]]}
        )
        assert inst.oracle.values == (F(1, 3),)

    def test_empty_actions_rejected(self):
        with pytest.raises(InputError, match="/actions"):
            instance_from_obj({"kind": "wsc", "values": [1], "actions": []})

    def test_element_out_of_range_pinpointed(self):
        with pytest.raises(InputError, match="/actions/1/0"):
            instance_from_obj(
                {"kind": "wsc", "values": [1, 1], "actions": [[[0]], [[5]]]}
            )

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="/kind"):
            instance_from_obj({"kind": "mystery", "actions": [[[0]]]})

    def test_vta_and_capped_round_trip(self):
        from infogreedy import build_vta, build_capped_sum

        vta = make_instance(
            build_vta([1, 2], [F(1, 2)]), [[[0], [1]]]
        )
        capped = make_instance(
            build_capped_sum([F(1, 2), F(1, 2)]), [[[0], [2]], [[1], [3]]]
        )
        for inst in (vta, capped):
            back = instance_from_obj(json.loads(dumps(instance_to_obj(inst))))
            for mask in range(1 << inst.oracle.ground_size):
                assert back.oracle.value_mask(mask) == inst.oracle.value_mask(mask)

    def test_two_block_round_trip(self):
        from infogreedy import upper_bound_instance

        five_cycle = InfoGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        inst = upper_bound_instance(five_cycle).instance
        back = instance_from_obj(json.loads(dumps(instance_to_obj(inst))))
        for mask in range(1 << inst.oracle.ground_size):
            assert back.oracle.value_mask(mask) == inst.oracle.value_mask(mask)


class TestCurveCsv:
    def test_round_trip(self):
        points = efficiency_curve(6)
        text = curve_to_csv(curve_runs(6))
        assert curve_from_csv(text) == points
        assert text.count("\n") == len(points) + 1

    def test_header_guard(self):
        with pytest.raises(InputError):
            curve_from_csv("nope\n1,2,3,4,5")


class TestStability:
    def test_dumps_is_byte_stable(self):
        inst = make_instance(build_wsc([1, 2]), [[[0]], [[1], [0, 1]]])
        assert dumps(instance_to_obj(inst)) == dumps(instance_to_obj(inst))


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# text that needs escaping: quotes, backslashes, control characters, non-ASCII
_awkward = st.text(st.sampled_from('a"\\/\x00\x1f\t\n\u00e9\u2028\U0001f600'), max_size=4)
_keys = st.one_of(st.text(max_size=6), _awkward, st.sampled_from(["10", "2", "1", "-1", "a", "B"]))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 80), max_value=10 ** 80),
    st.text(max_size=8),
    _awkward,
)
_int_lists = st.lists(st.lists(st.integers(-5, 10 ** 12), max_size=4), max_size=5)
_trees = st.recursive(
    st.one_of(_scalars, _int_lists),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_keys, kids, max_size=5),
    ),
    max_leaves=40,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "infogreedy" / "fixtures"
GRAPHS = ("crossed_seven_cycle.json", "demo_cover_graph.json", "five_cycle.json",
          "k4_minus_edge.json", "single_edge_trio.json")
SOLVES = (("demo_cover_graph.json", "demo_cover_instance.json"),
          ("k4_minus_edge.json", "demo_cover_instance.json"),
          ("single_edge_trio.json", "pileup_cover_instance.json"))


class TestEmitter:
    @given(_trees)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_json_dumps(self, tree):
        assert dumps(tree) == reference_dumps(tree)

    def test_awkward_cases(self):
        for tree in (
            {"10": 1, "2": 2, "1": {"b": [], "a": {}}},  # keys sort as text
            [[], [[]], {"": [{}]}, ()],
            [True, False, None, 0, -1, 2 ** 200, -(2 ** 70)],
            [[1, 2], [3], []],  # an empty member leaves the int-list path
            [[1, 2], [True]],
            {"k\u00e9\"\n": "\x00\u2028\U0001f600", "\\": "/"},
            ((1, 2), (3, 4)),
        ):
            assert dumps(tree) == reference_dumps(tree), tree

    # subclasses of int and str are refused too, although json.dumps takes them:
    # every document is built from plain values
    @pytest.mark.parametrize("value", [
        Fraction(1, 2), Fraction(3), 0.5, {1, 2}, object(),
        type("Count", (int,), {})(3), type("Tag", (str,), {})("a"),
    ])
    def test_what_is_not_exact_json_is_refused(self, value):
        for tree in (value, [value], [[1], [value]], {"a": value}):
            with pytest.raises(TypeError):
                dumps(tree)

    def test_every_cli_document_matches_json_dumps(self, monkeypatch, capsys, tmp_path):
        documents = []

        def checked(obj):
            text = dumps(obj)
            assert text == reference_dumps(obj)
            documents.append(text)
            return text

        monkeypatch.setattr(cli_mod, "dumps", checked)
        runs = []
        for graph in GRAPHS:
            runs.append(["analyze", "--graph", graph, "--format", "json"])
            runs.append(["worst-case", "--graph", graph, "--budget", "20", "--seed", "3"])
        for graph, instance in SOLVES:
            for tie in ("worst", "first", "random"):
                runs.append(["solve", "--graph", graph, "--instance", instance, "--tie", tie,
                             "--format", "json", "--trace", str(tmp_path / "trace.json")])
        for instance in ("demo_cover_instance.json", "pileup_cover_instance.json"):
            runs.append(["audit", "--instance", instance, "--format", "json"])
        for n, m in ((1, 0), (4, 5), (8, 7), (70, 1200)):
            runs.append(["design", "--n", str(n), "--m", str(m), "--format", "json"])
        for argv in runs:
            argv = [str(FIXTURES / t) if t.endswith(".json") else t for t in argv]
            assert main(argv) == 0
        capsys.readouterr()
        # solve writes its trace through dumps as well
        assert len(documents) == len(runs) + 3 * len(SOLVES)
