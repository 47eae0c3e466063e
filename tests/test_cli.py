"""Command-line behavior: outputs, determinism, and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import infogreedy.bounds as bounds_mod
import infogreedy.cli as cli_mod
import infogreedy.lp as lp_mod
import infogreedy.serialize as serialize_mod
import infogreedy.verify as verify_mod
from infogreedy.bounds import BUDGET_GUARD
from infogreedy.cli import main
from infogreedy.design import DESIGN_GUARD
from infogreedy.graphs import EXACT_GUARD
from infogreedy.greedy import DEPTH_GUARD
from infogreedy.lp import independence_lp
from infogreedy.serialize import AGENT_GUARD, parse_graph

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "infogreedy" / "fixtures"
GRAPH_FIXTURES = (
    "demo_cover_graph.json", "five_cycle.json", "k4_minus_edge.json", "single_edge_trio.json",
)

# sha256 of stdout for every command and format on the fixtures (verify's
# bytes are pinned by VERIFY_LINES), and for a curve and a design at the
# design guard.  The hashes were taken from the
# per-row curve and the json.dumps(sort_keys=True, indent=2) writer, so any
# later change to the output layers must keep these bytes.
GOLDEN_SHA256 = {
    "analyze --graph crossed_seven_cycle.json --format table":
        "907b7091a7ad22f4da91517b7818cba3449b9aea7487f1e5bc72c7f24ccbd160",
    "analyze --graph crossed_seven_cycle.json --format json":
        "765466279d27e66d510c42ea6d23ebf1a4db564dcd0bc955300ece967559b635",
    "analyze --graph crossed_seven_cycle.json --format dot":
        "ad7e098699a6c97dcfc0855726c883615c8ceeda8a6799aa2d433ec2ad5ed2e5",
    "analyze --graph demo_cover_graph.json --format table":
        "fc4cea49e5ca36acc5ee70114aa6abeb0d67dbbd2accf2216cb3133320c669df",
    "analyze --graph demo_cover_graph.json --format json":
        "8ebbc585fe35e5b303d80b1a42b757ea8ad56bc2ca465fae34e411c2cef922f8",
    "analyze --graph demo_cover_graph.json --format dot":
        "d63f57d733d7703b377a06116033d1f894ae52493fa60dc895e09438def8996e",
    "analyze --graph five_cycle.json --format table":
        "1c78dd1033cec7fe8937663942253cf43f20d6ffbf25fc2dfa0935882ed34ca6",
    "analyze --graph five_cycle.json --format json":
        "ed387630f8e0dd8a8abf6c3b5be034b8f974a3bd273abb4b7f07f6ed566e41e7",
    "analyze --graph five_cycle.json --format dot":
        "9db6c55294003447647a2f2895df7c299cf4211f618ec0340bcf9661b9ffa533",
    "analyze --graph k4_minus_edge.json --format table":
        "27752c2ca7530000b6e6a90421f2c4a17f294f96c97677d7310d9ff587bcf366",
    "analyze --graph k4_minus_edge.json --format json":
        "ce55a718e5a4a42dadb69d1d36cd26ccbeab7a61d739e05a4d9a692dd4bdfa97",
    "analyze --graph k4_minus_edge.json --format dot":
        "5ff35b96ff4a7ee299beee4c24fc9545bbe37eaeb6d79928c23974266b08f831",
    "analyze --graph single_edge_trio.json --format table":
        "a9c34e9945a1ac2a3385505749703b6ab9b1b77c6a497cd4fd4771b5621d6369",
    "analyze --graph single_edge_trio.json --format json":
        "d07e8420dba6b41e32aadb4d906921900ed5b0ab72490b81c5de8cd58ede137f",
    "analyze --graph single_edge_trio.json --format dot":
        "e6912becf2ba3882aa8a275b3574228410d25f8554e0f29db2d523c309c0fdfa",
    "solve --graph demo_cover_graph.json --instance demo_cover_instance.json --format table":
        "b2bfcda88d9e24db19535071858bfcec068c7ff64e4217f548528ca9a4b4a8e8",
    "solve --graph single_edge_trio.json --instance pileup_cover_instance.json --format table":
        "2685ff7328badfcf98aa12e5500eddebc137aa68fac4abb5a856a6590d120554",
    "solve --graph demo_cover_graph.json --instance demo_cover_instance.json --format json":
        "311e63c708a24f202255b00e826b8dbc6f2dd4bf67171fa3596c4393741e739a",
    "solve --graph single_edge_trio.json --instance pileup_cover_instance.json --format json":
        "eb6279c21064862d201ae4e314f2c20eada8403794adf348fa40e3de9e45cdf7",
    "solve --graph demo_cover_graph.json --instance demo_cover_instance.json --tie first --format json":
        "86c1c14ef92e6c5d06bc6cc0c4d61761df26c44dff3bebcfd92ab7027ab9b858",
    "solve --graph demo_cover_graph.json --instance demo_cover_instance.json --tie random --seed 3 --format json":
        "9796b6f50275a6ace5c4c3f8c74456f3f5ad4018f668617da18160dfb3a62d18",
    "solve --graph k4_minus_edge.json --instance demo_cover_instance.json --format json":
        "adb7b8a117fea9c4084c4ad882bbb16e617c3870cc40956d2dcca4e5a66b406c",
    "worst-case --graph crossed_seven_cycle.json":
        "e698ba75af68ae9fe6d7ce0fc3a0a9a2c5d4a22a8b8ff8120be7944b3d948c8b",
    "worst-case --graph demo_cover_graph.json":
        "817d6b5d491d695a6fc8a482ad68303575ebd8da1a3e360a801645c57cdafe48",
    "worst-case --graph five_cycle.json":
        "39527a4a4f239458e5012dcb806ae628e845812a0f9c9dbbbd2c5d819cd7e7c8",
    "worst-case --graph k4_minus_edge.json":
        "4fd7180fc6605cc27f00cb3b5cc98ac171a61e39abbd5cec16cdec5196d8b876",
    "worst-case --graph single_edge_trio.json":
        "456b4b7c91a5942d602d0fcad296c74483806ae3446f5973b5d9879c3a5be4ac",
    "worst-case --graph five_cycle.json --budget 30 --seed 5":
        "d7578816769887731fed05d5b084c5a05daba671f61650f3d2cb242ba98cc08b",
    "worst-case --graph crossed_seven_cycle.json --budget 20 --seed 1":
        "e0cedefc8f0b793f25758aaece246caaa4a8e7c33487da979bf0eb2138fdd358",
    "design --n 8 --m 7 --format table":
        "e13c49ee4669b2f0aaadf3ae3d8fde25be9bbb066d79284359772cbb05be5025",
    "design --n 8 --m 7 --format json":
        "05f01c18deaddddb9994eb14d28431102ebd7489de739a01c3532c173ed819a9",
    "design --n 8 --m 7 --format dot":
        "45ff27db3e025f24d64a7a8948060fb2902fedc3bc4aa7292de69522528b1a5b",
    "design --n 4 --m 5 --format table":
        "715d762bd92741318a0dde210842d0b17e517b9da476a4054e93bc352574c11d",
    "design --n 4 --m 5 --format json":
        "722af5ba252a1c369db9ac5a66dfc6a8c346de239dd2d1493e5e45346bcbe34a",
    "design --n 4 --m 5 --format dot":
        "5ff35b96ff4a7ee299beee4c24fc9545bbe37eaeb6d79928c23974266b08f831",
    "design --n 1 --m 0 --format json":
        "22974a02df6a2e6382b72b87c1d9d8dabea0bfece68080f5ff8a0259395ad454",
    "design --n 1000 --m 250000 --format json":
        "6ab80efbda6abe8e5dc72ed0203513fcd680ebe7cd2cec604faba8bbd545ca2b",
    "curve --n 1 --format csv":
        "a3f0d011ef227351a9c2c1928f92aa04acecd15d1083f7784d725725e3b9a533",
    "curve --n 1 --format json":
        "f3a1cd11794c7807340f38ec9c22d6e328db5d1b7941eda41f8015961540a14b",
    "curve --n 2 --format csv":
        "2ab08cc4f96e13f198d95b35d9570a0e467ee936158e9cec3086231f79b7fa2a",
    "curve --n 2 --format json":
        "aa7759a5d8529f5c8129b42fb9ff7333237394a4174edcfa31afd78aff2115ec",
    "curve --n 3 --format csv":
        "f441f67444dc60319fbd13d8a832919424fea1220be49dd2dd1c839437cd894a",
    "curve --n 3 --format json":
        "45036cebfcb3672e1a2d9a2f375d03b2ee505c3bd70f580be4be31994ae81335",
    "curve --n 10 --format csv":
        "ef1c13caf75156b5ebb2af78800565de90fdd2e4031e3b3305b4df534b001f61",
    "curve --n 10 --format json":
        "2fdd46d693d8da4ef1d7abc7c053ac0fc189d0e37d8d3f7b5441631b15debf29",
    "curve --n 70 --format json":
        "dbab1d5364ff775451c3c327628152781bc58492a9b69e94b1dad16beb8c3990",
    "curve --n 1000":
        "0b918cd98ce660f98cdf5c96878fcfa799c70bcefa3f71475912ec34dee172c8",
    "curve --n 1000 --format json":
        "e8317573832953b696474e19cdea05147e0062d16db270a289e689490dbf2146",
    "audit --instance demo_cover_instance.json --format table":
        "f59d038c6628d911acbb6de2cbbc371ddc0699e170b2be478b8eea66d4d9ac1e",
    "audit --instance demo_cover_instance.json --format json":
        "4d2a939d08e2c78de9a470834f738f6daa11b8e21c2a711d8cd9807283dc6500",
    "audit --instance pileup_cover_instance.json --format table":
        "f59d038c6628d911acbb6de2cbbc371ddc0699e170b2be478b8eea66d4d9ac1e",
    "audit --instance pileup_cover_instance.json --format json":
        "4d2a939d08e2c78de9a470834f738f6daa11b8e21c2a711d8cd9807283dc6500",
}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_table_output(self, capsys):
        code, out = run(
            capsys, "analyze", "--graph", str(FIXTURES / "k4_minus_edge.json")
        )
        assert code == 0
        assert "alpha                  2" in out
        assert "clique cover k         2" in out
        assert "omega                  3" in out
        assert "[1/3, 1/2]" in out
        assert "sibling property       no" in out

    def test_dot_output(self, capsys):
        code, out = run(
            capsys,
            "analyze",
            "--graph",
            str(FIXTURES / "single_edge_trio.json"),
            "--format",
            "dot",
        )
        assert code == 0
        assert "1 -> 2;" in out and "digraph" in out

    def test_json_output(self, capsys):
        code, out = run(
            capsys,
            "analyze",
            "--graph",
            str(FIXTURES / "five_cycle.json"),
            "--format",
            "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["alpha"] == 2 and obj["k"] == 3
        assert obj["alpha_star"] == "5/2" and obj["k_star"] == "5/2"
        assert obj["sibling"] is True
        assert obj["bounds"] == {
            "lower": "2/7",
            "upper": "2/5",
            "sibling_upper": "1/3",
            "tight": {"lower": False, "upper": False},
        }


class TestSolve:
    def test_table_rows(self, capsys):
        code, out = run(
            capsys,
            "solve",
            "--graph",
            str(FIXTURES / "demo_cover_graph.json"),
            "--instance",
            str(FIXTURES / "demo_cover_instance.json"),
        )
        assert code == 0
        assert "Optimal" in out and "->  9" in out
        assert "Distributed Greedy" in out and "->  8" in out
        assert "Generalized Distributed Greedy" in out and "->  6" in out
        assert "efficiency ratio: 2/3" in out

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = run(
            capsys,
            "solve",
            "--graph",
            str(FIXTURES / "demo_cover_graph.json"),
            "--instance",
            str(FIXTURES / "demo_cover_instance.json"),
            "--trace",
            str(trace),
        )
        assert code == 0
        obj = json.loads(trace.read_text())
        assert len(obj["agents"]) == 4
        assert obj["agents"][2]["observed_elements"] == [2]


VTA_GRAPH = {"n": 3, "edges": [[1, 2]]}
# probability denominators 3 and 7 and a certain agent; agents 1 and 3 tie
VTA_INSTANCE = {
    "kind": "vta", "values": [2, 2, "1/2"], "probs": ["1/3", "2/7", 1],
    "actions": [[[0], [1], [2]], [[3], [4], [3, 5]], [[6], [7], [8]]],
}
VTA_TABLE = (
    "Optimal                         {0} {3,5} {7}  ->  67/21\n"
    "Distributed Greedy              {0} {4} {7}  ->  8/3\n"
    "Generalized Distributed Greedy  {0} {4} {6}  ->  18/7\n"
    "efficiency ratio: 54/67\n"
)
VTA_JSON = {
    "branches_explored": 4, "gamma": "54/67",
    "rows": {
        "distributed_greedy": {"profile": [[0], [4], [7]], "value": "8/3"},
        "generalized_distributed_greedy": {"profile": [[0], [4], [6]], "value": "18/7"},
        "optimal": {"profile": [[0], [3, 5], [7]], "value": "67/21"},
    },
    "seed": 0, "tie_policy": "worst",
}
VTA_TRACE = {
    "agents": [
        {"agent": 1, "chosen_action": 0, "marginals": ["2/3", "2/3", "1/6"],
         "observed_elements": [], "tied_actions": [0, 1]},
        {"agent": 2, "chosen_action": 1, "marginals": ["8/21", "4/7", "11/21"],
         "observed_elements": [0], "tied_actions": [1]},
        {"agent": 3, "chosen_action": 0, "marginals": [2, 2, "1/2"],
         "observed_elements": [], "tied_actions": [0, 1]},
    ],
    "seed": 0, "tie_policy": "worst",
}
# sha256 of the exact bytes, indentation and newlines included
VTA_JSON_SHA = "e2024165154c6b6f4b656ea2a40b473def6d2826743dd511f2b94538eeb89105"
VTA_TRACE_SHA = "5ad9ceaae3105f554ad6ac4c17430654866ccb1682e2d17772a49847e6125e1f"


class TestSolveTargetAssignment:
    def _solve(self, capsys, tmp_path, fmt):
        graph, inst = tmp_path / "g.json", tmp_path / "i.json"
        graph.write_text(json.dumps(VTA_GRAPH))
        inst.write_text(json.dumps(VTA_INSTANCE))
        trace = tmp_path / f"trace_{fmt}.json"
        code, out = run(capsys, "solve", "--graph", str(graph), "--instance", str(inst),
                        "--format", fmt, "--trace", str(trace))
        assert code == 0
        text = trace.read_text()
        assert json.loads(text) == VTA_TRACE
        assert hashlib.sha256(text.encode()).hexdigest() == VTA_TRACE_SHA
        return out

    def test_table_bytes(self, capsys, tmp_path):
        assert self._solve(capsys, tmp_path, "table") == VTA_TABLE

    def test_json_bytes(self, capsys, tmp_path):
        out = self._solve(capsys, tmp_path, "json")
        assert json.loads(out) == VTA_JSON
        assert hashlib.sha256(out.encode()).hexdigest() == VTA_JSON_SHA


class TestDesignAndCurve:
    def test_design_table(self, capsys):
        code, out = run(capsys, "design", "--n", "4", "--m", "5")
        assert code == 0
        assert "clique_minus_edge" in out and "1/2" in out

    def test_design_dot_clusters(self, capsys):
        code, out = run(capsys, "design", "--n", "8", "--m", "7", "--format", "dot")
        assert code == 0
        assert out.count("subgraph cluster_") == 3

    def test_curve_dead_zone(self, capsys):
        code, out = run(capsys, "curve", "--n", "10")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "m,gamma_num,gamma_den,r,case_tag"
        table = {int(r.split(",")[0]): r for r in rows[1:]}
        for m in range(12, 20):
            assert table[m].split(",")[1:3] == ["1", "4"]
        assert table[44].split(",")[1:4] == ["1", "2", "2"]
        assert table[44].endswith("clique_minus_edge")

    @pytest.mark.parametrize("argv", [
        ("curve", "--n", "100000"),
        ("design", "--n", "100000", "--m", "5"),
        ("design", "--n", "100000000", "--m", "5", "--format", "json"),
    ])
    def test_agent_count_guard(self, capsys, argv):
        start = time.perf_counter()
        assert main(list(argv)) == 3
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and f"design guard {DESIGN_GUARD}" in err

    @pytest.mark.parametrize("n, code", [(DESIGN_GUARD, 0), (DESIGN_GUARD + 1, 3)])
    def test_agent_count_guard_boundary(self, capsys, n, code):
        assert DESIGN_GUARD > 69  # the largest n the benchmark asks for
        assert main(["design", "--n", str(n), "--m", "0", "--format", "json"]) == code


class TestWorstCase:
    def test_emits_certified_instances(self, capsys):
        code, out = run(
            capsys,
            "worst-case",
            "--graph",
            str(FIXTURES / "five_cycle.json"),
            "--budget",
            "50",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["alpha_star"] == "5/2"
        assert obj["upper_bound_instance"]["realized_gamma"] == "2/5"
        assert obj["sibling_instance"]["realized_gamma"] == "1/3"
        assert obj["adversarial_probe"]["min_gamma"] == "1/3"

    def test_negative_budget_is_input_error(self, capsys):
        argv = ["worst-case", "--graph", str(FIXTURES / "crossed_seven_cycle.json")]
        assert main(argv + ["--budget", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "budget must be nonnegative" in err

    def test_budget_past_the_guard_is_refused_at_once(self, capsys):
        argv = ["worst-case", "--graph", str(FIXTURES / "five_cycle.json")]
        start = time.perf_counter()
        assert main(argv + ["--budget", str(BUDGET_GUARD + 1)]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: probe budget {BUDGET_GUARD + 1:,} exceeds "
                       f"the budget guard {BUDGET_GUARD:,}\n")
        help_text = " ".join(_outcome(capsys, ["worst-case", "--help"])[1].split())
        assert f"at most {BUDGET_GUARD:,} (more is refused with exit 3)" in help_text

    @pytest.mark.parametrize("doc", [
        {"n": 17, "edges": []},
        {"n": 20, "edges": []},
        {"n": 24, "edges": []},
        {"n": 17, "edges": [[1, j] for j in range(2, 18)]},
    ])
    def test_exact_guard_speaks_before_the_engine(self, monkeypatch, tmp_path, capsys, doc):
        def engine_ran(g):
            raise AssertionError("the certificate was built past the exact guard")

        monkeypatch.setattr(cli_mod, "upper_bound_instance", engine_ran)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["worst-case", "--graph", str(path), "--budget", "5"]) == 3
        assert capsys.readouterr() == (
            "", f"error: n={doc['n']} exceeds exhaustive guard {EXACT_GUARD}\n"
        )

    def test_crossed_seven_cycle_takes_the_padded_path(self, capsys):
        code, out = run(
            capsys,
            "worst-case",
            "--graph",
            str(FIXTURES / "crossed_seven_cycle.json"),
            "--budget",
            "100",
        )
        assert code == 0
        obj = json.loads(out)
        upper = obj["upper_bound_instance"]
        assert upper["realized_gamma"] == "2/7"
        # the sibling instance with a bonus target on agent 1, not a u/v table
        assert upper["instance"]["kind"] == "wsc"
        assert len(upper["instance"]["values"]) == len(obj["sibling_instance"]["instance"]["values"]) + 1

    @pytest.mark.parametrize("name", GRAPH_FIXTURES + ("crossed_seven_cycle.json",))
    def test_each_certificate_is_built_once_per_request(self, monkeypatch, capsys, name):
        builds = []
        for builder in ("_build_upper_bound_instance", "_build_sibling_instance"):
            original = getattr(bounds_mod, builder)

            def counted(g, builder=builder, original=original):
                builds.append(builder)
                return original(g)

            monkeypatch.setattr(bounds_mod, builder, counted)
        code, out = run(
            capsys, "worst-case", "--graph", str(FIXTURES / name), "--budget", "40"
        )
        assert code == 0
        sibling = "sibling_instance" in json.loads(out)
        assert sorted(builds) == ["_build_sibling_instance"] * sibling + [
            "_build_upper_bound_instance"
        ]


class TestAudit:
    def test_cover_instance_passes(self, capsys):
        code, out = run(
            capsys, "audit", "--instance", str(FIXTURES / "demo_cover_instance.json")
        )
        assert code == 0
        assert out.count("pass") == 3


VERIFY_LINES = [
    "PASS  demo cover: optimal 9, full greedy 8, constrained greedy 6, ratio 2/3 (got 9/8/6/2/3)",
    "PASS  near-clique quartet: alpha=k=2, omega=3, a*=2, bracket [1/3, 1/2], probe floor 1/2 "
    "(got min 1/2)",
    "PASS  five-cycle: alpha=2, k=3, a*=5/2 at the all-halves vertex, sibling with observer 3, "
    "certificates 2/5 and 1/3",
    "PASS  pile-up trio: optimum 3, worst tie chain 1, ratio 1/3 meets the lower bound (got 1/3)",
    "PASS  duality sweep: alpha <= a* = k* <= k on 120 seeded graphs",
    "PASS  duality chain exact on all 1099 admissible graphs with n <= 5",
    "PASS  floor sweep: ratio >= 1/(a*+1) constrained and >= 1/2 with full information on 120 "
    "seeded instances",
    "PASS  designs: closed-form edge counts up to n=30, the 10-agent curve plateaus at 1/4 on "
    "12..19 and ends at 1/2, no-sibling witnesses up to n=10 check out",
    "PASS  design optimality: no graph with n <= 4 certifies above the emitted design at any "
    "budget",
    "PASS  certificates: 40 seeded upper-bound instances realize 1/a* exactly and audit as "
    "submodular",
    "10/10 checks passed",
]


class TestVerify:
    def test_full_verify_green(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert out.splitlines() == VERIFY_LINES
        assert out == "\n".join(VERIFY_LINES) + "\n"  # byte for byte, like GOLDEN_SHA256

    def test_a_failing_check_prints_fail_and_exits_4(self, monkeypatch, capsys):
        # the demo cover read on the near-clique quartet instead of its own graph
        original = verify_mod._fixture
        monkeypatch.setattr(verify_mod, "_fixture", lambda name, parse: original(
            "k4_minus_edge.json" if name == "demo_cover_graph.json" else name, parse))
        code, out = run(capsys, "verify")
        assert code == 4
        assert out.splitlines() == [
            "FAIL  demo cover: constrained greedy 7 (want 6), ratio 7/9 (want 2/3)",
            *VERIFY_LINES[1:10],
            "9/10 checks passed",
        ]

    def test_check_names_match_the_benchmark_metrics(self):
        # bench/tracer.py names its verify.<name>.s metrics after these entries
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = [
            m["name"][len("verify."):-len(".s")] for m in spec["per_layer"]
            if m["name"].startswith("verify.") and m["name"].endswith(".s")
        ]
        assert metrics == [fn.__name__.removeprefix("_check_") for fn in verify_mod.CHECKS]


def _count_solves(monkeypatch) -> list:
    solved = []
    original = lp_mod.solve_lp

    def counted(lp):
        solved.append(lp)
        return original(lp)

    monkeypatch.setattr(lp_mod, "solve_lp", counted)
    return solved


class TestOneSolvePerGraph:
    @pytest.mark.parametrize("name", GRAPH_FIXTURES)
    @pytest.mark.parametrize("command", [
        ("analyze", "--format", "json"),
        ("analyze", "--format", "table"),
        ("worst-case",),
        ("worst-case", "--budget", "40", "--seed", "3"),
    ])
    def test_one_independence_lp_solve(self, monkeypatch, capsys, name, command):
        solved = _count_solves(monkeypatch)
        path = str(FIXTURES / name)
        code, _ = run(capsys, command[0], "--graph", path, *command[1:])
        assert code == 0
        assert solved == [independence_lp(parse_graph(path))]


class TestContracts:
    def test_missing_file_is_input_error(self, capsys):
        code = main(["analyze", "--graph", "/nonexistent.json"])
        assert code == 2

    def test_inadmissible_graph_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "edges": [[3, 1]]}')
        assert main(["analyze", "--graph", str(bad)]) == 2

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert main(["analyze", "--graph", str(deep)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: invalid JSON (")

    def test_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys):
        # JSON text is UTF-8 (RFC 8259), whatever the locale says
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"n": 1, "edges": [], "note": "caf\xe9"}')
        for argv in (["analyze", "--graph", str(latin)], ["audit", "--instance", str(latin)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {latin}: not UTF-8 (")

    def test_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        huge = tmp_path / "huge_n.json"
        huge.write_text('{"n": ' + "1" * 5000 + ', "edges": []}')
        assert main(["analyze", "--graph", str(huge)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {huge}: invalid JSON (")

    def test_guard_refusal_code(self, monkeypatch, tmp_path, capsys):
        solved = _count_solves(monkeypatch)
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 20, "edges": []}))
        assert main(["analyze", "--graph", str(big)]) == 3
        big.write_text(json.dumps({"n": 17, "edges": [[1, 2], [2, 3]]}))
        assert main(["analyze", "--graph", str(big), "--format", "json"]) == 3
        assert solved == []

    @pytest.mark.parametrize("n, code", [(DEPTH_GUARD, 0), (DEPTH_GUARD + 1, 3)])
    def test_worst_tie_depth_guard(self, tmp_path, capsys, n, code):
        # a path of single-action agents: the worst-tie search recurses once per agent
        graph, inst = tmp_path / "path.json", tmp_path / "inst.json"
        graph.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(1, n)]}))
        inst.write_text(json.dumps({
            "kind": "wsc", "values": [1] * n, "actions": [[[i]] for i in range(n)],
        }))
        argv = ["solve", "--graph", str(graph), "--instance", str(inst), "--tie", "worst"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and f"guarded at {DEPTH_GUARD} agents" in err
        else:
            assert out.endswith("efficiency ratio: 1\n")

    @pytest.mark.parametrize("doc", [
        {"n": True, "edges": []},
        {"n": 3, "edges": [[1, True]]},
        {"n": 3, "edges": [[False, 2]]},
    ])
    def test_boolean_graph_integers_are_input_errors(self, tmp_path, capsys, doc):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--graph", str(path), "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "integer" in err

    @pytest.mark.parametrize("doc, where", [
        ({"kind": "wsc", "values": [1, 1], "actions": [[[True]]]}, "/actions/0/0"),
        ({"kind": "table", "ground": True, "table": {"0": 0, "1": 1}, "actions": [[[0]]]},
         "/ground"),
    ])
    def test_boolean_instance_integers_are_input_errors(self, tmp_path, capsys, doc, where):
        graph, inst = tmp_path / "graph.json", tmp_path / "inst.json"
        graph.write_text(json.dumps({"n": 1, "edges": []}))
        inst.write_text(json.dumps(doc))
        assert main(["solve", "--graph", str(graph), "--instance", str(inst)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and where in err

    def test_agent_guard_refuses_before_building_the_graph(self, monkeypatch, tmp_path, capsys):
        built = []
        monkeypatch.setattr(serialize_mod, "InfoGraph", lambda *args: built.append(args))
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 100_000_000, "edges": []}))
        assert main(["analyze", "--graph", str(big)]) == 3
        assert f"agent guard {AGENT_GUARD}" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("n, code", [(AGENT_GUARD, 0), (AGENT_GUARD + 1, 3)])
    def test_agent_guard_boundary(self, tmp_path, capsys, n, code):
        assert AGENT_GUARD > DEPTH_GUARD + 1
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": n, "edges": []}))
        assert main(["analyze", "--graph", str(path), "--format", "dot"]) == code

    def test_moon_moser_clique_count_guard(self, tmp_path, capsys):
        # the complement of 12 disjoint triangles has 3^12 maximal cliques
        n = 36
        edges = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if (i - 1) // 3 != (j - 1) // 3]
        path = tmp_path / "moon_moser.json"
        path.write_text(json.dumps({"n": n, "edges": edges}))
        start = time.perf_counter()
        assert main(["worst-case", "--graph", str(path)]) == 3
        assert time.perf_counter() - start < 1
        assert "maximal cliques" in capsys.readouterr().err

    def test_lp_tableau_guard_refuses_a_dense_sixty_agent_graph(self, tmp_path, capsys):
        # G(60, 1/2) has well over a thousand maximal cliques, so its
        # independence LP would have millions of tableau entries
        rng = random.Random(60)
        edges = [[i, j] for i in range(1, 61) for j in range(i + 1, 61) if rng.random() < 0.5]
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"n": 60, "edges": edges}))
        start = time.perf_counter()
        assert main(["worst-case", "--graph", str(path)]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and f"tableau guard {lp_mod.LP_GUARD:,}" in err

    def test_lp_tableau_guard_refuses_a_wide_edgeless_graph_at_once(self, tmp_path):
        # 9,999 one-vertex cliques: each clique mask becomes a vertex set in
        # time proportional to its set bits, not to its width
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"n": 9999, "edges": []}))
        src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "infogreedy.cli", "worst-case", "--graph", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: LP of 9999 rows, 9999 columns exceeds tableau guard 120,000\n"
        )

    def test_huge_table_ground_is_input_error(self, tmp_path, capsys):
        # the entry count is compared with 2^ground without forming 1 << ground
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({
            "kind": "table", "ground": 10**12, "table": {"0": 0, "1": 1}, "actions": [[[0]]],
        }))
        assert main(["audit", "--instance", str(doc)]) == 2
        assert "2^1000000000000" in capsys.readouterr().err

    def test_table_mask_outside_ground_is_input_error(self, tmp_path, capsys):
        docs = [
            {"kind": "table", "ground": 1, "table": {"0": 0, "5": 1}},
            {"kind": "two_block", "weights": [1], "u_table": {"0": 0, "2": 1}},
        ]
        for k, doc in enumerate(docs):
            path = tmp_path / f"mask{k}.json"
            path.write_text(json.dumps({**doc, "actions": [[[0]]]}))
            assert main(["audit", "--instance", str(path)]) == 2

    @pytest.mark.parametrize("key", [" 1", "01", "+1", "1 ", "1_0"])
    def test_mask_keys_are_canonical_decimal(self, tmp_path, capsys, key):
        # before, " 1" and "1" were one dict entry and the later value won
        graph, inst = tmp_path / "graph.json", tmp_path / "inst.json"
        graph.write_text(json.dumps({"n": 1, "edges": []}))
        inst.write_text(json.dumps(
            {"kind": "table", "ground": 1, "table": {"0": 0, "1": 1, key: 2}, "actions": [[[0]]]}
        ))
        assert main(["solve", "--graph", str(graph), "--instance", str(inst)]) == 2
        assert capsys.readouterr() == (
            "", f"error: /table/{key}: mask keys must be canonical decimal integers\n"
        )

    def test_a_negative_mask_key_is_outside_the_ground_set(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(
            {"kind": "two_block", "weights": [1], "u_table": {"0": 0, "-1": 1}, "actions": [[[0]]]}
        ))
        assert main(["audit", "--instance", str(inst)]) == 2
        assert capsys.readouterr().err == "error: u table mask -1 outside the ground set\n"

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "worst-case",
            "--graph",
            str(FIXTURES / "five_cycle.json"),
            "--budget",
            "30",
            "--seed",
            "5",
        ]
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second


def _outcome(capsys, argv) -> tuple:
    """Exit code, stdout and stderr of one call, counting argparse's exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCachedParser:
    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["worst-case", "--help"], 0),
        (["analyze", "--graph", "g.json", "--format", "xml"], 2),
    ])
    def test_help_and_errors_repeat_byte_for_byte(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(cli_mod, "_PARSER", None)
        first = _outcome(capsys, argv)
        assert first[0] == code and (first[1] if code == 0 else first[2])
        assert _outcome(capsys, ["curve", "--n", "4"])[0] == 0
        assert [_outcome(capsys, argv) for _ in range(2)] == [first, first]

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "_PARSER", None)
        built = []
        original = cli_mod.build_parser
        monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or original())
        for argv in (["analyze", "--graph", str(FIXTURES / "five_cycle.json")],
                     ["curve", "--n", "4"], ["design", "--n", "5", "--m", "3"]):
            assert _outcome(capsys, argv)[0] == 0
        assert built == [1]

    def test_a_replaced_handler_takes_effect_and_undoes(self, monkeypatch, capsys):
        argv = ["analyze", "--graph", str(FIXTURES / "five_cycle.json")]
        before = _outcome(capsys, argv)
        monkeypatch.setattr(cli_mod, "cmd_analyze", lambda args: 7)
        assert _outcome(capsys, argv) == (7, "", "")
        monkeypatch.undo()
        assert _outcome(capsys, argv) == before

    def test_import_builds_no_parser_and_leaves_verify_out(self):
        code = (
            "import sys, infogreedy.cli as cli; "
            "print('infogreedy.verify' in sys.modules, cli._PARSER is None)"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "False True\n"


class TestGoldenOutputs:
    @pytest.mark.parametrize("line", list(GOLDEN_SHA256))
    def test_stdout_bytes(self, capsys, line):
        argv = [str(FIXTURES / t) if t.endswith(".json") else t for t in line.split()]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SHA256[line]
