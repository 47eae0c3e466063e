"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import LAYERS, Tracer, check_name

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CLI = run._import_package()


def _requests(workload, tmp_path, seed=3):
    return next(workloads.RoundStream(workload, seed, str(tmp_path)))


def _smallest(reqs):
    def size(req):
        info = req.info
        graph = info.get("graph", {"n": info.get("n", 0)})
        return (graph["n"], len(graph.get("edges", ())), req.kind != "solve")

    return min(reqs, key=size)


def _inputs(workload, seed, directory, late=0):
    """The kind and input of every request in the pool and ``late`` rounds after it, and every file."""
    directory.mkdir()
    stream = workloads.RoundStream(workload, seed, str(directory))
    rounds = list(itertools.islice(stream, workloads.POOL_ROUNDS[workload] + late))
    assert stream.built_late == late
    files = sorted((p.name, p.read_text()) for p in directory.iterdir())
    return [[(r.kind, r.info) for r in rnd] for rnd in rounds], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    assert _inputs(workload, 5, tmp_path / "b") == first
    if workload != "verify":
        assert _inputs(workload, 6, tmp_path / "c") != first


@pytest.mark.parametrize("workload", ["analyze", "certify", "curve"])
def test_rounds_built_late_are_new_and_seeded(workload, tmp_path):
    rounds, files = _inputs(workload, 5, tmp_path / "a", late=2)
    pool = workloads.POOL_ROUNDS[workload]
    assert all(rnd not in rounds[:pool] for rnd in rounds[pool:])
    assert _inputs(workload, 5, tmp_path / "b", late=2) == (rounds, files)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_request_passes_its_check(workload, tmp_path):
    tally = run.closed_loop(CLI, [[_smallest(_requests(workload, tmp_path))]])
    assert (tally.attempted, tally.failed, tally.failures) == (1, 0, [])


def _rejects(req, edit):
    """Does the check pass the program's output, and reject it once ``edit`` has changed it?"""
    rc, out, _ = run._send(CLI, req)
    assert rc == 0 and workloads.check(req, out) is None
    doc = json.loads(out)
    edit(doc)
    return workloads.check(req, json.dumps(doc)) is not None


def test_checks_reject_wrong_output(tmp_path):
    solve = _smallest([r for r in _requests("certify", tmp_path) if r.kind == "solve"])
    assert _rejects(solve, lambda doc: doc.update(gamma="1/7"))

    def collapse_to_alpha(doc):
        # a* = k* = alpha with a matching bracket: consistent, but wrong
        alpha = doc["alpha"]
        doc.update(alpha_star=alpha, k_star=alpha)
        doc["bounds"].update(lower=f"1/{alpha + 1}", upper=f"1/{alpha}")

    (tmp_path / "analyze").mkdir()
    analyze = _requests("analyze", tmp_path / "analyze")
    for family in ("cycle", "antihole", "gnp"):
        req = min((r for r in analyze if r.info["family"] == family),
                  key=lambda r: r.info["graph"]["n"])
        if family == "gnp":
            assert _rejects(req, lambda doc: doc.update(k=doc["k"] + 1))
        else:
            assert _rejects(req, collapse_to_alpha)


def _traced_sample(tmp_path):
    reqs = _requests("certify", tmp_path)
    picked = [r for r in reqs if r.kind == "solve"][:1]
    picked += [r for r in reqs if r.kind == "worst-case" and r.info["graph"]["n"] == 5][:2]
    tracer = Tracer()
    with tracer:
        installed = tracer.originals()

        def mark(index, req):
            tracer.request = index

        tally = run.closed_loop(CLI, [picked], on_request=mark)
    return tracer, installed, tally


def test_uninstall_restores_every_original(tmp_path):
    tracer, installed, tally = _traced_sample(tmp_path)
    assert len(installed) > 50
    for owner, attribute, original in installed:
        assert owner.__dict__[attribute] is original, f"{owner.__name__}.{attribute}"
    assert (tally.attempted, tally.failed) == (3, 0)


def test_layer_self_times_sum_to_request_time(tmp_path):
    tracer, _, tally = _traced_sample(tmp_path)
    per_request = tracer.by_request()
    assert sorted(per_request) == list(range(tally.attempted))
    for root_ns, layers in per_request.values():
        assert sum(layers.values()) == root_ns
        assert set(layers) <= set(LAYERS)


def test_metric_names_match_benchmark_json(tmp_path):
    tracer, _, tally = _traced_sample(tmp_path)
    checks = [check_name(fn) for fn in tracer.modules["verify"].CHECKS]
    produced = set(tracer.metrics(tally.attempted, checks)) | {"trace.overhead_ratio",
                                                               "trace.requests"}
    assert {m["name"] for m in SPEC["per_layer"]} == produced
    _, metrics, _ = run.end_to_end(CLI, [[_smallest(_requests("curve", tmp_path))]], 0, 1.0)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
