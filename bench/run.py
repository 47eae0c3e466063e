"""infogreedy benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  Set-up imports the package and writes the seed's inputs to a
scratch directory, several times over, and reports the median.  With
``--trace 0`` the client sends whole rounds of requests, one at a time, until
``--seconds`` have passed and prints the end-to-end metrics.  With
``--trace 1`` it sends a fixed number of rounds traced, then as many further
rounds untraced, and prints the per-layer metrics.  Every output is checked
as soon as its request returns, outside the timed span, and then dropped; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
FAILURES_KEPT = 5

sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import workloads  # noqa: E402
from tracer import Tracer, check_name  # noqa: E402


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_package():
    """Import infogreedy from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "infogreedy" or m.startswith("infogreedy.")]:
        del sys.modules[name]
    import infogreedy.cli

    where = Path(infogreedy.__file__).resolve().parent
    if where != SRC / "infogreedy":
        raise RuntimeError(f"imported infogreedy from {where}, expected {SRC / 'infogreedy'}")
    return infogreedy.cli


def setup(workload: str, seed: int, work_dir: Path):
    """Median set-up time over SETUP_REPEATS; returns (seconds, cli module, round stream)."""
    directory = work_dir / "inputs"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir()
        start = time.perf_counter()
        cli = _import_package()
        rounds = workloads.RoundStream(workload, seed, str(directory))
        times.append(time.perf_counter() - start)
    return statistics.median(times), cli, rounds


def _send(cli, req: workloads.Request):
    """One request: (exit code or error text, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(req.argv))
    except Exception:  # noqa: BLE001 - a crashed request is a failed request
        rc = traceback.format_exc(limit=3)
    return rc, buf.getvalue(), time.perf_counter() - start


@dataclass
class Tally:
    """What a closed loop keeps of its requests: nothing that grows with their output."""

    latencies: array.array = field(default_factory=lambda: array.array("d"))
    failed: int = 0
    failures: list = field(default_factory=list)  # the first FAILURES_KEPT, with reasons
    digest: object = field(default_factory=hashlib.sha256)  # of every output, in order
    wall: float = 0.0  # loop time less the time spent checking and building rounds

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(cli, rounds, seconds: float | None = None, on_request=None) -> Tally:
    """Send rounds, one request at a time, until they run out or ``seconds`` have passed.

    Each output is checked and hashed as soon as its request returns and then
    dropped.  That time, and the time the round stream takes to build a late
    round, is kept out of both the request latency and the loop's wall time.
    """
    tally = Tally()
    rounds = iter(rounds)
    outside = 0.0
    start = time.perf_counter()
    while True:
        mark = time.perf_counter()
        rnd = next(rounds, None)
        outside += time.perf_counter() - mark
        if rnd is None:
            break
        for req in rnd:
            if on_request is not None:
                on_request(tally.attempted, req)
            rc, out, dt = _send(cli, req)
            mark = time.perf_counter()
            tally.latencies.append(dt)
            tally.digest.update(out.encode())
            why = f"exit {rc}" if rc != 0 else workloads.check(req, out)
            if why is not None:
                tally.failed += 1
                if len(tally.failures) < FAILURES_KEPT:
                    tally.failures.append({"request": tally.attempted - 1, "argv": req.argv,
                                           "why": why})
            outside += time.perf_counter() - mark
        tally.wall = time.perf_counter() - start - outside
        if seconds is not None and tally.wall >= seconds:
            break
    return tally


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it (the max if too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cli, rounds, seconds, setup_s):
    tally = closed_loop(cli, rounds, seconds=seconds)
    peak_rss_mb = _peak_rss_mb()  # before the statistics below allocate anything
    tail_s, tail_pct, beyond = tail(tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": tally.attempted / tally.wall,
        "req_p50_ms": statistics.median(tally.latencies) * 1e3,
        "req_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    detail = {
        "requests": tally.attempted,
        "wall_s": tally.wall,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
    }
    return tally, metrics, detail


def _shares(layers) -> dict:
    total = sum(layers.values()) or 1
    return {layer: round(ns / total, 4) for layer, ns in sorted(layers.items())}


def traced(cli, rounds, workload, seed, out_dir: Path):
    """Send TRACE_ROUNDS traced, then the next TRACE_ROUNDS untraced; returns per-layer metrics.

    The traced rounds come first, so the per-layer figures are those of a
    fresh process serving each input once; the untraced rounds that give
    ``trace.overhead_ratio`` have the same composition but other inputs.
    """
    n_rounds = workloads.TRACE_ROUNDS[workload]
    tracer = Tracer()
    commands = []

    def mark(index, req):
        tracer.request = index
        commands.append(req.argv[0])

    with tracer:
        traced_tally = closed_loop(cli, itertools.islice(rounds, n_rounds), on_request=mark)
    plain = closed_loop(cli, itertools.islice(rounds, n_rounds))
    checks = [check_name(fn) for fn in tracer.modules["verify"].CHECKS]
    metrics = tracer.metrics(traced_tally.attempted, checks)
    metrics["trace.overhead_ratio"] = traced_tally.wall / plain.wall
    metrics["trace.requests"] = traced_tally.attempted
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    per_request = tracer.by_request()
    total: Counter = Counter()
    for _, layers in per_request.values():
        total.update(layers)
    median_req = sorted(per_request, key=lambda r: per_request[r][0])[len(per_request) // 2]
    detail = {
        "requests": traced_tally.attempted,
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced_tally.wall,
        "layer_share": _shares(total),
        "median_request": {"command": commands[median_req],
                           "ms": per_request[median_req][0] / 1e6,
                           "layer_share": _shares(per_request[median_req][1])},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_output_sha256": plain.digest.hexdigest(),
        "untraced_failures": plain.failures,
    }
    return traced_tally, plain, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "infogreedy" / "__init__.py").is_file():
        print(f"error: no infogreedy sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    load_start = os.getloadavg()[0]
    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        setup_s, cli, rounds = setup(args.workload, args.seed, work_dir)
        # keep the benchmark's own input pool out of the program's collections
        gc.collect()
        gc.freeze()
        if args.trace:
            tally, plain, metrics, detail = traced(
                cli, rounds, args.workload, args.seed, ROOT / ".bench_out")
            attempted = tally.attempted + plain.attempted
            failed = tally.failed + plain.failed
            wanted = spec["per_layer"]
        else:
            tally, metrics, detail = end_to_end(cli, rounds, args.seconds, setup_s)
            attempted, failed = tally.attempted, tally.failed
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail["workload"] = args.workload
    detail["output_sha256"] = tally.digest.hexdigest()
    detail["failures"] = tally.failures
    detail["failed_ratio"] = failed / attempted
    detail["rounds_built_late"] = rounds.built_late
    detail["environment"] = environment(args.seed, load_start)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric of a layer or verify check the run never entered reads 0
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
