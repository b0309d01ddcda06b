#!/usr/bin/env python3
"""The gadtmap benchmark: latency of `gadtmap analyze` as a user runs it.

    python3 bench/run.py --workload lists-deep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; nothing is installed.  Each request
is one in-process `gadtmap.cli.main(["analyze", ...])` call with stdout
captured, sent in a closed loop by one client in this process.  A first,
untimed pass checks every output against what the input's shape demands
(see check.py); every timed pass must then reproduce the first pass's output
byte for byte.

With --trace 0 the last line reports the end-to-end metrics: latency
percentiles, success ratio, peak memory of this process, set-up time of a
fresh interpreter and the `max_list_len` probe.  With --trace 1 untraced
and traced passes alternate and the last line reports the per-layer
breakdown (see tracing.py and README.md).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import call, check  # noqa: E402
from tracing import LAYERS, Tracer, expected_entries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILED_MS = 1e9  # the latency a failed request counts as: above any limit
SETUP_RUNS = 15
# The reference kernel's time on a quiet core: the 10th percentile of 400 runs
# on a 2-vCPU Intel Xeon VM under Python 3.11 (see Loop).
REFERENCE_MS = 1.9
CHILD_TIMEOUT_S = 150


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child(*args: str) -> str:
    """Run bench/child.py in a fresh isolated interpreter; its stdout."""
    proc = subprocess.run([sys.executable, "-I", str(HERE / "child.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench/child.py {args[0]} failed:\n{proc.stderr}")
    return proc.stdout.strip()


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the analysis does: recursion,
    tuple building and hashing, dict updates, string formatting."""

    def build(n):
        return (n,) if n == 0 else (n, build(n - 1), build(n - 2) if n > 1 else ())

    table: dict = {}
    for i in range(500):
        t = build(i % 9)
        table[t] = table.get(t, 0) + 1
        table[str(i)] = f"{i}:{len(t)}"
    return len(table)


def kernel_ms() -> float:
    start = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - start) * 1000


def first_pass(main, requests) -> tuple[list[str], list[str | None]]:
    """Untimed: run every request once, check its output, keep its hash."""
    hashes, problems = [], []
    for req in requests:
        rc, out, _ = call(main, req.argv(str(ROOT)))
        hashes.append(digest(out))
        problems.append(check(req, rc, out))
    return hashes, problems


class Loop:
    """Closed-loop passes over the requests.

    On a host whose cores other tenants share, everything can run up to 2x
    slower for stretches of seconds to minutes, in CPU time as in wall time
    (seen on a 2-vCPU VM).  So the reference kernel runs between consecutive
    requests, and each request's time is scaled by REFERENCE_MS over the
    mean of the kernel times just before and just after it: times read as on
    a quiet core.
    """

    def __init__(self, main, requests, hashes, problems):
        self.main, self.requests = main, requests
        self.hashes, self.problems = hashes, problems
        self.failed = 0
        self.attempted = 0
        self.first_failure: str | None = None
        self.factors: list[float] = []
        self._kernel = kernel_ms()

    def one(self, i: int) -> tuple[bool, float, float, str]:
        """Run request i: (passed, scaled ms, scale factor, stdout)."""
        req = self.requests[i]
        rc, out, seconds = call(self.main, req.argv(str(ROOT)))
        before, self._kernel = self._kernel, kernel_ms()
        factor = 2 * REFERENCE_MS / (before + self._kernel)
        self.factors.append(factor)
        ok = rc == 0 and self.problems[i] is None and digest(out) == self.hashes[i]
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                why = self.problems[i] or (f"exit {rc}" if rc != 0 else "output changed")
                self.first_failure = f"request {i} ({req.spec}): {why}"
        return ok, seconds * 1000 * factor, factor, out


def end_to_end(main, requests, seconds: float) -> tuple[dict, Loop]:
    max_len = int(child("probe"))
    programs = sorted({r.program for r in requests})
    child("setup", *programs)  # warm-up: leaves compiled bytecode behind, as an install does

    hashes, problems = first_pass(main, requests)
    loop = Loop(main, requests, hashes, problems)
    latencies: list[float] = []
    setups: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not latencies or time.perf_counter() < deadline or len(setups) < SETUP_RUNS:
        for i in range(len(requests)):
            ok, ms, _, _ = loop.one(i)
            latencies.append(ms if ok else math.inf)
        # Set-up samples are spread over the run, scaled by the kernel run
        # right after them; the time they take is not counted against it.
        now = time.perf_counter()
        while len(setups) < SETUP_RUNS and now - start >= len(setups) * seconds / SETUP_RUNS:
            setups.append(float(child("setup", *programs)) * REFERENCE_MS / kernel_ms())
        deadline += time.perf_counter() - now
    f = loop.factors
    print(f"# {len(latencies) // len(requests)} passes of {len(requests)} requests; "
          "machine factor "
          f"min {min(f):.3f} median {statistics.median(f):.3f} max {max(f):.3f}")

    def ms(q):
        v = percentile(latencies, q)
        return v if math.isfinite(v) else FAILED_MS

    metrics = {
        "latency_ms_p50": (ms(0.5), "ms"),
        "latency_ms_p90": (ms(0.9), "ms"),
        "success_ratio": (1 - loop.failed / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "max_list_len": (max_len, "count"),
    }
    print(f"# set-up runs {', '.join(f'{s:.4f}' for s in setups)}")
    return metrics, loop


def fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def per_layer(main, requests, seconds: float) -> tuple[dict, Loop]:
    hashes, problems = first_pass(main, requests)
    loop = Loop(main, requests, hashes, problems)
    tracer = Tracer()
    untraced: dict[int, list[float]] = defaultdict(list)
    traced: dict[int, list[float]] = defaultdict(list)
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        for i in range(len(requests)):
            _, ms, _, _ = loop.one(i)
            untraced[i].append(ms)
        tracer.install()
        try:
            for i in range(len(requests)):
                tracer.request(i)
                _, ms, factor, out = loop.one(i)
                traced[i].append(ms)
                samples.append((i, ms, len(out.encode()), tracer.breakdown(factor)))
        finally:
            tracer.uninstall()

    missing = expected_entries(any(r.json for r in requests),
                               any(not r.json for r in requests),
                               any(r.checked is not None for r in requests)) - set(tracer.entered)
    if missing:
        raise SystemExit("traced stages never entered (did a call site move?): "
                         + ", ".join(f"{m}.{a}" for m, a in sorted(missing)))

    def med(f) -> float:
        return statistics.median(f(*s) for s in samples)

    def stage(*names):
        return lambda i, wall, size, b: sum(b["stage_self"][n] for n in names)

    def count(name):
        return lambda i, wall, size, b: b["counts"].get(name, 0)

    def ratio(n, d):
        return n / d if d > 0 else 0.0

    def exponent(*names) -> float:
        by_req = defaultdict(list)
        for s in samples:
            by_req[s[0]].append(stage(*names)(*s))
        return fit_exponent([(requests[i].nodes, statistics.median(v))
                             for i, v in by_req.items()])

    render = ("report_to_json", "render_report")
    m = {
        "parser.ms": (med(lambda i, w, n, b: b["layer_self"]["parser"]), "ms"),
        "parser.nodes_per_s": (med(lambda i, w, n, b: ratio(
            requests[i].nodes * 1000, b["stage_self"]["parse_term"])), "1/s"),
        "wellformed.ms": (med(stage("validate")), "ms"),
        "typecheck.infer_ms": (med(stage("infer")), "ms"),
        "typecheck.check_ms": (med(stage("check_call_invariants")), "ms"),
        "typecheck.infer_calls": (med(count("infer_calls")), "count"),
        "typecheck.infer_exp": (exponent("infer"), "exponent"),
        "constraints.run_ms": (med(stage("run")), "ms"),
        "constraints.calls": (med(count("calls")), "count"),
        "constraints.emitted": (med(count("emitted")), "count"),
        "constraints.run_exp": (exponent("run"), "exponent"),
        "solver.solve_ms": (med(stage("solve")), "ms"),
        "solver.atomics": (med(count("atomics")), "count"),
        "solver.free_vars": (med(count("free_vars")), "count"),
        "solver.solve_exp": (exponent("solve"), "exponent"),
        "oracle.agrees_ms": (med(lambda i, w, n, b: b["stage_total"]["agrees"]), "ms"),
        "oracle.candidates": (med(count("candidates")), "count"),
        "oracle.candidates_per_s": (med(lambda i, w, n, b: ratio(
            b["counts"].get("candidates", 0) * 1000, b["stage_total"]["agrees"])), "1/s"),
        "oracle.map_apply_calls": (med(count("map_apply_calls")), "count"),
        "oracle.mappable_ratio": (med(lambda i, w, n, b: ratio(
            b["counts"].get("mappable", 0), b["counts"].get("mappable_calls", 0))), "ratio"),
        "cli.render_ms": (med(stage(*render)), "ms"),
        "cli.output_bytes": (med(lambda i, w, n, b: n), "B"),
        "cli.render_exp": (exponent(*render), "exponent"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (med(lambda i, w, n, b: b["layer_self"][layer] / w), "ratio")
    m["trace.overhead_ms"] = (statistics.median(
        statistics.median(traced[i]) - statistics.median(untraced[i]) for i in traced), "ms")
    print(f"# {len(samples)} traced and {sum(map(len, untraced.values()))} untraced requests")
    return m, loop


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "gadtmap" / "cli.py", ROOT / "programs"]
    if not all(p.exists() for p in needed):
        print(f"error: {ROOT} is not a gadtmap source checkout (no src/gadtmap or programs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from gadtmap.cli import main as gadtmap_main

    requests = WORKLOADS[args.workload](args.seed)
    run = per_layer if args.trace else end_to_end
    metrics, loop = run(gadtmap_main, requests, args.seconds)

    run_digest = hashlib.sha256("".join(loop.hashes).encode()).hexdigest()
    print(f"# workload {args.workload} seed {args.seed}: output digest {run_digest}")
    if loop.first_failure:
        print(f"# first failure: {loop.first_failure}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
