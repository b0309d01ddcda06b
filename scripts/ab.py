#!/usr/bin/env python3
"""The benchmark of BENCHMARK.json on two source checkouts, side by side.

    python3 scripts/ab.py --parent DIR [--change DIR] [--workloads W ...]
            [--pairs N] [--seconds S] [--seed K] [--out FILE]

`--change` defaults to this checkout, `--workloads` to all of BENCHMARK.json's;
make the parent with `git archive <commit> | tar -x -C DIR`. Output:

* `runs.<workload>`: N pairs of `bench/run.py --trace 0` runs, the checkouts
  alternating which runs first, with each run's end-to-end metrics, failures
  and output digest. `summary` gives, per end-to-end metric of BENCHMARK.json,
  each side's median and quartiles, the pairs the change won in the metric's
  better direction, and whether the change's median is within the metric's
  bound of the parent's. `traced`: one `--trace 1` run per checkout.
* `corpus.2` (with oracle-verify): candidate tuples per second of
  `oracle.agrees` at depth 2, 20 times over the CORPUS entries of
  `tests/conftest.py`. Every CORPUS pool is already full at depth 2, so a
  deeper pass would check the same tuples again. Each pass's time is scaled
  by `bench/run.py`'s reference kernel, timed right before and after the
  pass as its `Loop` does. An interpreter reports the median of 7 scaled
  passes, not the fastest: a pass whose kernel timing caught a stall reads
  too fast. N pairs of interpreters, one per checkout, alternate which runs
  first; `pairs` and `summary` are as for the runs, without a bound.
* `agrees` (with oracle-verify): per checkout, one interpreter captures the
  seed's `oracle.agrees` calls through `cli.main` and reports ms per call
  (fastest of 15 passes over all of them), Python calls per checked tuple
  and a digest of the `AgreementReport`s; `same_reports` compares the
  digests.
* `encode` (per workload with `--json` requests): ms per request to write
  the change's reports with `cli.report_to_json`, from the `AnalysisReport`,
  and with `json.dumps(value, indent=2)`, from the value its text parses
  to, after checking both give the same bytes; fastest of 15.

gadtmap runs only in child interpreters: a run's `peak_rss_mb` counts the
memory of the process it is forked from.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}

CORPUS_CHILD = r"""
import json, statistics, sys, time
sys.path[:0] = sys.argv[1:4]
import gadtmap as g
from conftest import CORPUS, PROGRAM_SOURCES
from run import REFERENCE_MS, kernel_ms
vps = {k: g.validate(g.parse_program(s)) for k, s in PROGRAM_SOURCES.items()}
reports = [g.analyze(vps[k], g.parse_term(t, vps[k]), g.parse_spec(s, vps[k]), lits)
           for k, t, s, lits in CORPUS]
def scaled(depth):
    before = kernel_ms()
    t0 = time.perf_counter()
    n = sum(g.agrees(r.form, r.typed, r.spec, depth).checked for _ in range(20) for r in reports)
    seconds = time.perf_counter() - t0
    return seconds * 2 * REFERENCE_MS / (before + kernel_ms()), n
passes = [scaled(2) for _ in range(7)]
seconds, tuples = statistics.median(s for s, _ in passes), passes[0][1]
print(json.dumps({"tuples": tuples, "seconds": seconds, "candidates_per_s": tuples / seconds}))
"""

ENCODE_CHILD = r"""
import contextlib, io, json, sys, time
tree, seed, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sys.path[:0] = [tree + "/src", tree + "/bench"]
from gadtmap import cli
from workloads import WORKLOADS
reports, write = [], cli.report_to_json
def capture(report):
    reports.append(report)
    return write(report)
cli.report_to_json = capture
out = {}
for name in names:
    reports.clear()
    for req in WORKLOADS[name](seed):
        if req.json:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(req.argv(tree))
    if not reports:
        continue
    texts = list(map(write, reports))
    values = list(map(json.loads, texts))
    assert all(json.dumps(v, indent=2) == t for v, t in zip(values, texts)), name
    encoders = {"stdlib": (lambda v: json.dumps(v, indent=2), values),
                "report_to_json": (write, reports)}
    best = dict.fromkeys(encoders, float("inf"))
    for _ in range(15):
        for enc_name, (enc, inputs) in encoders.items():
            start = time.perf_counter()
            for v in inputs:
                enc(v)
            best[enc_name] = min(best[enc_name], time.perf_counter() - start)
    out[name] = {"reports": len(reports), "bytes_per_report": sum(map(len, texts)) / len(texts),
                 **{f"{k}_ms": 1000 * t / len(reports) for k, t in best.items()}}
print(json.dumps(out))
"""


AGREES_CHILD = r"""
import contextlib, hashlib, io, json, sys, time
tree, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [tree + "/src", tree + "/bench"]
from gadtmap import cli
from workloads import WORKLOADS
calls, agrees = [], cli.agrees
def capture(*args):
    calls.append(args)
    return agrees(*args)
cli.agrees = capture
for req in WORKLOADS["oracle-verify"](seed):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(req.argv(tree))
best = float("inf")
for _ in range(15):
    start = time.perf_counter()
    reports = [agrees(*args) for args in calls]
    best = min(best, time.perf_counter() - start)
n = 0
def profile(frame, event, arg):
    global n
    n += event == "call"
sys.setprofile(profile)
for args in calls:
    agrees(*args)
sys.setprofile(None)
tuples = sum(r.checked for r in reports)
print(json.dumps({"calls": len(calls), "tuples": tuples, "ms_per_call": 1000 * best / len(calls),
                  "calls_per_tuple": n / tuples,
                  "digest": hashlib.sha256(repr(reports).encode()).hexdigest()}))
"""


def child(code: str, *args: object) -> dict:
    return json.loads(subprocess.run([sys.executable, "-c", code, *map(str, args)],
                                     stdout=subprocess.PIPE, text=True, check=True).stdout)


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run: its end-to-end metrics, failures and output
    digest, or with `trace` every per-layer metric."""
    lines = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        return values
    return {**{m: values[m] for m in END_TO_END}, "failed": result["failed"],
            "digest": next(ln.rsplit(" ", 1)[1] for ln in lines if "output digest" in ln)}


def summarise(pairs: list[dict], metric: dict) -> dict:
    """Each side's median and quartiles, the change's wins in the better
    direction, and whether its median is within the metric's bound."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    out: dict = {}
    for side in ("parent", "change"):
        values = [p[side][name] for p in pairs]
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[side] = {"median": q2, "q1": q1, "q3": q3}
    out["change_wins"] = sum(sign * p["change"][name] < sign * p["parent"][name] for p in pairs)
    if "bound" in metric:
        parent, change = out["parent"]["median"], out["change"]["median"]
        out["within_bound"] = sign * (change - parent) <= metric["bound"] * abs(parent)
    return out


def paired(n: int, label: str, measure) -> list[dict]:
    """n pairs of `measure(side)`, the checkouts alternating which runs first;
    each pair is echoed to stderr under `label` as it completes."""
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = measure(side)
        pairs.append(pair)
        print(json.dumps({label: pair}), file=sys.stderr, flush=True)
    return pairs


def corpus_rates(trees: dict[str, Path], n: int) -> dict:
    """Candidate tuples per second over the CORPUS at depth 2, from n pairs
    of interpreters."""
    pairs = paired(n, "corpus", lambda side: child(
        CORPUS_CHILD, trees[side] / "src", ROOT / "tests", ROOT / "bench"))
    rate = {"name": "candidates_per_s", "better": "higher"}
    return {"2": {"pairs": pairs, "summary": summarise(pairs, rate)}}


def main() -> None:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", default=ROOT, type=Path)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc: dict = {"python": platform.python_version(), "machine": platform.machine(),
                 "seed": args.seed, "seconds": args.seconds, "runs": {}}
    for workload in args.workloads:
        pairs = paired(args.pairs, workload, lambda side: bench_run(
            trees[side], workload, args.seed, args.seconds, 0))
        doc["runs"][workload] = {
            "pairs": pairs,
            "summary": {name: summarise(pairs, m) for name, m in END_TO_END.items()},
            "same_digest": all(p["change"]["digest"] == p["parent"]["digest"] for p in pairs),
            "traced": {side: bench_run(tree, workload, args.seed, args.seconds, 1)
                       for side, tree in trees.items()},
        }
    if "oracle-verify" in args.workloads:
        doc["corpus"] = corpus_rates(trees, args.pairs)
        sides = {side: child(AGREES_CHILD, tree, args.seed) for side, tree in trees.items()}
        doc["agrees"] = {**sides,
                         "same_reports": sides["parent"]["digest"] == sides["change"]["digest"]}
    doc["encode"] = child(ENCODE_CHILD, trees["change"], args.seed, *args.workloads)

    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
