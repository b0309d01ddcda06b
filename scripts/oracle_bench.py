#!/usr/bin/env python3
"""Oracle cost of two source checkouts, side by side.

    python3 scripts/oracle_bench.py --parent DIR [--change DIR] [--pairs N]
            [--seconds S] [--seed K] [--out FILE]

`--parent` and `--change` are roots of source checkouts (`--change` defaults
to this one); make the parent with `git archive <commit> | tar -x -C DIR`.
Two measurements are taken and written as one JSON document:

* `corpus`: for each checkout and verification depth 2 and 3, the candidate
  tuples per second of `oracle.agrees` over the CORPUS entries of
  `tests/conftest.py` (analysis done beforehand, untimed). A pass runs
  `agrees` on every entry 20 times; each of three fresh interpreters per
  checkout, the checkouts alternating, times seven passes, and the fastest
  pass counts.
* `oracle_verify`: N pairs of `bench/run.py --workload oracle-verify --trace
  0` runs, the two checkouts alternating which runs first, with each run's
  end-to-end metrics and output digest; then one `--trace 1` run per
  checkout for `oracle.candidates_per_s`. `summary` gives each side's
  median and quartiles and the pairs the change won.
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
DEPTHS = (2, 3)
REPEAT = 3
METRICS = ("latency_ms_p50", "latency_ms_p90", "peak_rss_mb", "setup_s", "success_ratio",
           "max_list_len")

CHILD = r"""
import json, sys, time
src, tests, depth = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [src, tests]
import gadtmap as g
from conftest import CORPUS, PROGRAM_SOURCES
vps = {k: g.validate(g.parse_program(s)) for k, s in PROGRAM_SOURCES.items()}
reports = []
for key, term, spec, int_lits in CORPUS:
    vp = vps[key]
    reports.append(g.analyze(vp, g.parse_term(term, vp), g.parse_spec(spec, vp), int_lits))
best = None
for _ in range(7):
    t0 = time.perf_counter()
    tuples = sum(g.agrees(r.form, r.typed, r.spec, depth).checked
                 for _ in range(20) for r in reports)
    dt = time.perf_counter() - t0
    best = dt if best is None else min(best, dt)
print(json.dumps({"tuples": tuples, "seconds": best}))
"""


def corpus_rates(trees: dict[str, Path]) -> dict:
    """Candidate tuples per second over the CORPUS, per checkout and depth."""
    runs: dict = {side: {d: [] for d in DEPTHS} for side in trees}
    for _ in range(REPEAT):
        for d in DEPTHS:
            for side, tree in trees.items():
                out = subprocess.run(
                    [sys.executable, "-c", CHILD, str(tree / "src"), str(ROOT / "tests"), str(d)],
                    capture_output=True, text=True, check=True,
                ).stdout
                runs[side][d].append(json.loads(out))
    rates: dict = {}
    for side in trees:
        rates[side] = {}
        for d in DEPTHS:
            best = min(runs[side][d], key=lambda r: r["seconds"])
            rates[side][str(d)] = {**best, "candidates_per_s": best["tuples"] / best["seconds"]}
    return rates


def bench_run(tree: Path, seed: int, seconds: float, trace: int,
              workload: str = "oracle-verify") -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [ln.rsplit(" ", 1)[1] for ln in lines if "output digest" in ln]
    if trace:
        return {"candidates_per_s": result["metrics"]["oracle.candidates_per_s"]["value"],
                "agrees_ms": result["metrics"]["oracle.agrees_ms"]["value"]}
    return {**{m: result["metrics"][m]["value"] for m in METRICS},
            "failed": result["failed"], "digest": digests[-1] if digests else None}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", default=ROOT, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc: dict = {"python": platform.python_version(), "machine": platform.machine(),
                 "corpus": corpus_rates(trees),
                 "oracle_verify": {"seed": args.seed, "seconds": args.seconds, "pairs": []}}
    print(json.dumps(doc["corpus"]), file=sys.stderr, flush=True)

    pairs = doc["oracle_verify"]["pairs"]
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = bench_run(trees[side], args.seed, args.seconds, 0)
        pairs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)
    doc["oracle_verify"]["traced"] = {
        side: bench_run(tree, args.seed, args.seconds, 1) for side, tree in trees.items()
    }

    summary: dict = {}
    for m in METRICS:
        summary[m] = {side: quartiles([p[side][m] for p in pairs]) for side in trees}
    for m in ("latency_ms_p50", "latency_ms_p90"):
        summary[m]["change_wins"] = sum(p["change"][m] < p["parent"][m] for p in pairs)
    summary["same_digest"] = all(p["change"]["digest"] == p["parent"]["digest"] for p in pairs)
    doc["oracle_verify"]["summary"] = summary

    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
