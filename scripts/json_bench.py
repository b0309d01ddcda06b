#!/usr/bin/env python3
"""`--json` encoding cost, and end-to-end latency of two source checkouts.

    python3 scripts/json_bench.py --parent DIR [--change DIR] [--pairs N]
            [--seconds S] [--seed K] [--workloads W ...] [--out FILE]

`--parent` and `--change` are roots of source checkouts (`--change` defaults
to this one); make the parent with `git archive <commit> | tar -x -C DIR`.
Two measurements are taken and written as one JSON document:

* `runs`: for each workload, N pairs of `bench/run.py --trace 0` runs, the
  two checkouts alternating which runs first, with each run's end-to-end
  metrics and output digest. `summary` gives each side's median and
  quartiles and the pairs the change won.
* `encode`: for the `--json` requests of lists-deep and oracle-verify at the
  seed, the report dicts `cli.report_to_json` returns in the change's
  checkout are encoded with `json.dumps(value, indent=2)` (the parent's
  encoder) and with `cli.json_text`, alternating, after checking that both
  give the same bytes. The fastest of 15 passes over all reports counts, in
  ms per request.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

from oracle_bench import METRICS, ROOT, bench_run, quartiles

PASSES = 15


def encode_costs(tree: Path, seed: int) -> dict:
    """Encode-only ms per request, stdlib and `json_text`, per workload."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from gadtmap import cli
    from workloads import WORKLOADS

    out: dict = {}
    for name in ("lists-deep", "oracle-verify"):
        reports: list = []
        original = cli.report_to_json

        def capture(report):
            value = original(report)
            reports.append(value)
            return value

        cli.report_to_json = capture
        try:
            for req in WORKLOADS[name](seed):
                if req.json:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(req.argv(str(tree)))
        finally:
            cli.report_to_json = original
        encoders = {"stdlib": lambda v: json.dumps(v, indent=2), "json_text": cli.json_text}
        assert all(encoders["stdlib"](v) == cli.json_text(v) for v in reports), name
        best = dict.fromkeys(encoders, float("inf"))
        for _ in range(PASSES):
            for enc_name, enc in encoders.items():
                start = time.perf_counter()
                for v in reports:
                    enc(v)
                best[enc_name] = min(best[enc_name], time.perf_counter() - start)
        out[name] = {"reports": len(reports),
                     "bytes_per_report": sum(map(len, map(cli.json_text, reports))) / len(reports),
                     **{f"{k}_ms": 1000 * t / len(reports) for k, t in best.items()}}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", default=ROOT, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=["lists-deep"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc: dict = {"python": platform.python_version(), "machine": platform.machine(),
                 "seed": args.seed, "seconds": args.seconds, "runs": {}}
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench_run(trees[side], args.seed, args.seconds, 0, workload)
            pairs.append(pair)
            print(json.dumps({workload: pair}), file=sys.stderr, flush=True)
        summary: dict = {}
        for m in METRICS:
            summary[m] = {side: quartiles([p[side][m] for p in pairs]) for side in trees}
        for m in ("latency_ms_p50", "latency_ms_p90"):
            summary[m]["change_wins"] = sum(p["change"][m] < p["parent"][m] for p in pairs)
        summary["same_digest"] = all(p["change"]["digest"] == p["parent"]["digest"]
                                     for p in pairs)
        doc["runs"][workload] = {"pairs": pairs, "summary": summary}
    # Last: a child's peak RSS counts the memory of the process it forked
    # from, and the reports held here would inflate `peak_rss_mb`.
    doc["encode"] = encode_costs(trees["change"], args.seed)

    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
