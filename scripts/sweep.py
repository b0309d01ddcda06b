#!/usr/bin/env python3
"""Per-stage cost of the library pipeline on deep terms.

    python3 scripts/sweep.py [--src DIR] [--big-stack] [--shape list|seq|nested] N...

For each N, a fresh interpreter parses a term of N levels, runs `infer`,
`check_call_invariants`, `constraints.run` and `solve` on it (no rendering),
and reports the seconds of each stage, the seconds of full (generation 2)
garbage collections inside each stage, the number of calls, the peak RSS of
the child, and the peak RSS per level above the interpreter's baseline. The
shape `list` (the default) is an N-element `cons` list under `List b1`
(`programs/nested.gadt`). The shape `seq` is a left-nested chain of N `pair`s
under `Seq b1` (`programs/seq.gadt`), whose type is as deep as the term.
The shape `nested` is a list of lists N levels deep under `List b1`
(`programs/nested.gadt`), whose type is as deep as the term too.
This is repeated in three fresh interpreters; one JSON line per N gives each
stage's least time, as `gc` the collection seconds of the run that gave it,
and the largest RSS. A full collection runs in whichever stage's allocations
trigger it, so `gc` shows how much of a stage's time, and of a jump in its
exponent, is the collector's. When a child fails, its last line
of error output is printed as `{"n", "error"}` and the script exits 1.

`--src` points at another source tree; `--big-stack` runs the stages in a
thread with a 1 GB stack and a raised recursion limit, for code that
recurses once per nesting level.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# shape: (program under programs/, specification)
SHAPES = {
    "list": ("nested.gadt", "List b1"),
    "seq": ("seq.gadt", "Seq b1"),
    "nested": ("nested.gadt", "List b1"),
}
STAGES = ("parse", "infer", "check", "run", "solve")
REPEAT = 3

CHILD = r"""
import gc, json, resource, sys, threading, time
src, n, big, program, shape, spec_text = sys.argv[1:]
n, big = int(n), big == "1"
sys.path.insert(0, src)
import gadtmap as g
from gadtmap import cli, constraints
vp = g.validate(g.parse_program(open(program, encoding="utf-8").read()))
if shape == "seq":
    text = "pair (" * (n - 1) + "pair (const 0) (const 0)" + ") (const 0)" * (n - 1)
elif shape == "nested":
    text = "cons (" * (n - 1) + "cons nil nil" + ") nil" * (n - 1)
else:
    text = "cons 0 (" * (n - 1) + "cons 0 nil" + ")" * (n - 1)
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = {"n": n, "gc": {}}
clock = {"stage": None, "start": 0.0}

def collected(phase, info):
    if info["generation"] == 2 and clock["stage"] is not None:
        now = time.perf_counter()
        if phase == "start":
            clock["start"] = now
        else:
            out["gc"][clock["stage"]] += now - clock["start"]

gc.callbacks.append(collected)

def timed(stage, fn, *args):
    clock["stage"] = stage
    out["gc"][stage] = 0.0
    t0 = time.perf_counter()
    value = fn(*args)
    out[stage] = time.perf_counter() - t0
    clock["stage"] = None
    return value

def stages():
    term, spec = timed("parse", lambda: (cli.parse_term(text, vp), cli.parse_spec(spec_text, vp)))
    typed = timed("infer", cli.infer, term, vp)
    timed("check", lambda: cli.check_call_invariants(typed, spec, cli.spec_head_arity(spec, vp)))
    run = timed("run", constraints.run, typed, spec)
    timed("solve", cli.solve, run.constraints, run.root_funs)
    out["calls"] = len(run.traces)

if big:
    sys.setrecursionlimit(10 ** 7)
    threading.stack_size(1 << 30)
    th = threading.Thread(target=stages)
    th.start()
    th.join()
else:
    stages()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out.update(peak_rss_mb=peak / 1024, rss_per_element_kb=(peak - base) / n)
print(json.dumps(out))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--big-stack", action="store_true")
    ap.add_argument("--shape", choices=SHAPES, default="list")
    ap.add_argument("n", type=int, nargs="+")
    args = ap.parse_args()
    program, spec = SHAPES[args.shape]
    for n in args.n:
        runs = []
        for _ in range(REPEAT):
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, args.src, str(n), "1" if args.big_stack else "0",
                 str(ROOT / "programs" / program), args.shape, spec],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
                print(json.dumps({"n": n, "error": lines[-1]}))
                sys.exit(1)
            runs.append(json.loads(proc.stdout))
        fastest = {k: min(runs, key=lambda r: r[k]) for k in STAGES}
        best = {k: r[k] for k, r in fastest.items()}
        gc = {k: r["gc"][k] for k, r in fastest.items()}
        worst = {k: max(r[k] for r in runs) for k in ("peak_rss_mb", "rss_per_element_kb")}
        print(json.dumps({"n": n, **best, "gc": gc, "calls": runs[0]["calls"], **worst}),
              flush=True)


if __name__ == "__main__":
    main()
