"""Per-module tracing from outside the program.

The tracer replaces the public stage functions with timing wrappers at the
names the CLI and the oracle look them up under, so the traced run drives
the very same `cli.main` calls as the untraced one.  Each wrapper records a
span (name, layer, parent, start, end) for the current request and folds
counts out of the stage's return value.  A layer's self time is its spans'
time minus the time of the spans they caused.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("parser", "wellformed", "typecheck", "constraints", "solver", "oracle", "cli")

# (module, attribute, layer): where each stage is resolved at call time.
# `cli.analyze` calls `cgen.run`, so `run` is wrapped in `gadtmap.constraints`.
SPANS = (
    ("gadtmap.cli", "parse_program", "parser"),
    ("gadtmap.cli", "parse_term", "parser"),
    ("gadtmap.cli", "parse_spec", "parser"),
    ("gadtmap.cli", "validate", "wellformed"),
    ("gadtmap.cli", "infer", "typecheck"),
    ("gadtmap.oracle", "infer", "typecheck"),
    ("gadtmap.cli", "check_call_invariants", "typecheck"),
    ("gadtmap.constraints", "run", "constraints"),
    ("gadtmap.cli", "solve", "solver"),
    ("gadtmap.cli", "agrees", "oracle"),
    ("gadtmap.oracle", "map_apply", "oracle"),
    ("gadtmap.cli", "report_to_json", "cli"),
    ("gadtmap.cli", "render_report", "cli"),
)
# Counted but not timed: called once per constraint or per candidate.
COUNTERS = (
    ("gadtmap.solver", "decompose"),
    ("gadtmap.oracle", "mappable"),
)


def expected_entries(json_out: bool, text_out: bool, verify: bool) -> set[tuple[str, str]]:
    """The wrapped functions a set of requests must enter."""
    want = {(m, a) for m, a, _ in SPANS} | set(COUNTERS)
    if not json_out:
        want.discard(("gadtmap.cli", "report_to_json"))
    if not text_out:
        want.discard(("gadtmap.cli", "render_report"))
    if not verify:
        want -= {("gadtmap.cli", "agrees"), ("gadtmap.oracle", "map_apply"),
                 ("gadtmap.oracle", "infer"), ("gadtmap.oracle", "mappable")}
    return want


class Tracer:
    def __init__(self) -> None:
        self.entered: dict[tuple[str, str], int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self.request(None)

    def request(self, rid) -> None:
        """Start recording the spans and counts of request `rid`."""
        self.rid = rid
        self.spans: list[list] = []  # [request, name, layer, parent, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        for mod_name, attr, layer in SPANS:
            self._patch(mod_name, attr, self._span_wrapper(mod_name, attr, layer))
        for mod_name, attr in COUNTERS:
            self._patch(mod_name, attr, self._count_wrapper(mod_name, attr))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _patch(self, mod_name: str, attr: str, make) -> None:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)  # AttributeError: the call site moved
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _span_wrapper(self, mod_name: str, attr: str, layer: str):
        key = (mod_name, attr)
        observe = getattr(self, f"_after_{attr}", None)

        def make(fn):
            def wrapper(*args, **kwargs):
                self.entered[key] += 1
                idx = len(self.spans)
                span = [self.rid, attr, layer, self.stack[-1] if self.stack else None,
                        time.perf_counter(), None]
                self.spans.append(span)
                self.stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[5] = time.perf_counter()
                    self.stack.pop()
                if observe is not None:
                    observe(result)
                return result

            return wrapper

        return make

    def _count_wrapper(self, mod_name: str, attr: str):
        key = (mod_name, attr)

        def make(fn):
            def wrapper(*args, **kwargs):
                self.entered[key] += 1
                result = fn(*args, **kwargs)
                if attr == "decompose":
                    self.counts["atomics"] += len(result)
                else:
                    self.counts["mappable_calls"] += 1
                    self.counts["mappable"] += bool(result)
                return result

            return wrapper

        return make

    # counts read off the stages' return values
    def _after_infer(self, _typed) -> None:
        self.counts["infer_calls"] += 1

    def _after_run(self, result) -> None:
        self.counts["calls"] += len(result.traces)
        self.counts["emitted"] += len(result.constraints)

    def _after_solve(self, result) -> None:
        self.counts["free_vars"] += len(result[0].free_vars)

    def _after_agrees(self, report) -> None:
        self.counts["candidates"] += report.checked

    def _after_map_apply(self, _term) -> None:
        self.counts["map_apply_calls"] += 1

    def breakdown(self, scale: float = 1.0) -> dict:
        """Self and inclusive time per stage and layer in milliseconds, times
        `scale`, plus counts, of the request being recorded."""
        child = [0.0] * len(self.spans)
        ms = 1000 * scale
        for _rid, _name, _layer, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += (t1 - t0) * ms
        layer_self: dict[str, float] = defaultdict(float)
        stage_self: dict[str, float] = defaultdict(float)
        stage_total: dict[str, float] = defaultdict(float)
        for i, (_rid, name, layer, parent, t0, t1) in enumerate(self.spans):
            self_time = (t1 - t0) * ms - child[i]
            layer_self[layer] += self_time
            stage_self[name] += self_time
            if parent is None or self.spans[parent][1] != name:
                stage_total[name] += (t1 - t0) * ms
        return {"layer_self": layer_self, "stage_self": stage_self,
                "stage_total": stage_total, "counts": dict(self.counts)}
