"""Deterministic cost gates: on inputs whose depth doubles, each stage's
count of Python function calls, which does not depend on the machine or on
string hashing, may grow at most 2.2 times per doubling. The constraint walk
also has a budget of calls per walk call, and compiles as many plans at every
depth. The JSON report has a budget of Python and C calls per walk call. The
oracle has a budget of calls per candidate tuple it checks."""
from __future__ import annotations

import functools
import sys

import pytest

import gadtmap as g
from gadtmap import constraints as cgen

from conftest import G_SRC, NESTED_SRC, SEQ_SRC

# name: (program, spec, term n levels deep)
LADDERS = {
    "list": (NESTED_SRC, "List b1", lambda n: "cons 0 (" * (n - 1) + "cons 0 nil" + ")" * (n - 1)),
    # a `pair` chain and a list of lists, whose types are as deep as the term
    "seq": (SEQ_SRC, "Seq b1", lambda n: "pair (" * (n - 1) + "pair (const 0) (const 0)"
            + ") (const 0)" * (n - 1)),
    "nested": (NESTED_SRC, "List b1", lambda n: "cons (" * (n - 1) + "cons nil nil"
               + ") nil" * (n - 1)),
}
STAGES = (
    "parse_term", "infer", "check_call_invariants", "constraints.run", "solve", "report_to_json"
)
RUNGS = (100, 200, 400)
# `infer`'s occurs check walks the whole type on every bind, so on a type as
# deep as the term its calls grow about 3 times per doubling.
QUADRATIC = {("seq", "infer"), ("nested", "infer")}
# The most calls `constraints.run` may make per call of the walk: each call
# only instantiates the plan its key compiled once.
WALK_CALL_BUDGET = {"list": 45, "seq": 65}
# The most Python and C calls `report_to_json` may make per call of the walk
# on the `cons` list: 179 now, and 322 when the report was built as dicts and
# then walked value by value by a generic writer.
REPORT_CALL_BUDGET = 200
_COMPILE = cgen._Run._compile.__code__
# name: (program, spec, term), as the oracle-verify benchmark checks them at
# depth 3: a `Seq` pair tree over pairs and lists, and a `G` term.
ORACLE_INPUTS = {
    "seq": (NESTED_SRC + SEQ_SRC, "Seq b1",
            "pair (pair (const (17, tt)) (const (cons 32 (cons 15 nil)))) (const (63, false))"),
    "g": (G_SRC, "G b1", "pairing (pairing (inj 12) (flat (cons (inj 22) nil)))"
          " (pairing (flat (cons const (cons (inj 90) nil))) const)"),
}
# The most calls `agrees` may make per candidate tuple, all its work
# included: 28.9 (seq) and 37.3 (g) now; 76.7 and 85.0 when each tuple
# rebuilt its pushed functions to look their verdicts up.
ORACLE_TUPLE_BUDGET = 45


@functools.cache
def _counts(ladder: str) -> dict[str, list[int]]:
    """Each stage's call count at every rung of `ladder`."""
    src, spec_text, make = LADDERS[ladder]
    vp = g.validate(g.parse_program(src))
    spec = g.parse_spec(spec_text, vp)
    counts: dict[str, list[int]] = {s: [] for s in (*STAGES, "walk calls", "plans", "C calls")}

    def stage(name, f, *args):
        calls = plans = c_calls = 0

        def profile(frame, event, arg):
            nonlocal calls, plans, c_calls
            if event == "call":
                calls += 1
                plans += frame.f_code is _COMPILE
            elif event == "c_call":
                c_calls += 1

        sys.setprofile(profile)
        try:
            result = f(*args)
        finally:
            sys.setprofile(None)
        counts[name].append(calls)
        if name == "constraints.run":
            counts["walk calls"].append(len(result.traces))
            counts["plans"].append(plans)
        elif name == "report_to_json":
            counts["C calls"].append(c_calls)
        return result

    for n in RUNGS:
        term = stage("parse_term", g.parse_term, make(n), vp)
        typed = stage("infer", g.infer, term, vp)
        arity = g.spec_head_arity(spec, vp)
        stage("check_call_invariants", g.check_call_invariants, typed, spec, arity)
        run = stage("constraints.run", cgen.run, typed, spec)
        solved, form = stage("solve", g.solve, run.constraints, run.root_funs)
        report = g.AnalysisReport("Mappable", form=form, solved=solved, run=run, spec=spec)
        stage("report_to_json", g.report_to_json, report)
    return counts


@pytest.mark.parametrize(
    "ladder,stage",
    [
        pytest.param(
            ladder,
            stage,
            marks=[pytest.mark.xfail(strict=True, reason="the occurs check walks the whole type")]
            if (ladder, stage) in QUADRATIC
            else [],
        )
        for ladder in LADDERS
        for stage in STAGES
    ],
)
def test_calls_grow_at_most_linearly(ladder, stage):
    counts = _counts(ladder)[stage]
    assert all(big <= 2.2 * small for small, big in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("ladder,budget", WALK_CALL_BUDGET.items())
def test_walk_calls_are_cheap(ladder, budget):
    counts = _counts(ladder)
    for calls, walk_calls in zip(counts["constraints.run"], counts["walk calls"]):
        assert calls <= budget * walk_calls, (calls, walk_calls)


@pytest.mark.parametrize("ladder", WALK_CALL_BUDGET)
def test_plans_do_not_grow_with_depth(ladder):
    plans = _counts(ladder)["plans"]
    assert len(set(plans)) == 1 and plans[0] > 0, plans


def test_report_calls_are_cheap():
    counts = _counts("list")
    for calls, c_calls, walk_calls in zip(
        counts["report_to_json"], counts["C calls"], counts["walk calls"]
    ):
        assert calls + c_calls <= REPORT_CALL_BUDGET * walk_calls, (calls, c_calls, walk_calls)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_oracle_tuples_are_cheap(name):
    src, spec_text, term_text = ORACLE_INPUTS[name]
    vp = g.validate(g.parse_program(src))
    report = g.analyze(vp, g.parse_term(term_text, vp), g.parse_spec(spec_text, vp))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        verified = g.agrees(report.form, report.typed, report.spec, 3)
    finally:
        sys.setprofile(None)
    assert verified.agrees and verified.checked > 100, verified
    assert calls <= ORACLE_TUPLE_BUDGET * verified.checked, (calls, verified.checked)
