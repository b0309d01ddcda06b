"""Deterministic cost gates: on inputs whose depth doubles, each stage's
count of Python function calls, which does not depend on the machine or on
string hashing, may grow at most 2.2 times per doubling. The constraint walk
also has a budget of calls per walk call, and compiles as many plans at every
depth."""
from __future__ import annotations

import functools
import sys

import pytest

import gadtmap as g
from gadtmap import constraints as cgen

from conftest import NESTED_SRC, SEQ_SRC

# name: (program, spec, term n levels deep)
LADDERS = {
    "list": (NESTED_SRC, "List b1", lambda n: "cons 0 (" * (n - 1) + "cons 0 nil" + ")" * (n - 1)),
    # a `pair` chain and a list of lists, whose types are as deep as the term
    "seq": (SEQ_SRC, "Seq b1", lambda n: "pair (" * (n - 1) + "pair (const 0) (const 0)"
            + ") (const 0)" * (n - 1)),
    "nested": (NESTED_SRC, "List b1", lambda n: "cons (" * (n - 1) + "cons nil nil"
               + ") nil" * (n - 1)),
}
STAGES = ("parse_term", "infer", "check_call_invariants", "constraints.run", "solve")
RUNGS = (100, 200, 400)
# `infer`'s occurs check walks the whole type on every bind, so on a type as
# deep as the term its calls grow about 3 times per doubling.
QUADRATIC = {("seq", "infer"), ("nested", "infer")}
# The most calls `constraints.run` may make per call of the walk: each call
# only instantiates the plan its key compiled once.
WALK_CALL_BUDGET = {"list": 45, "seq": 65}
_COMPILE = cgen._Run._compile.__code__


@functools.cache
def _counts(ladder: str) -> dict[str, list[int]]:
    """Each stage's call count at every rung of `ladder`."""
    src, spec_text, make = LADDERS[ladder]
    vp = g.validate(g.parse_program(src))
    spec = g.parse_spec(spec_text, vp)
    counts: dict[str, list[int]] = {s: [] for s in (*STAGES, "walk calls", "plans")}

    def stage(name, f, *args):
        calls = plans = 0

        def profile(frame, event, arg):
            nonlocal calls, plans
            if event == "call":
                calls += 1
                plans += frame.f_code is _COMPILE

        sys.setprofile(profile)
        try:
            result = f(*args)
        finally:
            sys.setprofile(None)
        counts[name].append(calls)
        if name == "constraints.run":
            counts["walk calls"].append(len(result.traces))
            counts["plans"].append(plans)
        return result

    for n in RUNGS:
        term = stage("parse_term", g.parse_term, make(n), vp)
        typed = stage("infer", g.infer, term, vp)
        arity = g.spec_head_arity(spec, vp)
        stage("check_call_invariants", g.check_call_invariants, typed, spec, arity)
        run = stage("constraints.run", cgen.run, typed, spec)
        stage("solve", g.solve, run.constraints, run.root_funs)
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
