"""Constraint generation: unit tests for each step and golden traces for the
worked examples (compared in this implementation's deterministic labeling)."""
from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

import gadtmap as g
from gadtmap.constraints import (
    BetaAssign,
    SigmaAssign,
    compute_rj,
    compute_taus,
    emit_step_five,
    emit_step_six,
    match_spec,
)
from gadtmap.syntax import App, Atom, Base, Meta, Prod, Sum, Var, is_closed

from conftest import (
    G_TERM_FLAT,
    G_TERM_INJ,
    LISTS_TERM,
    SEQ_TERM,
    run_pipeline,
)


def fv(kind, label, index):
    return g.FunVar(kind, label, index)


# Every type node kind: variables, base types, rigid atoms, nullary and n-ary
# applications, products and sums, and now and then a metavariable, which
# cannot be lifted.
_CLOSED_LEAVES = [Base("Nat"), Atom("?0"), App("E", ())]
_LIFT_TYPES = st.recursive(
    st.sampled_from(3 * [Var("a"), Var("b1"), Var("b2"), *_CLOSED_LEAVES] + [Meta(3)]),
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(lambda a: App("List", (a,)), inner),
        st.builds(lambda a, b: App("D2", (a, b)), inner, inner),
    ),
    max_leaves=12,
)
_LIFT_VALUES = st.sampled_from(
    [
        fv("g", "1", 1),
        fv("f", None, 2),
        g.Id(Base("Nat")),
        g.Id(App("List", (Base("Bool"),))),
        g.Lift("List", (fv("h", "2", 1),)),
    ]
)
_LIFT_ENVS = st.fixed_dictionaries({"a": _LIFT_VALUES, "b1": _LIFT_VALUES, "b2": _LIFT_VALUES})


class TestLiftType:
    def test_variable(self):
        f = fv("g", "1", 1)
        assert g.lift_type(Var("b1"), {"b1": f}) == f

    def test_closed_type_is_identity(self):
        assert g.lift_type(Base("Nat"), {}) == g.Id(Base("Nat"))
        assert g.lift_type(App("List", (Base("Nat"),)), {}) == g.Id(
            App("List", (Base("Nat"),))
        )

    def test_homomorphic_elsewhere(self):
        h1, h2 = fv("h", "1", 1), fv("h", "1", 2)
        ty = Prod(
            App("G", (Var("b1"),)), App("G", (Prod(Var("b2"), Var("b2")),))
        )
        assert g.lift_type(ty, {"b1": h1, "b2": h2}) == g.ProdF(
            g.Lift("G", (h1,)), g.Lift("G", (g.ProdF(h2, h2),))
        )

    @given(_LIFT_TYPES, _LIFT_ENVS)
    @settings(max_examples=300)
    def test_matches_top_down_reference(self, ty, env):
        try:
            want = _reference_lift_type(ty, env)
        except ValueError:
            with pytest.raises(ValueError):
                g.lift_type(ty, env)
            return
        assert g.lift_type(ty, env) == want

    def test_visits_each_subexpression_once(self):
        depth = 300
        ty = Var("b1")
        for _ in range(depth):
            ty = App("Bush", (ty,))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            g.lift_type(ty, {"b1": fv("f", None, 1)})
        finally:
            sys.setprofile(None)
        assert calls <= 20 * depth


def _reference_lift_type(t, env):
    """`lift_type` as a top-down walk that tests closedness at every level."""
    if isinstance(t, Var):
        return env[t.name]
    if is_closed(t):
        return g.Id(t)
    if isinstance(t, Prod):
        return g.ProdF(_reference_lift_type(t.left, env), _reference_lift_type(t.right, env))
    if isinstance(t, Sum):
        return g.SumF(_reference_lift_type(t.left, env), _reference_lift_type(t.right, env))
    if isinstance(t, App):
        return g.Lift(t.ctor, tuple(_reference_lift_type(a, env) for a in t.args))
    raise ValueError(f"cannot lift type expression {t!r}")


class TestMatchSpec:
    def test_variable_against_product(self):
        out = match_spec(Var("b1"), Prod(Var("y1"), Var("y2")))
        assert out == [BetaAssign("b1", Prod(Var("y1"), Var("y2")))]

    def test_variable_variable_prefers_pinning(self):
        out = match_spec(Prod(Var("b1"), Var("b2")), Prod(Var("y1"), Var("y2")))
        assert out == [SigmaAssign(Var("b1"), "y1"), SigmaAssign(Var("b2"), "y2")]

    def test_variable_against_closed(self):
        assert match_spec(Var("b2"), Base("Nat")) == [BetaAssign("b2", Base("Nat"))]

    def test_composite_against_variable(self):
        out = match_spec(App("List", (Var("b1"),)), Var("y1"))
        assert out == [SigmaAssign(App("List", (Var("b1"),)), "y1")]

    def test_peeling_identical_heads(self):
        out = match_spec(
            App("List", (Var("b1"),)), App("List", (Var("y1"),))
        )
        assert out == [SigmaAssign(Var("b1"), "y1")]

    def test_clash_raises(self):
        with pytest.raises(g.NotTopUnifiable):
            match_spec(Base("Nat"), Base("Bool"))
        with pytest.raises(g.NotTopUnifiable):
            match_spec(Prod(Var("b1"), Var("b2")), Sum(Var("y1"), Var("y2")))


class TestComputeTaus:
    def test_no_pins_yields_indices(self):
        out = compute_taus([BetaAssign("b1", Prod(Var("y1"), Var("y2")))], ("y1", "y2"))
        assert out == (Var("y1"), Var("y2"))

    def test_pinned_index(self):
        sigma = Prod(App("G", (Var("b1"),)), Var("b2"))
        assert compute_taus([SigmaAssign(sigma, "y1")], ("y1",)) == (sigma,)

    def test_first_pin_wins(self):
        out = compute_taus(
            [SigmaAssign(Var("b1"), "y1"), SigmaAssign(Var("b2"), "y1")], ("y1",)
        )
        assert out == (Var("b1"),)


class TestEmitSteps:
    def test_step_five_product(self):
        g1 = fv("g", "1", 1)
        h1, h2 = fv("h", "1", 1), fv("h", "1", 2)
        out = emit_step_five(
            [BetaAssign("b1", Prod(Var("y1"), Var("y2")))],
            ("b1",),
            {"b1": g1, "y1": h1, "y2": h2},
            "1:v",
        )
        assert [(c.lhs, c.rhs) for c in out] == [(g.ProdF(h1, h2), g1)]

    def test_step_five_closed(self):
        g1 = fv("g", "1", 1)
        out = emit_step_five(
            [BetaAssign("b1", Base("Nat"))], ("b1",), {"b1": g1}, "1:v"
        )
        assert [(c.lhs, c.rhs) for c in out] == [(g.Id(Base("Nat")), g1)]

    def test_step_five_empty(self):
        assert emit_step_five([SigmaAssign(Var("b1"), "y1")], ("b1",), {}, "o") == []

    def test_step_six_two_pins_on_one_index(self):
        g1, g2 = fv("g", "1", 1), fv("g", "1", 2)
        out = emit_step_six(
            [SigmaAssign(Var("b1"), "y1"), SigmaAssign(Var("b2"), "y1")],
            ("y1",),
            {"b1": g1, "b2": g2},
            "1:vi",
        )
        assert [(c.lhs, c.rhs) for c in out] == [(g2, g1)]

    def test_step_six_single_pins(self):
        out = emit_step_six(
            [SigmaAssign(Var("b1"), "y1"), SigmaAssign(Var("b1"), "y2")],
            ("y1", "y2"),
            {"b1": fv("g", "1", 1)},
            "1:vi",
        )
        assert out == []

    def test_compute_rj(self):
        taus = (App("G", (Var("y1"),)),)
        assert compute_rj(Var("a"), ("a",), taus) == App("G", (Var("y1"),))
        assert compute_rj(App("List", (App("G", (Var("a"),)),)), ("a",), taus) == App(
            "List", (App("G", (App("G", (Var("y1"),)),)),)
        )
        assert compute_rj(Base("Nat"), ("a",), taus) == Base("Nat")


def constraint_strings(p) -> list[tuple[str, str]]:
    return [(c.origin, g.pretty(c)) for c in p.run.constraints]


class TestGoldenTraces:
    def test_seq_example(self, seq_vp):
        p = run_pipeline(seq_vp, SEQ_TERM, "Seq b1", int_literals=True)
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:v", "<h1^1 * h2^1, g1^1>"),
            ("1.1:i", "<g1^1.1, h1^1>"),
            ("1.1:v", "<h1^1.1 * h2^1.1, g1^1.1>"),
            ("1.1.1:i", "<g1^1.1.1, h1^1.1>"),
            ("1.1.2:i", "<g1^1.1.2, h2^1.1>"),
            ("1.2:i", "<g1^1.2, h2^1>"),
        ]
        assert [t.label for t in p.run.traces] == ["1", "1.1", "1.1.1", "1.1.2", "1.2"]
        root = p.run.traces[0]
        assert [f"{g.pretty(l)} == {g.pretty(r)}" for l, r in root.matching] == [
            "b1 == y1^1 * y2^1"
        ]
        assert tuple(map(g.pretty, root.taus)) == ("y1^1", "y2^1")
        assert list(map(g.pretty, root.rjs)) == ["Seq y1^1", "Seq y2^1"]
        assert [tuple(map(g.pretty, z)) for z in root.zetas] == [("y1^1",), ("y2^1",)]

    def test_g_inj_example(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_INJ, "G b1")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:v", "<h1^1 * h2^1, g1^1>"),
            ("1.1:i", "<G g1^1.1 * G (g2^1.1 * g2^1.1), G h1^1 * G (h2^1 * h2^1)>"),
            ("1.1.1:i", "<G g1^1.1.1, G g1^1.1>"),
            ("1.1.1:i", "<G (g2^1.1.1 * g2^1.1.1), G (g2^1.1 * g2^1.1)>"),
            ("1.1.1.1:i", "<g1^1.1.1.1, g1^1.1.1>"),
            ("1.1.1.2:i", "<g1^1.1.1.2 * g1^1.1.1.2, g2^1.1.1 * g2^1.1.1>"),
            ("1.1.1.2.1:i", "<g1^1.1.1.2.1, g1^1.1.1.2>"),
            ("1.1.1.2.2:i", "<g1^1.1.1.2.2, g1^1.1.1.2>"),
            ("1.1.1.2.2:v", "<id@Nat, g1^1.1.1.2.2>"),
        ]
        # the literal 2 under the first inner injection is never visited
        assert (0, 0, 0, 0) not in p.run.annotation.essential
        # recursion through the pairing happens at the pair component, so the
        # input functions of the pair call are composite
        pair_call = next(t for t in p.run.traces if t.label == "1.1.1")
        assert [g.pretty(f) for f in pair_call.funs] == ["G g1^1.1", "G (g2^1.1 * g2^1.1)"]

    def test_g_flat_example(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        strings = constraint_strings(p)
        assert len(strings) == 15
        assert ("1.1.1.1:v", "<List h1^1.1.1.1, g1^1.1.1.1>") in strings
        assert ("1.1.1.1.1.1:v", "<id@Nat, g1^1.1.1.1.1.1>") in strings
        assert ("1.1.1.2.2:v", "<id@Nat, g1^1.1.1.2.2>") in strings
        flat_call = next(t for t in p.run.traces if t.label == "1.1.1.1")
        assert [f"{g.pretty(l)} == {g.pretty(r)}" for l, r in flat_call.matching] == [
            "y1^1 == List y1^1.1.1.1"
        ]
        assert tuple(map(g.pretty, flat_call.taus)) == ("y1^1.1.1.1",)
        assert list(map(g.pretty, flat_call.rjs)) == ["List (G y1^1.1.1.1)"]
        # the list-of-analyses call gets a lifted constructor as input function
        inner = next(t for t in p.run.traces if t.label == "1.1.1.1.1")
        assert [g.pretty(f) for f in inner.funs] == ["G h1^1.1.1.1"]
        assert g.pretty(inner.spec) == "List (G y1^1.1.1.1)"

    def test_list_shallow(self, nested_vp):
        p = run_pipeline(nested_vp, LISTS_TERM, "List b1")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1.2:i", "<g1^1.2, g1^1>"),
            ("1.2.2:i", "<g1^1.2.2, g1^1.2>"),
        ]
        root = p.run.traces[0]
        assert list(map(g.pretty, root.rjs)) == ["b1", "List b1"]
        assert root.zetas[0] is None and root.zetas[1] == (Var("b1"),)

    def test_list_deep(self, nested_vp):
        p = run_pipeline(nested_vp, LISTS_TERM, "List (List b1)")
        assert constraint_strings(p) == [
            ("1:i", "<List g1^1, f1>"),
            ("1.1:i", "<g1^1.1, g1^1>"),
            ("1.1.2:i", "<g1^1.1.2, g1^1.1>"),
            ("1.1.2.2:i", "<g1^1.1.2.2, g1^1.1.2>"),
            ("1.2:i", "<List g1^1.2, List g1^1>"),
            ("1.2.1:i", "<g1^1.2.1, g1^1.2>"),
            ("1.2.1.2:i", "<g1^1.2.1.2, g1^1.2.1>"),
            ("1.2.2:i", "<List g1^1.2.2, List g1^1.2>"),
        ]

    def test_trivial_product_spec(self, nested_vp):
        p = run_pipeline(nested_vp, "(1, tt)", "b1 * b2")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
        ]
        assert len(p.run.traces) == 1

    def test_two_pins_on_one_index_via_program(self):
        vp = g.validate(
            g.parse_program(
                "data G2 : Set -> Set -> Set where dup : forall a. a -> G2 a a"
            )
        )
        p = run_pipeline(vp, "dup 5", "G2 b1 b2")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
            ("1:vi", "<g2^1, g1^1>"),
        ]
        assert [g.pretty(f) for f in p.form] == ["f'1", "f'1"]

    def test_injection_specs(self, nested_vp):
        left = run_pipeline(nested_vp, "inl (cons 1 nil)", "List b1 + b2")
        assert constraint_strings(left)[:2] == [
            ("1:i", "<List g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
        ]
        assert any(o.startswith("1.1") for o, _ in constraint_strings(left))
        right = run_pipeline(nested_vp, "inr 5", "List b1 + b2")
        assert [o for o, _ in constraint_strings(right)] == ["1:i", "1:i"]


class TestInvariants:
    @pytest.mark.parametrize(
        "key,term,spec,int_lits",
        [
            ("seq", SEQ_TERM, "Seq b1", True),
            ("g", G_TERM_FLAT, "G b1", False),
            ("nested", LISTS_TERM, "List (List b1)", False),
        ],
    )
    def test_fresh_variable_hygiene(self, programs, key, term, spec, int_lits):
        p = run_pipeline(programs[key], term, spec, int_lits)
        seen: dict[g.FunVar, int] = {}
        for c in p.run.constraints:
            for side in (c.lhs, c.rhs):
                for v in g.funexpr.fun_vars(side):
                    if v in seen:
                        assert seen[v] == v.intro
                    else:
                        seen[v] = v.intro
        intros = sorted(v.intro for v in seen)
        assert len(set(intros)) == len(intros)

    def test_origin_matches_call_label(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        for t in p.run.traces:
            for c in t.emitted:
                assert c.origin.split(":")[0] == t.label

    def test_emitted_constraints_decompose(self, g_vp):
        # both sides of every emitted constraint are top-unifiable
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        for c in p.run.constraints:
            g.decompose(c)

    def test_nested_programs_emit_variable_pairs_only(self, nested_vp):
        # with unrestricted constructors and shallow specifications, every
        # constraint decomposes into atomic pairs of distinct variables
        for term, spec in [
            (LISTS_TERM, "List b1"),
            ("pnode (pleaf ((1, 2), (3, 4)))", "PTree b1"),
            ("bcons 1 (bcons (bcons 2 bnil) bnil)", "Bush b1"),
        ]:
            p = run_pipeline(nested_vp, term, spec)
            for c in p.run.constraints:
                for atomic in g.decompose(c):
                    assert isinstance(atomic.lhs, g.FunVar)
                    assert isinstance(atomic.rhs, g.FunVar)

    def test_run_requires_frozen_typing(self, nested_vp):
        typed = g.infer(g.parse_term("nil", nested_vp), nested_vp)
        spec = g.parse_spec("List b1", nested_vp)
        with pytest.raises(g.InternalInvariantViolation):
            g.run(typed, spec)
