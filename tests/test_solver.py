"""Decomposition, unification orientation, and solved-system properties."""
from __future__ import annotations

import pytest

import gadtmap as g
from gadtmap.funexpr import fun_vars
from gadtmap.syntax import App, Base, Prod

from conftest import (
    G_TERM_FLAT,
    G_TERM_INJ,
    LISTS_TERM,
    SEQ_TERM,
    run_pipeline,
)


def fv(kind, label, index, intro):
    return g.FunVar(kind, label, index, intro=intro)


NAT = Base("Nat")


class TestDecompose:
    def test_already_atomic(self):
        h1, h2, g1 = fv("h", "1", 1, 2), fv("h", "1", 2, 3), fv("g", "1", 1, 1)
        c = g.Constraint(g.ProdF(h1, h2), g1)
        [a] = g.decompose(c)
        assert a.lhs == g.ProdF(h1, h2) and a.rhs == g1

    def test_identity_is_atomic(self):
        g1 = fv("g", "1", 1, 1)
        [a] = g.decompose(g.Constraint(g.Id(NAT), g1))
        assert a.lhs == g.Id(NAT) and a.rhs == g1

    def test_peeling_composite_sides(self):
        g1, g2 = fv("g", "2", 1, 4), fv("g", "2", 2, 5)
        h1, h2 = fv("h", "1", 1, 2), fv("h", "1", 2, 3)
        c = g.Constraint(
            g.ProdF(g.Lift("G", (g1,)), g.Lift("G", (g.ProdF(g2, g2),))),
            g.ProdF(g.Lift("G", (h1,)), g.Lift("G", (g.ProdF(h2, h2),))),
        )
        atomics = g.decompose(c)
        assert [(a.lhs, a.rhs) for a in atomics] == [(g1, h1), (g2, h2), (g2, h2)]

    def test_identity_expands_against_composite(self):
        v1, v2 = fv("g", "1", 1, 1), fv("g", "1", 2, 2)
        c = g.Constraint(g.Id(Prod(NAT, Base("Bool"))), g.ProdF(v1, v2))
        atomics = g.decompose(c)
        assert [(a.lhs, a.rhs) for a in atomics] == [
            (g.Id(NAT), v1),
            (g.Id(Base("Bool")), v2),
        ]

    def test_identity_expands_through_constructor(self):
        v = fv("g", "1", 1, 1)
        c = g.Constraint(g.Id(App("List", (NAT,))), g.Lift("List", (v,)))
        atomics = g.decompose(c)
        assert [(a.lhs, a.rhs) for a in atomics] == [(g.Id(NAT), v)]

    def test_equal_identities_vanish(self):
        c = g.Constraint(g.Id(NAT), g.Id(NAT))
        assert g.decompose(c) == []

    def test_head_clash(self):
        c = g.Constraint(
            g.ProdF(fv("g", "1", 1, 1), fv("g", "1", 2, 2)),
            g.SumF(fv("h", "1", 1, 3), fv("h", "1", 2, 4)),
        )
        with pytest.raises(g.SpecUnsatisfiable):
            g.decompose(c)


class TestUnifyAll:
    def test_variable_orientation_earlier_to_later(self):
        a, b = fv("f", "", 1, 0), fv("g", "1", 1, 1)
        solved = g.unify_all([g.AtomicConstraint(b, a)])
        assert solved.bindings == {a: b}
        assert solved.free_vars == (b,)

    def test_variable_binds_to_composite(self):
        f = fv("f", "", 1, 0)
        h1, h2 = fv("h", "1", 1, 2), fv("h", "1", 2, 3)
        solved = g.unify_all([g.AtomicConstraint(g.ProdF(h1, h2), f)])
        assert solved.bindings[f] == g.ProdF(h1, h2)

    def test_chains_substitute_through(self):
        f, g1, g2 = fv("f", "", 1, 0), fv("g", "1", 1, 1), fv("g", "2", 1, 2)
        solved = g.unify_all(
            [g.AtomicConstraint(g1, f), g.AtomicConstraint(g2, g1)]
        )
        assert solved.bindings == {f: g2, g1: g2}

    def test_occurs_check(self):
        v = fv("g", "1", 1, 1)
        with pytest.raises(g.SpecUnsatisfiable):
            g.unify_all([g.AtomicConstraint(g.Lift("List", (v,)), v)])

    def test_clash_through_bindings(self):
        v = fv("g", "1", 1, 1)
        with pytest.raises(g.SpecUnsatisfiable):
            g.unify_all(
                [
                    g.AtomicConstraint(g.Id(NAT), v),
                    g.AtomicConstraint(g.ProdF(fv("h", "1", 1, 2), fv("h", "1", 2, 3)), v),
                ]
            )

    def test_identity_meets_lift_through_bindings(self):
        v, w = fv("g", "1", 1, 1), fv("g", "1", 2, 2)
        solved = g.unify_all(
            [
                g.AtomicConstraint(g.Id(App("List", (NAT,))), v),
                g.AtomicConstraint(g.Lift("List", (w,)), v),
            ]
        )
        assert solved.bindings[w] == g.Id(NAT)


class TestSolvedSystems:
    def test_seq_form(self, seq_vp):
        p = run_pipeline(seq_vp, SEQ_TERM, "Seq b1", int_literals=True)
        assert [g.pretty(f) for f in p.form] == ["(f'1 * f'2) * f'3"]
        assert len(p.solved.free_vars) == 3

    def test_g_inj_form(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_INJ, "G b1")
        assert [g.pretty(f) for f in p.form] == ["f'1 * id@Nat"]
        assert len(p.solved.free_vars) == 1

    def test_g_flat_form_has_no_free_variables(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        assert [g.pretty(f) for f in p.form] == ["List (id@Nat) * id@Nat"]
        assert p.solved.free_vars == ()

    def test_list_forms(self, nested_vp):
        assert [
            g.pretty(f) for f in run_pipeline(nested_vp, LISTS_TERM, "List b1").form
        ] == ["f'1"]
        assert [
            g.pretty(f)
            for f in run_pipeline(nested_vp, LISTS_TERM, "List (List b1)").form
        ] == ["List f'1"]

    @pytest.mark.parametrize(
        "key,term,spec,int_lits",
        [
            ("seq", SEQ_TERM, "Seq b1", True),
            ("g", G_TERM_INJ, "G b1", False),
            ("g", G_TERM_FLAT, "G b1", False),
            ("nested", LISTS_TERM, "List (List b1)", False),
        ],
    )
    def test_solved_system_invariants(self, programs, key, term, spec, int_lits):
        p = run_pipeline(programs[key], term, spec, int_lits)
        bindings = p.solved.bindings
        for key_var, value in bindings.items():
            vars_in_value = fun_vars(value)
            assert key_var not in vars_in_value
            for v in vars_in_value:
                # fully substituted: values only mention free variables
                assert v not in bindings
                # orientation: replaced by later-created variables
                assert v.intro > key_var.intro
        # exactly one binding per root, and roots never occur in values
        for root in p.run.root_funs:
            assert root in bindings
            for value in bindings.values():
                assert root not in fun_vars(value)

    def test_determinism_including_renaming(self, g_vp):
        a = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        b = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        assert a.form == b.form
        assert list(a.solved.bindings) == list(b.solved.bindings)
        assert [g.pretty(v) for v in a.solved.bindings.values()] == [
            g.pretty(v) for v in b.solved.bindings.values()
        ]
