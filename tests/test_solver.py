"""Decomposition, unification orientation, and solved-system properties."""
from __future__ import annotations

import random

import pytest

import gadtmap as g
from gadtmap.funexpr import fun_children, fun_vars
from gadtmap.solver import _peel
from gadtmap.syntax import App, Base, Prod

from conftest import (
    CORPUS,
    G_TERM_FLAT,
    G_TERM_INJ,
    LISTS_TERM,
    SEQ_TERM,
    random_values,
    run_pipeline,
)


def cons_list(items):
    """Surface text of a `cons` list of the given element texts."""
    return "".join(f"cons ({x}) (" for x in items) + "nil" + ")" * len(items)


LONG_LIST = cons_list([str(i) for i in range(300)])
LONG_LIST_OF_LISTS = cons_list([cons_list([str(i)] * (i % 3)) for i in range(300)])


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

        # A long chain met in shuffled order: every link ends up bound to the
        # last variable, keys in creation order.
        chain = [fv("g", str(i), 1, i) for i in range(500)]
        links = [g.AtomicConstraint(b, a) for a, b in zip(chain, chain[1:])]
        random.Random(7).shuffle(links)
        solved = g.unify_all(links)
        assert list(solved.bindings.items()) == [(v, chain[-1]) for v in chain[:-1]]
        assert solved.free_vars == (chain[-1],)

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
            # Long binding chains: path compression rewrites these.
            pytest.param("nested", LONG_LIST, "List b1", False, id="long-list"),
            pytest.param(
                "nested", LONG_LIST_OF_LISTS, "List (List b1)", False, id="long-list-of-lists"
            ),
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


def reference_unify_all(atomics):
    """`unify_all` as it was before bindings shared structure: every binding
    is resolved on its own, and `fun_vars` re-walks each resolved value."""
    raw = {}

    def walk(e):
        passed = []
        while isinstance(e, g.FunVar):
            nxt = raw.get(e)
            if nxt is None:
                break
            passed.append(e)
            e = nxt
        for v in passed:
            raw[v] = e
        return e

    def occurs(v, e):
        e = walk(e)
        if isinstance(e, g.FunVar):
            return e == v
        return any(occurs(v, c) for c in fun_children(e))

    def unite(a, b):
        a, b = walk(a), walk(b)
        if isinstance(a, g.FunVar) and isinstance(b, g.FunVar):
            if a != b:
                lo, hi = (a, b) if a.intro < b.intro else (b, a)
                raw[lo] = hi
        elif isinstance(a, g.FunVar) or isinstance(b, g.FunVar):
            v, e = (a, b) if isinstance(a, g.FunVar) else (b, a)
            if occurs(v, e):
                raise g.SpecUnsatisfiable(f"occurs check failed binding {v} to {e}")
            raw[v] = e
        else:
            for x, y in _peel(a, b):
                unite(x, y)

    for ac in atomics:
        unite(ac.lhs, ac.rhs)

    def resolve(e):
        e = walk(e)
        if isinstance(e, g.ProdF):
            return g.ProdF(resolve(e.left), resolve(e.right))
        if isinstance(e, g.SumF):
            return g.SumF(resolve(e.left), resolve(e.right))
        if isinstance(e, g.Lift):
            return g.Lift(e.ctor, tuple(resolve(a) for a in e.args))
        return e

    ordered = sorted(raw, key=lambda v: v.intro)
    bindings = {v: resolve(raw[v]) for v in ordered}
    free = dict.fromkeys(
        v for value in bindings.values() for v in fun_vars(value) if v not in bindings
    )
    return g.SolvedSystem(bindings, tuple(free))


SEQ_CHAIN = "pair (" * 59 + "pair (const 0) (const tt)" + ") (const 0)" * 59


def atomics_of(report):
    return [a for c in report.run.constraints for a in g.decompose(c)]


class TestSharedBindings:
    """Bindings share each variable's resolution; they must equal, in key
    order, the bindings and free variables that resolving every binding on
    its own gives."""

    @staticmethod
    def assert_same_solution(atomics):
        try:
            reference = reference_unify_all(atomics)
        except g.SpecUnsatisfiable:
            with pytest.raises(g.SpecUnsatisfiable):
                g.unify_all(atomics)
            return
        solved = g.unify_all(atomics)
        assert list(solved.bindings.items()) == list(reference.bindings.items())
        assert solved.free_vars == reference.free_vars

    @pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
    def test_corpus(self, programs, key, term, spec, int_lits):
        self.assert_same_solution(atomics_of(run_pipeline(programs[key], term, spec, int_lits)))

    @pytest.mark.parametrize(
        "key,term,spec",
        [
            ("nested", "(nil, nil)", "b1 * b2"),
            ("nested", "(cons 1 nil, nil)", "List b1 * List b1"),
            ("seq", SEQ_CHAIN, "Seq b1"),
            ("nested", LONG_LIST_OF_LISTS, "List (List b1)"),
        ],
    )
    def test_unsolved_and_deep(self, programs, key, term, spec):
        self.assert_same_solution(atomics_of(run_pipeline(programs[key], term, spec)))

    def test_random_values(self, nested_vp):
        for term, spec in random_values(nested_vp, 40):
            report = run_pipeline(nested_vp, g.pretty(term), spec)
            self.assert_same_solution(atomics_of(report))

    def test_shuffled_atomics(self):
        # Hand-built systems: some variables bound, some twice, some free,
        # met in any order.
        vs = [fv("g", str(i), 1, i) for i in range(14)]
        rng = random.Random(3)
        for _ in range(60):
            atomics = []
            for i, v in enumerate(vs[:-2]):
                for _ in range(rng.choice([0, 1, 1, 1, 2])):
                    a, b = rng.sample(vs[i + 1:], 2)
                    lhs = rng.choice([a, a, g.ProdF(a, b), g.ProdF(b, a)])
                    atomics.append(g.AtomicConstraint(lhs, v))
            rng.shuffle(atomics)
            self.assert_same_solution(atomics)
