"""Type inference, literal defaulting, and the analysis entry precondition."""
from __future__ import annotations

import itertools
import re
import sys

import pytest

import gadtmap as g
from gadtmap.syntax import App, Atom, Base, Meta, Prod, Sum, type_children
from gadtmap.typecheck import InstanceWitness, spec_instance

from conftest import CORPUS, NESTED_SRC, SEQ_SRC, random_values


class TestInfer:
    def test_seq_example_with_int_literals(self, seq_vp):
        t = g.parse_term("pair (pair (const tt) (const 2)) (const 5)", seq_vp)
        typed = g.infer(t, seq_vp, int_literals=True)
        assert typed.type_of(typed.root) == App(
            "Seq", (Prod(Prod(Base("Bool"), Base("Int")), Base("Int")),)
        )

    def test_literals_default_to_nat(self, nested_vp):
        t = g.parse_term("cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)", nested_vp)
        typed = g.infer(t, nested_vp)
        assert typed.type_of(typed.root) == App("List", (App("List", (Base("Nat"),)),))

    def test_bare_nil_keeps_unsolved_meta(self, nested_vp):
        typed = g.infer(g.parse_term("nil", nested_vp), nested_vp)
        ty = typed.type_of(typed.root)
        assert isinstance(ty, App) and ty.ctor == "List"
        assert isinstance(ty.args[0], Meta)

    def test_subterm_types_are_recorded(self, seq_vp):
        t = g.parse_term("pair (const tt) (const 2)", seq_vp)
        typed = g.infer(t, seq_vp)
        assert typed.type_of(typed.root.kids[0]) == App("Seq", (Base("Bool"),))
        assert typed.type_of(typed.root.kids[0].kids[0]) == Base("Bool")

    def test_constructor_instances_are_recorded(self, seq_vp):
        t = g.parse_term("pair (const tt) (const 2)", seq_vp)
        typed = g.infer(t, seq_vp)
        assert typed.instance_of(typed.root) == (Base("Bool"), Base("Nat"))

    def test_annotation_forces_int(self, nested_vp):
        typed = g.infer(g.parse_term("cons (2 : Int) nil", nested_vp), nested_vp)
        assert typed.type_of(typed.root) == App("List", (Base("Int"),))
        # annotations are erased from the typed term
        assert typed.term == g.Ctor("cons", (g.Lit("2"), g.Ctor("nil", ())))

    def test_mismatched_elements_fail(self, nested_vp):
        with pytest.raises(g.TypeCheckError):
            g.infer(g.parse_term("cons 1 (cons tt nil)", nested_vp), nested_vp)

    def test_annotation_conflict_fails(self, nested_vp):
        with pytest.raises(g.TypeCheckError):
            g.infer(g.parse_term("cons (tt : Int) nil", nested_vp), nested_vp)

    @pytest.mark.parametrize(
        "args", [(g.Lit("1"),), (g.Lit("1"), g.Ctor("nil", ()), g.Lit("2"))], ids=["1", "3"]
    )
    def test_constructor_arity_is_checked(self, nested_vp, args):
        # Only terms built through the library can have the wrong arity; the
        # parser rejects them.
        term = g.Ctor("cons", args)
        expected = f"constructor 'cons' expects 2 argument(s), got {len(args)}"
        with pytest.raises(g.TypeCheckError, match=re.escape(expected)):
            g.infer(term, nested_vp)
        report = g.analyze(nested_vp, term, g.parse_spec("List b1", nested_vp))
        assert (report.status, report.detail) == ("IllTyped", expected)

    def test_unknown_constructor_is_reported(self, nested_vp):
        # The parser rejects an unknown constructor first, with a position.
        with pytest.raises(g.TypeCheckError, match="unknown constructor 'snoc'"):
            g.infer(g.Ctor("snoc", ()), nested_vp)

    def test_non_term_cannot_be_typed(self, nested_vp):
        term = g.Ctor("cons", (Base("Nat"), g.Ctor("nil", ())))
        with pytest.raises(g.TypeCheckError, match=re.escape("cannot type Base(name='Nat')")):
            g.infer(term, nested_vp)

    def test_inference_is_deterministic(self, g_vp):
        t = g.parse_term("projpair (inj (inj (cons 2 nil), pairing (inj 2) const))", g_vp)
        a, b = g.infer(t, g_vp), g.infer(t, g_vp)
        assert a.type_of(a.root) == b.type_of(b.root) == App(
            "G", (Prod(App("List", (Base("Nat"),)), Base("Nat")),)
        )


class TestCheckCallInvariants:
    def test_witness_for_seq(self, seq_vp):
        t = g.parse_term("pair (pair (const tt) (const 2)) (const 5)", seq_vp)
        typed = g.infer(t, seq_vp, int_literals=True)
        w = g.check_call_invariants(typed, g.parse_spec("Seq b1", seq_vp), 1)
        assert w.subst == {"b1": Prod(Prod(Base("Bool"), Base("Int")), Base("Int"))}
        assert w.domains == (Prod(Prod(Base("Bool"), Base("Int")), Base("Int")),)
        assert typed.witness is w
        assert typed.instance_of(typed.root) == (Prod(Base("Bool"), Base("Int")), Base("Int"))

    def test_witness_for_deep_list_spec(self, nested_vp):
        t = g.parse_term("cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)", nested_vp)
        typed = g.infer(t, nested_vp)
        w = g.check_call_invariants(typed, g.parse_spec("List (List b1)", nested_vp), 1)
        assert w.subst == {"b1": Base("Nat")}
        assert w.domains == (App("List", (Base("Nat"),)),)

    def test_head_clash_is_spec_mismatch(self, seq_vp, nested_vp):
        src = open("programs/seq.gadt").read() + "\n" + open("programs/nested.gadt").read()
        vp = g.validate(g.parse_program(src))
        typed = g.infer(g.parse_term("const tt", vp), vp)
        with pytest.raises(g.SpecMismatch):
            g.check_call_invariants(typed, g.parse_spec("List b1", vp), 1)

    def test_fun_arity_mismatch(self, seq_vp):
        typed = g.infer(g.parse_term("const tt", seq_vp), seq_vp)
        with pytest.raises(g.FunArityMismatch):
            g.check_call_invariants(typed, g.parse_spec("Seq b1", seq_vp), 2)

    def test_bare_variable_spec_is_rejected(self, seq_vp):
        typed = g.infer(g.parse_term("const tt", seq_vp), seq_vp)
        with pytest.raises(g.SpecMismatch):
            g.spec_head_arity(g.parse_spec("b1", seq_vp), seq_vp)

    def test_spec_instantiates_leftover_metas(self, nested_vp):
        typed = g.infer(g.parse_term("nil", nested_vp), nested_vp)
        w = g.check_call_invariants(typed, g.parse_spec("List (List b1)", nested_vp), 1)
        ty = typed.type_of(typed.root)
        assert isinstance(ty.args[0], App) and ty.args[0].ctor == "List"
        assert isinstance(w.subst["b1"], Atom)

    def test_freezing_grounds_all_types(self, nested_vp):
        p_vp = g.validate(g.parse_program("data P : Set -> Set where\n  p : forall a b. a -> P a"))
        for vp, term, spec in [(nested_vp, "nil", "List b1"), (p_vp, "p 1", "P b1")]:
            typed = g.infer(g.parse_term(term, vp), vp)
            g.check_call_invariants(typed, g.parse_spec(spec, vp), 1)
            assert typed.witness is not None
            for node in typed.nodes():
                assert not metas_in(node.type)
                assert not any(metas_in(t) for t in node.instance)
                assert node.type == typed.type_of(node)
                assert node.instance == typed.instance_of(node)

    def test_spec_with_closed_component(self, nested_vp):
        typed = g.infer(g.parse_term("nil", nested_vp), nested_vp)
        w = g.check_call_invariants(typed, g.parse_spec("List Bool", nested_vp), 1)
        assert w.subst == {}
        assert typed.type_of(typed.root) == App("List", (Base("Bool"),))

    def test_closed_spec_conflict(self, nested_vp):
        typed = g.infer(g.parse_term("cons 1 nil", nested_vp), nested_vp)
        with pytest.raises(g.SpecMismatch):
            g.check_call_invariants(typed, g.parse_spec("List Bool", nested_vp), 1)

    def test_sum_spec_other_side_frozen(self, nested_vp):
        typed = g.infer(g.parse_term("inl (cons 1 nil)", nested_vp), nested_vp)
        w = g.check_call_invariants(typed, g.parse_spec("List b1 + b2", nested_vp), 2)
        assert w.subst["b1"] == Base("Nat")
        assert isinstance(w.subst["b2"], Atom)
        assert w.domains == (App("List", (Base("Nat"),)), w.subst["b2"])

    def test_freezing_numbers_instances_after_types(self):
        vp = g.validate(g.parse_program("data P : Set -> Set where\n  p : forall a b. a -> P a"))
        typed = g.infer(g.parse_term("p 1", vp), vp)
        g.check_call_invariants(typed, g.parse_spec("P b1", vp), 1)
        assert typed.instance_of(typed.root) == (Base("Nat"), Atom("?0"))

    def test_freezing_numbers_types_in_preorder(self, nested_vp):
        typed = g.infer(g.parse_term("(nil, nil)", nested_vp), nested_vp)
        g.check_call_invariants(typed, g.parse_spec("b1 * b2", nested_vp), 2)
        assert typed.type_of(typed.root) == Prod(
            App("List", (Atom("?0"),)), App("List", (Atom("?1"),))
        )


P_SRC = "data P : Set -> Set where\n  p : forall a b. a -> P a"

# Inputs that leave metavariables unsolved until grounding numbers them.
UNSOLVED = [
    ("nested", "nil", "List b1"),
    ("nested", "nil", "List (List b1)"),
    ("both", "p 1", "P b1"),
    # A binder in no type, met before a type's metavariable in preorder.
    ("both", "(p 1, nil)", "b1 * b2"),
    ("nested", "(nil, nil)", "b1 * b2"),
    ("nested", "inl (cons 1 nil)", "List b1 + b2"),
    ("both", "pair (pair (const nil) (const 2)) (const (cons nil nil))", "Seq b1"),
    ("both", "pair (const (nil, inr nil)) (pair (const nil) (const (inl 1)))", "Seq (b1 * b2)"),
    # Atoms ?0 ... ?30 in node types that share their raw structure.
    ("nested", "(nil, " * 30 + "nil" + ")" * 30, "b1 * b2"),
]


def metas_in(t):
    """The idents of the metavariables in `t`, walking every occurrence."""
    if isinstance(t, Meta):
        return {t.ident}
    out = set()
    for c in type_children(t):
        out |= metas_in(c)
    return out


def reference_resolve(store, t):
    """Resolution as grounding did it before it was shared: every call
    rebuilds the whole resolved type."""
    t = store.walk(t)
    if isinstance(t, (Prod, Sum)):
        return type(t)(reference_resolve(store, t.left), reference_resolve(store, t.right))
    if isinstance(t, App):
        return App(t.ctor, tuple(reference_resolve(store, a) for a in t.args))
    return t


def reference_check_call_invariants(typed, spec):
    """`check_call_invariants` as it was before grounding shared structure:
    resolve and scan every type on its own, binding the unsolved
    metavariables of each type to atoms before resolving the next."""
    store = typed._store
    mus = spec_instance(spec, typed.root.type, store)
    counter = itertools.count()

    def ground(t):
        t = reference_resolve(store, t)
        metas = metas_in(t)
        if not metas:
            return t
        for ident in sorted(metas):
            store.solutions[ident] = Atom(f"?{next(counter)}")
        return reference_resolve(store, t)

    nodes = list(typed.nodes())
    for n in nodes:
        n.type = ground(n.type)
    for n in nodes:
        n.instance = tuple(map(ground, n.instance))
    subst = {v: reference_resolve(store, m) for v, m in mus.items()}
    typed.witness = InstanceWitness(subst, type_children(typed.root.type))
    return typed.witness


class TestSharedGrounding:
    """Grounding resolves each metavariable once and shares the result; it
    must give the types, instances, atom names and witness that resolving
    every type separately gives."""

    @pytest.fixture(scope="class")
    def vps(self, programs):
        both = g.validate(g.parse_program("\n".join([SEQ_SRC, NESTED_SRC, P_SRC])))
        return {**programs, "both": both}

    @staticmethod
    def assert_same_grounding(vp, term, spec_text, int_literals=False):
        spec = g.parse_spec(spec_text, vp)
        typed = g.infer(term, vp, int_literals)
        reference = g.infer(term, vp, int_literals)
        witness = g.check_call_invariants(typed, spec, g.spec_head_arity(spec, vp))
        assert witness == reference_check_call_invariants(reference, spec)
        pairs = list(zip(typed.nodes(), reference.nodes(), strict=True))
        assert [(a.type, a.instance) for a, _ in pairs] == [(b.type, b.instance) for _, b in pairs]

    @pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
    def test_corpus(self, vps, key, term, spec, int_lits):
        vp = vps[key]
        self.assert_same_grounding(vp, g.parse_term(term, vp), spec, int_lits)

    @pytest.mark.parametrize("key,term,spec", UNSOLVED)
    def test_unsolved_metavariables(self, vps, key, term, spec):
        vp = vps[key]
        self.assert_same_grounding(vp, g.parse_term(term, vp), spec)

    def test_random_values(self, nested_vp):
        for term, spec in random_values(nested_vp, 40):
            self.assert_same_grounding(nested_vp, term, spec)

    def test_one_metavariable_is_one_object(self, seq_vp):
        typed = g.infer(g.parse_term("pair (pair (const tt) (const 2)) (const 5)", seq_vp), seq_vp)
        w = g.check_call_invariants(typed, g.parse_spec("Seq b1", seq_vp), 1)
        inner = typed.root.kids[0]
        # The root's first binder is solved by the inner pair's type index,
        # whose components are the inner pair's binders.
        assert typed.root.instance[0].left is inner.instance[0]
        assert w.subst["b1"].left is typed.root.instance[0]
        assert inner.instance[0] is inner.kids[0].instance[0]

    def test_pair_type_holds_its_kids_types(self, nested_vp):
        # A pair's raw type holds its kids' raw types; each is grounded once.
        typed = g.infer(g.parse_term("((0, tt), (1, 2))", nested_vp), nested_vp)
        g.check_call_invariants(typed, g.parse_spec("b1 * b2", nested_vp), 2)
        root = typed.root
        assert root.type.left is root.kids[0].type and root.type.right is root.kids[1].type

    def test_cost_is_linear_in_type_depth(self, nested_vp):
        # A list of lists or a pair nest n levels deep has node types n
        # levels deep that share their structure: a scan of every resolved
        # type on its own costs n^2, one scan of the shared structure costs n.
        # Counted in Python function calls, which do not depend on the machine.
        ladders = {
            "List b1": lambda n: "cons (" * (n - 1) + "cons nil nil" + ") nil" * (n - 1),
            "b1 * b2": lambda n: "(0, " * (n - 1) + "0" + ")" * (n - 1),
        }
        for spec_text, ladder in ladders.items():
            spec = g.parse_spec(spec_text, nested_vp)
            counts = []
            for n in (100, 200, 400):
                typed = g.infer(g.parse_term(ladder(n), nested_vp), nested_vp)
                calls = 0

                def profile(frame, event, arg):
                    nonlocal calls
                    calls += event == "call"

                sys.setprofile(profile)
                try:
                    g.check_call_invariants(typed, spec, g.spec_head_arity(spec, nested_vp))
                finally:
                    sys.setprofile(None)
                counts.append(calls)
            assert all(big <= 2.2 * small for small, big in zip(counts, counts[1:])), (
                spec_text,
                counts,
            )
