"""Type inference, literal defaulting, and the analysis entry precondition."""
from __future__ import annotations

import itertools
import re
import sys
from operator import attrgetter
from pathlib import Path

import pytest

import gadtmap as g
from gadtmap.syntax import (
    App, Atom, Base, Meta, Prod, Sum, subst_type, term_children, type_children,
)
from gadtmap.typecheck import InstanceWitness, TypedNode, _Store, spec_instance

from conftest import CORPUS, NESTED_SRC, SEQ_SRC, random_values
from test_oracle import PROBE_SRC, PROBE_TERMS, SUM_INDEXED_SRC, SUM_INDEXED_TERMS
from test_syntax import _subterms

ROOT = Path(__file__).resolve().parent.parent


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


# ---------------------------------------------------------------------------
# Constructors compiled once per `infer` call, against instantiating each
# signature at every node


def reference_infer(term, vp, int_literals=False):
    """`infer` as it instantiated every constructor occurrence: a dict of
    fresh metavariables per occurrence, `subst_type` on the signature's
    argument types and return indices at every node, and every subterm
    rebuilt without its annotations. A recursive descent, which allocates
    and unifies in the order `infer`'s explicit stack does."""
    store = _Store()
    annotations = []

    def go(t):
        if isinstance(t, g.Ann):
            slot = len(annotations)
            annotations.append(None)
            node = go(t.inner)
            annotations[slot] = (node, t.type)
            return node
        if isinstance(t, g.Ctor):
            decl, sig = vp.ctor(t.name)
            inst = {v: store.fresh() for v in sig.type_vars}
            kids = []
            for j, a in enumerate(t.args):
                kid = go(a)
                store.unify(subst_type(sig.arg_types[j], inst), kid.type,
                            lambda: f"argument {j + 1} of {t.name!r}")
                kids.append(kid)
            return TypedNode(
                g.Ctor(t.name, tuple(k.term for k in kids)),
                App(decl.name, tuple(subst_type(k, inst) for k in sig.ret_indices)),
                tuple(inst[v] for v in sig.type_vars),
                tuple(kids),
            )
        if isinstance(t, g.Pair):
            left, right = go(t.left), go(t.right)
            return TypedNode(g.Pair(left.term, right.term), Prod(left.type, right.type),
                             kids=(left, right))
        if isinstance(t, g.Inl):
            inner = go(t.inner)
            return TypedNode(g.Inl(inner.term), Sum(inner.type, store.fresh()), kids=(inner,))
        if isinstance(t, g.Inr):
            left = store.fresh()
            inner = go(t.inner)
            return TypedNode(g.Inr(inner.term), Sum(left, inner.type), kids=(inner,))
        if isinstance(t, g.Lit):
            if t.base_hint in ("Bool", "Unit", "Int"):
                return TypedNode(t, Base(t.base_hint))
            return TypedNode(t, store.fresh(numeric=True))
        return TypedNode(t, t.type)

    root = go(term)
    for node, ann_ty in annotations:
        store.unify(node.type, ann_ty, lambda: f"annotation at {node.term}")
    default = Base("Int" if int_literals else "Nat")
    for ident in sorted(store.numeric):
        root_ty = store.walk(Meta(ident))
        if isinstance(root_ty, Meta):
            store.solutions[root_ty.ident] = default
    return g.TypedTerm(root, vp, store, int_literals)


def assert_typing_matches_reference(term, vp, int_literals=False):
    """`infer` gives the reference's nodes, raw types, instances and
    store; a subterm with no annotation below it is its node's term."""
    typed = g.infer(term, vp, int_literals)
    ref = reference_infer(term, vp, int_literals)
    assert list(map(attrgetter("term", "type", "instance"), typed.nodes())) == list(
        map(attrgetter("term", "type", "instance"), ref.nodes())
    )
    assert (typed._store.solutions, typed._store.numeric, typed._store._next) == (
        ref._store.solutions, ref._store.numeric, ref._store._next
    )
    stack = [(typed.root, term)]
    while stack:
        node, t = stack.pop()
        while isinstance(t, g.Ann):
            t = t.inner
        if not any(isinstance(x, g.Ann) for x in _subterms(t)):
            assert node.term is t
        stack.extend(zip(node.kids, term_children(t)))
    return typed


@pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
def test_corpus_typing_equals_reference(programs, key, term, spec, int_lits):
    vp = programs[key]
    assert_typing_matches_reference(g.parse_term(term, vp), vp, int_lits)


_PROBE_VP = g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC + PROBE_SRC))


@pytest.mark.parametrize(
    "term", [t for t, _, _ in PROBE_TERMS] + [t for t, _ in SUM_INDEXED_TERMS]
)
def test_probe_typing_equals_reference(term):
    assert_typing_matches_reference(g.parse_term(term, _PROBE_VP), _PROBE_VP)


@pytest.mark.parametrize(
    "term",
    [
        "cons (2 : Int) (cons 3 nil)",
        "((cons 1 nil : List Nat), inl (tt : Bool))",
        "inr ((cons (1 : Nat) nil : List Nat))",
        "cons (cons 1 nil) (cons ((cons 2 nil) : List Nat) nil)",
    ],
)
def test_annotated_typing_equals_reference(nested_vp, term):
    typed = assert_typing_matches_reference(g.parse_term(term, nested_vp), nested_vp)
    assert not any(isinstance(x, g.Ann) for x in _subterms(typed.term))


def test_unannotated_term_is_kept(nested_vp):
    term = g.parse_term("cons (1, inl tt) (cons (2, inr 3) nil)", nested_vp)
    assert g.infer(term, nested_vp).term is term


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_typing_equals_reference(seed):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    vps = {}
    checked = 0
    for generate in WORKLOADS.values():
        for req in generate(seed):
            argv = req.argv(str(ROOT))
            path = argv[1]
            if path not in vps:
                vps[path] = g.validate(g.parse_program(Path(path).read_text()))
            vp = vps[path]
            term = g.parse_term(argv[argv.index("--term") + 1], vp)
            assert_typing_matches_reference(term, vp, "--int-literals" in argv)
            checked += 1
    assert checked > 0


def test_binder_listed_twice_stands_for_its_last_metavariable():
    # Only a program built through the library can list a binder twice.
    a = g.Var("a")
    program = g.Program((g.GadtDecl("B", 1, (g.ConstructorSig("b", ("a", "a"), (a,), (a,)),)),))
    vp = g.validate(program)
    assert_typing_matches_reference(g.Ctor("b", (g.Lit("1"),)), vp)


def test_unbound_variable_stands_for_itself():
    # Nor can it leave a variable of a signature unbound.
    program = g.Program((
        g.GadtDecl("U", 1, (g.ConstructorSig("u", (), (g.Var("x"),), (g.Var("x"),)),)),
    ))
    vp = g.validate(program)
    term = g.Ctor("u", (g.Const("c", g.Var("x")),))
    typed = assert_typing_matches_reference(term, vp)
    assert typed.root.type == App("U", (g.Var("x"),))
