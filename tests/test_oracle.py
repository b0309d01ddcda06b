"""The brute-force validator: component recovery, map application, candidate
enumeration, and agreement with the analysis."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadtmap as g
from gadtmap import oracle
from gadtmap.funexpr import expand_id, fun_children, fun_type, lift_type, normalize
from gadtmap.oracle import Checker, _binder_functions, head_lift, mappable, match_type
from gadtmap.syntax import App, Atom, Base, Prod, Sum, Var, subst_type
from gadtmap.typecheck import _Store, spec_instance

from conftest import (
    CORPUS,
    G_TERM_INJ,
    LISTS_TERM,
    NESTED_SRC,
    gen_value,
    run_pipeline,
    subterm_at,
)

NAT = Base("Nat")
LIST_NAT = App("List", (NAT,))

# Constructors whose return index is a sum: mapping through them takes the
# sum case of component recovery and of the instance check.
SUM_INDEXED_SRC = """
data S : Set -> Set where
  sl : forall a b. a -> S (a + b) ;
  sr : forall a b. b -> S (a + b) ;
  sw : forall a. S a -> S a
"""

# Shapes the checker handles apart: existential binders (`b` of `mk`, `mkl`,
# at two instance types below `w`), two indices that constructors permute,
# fix or repeat, and a nested index.
PROBE_SRC = """
data E : Set -> Set where
  mk  : forall a b. b -> a -> E a ;
  mkl : forall a b. List b -> a -> E a

data W : Set -> Set where
  w : forall a. E a -> E a -> W a

data T : Set -> Set -> Set where
  ts : forall a b. T a b -> T b a ;
  tl : forall a. a -> T a Nat ;
  tp : forall a. a -> a -> T a a

data H : Set -> Set where
  hz : forall a. a -> H a ;
  hl : forall a. H (List a) -> H (List (List a))
"""

# (term, spec, candidate tuples checked at depths 2 and 3)
PROBE_TERMS = [
    # existential binders keep their data
    ("mk (1, tt) (cons 2 nil)", "E (List b1)", (4, 4)),
    ("mkl (cons tt nil) (1, 2)", "E (b1 * b2)", (6, 6)),
    ("mkl (cons 1 nil) (cons (1, 2) nil)", "E (List (b1 * b1))", (8, 8)),
    ("w (mk 1 (1, 2)) (mk tt (3, 4))", "W (b1 * b2)", (6, 6)),
    # two indices: swapped, one closed, one repeated
    ("ts (tl 1)", "T b1 b2", (4, 4)),
    ("ts (ts (tl (1, tt)))", "T (b1 * b2) b3", (12, 12)),
    ("tl (cons 1 nil)", "T (List b1) b2", (8, 8)),
    ("tp (1, 2) (3, 4)", "T b1 b1", (36, 36)),
    ("tp (1, 2) (3, 4)", "T b1 b2", (36, 36)),
    ("ts (tp (cons 1 nil) nil)", "T b1 b2", (16, 16)),
    # a nested index
    ("hz (cons 1 nil)", "H (List b1)", (4, 4)),
    ("hl (hz (cons nil nil))", "H b1", (6, 8)),
    ("hl (hz (cons nil nil))", "H (List b1)", (6, 8)),
    # a sum index under two constructors
    ("sw (sw (sl 1))", "S (b1 + b2)", (6, 6)),
    ("sw (sw (sr (cons 1 nil)))", "S (b1 + List b2)", (10, 10)),
]

SUM_INDEXED_TERMS = [
    ("sw (sl (cons 1 nil))", "S b1"),
    ("sr tt", "S b1"),
    ("sl (inr 2 : Bool + Nat)", "S b1"),
    ("inr (cons 1 nil)", "b1 + List b2"),
]

# Constructors with closed argument types: the checker lifts each such
# argument to the identity at its type, and `pin` fixes a return index.
CLOSED_ARGS_SRC = """
data T : Set -> Set where
  leaf : forall a. a -> T a ;
  tag  : forall a. Nat -> T a -> T a ;
  meta : forall a. (Nat * Bool) -> List Nat -> T a -> T a ;
  pin  : forall a. Nat -> T (a * Nat) -> T (a * Nat)
"""

# (term, spec, the most general form, candidate tuples checked at depths 2
# and 3)
CLOSED_ARGS_TERMS = [
    ("tag 1 (leaf 2)", "T b1", "f'1", (2, 2)),
    ("tag 1 (tag 2 (leaf (cons 3 nil)))", "T (List b1)", "List f'1", (4, 4)),
    ("meta (1, tt) (cons 2 nil) (leaf (3, 4))", "T (b1 * b2)", "f'1 * f'2", (6, 6)),
    ("meta (1, tt) nil (tag 5 (leaf 3))", "T b1", "f'1", (2, 2)),
    ("pin 1 (leaf ((tt, 3), 4))", "T ((b1 * b2) * b3)", "(f'1 * f'2) * id@Nat", (14, 14)),
    ("pin 1 (pin 2 (leaf (((tt, 3), 4), 5)))", "T (b1 * b2)", "f'1 * id@Nat", (14, 30)),
    ("tag 1 (pin 2 (leaf (tt, 3)))", "T (b1 * b2)", "f'1 * id@Nat", (6, 6)),
]

REPEATED_SPEC_VARIABLES = [
    ("g", "(1, 2)", "b1 * b1"),
    ("g", "inl 1", "b1 + b1"),
    ("g", "pairing (inj 1) (inj 2)", "G (b1 * b1)"),
    ("seq", "pair (const 1) (const 1)", "Seq (b1 * b1)"),
    ("seq", "const (1, 1)", "Seq (b1 * b1)"),
    ("seq", "pair (const (1, 2)) (const 1)", "Seq ((b1 * b2) * b1)"),
    ("nested", "(cons 1 nil, cons 2 nil)", "List b1 * List b1"),
    # `b1` is a whole component and occurs again inside the other: its
    # codomain must still be matched, or an opaque first candidate passes.
    ("nested", "(1, cons 2 nil)", "b1 * List b1"),
]


def opaque(domain, name="X"):
    return g.Opaque(domain, Atom(name))


class TestMatchFun:
    def test_product_index_splits(self):
        f1, f2 = opaque(NAT, "X1"), opaque(NAT, "X2")
        env = g.match_fun(Prod(Var("a1"), Var("a2")), g.ProdF(f1, f2), {})
        assert env == {"a1": f1, "a2": f2}

    def test_product_index_rejects_opaque(self):
        assert g.match_fun(Prod(Var("a1"), Var("a2")), opaque(Prod(NAT, NAT)), {}) is None

    def test_closed_index_requires_identity(self):
        assert g.match_fun(NAT, opaque(NAT), {}) is None
        assert g.match_fun(NAT, g.Id(NAT), {}) == {}

    def test_closed_index_accepts_expanded_identity(self):
        assert g.match_fun(Prod(NAT, NAT), g.ProdF(g.Id(NAT), g.Id(NAT)), {}) == {}

    def test_variable_index_binds_anything(self):
        f = opaque(LIST_NAT)
        assert g.match_fun(Var("a"), f, {}) == {"a": f}

    def test_inconsistent_rebinding_fails(self):
        f1, f2 = opaque(NAT, "X1"), opaque(NAT, "X2")
        env = g.match_fun(Var("a"), f1, {})
        assert g.match_fun(Var("a"), f2, env) is None
        assert g.match_fun(Var("a"), f1, env) == env

    def test_constructor_index(self):
        f = opaque(NAT)
        env = g.match_fun(App("List", (Var("a"),)), g.Lift("List", (f,)), {})
        assert env == {"a": f}
        assert g.match_fun(App("List", (Var("a"),)), opaque(LIST_NAT), {}) is None

    def test_identity_expands_through_constructor_index(self):
        env = g.match_fun(App("List", (Var("a"),)), g.Id(LIST_NAT), {})
        assert env == {"a": g.Id(NAT)}

    def test_closed_composite_index_matches_level_by_level(self):
        assert g.match_fun(LIST_NAT, g.Id(LIST_NAT), {}) == {}
        assert g.match_fun(LIST_NAT, g.Lift("List", (g.Id(NAT),)), {}) == {}
        assert g.match_fun(LIST_NAT, g.Lift("List", (opaque(NAT),)), {}) is None
        k = Prod(NAT, LIST_NAT)
        assert g.match_fun(k, g.ProdF(g.Id(NAT), g.Lift("List", (g.Id(NAT),))), {}) == {}
        assert g.match_fun(k, g.Id(k), {}) == {}
        assert g.match_fun(k, opaque(k), {}) is None

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_closedness_reference(self, data):
        k_expr = data.draw(_INDEX_TYPES)
        phi = _draw_fun_along(data, k_expr)
        env = data.draw(st.sampled_from(_MATCH_ENVS))
        assert g.match_fun(k_expr, phi, env) == _reference_match_fun(k_expr, phi, env)


def _reference_match_fun(k_expr, phi, env):
    """`match_fun` as it tested every return index for closedness first."""
    if isinstance(k_expr, Var):
        prev = env.get(k_expr.name)
        if prev is None:
            return {**env, k_expr.name: phi}
        return env if normalize(prev) == normalize(phi) else None
    if g.syntax.is_closed(k_expr):
        return env if normalize(phi) == normalize(g.Id(k_expr)) else None
    if isinstance(phi, g.Id):
        phi = expand_id(phi)
        if phi is None:
            return None
    if isinstance(k_expr, (Prod, Sum)):
        if not isinstance(phi, g.ProdF if isinstance(k_expr, Prod) else g.SumF):
            return None
        env = _reference_match_fun(k_expr.left, phi.left, env)
        return None if env is None else _reference_match_fun(k_expr.right, phi.right, env)
    if not (isinstance(phi, g.Lift) and phi.ctor == k_expr.ctor):
        return None
    for sub_k, sub_phi in zip(k_expr.args, phi.args):
        env = _reference_match_fun(sub_k, sub_phi, env)
        if env is None:
            return None
    return env


# Return indices over a1 and a2, open and closed, with constructors of fixed
# arity; function expressions built along them (identities, opaque functions,
# composites down to the leaves) or drawn from a pool that often disagrees.
_INDEX_TYPES = st.recursive(
    st.sampled_from([Var("a1"), Var("a2"), NAT, Base("Bool"), App("E", ())]),
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(lambda a: App("List", (a,)), inner),
        st.builds(lambda a, b: App("D2", (a, b)), inner, inner),
    ),
    max_leaves=6,
)
_FUN_POOL = [
    opaque(NAT, "X1"),
    opaque(NAT, "X2"),
    g.Id(NAT),
    g.Id(LIST_NAT),
    g.Lift("List", (g.Id(NAT),)),
    g.Lift("List", (opaque(NAT, "X1"),)),
    g.ProdF(g.Id(NAT), g.Id(NAT)),
]
_MATCH_ENVS = [{}, {"a1": g.Id(NAT)}, {"a1": opaque(NAT, "X1")}, {"a2": g.Id(LIST_NAT)}]
_GROUND = {"a1": NAT, "a2": LIST_NAT}


def _draw_fun_along(data, t):
    how = data.draw(st.integers(0, 4))
    if how == 0:
        return g.Id(subst_type(t, _GROUND))
    if how == 1:
        return opaque(subst_type(t, _GROUND))
    if how == 2 or isinstance(t, Var):
        return data.draw(st.sampled_from(_FUN_POOL))
    if isinstance(t, (Prod, Sum)):
        node = g.ProdF if isinstance(t, Prod) else g.SumF
        return node(_draw_fun_along(data, t.left), _draw_fun_along(data, t.right))
    if isinstance(t, App):
        return g.Lift(t.ctor, tuple(_draw_fun_along(data, a) for a in t.args))
    return g.Id(t)


class TestMapApply:
    def prep(self, vp, term_text, spec_text):
        typed = g.infer(g.parse_term(term_text, vp), vp)
        spec = g.parse_spec(spec_text, vp)
        g.check_call_invariants(typed, spec, g.spec_head_arity(spec, vp))
        return typed, spec

    def test_identity_preserves_term(self, nested_vp):
        typed, _ = self.prep(nested_vp, LISTS_TERM, "List b1")
        assert g.map_apply(g.Id(typed.type_of(typed.root)), typed).term == typed.term

    def test_lifted_identity_preserves_term(self, nested_vp):
        typed, _ = self.prep(nested_vp, LISTS_TERM, "List b1")
        wrapped = g.Lift("List", (g.Id(App("List", (NAT,))),))
        assert g.map_apply(wrapped, typed).term == typed.term

    def test_opaque_replaces_subterms(self, nested_vp):
        typed, _ = self.prep(nested_vp, "cons 1 (cons 2 nil)", "List b1")
        result = g.map_apply(g.Lift("List", (opaque(NAT),)), typed).term
        assert isinstance(result, g.Ctor)
        assert isinstance(result.args[0], g.Const)
        assert isinstance(result.args[1].args[0], g.Const)

    def test_product_with_identity_succeeds_on_feedback_term(self, g_vp):
        typed, _ = self.prep(g_vp, G_TERM_INJ, "G b1")
        wrapped = g.Lift("G", (g.ProdF(opaque(LIST_NAT), g.Id(NAT)),))
        rebuilt = g.map_apply(wrapped, typed)
        assert rebuilt is not None
        ty = rebuilt.type_of(rebuilt.root)
        assert isinstance(ty, App) and ty.ctor == "G"
        assert ty.args[0] == Prod(Atom("X"), NAT)

    def test_bare_opaque_fails_at_pair_indexed_constructor(self, g_vp):
        typed, _ = self.prep(g_vp, G_TERM_INJ, "G b1")
        wrapped = g.Lift("G", (opaque(Prod(LIST_NAT, NAT)),))
        assert g.map_apply(wrapped, typed) is None

    def test_non_identity_second_component_fails(self, g_vp):
        typed, _ = self.prep(g_vp, G_TERM_INJ, "G b1")
        wrapped = g.Lift("G", (g.ProdF(opaque(LIST_NAT, "X1"), opaque(NAT, "X2")),))
        assert g.map_apply(wrapped, typed) is None


class TestMappable:
    """A tuple is mappable only when it has one candidate per component of
    the specification's head."""

    @pytest.mark.parametrize("term,spec", [(LISTS_TERM, "List b1"), ("(1, tt)", "b1 * b2")])
    def test_tuples_of_the_wrong_length(self, nested_vp, term, spec):
        p = run_pipeline(nested_vp, term, spec)
        identity = tuple(map(g.Id, p.typed.witness.domains))
        assert mappable(identity, p.typed, p.spec)
        for wrong in ((), identity[:-1], identity + identity[:1]):
            assert not mappable(wrong, p.typed, p.spec), wrong


class TestEnumerate:
    def test_leaves_only_at_base_type(self, nested_vp):
        cands = g.enumerate_candidates(NAT, 1, nested_vp)
        assert len(cands) == 2
        assert any(isinstance(c, g.Opaque) for c in cands)
        assert g.Id(NAT) in cands

    def test_structured_domain(self, nested_vp):
        cands = g.enumerate_candidates(Prod(LIST_NAT, NAT), 2, nested_vp)
        rendered = {g.pretty(c) for c in cands}
        assert "id@(List Nat * Nat)" in rendered
        assert "id@(List Nat) * id@Nat" in rendered
        assert "List (id@Nat) * id@Nat" in rendered
        assert len(cands) == g.count_candidates(Prod(LIST_NAT, NAT), 2, nested_vp) == 10

    def test_no_lift_at_proper_gadt_domains(self, seq_vp):
        cands = g.enumerate_candidates(App("Seq", (NAT,)), 3, seq_vp)
        assert not any(isinstance(c, g.Lift) for c in cands)
        assert len(cands) == 2

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_count_matches_enumeration(self, nested_vp, depth):
        for domain in [
            NAT,
            LIST_NAT,
            Prod(LIST_NAT, NAT),
            App("List", (LIST_NAT,)),
            App("Rose", (NAT,)),
            Prod(NAT, Prod(NAT, NAT)),
        ]:
            cands = g.enumerate_candidates(domain, depth, nested_vp)
            assert len(cands) == g.count_candidates(domain, depth, nested_vp)
            # distinct opaque leaves carry distinct codomain atoms
            assert len(set(map(g.pretty, cands))) == len(cands)


class TestSharedCandidates:
    """Candidates are built over one sub-pool per sub-domain, and the tuples
    `agrees` checks never share an opaque function between positions."""

    def test_equal_sub_candidates_are_one_object(self, nested_vp):
        cands = g.enumerate_candidates(Prod(LIST_NAT, NAT), 2, nested_vp)
        products = [c for c in cands if isinstance(c, g.ProdF)]
        assert len(products) == 8
        for a, b in itertools.combinations(products, 2):
            for x, y in ((a.left, b.left), (a.right, b.right)):
                assert (x == y) == (x is y), (g.pretty(a), g.pretty(b))

    @pytest.mark.parametrize(
        "key,term,spec,int_lits", CORPUS + [("nested", "(1, 2)", "b1 * b2", False)]
    )
    def test_opaque_atoms_are_distinct_in_every_tuple(
        self, programs, monkeypatch, key, term, spec, int_lits
    ):
        p = run_pipeline(programs[key], term, spec, int_lits)
        _, tuples = recorded_agrees(monkeypatch, p, 2)
        assert tuples
        for combo, _ in tuples:
            atoms, stack = [], list(combo)
            while stack:
                phi = stack.pop()
                if isinstance(phi, g.Opaque):
                    atoms.append(phi.codomain)
                stack.extend(fun_children(phi))
            assert len(set(atoms)) == len(atoms), [g.pretty(c) for c in combo]


class TestCheckerDerivations:
    """The checker's push memo is bounded by the candidates' sub-expressions,
    and the enumeration the candidates come from keeps its order and its
    atom names."""

    DOMAINS = [
        ("nested", NAT),
        ("nested", Prod(LIST_NAT, NAT)),
        ("nested", Sum(NAT, Base("Bool"))),
        ("nested", App("PTree", (Prod(NAT, NAT),))),
        ("seq", App("Seq", (NAT,))),
    ]

    def test_push_memo_does_not_grow_per_tuple(self, nested_vp):
        # One head lift per candidate tuple, pushed through the root without
        # a memo: below it, the pushes must be keyed on the candidates' own
        # sub-expressions, so there are fewer of them than tuples.
        report = run_pipeline(nested_vp, "((1, 2), (3, tt))", "b1 * b2")
        typed, checker = report.typed, Checker(report.typed)
        pools = [g.enumerate_candidates(d, 2, nested_vp) for d in typed.witness.domains]
        subexpressions, stack = set(), [c for pool in pools for c in pool]
        while stack:
            phi = stack.pop()
            subexpressions.add(phi)
            stack.extend(g.funexpr.fun_children(phi))
        tuples = list(itertools.product(*pools))
        for combo in tuples:
            mappable(combo, typed, report.spec, checker)
        assert 0 < len(checker._pushes) < len(tuples)
        assert all(phi in subexpressions for _, phi in checker._pushes)

    def test_enumeration_order_and_atom_names(self, programs):
        rendered = {
            str(domain): [g.pretty(c) for c in g.enumerate_candidates(domain, 3, programs[key])]
            for key, domain in self.DOMAINS
        }
        assert rendered == {
            "Nat": ["?(Nat -> X0)", "id@Nat"],
            "List Nat * Nat": [
                "?(List Nat * Nat -> X0)",
                "id@(List Nat * Nat)",
                "?(List Nat -> X1) * ?(Nat -> X3)",
                "?(List Nat -> X1) * id@Nat",
                "id@(List Nat) * ?(Nat -> X3)",
                "id@(List Nat) * id@Nat",
                "List (?(Nat -> X2)) * ?(Nat -> X3)",
                "List (?(Nat -> X2)) * id@Nat",
                "List (id@Nat) * ?(Nat -> X3)",
                "List (id@Nat) * id@Nat",
            ],
            "Nat + Bool": [
                "?(Nat + Bool -> X0)",
                "id@(Nat + Bool)",
                "?(Nat -> X1) + ?(Bool -> X2)",
                "?(Nat -> X1) + id@Bool",
                "id@Nat + ?(Bool -> X2)",
                "id@Nat + id@Bool",
            ],
            "PTree (Nat * Nat)": [
                "?(PTree (Nat * Nat) -> X0)",
                "id@(PTree (Nat * Nat))",
                "PTree (?(Nat * Nat -> X1))",
                "PTree (id@(Nat * Nat))",
                "PTree (?(Nat -> X2) * ?(Nat -> X3))",
                "PTree (?(Nat -> X2) * id@Nat)",
                "PTree (id@Nat * ?(Nat -> X3))",
                "PTree (id@Nat * id@Nat)",
            ],
            "Seq Nat": ["?(Seq Nat -> X0)", "id@(Seq Nat)"],
        }


class TestIsInstance:
    def test_free_variable_matches_anything(self):
        form = (g.FunVar("f", "", 1, prime=True),)
        assert g.is_instance(form, (opaque(NAT),))
        assert g.is_instance(form, (g.Id(NAT),))

    def test_shared_variable_requires_equal_candidates(self):
        v = g.FunVar("f", "", 1, prime=True)
        form = (v, v)
        assert g.is_instance(form, (g.Id(NAT), g.Id(NAT)))
        assert not g.is_instance(form, (opaque(NAT, "X1"), opaque(NAT, "X2")))

    def test_identity_normalization(self):
        form = (g.Lift("List", (g.FunVar("f", "", 1, prime=True),)),)
        assert g.is_instance(form, (g.Id(LIST_NAT),))
        assert not g.is_instance(form, (opaque(LIST_NAT),))

    def test_fixed_identity_component(self):
        form = (g.ProdF(g.FunVar("f", "", 1, prime=True), g.Id(NAT)),)
        assert g.is_instance(form, (g.ProdF(opaque(LIST_NAT), g.Id(NAT)),))
        assert not g.is_instance(form, (g.ProdF(opaque(LIST_NAT), opaque(NAT)),))


class TestAgreement:
    @pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
    def test_corpus_agrees_at_depth_two(self, programs, key, term, spec, int_lits):
        p = run_pipeline(programs[key], term, spec, int_lits)
        report = g.agrees(p.form, p.typed, p.spec, 2)
        assert report.agrees, report.disagreements

    @pytest.mark.parametrize(
        "term,spec,checked", [(*case, n) for case, n in zip(SUM_INDEXED_TERMS, (10, 6, 14, 8))]
    )
    def test_sum_indexed_constructors_agree_at_depth_two(self, sum_vp, term, spec, checked):
        p = run_pipeline(sum_vp, term, spec)
        report = g.agrees(p.form, p.typed, p.spec, 2)
        assert report.agrees, report.disagreements
        assert report.checked == checked

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize(
        "key,term,spec,checked",
        [(*case, n) for case, n in zip(REPEATED_SPEC_VARIABLES, (4, 4, 6, 6, 6, 14, 16, 8))],
    )
    def test_repeated_spec_variables_agree(self, programs, key, term, spec, checked, depth):
        # A repeated variable makes the codomain check in `mappable` decide:
        # candidates that map its occurrences apart must be rejected.
        p = run_pipeline(programs[key], term, spec)
        report = g.agrees(p.form, p.typed, p.spec, depth)
        assert report.agrees, report.disagreements
        assert report.checked == checked

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("term,spec,checked", PROBE_TERMS)
    def test_probe_shapes_agree(self, probe_vp, term, spec, checked, depth):
        p = run_pipeline(probe_vp, term, spec)
        report = g.agrees(p.form, p.typed, p.spec, depth)
        assert report.agrees, report.disagreements
        assert report.checked == checked[depth - 2]

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("term,spec,form,checked", CLOSED_ARGS_TERMS)
    def test_closed_argument_types_agree(self, closed_args_vp, term, spec, form, checked, depth):
        p = run_pipeline(closed_args_vp, term, spec)
        assert ", ".join(map(g.pretty, p.form)) == form
        report = g.agrees(p.form, p.typed, p.spec, depth)
        assert report.agrees, report.disagreements
        assert report.checked == checked[depth - 2]

    @pytest.mark.parametrize("term", ["cons (1 : Int) nil", "cons 1 (cons (2 : Int) nil)"])
    def test_annotated_literals_keep_their_type(self, nested_vp, term):
        # The typed tree drops annotations; the identity must still map the
        # term to itself at Int, not at a re-defaulted Nat.
        p = run_pipeline(nested_vp, term, "List b1")
        report = g.agrees(p.form, p.typed, p.spec, 2)
        assert report.agrees, report.disagreements
        assert report.checked == 2

    def test_unique_survivor_for_flat_term(self, g_vp):
        from conftest import G_TERM_FLAT

        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        report = g.agrees(p.form, p.typed, p.spec, 3)
        assert report.agrees
        survivors = {
            g.pretty(g.normalize(head_lift(p.spec, combo).args[0]))
            for combo in _combos(p, 3)
            if mappable(combo, p.typed, p.spec)
        }
        assert survivors == {"List (id@Nat) * id@Nat"}

    def test_mapped_results_keep_essential_constructors(self, g_vp):
        from conftest import G_TERM_FLAT

        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        original = p.run.annotation.term
        for combo in _combos(p, 2):
            if not mappable(combo, p.typed, p.spec):
                continue
            result = g.map_apply(head_lift(p.spec, combo), p.typed).term
            for path in p.run.annotation.essential:
                orig_node = subterm_at(original, path)
                new_node = subterm_at(result, path)
                assert type(orig_node) is type(new_node)
                if isinstance(orig_node, g.Ctor):
                    assert orig_node.name == new_node.name


def _combos(p, depth):
    pools = [g.enumerate_candidates(d, depth, p.typed.vp) for d in p.typed.witness.domains]
    return list(itertools.product(*pools))


@pytest.fixture(scope="module")
def sum_vp():
    return g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC))


@pytest.fixture(scope="module")
def closed_args_vp():
    return g.validate(g.parse_program(NESTED_SRC + CLOSED_ARGS_SRC))


@pytest.fixture(scope="module")
def probe_vp():
    return g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC + PROBE_SRC))


def reference_mappable(candidates, typed, spec) -> bool:
    """`mappable` as it was before candidates were checked: unify the
    codomain with the specification on a fresh store, rebuild the term and
    infer its type, then unify that with the codomain."""
    wrapped = head_lift(spec, candidates)
    cod = fun_type(wrapped, codomain=True)
    try:
        spec_instance(spec, cod, _Store())
    except g.TypeCheckError:
        return False
    rebuilt = g.map_apply(wrapped, typed)
    if rebuilt is None:
        return False
    try:
        rebuilt.unify_root(cod)
    except g.TypeCheckError:
        return False
    return True


def assert_same_verdicts(p, depth):
    combos = _combos(p, depth)
    assert combos
    for combo in combos:
        assert mappable(combo, p.typed, p.spec) == reference_mappable(combo, p.typed, p.spec), [
            g.pretty(c) for c in combo
        ]


class TestCheckerMatchesReference:
    """The checker decides every candidate tuple as the rebuilt term's
    inferred typing does."""

    @pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
    def test_corpus(self, programs, key, term, spec, int_lits):
        assert_same_verdicts(run_pipeline(programs[key], term, spec, int_lits), 3)

    @pytest.mark.parametrize("term,spec", SUM_INDEXED_TERMS)
    def test_sum_indexed(self, sum_vp, term, spec):
        assert_same_verdicts(run_pipeline(sum_vp, term, spec), 3)

    @pytest.mark.parametrize("key,term,spec", REPEATED_SPEC_VARIABLES)
    def test_repeated_spec_variables(self, programs, key, term, spec):
        assert_same_verdicts(run_pipeline(programs[key], term, spec), 3)

    @pytest.mark.parametrize("term,spec,_checked", PROBE_TERMS)
    def test_probe_shapes(self, probe_vp, term, spec, _checked):
        assert_same_verdicts(run_pipeline(probe_vp, term, spec), 3)

    NAT_BOOL = Prod(NAT, Base("Bool"))
    RANDOM_TYPES = [
        (App("List", (NAT_BOOL,)), ["List b1", "List (b1 * b2)", "List (b1 * Bool)"]),
        (App("List", (LIST_NAT,)), ["List b1", "List (List b1)"]),
        (App("PTree", (Prod(NAT, NAT),)), ["PTree b1", "PTree (b1 * b1)", "PTree (b1 * b2)"]),
        (App("Bush", (Sum(NAT, Base("Bool")),)), ["Bush b1", "Bush (b1 + b2)"]),
        (App("Rose", (LIST_NAT,)), ["Rose b1", "Rose (List b1)"]),
        (Prod(LIST_NAT, App("PTree", (NAT,))), ["List b1 * PTree b2", "List b1 * PTree b1"]),
    ]

    # One seed drawn from hypothesis, not `st.randoms`: every call on a
    # hypothesis-backed `Random` is a recorded draw, which cost more than the
    # checker under test.
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(RANDOM_TYPES),
        pick=st.integers(0, 2),
        depth=st.sampled_from([2, 3]),
    )
    def test_random_values(self, nested_vp, seed, case, pick, depth):
        ty, specs = case
        term = g.pretty(gen_value(random.Random(seed), ty, nested_vp, budget=3))
        assert_same_verdicts(run_pipeline(nested_vp, term, specs[pick % len(specs)]), depth)


class ThreeArgumentChecker:
    """A checker that threads the expected type through every call, taking
    binder instances from matching the return indices against it. Every call
    asserts that the expected type is the codomain of the function pushed
    through, the invariant that lets `Checker` carry no type."""

    def __init__(self, typed):
        self.vp = typed.vp
        self._memo = {}

    def _sub(self, phi, node, ty):
        key = (id(node), phi, ty)
        ok = self._memo.get(key)
        if ok is None:
            ok = self._memo[key] = self.check(phi, node, ty)
        return ok

    def check(self, phi, node, ty):
        assert ty == fun_type(phi, codomain=True), (g.pretty(phi), ty)
        if isinstance(phi, g.Opaque):
            return ty == phi.codomain
        if isinstance(phi, g.Id):
            if ty == node.type:
                return True
            phi = expand_id(phi)
        term = node.term
        if isinstance(phi, g.ProdF):
            return (
                isinstance(term, g.Pair)
                and isinstance(ty, Prod)
                and self._sub(phi.left, node.kids[0], ty.left)
                and self._sub(phi.right, node.kids[1], ty.right)
            )
        if isinstance(phi, g.SumF):
            if not isinstance(ty, Sum):
                return False
            if isinstance(term, g.Inl):
                return self._sub(phi.left, node.kids[0], ty.left)
            if isinstance(term, g.Inr):
                return self._sub(phi.right, node.kids[0], ty.right)
            return False
        if isinstance(phi, g.Lift):
            if not isinstance(term, g.Ctor):
                return False
            decl, sig = self.vp.ctor(term.name)
            if decl.name != phi.ctor:
                return False
            env = _binder_functions(sig, phi.args, node.instance)
            if env is None:
                return False
            theta = {}
            if not match_type(App(decl.name, sig.ret_indices), ty, theta):
                return False
            for binder, t in zip(sig.type_vars, node.instance):
                theta.setdefault(binder, t)
            return all(
                self._sub(lift_type(arg_ty, env), kid, subst_type(arg_ty, theta))
                for arg_ty, kid in zip(sig.arg_types, node.kids)
            )
        return False


def three_argument_mappable(candidates, typed, spec, checker) -> bool:
    wrapped = head_lift(spec, candidates)
    cod = fun_type(wrapped, codomain=True)
    return match_type(spec, cod, {}) and checker.check(wrapped, typed.root, cod)


def assert_same_as_three_argument_checker(vp, term_text, spec_text, int_literals=False):
    """Type the term and instantiate the specification (the analysis itself
    is not needed). Then, on every candidate tuple at depth 3, each sharing
    one checker of either kind as `agrees` does, the expected type is always
    the codomain and the two checkers give the same verdict."""
    typed = g.infer(g.parse_term(term_text, vp), vp, int_literals)
    spec = g.parse_spec(spec_text, vp)
    g.check_call_invariants(typed, spec, g.spec_head_arity(spec, vp))
    checker, reference = Checker(typed), ThreeArgumentChecker(typed)
    pools = [g.enumerate_candidates(d, 3, vp) for d in typed.witness.domains]
    for combo in itertools.product(*pools):
        assert mappable(combo, typed, spec, checker) == three_argument_mappable(
            combo, typed, spec, reference
        ), (term_text, spec_text, [g.pretty(c) for c in combo])


class TestCheckerNeedsNoExpectedType:
    # One test per case list, each looping over its cases: the checks are
    # cheap, and one test item per case would cost more than the checks.

    def test_corpus(self, programs):
        for key, term, spec, int_lits in CORPUS:
            assert_same_as_three_argument_checker(programs[key], term, spec, int_lits)

    def test_sum_indexed(self, sum_vp):
        for term, spec in SUM_INDEXED_TERMS:
            assert_same_as_three_argument_checker(sum_vp, term, spec)

    def test_repeated_spec_variables(self, programs):
        for key, term, spec in REPEATED_SPEC_VARIABLES:
            assert_same_as_three_argument_checker(programs[key], term, spec)

    def test_probe_shapes(self, probe_vp):
        for term, spec, _checked in PROBE_TERMS:
            assert_same_as_three_argument_checker(probe_vp, term, spec)

    def test_random_values(self, nested_vp):
        rng = random.Random(0)
        for ty, specs in TestCheckerMatchesReference.RANDOM_TYPES:
            for spec in specs:
                term = g.pretty(gen_value(rng, ty, nested_vp, budget=3))
                assert_same_as_three_argument_checker(nested_vp, term, spec)


class TestIdentityAtAnotherType:
    """An identity at a type other than its subterm's is expanded one step
    and the expansion pushed through. No candidate tuple of CORPUS or
    PROBE_TERMS pushes one at depths 2 and 3, so the branch is checked here
    directly, against the checker that is passed the expected type."""

    @pytest.mark.parametrize(
        "term,at,expected",
        [
            ("(1, tt)", "Nat * Nat", False),
            ("(1, 2)", "List Nat", False),
            # The expansion recovers `id@Bool`, and `nil` holds no data.
            ("(nil : List Nat)", "List Bool", True),
        ],
    )
    def test_verdict(self, nested_vp, term, at, expected):
        typed = g.infer(g.parse_term(term, nested_vp), nested_vp)
        phi = g.Id(g.parse_spec(at, nested_vp))
        assert phi.at != typed.root.type
        assert Checker(typed).check(phi, typed.root) is expected
        assert ThreeArgumentChecker(typed).check(phi, typed.root, phi.at) is expected


def reference_pools(domains, depth, vp):
    """The enumeration before sub-pools were shared: the right pool of a
    product or sum is enumerated again for every left candidate, each time
    with fresh atoms (numbered across all domains, as `agrees` numbers them)."""
    counter = itertools.count()

    def enum(domain, depth):
        out = [g.Opaque(domain, Atom(f"X{next(counter)}")), g.Id(domain)]
        if depth >= 1:
            if isinstance(domain, (Prod, Sum)):
                node = g.ProdF if isinstance(domain, Prod) else g.SumF
                for l in enum(domain.left, depth - 1):
                    for r in enum(domain.right, depth - 1):
                        out.append(node(l, r))
            elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
                for combo in itertools.product(*(enum(a, depth - 1) for a in domain.args)):
                    out.append(g.Lift(domain.ctor, combo))
        return out

    return [enum(d, depth) for d in domains]


class ReferenceChecker(Checker):
    """The checker before push plans: the `Lift` case looks the constructor
    up and lifts every argument type with `lift_type` on each push."""

    def check(self, phi, node):
        if isinstance(phi, g.Lift):
            term = node.term
            if not isinstance(term, g.Ctor):
                return False
            decl, sig = self.vp.ctor(term.name)
            if decl.name != phi.ctor:
                return False
            env = _binder_functions(sig, phi.args, node.instance)
            if env is None:
                return False
            for arg_ty, kid in zip(sig.arg_types, node.kids):
                if not self._sub(lift_type(arg_ty, env), kid):
                    return False
            return True
        return super().check(phi, node)


def reference_agrees(p, depth):
    """`agrees` over `reference_pools` with a `ReferenceChecker`: the report
    and each tuple's verdict, in enumeration order."""
    checker = ReferenceChecker(p.typed)
    verdicts, disagreements = [], []
    for combo in itertools.product(*reference_pools(p.typed.witness.domains, depth, p.typed.vp)):
        ok = mappable(combo, p.typed, p.spec, checker)
        instance = g.is_instance(p.form, combo)
        verdicts.append(ok)
        if ok != instance:
            disagreements.append(g.Disagreement(combo, ok, instance))
    return g.AgreementReport(not disagreements, len(verdicts), disagreements), verdicts


def recorded_agrees(monkeypatch, p, depth):
    """`agrees` on a pipeline result, with every tuple it checks and its
    verdict, in the order checked."""
    tuples = []

    def record(candidates, typed, spec, checker=None):
        ok = mappable(candidates, typed, spec, checker)
        tuples.append((candidates, ok))
        return ok

    monkeypatch.setattr(oracle, "mappable", record)
    return g.agrees(p.form, p.typed, p.spec, depth), tuples


def report_flags(report):
    return report.agrees, report.checked, [(d.mappable, d.instance) for d in report.disagreements]


class TestSharedCandidatesMatchReference:
    """Shared sub-pools and push plans give every tuple the verdict the
    re-enumerated candidate at the same index gets from the plain checker."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_verdicts_and_reports(self, programs, sum_vp, probe_vp, monkeypatch, depth):
        cases = [(programs[k], t, s, lits) for k, t, s, lits in CORPUS]
        cases += [(probe_vp, t, s, False) for t, s, _checked in PROBE_TERMS]
        cases += [(sum_vp, t, s, False) for t, s in SUM_INDEXED_TERMS]
        for vp, term, spec, lits in cases:
            p = run_pipeline(vp, term, spec, lits)
            report, tuples = recorded_agrees(monkeypatch, p, depth)
            expected, verdicts = reference_agrees(p, depth)
            assert [ok for _, ok in tuples] == verdicts, (term, spec)
            assert report_flags(report) == report_flags(expected), (term, spec)


def extended_pools(domains, depth, vp):
    """`enumerate_candidates` of each domain, with the atoms numbered once
    across all of them, plus one type-preserving opaque function,
    `Opaque(d, d)`, at every pool level."""
    counter = itertools.count()

    def enum(domain, depth):
        out = [g.Opaque(domain, Atom(f"X{next(counter)}")), g.Id(domain)]
        out.append(g.Opaque(domain, domain))
        if depth >= 1:
            if isinstance(domain, (Prod, Sum)):
                node = g.ProdF if isinstance(domain, Prod) else g.SumF
                lefts, rights = enum(domain.left, depth - 1), enum(domain.right, depth - 1)
                for l, r in itertools.product(lefts, rights):
                    out.append(node(l, r))
            elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
                for combo in itertools.product(*(enum(a, depth - 1) for a in domain.args)):
                    out.append(g.Lift(domain.ctor, combo))
        return out

    return [enum(d, depth) for d in domains]


def disagreements_over(p, pools):
    """The tuples over `pools` on which `mappable` and the most general form
    disagree, checked with one checker as `agrees` checks them."""
    checker = Checker(p.typed)
    return [
        combo
        for combo in itertools.product(*pools)
        if mappable(combo, p.typed, p.spec, checker) != g.is_instance(p.form, combo)
    ]


class TestExtendedPools:
    """With a type-preserving opaque candidate at every pool level, the
    oracle should still agree with the analysis on every case."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 1: `mappable` judges an opaque candidate by its codomain "
        "type, so a type-preserving one passes where the form asks for a map or an identity",
    )
    def test_all_cases_agree_at_depth_two(self, programs, sum_vp, probe_vp, closed_args_vp):
        cases = [(programs[k], t, s, lits) for k, t, s, lits in CORPUS]
        cases += [(probe_vp, t, s, False) for t, s, _checked in PROBE_TERMS]
        cases += [(sum_vp, t, s, False) for t, s in SUM_INDEXED_TERMS]
        cases += [(closed_args_vp, t, s, False) for t, s, _form, _checked in CLOSED_ARGS_TERMS]
        assert len(cases) == 40
        disagreeing = []
        for vp, term, spec, lits in cases:
            p = run_pipeline(vp, term, spec, lits)
            bad = disagreements_over(p, extended_pools(p.typed.witness.domains, 2, vp))
            if bad:
                disagreeing.append((term, spec, len(bad)))
        assert not disagreeing, disagreeing
