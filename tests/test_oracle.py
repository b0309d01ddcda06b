"""The brute-force validator: component recovery, map application, candidate
enumeration, and agreement with the analysis."""
from __future__ import annotations

import pytest

import gadtmap as g
from gadtmap.oracle import head_lift, mappable
from gadtmap.syntax import App, Atom, Base, Prod, Var

from conftest import CORPUS, G_TERM_INJ, LISTS_TERM, NESTED_SRC, run_pipeline

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
        "term,spec,checked",
        [
            ("sw (sl (cons 1 nil))", "S b1", 10),
            ("sr tt", "S b1", 6),
            ("sl (inr 2 : Bool + Nat)", "S b1", 14),
            ("inr (cons 1 nil)", "b1 + List b2", 8),
        ],
    )
    def test_sum_indexed_constructors_agree_at_depth_two(self, term, spec, checked):
        vp = g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC))
        p = run_pipeline(vp, term, spec)
        report = g.agrees(p.form, p.typed, p.spec, 2)
        assert report.agrees, report.disagreements
        assert report.checked == checked

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize(
        "key,term,spec,checked",
        [
            ("g", "(1, 2)", "b1 * b1", 4),
            ("g", "inl 1", "b1 + b1", 4),
            ("g", "pairing (inj 1) (inj 2)", "G (b1 * b1)", 6),
            ("seq", "pair (const 1) (const 1)", "Seq (b1 * b1)", 6),
            ("seq", "const (1, 1)", "Seq (b1 * b1)", 6),
            ("seq", "pair (const (1, 2)) (const 1)", "Seq ((b1 * b2) * b1)", 14),
            ("nested", "(cons 1 nil, cons 2 nil)", "List b1 * List b1", 16),
        ],
    )
    def test_repeated_spec_variables_agree(self, programs, key, term, spec, checked, depth):
        # A repeated variable makes the codomain check in `mappable` decide:
        # candidates that map its occurrences apart must be rejected.
        p = run_pipeline(programs[key], term, spec)
        report = g.agrees(p.form, p.typed, p.spec, depth)
        assert report.agrees, report.disagreements
        assert report.checked == checked

    def test_unique_survivor_for_flat_term(self, g_vp):
        from conftest import G_TERM_FLAT

        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        report = g.agrees(p.form, p.typed, p.spec, 3)
        assert report.agrees
        survivors = {
            g.pretty(g.normalize(head_lift(p.spec.shape, combo).args[0]))
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
            result = g.map_apply(head_lift(p.spec.shape, combo), p.typed).term
            for path in p.run.annotation.essential:
                orig_node = g.syntax.subterm_at(original, path)
                new_node = g.syntax.subterm_at(result, path)
                assert type(orig_node) is type(new_node)
                if isinstance(orig_node, g.Ctor):
                    assert orig_node.name == new_node.name


def _combos(p, depth):
    import itertools

    pools = [g.enumerate_candidates(d, depth, p.typed.vp) for d in p.typed.witness.domains]
    return list(itertools.product(*pools))
