"""Randomized end-to-end properties.

Type-directed generators build well-typed terms, including terms of the
proper GADTs whose constructors feed each other; every generated term is
analyzed and cross-checked against the brute-force oracle.
"""
from __future__ import annotations

import random

import pytest

import gadtmap as g
from gadtmap.syntax import App, Base, Prod, Sum

from conftest import gen_value, run_pipeline

NAT = Base("Nat")
BOOL = Base("Bool")


def pipeline_and_oracle(vp, term, spec_text, depth):
    report = g.analyze(vp, term, g.parse_spec(spec_text, vp), verify_depth=depth)
    assert report.status == "Mappable", report.detail
    assert report.verify.agrees, (
        g.pretty(term),
        spec_text,
        [g.pretty(f) for f in report.form],
        [
            ([g.pretty(c) for c in d.candidates], d.mappable, d.instance)
            for d in report.verify.disagreements
        ],
    )
    return report.form


def gen_seq(rng: random.Random, ty, vp, budget: int) -> g.Term:
    """A random term of type Seq ty."""
    if budget > 0 and isinstance(ty, Prod) and rng.random() < 0.7:
        return g.Ctor(
            "pair",
            (gen_seq(rng, ty.left, vp, budget - 1), gen_seq(rng, ty.right, vp, budget - 1)),
        )
    return g.Ctor("const", (gen_value(rng, ty, vp, budget),))


class TestRandomSeqTerms:
    TYPES = [
        NAT,
        Prod(NAT, BOOL),
        Prod(Prod(NAT, BOOL), NAT),
        Prod(Prod(NAT, NAT), Prod(BOOL, BOOL)),
    ]

    def test_agreement(self, seq_vp):
        rng = random.Random(7)
        for i in range(30):
            ty = self.TYPES[i % len(self.TYPES)]
            term = gen_seq(rng, ty, seq_vp, budget=3)
            pipeline_and_oracle(seq_vp, term, "Seq b1", depth=2)


def _g_value(rng, ty, vp, budget):
    # Values whose types may mention G itself (e.g. elements of List (G a)).
    if isinstance(ty, App) and ty.ctor == "G":
        return gen_g(rng, ty.args[0], vp, budget)
    if isinstance(ty, App) and ty.ctor == "List":
        if budget <= 0 or rng.random() < 0.3:
            return g.Ctor("nil", ())
        return g.Ctor(
            "cons",
            (_g_value(rng, ty.args[0], vp, budget - 1), _g_value(rng, ty, vp, budget - 1)),
        )
    if isinstance(ty, Prod):
        return g.Pair(_g_value(rng, ty.left, vp, budget), _g_value(rng, ty.right, vp, budget))
    if isinstance(ty, Sum):
        if rng.random() < 0.5:
            return g.Inl(_g_value(rng, ty.left, vp, budget))
        return g.Inr(_g_value(rng, ty.right, vp, budget))
    return gen_value(rng, ty, vp, budget)


def gen_g(rng: random.Random, ty, vp, budget: int) -> g.Term:
    """A random term of type G ty, using every constructor that can build it.

    pairing and projpair both target product indices and flat targets list
    indices, so generated terms exercise the constructor feedback loops.
    """
    options = [lambda: g.Ctor("inj", (_g_value(rng, ty, vp, budget),))]
    if budget > 0:
        if ty == NAT:
            options.append(lambda: g.Ctor("const", ()))
        if isinstance(ty, Prod):
            options.append(
                lambda: g.Ctor(
                    "pairing",
                    (gen_g(rng, ty.left, vp, budget - 1), gen_g(rng, ty.right, vp, budget - 1)),
                )
            )
            options.append(
                lambda: g.Ctor(
                    "projpair",
                    (
                        gen_g(
                            rng,
                            Prod(
                                App("G", (ty.left,)),
                                App("G", (Prod(ty.right, ty.right),)),
                            ),
                            vp,
                            budget - 1,
                        ),
                    ),
                )
            )
        if isinstance(ty, App) and ty.ctor == "List":
            options.append(
                lambda: g.Ctor(
                    "flat",
                    (_g_value(rng, App("List", (App("G", ty.args),)), vp, budget - 1),),
                )
            )
    return rng.choice(options)()


class TestRandomGTerms:
    TYPES = [
        NAT,
        App("List", (NAT,)),
        Prod(NAT, NAT),
        Prod(App("List", (NAT,)), NAT),
        Prod(Prod(NAT, NAT), App("List", (NAT,))),
        App("List", (Prod(NAT, NAT),)),
    ]

    def test_agreement(self, g_vp):
        rng = random.Random(20)
        for i in range(36):
            ty = self.TYPES[i % len(self.TYPES)]
            term = gen_g(rng, ty, g_vp, budget=3)
            pipeline_and_oracle(g_vp, term, "G b1", depth=2)


EXOTIC_SRC = """
data E : Set -> Set where
  hide : forall a b. b -> E a ;
  emk  : forall a. a -> E a

data W : Set -> Set -> Set where
  wmk  : forall a b. a -> b -> W a b ;
  swap : forall a b. W a b -> W b a
"""


@pytest.fixture(scope="module")
def exotic_vp():
    return g.validate(g.parse_program(EXOTIC_SRC))


@pytest.fixture(scope="module")
def unit_vp():
    return g.validate(
        g.parse_program(
            "data U : Set where mk : U ; mk2 : U\n"
            "data List : Set -> Set where nil : forall a. List a ; "
            "cons : forall a. a -> List a -> List a"
        )
    )


class TestExoticGadts:
    """Existential binders and index-permuting constructors."""

    def test_both_are_proper(self, exotic_vp):
        # hide's binder tuple is longer than the index tuple; swap permutes it
        assert exotic_vp.proper_flags == {"E": True, "W": True}

    @pytest.mark.parametrize(
        "term,spec,expected_form",
        [
            ("hide 5", "E b1", ["f'1"]),
            ("hide (5, tt)", "E b1", ["f'1"]),
            ("emk (hide 1)", "E (E b1)", ["E f'1"]),
            ("swap (wmk 1 tt)", "W b1 b2", ["f'1", "f'2"]),
            ("swap (swap (wmk 1 tt))", "W b1 b2", ["f'1", "f'2"]),
            ("wmk (hide 1) 2", "W (E b1) b2", ["E f'1", "f'2"]),
        ],
    )
    def test_forms_and_agreement(self, exotic_vp, term, spec, expected_form):
        term_ast = g.parse_term(term, exotic_vp)
        form = pipeline_and_oracle(exotic_vp, term_ast, spec, depth=3)
        assert [g.pretty(f) for f in form] == expected_form

    def test_existential_data_is_incidental(self, exotic_vp):
        p = run_pipeline(exotic_vp, "hide (5, tt)", "E b1")
        assert frozenset(p.run.annotation.essential) == frozenset({()})

    def test_permuted_indices_cross_wire(self, exotic_vp):
        p = run_pipeline(exotic_vp, "swap (wmk 1 tt)", "W b1 b2")
        rendered = [g.pretty(c) for c in p.run.constraints]
        assert "<g1^1.1, g2^1>" in rendered and "<g2^1.1, g1^1>" in rendered


class TestZeroArity:
    def test_zero_arity_spec_head(self, unit_vp):
        # no specification arguments means no input functions and no constraints
        term = g.parse_term("mk", unit_vp)
        spec = g.parse_spec("U", unit_vp)
        assert g.spec_head_arity(spec, unit_vp) == 0
        report = g.analyze(unit_vp, term, spec, verify_depth=2)
        assert report.status == "Mappable", report.detail
        assert report.run.constraints == [] and report.run.root_funs == ()
        assert report.form == ()
        assert report.verify.agrees

    def test_zero_arity_type_as_element(self, unit_vp):
        term = g.parse_term("cons mk (cons mk2 nil)", unit_vp)
        form = pipeline_and_oracle(unit_vp, term, "List b1", depth=3)
        assert [g.pretty(f) for f in form] == ["f'1"]

    def test_closed_spec_over_zero_arity_type(self, unit_vp):
        term = g.parse_term("cons mk nil", unit_vp)
        form = pipeline_and_oracle(unit_vp, term, "List U", depth=3)
        assert [g.pretty(f) for f in form] == ["id@U"]


class TestRandomNestedTerms:
    def test_deep_list_spec_agreement(self, nested_vp):
        rng = random.Random(33)
        for _ in range(20):
            term = gen_value(rng, App("List", (App("List", (NAT,)),)), nested_vp, budget=4)
            form = pipeline_and_oracle(nested_vp, term, "List (List b1)", depth=2)
            assert g.pretty(form[0]) in ("List f'1",)

    def test_shallow_specs_never_constrain(self, nested_vp):
        rng = random.Random(34)
        for decl_name in ("List", "PTree", "Bush", "Rose"):
            for _ in range(10):
                term = gen_value(rng, App(decl_name, (NAT,)), nested_vp, budget=4)
                form = pipeline_and_oracle(nested_vp, term, f"{decl_name} b1", depth=2)
                assert isinstance(form[0], g.FunVar)

    def test_identity_law_on_random_terms(self, nested_vp):
        rng = random.Random(35)
        for _ in range(20):
            term = gen_value(rng, App("Rose", (NAT,)), nested_vp, budget=4)
            typed = g.analyze(nested_vp, term, g.parse_spec("Rose b1", nested_vp)).typed
            assert g.map_apply(g.Id(typed.type_of(typed.root)), typed).term == typed.term
            wrapped = g.Lift("Rose", (g.Id(NAT),))
            assert g.map_apply(wrapped, typed).term == typed.term
