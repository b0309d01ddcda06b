"""Parsing and printing: grammar coverage, error positions, round trips."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import gadtmap as g
from gadtmap.syntax import App, Base, Prod, Sum, Var

from conftest import CORPUS, PROGRAM_SOURCES, run_pipeline


class TestParseProgram:
    def test_seq_program(self):
        prog = g.parse_program(
            "data Seq : Set -> Set where const : forall a. a -> Seq a ; "
            "pair : forall a b. Seq a -> Seq b -> Seq (a * b)"
        )
        assert len(prog.decls) == 1
        seq = prog.decls[0]
        assert seq.name == "Seq" and seq.arity == 1
        assert [c.name for c in seq.ctors] == ["const", "pair"]
        pair = seq.ctors[1]
        assert pair.type_vars == ("a", "b")
        assert pair.arg_types == (App("Seq", (Var("a"),)), App("Seq", (Var("b"),)))
        assert pair.ret_indices == (Prod(Var("a"), Var("b")),)

    def test_empty_input(self):
        assert g.parse_program("") == g.Program(())

    def test_arrow_in_argument_type_is_syntax_error(self):
        with pytest.raises(g.ParseError) as ei:
            g.parse_program("data G : Set -> Set where c : forall a. (a -> a) -> G a")
        assert "arrow" in str(ei.value)

    def test_duplicate_declaration_name(self):
        src = "data A : Set where x : A\ndata A : Set where y : A"
        with pytest.raises(g.ParseError, match="duplicate declaration"):
            g.parse_program(src)

    def test_duplicate_constructor_name(self):
        src = "data A : Set where x : A\ndata B : Set where x : B"
        with pytest.raises(g.ParseError, match="duplicate constructor"):
            g.parse_program(src)

    def test_unbound_type_variable(self):
        with pytest.raises(g.ParseError, match="unbound type variable"):
            g.parse_program("data A : Set -> Set where c : forall a. b -> A a")

    def test_return_type_must_be_owner(self):
        with pytest.raises(g.ParseError, match="must be an application"):
            g.parse_program(
                "data A : Set -> Set where c : forall a. a -> a"
            )

    def test_nullary_constructor_without_forall(self):
        prog = g.parse_program("data G : Set -> Set where const : G Nat")
        sig = prog.decls[0].ctors[0]
        assert sig.type_vars == () and sig.arg_types == ()
        assert sig.ret_indices == (Base("Nat"),)

    def test_errors_carry_positions(self):
        with pytest.raises(g.ParseError) as ei:
            g.parse_program("data A : Set where\n  c : %")
        assert ei.value.line == 2 and ei.value.col > 0

    def test_zero_arity_declaration(self):
        prog = g.parse_program("data U : Set where mk : U")
        assert prog.decls[0].arity == 0

    def test_comments_are_skipped(self):
        prog = g.parse_program("-- just lists\ndata L : Set -> Set where n : forall a. L a")
        assert prog.decls[0].name == "L"


class TestParseTerm:
    def test_nested_constructor_application(self, seq_vp):
        t = g.parse_term("pair (const tt) (const 2)", seq_vp)
        assert t == g.Ctor(
            "pair",
            (g.Ctor("const", (g.Lit("tt", "Bool"),)), g.Ctor("const", (g.Lit("2"),))),
        )

    def test_pair_of_terms(self, g_vp):
        t = g.parse_term("(inj 2, const)", g_vp)
        assert t == g.Pair(g.Ctor("inj", (g.Lit("2"),)), g.Ctor("const", ()))

    def test_under_application_is_an_error(self, seq_vp):
        with pytest.raises(g.ParseError, match="expects 2 argument"):
            g.parse_term("pair (const tt)", seq_vp)

    def test_unknown_constructor(self, seq_vp):
        with pytest.raises(g.ParseError, match="unknown constructor"):
            g.parse_term("snoc 1", seq_vp)

    def test_injections_and_literals(self, nested_vp):
        t = g.parse_term("cons (inl -3) nil", nested_vp)
        assert t == g.Ctor("cons", (g.Inl(g.Lit("-3", "Int")), g.Ctor("nil", ())))

    def test_annotation(self, nested_vp):
        t = g.parse_term("(2 : Int)", nested_vp)
        assert t == g.Ann(g.Lit("2"), Base("Int"))

    def test_annotation_must_be_closed(self, nested_vp):
        with pytest.raises(g.ParseError, match="closed"):
            g.parse_term("(2 : a)", nested_vp)


class TestParseSpec:
    def test_shallow(self, seq_vp):
        spec = g.parse_spec("Seq b1", seq_vp)
        assert spec.shape == App("Seq", (Var("b1"),))
        assert spec.vars == ("b1",)

    def test_deep_vars_deduplicated(self, nested_vp):
        spec = g.parse_spec("List (List b1)", nested_vp)
        assert spec.vars == ("b1",)

    def test_product_spec_var_order(self, nested_vp):
        spec = g.parse_spec("b1 * b2", nested_vp)
        assert spec.shape == Prod(Var("b1"), Var("b2"))
        assert spec.vars == ("b1", "b2")

    def test_unknown_constructor(self, nested_vp):
        with pytest.raises(g.ParseError, match="unknown type constructor"):
            g.parse_spec("Tree b1", nested_vp)

    def test_arity_mismatch(self, nested_vp):
        with pytest.raises(g.ParseError, match="applied to 2"):
            g.parse_spec("List b1 b2", nested_vp)


class TestPretty:
    def test_type_rendering(self):
        assert g.pretty(Prod(Var("b1"), Base("Nat"))) == "b1 * Nat"
        assert g.pretty(App("List", (App("G", (Var("a"),)),))) == "List (G a)"
        assert g.pretty(Sum(Prod(Var("a"), Var("b")), Base("Unit"))) == "(a * b) + Unit"

    def test_fun_rendering(self):
        f1 = g.FunVar("f", "", 1)
        assert g.pretty(g.ProdF(f1, g.Id(Base("Nat")))) == "f1 * id@Nat"
        assert g.pretty(g.Lift("List", (g.Id(Base("Nat")),))) == "List (id@Nat)"
        assert (
            g.pretty(
                g.ProdF(
                    g.Lift("G", (g.FunVar("h", "1", 1),)),
                    g.Lift("G", (g.ProdF(g.FunVar("h", "1", 2), g.FunVar("h", "1", 2)),)),
                )
            )
            == "G h1^1 * G (h2^1 * h2^1)"
        )

    def test_constraint_rendering(self):
        c = g.Constraint(g.FunVar("g", "1", 1), g.FunVar("f", "", 1), "1:i")
        assert g.pretty(c) == "<g1^1, f1>"


# ---------------------------------------------------------------------------
# Round trips


def _decl_names() -> st.SearchStrategy[str]:
    return st.sampled_from(["List", "PTree", "D2"])


types_strategy = st.recursive(
    st.sampled_from(
        [Var("a"), Var("b1"), Base("Nat"), Base("Int"), Base("Bool"), Base("Unit"), App("E", ())]
    ),
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(lambda a: App("List", (a,)), inner),
        st.builds(lambda a, b: App("D2", (a, b)), inner, inner),
    ),
    max_leaves=12,
)


@given(types_strategy)
@settings(max_examples=200)
def test_type_round_trip(ty):
    assert g.parse_type(g.pretty(ty)) == ty


def _terms_strategy():
    leaves = st.sampled_from(
        [
            g.Lit("tt", "Bool"),
            g.Lit("false", "Bool"),
            g.Lit("unit", "Unit"),
            g.Lit("0"),
            g.Lit("42"),
            g.Lit("-7", "Int"),
            g.Ctor("nil", ()),
            g.Ctor("rnil", ()),
            g.Ctor("bnil", ()),
        ]
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(lambda a, b: g.Ctor("cons", (a, b)), inner, inner),
            st.builds(lambda a: g.Ctor("pleaf", (a,)), inner),
            st.builds(lambda a: g.Ctor("pnode", (a,)), inner),
            st.builds(lambda a, b: g.Ctor("rnode", (a, b)), inner, inner),
            st.builds(g.Pair, inner, inner),
            st.builds(g.Inl, inner),
            st.builds(g.Inr, inner),
        ),
        max_leaves=10,
    )


_NESTED_VP = g.validate(g.parse_program(PROGRAM_SOURCES["nested"]))


@given(_terms_strategy())
@settings(max_examples=200)
def test_term_round_trip(term):
    # Terms here are well-formed syntax but not necessarily well-typed.
    assert g.parse_term(g.pretty(term), _NESTED_VP) == term


def _funexpr_strategy():
    leaves = st.sampled_from(
        [
            g.FunVar("f", "", 1),
            g.FunVar("f", "", 2, prime=True),
            g.FunVar("g", "1", 1),
            g.FunVar("g", "1.2.1", 2),
            g.FunVar("h", "4.2", 1),
            g.Id(Base("Nat")),
            g.Id(App("List", (Base("Nat"),))),
            g.Id(Prod(Base("Bool"), Base("Int"))),
        ]
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(g.ProdF, inner, inner),
            st.builds(g.SumF, inner, inner),
            st.builds(lambda a: g.Lift("List", (a,)), inner),
            st.builds(lambda a, b: g.Lift("D2", (a, b)), inner, inner),
        ),
        max_leaves=8,
    )


@given(_funexpr_strategy())
@settings(max_examples=200)
def test_funexpr_round_trip(e):
    assert g.parse_funexpr(g.pretty(e)) == e


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_corpus_round_trips(programs, key, term_text, spec_text, int_lits):
    vp = programs[key]
    term = g.parse_term(term_text, vp)
    assert g.parse_term(g.pretty(term), vp) == term
    spec = g.parse_spec(spec_text, vp)
    assert g.parse_spec(g.pretty(spec.shape), vp) == spec


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_corpus_constraint_round_trips(programs, key, term_text, spec_text, int_lits):
    p = run_pipeline(programs[key], term_text, spec_text, int_lits)
    for c in p.run.constraints:
        parsed = g.parse_funexpr(g.pretty(c.lhs))
        assert parsed == c.lhs
        assert g.parse_funexpr(g.pretty(c.rhs)) == c.rhs
    for f in p.form:
        assert g.parse_funexpr(g.pretty(f)) == f
