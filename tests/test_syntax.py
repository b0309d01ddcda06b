"""Parsing and printing: grammar coverage, error positions, round trips."""
from __future__ import annotations

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gadtmap as g
from gadtmap.cli import AnalysisReport
from gadtmap.constraints import AnnotatedTerm, IndexName
from gadtmap.funexpr import Call
from gadtmap.parser import Token, tokenize
from gadtmap.pretty import (
    _is_atomic,
    _parts,
    pretty_annotated,
    pretty_fun,
    pretty_subterms,
    pretty_term,
    pretty_type,
)
from gadtmap.syntax import App, Atom, Base, Meta, Prod, Sum, Var, free_type_vars, term_children
from gadtmap.typecheck import TypedNode

from conftest import CORPUS, NESTED_SRC, PROGRAM_SOURCES, run_pipeline
from test_oracle import PROBE_SRC, PROBE_TERMS, SUM_INDEXED_SRC


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

    @pytest.mark.parametrize(
        "text,line,col",
        [("(1, 2", 1, 6), ("cons 1 (\n  cons 2 nil", 2, 13), ("(1, 2\n", 2, 1)],
    )
    def test_end_of_input_is_past_the_last_character(self, nested_vp, text, line, col):
        with pytest.raises(g.ParseError) as ei:
            g.parse_term(text, nested_vp)
        assert str(ei.value) == f"{line}:{col}: unexpected end of input"
        assert (ei.value.line, ei.value.col) == (line, col)

    def test_end_of_program_is_past_the_last_character(self):
        with pytest.raises(g.ParseError) as ei:
            g.parse_program("data A : Set where\n  c :")
        assert str(ei.value) == "2:6: unexpected end of input"


class TestParseSpec:
    def test_shallow(self, seq_vp):
        spec = g.parse_spec("Seq b1", seq_vp)
        assert spec == App("Seq", (Var("b1"),))
        assert free_type_vars(spec) == ("b1",)

    def test_deep_vars_deduplicated(self, nested_vp):
        spec = g.parse_spec("List (List b1)", nested_vp)
        assert free_type_vars(spec) == ("b1",)

    def test_product_spec_var_order(self, nested_vp):
        spec = g.parse_spec("b1 * b2", nested_vp)
        assert spec == Prod(Var("b1"), Var("b2"))
        assert free_type_vars(spec) == ("b1", "b2")

    def test_unknown_constructor(self, nested_vp):
        with pytest.raises(g.ParseError, match="unknown type constructor"):
            g.parse_spec("Tree b1", nested_vp)

    def test_arity_mismatch(self, nested_vp):
        with pytest.raises(g.ParseError, match="applied to 2"):
            g.parse_spec("List b1 b2", nested_vp)

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (g.parse_spec, "Tree b1", "1:1: unknown type constructor 'Tree'"),
            (g.parse_spec, "List b1 b2", "1:1: 'List' applied to 2 argument(s), expected 1"),
            (g.parse_spec, "List (Tree b1)", "1:7: unknown type constructor 'Tree'"),
            (g.parse_term, "(1 : List)", "1:6: 'List' applied to 0 argument(s), expected 1"),
            (
                g.parse_term,
                "(nil : List b)",
                "1:13: type annotations must be closed (found variable 'b')",
            ),
        ],
    )
    def test_reference_errors_point_at_their_token(self, nested_vp, parse, text, message):
        with pytest.raises(g.ParseError) as ei:
            parse(text, nested_vp)
        assert str(ei.value) == message

    def test_first_faulty_reference_is_reported(self, nested_vp):
        with pytest.raises(g.ParseError) as ei:
            g.parse_spec("List (Tree b1) b2", nested_vp)
        assert str(ei.value) == "1:7: unknown type constructor 'Tree'"

    @pytest.mark.parametrize("key,spec_text", sorted({(k, s) for k, _, s, _ in CORPUS}))
    def test_spec_is_its_type(self, programs, key, spec_text):
        vp = programs[key]
        assert g.parse_spec(spec_text, vp) == g.parse_type(spec_text, vp)


# One row per `raise` site of the parser, plus the end-of-input position of
# each entry point: (entry point, input, exact `str(ParseError)`). The
# `term`, `spec` and `type@vp` entries parse against `programs/nested.gadt`.
PARSE_ERRORS = [
    # the lexer and the cursor
    ("program", "data A : Set where\n  c : %", "2:7: unexpected character '%'"),
    ("type", "List (", "1:7: unexpected end of input"),
    ("program", "data A Set where", "1:8: expected ':', got 'Set'"),
    # end of input lies just past the last character, after trailing
    # newlines, comments and blanks
    ("type", "(\n-- c\n", "3:1: unexpected end of input"),
    ("funexpr", "f1 *\n", "2:1: unexpected end of input"),
    ("type", "  ", "1:3: unexpected end of input"),
    # any character that starts no token
    ("type", "a é", "1:3: unexpected character 'é'"),
    ("type", "a - b", "1:3: unexpected character '-'"),
    # types
    ("type", "Set", "1:1: 'Set' is only allowed in declaration headers"),
    ("type", "List (Set)", "1:7: 'Set' is only allowed in declaration headers"),
    (
        "program",
        "data G : Set -> Set where c : forall a. (a -> a) -> G a",
        "1:44: arrow types are not allowed here",
    ),
    ("type", "where", "1:1: unexpected keyword 'where' in type"),
    ("type", "List (forall)", "1:7: unexpected keyword 'forall' in type"),
    ("funexpr", "id@Set", "1:4: unexpected keyword 'Set' in type"),
    ("term", "(nil : List b)", "1:13: type annotations must be closed (found variable 'b')"),
    ("type", "a * *", "1:5: expected a type, got '*'"),
    ("spec", "Tree b1", "1:1: unknown type constructor 'Tree'"),
    ("spec", "List b1 b2", "1:1: 'List' applied to 2 argument(s), expected 1"),
    ("type@vp", "Nat * List", "1:7: 'List' applied to 0 argument(s), expected 1"),
    # programs
    ("program", "type A : Set where x : A", "1:1: expected 'data', got 'type'"),
    (
        "program",
        "data Nat : Set where x : Nat",
        "1:6: invalid data type name 'Nat' (must be capitalized and not reserved)",
    ),
    (
        "program",
        "data A : Set where x : A\ndata A : Set where y : A",
        "2:6: duplicate declaration name 'A'",
    ),
    ("program", "data A : Set were x : A", "1:14: expected 'where', got 'were'"),
    (
        "program",
        "data A : Set where x : A\ndata B : Set where x : B",
        "2:20: duplicate constructor name 'x'",
    ),
    ("program", "data A : Type where x : A", "1:10: expected 'Set', got 'Type'"),
    ("program", "data A : Set -> Type where x : A", "1:17: expected 'Set', got 'Type'"),
    ("program", "data A : Set where tt : A", "1:20: reserved word 'tt' cannot name a constructor"),
    (
        "program",
        "data A : Set where X : A",
        "1:20: invalid constructor name 'X' (must start lowercase)",
    ),
    ("program", "data A : Set -> Set where c : forall B. A B", "1:38: invalid type variable 'B'"),
    (
        "program",
        "data A : Set -> Set where c : forall a a. A a",
        "1:40: duplicate type variable 'a'",
    ),
    (
        "program",
        "data A : Set -> Set where c : forall a. a -> a",
        "1:47: return type of 'c' must be an application of 'A'",
    ),
    (
        "program",
        "data A : Set -> Set where\n  c : A",
        "2:8: return type of 'c' applies 'A' to 0 arguments, expected 1",
    ),
    (
        "program",
        "data A : Set -> Set where c : forall a. b -> A a",
        "1:49: unbound type variable 'b' in the type of 'c'",
    ),
    ("program", "data", "1:5: unexpected end of input"),
    # terms
    ("term", "1 2", "1:3: unexpected trailing input '2'"),
    ("term", "snoc 1", "1:1: unknown constructor 'snoc'"),
    ("term", "(", "1:2: expected a term"),
    ("term", "", "1:1: expected a term"),
    (
        "term",
        "cons 1 cons",
        "1:8: constructor 'cons' expects 2 argument(s), got 0 (parenthesize the application?)",
    ),
    ("term", ")", "1:1: expected a term, got ')'"),
    ("term", "cons 1", "1:1: constructor 'cons' expects 2 argument(s), got 1"),
    ("term", "inl", "1:4: unexpected end of input"),
    # specifications and bare types
    ("spec", "List b1 -> b1", "1:9: arrow types are not allowed here"),
    ("spec", "b1 )", "1:4: unexpected trailing input ')'"),
    ("type", "a )", "1:3: unexpected trailing input ')'"),
    # `parse_type` reports a trailing arrow as `parse_spec` does
    ("type", "a -> b", "1:3: arrow types are not allowed here"),
    ("type", "", "1:1: unexpected end of input"),
    # function expressions
    ("funexpr", "f1 * id@Nat )", "1:13: unexpected trailing input ')'"),
    ("funexpr", "f1 * x", "1:6: expected a function expression, got 'x'"),
    ("funexpr", "List (f1 +", "1:11: unexpected end of input"),
    ("funexpr", "id Nat", "1:4: expected '@', got 'Nat'"),
    ("funexpr", "", "1:1: unexpected end of input"),
]


@pytest.mark.parametrize("entry,text,expected", PARSE_ERRORS)
def test_parse_error_table(nested_vp, entry, text, expected):
    parse = {
        "program": g.parse_program,
        "term": lambda t: g.parse_term(t, nested_vp),
        "spec": lambda t: g.parse_spec(t, nested_vp),
        "type": g.parse_type,
        "type@vp": lambda t: g.parse_type(t, nested_vp),
        "funexpr": g.parse_funexpr,
    }[entry]
    with pytest.raises(g.ParseError) as ei:
        parse(text)
    position, message = expected.split(": ", 1)
    assert str(ei.value) == expected
    assert ei.value.message == message
    assert f"{ei.value.line}:{ei.value.col}" == position


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<funvar>[fgh]'?[0-9]+\^[0-9]+(?:\.[0-9]+)*)
  | (?P<name>[A-Za-z][A-Za-z0-9_']*)
  | (?P<number>-?[0-9]+)
  | (?P<sym>->|[()*+,;:.@])
    """,
    re.VERBOSE,
)


def _reference_tokens(text: str) -> list[tuple]:
    """The lexer's specification: a `match` at each position in turn, an
    error where no token starts, and the end token at the line and column
    just past the last character."""
    out = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise g.ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        pos = m.end()
        if m.lastgroup == "nl":
            line, line_start = line + 1, pos
        elif m.lastgroup not in ("ws", "comment"):
            kind = m.group() if m.lastgroup == "sym" else m.lastgroup
            out.append((kind, m.group(), line, m.start() - line_start + 1))
    out.append(("end", "", text.count("\n") + 1, len(text) - text.rfind("\n")))
    return out


def _lex_outcome(lex, text: str):
    try:
        return lex(text)
    except g.ParseError as e:
        return ("error", e.message, e.line, e.col)


# Single characters, some outside every token, and whole lexemes that single
# characters rarely spell out.
_LEX_CHARS = "afgh09AZ_ ()*+,;:.@" + "\t\r\n%é->^'"
_LEXEMES = ("f1^2.3", "g'4^1", "h2^10", "--", "-- c\n", "->", "-7", "a'", "List", "data")


@given(st.lists(st.sampled_from(_LEX_CHARS) | st.sampled_from(_LEXEMES), max_size=20).map("".join))
@settings(max_examples=300)
def test_tokenize_matches_reference_lexer(text):
    def lex(t):
        return [(tok.kind, tok.text, tok.line, tok.col) for tok in tokenize(t)]

    assert _lex_outcome(lex, text) == _lex_outcome(_reference_tokens, text)


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

    def test_const_rendering(self):
        # Map application's opaque constants render as tag and type.
        t = g.Ctor("cons", (g.Const("c0", Base("Nat")), g.Ctor("nil")))
        assert pretty_term(t) == "cons <c0:Nat> nil"

    @pytest.mark.parametrize(
        "text",
        [
            "cons (1 : Nat) nil",
            "inl (inr 0 : Bool + Nat)",
            "((1, tt) : Nat * Bool)",
            "cons (nil : List Nat) nil",
        ],
    )
    def test_annotation_round_trip(self, nested_vp, text):
        t = g.parse_term(text, nested_vp)
        assert pretty_term(t) == text
        assert g.parse_term(pretty_term(t), nested_vp) == t


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
    copy = g.parse_funexpr(g.pretty(e))
    assert copy == e and hash(copy) == hash(e)


_NAT, _BOOL = Base("Nat"), Base("Bool")
_FUNEXPR_BUILDERS = {
    "FunVar": lambda: g.FunVar("g", "1.2", 1, intro=7, domain=_NAT),
    "Id": lambda: g.Id(App("List", (_NAT,))),
    "ProdF": lambda: g.ProdF(g.FunVar("f", None, 1), g.Id(_NAT)),
    "SumF": lambda: g.SumF(g.Id(_BOOL), g.FunVar("h", "3", 2, prime=True)),
    "Lift": lambda: g.Lift("G", (g.ProdF(g.FunVar("f", None, 1), g.Id(_NAT)),)),
    "Opaque": lambda: g.Opaque(_NAT, Prod(_NAT, _BOOL)),
}


@pytest.mark.parametrize("cls", sorted(_FUNEXPR_BUILDERS))
def test_funexpr_hash_is_stored_and_stable(cls):
    """Every function expression class stores its hash; equal expressions
    built apart hash alike, and bookkeeping fields that equality ignores do
    not move the hash."""
    a, b = _FUNEXPR_BUILDERS[cls](), _FUNEXPR_BUILDERS[cls]()
    assert type(a).__name__ == cls and a is not b
    assert a == b and hash(a) == hash(b) == a._hash
    if cls == "FunVar":
        c = g.FunVar("g", "1.2", 1)
        assert c == a and hash(c) == hash(a)


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_corpus_round_trips(programs, key, term_text, spec_text, int_lits):
    vp = programs[key]
    term = g.parse_term(term_text, vp)
    assert g.parse_term(g.pretty(term), vp) == term
    spec = g.parse_spec(spec_text, vp)
    assert g.parse_spec(g.pretty(spec), vp) == spec


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_corpus_constraint_round_trips(programs, key, term_text, spec_text, int_lits):
    p = run_pipeline(programs[key], term_text, spec_text, int_lits)
    for c in p.run.constraints:
        parsed = g.parse_funexpr(g.pretty(c.lhs))
        assert parsed == c.lhs
        assert g.parse_funexpr(g.pretty(c.rhs)) == c.rhs
    for f in p.form:
        assert g.parse_funexpr(g.pretty(f)) == f


# ---------------------------------------------------------------------------
# Rendering every subterm once, and without recursion


def _subterms(term):
    out = [term]
    for t in out:
        out.extend(term_children(t))
    return out


@given(_terms_strategy())
@settings(max_examples=200)
def test_shared_table_matches_standalone_rendering(term):
    subs = _subterms(term)
    table = pretty_subterms(term, {id(t) for t in subs})
    for t in subs:
        assert table[id(t)] == g.pretty(t)


@given(_terms_strategy())
@example(g.Inl(g.Ann(g.Inr(g.Lit("0")), Sum(Base("Bool"), Base("Nat")))))  # the strategy has no Ann
@settings(max_examples=100)
def test_annotated_rendering_brackets_exactly_the_incidental_subtrees(term):
    assert pretty_annotated(term, {id(t) for t in _subterms(term)}) == g.pretty(term)
    # Only the root is a head: each of its children is bracketed whole.
    if isinstance(term, (g.Ctor, g.Pair, g.Inl, g.Inr)):
        only_root = "".join(
            p if isinstance(p, str) else f"[{g.pretty(p[0])}]" for p in _parts(term)
        )
    else:
        only_root = g.pretty(term)
    assert pretty_annotated(term, {id(term)}) == only_root


DEEP = 50_000


def _deep_cons(n):
    t = g.Ctor("nil", ())
    for _ in range(n):
        t = g.Ctor("cons", (g.Lit("0"), t))
    return t


def _spine(t, n):
    """The ids of the first `n` nodes down the tail spine of a `cons` chain."""
    heads = set()
    for _ in range(n):
        heads.add(id(t))
        t = t.args[1] if t.args else None
    return heads


def test_deep_cons_chain_renders_without_recursion():
    t = _deep_cons(DEEP)
    chain = "cons 0 (" * (DEEP - 1) + "cons 0 nil" + ")" * (DEEP - 1)
    assert g.pretty(t) == chain
    # Three essential spine positions, then one incidental bracket.
    rest = "cons 0 (" * (DEEP - 4) + "cons 0 nil" + ")" * (DEEP - 4)
    assert pretty_annotated(t, _spine(t, 3)) == f"cons [0] (cons [0] (cons [0] [{rest}]))"


def test_long_essential_spine_renders_without_recursion():
    # As term paths this spine would hold about 1.25e9 entries.
    t = _deep_cons(DEEP)
    expected = "cons [0] (" * (DEEP - 1) + "cons [0] nil" + ")" * (DEEP - 1)
    assert pretty_annotated(t, _spine(t, DEEP + 1)) == expected


def test_deep_pair_injection_nest_renders_without_recursion():
    t, opens, closes = g.Lit("0"), [], []
    for i in range(DEEP):
        if i % 2:
            # The payload is a pair: atomic, no parentheses.
            t = g.Inl(t)
            opens.append("inl ")
            closes.append("")
        else:
            t = g.Pair(t, g.Lit("tt", "Bool"))
            opens.append("(")
            closes.append(", tt)")
    text = "".join(reversed(opens)) + "0" + "".join(closes)
    assert g.pretty(t) == text
    assert pretty_annotated(t, {id(x) for x in _subterms(t)}) == text
    # Only the root injection is a head; its pair payload is bracketed whole.
    assert pretty_annotated(t, {id(t)}) == f"inl [{text[len('inl '):]}]"


# ---------------------------------------------------------------------------
# The annotated rendering from head ids against the path-based one it replaced


def _reference_essential(term, heads):
    """The essential positions as the path-based renderer took them: the set
    of child-index paths from the root that pass through heads only."""
    out = set()
    stack = [(term, ())]
    while stack:
        t, path = stack.pop()
        if id(t) in heads:
            out.add(path)
            stack.extend((c, path + (i,)) for i, c in enumerate(term_children(t)))
    return frozenset(out)


def _reference_annotated(t, essential):
    """The path-based `pretty_annotated`, kept as the reference for the one
    that reads head ids."""
    out = []
    stack = [(t, ())]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        node, path = x
        if path not in essential:
            out += ("[", g.pretty(node), "]")
            continue
        if not isinstance(node, (g.Ctor, g.Pair, g.Inl, g.Inr)):
            out.append(g.pretty(node))
            continue
        items = []
        slot = 0
        for part in _parts(node):
            if isinstance(part, str):
                items.append(part)
                continue
            (child, atom), child_path = part, path + (slot,)
            slot += 1
            if atom and child_path in essential and not _is_atomic(child):
                items += ("(", (child, child_path), ")")
            else:
                items.append((child, child_path))
        stack.extend(reversed(items))
    return "".join(out)


def _reference_annotated_loop(t, heads):
    """`pretty_annotated` as its own stack loop over head ids, kept as the
    reference for the one that goes through the term renderer."""
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        if not isinstance(x, (g.Ctor, g.Pair, g.Inl, g.Inr)):
            out.append(pretty_term(x))
            continue
        for part in reversed(_parts(x)):
            if isinstance(part, str):
                stack.append(part)
                continue
            child, atom = part
            if id(child) not in heads:
                stack += ("]", pretty_term(child), "[")
            elif atom and not _is_atomic(child):
                stack += (")", child, "(")
            else:
                stack.append(child)
    return "".join(out)


def _assert_matches_reference(term, heads):
    old = _reference_essential(term, heads)
    assert AnnotatedTerm(term, frozenset(heads)).essential == tuple(sorted(old))
    assert pretty_annotated(term, heads) == _reference_annotated(term, old)
    assert pretty_annotated(term, heads) == _reference_annotated_loop(term, heads)


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_annotation_matches_path_reference_on_corpus(
    programs, key, term_text, spec_text, int_lits
):
    ann = run_pipeline(programs[key], term_text, spec_text, int_lits).run.annotation
    _assert_matches_reference(ann.term, ann.heads)


_PROBE_VP = g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC + PROBE_SRC))


@pytest.mark.parametrize("term,spec,_checked", PROBE_TERMS)
def test_annotation_matches_path_reference_on_probes(term, spec, _checked):
    ann = run_pipeline(_PROBE_VP, term, spec).run.annotation
    _assert_matches_reference(ann.term, ann.heads)


@given(_terms_strategy(), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_annotation_matches_path_reference_on_random_heads(term, seed):
    # An upward-closed head set: the root, then each child of a head with
    # probability one half.
    rng = random.Random(seed)
    heads, stack = {id(term)}, [term]
    while stack:
        for c in term_children(stack.pop()):
            if rng.random() < 0.5:
                heads.add(id(c))
                stack.append(c)
    _assert_matches_reference(term, heads)


# ---------------------------------------------------------------------------
# The type and function renderers against the two-frames-per-level ones they
# replaced


def _reference_type_atom(t):
    s = _reference_pretty_type(t)
    if isinstance(t, (Var, Base, Atom, Meta)) or (isinstance(t, App) and not t.args):
        return s
    return f"({s})"


def _reference_infix_child(t):
    s = _reference_pretty_type(t)
    return f"({s})" if isinstance(t, (Prod, Sum)) else s


def _reference_pretty_type(t):
    if isinstance(t, Var):
        return str(t.name)
    if isinstance(t, (Base, Atom)):
        return t.name
    if isinstance(t, Meta):
        return f"?m{t.ident}"
    if isinstance(t, Prod):
        return f"{_reference_infix_child(t.left)} * {_reference_infix_child(t.right)}"
    if isinstance(t, Sum):
        return f"{_reference_infix_child(t.left)} + {_reference_infix_child(t.right)}"
    if not t.args:
        return t.ctor
    return t.ctor + " " + " ".join(_reference_type_atom(a) for a in t.args)


def _reference_fun_atom(e):
    s = _reference_pretty_fun(e)
    return s if isinstance(e, g.FunVar) else f"({s})"


def _reference_fun_infix_child(e):
    s = _reference_pretty_fun(e)
    return f"({s})" if isinstance(e, (g.ProdF, g.SumF)) else s


def _reference_pretty_fun(e):
    if isinstance(e, g.FunVar):
        return e.display
    if isinstance(e, g.Id):
        return f"id@{_reference_type_atom(e.at)}"
    if isinstance(e, g.ProdF):
        return f"{_reference_fun_infix_child(e.left)} * {_reference_fun_infix_child(e.right)}"
    if isinstance(e, g.SumF):
        return f"{_reference_fun_infix_child(e.left)} + {_reference_fun_infix_child(e.right)}"
    if isinstance(e, g.Lift):
        if not e.args:
            return e.ctor
        return e.ctor + " " + " ".join(_reference_fun_atom(a) for a in e.args)
    return f"?({_reference_pretty_type(e.domain)} -> {_reference_pretty_type(e.codomain)})"


# Every type node kind: named, index-name and metavariable leaves, rigid
# atoms, nullary and n-ary applications, products and sums.
_all_types = st.recursive(
    st.sampled_from(
        [
            Var("a"),
            Var(IndexName(2, Call(Call(None, 1), 2))),
            Base("Nat"),
            Atom("?0"),
            Meta(3),
            App("E", ()),
        ]
    ),
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(lambda a: App("List", (a,)), inner),
        st.builds(lambda a, b: App("D2", (a, b)), inner, inner),
    ),
    max_leaves=12,
)

# Every function node kind, with the identity at any type, composite ones
# included, and opaque functions between any types.
_all_funs = st.recursive(
    st.one_of(
        st.sampled_from(
            [
                g.FunVar("f", None, 1),
                g.FunVar("f", None, 2, prime=True),
                g.FunVar("g", "1.2", 1),
                g.FunVar("h", "3", 2),
                g.Lift("E", ()),
            ]
        ),
        st.builds(g.Id, _all_types),
        st.builds(g.Opaque, _all_types, _all_types),
    ),
    lambda inner: st.one_of(
        st.builds(g.ProdF, inner, inner),
        st.builds(g.SumF, inner, inner),
        st.builds(lambda a: g.Lift("List", (a,)), inner),
        st.builds(lambda a, b: g.Lift("D2", (a, b)), inner, inner),
    ),
    max_leaves=8,
)


@given(_all_types)
@settings(max_examples=200)
def test_type_renderer_matches_reference(ty):
    assert pretty_type(ty) == _reference_pretty_type(ty)


@given(_all_funs)
@settings(max_examples=200)
def test_fun_renderer_matches_reference(e):
    assert pretty_fun(e) == _reference_pretty_fun(e)


@pytest.mark.parametrize("key,term_text,spec_text,int_lits", CORPUS)
def test_renderers_match_reference_on_corpus(programs, key, term_text, spec_text, int_lits):
    report = run_pipeline(programs[key], term_text, spec_text, int_lits)
    funs = list(report.form)
    types = []
    for c in report.run.constraints:
        funs += (c.lhs, c.rhs)
    for t in report.run.traces:
        funs += t.funs
        types += (t.spec, *t.taus, *t.rjs)
        types += (x for pair in t.matching for x in pair)
        types += (x for z in t.zetas if z is not None for x in z)
    assert funs and types
    for e in funs:
        assert pretty_fun(e) == _reference_pretty_fun(e)
    for ty in types:
        assert pretty_type(ty) == _reference_pretty_type(ty)


class TestRecords:
    """What the record classes promise: dataclass-style repr, frozen fields,
    equality within one class over the compared fields only, identity
    comparison for typed nodes, and mutable unhashable reports."""

    def test_repr(self):
        nat = Base("Nat")
        assert repr(Var("b1")) == "Var(name='b1')"
        assert repr(App("List", (Var("b1"),))) == "App(ctor='List', args=(Var(name='b1'),))"
        assert repr(g.Ctor("cons", (g.Lit("1"), g.Ctor("nil")))) == (
            "Ctor(name='cons', args=(Lit(value='1', base_hint=None), Ctor(name='nil', args=())))"
        )
        assert repr(g.FunVar("g", "1.2", 1, intro=7, domain=nat)) == (
            "FunVar(kind='g', call=Call('1.2'), index=1, intro=7, prime=False, "
            "domain=Base(name='Nat'))"
        )
        assert repr(Token("name", "x", 1, 2)) == "Token(kind='name', text='x', line=1, col=2)"

    @pytest.mark.parametrize(
        "record,field",
        [
            (Var("b1"), "name"),
            (g.Ctor("nil"), "args"),
            (g.FunVar("f", None, 1), "intro"),
            (g.Id(Base("Nat")), "at"),
            (g.Program(), "decls"),
        ],
    )
    def test_frozen_fields(self, record, field):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == before

    def test_index_name_hash(self):
        a = IndexName(2, Call.from_label("1.2"))
        b = IndexName(2, Call.from_label("1.2"))
        assert a.call is not b.call
        assert a == b and hash(a) == hash(b) == hash((2, a.call))
        assert a != IndexName(1, a.call)

    def test_fun_var_ignores_bookkeeping(self):
        a = g.FunVar("g", "1.2", 1, intro=7, domain=Base("Nat"))
        b = g.FunVar("g", "1.2", 1)
        assert a == b and hash(a) == hash(b)
        assert a != g.FunVar("g", "1.2", 1, prime=True)
        assert a != g.FunVar("g", "1.3", 1) and a != g.FunVar("h", "1.2", 1)

    def test_equality_is_per_class(self):
        a, b = Var("b1"), Base("Nat")
        assert Var("Nat") != Base("Nat")
        assert Prod(a, b) != Sum(a, b)
        assert g.Inl(g.Lit("1")) != g.Inr(g.Lit("1"))
        assert g.ProdF(g.Id(b), g.Id(b)) != g.SumF(g.Id(b), g.Id(b))
        assert Prod(a, b) == Prod(Var("b1"), Base("Nat"))
        assert hash(Prod(a, b)) == hash(Prod(Var("b1"), Base("Nat")))

    def test_identities_hash_apart_from_their_expansions(self):
        # Hashed like its type, `id@(A * B)` would hash as `id@A * id@B`
        # does, and the oracle's memo keys would collide across a pool.
        nat, ln = Base("Nat"), App("List", (Base("Nat"),))
        forms = [
            g.Id(Prod(ln, nat)),
            g.ProdF(g.Id(ln), g.Id(nat)),
            g.ProdF(g.Lift("List", (g.Id(nat),)), g.Id(nat)),
        ]
        assert len({hash(f) for f in forms}) == len(forms)

    def test_typed_nodes_compare_by_identity(self):
        a, b = TypedNode(g.Lit("1"), Base("Nat")), TypedNode(g.Lit("1"), Base("Nat"))
        assert a == a and a != b and len({a, b}) == 2
        a.type = Base("Int")
        assert a.type == Base("Int")

    def test_reports_are_assignable_and_unhashable(self):
        r = AnalysisReport("Mappable")
        r.detail = "x"
        assert r == AnalysisReport("Mappable", detail="x")
        with pytest.raises(TypeError):
            hash(r)


def test_import_loads_no_code_generation():
    """Importing gadtmap loads neither `dataclasses` nor `inspect`, so no
    record class is compiled at import. A module the interpreter loaded
    before the import (a site `.pth`, say) does not count."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import gadtmap; "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules and m not in before])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("flags", [["-I"], ["-I", "-S"]])
def test_import_loads_only_what_the_library_runs(flags):
    """Importing gadtmap loads none of the modules only the command line or
    type checkers use, with or without `site` (which may preload some), and
    compiles one regular expression, the tokenizer's."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    unwanted = (
        "argparse", "gettext", "json", "json.decoder", "json.encoder", "json.scanner",
        "typing", "dataclasses", "inspect",
    )
    code = (
        f"import re, sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "patterns = set(re._cache); import gadtmap; "
        f"print([m for m in {unwanted!r} if m in sys.modules and m not in before]); "
        "print(sum(k not in patterns for k in re._cache))"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "1"]
