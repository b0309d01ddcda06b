"""Lexer and recursive-descent parsers for the surface syntax.

The grammar is documented in GRAMMAR.md. Data type declarations use Agda-like
headers (`data List : Set -> Set where ...`); `Set^k -> Set` headers are pure
arity markers. Arrows have no type AST node, so an arrow inside a type is a
syntax error by construction. Types and function expressions share one
infix layer, and a specification is parsed as a type. Type references in a
specification, a term annotation or a type parsed against a program are
checked at the token that names them.
"""
from __future__ import annotations

import re
from collections.abc import Callable

from .funexpr import FunExpr, FunVar, Id, Lift, ProdF, SumF
from .syntax import (
    Ann,
    App,
    Base,
    BASE_TYPES,
    ConstructorSig,
    Ctor,
    GadtDecl,
    Inl,
    Inr,
    Lit,
    Pair,
    Prod,
    Program,
    Record,
    Sum,
    Term,
    TypeExpr,
    Var,
    free_type_vars,
)
from .wellformed import ValidatedProgram


class ParseError(Exception):
    """A lexical or syntax error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind = kind  # "name", "number", "funvar", "end", or the symbol itself
        self.text = text
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<funvar>[fgh]'?[0-9]+\^[0-9]+(?:\.[0-9]+)*)
  | (?P<name>[A-Za-z][A-Za-z0-9_']*)
  | (?P<number>-?[0-9]+)
  | (?P<sym>->|[()*+,;:.@])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

KEYWORDS = ("data", "where", "forall", "Set", "inl", "inr")
LITERAL_WORDS = ("tt", "true", "false", "unit")


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ended by an "end" token just past its last
    character."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "nl":
            line += 1
            line_start = m.end()
        elif group != "ws" and group != "comment":
            textval = m.group()
            col = m.start() - line_start + 1
            if group == "bad":
                raise ParseError(f"unexpected character {textval!r}", line, col)
            tokens.append(Token(textval if group == "sym" else group, textval, line, col))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, text: str, vp: ValidatedProgram | None = None, allow_vars: bool = True):
        self.tokens = tokenize(text)
        self.pos = 0
        # With a program, each type reference is checked at its token.
        self.vp = vp
        self.allow_vars = allow_vars

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def keyword(self, word: str) -> None:
        """Read the name `word`."""
        tok = self.expect("name")
        if tok.text != word:
            raise ParseError(f"expected {word!r}, got {tok.text!r}", tok.line, tok.col)

    def done(self) -> None:
        """Check that every token has been read."""
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Types


def _parse_infix(c: _Cursor, operand: Callable, prod: type, sum_: type):
    """Products and sums of `operand`s, both right-associative, with `*`
    binding tighter than `+`: the infix layer of types and of function
    expressions. Each chain is read in a loop and folded from the right, so
    an operator takes no frame of its own."""
    summands = []
    while True:
        factors = [operand(c)]
        while c.at("*"):
            c.next()
            factors.append(operand(c))
        summands.append(_fold(prod, factors))
        if not c.at("+"):
            return _fold(sum_, summands)
        c.next()


def _fold(node: type, items: list):
    """`items` joined right-associatively by `node`."""
    e = items.pop()
    while items:
        e = node(items.pop(), e)
    return e


def _parse_type(c: _Cursor) -> TypeExpr:
    return _parse_infix(c, _parse_type_atom, Prod, Sum)


def _is_type_atom_start(c: _Cursor) -> bool:
    tok = c.peek()
    return tok.kind == "(" or tok.kind == "name" and tok.text not in KEYWORDS


def _parse_type_atom(c: _Cursor, app: bool = True) -> TypeExpr:
    """A type atom or, when `app`, a type application. With a program, a
    type constructor and its arity are checked at its token."""
    tok = c.next()
    if tok.kind == "(":
        inner = _parse_type(c)
        if c.at("->"):
            raise c.error("arrow types are not allowed here")
        c.expect(")")
        return inner
    name = tok.text
    if tok.kind != "name":
        raise ParseError(f"expected a type, got {name!r}", tok.line, tok.col)
    if name in KEYWORDS:
        if app and name == "Set":
            raise ParseError("'Set' is only allowed in declaration headers", tok.line, tok.col)
        raise ParseError(f"unexpected keyword {name!r} in type", tok.line, tok.col)
    if name in BASE_TYPES:
        return Base(name)
    if name[0].isupper():
        arity = None
        if c.vp is not None:
            try:
                arity = c.vp.arity(name)
            except KeyError:
                raise ParseError(f"unknown type constructor {name!r}", tok.line, tok.col) from None
        args: list[TypeExpr] = []
        while app and _is_type_atom_start(c):
            args.append(_parse_type_atom(c, False))
        if arity is not None and len(args) != arity:
            raise ParseError(
                f"{name!r} applied to {len(args)} argument(s), expected {arity}", tok.line, tok.col
            )
        return App(name, tuple(args))
    if not c.allow_vars:
        raise ParseError(
            f"type annotations must be closed (found variable {name!r})", tok.line, tok.col
        )
    return Var(name)


# ---------------------------------------------------------------------------
# Programs


def parse_program(text: str) -> Program:
    """Parse a sequence of data type declarations.

    Constructor-type references to other declarations are left unresolved;
    class membership and arity checking happen in `wellformed.validate`.
    """
    c = _Cursor(text)
    decls: list[GadtDecl] = []
    seen_decls: set[str] = set()
    seen_ctors: set[str] = set()
    while not c.at("end"):
        c.keyword("data")
        name_tok = c.expect("name")
        name = name_tok.text
        if not name[0].isupper() or name == "Set" or name in BASE_TYPES:
            raise ParseError(
                f"invalid data type name {name!r} (must be capitalized and not reserved)",
                name_tok.line,
                name_tok.col,
            )
        if name in seen_decls:
            raise ParseError(f"duplicate declaration name {name!r}", name_tok.line, name_tok.col)
        seen_decls.add(name)
        c.expect(":")
        c.keyword("Set")
        arity = 0  # a `Set^k -> Set` header declares arity k
        while c.at("->"):
            c.next()
            c.keyword("Set")
            arity += 1
        c.keyword("where")
        ctors: list[ConstructorSig] = []
        while c.at("name") and not c.at("name", "data"):
            at_tok = c.peek()
            sig = _parse_ctor(c, name, arity)
            if sig.name in seen_ctors:
                raise ParseError(
                    f"duplicate constructor name {sig.name!r}", at_tok.line, at_tok.col
                )
            seen_ctors.add(sig.name)
            ctors.append(sig)
            if c.at(";"):
                c.next()
        decls.append(GadtDecl(name, arity, tuple(ctors)))
    return Program(tuple(decls))


def _parse_ctor(c: _Cursor, owner: str, owner_arity: int) -> ConstructorSig:
    name_tok = c.expect("name")
    cname = name_tok.text
    if cname in KEYWORDS or cname in LITERAL_WORDS:
        raise ParseError(f"reserved word {cname!r} cannot name a constructor", name_tok.line, name_tok.col)
    if not cname[0].islower():
        raise ParseError(
            f"invalid constructor name {cname!r} (must start lowercase)",
            name_tok.line,
            name_tok.col,
        )
    c.expect(":")
    binders: list[str] = []
    if c.at("name", "forall"):
        c.next()
        while c.at("name") and not c.at("name", "data"):
            b = c.next()
            if not b.text[0].islower() or b.text in KEYWORDS:
                raise ParseError(f"invalid type variable {b.text!r}", b.line, b.col)
            if b.text in binders:
                raise ParseError(f"duplicate type variable {b.text!r}", b.line, b.col)
            binders.append(b.text)
            if c.at("."):
                break
        c.expect(".")
    parts: list[TypeExpr] = [_parse_type(c)]
    while c.at("->"):
        c.next()
        parts.append(_parse_type(c))
    ret = parts[-1]
    args = tuple(parts[:-1])
    if not (isinstance(ret, App) and ret.ctor == owner):
        raise c.error(f"return type of {cname!r} must be an application of {owner!r}")
    if len(ret.args) != owner_arity:
        raise c.error(
            f"return type of {cname!r} applies {owner!r} to {len(ret.args)} "
            f"arguments, expected {owner_arity}"
        )
    bound = set(binders)
    for part in parts:
        for v in free_type_vars(part):
            if v not in bound:
                raise c.error(f"unbound type variable {v!r} in the type of {cname!r}")
    return ConstructorSig(cname, tuple(binders), args, ret.args)


# ---------------------------------------------------------------------------
# Terms


def parse_term(text: str, vp: ValidatedProgram) -> Term:
    """Parse a term, resolving constructor names and arities against `vp`."""
    c = _Cursor(text, vp, allow_vars=False)
    term = _parse_term(c, vp)
    c.done()
    return term


def _ctor_sig(vp: ValidatedProgram, tok: Token) -> ConstructorSig:
    try:
        return vp.ctor(tok.text)[1]
    except KeyError:
        raise ParseError(f"unknown constructor {tok.text!r}", tok.line, tok.col) from None


def _is_term_atom_start(c: _Cursor) -> bool:
    tok = c.peek()
    if tok.kind in ("(", "number"):
        return True
    return tok.kind == "name" and tok.text not in ("inl", "inr") and tok.text not in KEYWORDS


def _parse_term(c: _Cursor, vp: ValidatedProgram) -> Term:
    """Parse a term (`inl`/`inr` atom, constructor application, or atom).

    The parser keeps the constructs it is inside of on an explicit stack, so
    nesting depth is bounded by memory, not by the interpreter's recursion
    limit. Tokens are consumed and errors raised in the order of a
    recursive descent.
    """
    # One frame per open construct, innermost last: ["inj", token] for an
    # injection awaiting its atom, ["app", token, sig, args] for a constructor
    # application collecting atoms, ["paren"] after `(` and ["pair", first]
    # after `(first,`.
    stack: list[list] = []
    want_term = True  # parse a term next, or else an atom
    while True:
        term = _parse_term_start(c, vp, stack, want_term)
        if term is None:
            want_term = stack[-1][0] == "paren"
            continue
        # Hand the finished term to the innermost frame, until a frame needs
        # a further term or atom, or the outermost term is finished.
        while stack:
            frame = stack[-1]
            kind = frame[0]
            if kind == "app":
                frame[3].append(term)
                if _is_term_atom_start(c):
                    want_term = False
                    break
                term = _ctor_app(frame[1], frame[2], frame[3])
            elif kind == "inj":
                term = Inl(term) if frame[1].text == "inl" else Inr(term)
            elif kind == "paren":
                if c.at(","):
                    c.next()
                    stack[-1] = ["pair", term]
                    want_term = True
                    break
                if c.at(":"):
                    c.next()
                    term = Ann(term, _parse_type(c))
                c.expect(")")
            else:
                c.expect(")")
                term = Pair(frame[1], term)
            stack.pop()
        else:
            return term


def _parse_term_start(
    c: _Cursor, vp: ValidatedProgram, stack: list[list], want_term: bool
) -> Term | None:
    """Parse a term (or, unless `want_term`, an atom) up to its first
    subterm: return it when it has none, else push its frame and return
    None."""
    tok = c.peek()
    if want_term:
        if tok.kind == "end":
            raise c.error("expected a term")
        if tok.kind == "name" and tok.text in ("inl", "inr"):
            stack.append(["inj", c.next()])
            return None
        if tok.kind == "name" and tok.text not in LITERAL_WORDS and tok.text not in KEYWORDS:
            name_tok = c.next()
            sig = _ctor_sig(vp, name_tok)
            if not _is_term_atom_start(c):
                return _ctor_app(name_tok, sig, [])
            stack.append(["app", name_tok, sig, []])
            return None
    tok = c.next()
    if tok.kind == "(":
        stack.append(["paren"])
        return None
    if tok.kind == "number":
        hint = "Int" if tok.text.startswith("-") else None
        return Lit(tok.text, hint)
    if tok.kind == "name":
        if tok.text in ("tt", "true", "false"):
            return Lit(tok.text, "Bool")
        if tok.text == "unit":
            return Lit(tok.text, "Unit")
        sig = _ctor_sig(vp, tok)
        if sig.arg_types:
            raise ParseError(
                f"constructor {sig.name!r} expects {len(sig.arg_types)} "
                "argument(s), got 0 (parenthesize the application?)",
                tok.line,
                tok.col,
            )
        return Ctor(sig.name, ())
    raise ParseError(f"expected a term, got {tok.text!r}", tok.line, tok.col)


def _ctor_app(name_tok: Token, sig: ConstructorSig, args: list[Term]) -> Ctor:
    if len(args) != len(sig.arg_types):
        raise ParseError(
            f"constructor {sig.name!r} expects {len(sig.arg_types)} "
            f"argument(s), got {len(args)}",
            name_tok.line,
            name_tok.col,
        )
    return Ctor(sig.name, tuple(args))


# ---------------------------------------------------------------------------
# Specifications


def parse_spec(text: str, vp: ValidatedProgram) -> TypeExpr:
    """Parse a specification: a type expression whose free lowercase names
    are the specification variables."""
    return parse_type(text, vp)


def parse_type(text: str, vp: ValidatedProgram | None = None) -> TypeExpr:
    """Parse a bare type expression (no resolution unless `vp` given)."""
    c = _Cursor(text, vp)
    ty = _parse_type(c)
    if c.at("->"):
        raise c.error("arrow types are not allowed here")
    c.done()
    return ty


# ---------------------------------------------------------------------------
# Function expressions (round-trip support for analysis output)

def parse_funexpr(text: str) -> FunExpr:
    """Parse a rendered function expression back into its AST.

    Variable bookkeeping (creation rank, domains) is not recoverable from
    text; parsed variables compare equal to originals by name alone.
    """
    c = _Cursor(text)
    e = _parse_infix(c, _parse_fun_atom, ProdF, SumF)
    c.done()
    return e


def _parse_fun_atom(c: _Cursor, app: bool = True) -> FunExpr:
    """A function expression atom or, when `app`, a lifted application."""
    tok = c.next()
    if tok.kind == "(":
        inner = _parse_infix(c, _parse_fun_atom, ProdF, SumF)
        c.expect(")")
        return inner
    if app and tok.kind == "name" and tok.text[0].isupper():
        args: list[FunExpr] = []
        while (nxt := c.peek()).kind in ("(", "name", "funvar"):
            if nxt.kind == "name" and (nxt.text[0].isupper() or nxt.text in KEYWORDS):
                break
            args.append(_parse_fun_atom(c, False))
        return Lift(tok.text, tuple(args))
    if tok.kind in ("name", "funvar"):
        if tok.text == "id":
            c.expect("@")
            return Id(_parse_type_atom(c, False))
        m = re.fullmatch(r"([fgh])(')?([0-9]+)(?:\^([0-9]+(?:\.[0-9]+)*))?", tok.text)
        if m:
            kind, prime, index, label = m.groups()
            return FunVar(kind, label or "", int(index), prime=bool(prime))
    raise ParseError(f"expected a function expression, got {tok.text!r}", tok.line, tok.col)
