"""Rendering of types, terms, function expressions, and constraints.

The output re-parses to an equal value for everything expressible in the
surface grammar (see GRAMMAR.md). Internal-only nodes (metavariables, rigid
atoms, opaque functions) render readably but are not part of the grammar.
Each syntax class has one renderer. Terms render from one explicit stack,
`_render`, so their depth is bounded by memory, not by the interpreter's
recursion limit; the same walk cuts the text of chosen subterms and the
annotated rendering from the term's text. Types and function expressions
recurse, one frame per level of nesting: each renderer parenthesises its
children in its own frame.
"""
from __future__ import annotations

import itertools

from .funexpr import Constraint, FunExpr, FunVar, Id, Lift, Opaque, ProdF, SumF
from .syntax import (
    Ann,
    App,
    Atom,
    Base,
    Const,
    Ctor,
    Inl,
    Inr,
    Lit,
    Meta,
    Pair,
    Prod,
    Sum,
    Term,
    TypeExpr,
    Var,
)

TYPE_CHECKING = False  # as in `syntax`
if TYPE_CHECKING:
    from collections.abc import Collection


def _bare_type(t: TypeExpr) -> bool:
    """Whether `t` prints without parentheses as an argument of a type
    application or of `id@`."""
    return isinstance(t, (Var, Base, Atom, Meta)) or (isinstance(t, App) and not t.args)


def pretty_type(t: TypeExpr) -> str:
    if isinstance(t, Var):
        return str(t.name)
    if isinstance(t, (Base, Atom)):
        return t.name
    if isinstance(t, Meta):
        return f"?m{t.ident}"
    if isinstance(t, (Prod, Sum)):
        # Products and sums are parenthesized as children of * / + so that
        # nesting is always explicit in the output.
        left, right = pretty_type(t.left), pretty_type(t.right)
        if isinstance(t.left, (Prod, Sum)):
            left = f"({left})"
        if isinstance(t.right, (Prod, Sum)):
            right = f"({right})"
        return f"{left} * {right}" if isinstance(t, Prod) else f"{left} + {right}"
    if isinstance(t, App):
        s = t.ctor
        for a in t.args:
            s += f" {pretty_type(a)}" if _bare_type(a) else f" ({pretty_type(a)})"
        return s
    raise TypeError(f"not a type expression: {t!r}")


def _is_atomic(t: Term) -> bool:
    """Whether `t` prints without parentheses as a constructor argument or
    injection payload."""
    return isinstance(t, (Lit, Pair, Ann, Const)) or (isinstance(t, Ctor) and not t.args)


def _parts(t: Term) -> list[str | tuple[Term, bool]]:
    """One node's rendering: strings interleaved with `(child, atom)` slots
    in `term_children` order. An atom slot parenthesizes a non-atomic child."""
    if isinstance(t, Ctor):
        parts: list[str | tuple[Term, bool]] = [t.name]
        for a in t.args:
            parts += (" ", (a, True))
        return parts
    if isinstance(t, Pair):
        return ["(", (t.left, False), ", ", (t.right, False), ")"]
    if isinstance(t, (Inl, Inr)):
        return ["inl " if isinstance(t, Inl) else "inr ", (t.inner, True)]
    if isinstance(t, Lit):
        return [t.value]
    if isinstance(t, Ann):
        return ["(", (t.inner, False), f" : {pretty_type(t.type)})"]
    if isinstance(t, Const):
        return [f"<{t.tag}:{pretty_type(t.type)}>"]
    raise TypeError(f"not a term: {t!r}")


def _render(
    t: Term, heads: Collection[int], subterms: bool, annotate: bool
) -> tuple[str, dict[int, str], str | None]:
    """One walk of `t` from an explicit stack: its rendering, with
    `subterms` the rendering of every subterm object whose `id` is in
    `heads`, as a slice of it, and with `annotate` `t` with its incidental
    structure bracketed (see `pretty_annotated`).

    The bracketed text differs from the plain one only at each child outside
    `heads` of a node reached from `t` through `heads`: such a child is
    wrapped whole in [...], in place of the parentheses it may have. Those
    children never nest, so the walk marks where each one starts and ends,
    and every text is cut from the plain one: the cost is the size of the
    tree plus the length of the strings returned.

    The stack holds strings, terms and markers: `(id, piece)` ends the text
    of a head that starts at that piece, and a bool (parenthesized or not)
    and None open and close an incidental child.
    """
    out: list[str] = []
    spans: dict[int, tuple[int, int]] = {}  # head id: its first and end piece
    edits: list = []  # per incidental child: first piece, parenthesized, end piece
    region = annotate  # whether the node popped next is reached through heads
    stack: list = [t]
    push = stack.append
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is str:
            out.append(x)
        elif cls is tuple:
            spans[x[0]] = (x[1], len(out))
        elif cls is bool:
            edits += (len(out), x)
            region = False
        elif x is None:
            edits.append(len(out))
            region = True
        else:
            if subterms and id(x) in heads:
                push((id(x), len(out)))
            for part in reversed(_parts(x)):
                if part.__class__ is str:
                    push(part)
                    continue
                child, atom = part
                parens = atom and not _is_atomic(child)
                bracket = region and id(child) not in heads
                if bracket:
                    push(None)
                stack += (")", child, "(") if parens else (child,)
                if bracket:
                    push(parens)
    text = "".join(out)
    if not (spans or edits):
        return text, {}, text if annotate else None
    offsets = list(itertools.accumulate(map(len, out), initial=0))
    shown = {key: text[offsets[s]:offsets[e]] for key, (s, e) in spans.items()}
    annotated = None
    if annotate:
        pieces = []
        done = 0
        marks = iter(edits)
        for s, parens, e in zip(marks, marks, marks):
            start, end = offsets[s], offsets[e]
            pieces += (text[done:start], "[", text[start + parens:end - parens], "]")
            done = end
        pieces.append(text[done:])
        annotated = "".join(pieces)
    return text, shown, annotated


def pretty_term(t: Term) -> str:
    return _render(t, (), False, False)[0]


def pretty_subterms(t: Term, heads: Collection[int]) -> dict[int, str]:
    """The rendering of each subterm object of `t` whose `id` is in `heads`,
    each a slice of one rendering of `t`."""
    return pretty_heads(t, heads, annotate=False)[0]


def pretty_heads(
    t: Term, heads: Collection[int], subterms: bool = True, annotate: bool = True
) -> tuple[dict[int, str], str | None]:
    """`pretty_subterms(t, heads)` (empty without `subterms`) and
    `pretty_annotated(t, heads)` (None without `annotate`), from one walk.
    Each is asked for only when wanted: the subterms' texts can be as long
    as the square of the term's, and the annotated text copies the term's
    once."""
    return _render(t, heads, subterms, annotate)[1:]


def pretty_fun(e: FunExpr) -> str:
    if isinstance(e, FunVar):
        return e.display
    if isinstance(e, Id):
        s = pretty_type(e.at)
        return f"id@{s}" if _bare_type(e.at) else f"id@({s})"
    if isinstance(e, (ProdF, SumF)):
        left, right = pretty_fun(e.left), pretty_fun(e.right)
        if isinstance(e.left, (ProdF, SumF)):
            left = f"({left})"
        if isinstance(e.right, (ProdF, SumF)):
            right = f"({right})"
        return f"{left} * {right}" if isinstance(e, ProdF) else f"{left} + {right}"
    if isinstance(e, Lift):
        # Inside a lifted constructor application, only variables appear bare.
        s = e.ctor
        for a in e.args:
            s += f" {a.display}" if isinstance(a, FunVar) else f" ({pretty_fun(a)})"
        return s
    if isinstance(e, Opaque):
        return f"?({pretty_type(e.domain)} -> {pretty_type(e.codomain)})"
    raise TypeError(f"not a function expression: {e!r}")


def pretty_constraint(c: Constraint) -> str:
    return f"<{pretty_fun(c.lhs)}, {pretty_fun(c.rhs)}>"


def pretty(x: TypeExpr | Term | FunExpr | Constraint) -> str:
    if isinstance(x, TypeExpr):
        return pretty_type(x)
    if isinstance(x, Term):
        return pretty_term(x)
    if isinstance(x, FunExpr):
        return pretty_fun(x)
    if isinstance(x, Constraint):
        return pretty_constraint(x)
    raise TypeError(f"cannot pretty-print {x!r}")


def pretty_annotated(t: Term, heads: Collection[int]) -> str:
    """Render a term with its incidental structure bracketed.

    `heads` holds the `id`s of the essential subterm objects, those that head
    a call of the walk; the root is always one. Heads print normally, and
    each child outside `heads` is wrapped whole in [...] and never in
    parentheses, so bracketed regions never nest.
    """
    return pretty_heads(t, heads, subterms=False)[1]
