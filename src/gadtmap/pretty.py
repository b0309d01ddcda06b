"""Rendering of types, terms, function expressions, and constraints.

The output re-parses to an equal value for everything expressible in the
surface grammar (see GRAMMAR.md). Internal-only nodes (metavariables, rigid
atoms, opaque functions) render readably but are not part of the grammar.
Each syntax class has one renderer. Terms render from one explicit stack,
`_render`, so their depth is bounded by memory, not by the interpreter's
recursion limit. Types and function expressions recurse, one frame per level
of nesting: each renderer parenthesises its children in its own frame.
"""
from __future__ import annotations

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
    term_children,
)


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


def _render(t: Term, done: dict[int, str], heads: frozenset[int] | set[int] | None) -> str:
    """Render `t` with an explicit stack, taking the string of every subterm
    object found in `done` (keyed by `id`) instead of descending into it.

    Given `heads`, a set of subterm `id`s, every child outside it is rendered
    whole in [...] and never in parentheses; `t` itself is rendered normally.
    """
    out: list[str] = []
    stack: list[str | Term] = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        s = done.get(id(x))
        if s is not None:
            out.append(s)
            continue
        for part in reversed(_parts(x)):
            if isinstance(part, str):
                stack.append(part)
                continue
            child, atom = part
            if heads is not None and id(child) not in heads:
                stack += ("]", _render(child, done, None), "[")
            elif atom and not _is_atomic(child):
                stack += (")", child, "(")
            else:
                stack.append(child)
    return "".join(out)


def pretty_term(t: Term) -> str:
    return _render(t, {}, None)


def pretty_subterms(t: Term, heads: frozenset[int] | set[int]) -> dict[int, str]:
    """The rendering of each subterm object of `t` whose `id` is in `heads`.

    They are rendered bottom-up, each from the strings of the ones below it,
    so every node is walked once and the cost is the size of the tree plus
    the length of the strings returned.
    """
    nodes = [t]
    for x in nodes:  # breadth-first: ancestors before descendants
        nodes.extend(term_children(x))
    done: dict[int, str] = {}
    for x in reversed(nodes):
        if id(x) in heads and id(x) not in done:
            done[id(x)] = _render(x, done, None)
    return done


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


def pretty_annotated(t: Term, heads: frozenset[int] | set[int]) -> str:
    """Render a term with its incidental structure bracketed.

    `heads` holds the `id`s of the essential subterm objects, those that head
    a call of the walk; the root is always one. Heads print normally, and
    each child outside `heads` is wrapped whole in [...] and never in
    parentheses, so bracketed regions never nest.
    """
    return _render(t, {}, heads)
