"""Symbolic function expressions: the language the analysis constrains.

A function expression describes the shape of a function without committing to
its behaviour: a function variable, an identity at a closed type, a product or
sum of function expressions, or a data type constructor mapped over argument
functions (`Lift("List", (f,))` is the usual map of `f` over lists).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import App, Prod, Sum, TypeExpr, Var, is_closed


class FunExpr:
    """Base class for function expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


@dataclass(frozen=True)
class FunVar(FunExpr):
    """A function variable.

    (kind, label, index, prime) identifies the variable within one analysis
    run; `intro` is its global creation rank and `domain`, when known, the
    concrete domain type. Both are bookkeeping and excluded from equality.
    """

    kind: str  # "f" (root), "g" (per spec variable), "h" (per index variable)
    label: str  # dotted label of the introducing call; "" for roots
    index: int
    intro: int = field(default=-1, compare=False)
    prime: bool = False
    domain: TypeExpr | None = field(default=None, compare=False)

    @property
    def display(self) -> str:
        name = self.kind + ("'" if self.prime else "") + str(self.index)
        return name + (f"^{self.label}" if self.label else "")


@dataclass(frozen=True)
class Id(FunExpr):
    """The identity function at a closed type."""

    at: TypeExpr


@dataclass(frozen=True)
class ProdF(FunExpr):
    left: FunExpr
    right: FunExpr


@dataclass(frozen=True)
class SumF(FunExpr):
    left: FunExpr
    right: FunExpr


@dataclass(frozen=True)
class Lift(FunExpr):
    """A data type constructor mapped over one function per type parameter."""

    ctor: str
    args: tuple[FunExpr, ...]


@dataclass(frozen=True)
class Opaque(FunExpr):
    """An arbitrary unknown function into a rigid codomain (oracle use only)."""

    domain: TypeExpr
    codomain: TypeExpr


@dataclass(frozen=True)
class Constraint:
    """An ordered requirement that `lhs` and `rhs` describe the same function."""

    lhs: FunExpr
    rhs: FunExpr
    origin: str = ""


def lift_type(t: TypeExpr, env: dict[str, FunExpr]) -> FunExpr:
    """Read a type expression as a function expression.

    Variables are replaced by their bindings, closed subexpressions become
    identities (kept unexpanded so `id@Nat` stays atomic), and products, sums
    and applications lift homomorphically.
    """
    if isinstance(t, Var):
        return env[t.name]
    if is_closed(t):
        return Id(t)
    if isinstance(t, Prod):
        return ProdF(lift_type(t.left, env), lift_type(t.right, env))
    if isinstance(t, Sum):
        return SumF(lift_type(t.left, env), lift_type(t.right, env))
    if isinstance(t, App):
        return Lift(t.ctor, tuple(lift_type(a, env) for a in t.args))
    raise ValueError(f"cannot lift type expression {t!r}")


def expand_id(e: Id) -> FunExpr | None:
    """One-step expansion of an identity at a composite type, or None if the
    type is atomic (a base type or rigid atom)."""
    t = e.at
    if isinstance(t, Prod):
        return ProdF(Id(t.left), Id(t.right))
    if isinstance(t, Sum):
        return SumF(Id(t.left), Id(t.right))
    if isinstance(t, App):
        return Lift(t.ctor, tuple(Id(a) for a in t.args))
    return None


def normalize(e: FunExpr) -> FunExpr:
    """Fully expand identities at composite types; used when comparing
    function expressions up to the `id` laws."""
    if isinstance(e, Id):
        step = expand_id(e)
        return e if step is None else normalize(step)
    if isinstance(e, ProdF):
        return ProdF(normalize(e.left), normalize(e.right))
    if isinstance(e, SumF):
        return SumF(normalize(e.left), normalize(e.right))
    if isinstance(e, Lift):
        return Lift(e.ctor, tuple(normalize(a) for a in e.args))
    return e


def fun_children(e: FunExpr) -> tuple[FunExpr, ...]:
    if isinstance(e, (ProdF, SumF)):
        return (e.left, e.right)
    if isinstance(e, Lift):
        return e.args
    return ()


def fun_vars(e: FunExpr) -> tuple[FunVar, ...]:
    """Function variables of an expression, in left-to-right order, deduplicated."""
    seen: dict[FunVar, None] = {}

    def go(e: FunExpr) -> None:
        if isinstance(e, FunVar):
            seen.setdefault(e, None)
        else:
            for c in fun_children(e):
                go(c)

    go(e)
    return tuple(seen)


def fun_type(e: FunExpr, codomain: bool) -> TypeExpr | None:
    """The domain (or, with `codomain`, the codomain) type of a function
    expression; None when not derivable: a function variable's domain is known
    only when recorded, and its codomain never is."""
    if isinstance(e, FunVar):
        return None if codomain else e.domain
    if isinstance(e, Id):
        return e.at
    if isinstance(e, Opaque):
        return e.codomain if codomain else e.domain
    kids = [fun_type(c, codomain) for c in fun_children(e)]
    if any(k is None for k in kids):
        return None
    if isinstance(e, ProdF):
        return Prod(kids[0], kids[1])
    if isinstance(e, SumF):
        return Sum(kids[0], kids[1])
    if isinstance(e, Lift):
        return App(e.ctor, tuple(kids))
    return None


def canonical_rename(exprs: tuple[FunExpr, ...]) -> tuple[FunExpr, ...]:
    """Rename the function variables of `exprs` to f'1, f'2, ... in order of
    first occurrence across the whole tuple."""
    mapping: dict[FunVar, FunVar] = {}

    def go(e: FunExpr) -> FunExpr:
        if isinstance(e, FunVar):
            if e not in mapping:
                mapping[e] = FunVar(
                    "f", "", len(mapping) + 1, intro=e.intro, prime=True, domain=e.domain
                )
            return mapping[e]
        if isinstance(e, ProdF):
            return ProdF(go(e.left), go(e.right))
        if isinstance(e, SumF):
            return SumF(go(e.left), go(e.right))
        if isinstance(e, Lift):
            return Lift(e.ctor, tuple(go(a) for a in e.args))
        return e

    return tuple(go(e) for e in exprs)
