"""Abstract syntax: type expressions, terms, and data type declarations.

Type expressions are arrow-free by construction; there is no AST node for a
function type, so the restriction is structural rather than checked. A
specification is a type expression whose free variables are the
specification variables, in first-occurrence order (`free_type_vars`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .constraints import IndexName

BASE_TYPES = ("Nat", "Int", "Bool", "Unit")


# ---------------------------------------------------------------------------
# Type expressions


class TypeExpr:
    """Base class for type expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


@dataclass(frozen=True, slots=True)
class Var(TypeExpr):
    """A type variable: a specification variable or a constructor binder, or
    an index variable of a constraint-walk call, whose name is an
    `IndexName` rendered by `str`."""

    name: str | IndexName


@dataclass(frozen=True, slots=True)
class Base(TypeExpr):
    """A built-in base type: one of Nat, Int, Bool, Unit."""

    name: str


@dataclass(frozen=True, slots=True)
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True, slots=True)
class Sum(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True, slots=True)
class App(TypeExpr):
    """Application of a declared data type constructor to type arguments."""

    ctor: str
    args: tuple[TypeExpr, ...] = ()


@dataclass(frozen=True, slots=True)
class Meta(TypeExpr):
    """A unification metavariable; only appears during type inference."""

    ident: int


@dataclass(frozen=True, slots=True)
class Atom(TypeExpr):
    """A rigid type atom: a frozen metavariable or an opaque codomain type."""

    name: str


def type_children(t: TypeExpr) -> tuple[TypeExpr, ...]:
    if isinstance(t, (Prod, Sum)):
        return (t.left, t.right)
    if isinstance(t, App):
        return t.args
    return ()


def free_type_vars(t: TypeExpr) -> tuple[str, ...]:
    """Free variables of a type expression, in first-occurrence order."""
    seen: dict[str, None] = {}

    def go(t: TypeExpr) -> None:
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        else:
            for c in type_children(t):
                go(c)

    go(t)
    return tuple(seen)


def is_closed(t: TypeExpr) -> bool:
    """True when the expression contains no type variables (atoms count as closed)."""
    if isinstance(t, Var):
        return False
    if isinstance(t, Meta):
        return False
    return all(is_closed(c) for c in type_children(t))


def subst_type(t: TypeExpr, env: dict[str, TypeExpr]) -> TypeExpr:
    """Capture-free substitution of variables (there are no binders in types)."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, Prod):
        return Prod(subst_type(t.left, env), subst_type(t.right, env))
    if isinstance(t, Sum):
        return Sum(subst_type(t.left, env), subst_type(t.right, env))
    if isinstance(t, App):
        return App(t.ctor, tuple(subst_type(a, env) for a in t.args))
    return t


# ---------------------------------------------------------------------------
# Terms

Path = tuple[int, ...]


class Term:
    """Base class for terms."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


@dataclass(frozen=True, slots=True)
class Ctor(Term):
    """A saturated data constructor application."""

    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Inl(Term):
    inner: Term


@dataclass(frozen=True, slots=True)
class Inr(Term):
    inner: Term


@dataclass(frozen=True, slots=True)
class Lit(Term):
    """A literal token. Numeric literals carry an unresolved base hint; the
    hint is only forced to Int for negative numerals."""

    value: str
    base_hint: str | None = None


@dataclass(frozen=True, slots=True)
class Ann(Term):
    """A checked type annotation `(t : T)`; erased during inference."""

    inner: Term
    type: TypeExpr


@dataclass(frozen=True, slots=True)
class Const(Term):
    """An opaque constant of a rigid type, produced when an unknown function
    is applied during map application. Not part of the surface syntax."""

    tag: str
    type: TypeExpr


def term_children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Ctor):
        return t.args
    if isinstance(t, Pair):
        return (t.left, t.right)
    if isinstance(t, (Inl, Inr)):
        return (t.inner,)
    if isinstance(t, Ann):
        return (t.inner,)
    return ()


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = term_children(t)[i]
    return t


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class ConstructorSig:
    """One data constructor: its binders, argument types, and return indices.

    For a constructor of a k-ary data type G,

        name : forall type_vars. arg_types[0] -> ... -> G ret_indices

    where len(ret_indices) == k and the free variables of every argument and
    index lie among `type_vars`. Both tuples may be empty.
    """

    name: str
    type_vars: tuple[str, ...]
    arg_types: tuple[TypeExpr, ...]
    ret_indices: tuple[TypeExpr, ...]


@dataclass(frozen=True)
class GadtDecl:
    name: str
    arity: int
    ctors: tuple[ConstructorSig, ...]


@dataclass(frozen=True)
class Program:
    decls: tuple[GadtDecl, ...] = ()

    def decl(self, name: str) -> GadtDecl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None
