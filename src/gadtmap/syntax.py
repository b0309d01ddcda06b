"""Abstract syntax: type expressions, terms, and data type declarations.

Type expressions are arrow-free by construction; there is no AST node for a
function type, so the restriction is structural rather than checked. A
specification is a type expression whose free variables are the
specification variables, in first-occurrence order (`free_type_vars`).
"""
from __future__ import annotations

from operator import attrgetter

TYPE_CHECKING = False  # True to a type checker, without importing `typing`
if TYPE_CHECKING:
    from .constraints import IndexName

BASE_TYPES = ("Nat", "Int", "Bool", "Unit")


# ---------------------------------------------------------------------------
# Records

_set = object.__setattr__  # how a frozen record's `__init__` assigns


class Record:
    """A record: its fields are its slots, set by a written-out `__init__`,
    so defining one compiles no code. Records of one class are equal when
    their compared fields are: every slot but a `_hash` memo, or the names
    in `_compare`. The repr shows every field but `_hash`, in slot order.
    A record is mutable and unhashable; see `Frozen`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if f != "_hash")
        compare = vars(cls).get("_compare", cls._fields)
        if compare:
            cls._values = attrgetter(*compare)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        a = values(self)
        b = values(other)
        return a is b or a == b  # one shared field compares without a call

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class Frozen(Record):
    """An immutable record, hashed by its compared fields (a record with
    one compared field hashes as that field)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Type expressions


class TypeExpr(Frozen):
    """Base class for type expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Var(TypeExpr):
    """A type variable: a specification variable or a constructor binder, or
    an index variable of a constraint-walk call, whose name is an
    `IndexName` rendered by `str`."""

    __slots__ = ("name",)

    def __init__(self, name: str | IndexName) -> None:
        _set(self, "name", name)


class Base(TypeExpr):
    """A built-in base type: one of Nat, Int, Bool, Unit."""

    __slots__ = ("name",)
    __init__ = Var.__init__


class Prod(TypeExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: TypeExpr, right: TypeExpr) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Sum(TypeExpr):
    __slots__ = ("left", "right")
    __init__ = Prod.__init__


class App(TypeExpr):
    """Application of a declared data type constructor to type arguments."""

    __slots__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple[TypeExpr, ...] = ()) -> None:
        _set(self, "ctor", ctor)
        _set(self, "args", args)


class Meta(TypeExpr):
    """A unification metavariable; only appears during type inference."""

    __slots__ = ("ident",)

    def __init__(self, ident: int) -> None:
        _set(self, "ident", ident)


class Atom(TypeExpr):
    """A rigid type atom: a frozen metavariable or an opaque codomain type."""

    __slots__ = ("name",)
    __init__ = Var.__init__


def type_children(t: TypeExpr) -> tuple[TypeExpr, ...]:
    if isinstance(t, (Prod, Sum)):
        return (t.left, t.right)
    if isinstance(t, App):
        return t.args
    return ()


def free_type_vars(t: TypeExpr) -> tuple[str, ...]:
    """Free variables of a type expression, in first-occurrence order."""
    seen: dict[str, None] = {}
    _type_vars(t, seen)
    return tuple(seen)


def _type_vars(t: TypeExpr, seen: dict[str, None]) -> None:
    if isinstance(t, Var):
        seen.setdefault(t.name, None)
    else:
        for c in type_children(t):
            _type_vars(c, seen)


def is_closed(t: TypeExpr) -> bool:
    """True when the expression contains no type variables (atoms count as closed)."""
    if isinstance(t, Var):
        return False
    if isinstance(t, Meta):
        return False
    for c in type_children(t):
        if not is_closed(c):
            return False
    return True


def subst_type(t: TypeExpr, env: dict[str, TypeExpr]) -> TypeExpr:
    """Capture-free substitution of variables (there are no binders in types)."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, (Prod, Sum)):
        return type(t)(subst_type(t.left, env), subst_type(t.right, env))
    if isinstance(t, App):
        return App(t.ctor, tuple([subst_type(a, env) for a in t.args]))
    return t


# ---------------------------------------------------------------------------
# Terms

Path = tuple[int, ...]


class Term(Frozen):
    """Base class for terms."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Ctor(Term):
    """A saturated data constructor application."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Term, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


class Pair(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Inl(Term):
    __slots__ = ("inner",)

    def __init__(self, inner: Term) -> None:
        _set(self, "inner", inner)


class Inr(Term):
    __slots__ = ("inner",)
    __init__ = Inl.__init__


class Lit(Term):
    """A literal token. Numeric literals carry an unresolved base hint; the
    hint is only forced to Int for negative numerals."""

    __slots__ = ("value", "base_hint")

    def __init__(self, value: str, base_hint: str | None = None) -> None:
        _set(self, "value", value)
        _set(self, "base_hint", base_hint)


class Ann(Term):
    """A checked type annotation `(t : T)`; erased during inference."""

    __slots__ = ("inner", "type")

    def __init__(self, inner: Term, type: TypeExpr) -> None:
        _set(self, "inner", inner)
        _set(self, "type", type)


class Const(Term):
    """An opaque constant of a rigid type, produced when an unknown function
    is applied during map application. Not part of the surface syntax."""

    __slots__ = ("tag", "type")

    def __init__(self, tag: str, type: TypeExpr) -> None:
        _set(self, "tag", tag)
        _set(self, "type", type)


def term_children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Ctor):
        return t.args
    if isinstance(t, Pair):
        return (t.left, t.right)
    if isinstance(t, (Inl, Inr, Ann)):
        return (t.inner,)
    return ()


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = term_children(t)[i]
    return t


# ---------------------------------------------------------------------------
# Declarations


class ConstructorSig(Frozen):
    """One data constructor: its binders, argument types, and return indices.

    For a constructor of a k-ary data type G,

        name : forall type_vars. arg_types[0] -> ... -> G ret_indices

    where len(ret_indices) == k and the free variables of every argument and
    index lie among `type_vars`. Both tuples may be empty.
    """

    __slots__ = ("name", "type_vars", "arg_types", "ret_indices")

    def __init__(
        self,
        name: str,
        type_vars: tuple[str, ...],
        arg_types: tuple[TypeExpr, ...],
        ret_indices: tuple[TypeExpr, ...],
    ) -> None:
        _set(self, "name", name)
        _set(self, "type_vars", type_vars)
        _set(self, "arg_types", arg_types)
        _set(self, "ret_indices", ret_indices)


class GadtDecl(Frozen):
    __slots__ = ("name", "arity", "ctors")

    def __init__(self, name: str, arity: int, ctors: tuple[ConstructorSig, ...]) -> None:
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "ctors", ctors)


class Program(Frozen):
    __slots__ = ("decls",)

    def __init__(self, decls: tuple[GadtDecl, ...] = ()) -> None:
        _set(self, "decls", decls)

    def decl(self, name: str) -> GadtDecl | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None
