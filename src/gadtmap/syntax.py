"""Abstract syntax: type expressions, terms, and data type declarations.

Type expressions are arrow-free by construction; there is no AST node for a
function type, so the restriction is structural rather than checked. A
specification is a type expression whose free variables are the
specification variables, in first-occurrence order (`free_type_vars`).
"""
from __future__ import annotations

from operator import attrgetter, itemgetter

TYPE_CHECKING = False  # True to a type checker, without importing `typing`
if TYPE_CHECKING:
    from collections.abc import Callable

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


def _instantiator(
    t: TypeExpr, slots: dict[str, int] | None = None
) -> Callable[[tuple], TypeExpr]:
    """`subst_type` on `t` as a function of a tuple `vals`, with `t` walked
    once: each variable named in `slots` stands for `vals` at its slot, and
    without `slots` every variable is named by its slot. Other variables and
    the parts that hold no slot stand for themselves, kept, not rebuilt."""
    return _call(t, _compile(t, slots))


def _instantiate_each(ts: tuple[TypeExpr, ...]) -> Callable[[tuple], tuple[TypeExpr, ...]]:
    """`_instantiator` of each of `ts`, whose variables are named by their
    slots, as one function giving a tuple."""
    return _tupled(ts, [_compile(t, None) for t in ts])


def _compile(t: TypeExpr, slots: dict[str, int] | None) -> Callable | int | None:
    """`_instantiator(t, slots)`, except that it is the slot itself when `t`
    is a slot, and None when `t` holds none, which is decided bottom-up in
    the same pass."""
    cls = t.__class__
    if cls is Var:
        return t.name if slots is None else slots.get(t.name)
    if cls is App:
        fs = [_compile(a, slots) for a in t.args]
        if fs.count(None) == len(fs):
            return None
        ctor, args = t.ctor, _tupled(t.args, fs)
        return lambda vals: App(ctor, args(vals))
    if cls is Prod or cls is Sum:
        left, right = _compile(t.left, slots), _compile(t.right, slots)
        if left is None and right is None:
            return None
        left, right = _call(t.left, left), _call(t.right, right)
        return lambda vals: cls(left(vals), right(vals))
    return None


def _call(t: TypeExpr, f: Callable | int | None) -> Callable:
    """The function of `vals` that `_compile` gave `f` for `t`."""
    if f is None:
        return _constant(t)
    return itemgetter(f) if f.__class__ is int else f


def _tupled(ts: tuple, fs: list[Callable | int | None]) -> Callable[[tuple], tuple]:
    """One function giving the results of `fs`, compiled from `ts` as
    `_compile` does (a function of `vals`, a slot, or None for a template
    that stands for itself), as a tuple. When every one is a slot, the tuple
    is picked in C."""
    if set(map(type, fs)) <= {int}:
        return _pick(tuple(fs))
    fs = [_call(t, f) for t, f in zip(ts, fs)]
    if len(fs) == 1:
        f = fs[0]
        return lambda vals: (f(vals),)
    if len(fs) == 2:
        f, g = fs
        return lambda vals: (f(vals), g(vals))
    return lambda vals: tuple([f(vals) for f in fs])


def _pick(slots: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The items of a tuple at `slots`, as a tuple, picked in C."""
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1))
    return itemgetter(*slots) if slots else itemgetter(slice(0, 0))


def _constant(value: object) -> Callable[[object], object]:
    return lambda env: value


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
