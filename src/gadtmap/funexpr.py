"""Symbolic function expressions: the language the analysis constrains.

A function expression describes the shape of a function without committing to
its behaviour: a function variable, an identity at a closed type, a product or
sum of function expressions, or a data type constructor mapped over argument
functions (`Lift("List", (f,))` is the usual map of `f` over lists).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import App, Meta, Prod, Sum, TypeExpr, Var, type_children


class FunExpr:
    """Base class for function expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        from .pretty import pretty

        return pretty(self)


class Call:
    """One call of the constraint walk, named by its place in the call tree:
    its parent call (None for the root call) and its 1-based branch number
    below that parent.

    Every call holds a constant amount of data. Its dotted label ("1.2.1")
    is built from the parent chain only when output asks for it. Calls are
    equal when their labels are, so a function variable parsed back from its
    display name equals the original.
    """

    __slots__ = ("parent", "branch", "_key", "_label")

    def __init__(self, parent: Call | None, branch: int):
        self.parent = parent
        self.branch = branch
        self._key = hash((0 if parent is None else parent._key, branch))
        self._label: str | None = None

    @classmethod
    def from_label(cls, label: str) -> Call | None:
        """The call a dotted label names; None for the empty label."""
        call = None
        for part in label.split(".") if label else ():
            call = cls(call, int(part))
        return call

    @property
    def label(self) -> str:
        """The dotted label, built on demand and kept. It is built from the
        nearest ancestor whose label is kept, and labels the walk between are
        not kept, so one label costs memory linear in its depth."""
        if self._label is None:
            branches = []
            c: Call | None = self
            while c is not None and c._label is None:
                branches.append(str(c.branch))
                c = c.parent
            parts = [] if c is None else [c._label]
            parts += reversed(branches)
            self._label = ".".join(parts)
        return self._label

    def __hash__(self) -> int:
        return self._key

    def __eq__(self, other: object) -> bool:
        a: Call | None = self
        b = other
        while a is not b:
            if not (isinstance(a, Call) and isinstance(b, Call)):
                return False
            if a._key != b._key or a.branch != b.branch:
                return False
            a, b = a.parent, b.parent
        return True

    def __repr__(self) -> str:
        return f"Call({self.label!r})"


@dataclass(frozen=True, slots=True)
class FunVar(FunExpr):
    """A function variable.

    (kind, call, index, prime) identifies the variable within one analysis
    run; `intro` is its global creation rank and `domain`, when known, the
    concrete domain type. Both are bookkeeping and excluded from equality.
    A dotted label string in place of `call` is read with `Call.from_label`.
    """

    kind: str  # "f" (root), "g" (per spec variable), "h" (per index variable)
    call: Call | None  # the introducing call; None for roots
    index: int
    intro: int = field(default=-1, compare=False)
    prime: bool = False
    domain: TypeExpr | None = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.call, str):
            object.__setattr__(self, "call", Call.from_label(self.call))
        # Variables key the solver's dictionaries: hash once.
        object.__setattr__(self, "_hash", hash((self.kind, self.call, self.index, self.prime)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def display(self) -> str:
        name = self.kind + ("'" if self.prime else "") + str(self.index)
        return name if self.call is None else f"{name}^{self.call.label}"


@dataclass(frozen=True, slots=True)
class Id(FunExpr):
    """The identity function at a closed type."""

    at: TypeExpr
    # The generated `__hash__`'s value, stored when first asked for: the
    # expressions key the oracle's memo, and the generated `__hash__` would
    # re-walk the whole expression on every lookup. Most expressions the walk
    # and the solver build are never hashed, so construction does not hash.
    # ProdF, SumF, Lift and Opaque do the same.
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.at,)))
        return self._hash


@dataclass(frozen=True, slots=True)
class ProdF(FunExpr):
    left: FunExpr
    right: FunExpr
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.left, self.right)))
        return self._hash


@dataclass(frozen=True, slots=True)
class SumF(FunExpr):
    left: FunExpr
    right: FunExpr
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.left, self.right)))
        return self._hash


@dataclass(frozen=True, slots=True)
class Lift(FunExpr):
    """A data type constructor mapped over one function per type parameter."""

    ctor: str
    args: tuple[FunExpr, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ctor, self.args)))
        return self._hash


@dataclass(frozen=True, slots=True)
class Opaque(FunExpr):
    """An arbitrary unknown function into a rigid codomain (oracle use only)."""

    domain: TypeExpr
    codomain: TypeExpr
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.domain, self.codomain)))
        return self._hash


@dataclass(frozen=True, slots=True)
class Constraint:
    """An ordered requirement that `lhs` and `rhs` describe the same function.

    `call` is the walk call that emitted it and `step` the emitting step
    (`i`, `v` or `vi`); a constraint built by hand has no call, and `step`
    may hold any text.
    """

    lhs: FunExpr
    rhs: FunExpr
    step: str = ""
    call: Call | None = None

    @property
    def origin(self) -> str:
        """`<call label>:<step>`, or `step` alone when there is no call."""
        return self.step if self.call is None else f"{self.call.label}:{self.step}"


def lift_type(t: TypeExpr, env: dict[str, FunExpr]) -> FunExpr:
    """Read a type expression as a function expression.

    Variables are replaced by their bindings, maximal closed subexpressions
    become identities (kept unexpanded so `id@Nat` stays atomic), and
    products, sums and applications lift homomorphically.
    """
    lifted = _lift_open(t, env)
    return Id(t) if lifted is None else lifted


def _lift_open(t: TypeExpr, env: dict[str, FunExpr]) -> FunExpr | None:
    """`lift_type` of `t`, or None when `t` is closed: closedness is decided
    bottom-up in the same pass, so each subexpression is visited once."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Meta):
        raise ValueError(f"cannot lift type expression {t!r}")
    kids = type_children(t)
    lifted: list[FunExpr | None] = []
    for kid in kids:
        lifted.append(_lift_open(kid, env))
    if all(e is None for e in lifted):
        return None
    args = tuple(Id(kid) if e is None else e for kid, e in zip(kids, lifted))
    if isinstance(t, Prod):
        return ProdF(*args)
    if isinstance(t, Sum):
        return SumF(*args)
    return Lift(t.ctor, args)


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
                    "f", None, len(mapping) + 1, intro=e.intro, prime=True, domain=e.domain
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
