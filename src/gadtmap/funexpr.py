"""Symbolic function expressions: the language the analysis constrains.

A function expression describes the shape of a function without committing to
its behaviour: a function variable, an identity at a closed type, a product or
sum of function expressions, or a data type constructor mapped over argument
functions (`Lift("List", (f,))` is the usual map of `f` over lists).
"""
from __future__ import annotations

from operator import itemgetter

from .syntax import App, Frozen, Meta, Prod, Sum, TypeExpr, Var, _constant, _set, type_children

TYPE_CHECKING = False  # True to a type checker, without importing `typing`
if TYPE_CHECKING:
    from collections.abc import Callable

    Lifter = Callable[[object], "FunExpr"]


class FunExpr(Frozen):
    """Base class for function expressions."""

    __slots__ = ()

    def __hash__(self) -> int:
        # The hash, stored when first asked for in the `_hash` slot of every
        # class but FunVar: the expressions key the oracle's memo, and hashing
        # the fields re-walks the whole expression. Most expressions the walk
        # and the solver build are never hashed, so construction does not hash.
        if self._hash is None:
            _set(self, "_hash", super().__hash__())
        return self._hash

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


class FunVar(FunExpr):
    """A function variable.

    (kind, call, index, prime) identifies the variable within one analysis
    run; `intro` is its global creation rank and `domain`, when known, the
    concrete domain type. Both are bookkeeping and excluded from equality.
    A dotted label string in place of `call` is read with `Call.from_label`.
    """

    __slots__ = ("kind", "call", "index", "intro", "prime", "domain", "_hash")
    _compare = ("kind", "call", "index", "prime")

    def __init__(
        self,
        kind: str,
        call: Call | str | None,
        index: int,
        intro: int = -1,
        prime: bool = False,
        domain: TypeExpr | None = None,
    ) -> None:
        if isinstance(call, str):
            call = Call.from_label(call)
        _set(self, "kind", kind)  # "f" (root), "g" (per spec variable), "h" (per index variable)
        _set(self, "call", call)  # the introducing call; None for roots
        _set(self, "index", index)
        _set(self, "intro", intro)
        _set(self, "prime", prime)
        _set(self, "domain", domain)
        # Variables key the solver's dictionaries: hash once, reading the
        # call's stored hash.
        _set(self, "_hash", hash((kind, None if call is None else call._key, index, prime)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def display(self) -> str:
        name = self.kind + ("'" if self.prime else "") + str(self.index)
        return name if self.call is None else f"{name}^{self.call.label}"


class Id(FunExpr):
    """The identity function at a closed type."""

    __slots__ = ("at", "_hash")

    def __init__(self, at: TypeExpr) -> None:
        _set(self, "at", at)
        _set(self, "_hash", None)

    def __hash__(self) -> int:
        # A 1-tuple, unlike the other one-field records: hashed like `at`
        # itself, an identity would collide with its own expansions, since
        # `id@(A * B)` and `id@A * id@B` would both hash as `(A, B)` does.
        if self._hash is None:
            _set(self, "_hash", hash((self.at,)))
        return self._hash


class ProdF(FunExpr):
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: FunExpr, right: FunExpr) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", None)


class SumF(FunExpr):
    __slots__ = ("left", "right", "_hash")
    __init__ = ProdF.__init__


class Lift(FunExpr):
    """A data type constructor mapped over one function per type parameter."""

    __slots__ = ("ctor", "args", "_hash")

    def __init__(self, ctor: str, args: tuple[FunExpr, ...]) -> None:
        _set(self, "ctor", ctor)
        _set(self, "args", args)
        _set(self, "_hash", None)


class Opaque(FunExpr):
    """An arbitrary unknown function into a rigid codomain (oracle use only)."""

    __slots__ = ("domain", "codomain", "_hash")

    def __init__(self, domain: TypeExpr, codomain: TypeExpr) -> None:
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "_hash", None)


class Constraint(Frozen):
    """An ordered requirement that `lhs` and `rhs` describe the same function.

    `call` is the walk call that emitted it and `step` the emitting step
    (`i`, `v` or `vi`); a constraint built by hand has no call, and `step`
    may hold any text.
    """

    __slots__ = ("lhs", "rhs", "step", "call")

    def __init__(
        self, lhs: FunExpr, rhs: FunExpr, step: str = "", call: Call | None = None
    ) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "step", step)
        _set(self, "call", call)

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
    return lifter(t)(env)


def lifter(t: TypeExpr) -> Lifter:
    """`lift_type(t, env)` as a function of `env`, with `t` walked once.

    `env` is anything a variable's name indexes: a dict by name, or a tuple
    when the variables are named by position. Closedness is decided
    bottom-up in the same walk, and each maximal closed part becomes one
    identity built here, which every lifted result shares (so it keeps its
    hash). A metavariable raises `ValueError` here, not when lifting.
    """
    lift = _open_lifter(t)
    return _constant(Id(t)) if lift is None else lift


def _open_lifter(t: TypeExpr) -> Lifter | None:
    """`lifter(t)`, or None when `t` is closed."""
    if isinstance(t, Var):
        return itemgetter(t.name)
    if isinstance(t, Meta):
        raise ValueError(f"cannot lift type expression {t!r}")
    kids = type_children(t)
    lifts = [_open_lifter(kid) for kid in kids]
    if lifts.count(None) == len(lifts):
        return None
    args = [_constant(Id(kid)) if lift is None else lift for kid, lift in zip(kids, lifts)]
    if isinstance(t, App):
        ctor = t.ctor
        if len(args) == 1:
            arg = args[0]
            return lambda env: Lift(ctor, (arg(env),))
        return lambda env: Lift(ctor, tuple([arg(env) for arg in args]))
    node = ProdF if isinstance(t, Prod) else SumF
    left, right = args
    return lambda env: node(left(env), right(env))


def expand_id(e: Id) -> FunExpr | None:
    """One-step expansion of an identity at a composite type, or None if the
    type is atomic (a base type or rigid atom)."""
    t = e.at
    if isinstance(t, (Prod, Sum)):
        return (ProdF if isinstance(t, Prod) else SumF)(Id(t.left), Id(t.right))
    if isinstance(t, App):
        return Lift(t.ctor, tuple(Id(a) for a in t.args))
    return None


def normalize(e: FunExpr) -> FunExpr:
    """Fully expand identities at composite types; used when comparing
    function expressions up to the `id` laws."""
    if isinstance(e, Id):
        step = expand_id(e)
        return e if step is None else normalize(step)
    if isinstance(e, (ProdF, SumF)):
        return type(e)(normalize(e.left), normalize(e.right))
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
    _fun_vars(e, seen)
    return tuple(seen)


def _fun_vars(e: FunExpr, seen: dict[FunVar, None]) -> None:
    if isinstance(e, FunVar):
        seen.setdefault(e, None)
    else:
        for c in fun_children(e):
            _fun_vars(c, seen)


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
    if isinstance(e, Lift):
        return App(e.ctor, tuple(kids))
    return (Prod if isinstance(e, ProdF) else Sum)(*kids)


def canonical_rename(exprs: tuple[FunExpr, ...]) -> tuple[FunExpr, ...]:
    """Rename the function variables of `exprs` to f'1, f'2, ... in order of
    first occurrence across the whole tuple.

    Rebuilt in post-order from an explicit stack, so an expression of any
    depth takes no frame per level: a composite is pushed as a one-tuple
    marker below its children (right to left, so variables are met in
    order), and the marker rebuilds it from its children's results."""
    mapping: dict[FunVar, FunVar] = {}
    done: list[FunExpr] = []
    stack: list = list(reversed(exprs))
    while stack:
        e = stack.pop()
        if e.__class__ is tuple:
            e = e[0]
            if isinstance(e, Lift):
                cut = len(done) - len(e.args)
                args = tuple(done[cut:])
                del done[cut:]
                done.append(Lift(e.ctor, args))
            else:
                right = done.pop()
                done[-1] = type(e)(done[-1], right)
        elif isinstance(e, FunVar):
            r = mapping.get(e)
            if r is None:
                r = mapping[e] = FunVar(
                    "f", None, len(mapping) + 1, intro=e.intro, prime=True, domain=e.domain
                )
            done.append(r)
        elif isinstance(e, (ProdF, SumF, Lift)):
            stack.append((e,))
            stack.extend(reversed(fun_children(e)))
        else:
            done.append(e)
    return tuple(done)
