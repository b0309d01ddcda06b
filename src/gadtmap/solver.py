"""Solving the emitted constraints by decomposition and first-order unification.

Both sides of every emitted constraint describe the same function, so they are
top-unifiable: identical symbols wherever both sides are non-variables, with
identities at composite types expanded on demand (an identity at a product
type is the product of identities, and likewise through constructors).
Decomposition peels the common structure down to atomic constraints whose
right-hand side is a variable.

Unification then orients bindings so that earlier-created variables are
replaced by later-created ones whenever two variables meet. The earliest
variables are the root input functions, so each root ends up with exactly one
binding over the latest-generation variables; those bindings are the most
general shapes of the mappable functions.
"""
from __future__ import annotations

from .funexpr import (
    Constraint,
    FunExpr,
    FunVar,
    Id,
    Lift,
    ProdF,
    SumF,
    canonical_rename,
    expand_id,
    fun_children,
)
from .syntax import Frozen, Record, _set


class SpecUnsatisfiable(Exception):
    """The constraint set has no solution (head clash or occurs failure).

    Generated constraint sets are always solvable when the entry precondition
    holds; this surfaces only for hand-built constraint sets.
    """

    stage = "solver"


class AtomicConstraint(Frozen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: FunExpr, rhs: FunVar) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


def _peel(a: FunExpr, b: FunExpr) -> list[tuple[FunExpr, FunExpr]]:
    """The child pairs of two non-variable expressions with the same head
    symbol, expanding identities at composite types on demand; raises
    `SpecUnsatisfiable` when the heads clash."""
    if isinstance(a, Id) and isinstance(b, Id) and a.at == b.at:
        return []
    if isinstance(a, Id) or isinstance(b, Id):
        ea = expand_id(a) if isinstance(a, Id) else a
        eb = expand_id(b) if isinstance(b, Id) else b
        if ea is None or eb is None:
            raise SpecUnsatisfiable(f"cannot expand an identity in <{a}, {b}>")
        return [(ea, eb)]
    if isinstance(a, (ProdF, SumF)) and type(a) is type(b):
        return [(a.left, b.left), (a.right, b.right)]
    if isinstance(a, Lift) and isinstance(b, Lift) and a.ctor == b.ctor:
        return list(zip(a.args, b.args))
    raise SpecUnsatisfiable(f"head clash in <{a}, {b}>")


def decompose(c: Constraint) -> list[AtomicConstraint]:
    """Peel identical head symbols from both sides until one is a variable."""
    out: list[AtomicConstraint] = []

    def peel(a: FunExpr, b: FunExpr) -> None:
        if isinstance(b, FunVar):
            out.append(AtomicConstraint(a, b))
        elif isinstance(a, FunVar):
            out.append(AtomicConstraint(b, a))
        else:
            for x, y in _peel(a, b):
                peel(x, y)

    peel(c.lhs, c.rhs)
    return out


class SolvedSystem(Record):
    """An idempotent triangular substitution. Keys are ordered by creation;
    every binding is fully substituted, so applying the system to any of its
    own values is a fixpoint. Bindings are shared structure: a variable's
    resolution is one object, held by every binding that mentions it.
    `free_vars` lists the unbound variables of the bindings in order of
    first occurrence."""

    __slots__ = ("bindings", "free_vars")

    def __init__(self, bindings: dict[FunVar, FunExpr], free_vars: tuple[FunVar, ...]) -> None:
        self.bindings = bindings
        self.free_vars = free_vars


def unify_all(atomics: list[AtomicConstraint]) -> SolvedSystem:
    """First-order unification over function expressions.

    Orientation: when two variables meet, the earlier-created one is bound to
    the later; a variable meeting a composite is bound to it (after the occurs
    check). Identities expand on demand exactly as in decomposition. Binding
    chains are path-compressed as they are walked (union-find, Tarjan 1975).
    """
    raw: dict[FunVar, FunExpr] = {}

    def walk(e: FunExpr) -> FunExpr:
        # Path compression: every variable passed is repointed to the end of
        # its chain. This keeps the keys of `raw` and the value each of them
        # resolves to, so the solved system is the same.
        passed = []
        while isinstance(e, FunVar):
            nxt = raw.get(e)
            if nxt is None:
                break
            passed.append(e)
            e = nxt
        for v in passed:
            raw[v] = e
        return e

    def occurs(v: FunVar, e: FunExpr) -> bool:
        e = walk(e)
        if isinstance(e, FunVar):
            return e == v
        return any(occurs(v, c) for c in fun_children(e))

    def bind(v: FunVar, e: FunExpr) -> None:
        if occurs(v, e):
            raise SpecUnsatisfiable(f"occurs check failed binding {v} to {e}")
        raw[v] = e

    def unite(a: FunExpr, b: FunExpr) -> None:
        a, b = walk(a), walk(b)
        if isinstance(a, FunVar) and isinstance(b, FunVar):
            if a != b:
                lo, hi = (a, b) if a.intro < b.intro else (b, a)
                raw[lo] = hi
        elif isinstance(a, FunVar):
            bind(a, b)
        elif isinstance(b, FunVar):
            bind(b, a)
        else:
            for x, y in _peel(a, b):
                unite(x, y)

    for ac in atomics:
        unite(ac.lhs, ac.rhs)

    # Each variable is resolved once, and its resolution is one object shared
    # by every binding that mentions it.
    resolved: dict[FunVar, FunExpr] = {}

    def resolve(e: FunExpr) -> FunExpr:
        if isinstance(e, FunVar):
            r = resolved.get(e)
            if r is None:
                nxt = raw.get(e)
                r = resolved[e] = e if nxt is None else resolve(nxt)
            return r
        if isinstance(e, (ProdF, SumF)):
            return type(e)(resolve(e.left), resolve(e.right))
        if isinstance(e, Lift):
            return Lift(e.ctor, tuple(map(resolve, e.args)))
        return e

    ordered = sorted(raw, key=lambda v: v.intro)
    # Latest first: a later variable's resolution is met by earlier ones, so
    # resolving it first keeps the recursion shallow.
    for v in reversed(ordered):
        resolve(v)
    bindings = {v: resolved[v] for v in ordered}

    # The variables of resolutions are unbound. They are listed in order of
    # first occurrence, scanning each shared sub-expression once: a repeat
    # holds no variable not already met.
    free: dict[FunVar, None] = {}
    scanned: set[int] = set()

    def scan(e: FunExpr) -> None:
        if isinstance(e, FunVar):
            free[e] = None
        elif id(e) not in scanned:
            scanned.add(id(e))
            for c in fun_children(e):
                scan(c)

    for value in bindings.values():
        scan(value)
    return SolvedSystem(bindings, tuple(free))


def most_general_form(solved: SolvedSystem, roots: tuple[FunVar, ...]) -> tuple[FunExpr, ...]:
    """The solved binding for each root, with free variables renamed to
    f'1, f'2, ... in order of first occurrence across the tuple."""
    forms = []
    for root in roots:
        if root not in solved.bindings:
            raise SpecUnsatisfiable(f"no binding for root function {root}")
        forms.append(solved.bindings[root])
    return canonical_rename(tuple(forms))


def solve(constraints: list[Constraint], roots: tuple[FunVar, ...]) -> tuple[SolvedSystem, tuple[FunExpr, ...]]:
    """Decompose and unify a constraint list; return the solved system and
    the canonical most general form of each root."""
    atomics: list[AtomicConstraint] = []
    for c in constraints:
        atomics.extend(decompose(c))
    solved = unify_all(atomics)
    return solved, most_general_form(solved, roots)
