"""Unification-based type inference for terms, plus the entry precondition.

Inference assigns every subterm occurrence a type, instantiating each
constructor occurrence with fresh metavariables. Numeric literals are
represented by metavariables constrained to Nat or Int; whatever is still
undetermined after constraint propagation defaults to Nat (or Int when
requested), matching both conventions used in practice.

`check_call_invariants` establishes the analysis precondition: the term's
type must be an instance of the specification. Metavariables that survive
inference (e.g. the element type of a bare `nil`) may be instantiated by the
specification here; anything still unsolved afterwards is frozen to a rigid
atom, so the analysis itself never sees a metavariable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
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
    Path,
    Prod,
    Spec,
    Sum,
    Term,
    TypeExpr,
    metas_in,
    strip_annotations,
    subst_type,
    subterm_at,
)
from .wellformed import ValidatedProgram


class TypeCheckError(Exception):
    """The term does not have a type (a mismatch during inference)."""


class SpecMismatch(Exception):
    """The term's type is not an instance of the specification."""


class FunArityMismatch(Exception):
    """Wrong number of input functions for the specification's head."""


class _Store:
    """Metavariable store: solutions plus the numeric-literal constraint set."""

    def __init__(self) -> None:
        self.solutions: dict[int, TypeExpr] = {}
        self.numeric: set[int] = set()
        self._next = 0

    def fresh(self, numeric: bool = False) -> Meta:
        m = Meta(self._next)
        self._next += 1
        if numeric:
            self.numeric.add(m.ident)
        return m

    def walk(self, t: TypeExpr) -> TypeExpr:
        while isinstance(t, Meta) and t.ident in self.solutions:
            t = self.solutions[t.ident]
        return t

    def resolve(self, t: TypeExpr) -> TypeExpr:
        t = self.walk(t)
        if isinstance(t, Prod):
            return Prod(self.resolve(t.left), self.resolve(t.right))
        if isinstance(t, Sum):
            return Sum(self.resolve(t.left), self.resolve(t.right))
        if isinstance(t, App):
            return App(t.ctor, tuple(self.resolve(a) for a in t.args))
        return t

    def _occurs(self, ident: int, t: TypeExpr) -> bool:
        t = self.walk(t)
        if isinstance(t, Meta):
            return t.ident == ident
        if isinstance(t, Prod) or isinstance(t, Sum):
            return self._occurs(ident, t.left) or self._occurs(ident, t.right)
        if isinstance(t, App):
            return any(self._occurs(ident, a) for a in t.args)
        return False

    def _bind(self, m: Meta, t: TypeExpr) -> None:
        if self._occurs(m.ident, t):
            raise TypeCheckError(f"occurs check failed binding ?m{m.ident} to {t}")
        if m.ident in self.numeric:
            t_ = self.walk(t)
            if isinstance(t_, Meta):
                self.numeric.add(t_.ident)
            elif not (isinstance(t_, Base) and t_.name in ("Nat", "Int")):
                raise TypeCheckError(f"a numeric literal cannot have type {t_}")
        self.solutions[m.ident] = t

    def unify(self, a: TypeExpr, b: TypeExpr, where: str = "") -> None:
        a, b = self.walk(a), self.walk(b)
        if a == b:
            return
        if isinstance(a, Meta):
            self._bind(a, b)
            return
        if isinstance(b, Meta):
            self._bind(b, a)
            return
        if isinstance(a, Prod) and isinstance(b, Prod):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        if isinstance(a, Sum) and isinstance(b, Sum):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        if isinstance(a, App) and isinstance(b, App) and a.ctor == b.ctor:
            for x, y in zip(a.args, b.args):
                self.unify(x, y, where)
            return
        suffix = f" in {where}" if where else ""
        raise TypeCheckError(
            f"type mismatch{suffix}: expected {self.resolve(a)}, found {self.resolve(b)}"
        )


@dataclass
class TypedTerm:
    """A term with a type for every subterm occurrence (keyed by path) and,
    for each constructor occurrence, the instantiation of its binders."""

    term: Term
    vp: ValidatedProgram
    _store: _Store
    _type_of: dict[Path, TypeExpr]
    _instance_of: dict[Path, tuple[TypeExpr, ...]]
    int_literals: bool = False
    frozen: bool = False

    def type_at(self, path: Path = ()) -> TypeExpr:
        return self._store.resolve(self._type_of[path])

    def instance_at(self, path: Path) -> tuple[TypeExpr, ...]:
        return tuple(self._store.resolve(t) for t in self._instance_of[path])

    def paths(self) -> list[Path]:
        return sorted(self._type_of)

    def unify_root(self, ty: TypeExpr) -> None:
        """Refine the typing so that the whole term has type `ty`; raises
        `TypeCheckError` when it cannot."""
        self._store.unify(self._type_of[()], ty)


def infer(term: Term, vp: ValidatedProgram, int_literals: bool = False) -> TypedTerm:
    """Infer the most general typing of `term`.

    Metavariables that no constraint determines (such as the element type of
    a bare `nil`) survive in the result as unsolved metas.
    """
    store = _Store()
    stripped, annotations = strip_annotations(term)
    type_of: dict[Path, TypeExpr] = {}
    instance_of: dict[Path, tuple[TypeExpr, ...]] = {}

    def go(t: Term, path: Path) -> TypeExpr:
        ty: TypeExpr
        if isinstance(t, Ctor):
            try:
                decl, sig = vp.ctor(t.name)
            except KeyError:
                raise TypeCheckError(f"unknown constructor {t.name!r}") from None
            inst = {v: store.fresh() for v in sig.type_vars}
            for j, arg in enumerate(t.args):
                expected = subst_type(sig.arg_types[j], inst)
                actual = go(arg, path + (j,))
                store.unify(expected, actual, f"argument {j + 1} of {t.name!r}")
            instance_of[path] = tuple(inst[v] for v in sig.type_vars)
            ty = App(decl.name, tuple(subst_type(k, inst) for k in sig.ret_indices))
        elif isinstance(t, Pair):
            ty = Prod(go(t.left, path + (0,)), go(t.right, path + (1,)))
        elif isinstance(t, Inl):
            ty = Sum(go(t.inner, path + (0,)), store.fresh())
        elif isinstance(t, Inr):
            ty = Sum(store.fresh(), go(t.inner, path + (0,)))
        elif isinstance(t, Lit):
            if t.base_hint in ("Bool", "Unit", "Int"):
                ty = Base(t.base_hint)
            else:
                ty = store.fresh(numeric=True)
        elif isinstance(t, Const):
            ty = t.type
        else:
            raise TypeCheckError(f"cannot type {t!r}")
        type_of[path] = ty
        return ty

    go(stripped, ())
    for path, ann_ty in annotations:
        store.unify(type_of[path], ann_ty, f"annotation at {subterm_at(stripped, path)}")

    default = Base("Int" if int_literals else "Nat")
    for ident in sorted(store.numeric):
        root = store.walk(Meta(ident))
        if isinstance(root, Meta):
            store.solutions[root.ident] = default

    return TypedTerm(stripped, vp, store, type_of, instance_of, int_literals)


@dataclass(frozen=True)
class InstanceWitness:
    """Evidence that the term's type instantiates the specification: the
    substitution for the specification variables, the head arity, and the
    root constructor's binder instantiation (None for pair/injection roots)."""

    subst: dict[str, TypeExpr]
    k: int
    w: tuple[TypeExpr, ...] | None


def spec_head_arity(spec: Spec, vp: ValidatedProgram) -> int:
    """Number of input functions determined by the specification's head."""
    shape = spec.shape
    if isinstance(shape, App):
        try:
            return vp.arity(shape.ctor)
        except KeyError:
            raise SpecMismatch(f"unknown type constructor {shape.ctor!r}") from None
    if isinstance(shape, (Prod, Sum)):
        return 2
    raise SpecMismatch(
        "specification must be a data type application, a product, or a sum "
        f"(got {shape})"
    )


def check_call_invariants(typed: TypedTerm, spec: Spec, fun_arity: int) -> InstanceWitness:
    """Check the analysis precondition and freeze the typing.

    Finds a substitution s for the specification variables with
    spec[vars := s] equal to the term's type; the search may instantiate
    metavariables still unsolved in the typing. Afterwards every remaining
    metavariable is frozen to a fresh rigid atom.
    """
    vp = typed.vp
    k = spec_head_arity(spec, vp)
    if fun_arity != k:
        raise FunArityMismatch(
            f"specification head expects {k} input function(s), got {fun_arity}"
        )
    store = typed._store
    mus = {v: store.fresh() for v in spec.vars}
    try:
        store.unify(subst_type(spec.shape, mus), typed._type_of[()], "specification")
    except TypeCheckError as e:
        raise SpecMismatch(
            f"term of type {typed.type_at(())} does not match specification "
            f"{spec}: {e}"
        ) from None

    _freeze(typed)
    subst = {v: store.resolve(m) for v, m in mus.items()}
    w = typed.instance_at(()) if isinstance(typed.term, Ctor) else None
    return InstanceWitness(subst, k, w)


def _freeze(typed: TypedTerm) -> None:
    """Bind every metavariable still reachable from the typing to a fresh
    rigid atom, in deterministic path order."""
    store = typed._store
    counter = 0
    for path in typed.paths():
        pending = metas_in(store.resolve(typed._type_of[path]))
        for ident in sorted(pending):
            store.solutions[ident] = Atom(f"?{counter}")
            counter += 1
    for path in sorted(typed._instance_of):
        for t in typed._instance_of[path]:
            for ident in sorted(metas_in(store.resolve(t))):
                store.solutions[ident] = Atom(f"?{counter}")
                counter += 1
    typed.frozen = True
