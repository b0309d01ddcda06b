"""Unification-based type inference for terms, plus the entry precondition.

Inference assigns every subterm occurrence a type, instantiating each
constructor occurrence with fresh metavariables. Numeric literals are
represented by metavariables constrained to Nat or Int; whatever is still
undetermined after constraint propagation defaults to Nat (or Int when
requested), matching both conventions used in practice.

`check_call_invariants` establishes the analysis precondition: the term's
type must be an instance of the specification, a type expression whose
variables become fresh metavariables in first-occurrence order. Metavariables
that survive inference (e.g. the element type of a bare `nil`) may be
instantiated by the specification here; anything still unsolved afterwards is
frozen to a rigid atom and every node's type is overwritten with its ground
type, so the analysis itself never sees a metavariable. Each metavariable is resolved
once and its ground type shared, so grounding is linear in the raw typing
even where types are as deep as the term. The substitution it
finds is recorded on the typing once (`InstanceWitness`), and fixes the domain
of every input function.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .syntax import (
    Ann,
    App,
    Atom,
    Base,
    Const,
    ConstructorSig,
    Ctor,
    Frozen,
    GadtDecl,
    Inl,
    Inr,
    Lit,
    Meta,
    Pair,
    Prod,
    Record,
    Sum,
    Term,
    TypeExpr,
    _set,
    free_type_vars,
    subst_type,
    type_children,
)
from .wellformed import ValidatedProgram


class TypeCheckError(Exception):
    """The term does not have a type (a mismatch during inference)."""


class SpecMismatch(Exception):
    """The term's type is not an instance of the specification."""


class FunArityMismatch(Exception):
    """Wrong number of input functions for the specification's head."""


class _Store:
    """Metavariable store: solutions plus the numeric-literal constraint set.

    A solution, once added, is never changed or removed."""

    def __init__(self) -> None:
        self.solutions: dict[int, TypeExpr] = {}
        self.numeric: set[int] = set()
        self._next = 0
        # Each metavariable's resolution, valid while the solutions number
        # `_resolved_at`: an added solution can only refine a resolution.
        self._resolved: dict[int, TypeExpr] = {}
        self._resolved_at = 0

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
        """`t` with every solved metavariable replaced by its resolution.

        Each metavariable is resolved once, and its resolution is one object
        shared by every type that reaches it, so resolving many types that
        share metavariables costs their raw size, not their resolved size."""
        if self._resolved_at != len(self.solutions):
            self._resolved.clear()
            self._resolved_at = len(self.solutions)
        return self._resolve(t)

    def _resolve(self, t: TypeExpr) -> TypeExpr:
        # A metavariable is followed to its solution, which is rebuilt in
        # this frame: one frame per level of the type.
        metas: list[int] = []
        while isinstance(t, Meta):
            r = self._resolved.get(t.ident)
            if r is not None:
                t = r
                break
            s = self.solutions.get(t.ident)
            if s is None:
                break
            metas.append(t.ident)
            t = s
        else:
            if isinstance(t, (Prod, Sum)):
                t = type(t)(self._resolve(t.left), self._resolve(t.right))
            elif isinstance(t, App):
                t = App(t.ctor, tuple(map(self._resolve, t.args)))
        for ident in metas:
            self._resolved[ident] = t
        return t

    def _occurs(self, ident: int, t: TypeExpr) -> bool:
        t = self.walk(t)
        if isinstance(t, Meta):
            return t.ident == ident
        if isinstance(t, Prod) or isinstance(t, Sum):
            return self._occurs(ident, t.left) or self._occurs(ident, t.right)
        if isinstance(t, App):
            # A loop, not `any(<genexpr>)`: one frame per level of the type.
            for a in t.args:
                if self._occurs(ident, a):
                    return True
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

    def unify(
        self, a: TypeExpr, b: TypeExpr, where: Callable[[], str] | None = None
    ) -> None:
        """Unify `a` with `b`; `where` names the site in a mismatch message
        and is called only when there is one."""
        a, b = self.walk(a), self.walk(b)
        if a == b:
            return
        if isinstance(a, Meta):
            self._bind(a, b)
            return
        if isinstance(b, Meta):
            self._bind(b, a)
            return
        if isinstance(a, (Prod, Sum)) and type(a) is type(b):
            self.unify(a.left, b.left, where)
            self.unify(a.right, b.right, where)
            return
        if isinstance(a, App) and isinstance(b, App) and a.ctor == b.ctor:
            for x, y in zip(a.args, b.args):
                self.unify(x, y, where)
            return
        suffix = f" in {where()}" if where else ""
        raise TypeCheckError(
            f"type mismatch{suffix}: expected {self.resolve(a)}, found {self.resolve(b)}"
        )


class TypedNode(Record):
    """One subterm occurrence: the annotation-free subterm, its type, the
    instantiation of its binders when it is a constructor application (`()`
    otherwise), and its typed children in `term_children` order.

    After inference the type and instance are raw (metavariables unresolved;
    read them through `TypedTerm.type_of`/`instance_of`). Freezing the typing
    overwrites both with ground types, which are shared structure: nodes
    whose types reach one metavariable hold one object for its resolution,
    so treat them as immutable. Nodes compare by identity."""

    __slots__ = ("term", "type", "instance", "kids")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        term: Term,
        type: TypeExpr,
        instance: tuple[TypeExpr, ...] = (),
        kids: tuple[TypedNode, ...] = (),
    ) -> None:
        self.term = term
        self.type = type
        self.instance = instance
        self.kids = kids


class TypedTerm(Record):
    """A term as a tree of typed nodes and the metavariable store that
    resolves their raw types; once frozen, the nodes hold ground types."""

    __slots__ = ("root", "vp", "_store", "int_literals", "witness")

    def __init__(
        self,
        root: TypedNode,
        vp: ValidatedProgram,
        _store: _Store,
        int_literals: bool = False,
        witness: InstanceWitness | None = None,
    ) -> None:
        self.root = root
        self.vp = vp
        self._store = _store
        self.int_literals = int_literals
        self.witness = witness  # set by `check_call_invariants`

    @property
    def term(self) -> Term:
        return self.root.term

    def type_of(self, node: TypedNode) -> TypeExpr:
        return self._store.resolve(node.type)

    def instance_of(self, node: TypedNode) -> tuple[TypeExpr, ...]:
        return tuple(self._store.resolve(t) for t in node.instance)

    def nodes(self) -> Iterator[TypedNode]:
        """Every node, in preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.kids))

    def unify_root(self, ty: TypeExpr) -> None:
        """Refine the typing so that the whole term has type `ty`; raises
        `TypeCheckError` when it cannot."""
        self._store.unify(self.root.type, ty)


def infer(term: Term, vp: ValidatedProgram, int_literals: bool = False) -> TypedTerm:
    """Infer the most general typing of `term`.

    Annotations are dropped from the typed tree and checked after the walk,
    in preorder, outer before inner. Metavariables that no constraint
    determines (such as the element type of a bare `nil`) survive in the
    result as unsolved metas.

    The walk keeps the nodes whose children are being typed on an explicit
    stack, so term depth is bounded by memory, not by the interpreter's
    recursion limit. It allocates and unifies metavariables in the order of
    a recursive descent: children left to right, each constructor argument
    unified with its expected type as soon as it is typed.
    """
    store = _Store()
    # (annotated node, annotation) in preorder, outer before inner: the slot
    # is taken when the annotation is met and filled once its node is typed.
    annotations: list = []
    # One frame per node whose children are being typed, innermost last:
    # [Ctor, term, decl, sig, inst, kids], [Pair, term, left or None],
    # [Inl], [Inr, right-hand metavariable] or [Ann, slot, annotation].
    stack: list[list] = []
    t = term
    while True:
        # Descend to the leftmost untyped leaf, opening a frame per inner node.
        while True:
            if isinstance(t, Ann):
                stack.append([Ann, len(annotations), t.type])
                annotations.append(None)
                t = t.inner
            elif isinstance(t, Ctor):
                try:
                    decl, sig = vp.ctor(t.name)
                except KeyError:
                    raise TypeCheckError(f"unknown constructor {t.name!r}") from None
                if len(t.args) != len(sig.arg_types):
                    raise TypeCheckError(
                        f"constructor {t.name!r} expects {len(sig.arg_types)} argument(s), "
                        f"got {len(t.args)}"
                    )
                inst = {v: store.fresh() for v in sig.type_vars}
                if not t.args:
                    node = _ctor_node(t, decl, sig, inst, [])
                    break
                stack.append([Ctor, t, decl, sig, inst, []])
                t = t.args[0]
            elif isinstance(t, Pair):
                stack.append([Pair, t, None])
                t = t.left
            elif isinstance(t, Inl):
                stack.append([Inl])
                t = t.inner
            elif isinstance(t, Inr):
                stack.append([Inr, store.fresh()])
                t = t.inner
            elif isinstance(t, Lit):
                if t.base_hint in ("Bool", "Unit", "Int"):
                    node = TypedNode(t, Base(t.base_hint))
                else:
                    node = TypedNode(t, store.fresh(numeric=True))
                break
            elif isinstance(t, Const):
                node = TypedNode(t, t.type)
                break
            else:
                raise TypeCheckError(f"cannot type {t!r}")
        # Ascend: hand the typed node to the innermost frame, until a frame
        # has a further child to type or the root is typed.
        while stack:
            frame = stack[-1]
            kind = frame[0]
            if kind is Ctor:
                _, c, decl, sig, inst, kids = frame
                j = len(kids)
                store.unify(
                    subst_type(sig.arg_types[j], inst),
                    node.type,
                    lambda: f"argument {j + 1} of {c.name!r}",
                )
                kids.append(node)
                if j + 1 < len(c.args):
                    t = c.args[j + 1]
                    break
                node = _ctor_node(c, decl, sig, inst, kids)
            elif kind is Pair:
                left = frame[2]
                if left is None:
                    frame[2] = node
                    t = frame[1].right
                    break
                node = TypedNode(
                    Pair(left.term, node.term), Prod(left.type, node.type), kids=(left, node)
                )
            elif kind is Inl:
                node = TypedNode(Inl(node.term), Sum(node.type, store.fresh()), kids=(node,))
            elif kind is Inr:
                node = TypedNode(Inr(node.term), Sum(frame[1], node.type), kids=(node,))
            else:
                annotations[frame[1]] = (node, frame[2])
            stack.pop()
        else:
            break

    root = node
    for node, ann_ty in annotations:
        store.unify(node.type, ann_ty, lambda: f"annotation at {node.term}")

    default = Base("Int" if int_literals else "Nat")
    for ident in sorted(store.numeric):
        root_ty = store.walk(Meta(ident))
        if isinstance(root_ty, Meta):
            store.solutions[root_ty.ident] = default

    return TypedTerm(root, vp, store, int_literals)


def _ctor_node(
    t: Ctor, decl: GadtDecl, sig: ConstructorSig, inst: dict[str, Meta], kids: list[TypedNode]
) -> TypedNode:
    """The typed node of a constructor application whose arguments are typed."""
    return TypedNode(
        Ctor(t.name, tuple(k.term for k in kids)),
        App(decl.name, tuple(subst_type(k, inst) for k in sig.ret_indices)),
        tuple(inst[v] for v in sig.type_vars),
        tuple(kids),
    )


class InstanceWitness(Frozen):
    """Evidence that the term's type instantiates the specification: the
    substitution for the specification variables, and the specification
    head's components under it, which are the input functions' domains."""

    __slots__ = ("subst", "domains")

    def __init__(self, subst: dict[str, TypeExpr], domains: tuple[TypeExpr, ...]) -> None:
        _set(self, "subst", subst)
        _set(self, "domains", domains)


def spec_head_arity(spec: TypeExpr, vp: ValidatedProgram) -> int:
    """Number of input functions determined by the specification's head."""
    if isinstance(spec, App):
        try:
            return vp.arity(spec.ctor)
        except KeyError:
            raise SpecMismatch(f"unknown type constructor {spec.ctor!r}") from None
    if isinstance(spec, (Prod, Sum)):
        return 2
    raise SpecMismatch(
        "specification must be a data type application, a product, or a sum "
        f"(got {spec})"
    )


def spec_instance(spec: TypeExpr, ty: TypeExpr, store: _Store) -> dict[str, Meta]:
    """Unify the specification, its variables made fresh metavariables of
    `store` in first-occurrence order, with `ty`; returns those metavariables.
    Raises `TypeCheckError` when `ty` is not an instance of the specification."""
    mus = {v: store.fresh() for v in free_type_vars(spec)}
    store.unify(subst_type(spec, mus), ty, lambda: "specification")
    return mus


def check_call_invariants(typed: TypedTerm, spec: TypeExpr, fun_arity: int) -> InstanceWitness:
    """Check the analysis precondition and freeze the typing.

    Finds a substitution s for the specification variables with
    spec[vars := s] equal to the term's type; the search may instantiate
    metavariables still unsolved in the typing. Afterwards every remaining
    metavariable is frozen to a fresh rigid atom, every node holds its ground
    type and instance, and the witness is recorded as `typed.witness`.
    """
    k = spec_head_arity(spec, typed.vp)
    if fun_arity != k:
        raise FunArityMismatch(
            f"specification head expects {k} input function(s), got {fun_arity}"
        )
    store = typed._store
    try:
        mus = spec_instance(spec, typed.root.type, store)
    except TypeCheckError as e:
        raise SpecMismatch(
            f"term of type {typed.type_of(typed.root)} does not match specification "
            f"{spec}: {e}"
        ) from None

    _freeze(typed)
    subst = {v: store.resolve(m) for v, m in mus.items()}
    # The root type is the specification under `subst`, so its head's
    # components are the specification head's components under `subst`.
    typed.witness = InstanceWitness(subst, type_children(typed.root.type))
    return typed.witness


def _freeze(typed: TypedTerm) -> None:
    """Ground the typing: overwrite every node's type and instance with its
    resolved type. Ground types are shared structure: each metavariable is
    resolved once, and every node type, constructor instance and witness
    entry that reaches it holds that one object.

    When some metavariable is still unsolved, each unsolved one is first
    bound to a fresh rigid atom `?N`, numbered where it is first met: node
    types in preorder, then constructor instances in preorder, by ident
    within one type. When every metavariable is solved, this pass is
    skipped."""
    store = typed._store
    nodes = list(typed.nodes())
    raw = [n.type for n in nodes] + [t for n in nodes for t in n.instance]
    if len(store.solutions) < store._next:
        for k, ident in enumerate(_unsolved(store, raw)):
            store.solutions[ident] = Atom(f"?{k}")
    # Resolved last to first, so that a node's metavariables are resolved
    # before its ancestors reach them and the recursion stays shallow. `map`,
    # not a comprehension, which takes a frame of its own before CPython 3.12.
    ground = reversed(list(map(store.resolve, reversed(raw))))
    for n in nodes:
        n.type = next(ground)
    for n in nodes:
        n.instance = tuple(itertools.islice(ground, len(n.instance)))


def _unsolved(store: _Store, types: list[TypeExpr]) -> dict[int, None]:
    """The unsolved metavariables the resolved `types` contain, in order of
    first occurrence, by ident within one type. One scan from an explicit
    stack over the raw types and the solutions they reach, which visits each
    shared sub-expression once (by `id`): its metavariables are already
    numbered, or pending in the type that met it first."""
    seen: set[int] = set()
    numbered: dict[int, None] = {}
    for root in types:
        met: set[int] = set()
        stack = [root]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if isinstance(t, Meta):
                s = store.solutions.get(t.ident)
                if s is None:
                    met.add(t.ident)
                else:
                    stack.append(s)
            else:
                stack.extend(type_children(t))
        numbered.update(dict.fromkeys(sorted(met - numbered.keys())))
    return numbered
