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
type, so the analysis itself never sees a metavariable. Grounding builds each
part of the raw typing once, from an explicit stack: it is linear in the raw
typing at any type depth. The substitution it finds is recorded on the typing
once (`InstanceWitness`), and fixes the domain of every input function.
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
    Ctor,
    Frozen,
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
    _instantiator,
    _pick,
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

    def fresh_tuple(self, n: int) -> tuple[Meta, ...]:
        first = self._next
        self._next += n
        return tuple(map(Meta, range(first, self._next)))

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
        """`t` with every solved metavariable replaced by its resolution."""
        return _ground(self, [t])[0]

    def _occurs(self, ident: int, t: TypeExpr) -> bool:
        stack = [t]
        while stack:
            t = stack.pop()
            if isinstance(t, Meta):
                if t.ident == ident:
                    return True
                t = self.solutions.get(t.ident)
                if t is not None:
                    stack.append(t)
            else:
                stack += type_children(t)
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
    overwrites both with ground types, which share structure wherever the
    raw types do (a pair's type holds its kids' types; a solved metavariable
    is one object for every type that reaches it), so treat them as
    immutable. Nodes compare by identity."""

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
    in preorder, outer before inner. A subterm with no annotation below it is
    its typed node's term, the same object; the others are rebuilt without
    their annotations. Metavariables that no constraint determines (such as
    the element type of a bare `nil`) survive in the result as unsolved
    metas.

    The walk keeps the nodes whose children are being typed on an explicit
    stack, so term depth is bounded by memory, not by the interpreter's
    recursion limit. It allocates and unifies metavariables in the order of
    a recursive descent: children left to right, each constructor argument
    unified with its expected type as soon as it is typed. Each constructor
    met is compiled once per call (`_CtorPlan`), and each occurrence
    instantiates its types from its tuple of fresh metavariables.
    """
    store = _Store()
    plans: dict[str, _CtorPlan] = {}
    # (annotated node, annotation) in preorder, outer before inner: the slot
    # is taken when the annotation is met and filled once its node is typed.
    annotations: list = []
    # One frame per node whose children are being typed, innermost last:
    # [Ctor, term, plan, inst, kids, met], [Pair, term, left or None, met],
    # [Inl, term, met], [Inr, term, met, right-hand metavariable] or [Ann,
    # slot, annotation], where `met` counts the annotations met before the
    # node: when none is met below it, its term is kept.
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
                plan = plans.get(t.name)
                if plan is None:
                    plan = plans[t.name] = _CtorPlan(t.name, vp)
                if len(t.args) != len(plan.args):
                    raise TypeCheckError(
                        f"constructor {t.name!r} expects {len(plan.args)} argument(s), "
                        f"got {len(t.args)}"
                    )
                inst = store.fresh_tuple(plan.width)
                if not t.args:
                    node = TypedNode(t, plan.ret(inst), plan.instance(inst))
                    break
                stack.append([Ctor, t, plan, inst, [], len(annotations)])
                t = t.args[0]
            elif isinstance(t, Pair):
                stack.append([Pair, t, None, len(annotations)])
                t = t.left
            elif isinstance(t, Inl):
                stack.append([Inl, t, len(annotations)])
                t = t.inner
            elif isinstance(t, Inr):
                stack.append([Inr, t, len(annotations), store.fresh()])
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
                _, c, plan, inst, kids, met = frame
                j = len(kids)
                store.unify(
                    plan.args[j](inst), node.type, lambda: f"argument {j + 1} of {c.name!r}"
                )
                kids.append(node)
                if j + 1 < len(c.args):
                    t = c.args[j + 1]
                    break
                if met != len(annotations):
                    c = Ctor(c.name, tuple([k.term for k in kids]))
                node = TypedNode(c, plan.ret(inst), plan.instance(inst), tuple(kids))
            elif kind is Pair:
                left = frame[2]
                if left is None:
                    frame[2] = node
                    t = frame[1].right
                    break
                pair = frame[1]
                if frame[3] != len(annotations):
                    pair = Pair(left.term, node.term)
                node = TypedNode(pair, Prod(left.type, node.type), kids=(left, node))
            elif kind is Inl:
                inl = frame[1] if frame[2] == len(annotations) else Inl(node.term)
                node = TypedNode(inl, Sum(node.type, store.fresh()), kids=(node,))
            elif kind is Inr:
                inr = frame[1] if frame[2] == len(annotations) else Inr(node.term)
                node = TypedNode(inr, Sum(frame[3], node.type), kids=(node,))
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


class _CtorPlan:
    """What typing one occurrence of a constructor needs, compiled once per
    `infer` call from its signature: `width` fresh metavariables, one per
    binder; from their tuple, each argument's expected type (`args`), the
    return type (`ret`) and the binders' instantiation (`instance`)."""

    __slots__ = ("width", "args", "ret", "instance")

    def __init__(self, name: str, vp: ValidatedProgram) -> None:
        try:
            decl, sig = vp.ctor(name)
        except KeyError:
            raise TypeCheckError(f"unknown constructor {name!r}") from None
        # A binder listed twice stands for its last metavariable, as a dict
        # built from the binders would keep it.
        slots = dict(zip(sig.type_vars, range(len(sig.type_vars))))
        self.width = len(sig.type_vars)
        self.args = [_instantiator(a, slots) for a in sig.arg_types]
        self.ret = _instantiator(App(decl.name, sig.ret_indices), slots)
        self.instance = _pick(tuple([slots[v] for v in sig.type_vars]))


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
    try:
        mus = spec_instance(spec, typed.root.type, typed._store)
    except TypeCheckError as e:
        raise SpecMismatch(
            f"term of type {typed.type_of(typed.root)} does not match specification "
            f"{spec}: {e}"
        ) from None

    subst = _freeze(typed, mus)
    # The root type is the specification under `subst`, so its head's
    # components are the specification head's components under `subst`.
    typed.witness = InstanceWitness(subst, type_children(typed.root.type))
    return typed.witness


def _freeze(typed: TypedTerm, mus: dict[str, Meta]) -> dict[str, TypeExpr]:
    """Ground the typing: overwrite every node's type and instance with its
    ground type, and return the ground types of the specification variables
    `mus`, all from one `_ground` call. Each unsolved metavariable becomes an
    atom `?N`, numbered where first met: node types in preorder, then
    constructor instances in preorder, by ident within one type."""
    nodes = list(typed.nodes())
    raw = [n.type for n in nodes] + [t for n in nodes for t in n.instance]
    ground = iter(_ground(typed._store, raw + list(mus.values()), freeze=True))
    for n in nodes:
        n.type = next(ground)
    for n in nodes:
        n.instance = tuple(itertools.islice(ground, len(n.instance)))
    return dict(zip(mus, ground))


def _ground(store: _Store, types: list[TypeExpr], freeze: bool = False) -> list[TypeExpr]:
    """`types` with every solved metavariable replaced by its resolution;
    with `freeze`, each unsolved one is first bound to a rigid atom `?N`,
    numbered where it is first met: type by type, by ident within one type.

    One scan from an explicit stack lists each composite and metavariable of
    `types` and of the solutions they reach once (by `id`), after its parts,
    which the occurs check keeps acyclic; each is then built once from its
    parts' results, so types that share raw structure share ground types."""
    solutions = store.solutions
    ground: dict[int, TypeExpr] = {}  # by id, in post-order: raw, then ground
    atoms = 0
    met: set[int] = set()  # the unsolved metavariables first met in `root`
    for root in types:
        stack = [root]
        while stack:
            t = stack.pop()
            if t is None:  # the parts of the entry under this marker are listed
                t = stack.pop()
                ground[id(t)] = t
                continue
            key = id(t)
            if key in ground:
                continue
            if isinstance(t, Meta):
                s = solutions.get(t.ident)
                if s is None:
                    ground[key] = t
                    met.add(t.ident)
                    continue
                parts = (s,)
            else:
                parts = type_children(t)
                if not parts:
                    continue
            stack += (t, None)
            stack += parts
        if freeze and met:
            for ident in sorted(met):
                solutions[ident] = Atom(f"?{atoms}")
                atoms += 1
        met.clear()
    get = ground.get
    for key, t in ground.items():
        if isinstance(t, Meta):
            s = solutions.get(t.ident)
            ground[key] = t if s is None else get(id(s), s)
        elif isinstance(t, App):
            ground[key] = App(t.ctor, tuple([get(id(a), a) for a in t.args]))
        else:
            ground[key] = type(t)(get(id(t.left), t.left), get(id(t.right), t.right))
    return [get(id(t), t) for t in types]
