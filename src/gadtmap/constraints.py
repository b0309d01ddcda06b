"""Constraint generation: walk a typed term against a specification.

Each call of the walk handles one subterm together with the part of the
specification that describes it. A call receives the subterm, one input
function expression per argument of the specification's head, and the
specification itself, a type expression over this call's specification
variables. It emits constraints relating the input functions to fresh
function variables:

  * one `g` variable per specification variable, tied to the inputs by the
    constraints <Sigma_l g.., f_l>;
  * for a constructor subterm, the specification components are matched
    against the constructor's return indices over fresh index variables (one
    per constructor binder) in one pass, `match_spec`. It groups the results
    by variable: the expressions that define each specification variable in
    terms of the index variables (step v emits <psi h.., g_i> for each) and
    the specification expressions that pin each index variable (an index
    stands for its first pin, and step vi ties each further pin to the
    first);
  * recursive calls on constructor arguments whose instantiated types still
    involve specification structure; arguments whose types collapse to a
    closed type or a single variable are skipped entirely, which is what
    makes them incidental rather than essential.

The subterm of every call is recorded by identity as an essential head
(`AnnotatedTerm.heads`); the renderers read the heads, and only
`AnnotatedTerm.essential` builds term paths, for the JSON `essentialPaths`.

What a call matches, emits and recurses on depends only on its key: its
specification up to renaming its variables by first occurrence, and its
subterm's constructor (or the pair or injection). So the first call of each
key compiles a plan (`_Plan`) from the derivation above, making every check
the key decides on the way: the constructor (or pair or injection) against
the specification, and clashes in the matching. A plan holds that derivation as
templates over the call's slots (its specification variables, then its
index variables), with compiled lifters and instantiators, and a link per
child call. Every call, the first included, then only instantiates its
plan: its fresh `g` and `h` variables, index names and `Call`, its emitted
constraints, its trace, and its child calls, which find their plans on the
link by constructor. Each call still re-checks its instantiated
specification against its subterm's type and its input functions' domains
against the constructor's instance. Plans live for one `run`.

The walk runs its calls in preorder from an explicit stack, so the depth of
a term is bounded by memory, not by the interpreter's recursion limit. Each
call is named by a `Call` node of constant size; the labels that name calls,
index variables and constraint origins in output are built only when output
asks for them. The walk reads each subterm's ground type and instance from
its typed node, which `check_call_invariants` left frozen.
"""
from __future__ import annotations

import itertools
from operator import attrgetter, itemgetter

from .funexpr import Call, Constraint, FunExpr, FunVar, _constant, fun_type, lifter
from .syntax import (
    App,
    Ctor,
    Frozen,
    Inl,
    Inr,
    Pair,
    Path,
    Prod,
    Record,
    Sum,
    Term,
    TypeExpr,
    Var,
    _set,
    free_type_vars,
    is_closed,
    subst_type,
    term_children,
    type_children,
)
from .typecheck import TypedNode, TypedTerm
from .wellformed import ValidatedProgram

TYPE_CHECKING = False  # as in `syntax`
if TYPE_CHECKING:
    from collections.abc import Callable


class InternalInvariantViolation(Exception):
    """A call precondition failed mid-run; indicates a bug, not bad input."""

    stage = "constraints"


class NotTopUnifiable(InternalInvariantViolation):
    """A matching problem had clashing head symbols."""


class IndexName(Frozen):
    """The name of a call's index variable: `y<index>^<call label>` when
    rendered."""

    __slots__ = ("index", "call")

    def __init__(self, index: int, call: Call) -> None:
        _set(self, "index", index)
        _set(self, "call", call)

    def __str__(self) -> str:
        return f"y{self.index}^{self.call.label}"


# The name of a specification variable: a name from the specification, or
# the index variable of an enclosing call.
VarName = str | IndexName


class CallTrace(Record):
    """Everything one call of the walk did, for reporting and golden tests."""

    __slots__ = ("call", "term", "funs", "spec", "emitted", "matching", "taus", "rjs", "zetas")

    def __init__(
        self,
        call: Call,
        term: Term,
        funs: tuple[FunExpr, ...],
        spec: TypeExpr,
        emitted: tuple[Constraint, ...],
        matching: tuple[tuple[TypeExpr, TypeExpr], ...] = (),
        taus: tuple[TypeExpr, ...] = (),
        rjs: tuple[TypeExpr, ...] = (),
        zetas: tuple[tuple[TypeExpr, ...] | None, ...] = (),
    ) -> None:
        self.call = call
        self.term = term
        self.funs = funs
        self.spec = spec
        self.emitted = emitted
        self.matching = matching
        self.taus = taus
        self.rjs = rjs
        self.zetas = zetas

    @property
    def label(self) -> str:
        return self.call.label


class AnnotatedTerm(Frozen):
    """A term with its essential positions: the subterms that head a call of
    the walk, the root always among them, held by `id` as subterm objects."""

    __slots__ = ("term", "heads")

    def __init__(self, term: Term, heads: frozenset[int]) -> None:
        _set(self, "term", term)
        _set(self, "heads", heads)

    @property
    def essential(self) -> tuple[Path, ...]:
        """The essential positions as child-index paths from the root, in
        preorder with children in index order, which is also sorted order."""
        out = []
        stack: list[tuple[Term, Path]] = [(self.term, ())]
        while stack:
            t, path = stack.pop()
            if id(t) in self.heads:
                out.append(path)
                stack += reversed([(c, path + (i,)) for i, c in enumerate(term_children(t))])
        return tuple(out)


class RunResult(Record):
    __slots__ = ("constraints", "traces", "annotation", "root_funs")

    def __init__(
        self,
        constraints: list[Constraint],
        traces: list[CallTrace],
        annotation: AnnotatedTerm,
        root_funs: tuple[FunVar, ...],
    ) -> None:
        self.constraints = constraints
        self.traces = traces
        self.annotation = annotation
        self.root_funs = root_funs


def recursion_target(arg_type: TypeExpr) -> tuple[TypeExpr, ...] | None:
    """Decide whether an instantiated argument type needs a recursive call.

    Closed types and bare variables are incidental: nothing to analyze, so
    the subterm is skipped. Anything else is headed by a constructor, product,
    or sum and returns its component expressions for the child call.
    """
    if is_closed(arg_type) or not isinstance(arg_type, (App, Prod, Sum)):
        return None
    return type_children(arg_type)


def match_spec(
    matching: tuple[tuple[TypeExpr, TypeExpr], ...],
) -> tuple[dict[VarName, list[TypeExpr]], dict[VarName, list[TypeExpr]]]:
    """Solve a call's matching problems `component == index expression` by
    simultaneous structural descent, in order.

    The left sides are expressions over the call's specification variables,
    the right sides index expressions over its fresh index variables. Returns
    `defs`, each specification variable's defining index expressions, and
    `pins`, each index variable's pinning specification expressions, both in
    match order. Where both sides are variables the pin is chosen, since it
    can only cut recursion short, never change the solved result.
    """
    defs: dict[VarName, list[TypeExpr]] = {}
    pins: dict[VarName, list[TypeExpr]] = {}
    stack = list(reversed(matching))
    while stack:
        left, right = stack.pop()
        if isinstance(right, Var):
            pins.setdefault(right.name, []).append(left)
        elif isinstance(left, Var):
            defs.setdefault(left.name, []).append(right)
        elif type(left) is not type(right) or (
            isinstance(left, App) and left.ctor != right.ctor
        ):
            raise NotTopUnifiable(f"cannot match {left} against {right}")
        elif isinstance(left, (App, Prod, Sum)):
            stack += reversed(tuple(zip(type_children(left), type_children(right))))
        elif left != right:
            raise NotTopUnifiable(f"cannot match {left} against {right}")
    return defs, pins


def _instantiator(t: TypeExpr) -> Callable[[tuple], TypeExpr] | None:
    """`subst_type` on `t` as a function of a tuple `vals`, for a template
    whose variables are slot numbers: slot `i` stands for `vals[i]`. None
    when `t` is closed, which is decided bottom-up in the same pass, so
    closed parts are kept, not rebuilt."""
    if isinstance(t, Var):
        return itemgetter(t.name)
    kids = type_children(t)
    fs = [_instantiator(kid) for kid in kids]
    if fs.count(None) == len(fs):
        return None
    if isinstance(t, App):
        ctor, args = t.ctor, _tupled(kids, fs)
        return lambda vals: App(ctor, args(vals))
    node = type(t)
    left, right = [_constant(kid) if f is None else f for kid, f in zip(kids, fs)]
    return lambda vals: node(left(vals), right(vals))


def _instantiate_each(ts: tuple[TypeExpr, ...]) -> Callable[[tuple], tuple[TypeExpr, ...]]:
    return _tupled(ts, list(map(_instantiator, ts)))


def _tupled(ts: tuple[TypeExpr, ...], fs: list[Callable | None]) -> Callable[[tuple], tuple]:
    """One function giving the results of `fs` as a tuple, where `fs` are
    the compiled templates `ts` (None for a closed one, which stands for
    itself). When every template is a variable, the tuple is picked in C."""
    if set(map(type, ts)) <= {Var}:
        return _pick(tuple(map(_NAME, ts)))
    fs = [_constant(t) if f is None else f for t, f in zip(ts, fs)]
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


class _Edge:
    """Where calls find their plans: one per specification template met in
    a run, with the number of its components (-1 when it has none to call
    on), its instantiator, and its plans so far, keyed by the subterm's
    constructor name (its class for a pair or an injection)."""

    __slots__ = ("template", "arity", "spec", "plans")

    def __init__(self, template: TypeExpr) -> None:
        self.template = template
        self.arity = len(type_children(template)) if isinstance(template, (App, Prod, Sum)) else -1
        self.spec = _instantiator(template) or _constant(template)
        self.plans: dict[str | type, _Plan] = {}


if TYPE_CHECKING:
    # A child call of a plan: see `_Run._branch`.
    _Branch = tuple[int, int, Callable, Callable, _Edge]


class _Plan:
    """What every call of one key does, compiled from the derivation of its
    first call. Its templates number the call's slots: the specification
    variables in first-occurrence order, then, at a constructor, one index
    variable per binder. `lifts` lift the specification's components from
    the function variables (step i). At a constructor, `rets` instantiates
    the return indices over the index variables' slots, `step_v` and
    `step_vi` lift the sides of the other constraints, `taus` and `rjs`
    instantiate, and `zetas` reads the components off each rj that needs a
    call (None otherwise). At a pair or an injection, `rets` is None and
    the rjs are the specification's components. Each child call is a branch
    (see `_Run._branch`)."""

    __slots__ = ("lifts", "rets", "step_v", "step_vi", "taus", "rjs", "zetas", "branches")


# A pending call: the typed subterm, its input functions, its specification,
# the domains and variables of its specification variables, its name, and
# the edge to its plan.
_Pending = tuple[TypedNode, tuple[FunExpr, ...], TypeExpr, tuple[TypeExpr, ...],
                 tuple[Var, ...], Call, _Edge]
_PARTS = attrgetter("left", "right")
_NAME = attrgetter("name")
_ARGS = attrgetter("args")


class _Run:
    """One run of the walk, holding its edges and plans (see the module
    docstring) for as long as the run. `call` re-checks the call's shape and
    specification instance, finds its plan on its edge by constructor
    (`_compile` derives it on the key's first call, with the checks the key
    decides), re-checks the input functions' domains and instantiates the
    plan. Compiling a plan finds the edge of each child call's
    specification template, hashing the template once; a call neither
    renames nor hashes its specification."""

    def __init__(self, vp: ValidatedProgram):
        self.vp = vp
        self._intro = itertools.count()
        self._edges: dict[TypeExpr, _Edge] = {}
        self.traces: list[CallTrace] = []

    def walk(self, root: _Pending) -> None:
        """Run `root` and every call below it in preorder, from an explicit
        stack of pending calls."""
        stack = [root]
        while stack:
            stack.extend(reversed(self.call(*stack.pop())))

    def call(
        self,
        node: TypedNode,
        funs: tuple[FunExpr, ...],
        spec: TypeExpr,
        doms: tuple[TypeExpr, ...],
        names: tuple[Var, ...],
        call: Call,
        edge: _Edge,
    ) -> list[_Pending]:
        """Run one call; returns its child calls in order. `doms` and `names`
        give each specification variable's domain and variable."""
        if len(funs) != edge.arity:
            raise InternalInvariantViolation(
                f"call {call.label}: bad call on {spec} with {len(funs)} functions"
            )
        instance = edge.spec(doms)
        if instance != node.type:
            raise InternalInvariantViolation(
                f"call {call.label}: instantiated specification {instance} "
                f"differs from subterm type {node.type}"
            )
        term = node.term
        case = term.name if term.__class__ is Ctor else term.__class__
        plan = edge.plans.get(case)
        if plan is None:
            plan = edge.plans[case] = self._compile(node, spec, len(doms), call, edge.template)
        betas = doms
        rets = plan.rets
        if rets is not None:
            w = node.instance
            doms += w
            for ell, (f, expected) in enumerate(zip(funs, rets(doms)), 1):
                got = f.domain if f.__class__ is FunVar else fun_type(f, codomain=False)
                if got is not None and got is not expected and got != expected:
                    raise InternalInvariantViolation(
                        f"call {call.label}: input function {ell} has domain {got}, "
                        f"expected {expected}"
                    )

        # The g variables, then (constructor case) the h variables.
        intro = self._intro
        env = []
        for i, dom in enumerate(betas, 1):
            env.append(FunVar("g", call, i, next(intro), False, dom))
        emitted = []
        for lift, f in zip(plan.lifts, funs):
            emitted.append(Constraint(lift(env), f, "i", call))
        if rets is None:
            rjs = _PARTS(spec)
            self.traces.append(CallTrace(call, term, funs, spec, tuple(emitted)))
        else:
            gammas = []
            for i, dom in enumerate(w, 1):
                gammas.append(Var(IndexName(i, call)))
                env.append(FunVar("h", call, i, next(intro), False, dom))
            for lift, b in plan.step_v:
                emitted.append(Constraint(lift(env), env[b], "v", call))
            for lift, first in plan.step_vi:
                emitted.append(Constraint(lift(env), first(env), "vi", call))
            names += tuple(gammas)
            rjs = plan.rjs(names)
            zetas = tuple([None if zeta is None else zeta(rj) for zeta, rj in zip(plan.zetas, rjs)])
            self.traces.append(CallTrace(call, term, funs, spec, tuple(emitted),
                                         tuple(zip(spec.args, rets(names))),
                                         plan.taus(names), rjs, zetas))

        env = tuple(env)
        kids = node.kids
        children: list[_Pending] = []
        for j, kid, lift, pick, child_edge in plan.branches:
            children.append((kids[kid], lift(env), rjs[j], pick(doms), pick(names),
                             Call(call, j + 1), child_edge))
        return children

    def _compile(
        self, node: TypedNode, spec: TypeExpr, nb: int, call: Call, template: TypeExpr
    ) -> _Plan:
        """The plan of a call's key, derived on the key's first call, which
        it names in its errors. `template` is the call's specification with
        its `nb` variables numbered in first-occurrence order."""
        term = node.term
        parts = type_children(template)
        plan = _Plan()
        plan.lifts = tuple(map(lifter, parts))

        # Each target of a child call: (branch, kid index, its specification,
        # its components when the call is made).
        if isinstance(template, (Prod, Sum)):
            if isinstance(template, Prod):
                if not isinstance(term, Pair):
                    raise InternalInvariantViolation(f"call {call.label}: expected a pair")
                branches = ((0, 0), (1, 1))
            elif isinstance(term, Inl):
                branches = ((0, 0),)
            elif isinstance(term, Inr):
                branches = ((1, 0),)
            else:
                raise InternalInvariantViolation(f"call {call.label}: expected an injection")
            plan.rets = None
            targets = [(j, i, parts[j], recursion_target(parts[j])) for j, i in branches]
        else:
            if not isinstance(term, Ctor):
                raise InternalInvariantViolation(
                    f"call {call.label}: expected a constructor application"
                )
            decl, sig = self.vp.ctor(term.name)
            if template.ctor != decl.name:
                raise InternalInvariantViolation(
                    f"call {call.label}: constructor {term.name!r} does not build {spec}"
                )
            # The index variables take the slots after the specification's.
            binders = sig.type_vars
            gammas = range(nb, nb + len(binders))
            rename = dict(zip(binders, map(Var, gammas)))
            rets = tuple([subst_type(k_expr, rename) for k_expr in sig.ret_indices])
            plan.rets = _instantiate_each(rets)
            try:
                defs, pins = match_spec(tuple(zip(parts, rets)))
            except NotTopUnifiable:
                # Raise the same clash, named by the call's own variables.
                rename = {a: Var(IndexName(k, call)) for k, a in enumerate(binders, 1)}
                match_spec(tuple([
                    (comp, subst_type(k_expr, rename))
                    for comp, k_expr in zip(type_children(spec), sig.ret_indices)
                ]))
                raise
            # Step v defines each specification variable by its index
            # expressions; step vi ties each further pin of an index to its first.
            plan.step_v = [(lifter(psi), b) for b in range(nb) for psi in defs.get(b, ())]
            plan.step_vi = [
                (lifter(sigma), lifter(pins[g][0])) for g in gammas for sigma in pins.get(g, ())[1:]
            ]
            # Each index variable stands for its first pin, if it has one.
            taus = tuple([pins[g][0] if g in pins else Var(g) for g in gammas])
            plan.taus = _instantiate_each(taus)
            at_taus = dict(zip(binders, taus))
            rjs = tuple([subst_type(arg_type, at_taus) for arg_type in sig.arg_types])
            plan.rjs = _instantiate_each(rjs)
            targets = [(j, j, rj, recursion_target(rj)) for j, rj in enumerate(rjs)]
            plan.zetas = [
                None if zeta is None else _PARTS if isinstance(rj, (Prod, Sum)) else _ARGS
                for _, _, rj, zeta in targets
            ]
        plan.branches = [
            self._branch(j, i, rj, zeta) for j, i, rj, zeta in targets if zeta is not None
        ]
        return plan

    def _branch(self, j: int, kid: int, rj: TypeExpr, zeta: tuple[TypeExpr, ...]) -> _Branch:
        """A child call on `rj`, a template over the parent's slots: its
        branch `j` (0-based), the kid it runs on, its input functions lifted
        from the parent's function variables (`zeta`), the slots its
        specification variables take their domains and variables from, in
        first-occurrence order, and the edge of its renumbered `rj`."""
        slots = free_type_vars(rj)
        if slots != tuple(range(len(slots))):
            rj = subst_type(rj, {s: Var(i) for i, s in enumerate(slots)})
        return j, kid, _tupled(zeta, list(map(lifter, zeta))), _pick(slots), self.edge(rj)

    def edge(self, template: TypeExpr) -> _Edge:
        edge = self._edges.get(template)
        if edge is None:
            edge = self._edges[template] = _Edge(template)
        return edge


def run(typed: TypedTerm, spec: TypeExpr) -> RunResult:
    """Run the analysis on a typed, frozen term.

    The caller must have established the entry precondition with
    `check_call_invariants`, whose witness gives the root call's substitution
    and the input functions' domains; the walk re-checks it at every call.
    """
    witness = typed.witness
    if witness is None:
        raise InternalInvariantViolation("run requires a frozen typing; check invariants first")
    r = _Run(typed.vp)
    root_funs = tuple(
        FunVar("f", None, ell + 1, next(r._intro), False, domain)
        for ell, domain in enumerate(witness.domains)
    )
    betas = free_type_vars(spec)
    r.walk((
        typed.root,
        root_funs,
        spec,
        tuple(witness.subst[b] for b in betas),
        tuple(map(Var, betas)),
        Call(None, 1),
        r.edge(subst_type(spec, {b: Var(i) for i, b in enumerate(betas)})),
    ))
    # A plan's branches lead back to edges, its own among them on a
    # recursive type: break those cycles so the plans are freed now.
    for edge in r._edges.values():
        edge.plans.clear()
    return RunResult(
        # Calls run in preorder and each emits its constraints in one block.
        [c for t in r.traces for c in t.emitted],
        r.traces,
        AnnotatedTerm(typed.term, frozenset([id(t.term) for t in r.traces])),
        root_funs,
    )
