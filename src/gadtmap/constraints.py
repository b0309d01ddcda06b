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

The walk runs its calls in preorder from an explicit stack, so the depth of
a term is bounded by memory, not by the interpreter's recursion limit. Each
call is named by a `Call` node of constant size; the labels that name calls,
index variables and constraint origins in output are built only when output
asks for them. The walk reads each subterm's ground type and instance from
its typed node, which `check_call_invariants` left frozen.
"""
from __future__ import annotations

import itertools

from .funexpr import Call, Constraint, FunExpr, FunVar, fun_type, lift_type
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


class InternalInvariantViolation(Exception):
    """A call precondition failed mid-run; indicates a bug, not bad input."""

    stage = "constraints"


class NotTopUnifiable(InternalInvariantViolation):
    """A matching problem had clashing head symbols."""


class IndexName(Frozen):
    """The name of a call's index variable: `y<index>^<call label>` when
    rendered."""

    __slots__ = ("index", "call", "_hash")

    def __init__(self, index: int, call: Call) -> None:
        _set(self, "index", index)
        _set(self, "call", call)
        # Index names key the walk's environments and maps: hash once.
        _set(self, "_hash", hash((index, call)))

    def __hash__(self) -> int:
        return self._hash

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


# A pending call: the typed subterm, its input functions, its specification,
# the substitution instantiating that specification, and its name.
_Pending = tuple[TypedNode, tuple[FunExpr, ...], TypeExpr, dict[VarName, TypeExpr], Call]


class _Run:
    def __init__(self, vp: ValidatedProgram):
        self.vp = vp
        self._intro = itertools.count()
        self.traces: list[CallTrace] = []

    def fresh_fun(self, kind: str, call: Call | None, index: int, domain: TypeExpr) -> FunVar:
        return FunVar(kind, call, index, intro=next(self._intro), domain=domain)

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
        spec_te: TypeExpr,
        cenv: dict[VarName, TypeExpr],
        call: Call,
    ) -> list[_Pending]:
        """Run one call; returns its child calls in order."""
        term = node.term
        components = type_children(spec_te)
        if not isinstance(spec_te, (App, Prod, Sum)) or len(components) != len(funs):
            raise InternalInvariantViolation(
                f"call {call.label}: bad call on {spec_te} with {len(funs)} functions"
            )
        if subst_type(spec_te, cenv) != node.type:
            raise InternalInvariantViolation(
                f"call {call.label}: instantiated specification {subst_type(spec_te, cenv)} "
                f"differs from subterm type {node.type}"
            )

        betas = free_type_vars(spec_te)
        # The g variables, then (constructor case) the h variables: spec
        # variable names and index names never clash.
        env: dict[VarName, FunVar] = {
            b: self.fresh_fun("g", call, i + 1, cenv[b]) for i, b in enumerate(betas)
        }
        emitted = []
        for ell, comp in enumerate(components):
            emitted.append(Constraint(lift_type(comp, env), funs[ell], "i", call))

        # Each target of a child call: (branch, typed kid, instantiated type,
        # zetas); the call is made when zetas is not None.
        if isinstance(spec_te, (Prod, Sum)):
            if isinstance(spec_te, Prod):
                if not isinstance(term, Pair):
                    raise InternalInvariantViolation(f"call {call.label}: expected a pair")
                branches = ((0, 0), (1, 1))
            elif isinstance(term, Inl):
                branches = ((0, 0),)
            elif isinstance(term, Inr):
                branches = ((1, 0),)
            else:
                raise InternalInvariantViolation(f"call {call.label}: expected an injection")
            targets = [
                (j, node.kids[i], components[j], recursion_target(components[j]))
                for j, i in branches
            ]
            self.traces.append(CallTrace(call, term, funs, spec_te, tuple(emitted)))
        else:
            if not isinstance(term, Ctor):
                raise InternalInvariantViolation(
                    f"call {call.label}: expected a constructor application"
                )
            decl, sig = self.vp.ctor(term.name)
            if spec_te.ctor != decl.name:
                raise InternalInvariantViolation(
                    f"call {call.label}: constructor {term.name!r} does not build {spec_te}"
                )
            w = node.instance
            inst = dict(zip(sig.type_vars, w))
            for ell, k_expr in enumerate(sig.ret_indices):
                expected = subst_type(k_expr, inst)
                got = fun_type(funs[ell], codomain=False)
                if got is not None and got != expected:
                    raise InternalInvariantViolation(
                        f"call {call.label}: input function {ell + 1} has domain {got}, "
                        f"expected {expected}"
                    )

            gammas = tuple(IndexName(i + 1, call) for i in range(len(sig.type_vars)))
            rename = {a: Var(g) for a, g in zip(sig.type_vars, gammas)}
            matching = tuple(
                (comp, subst_type(k_expr, rename))
                for comp, k_expr in zip(components, sig.ret_indices)
            )
            defs, pins = match_spec(matching)
            # Each index variable stands for its first pin, if it has one.
            taus = tuple(pins[g][0] if g in pins else Var(g) for g in gammas)
            for i, g in enumerate(gammas):
                env[g] = self.fresh_fun("h", call, i + 1, w[i])
            # Step v defines each specification variable by its index
            # expressions; step vi ties each further pin of an index to its first.
            for b in betas:
                for psi in defs.get(b, ()):
                    emitted.append(Constraint(lift_type(psi, env), env[b], "v", call))
            for g in gammas:
                sigmas = pins.get(g, ())
                for sigma in sigmas[1:]:
                    emitted.append(
                        Constraint(lift_type(sigma, env), lift_type(sigmas[0], env), "vi", call)
                    )

            at_taus = dict(zip(sig.type_vars, taus))
            rjs = tuple(subst_type(arg_type, at_taus) for arg_type in sig.arg_types)
            zetas = tuple(recursion_target(rj) for rj in rjs)
            targets = zip(itertools.count(), node.kids, rjs, zetas)
            self.traces.append(CallTrace(call, term, funs, spec_te, tuple(emitted),
                                         matching, taus, rjs, zetas))

        children: list[_Pending] = []
        for j, kid, rj, zs in targets:
            if zs is not None:
                child_funs = tuple(lift_type(z, env) for z in zs)
                child_cenv = {v: env[v].domain for v in free_type_vars(rj)}
                children.append((kid, child_funs, rj, child_cenv, Call(call, j + 1)))
        return children

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
        r.fresh_fun("f", None, ell + 1, domain) for ell, domain in enumerate(witness.domains)
    )
    r.walk((typed.root, root_funs, spec, witness.subst, Call(None, 1)))
    return RunResult(
        # Calls run in preorder and each emits its constraints in one block.
        [c for t in r.traces for c in t.emitted],
        r.traces,
        AnnotatedTerm(typed.term, frozenset(id(t.term) for t in r.traces)),
        root_funs,
    )
