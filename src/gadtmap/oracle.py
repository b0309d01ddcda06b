"""Bounded brute-force validation of analysis results.

This module gives an independent, semantic meaning to "f is mappable over t
relative to a specification": lift the specification's head over candidate
functions, push the result through the term constructor by constructor, and
check that the rebuilt term still typechecks at an instance of the
specification. Pushing a lifted constructor application through `c args`
recovers one component function per binder of `c` from the constructor's
return indices (the semantic inverse of `lift_type`), then maps each argument
along its instantiated argument type.

Candidates are built from arbitrary opaque functions, identities, products,
sums, and maps over data types that are not proper GADTs; what it means to map
through a proper GADT is precisely what the analysis computes, so candidates
take no position on it. The validator is exhaustive up to a structural depth
bound, not a general decision procedure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .funexpr import (
    FunExpr,
    FunVar,
    Id,
    Lift,
    Opaque,
    ProdF,
    SumF,
    expand_id,
    fun_type,
    lift_type,
    normalize,
)
from .syntax import (
    App,
    Atom,
    Const,
    Ctor,
    Inl,
    Inr,
    Pair,
    Prod,
    Spec,
    Sum,
    Term,
    TypeExpr,
    Var,
    is_closed,
)
from .typecheck import TypeCheckError, TypedNode, TypedTerm, _Store, infer, spec_instance
from .wellformed import ValidatedProgram


def match_fun(k_expr: TypeExpr, phi: FunExpr, env: dict[str, FunExpr]) -> dict[str, FunExpr] | None:
    """Recover component functions from a function expression along a return
    index expression; None when the expression does not decompose.

    A variable index binds its component (failing on disagreement, compared up
    to identity expansion); a closed index requires the identity; products,
    sums, and applications require the matching composite form, expanding
    identities as needed. Return indices never mention proper GADTs, so every
    composite case has forced semantics.
    """
    if isinstance(k_expr, Var):
        prev = env.get(k_expr.name)
        if prev is None:
            return {**env, k_expr.name: phi}
        return env if normalize(prev) == normalize(phi) else None
    if is_closed(k_expr):
        return env if normalize(phi) == normalize(Id(k_expr)) else None
    if isinstance(phi, Id):
        expanded = expand_id(phi)
        if expanded is None:
            return None
        phi = expanded
    if isinstance(k_expr, Prod):
        if not isinstance(phi, ProdF):
            return None
        env2 = match_fun(k_expr.left, phi.left, env)
        return None if env2 is None else match_fun(k_expr.right, phi.right, env2)
    if isinstance(k_expr, Sum):
        if not isinstance(phi, SumF):
            return None
        env2 = match_fun(k_expr.left, phi.left, env)
        return None if env2 is None else match_fun(k_expr.right, phi.right, env2)
    if isinstance(k_expr, App):
        if not (isinstance(phi, Lift) and phi.ctor == k_expr.ctor):
            return None
        for sub_k, sub_phi in zip(k_expr.args, phi.args):
            env = match_fun(sub_k, sub_phi, env)
            if env is None:
                return None
        return env
    return None


class _Fail(Exception):
    pass


def map_apply(phi: FunExpr, typed: TypedTerm) -> TypedTerm | None:
    """Apply a function expression to a term and type the result, or None
    when not applicable.

    Identities leave subterms unchanged; opaque functions replace them with
    fresh constants of the opaque codomain; products and sums distribute
    componentwise; a lifted constructor application maps through a matching
    constructor via `match_fun`. The rebuilt term is re-typechecked, with
    failures reported as None.
    """
    vp = typed.vp
    counter = itertools.count()

    def apply(phi: FunExpr, node: TypedNode) -> Term:
        term = node.term
        if isinstance(phi, Id):
            return term
        if isinstance(phi, Opaque):
            return Const(f"c{next(counter)}", phi.codomain)
        if isinstance(phi, ProdF):
            if not isinstance(term, Pair):
                raise _Fail
            return Pair(apply(phi.left, node.kids[0]), apply(phi.right, node.kids[1]))
        if isinstance(phi, SumF):
            if isinstance(term, Inl):
                return Inl(apply(phi.left, node.kids[0]))
            if isinstance(term, Inr):
                return Inr(apply(phi.right, node.kids[0]))
            raise _Fail
        if isinstance(phi, Lift):
            if not isinstance(term, Ctor):
                raise _Fail
            decl, sig = vp.ctor(term.name)
            if decl.name != phi.ctor:
                raise _Fail
            env: dict[str, FunExpr] | None = {}
            for k_expr, component in zip(sig.ret_indices, phi.args):
                env = match_fun(k_expr, component, env)
                if env is None:
                    raise _Fail
            w = typed.instance_of(node)
            for d, binder in enumerate(sig.type_vars):
                # Binders absent from every return index carry incidental
                # data; it is preserved unchanged.
                env.setdefault(binder, Id(w[d]))
            new_args = tuple(
                apply(lift_type(arg_ty, env), kid)
                for arg_ty, kid in zip(sig.arg_types, node.kids)
            )
            return Ctor(term.name, new_args)
        raise _Fail

    try:
        result = apply(phi, typed.root)
    except _Fail:
        return None
    try:
        return infer(result, vp, typed.int_literals)
    except TypeCheckError:
        return None


def enumerate_candidates(domain: TypeExpr, depth: int, vp: ValidatedProgram) -> list[FunExpr]:
    """All candidate functions out of `domain` up to a structural depth.

    Leaves (an opaque function with a fresh codomain, and the identity) cost
    nothing; each product, sum, or map node costs one level of depth. Maps are
    offered only at data types that are not proper GADTs.
    """
    counter = itertools.count()

    def enum(domain: TypeExpr, depth: int) -> list[FunExpr]:
        out: list[FunExpr] = [Opaque(domain, Atom(f"X{next(counter)}")), Id(domain)]
        if depth >= 1:
            if isinstance(domain, (Prod, Sum)):
                node = ProdF if isinstance(domain, Prod) else SumF
                for l in enum(domain.left, depth - 1):
                    for r in enum(domain.right, depth - 1):
                        out.append(node(l, r))
            elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
                for combo in itertools.product(
                    *(enum(a, depth - 1) for a in domain.args)
                ):
                    out.append(Lift(domain.ctor, combo))
        return out

    return enum(domain, depth)


def count_candidates(domain: TypeExpr, depth: int, vp: ValidatedProgram) -> int:
    """Closed-form count of `enumerate_candidates`, kept as an independent
    cross-check of the enumeration."""
    n = 2
    if depth >= 1:
        if isinstance(domain, (Prod, Sum)):
            n += count_candidates(domain.left, depth - 1, vp) * count_candidates(
                domain.right, depth - 1, vp
            )
        elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
            prod = 1
            for a in domain.args:
                prod *= count_candidates(a, depth - 1, vp)
            n += prod
    return n


def is_instance(forms: tuple[FunExpr, ...], candidates: tuple[FunExpr, ...]) -> bool:
    """Whether the candidate tuple instantiates the most general form: equal
    after identity expansion, once the form's free variables are bound
    (consistently across the whole tuple)."""
    subst: dict[FunVar, FunExpr] = {}

    def go(f: FunExpr, c: FunExpr) -> bool:
        if isinstance(f, FunVar):
            prev = subst.get(f)
            if prev is None:
                subst[f] = c
                return True
            return prev == c
        if f == c:
            return True
        if isinstance(f, ProdF) and isinstance(c, ProdF):
            return go(f.left, c.left) and go(f.right, c.right)
        if isinstance(f, SumF) and isinstance(c, SumF):
            return go(f.left, c.left) and go(f.right, c.right)
        if isinstance(f, Lift) and isinstance(c, Lift) and f.ctor == c.ctor:
            return all(go(a, b) for a, b in zip(f.args, c.args))
        return False

    return all(go(normalize(f), normalize(c)) for f, c in zip(forms, candidates))


@dataclass
class Disagreement:
    candidates: tuple[FunExpr, ...]
    mappable: bool
    instance: bool


@dataclass
class AgreementReport:
    agrees: bool
    checked: int
    disagreements: list[Disagreement]


def head_lift(shape: TypeExpr, candidates: tuple[FunExpr, ...]) -> FunExpr:
    """Lift the specification's head over one candidate per component."""
    if isinstance(shape, App):
        return Lift(shape.ctor, candidates)
    if isinstance(shape, Prod):
        return ProdF(candidates[0], candidates[1])
    if isinstance(shape, Sum):
        return SumF(candidates[0], candidates[1])
    raise ValueError(f"specification {shape} has no analyzable head")


def mappable(candidates: tuple[FunExpr, ...], typed: TypedTerm, spec: Spec) -> bool:
    """Whether the candidate tuple is mappable over the term relative to the
    specification.

    Three conditions: the lifted head pushes through the term's structure;
    the rebuilt term typechecks at the lifted head's codomain (nullary
    constructors would otherwise re-generalize and hide the codomain); and
    that codomain is again an instance of the specification, so the mapped
    result keeps the specified essential shape.
    """
    wrapped = head_lift(spec.shape, candidates)
    cod = fun_type(wrapped, codomain=True)
    assert cod is not None  # candidates contain no function variables
    try:
        spec_instance(spec, cod, _Store())
    except TypeCheckError:
        return False
    rebuilt = map_apply(wrapped, typed)
    if rebuilt is None:
        return False
    try:
        rebuilt.unify_root(cod)
    except TypeCheckError:
        return False
    return True


def agrees(
    forms: tuple[FunExpr, ...],
    typed: TypedTerm,
    spec: Spec,
    depth: int,
) -> AgreementReport:
    """Exhaustively compare the analysis result against the brute-force
    semantics: every candidate tuple must be mappable over the term iff it
    instantiates the most general form. Candidates range over the input
    functions' domains in the witness `check_call_invariants` recorded."""
    pools = [enumerate_candidates(d, depth, typed.vp) for d in typed.witness.domains]
    disagreements: list[Disagreement] = []
    checked = 0
    for combo in itertools.product(*pools):
        checked += 1
        ok = mappable(combo, typed, spec)
        instance = is_instance(forms, combo)
        if ok != instance:
            disagreements.append(Disagreement(combo, ok, instance))
    return AgreementReport(not disagreements, checked, disagreements)
