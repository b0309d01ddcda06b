"""Bounded brute-force validation of analysis results.

This module gives an independent, semantic meaning to "f is mappable over t
relative to a specification": lift the specification's head over candidate
functions, push the result through the term constructor by constructor, and
check that the result is a term of the lifted head's codomain, and that this
codomain is again an instance of the specification. Pushing a lifted
constructor application through `c args` recovers one component function per
binder of `c` from the constructor's return indices (the semantic inverse of
`lift_type`), then maps each argument along its instantiated argument type.

Candidates are checked against the codomain, not rebuilt and re-inferred.
The type expected of each subterm is the codomain of the function pushed
through it, so `Checker` needs no types beyond the subterms' own: it
memoises the verdict per subterm and function, and derives each candidate's
codomain and normal form once. Candidates share their sub-candidates (one
pool per sub-domain), so those memos hit across candidate tuples. `map_apply`
is the reference semantics: it rebuilds the term and types it with `infer`.
`agrees` runs it on the identity tuple of every call and stops with
`OracleInconsistency` when the two differ.

Candidates are built from arbitrary opaque functions, identities, products,
sums, and maps over data types that are not proper GADTs; what it means to map
through a proper GADT is precisely what the analysis computes, so candidates
take no position on it. The validator is exhaustive up to a structural depth
bound, not a general decision procedure.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable

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
from .pretty import pretty_term
from .syntax import (
    Ann,
    App,
    Atom,
    Const,
    ConstructorSig,
    Ctor,
    Inl,
    Inr,
    Pair,
    Prod,
    Record,
    Sum,
    Term,
    TypeExpr,
    Var,
    is_closed,
    type_children,
)
from .typecheck import TypeCheckError, TypedNode, TypedTerm, infer
from .wellformed import ValidatedProgram


class OracleInconsistency(Exception):
    """The checker and the reference semantics disagree on the identity
    tuple; indicates a bug in the oracle, not bad input."""

    stage = "oracle"


# The most candidate tuples `agrees` checks. A pool's size is doubly
# exponential in the depth of its domain type, so one more level of pairs
# can turn a second's check into hours.
MAX_TUPLES = 1_000_000


class CandidateSpaceTooLarge(ValueError):
    """The candidate tuples at the requested depth exceed MAX_TUPLES."""


def match_fun(
    k_expr: TypeExpr,
    phi: FunExpr,
    env: dict[str, FunExpr],
    normal: Callable[[FunExpr], FunExpr] = normalize,
) -> dict[str, FunExpr] | None:
    """Recover component functions from a function expression along a return
    index expression; None when the expression does not decompose.

    A variable index binds its component (failing on disagreement, compared up
    to identity expansion); a base type or atom requires the identity;
    products, sums, and applications require the matching composite form,
    expanding identities as needed, so a closed composite index is matched
    level by level down to its leaves. Return indices never mention proper
    GADTs, so every composite case has forced semantics. `normal` is
    `normalize` or a memoised equivalent.
    """
    if isinstance(k_expr, Var):
        prev = env.get(k_expr.name)
        if prev is None:
            return {**env, k_expr.name: phi}
        return env if normal(prev) == normal(phi) else None
    if not isinstance(k_expr, (Prod, Sum, App)):
        return env if normal(phi) == normal(Id(k_expr)) else None
    if isinstance(phi, Id):
        expanded = expand_id(phi)
        if expanded is None:
            return None
        phi = expanded
    if isinstance(k_expr, (Prod, Sum)):
        if not isinstance(phi, ProdF if isinstance(k_expr, Prod) else SumF):
            return None
        env2 = match_fun(k_expr.left, phi.left, env, normal)
        return None if env2 is None else match_fun(k_expr.right, phi.right, env2, normal)
    if not (isinstance(phi, Lift) and phi.ctor == k_expr.ctor):
        return None
    for sub_k, sub_phi in zip(k_expr.args, phi.args):
        env = match_fun(sub_k, sub_phi, env, normal)
        if env is None:
            return None
    return env


def match_type(pattern: TypeExpr, ty: TypeExpr, subst: dict[str, TypeExpr]) -> bool:
    """One-sided matching: extend `subst` so that `pattern` under it is the
    ground type `ty`; False when no extension does. Variables of `ty` are
    constants."""
    if isinstance(pattern, Var):
        return subst.setdefault(pattern.name, ty) == ty
    if isinstance(pattern, (Prod, Sum)):
        return (
            type(ty) is type(pattern)
            and match_type(pattern.left, ty.left, subst)
            and match_type(pattern.right, ty.right, subst)
        )
    if isinstance(pattern, App):
        return (
            isinstance(ty, App)
            and ty.ctor == pattern.ctor
            and len(ty.args) == len(pattern.args)
            and all(match_type(p, t, subst) for p, t in zip(pattern.args, ty.args))
        )
    return pattern == ty


def _binder_functions(
    sig: ConstructorSig,
    components: tuple[FunExpr, ...],
    instance: tuple[TypeExpr, ...],
    normal: Callable[[FunExpr], FunExpr] = normalize,
) -> dict[str, FunExpr] | None:
    """The function along each binder of a constructor that a lifted
    application with these components maps its arguments with, or None when
    the components do not decompose along the return indices (`match_fun`,
    comparing with `normal`). Binders absent from every return index carry
    incidental data, which is preserved unchanged: the identity at the
    binder's `instance`."""
    env: dict[str, FunExpr] | None = {}
    for k_expr, component in zip(sig.ret_indices, components):
        env = match_fun(k_expr, component, env, normal)
        if env is None:
            return None
    for binder, t in zip(sig.type_vars, instance):
        if binder not in env:
            env[binder] = Id(t)
    return env


Lifter = Callable[[dict[str, FunExpr]], FunExpr]


def _lifter(t: TypeExpr) -> Lifter:
    """`lift_type(t, env)` as a function of `env`, with `t` walked once:
    closed parts are identities built here, so each keeps its hash, and
    variables read `env`."""
    if isinstance(t, Var):
        return operator.itemgetter(t.name)
    if is_closed(t):
        ident = Id(t)
        return lambda env: ident
    if isinstance(t, (Prod, Sum)):
        node = ProdF if isinstance(t, Prod) else SumF
        left, right = _lifter(t.left), _lifter(t.right)
        return lambda env: node(left(env), right(env))
    if isinstance(t, App):
        ctor, args = t.ctor, tuple(map(_lifter, t.args))
        return lambda env: Lift(ctor, tuple([arg(env) for arg in args]))
    raise ValueError(f"cannot lift type expression {t!r}")


class _Fail(Exception):
    pass


def map_apply(phi: FunExpr, typed: TypedTerm) -> TypedTerm | None:
    """Apply a function expression to a term with a frozen typing and type
    the result, or None when not applicable.

    Identities leave subterms unchanged, at the identity's type; opaque
    functions replace them with fresh constants of the opaque codomain;
    products and sums distribute componentwise; a lifted constructor
    application maps through a matching constructor via `match_fun`. The
    rebuilt term is re-typechecked, with failures reported as None.
    """
    vp = typed.vp
    counter = itertools.count()

    def apply(phi: FunExpr, node: TypedNode) -> Term:
        term = node.term
        if isinstance(phi, Id):
            # The annotation keeps the type the subterm had, which annotations
            # dropped from the typed tree may have fixed (`(1 : Int)`).
            return Ann(term, phi.at)
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
            env = _binder_functions(sig, phi.args, node.instance)
            if env is None:
                raise _Fail
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


class Checker:
    """Decides, without rebuilding the term, whether pushing a function
    expression through a subterm of one typed term gives a term of the
    function's codomain, by the rules `map_apply` rebuilds with.

    The expected type is never passed: it is always the codomain of the
    function pushed through. At the root it is the lifted head's codomain.
    Below a constructor, an argument's expected type is its argument type
    with the binders instantiated from the return indices, and the
    argument's function lifts the same type with the components recovered
    along the same indices: identity expansion keeps codomains, a closed
    index forces the identity at it, a repeated index forces normal-equal
    functions, and a binder in no return index gets the identity at its
    instance. So an opaque function always checks, an identity checks at
    the subterm's own type, and a constructor needs only its components to
    decompose.

    The verdicts on proper subterms are memoised per (subterm, function),
    so one checker shared by every candidate tuple of an `agrees` call pushes
    each sub-candidate through each subterm once. (Each tuple pushes a
    function of its own through the root, so `check` itself is not
    memoised.) Candidates share their sub-expressions, so codomains and
    normal forms are memoised per distinct sub-expression, and component
    recovery compares memoised normal forms. The first push through a
    constructor stores its plan: the declaration's name, the signature and
    each argument type compiled into a lifter (`_lifter`), so a push neither
    looks the constructor up nor re-walks its argument types.
    """

    def __init__(self, typed: TypedTerm) -> None:
        self.vp = typed.vp
        self._memo: dict[tuple[int, FunExpr], bool] = {}
        self._codomains: dict[FunExpr, TypeExpr] = {}
        self._normals: dict[FunExpr, FunExpr] = {}
        self._plans: dict[str, tuple[str, ConstructorSig, tuple[Lifter, ...]]] = {}

    def codomain(self, phi: FunExpr) -> TypeExpr:
        """`fun_type(phi, codomain=True)`, for an expression without
        function variables, memoised per distinct sub-expression."""
        cod = self._codomains.get(phi)
        if cod is None:
            if isinstance(phi, (ProdF, SumF)):
                node = Prod if isinstance(phi, ProdF) else Sum
                cod = node(self.codomain(phi.left), self.codomain(phi.right))
            elif isinstance(phi, (Id, Opaque)):
                cod = fun_type(phi, codomain=True)
            elif isinstance(phi, Lift):
                cod = App(phi.ctor, tuple(map(self.codomain, phi.args)))
            else:
                raise ValueError(f"{phi!r} has no derivable codomain")
            self._codomains[phi] = cod
        return cod

    def normal(self, phi: FunExpr) -> FunExpr:
        """`normalize(phi)`, memoised per distinct sub-expression."""
        n = self._normals.get(phi)
        if n is None:
            if isinstance(phi, (ProdF, SumF)):
                n = type(phi)(self.normal(phi.left), self.normal(phi.right))
            elif isinstance(phi, Lift):
                n = Lift(phi.ctor, tuple(map(self.normal, phi.args)))
            else:
                n = normalize(phi)
            self._normals[phi] = n
        return n

    def _sub(self, phi: FunExpr, node: TypedNode) -> bool:
        key = (id(node), phi)
        ok = self._memo.get(key)
        if ok is None:
            ok = self._memo[key] = self.check(phi, node)
        return ok

    def check(self, phi: FunExpr, node: TypedNode) -> bool:
        if isinstance(phi, Opaque):
            return True
        if isinstance(phi, Id):
            # An unchanged subterm checks at its own type.
            if phi.at == node.type:
                return True
            phi = expand_id(phi)
        term = node.term
        if isinstance(phi, ProdF):
            return (
                isinstance(term, Pair)
                and self._sub(phi.left, node.kids[0])
                and self._sub(phi.right, node.kids[1])
            )
        if isinstance(phi, SumF):
            if isinstance(term, Inl):
                return self._sub(phi.left, node.kids[0])
            if isinstance(term, Inr):
                return self._sub(phi.right, node.kids[0])
            return False
        if isinstance(phi, Lift):
            if not isinstance(term, Ctor):
                return False
            plan = self._plans.get(term.name)
            if plan is None:
                plan = self._plans[term.name] = self._plan(term.name)
            decl_name, sig, lifters = plan
            if decl_name != phi.ctor:
                return False
            env = _binder_functions(sig, phi.args, node.instance, self.normal)
            if env is None:
                return False
            # A loop, not `all` over a generator: two frames per term level,
            # as in `map_apply`, keep the reachable depth the same.
            for lifter, kid in zip(lifters, node.kids):
                if not self._sub(lifter(env), kid):
                    return False
            return True
        return False

    def _plan(self, ctor: str) -> tuple[str, ConstructorSig, tuple[Lifter, ...]]:
        """How to push a lifted application through constructor `ctor`: its
        declaration's name, its signature, and a lifter per argument type."""
        decl, sig = self.vp.ctor(ctor)
        return decl.name, sig, tuple(map(_lifter, sig.arg_types))


def enumerate_candidates(domain: TypeExpr, depth: int, vp: ValidatedProgram) -> list[FunExpr]:
    """All candidate functions out of `domain` up to a structural depth.

    Leaves (an opaque function with a fresh codomain, and the identity) cost
    nothing; each product, sum, or map node costs one level of depth. Maps are
    offered only at data types that are not proper GADTs.

    Each sub-domain's candidates are enumerated once, and every candidate
    built over them holds the same sub-candidate objects, so a checker's memo
    sees each sub-candidate once. So an opaque leaf's codomain atom is fresh
    per position of the domain and per call (numbered from X0), not per
    candidate: the opaque leaves of one candidate are pairwise distinct,
    while candidates share theirs.
    """
    return candidate_pools((domain,), depth, vp)[0]


def candidate_pools(
    domains: tuple[TypeExpr, ...], depth: int, vp: ValidatedProgram
) -> list[list[FunExpr]]:
    """`enumerate_candidates` of each domain, with the atoms numbered once
    across all of them, so that no two pools share an opaque function."""
    counter = itertools.count()

    def enum(domain: TypeExpr, depth: int) -> list[FunExpr]:
        out: list[FunExpr] = [Opaque(domain, Atom(f"X{next(counter)}")), Id(domain)]
        if depth >= 1:
            if isinstance(domain, (Prod, Sum)):
                node = ProdF if isinstance(domain, Prod) else SumF
                for l, r in itertools.product(
                    enum(domain.left, depth - 1), enum(domain.right, depth - 1)
                ):
                    out.append(node(l, r))
            elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
                for combo in itertools.product(
                    *(enum(a, depth - 1) for a in domain.args)
                ):
                    out.append(Lift(domain.ctor, combo))
        return out

    return [enum(d, depth) for d in domains]


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
    return _is_normal_instance(tuple(map(normalize, forms)), tuple(map(normalize, candidates)))


def _is_normal_instance(forms: tuple[FunExpr, ...], candidates: tuple[FunExpr, ...]) -> bool:
    """`is_instance` on forms and candidates already normalised."""
    subst: dict[FunVar, FunExpr] = {}

    def go(f: FunExpr, c: FunExpr) -> bool:
        if isinstance(f, FunVar):
            prev = subst.get(f)
            if prev is None:
                subst[f] = c
                return True
            return prev == c
        if isinstance(f, (ProdF, SumF)):
            return c.__class__ is f.__class__ and go(f.left, c.left) and go(f.right, c.right)
        if isinstance(f, Lift):
            return isinstance(c, Lift) and f.ctor == c.ctor and all(map(go, f.args, c.args))
        return f == c  # compared only at the leaves

    return all(go(f, c) for f, c in zip(forms, candidates))


class Disagreement(Record):
    __slots__ = ("candidates", "mappable", "instance")

    def __init__(self, candidates: tuple[FunExpr, ...], mappable: bool, instance: bool) -> None:
        self.candidates = candidates
        self.mappable = mappable
        self.instance = instance


class AgreementReport(Record):
    __slots__ = ("agrees", "checked", "disagreements")

    def __init__(self, agrees: bool, checked: int, disagreements: list[Disagreement]) -> None:
        self.agrees = agrees
        self.checked = checked
        self.disagreements = disagreements


def head_lift(shape: TypeExpr, candidates: tuple[FunExpr, ...]) -> FunExpr:
    """Lift the specification's head over one candidate per component."""
    if isinstance(shape, App):
        return Lift(shape.ctor, candidates)
    if isinstance(shape, (Prod, Sum)):
        return (ProdF if isinstance(shape, Prod) else SumF)(*candidates)
    raise ValueError(f"specification {shape} has no analyzable head")


def mappable(
    candidates: tuple[FunExpr, ...],
    typed: TypedTerm,
    spec: TypeExpr,
    checker: Checker | None = None,
) -> bool:
    """Whether the candidate tuple is mappable over the term relative to the
    specification.

    Two conditions: the lifted head's codomain is again an instance of the
    specification, so the mapped result keeps the specified essential shape;
    and the lifted head pushes through the term's structure to a term of that
    codomain (checked, not inferred, so nullary constructors cannot
    re-generalize and hide it). A tuple not of the head's arity is not
    mappable. `checker`, when given, must be over `typed` and shares its
    memo across calls.
    """
    if checker is None:
        checker = Checker(typed)
    components = type_children(spec)
    if len(candidates) != len(components):
        return False
    subst: dict[str, TypeExpr] = {}
    for k, c in zip(components, candidates):
        if not match_type(k, checker.codomain(c), subst):
            return False
    return checker.check(head_lift(spec, candidates), typed.root)


def agrees(
    forms: tuple[FunExpr, ...],
    typed: TypedTerm,
    spec: TypeExpr,
    depth: int,
) -> AgreementReport:
    """Exhaustively compare the analysis result against the brute-force
    semantics: every candidate tuple must be mappable over the term iff it
    instantiates the most general form. Candidates range over the input
    functions' domains in the witness `check_call_invariants` recorded.

    Raises `OracleInconsistency` when `map_apply` does not rebuild the term
    from the identity tuple, or the checker's verdict on that tuple is not
    the verdict of the rebuilt term's typing, and `CandidateSpaceTooLarge`,
    before enumerating, when there are more than MAX_TUPLES tuples."""
    domains = typed.witness.domains
    tuples = math.prod(count_candidates(d, depth, typed.vp) for d in domains)
    if tuples > MAX_TUPLES:
        raise CandidateSpaceTooLarge(
            f"{tuples} candidate tuples at depth {depth}, more than the {MAX_TUPLES} checked"
        )
    identity = tuple(Id(d) for d in domains)
    rebuilt = map_apply(head_lift(spec, identity), typed)
    # Compared as text: the renderer is iterative, while `==` on terms
    # recurses several frames per level and would lower the depth reached.
    if rebuilt is None or pretty_term(rebuilt.term) != pretty_term(typed.term):
        raise OracleInconsistency("the identity tuple does not rebuild the term")
    try:
        rebuilt.unify_root(typed.root.type)
        reference = True
    except TypeCheckError:
        reference = False

    checker = Checker(typed)
    normal_forms = tuple(map(checker.normal, forms))
    pools = [
        [(c, checker.normal(c)) for c in pool]
        for pool in candidate_pools(domains, depth, typed.vp)
    ]
    disagreements: list[Disagreement] = []
    checked = 0
    for pairs in itertools.product(*pools):
        checked += 1
        combo = tuple(c for c, _ in pairs)
        ok = mappable(combo, typed, spec, checker)
        if ok != reference and combo == identity:
            raise OracleInconsistency(
                f"identity tuple: the checker says {'' if ok else 'not '}mappable, "
                f"the rebuilt term's typing says {'' if reference else 'not '}mappable"
            )
        instance = _is_normal_instance(normal_forms, tuple(n for _, n in pairs))
        if ok != instance:
            disagreements.append(Disagreement(combo, ok, instance))
    return AgreementReport(not disagreements, checked, disagreements)
