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
through it, so `Checker` needs no types beyond the subterms' own. Its one
push memo holds the verdict of a push below a constructor per (argument
subterm, argument type's lifter, the recovered functions the lifter reads),
so a repeated push builds no function expression, and of a push through a
pair or injection per (subterm, function). Candidates share their
sub-candidates (one pool per sub-domain), so that memo hits across candidate
tuples, and each candidate's normal form is built alongside it.
`map_apply` is the reference semantics: it rebuilds the term and types it
with `infer`. `agrees` runs it on the identity tuple of every call and stops
with `OracleInconsistency` when the two differ.

Candidates are built from arbitrary opaque functions, identities, products,
sums, and maps over data types that are not proper GADTs; what it means to map
through a proper GADT is precisely what the analysis computes, so candidates
take no position on it. The validator is exhaustive up to a structural depth
bound, not a general decision procedure.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import partial
from operator import is_, itemgetter

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
    lifter,
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
    free_type_vars,
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
) -> dict[str, FunExpr] | None:
    """Recover component functions from a function expression along a return
    index expression; None when the expression does not decompose.

    A variable index binds its component (failing on disagreement, compared up
    to identity expansion); a base type or atom requires the identity;
    products, sums, and applications require the matching composite form,
    expanding identities as needed, so a closed composite index is matched
    level by level down to its leaves. Return indices never mention proper
    GADTs, so every composite case has forced semantics.
    """
    if isinstance(k_expr, Var):
        prev = env.get(k_expr.name)
        if prev is None:
            return {**env, k_expr.name: phi}
        return env if normalize(prev) == normalize(phi) else None
    if not isinstance(k_expr, (Prod, Sum, App)):
        return env if normalize(phi) == Id(k_expr) else None
    if isinstance(phi, Id):
        expanded = expand_id(phi)
        if expanded is None:
            return None
        phi = expanded
    if isinstance(k_expr, (Prod, Sum)):
        if not isinstance(phi, ProdF if isinstance(k_expr, Prod) else SumF):
            return None
        env2 = match_fun(k_expr.left, phi.left, env)
        return None if env2 is None else match_fun(k_expr.right, phi.right, env2)
    if not (isinstance(phi, Lift) and phi.ctor == k_expr.ctor):
        return None
    for sub_k, sub_phi in zip(k_expr.args, phi.args):
        env = match_fun(sub_k, sub_phi, env)
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
) -> dict[str, FunExpr] | None:
    """The function along each binder of a constructor that a lifted
    application with these components maps its arguments with, or None when
    the components do not decompose along the return indices
    (`match_fun`). Binders absent from every return index carry
    incidental data, which is preserved unchanged: the identity at the
    binder's `instance`."""
    env: dict[str, FunExpr] | None = {}
    for k_expr, component in zip(sig.ret_indices, components):
        env = match_fun(k_expr, component, env)
        if env is None:
            return None
    for binder, t in zip(sig.type_vars, instance):
        if binder not in env:
            env[binder] = Id(t)
    return env


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
    try:
        result = _apply(phi, typed.root, vp, itertools.count())
    except _Fail:
        return None
    try:
        return infer(result, vp, typed.int_literals)
    except TypeCheckError:
        return None


def _apply(phi: FunExpr, node: TypedNode, vp: ValidatedProgram, counter: Iterator[int]) -> Term:
    """`map_apply`'s rebuilt term for one node; raises `_Fail` when the
    function does not apply. `counter` numbers the opaque constants."""
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
        return Pair(
            _apply(phi.left, node.kids[0], vp, counter),
            _apply(phi.right, node.kids[1], vp, counter),
        )
    if isinstance(phi, SumF):
        if isinstance(term, Inl):
            return Inl(_apply(phi.left, node.kids[0], vp, counter))
        if isinstance(term, Inr):
            return Inr(_apply(phi.right, node.kids[0], vp, counter))
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
            _apply(lift_type(arg_ty, env), kid, vp, counter)
            for arg_ty, kid in zip(sig.arg_types, node.kids)
        )
        return Ctor(term.name, new_args)
    raise _Fail


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

    One checker is shared by every candidate tuple of an `agrees` call, and
    its memos live as long as it does. (Each tuple pushes a function of its
    own through the root, so `check` itself is not memoised.) The push of an
    argument below a constructor is memoised per (argument subterm, argument
    type's lifter, the recovered functions that lifter reads): a repeated
    push builds no function expression and hashes none but those it reads:
    candidates' sub-expressions and shared identities, each hashed once, and
    the parts of an identity the push expanded. The pushes through a product
    or sum are memoised per (subterm, function) in the same map, whose two
    key shapes cannot collide. Codomains, normal forms and identity
    expansions are not memoised, since few are asked for twice: component
    recovery binds into one environment per push, and normalises only where
    two components bind one binder to different objects. The first push
    through a constructor stores its plan (the declaration's name, its
    return indices and each argument type compiled into a lifter,
    `funexpr.lifter`), and the first push through a node stores the node's
    own: the identities at the instances of the binders no return index
    mentions, and each argument's memo key prefix.
    """

    def __init__(self, typed: TypedTerm) -> None:
        self.vp = typed.vp
        self._pushes: dict[tuple[object, ...], bool] = {}
        self._plans: dict[str, tuple] = {}
        self._nodes: dict[int, tuple] = {}
        # By id: each value holds its specification, so no id is reused.
        self._heads: dict[int, tuple] = {}

    def _sub(self, phi: FunExpr, node: TypedNode) -> bool:
        key = (id(node), phi)
        ok = self._pushes.get(key)
        if ok is None:
            ok = self._pushes[key] = self.check(phi, node)
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
            plan = self._nodes.get(id(node))
            if plan is None:
                plan = self._nodes[id(node)] = self._node_plan(node)
            decl_name, indices, env, pushes = plan
            if decl_name != phi.ctor:
                return False
            # `_binder_functions`, into one environment per push.
            env = env.copy()
            for k_expr, component in zip(indices, phi.args):
                if isinstance(k_expr, Var):
                    prev = env.setdefault(k_expr.name, component)
                    if prev is not component and normalize(prev) != normalize(component):
                        return False
                elif not self._recover(k_expr, component, env):
                    return False
            # A loop, not `all` over a generator: one frame per term level.
            memo = self._pushes
            for kid, kid_id, lift, lift_id, read in pushes:
                key = (kid_id, lift_id) if read is None else (kid_id, lift_id, read(env))
                ok = memo.get(key)
                if ok is None:
                    ok = memo[key] = self.check(lift(env), kid)
                if not ok:
                    return False
            return True
        return False

    def _recover(self, k_expr: TypeExpr, phi: FunExpr, env: dict[str, FunExpr]) -> bool:
        """`match_fun` of a return index that is not a variable, into `env`
        in place; False when the function does not decompose. Variable parts
        bind here, not in a call of their own."""
        if not isinstance(k_expr, (Prod, Sum, App)):
            # A base type or atom: only the identity at it normalises to the
            # identity at it.
            return isinstance(phi, Id) and phi.at == k_expr
        if isinstance(phi, Id):
            phi = expand_id(phi)
            if phi is None:
                return False
        if isinstance(k_expr, (Prod, Sum)):
            if not isinstance(phi, ProdF if isinstance(k_expr, Prod) else SumF):
                return False
            parts = ((k_expr.left, phi.left), (k_expr.right, phi.right))
        elif isinstance(phi, Lift) and phi.ctor == k_expr.ctor:
            parts = zip(k_expr.args, phi.args)
        else:
            return False
        for sub_k, sub_phi in parts:
            if isinstance(sub_k, Var):
                prev = env.setdefault(sub_k.name, sub_phi)
                if prev is not sub_phi and normalize(prev) != normalize(sub_phi):
                    return False
            elif not self._recover(sub_k, sub_phi, env):
                return False
        return True

    def _node_plan(self, node: TypedNode) -> tuple:
        """How to push a lifted application through constructor node
        `node`: its constructor's plan, with the environment every push
        starts from (the identity at the instance of each binder no return
        index mentions) and, per argument, the subterm, its lifter and the
        memo key prefix."""
        ctor = node.term.name
        plan = self._plans.get(ctor)
        if plan is None:
            plan = self._plans[ctor] = self._plan(ctor)
        decl_name, indices, type_vars, bound, args = plan
        env = {b: Id(t) for b, t in zip(type_vars, node.instance) if b not in bound}
        pushes = tuple(
            (kid, id(kid), lift, id(lift), read) for (lift, read), kid in zip(args, node.kids)
        )
        return decl_name, indices, env, pushes

    def _plan(self, ctor: str) -> tuple:
        """How to push a lifted application through constructor `ctor`: its
        declaration's name, its return indices, its binders and those the
        return indices mention, and per argument type a lifter and a reader
        of the variables the lifter reads (None for a closed type)."""
        decl, sig = self.vp.ctor(ctor)
        bound = {v for k in sig.ret_indices for v in free_type_vars(k)}
        args = []
        for t in sig.arg_types:
            names = free_type_vars(t)
            args.append((lifter(t), itemgetter(*names) if names else None))
        return decl.name, sig.ret_indices, sig.type_vars, bound, tuple(args)


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
    return list(map(_FIRST, _normal_pools((domain,), depth, vp)[0]))


_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def _normal_pools(
    domains: tuple[TypeExpr, ...], depth: int, vp: ValidatedProgram
) -> list[list[tuple[FunExpr, FunExpr]]]:
    """`enumerate_candidates` of each domain, with the atoms numbered once
    across all of them, so that no two pools share an opaque function. Each
    candidate is paired with its normal form (`normalize`), which is built
    from its parts' normal forms as the candidate is built from its parts; a
    candidate whose parts are normal is its own normal form."""
    counter = itertools.count()
    return [_enum(d, depth, vp, counter) for d in domains]


def _enum(
    domain: TypeExpr, depth: int, vp: ValidatedProgram, counter: Iterator[int]
) -> list[tuple[FunExpr, FunExpr]]:
    """One domain's pool of `_normal_pools`, its atoms numbered by `counter`."""
    leaf, ident = Opaque(domain, Atom(f"X{next(counter)}")), Id(domain)
    out: list[tuple[FunExpr, FunExpr]] = [(leaf, leaf), (ident, normalize(ident))]
    if depth >= 1:
        if isinstance(domain, (Prod, Sum)):
            node = ProdF if isinstance(domain, Prod) else SumF
            for (l, nl), (r, nr) in itertools.product(
                _enum(domain.left, depth - 1, vp, counter),
                _enum(domain.right, depth - 1, vp, counter),
            ):
                c = node(l, r)
                out.append((c, c if nl is l and nr is r else node(nl, nr)))
        elif isinstance(domain, App) and not vp.is_proper(domain.ctor):
            for combo in itertools.product(
                *(_enum(a, depth - 1, vp, counter) for a in domain.args)
            ):
                args, normals = tuple(map(_FIRST, combo)), tuple(map(_SECOND, combo))
                c = Lift(domain.ctor, args)
                same = all(map(is_, args, normals))
                out.append((c, c if same else Lift(domain.ctor, normals)))
    return out


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
    for f, c in zip(forms, candidates):
        if not _instance(f, c, subst):
            return False
    return True


def _instance(f: FunExpr, c: FunExpr, subst: dict[FunVar, FunExpr]) -> bool:
    """Whether `c` instantiates `f`, extending `subst`, which binds the
    form's variables."""
    if isinstance(f, FunVar):
        prev = subst.get(f)
        if prev is None:
            subst[f] = c
            return True
        return prev == c
    if isinstance(f, (ProdF, SumF)):
        return (
            c.__class__ is f.__class__
            and _instance(f.left, c.left, subst)
            and _instance(f.right, c.right, subst)
        )
    if isinstance(f, Lift):
        return (
            isinstance(c, Lift)
            and f.ctor == c.ctor
            and all(map(_instance, f.args, c.args, itertools.repeat(subst)))
        )
    return f is c or f == c  # compared only at the leaves


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


def _spec_head(spec: TypeExpr) -> tuple:
    """What `mappable` reads of a specification, derived once per checker:
    the specification, its head's components, the positions whose
    candidate's codomain must match its component, and the head lift.

    A component that is a variable occurring nowhere else in the
    specification matches any codomain, so its position is left out. (A
    variable that is a whole component but occurs again inside another,
    as `b1` in `b1 * List b1`, is kept.)"""
    occurrences: dict[str, int] = {}
    stack = [spec]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            occurrences[t.name] = occurrences.get(t.name, 0) + 1
        else:
            stack.extend(type_children(t))
    components = type_children(spec)
    matched = tuple(
        i
        for i, k in enumerate(components)
        if not (isinstance(k, Var) and occurrences[k.name] == 1)
    )
    build = partial(Lift, spec.ctor) if isinstance(spec, App) else partial(head_lift, spec)
    return spec, components, matched, build


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
    mappable. `checker`, when given, must be over `typed`; its memos, among
    them what `_spec_head` derives of the specification, last across calls.
    The candidates' codomains are `fun_type`'s and are not memoised.
    """
    if checker is None:
        checker = Checker(typed)
    head = checker._heads.get(id(spec))
    if head is None:
        head = checker._heads[id(spec)] = _spec_head(spec)
    _, components, matched, build = head
    if len(candidates) != len(components):
        return False
    if matched:
        subst: dict[str, TypeExpr] = {}
        for i in matched:
            if not match_type(components[i], fun_type(candidates[i], codomain=True), subst):
                return False
    return checker.check(build(candidates), typed.root)


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
    paired = _normal_pools(domains, depth, typed.vp)
    pools = [list(map(_FIRST, pool)) for pool in paired]
    normal_pools = [list(map(_SECOND, pool)) for pool in paired]
    # Each pool's identity comes second: the identity tuple is the one
    # made of these very objects.
    identity = tuple(pool[1] for pool in pools)
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
    normal_forms = tuple(map(normalize, forms))
    disagreements: list[Disagreement] = []
    checked = 0
    for combo, normals in zip(itertools.product(*pools), itertools.product(*normal_pools)):
        checked += 1
        ok = mappable(combo, typed, spec, checker)
        if ok != reference and all(map(is_, combo, identity)):
            raise OracleInconsistency(
                f"identity tuple: the checker says {'' if ok else 'not '}mappable, "
                f"the rebuilt term's typing says {'' if reference else 'not '}mappable"
            )
        instance = _is_normal_instance(normal_forms, normals)
        if ok != instance:
            disagreements.append(Disagreement(combo, ok, instance))
    return AgreementReport(not disagreements, checked, disagreements)
