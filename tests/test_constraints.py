"""Constraint generation: unit tests for each step and golden traces for the
worked examples (compared in this implementation's deterministic labeling)."""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import gadtmap as g
from gadtmap.constraints import CallTrace, IndexName, NotTopUnifiable, match_spec
from gadtmap.funexpr import fun_children, fun_type, lifter
from gadtmap.syntax import (
    App,
    Atom,
    Base,
    Meta,
    Prod,
    Sum,
    Var,
    free_type_vars,
    is_closed,
    subst_type,
    type_children,
)
from gadtmap.typecheck import InstanceWitness

from conftest import (
    CORPUS,
    G_TERM_FLAT,
    G_TERM_INJ,
    LISTS_TERM,
    NESTED_SRC,
    SEQ_TERM,
    random_values,
    run_pipeline,
)
from test_oracle import PROBE_SRC, PROBE_TERMS, SUM_INDEXED_SRC, SUM_INDEXED_TERMS


def fv(kind, label, index):
    return g.FunVar(kind, label, index)


# Every type node kind: variables, base types, rigid atoms, nullary and n-ary
# applications, products and sums, and now and then a metavariable, which
# cannot be lifted.
_CLOSED_LEAVES = [Base("Nat"), Atom("?0"), App("E", ())]
_LIFT_TYPES = st.recursive(
    st.sampled_from(3 * [Var("a"), Var("b1"), Var("b2"), *_CLOSED_LEAVES] + [Meta(3)]),
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(lambda a: App("List", (a,)), inner),
        st.builds(lambda a, b: App("D2", (a, b)), inner, inner),
    ),
    max_leaves=12,
)
_LIFT_VALUES = st.sampled_from(
    [
        fv("g", "1", 1),
        fv("f", None, 2),
        g.Id(Base("Nat")),
        g.Id(App("List", (Base("Bool"),))),
        g.Lift("List", (fv("h", "2", 1),)),
    ]
)
_LIFT_ENVS = st.fixed_dictionaries({"a": _LIFT_VALUES, "b1": _LIFT_VALUES, "b2": _LIFT_VALUES})


class TestLiftType:
    def test_variable(self):
        f = fv("g", "1", 1)
        assert g.lift_type(Var("b1"), {"b1": f}) == f

    def test_closed_type_is_identity(self):
        assert g.lift_type(Base("Nat"), {}) == g.Id(Base("Nat"))
        assert g.lift_type(App("List", (Base("Nat"),)), {}) == g.Id(
            App("List", (Base("Nat"),))
        )

    def test_homomorphic_elsewhere(self):
        h1, h2 = fv("h", "1", 1), fv("h", "1", 2)
        ty = Prod(
            App("G", (Var("b1"),)), App("G", (Prod(Var("b2"), Var("b2")),))
        )
        assert g.lift_type(ty, {"b1": h1, "b2": h2}) == g.ProdF(
            g.Lift("G", (h1,)), g.Lift("G", (g.ProdF(h2, h2),))
        )

    @given(_LIFT_TYPES, _LIFT_ENVS)
    @settings(max_examples=300)
    def test_matches_top_down_reference(self, ty, env):
        try:
            want = _reference_lift_type(ty, env)
        except ValueError:
            with pytest.raises(ValueError):
                g.lift_type(ty, env)
            return
        assert g.lift_type(ty, env) == want

    @given(_LIFT_TYPES, _LIFT_ENVS)
    @settings(max_examples=300)
    def test_compiled_lifter_matches_lift_type(self, ty, env):
        # by name, as the oracle's push plans lift, and by position, as the
        # walk's plans do
        try:
            want = g.lift_type(ty, env)
        except ValueError:
            with pytest.raises(ValueError):
                lifter(ty)
            return
        assert lifter(ty)(env) == want
        names = free_type_vars(ty)
        numbered = subst_type(ty, {v: Var(i) for i, v in enumerate(names)})
        assert lifter(numbered)(tuple(env[v] for v in names)) == want

    def test_visits_each_subexpression_once(self):
        depth = 300
        ty = Var("b1")
        for _ in range(depth):
            ty = App("Bush", (ty,))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            g.lift_type(ty, {"b1": fv("f", None, 1)})
        finally:
            sys.setprofile(None)
        assert calls <= 20 * depth


def _reference_lift_type(t, env):
    """`lift_type` as a top-down walk that tests closedness at every level."""
    if isinstance(t, Var):
        return env[t.name]
    if is_closed(t):
        return g.Id(t)
    if isinstance(t, Prod):
        return g.ProdF(_reference_lift_type(t.left, env), _reference_lift_type(t.right, env))
    if isinstance(t, Sum):
        return g.SumF(_reference_lift_type(t.left, env), _reference_lift_type(t.right, env))
    if isinstance(t, App):
        return g.Lift(t.ctor, tuple(_reference_lift_type(a, env) for a in t.args))
    raise ValueError(f"cannot lift type expression {t!r}")


NAT = Base("Nat")


def problem(left, right):
    return ((left, right),)


class TestMatchSpec:
    def test_variable_against_product(self):
        out = match_spec(problem(Var("b1"), Prod(Var("y1"), Var("y2"))))
        assert out == ({"b1": [Prod(Var("y1"), Var("y2"))]}, {})

    def test_variable_variable_prefers_pinning(self):
        out = match_spec(problem(Prod(Var("b1"), Var("b2")), Prod(Var("y1"), Var("y2"))))
        assert out == ({}, {"y1": [Var("b1")], "y2": [Var("b2")]})

    def test_variable_against_closed(self):
        assert match_spec(problem(Var("b2"), NAT)) == ({"b2": [NAT]}, {})

    def test_composite_against_variable(self):
        out = match_spec(problem(App("List", (Var("b1"),)), Var("y1")))
        assert out == ({}, {"y1": [App("List", (Var("b1"),))]})

    def test_peeling_identical_heads(self):
        out = match_spec(problem(App("List", (Var("b1"),)), App("List", (Var("y1"),))))
        assert out == ({}, {"y1": [Var("b1")]})

    def test_equal_closed_leaves_assign_nothing(self):
        assert match_spec(problem(Prod(NAT, Var("b1")), Prod(NAT, Var("y1")))) == (
            {},
            {"y1": [Var("b1")]},
        )

    def test_groups_by_variable_in_match_order(self):
        # The pins of one index and the definitions of one variable come from
        # several problems and stay in match order.
        defs, pins = match_spec(
            (
                (Prod(Var("b1"), Var("b2")), Prod(Var("y1"), Var("y2"))),
                (Var("b3"), App("List", (Var("y1"),))),
                (Prod(Var("b2"), Var("b3")), Prod(Var("y1"), NAT)),
            )
        )
        assert defs == {"b3": [App("List", (Var("y1"),)), NAT]}
        assert pins == {"y1": [Var("b1"), Var("b2")], "y2": [Var("b2")]}
        assert list(pins) == ["y1", "y2"]

    def test_no_problems(self):
        assert match_spec(()) == ({}, {})

    def test_clash_raises(self):
        with pytest.raises(g.NotTopUnifiable):
            match_spec(problem(NAT, Base("Bool")))
        with pytest.raises(g.NotTopUnifiable):
            match_spec(problem(Prod(Var("b1"), Var("b2")), Sum(Var("y1"), Var("y2"))))
        with pytest.raises(g.NotTopUnifiable):
            match_spec(problem(App("List", (Var("b1"),)), App("Bush", (Var("y1"),))))
        with pytest.raises(g.NotTopUnifiable):
            match_spec(((Var("b1"), Var("y1")), (NAT, Base("Bool"))))

    @given(st.lists(st.deferred(lambda: _PROBLEMS), max_size=3))
    @settings(max_examples=150)
    def test_matches_assignment_list_reference(self, problems):
        try:
            assignments = [a for left, right in problems for a in _reference_match(left, right)]
        except NotTopUnifiable:
            with pytest.raises(NotTopUnifiable):
                match_spec(tuple(problems))
            return
        defs, pins = match_spec(tuple(problems))
        want_defs: dict = {}
        want_pins: dict = {}
        for a in assignments:
            if isinstance(a, _BetaAssign):
                want_defs.setdefault(a.var, []).append(a.psi)
            else:
                want_pins.setdefault(a.gamma, []).append(a.sigma)
        assert list(defs.items()) == list(want_defs.items())
        assert list(pins.items()) == list(want_pins.items())


# Matching problems: a specification side over b1, b2 and an index side over
# y1, y2, with equal heads that descend. One problem in four also has a clash
# (unequal closed leaves or mismatched heads).
_CLOSED = st.sampled_from([NAT, Base("Bool"), App("E", ())])
_SPEC_VARS = st.sampled_from([Var("b1"), Var("b2")])
_INDEX_VARS = st.sampled_from([Var("y1"), Var("y2")])


def _problems(leaves, clash):
    return st.recursive(
        st.one_of(
            st.tuples(_SPEC_VARS, st.one_of(_INDEX_VARS, _CLOSED)),
            st.tuples(st.one_of(_SPEC_VARS, _CLOSED), _INDEX_VARS),
            _CLOSED.map(lambda t: (t, t)),
            st.tuples(
                st.sampled_from([App("List", (Var("b1"),)), Prod(Var("b2"), NAT)]), _INDEX_VARS
            ),
            *leaves,
        ),
        lambda inner: st.one_of(
            st.builds(lambda p, q: (Prod(p[0], q[0]), clash(p[1], q[1])), inner, inner),
            st.builds(lambda p, q: (Sum(p[0], q[0]), Sum(p[1], q[1])), inner, inner),
            st.builds(lambda p: (App("List", (p[0],)), App("List", (p[1],))), inner),
            st.builds(lambda p: (Var("b1"), p[1]), inner),
        ),
        max_leaves=8,
    )


_MATCHING = _problems((), Prod)
_PROBLEMS = st.one_of(
    _MATCHING, _MATCHING, _MATCHING, _problems((st.tuples(_CLOSED, _CLOSED),), Sum)
)


# The assignment-list form of the matching and of steps v and vi that the
# walk replaced with `match_spec`'s maps, kept as the reference.
@dataclass(frozen=True)
class _BetaAssign:
    var: object
    psi: object


@dataclass(frozen=True)
class _SigmaAssign:
    sigma: object
    gamma: object


def _reference_match(sigma, index_expr):
    out = []

    def go(left, right):
        if isinstance(left, Var) and isinstance(right, Var):
            out.append(_SigmaAssign(left, right.name))
            return
        if isinstance(left, Var):
            out.append(_BetaAssign(left.name, right))
            return
        if isinstance(right, Var):
            out.append(_SigmaAssign(left, right.name))
            return
        if type(left) is not type(right):
            raise NotTopUnifiable(f"cannot match {left} against {right}")
        if isinstance(left, App):
            if left.ctor != right.ctor:
                raise NotTopUnifiable(f"cannot match {left} against {right}")
            for a, b in zip(left.args, right.args):
                go(a, b)
            return
        kids_l, kids_r = type_children(left), type_children(right)
        if kids_l:
            for a, b in zip(kids_l, kids_r):
                go(a, b)
            return
        if left != right:
            raise NotTopUnifiable(f"cannot match {left} against {right}")

    go(sigma, index_expr)
    return out


def _reference_taus(assignments, gammas):
    first = {}
    for a in assignments:
        if isinstance(a, _SigmaAssign):
            first.setdefault(a.gamma, a.sigma)
    return tuple(first.get(y, Var(y)) for y in gammas)


def _reference_step_five(assignments, betas, env, call):
    out = []
    for b in betas:
        for a in assignments:
            if isinstance(a, _BetaAssign) and a.var == b:
                out.append(g.Constraint(g.lift_type(a.psi, env), env[b], "v", call))
    return out


def _reference_step_six(assignments, gammas, env, call):
    out = []
    for y in gammas:
        sigmas = [a.sigma for a in assignments if isinstance(a, _SigmaAssign) and a.gamma == y]
        for q in range(1, len(sigmas)):
            out.append(
                g.Constraint(g.lift_type(sigmas[q], env), g.lift_type(sigmas[0], env), "vi", call)
            )
    return out


def _reference_call(vp, t):
    """(emitted, matching, taus, rjs, zetas) of one call, recomputed from its
    specification and input functions with the assignment list."""
    components = type_children(t.spec)
    betas = free_type_vars(t.spec)
    env = {b: g.FunVar("g", t.call, i + 1) for i, b in enumerate(betas)}
    emitted = [
        g.Constraint(g.lift_type(comp, env), f, "i", t.call)
        for comp, f in zip(components, t.funs)
    ]
    if not isinstance(t.term, g.Ctor):
        return tuple(emitted), (), (), (), ()
    _, sig = vp.ctor(t.term.name)
    gammas = tuple(IndexName(i + 1, t.call) for i in range(len(sig.type_vars)))
    rename = {a: Var(y) for a, y in zip(sig.type_vars, gammas)}
    matching, assignments = [], []
    for comp, k_expr in zip(components, sig.ret_indices):
        index_expr = subst_type(k_expr, rename)
        matching.append((comp, index_expr))
        assignments += _reference_match(comp, index_expr)
    taus = _reference_taus(assignments, gammas)
    for i, y in enumerate(gammas):
        env[y] = g.FunVar("h", t.call, i + 1)
    emitted += _reference_step_five(assignments, betas, env, t.call)
    emitted += _reference_step_six(assignments, gammas, env, t.call)
    rjs = tuple(subst_type(a, dict(zip(sig.type_vars, taus))) for a in sig.arg_types)
    return tuple(emitted), tuple(matching), taus, rjs, tuple(map(g.recursion_target, rjs))


_PROBE_VP = g.validate(g.parse_program(NESTED_SRC + SUM_INDEXED_SRC + PROBE_SRC))

# Programs where one index is pinned three times, where one specification
# variable is defined twice, and where a pin is composite.
_STEP_SRC = """
data G3 : Set -> Set -> Set -> Set where
  trip : forall a. a -> G3 a a a

data P : Set -> Set -> Set where
  pp : forall a b. a -> b -> P (List a) (List b) ;
  pn : Nat -> P Nat (List Nat)
"""
_STEP_VP = g.validate(g.parse_program(NESTED_SRC + _STEP_SRC))
_STEP_TERMS = [
    ("trip 5", "G3 b1 b2 b3"),
    ("trip (cons 1 nil)", "G3 (List b1) b2 b2"),
    ("pp 1 2", "P b1 b1"),
    ("pp (cons 1 nil) 2", "P (List b1) b2"),
    ("pn 3", "P b1 (List b2)"),
]


def _reference_cases():
    for key, term, spec, int_lits in CORPUS:
        yield key, term, spec, int_lits
    for term, spec, _checked in PROBE_TERMS:
        yield "probe", term, spec, False
    for term, spec in SUM_INDEXED_TERMS:
        yield "probe", term, spec, False
    for term, spec in _STEP_TERMS:
        yield "step", term, spec, False


class TestCallsMatchAssignmentListReference:
    """Every call's emitted constraints, matching, taus, rjs and zetas equal
    the assignment-list computation of the same call."""

    @pytest.mark.parametrize("key,term,spec,int_lits", list(_reference_cases()))
    def test_examples(self, programs, key, term, spec, int_lits):
        vp = {"probe": _PROBE_VP, "step": _STEP_VP}.get(key) or programs[key]
        self._check(vp, run_pipeline(vp, term, spec, int_lits))

    def test_random_values(self, nested_vp):
        for term, spec in random_values(nested_vp, 40):
            report = g.analyze(nested_vp, term, g.parse_spec(spec, nested_vp))
            assert report.status == "Mappable", report.detail
            self._check(nested_vp, report)

    @staticmethod
    def _check(vp, report):
        for t in report.run.traces:
            assert (t.emitted, t.matching, t.taus, t.rjs, t.zetas) == _reference_call(vp, t)


class _ReferenceRun:
    """The walk as one derivation per call: every call works out from its
    specification and inputs what the walk's plans derive once per key."""

    def __init__(self, vp):
        self.vp = vp
        self._intro = itertools.count()
        self.traces = []

    def fresh_fun(self, kind, call, index, domain):
        return g.FunVar(kind, call, index, intro=next(self._intro), domain=domain)

    def call(self, node, funs, spec_te, cenv, call):
        term = node.term
        components = type_children(spec_te)
        assert isinstance(spec_te, (App, Prod, Sum)) and len(components) == len(funs)
        assert subst_type(spec_te, cenv) == node.type
        betas = free_type_vars(spec_te)
        env = {b: self.fresh_fun("g", call, i + 1, cenv[b]) for i, b in enumerate(betas)}
        emitted = []
        for ell, comp in enumerate(components):
            emitted.append(g.Constraint(g.lift_type(comp, env), funs[ell], "i", call))
        if isinstance(spec_te, (Prod, Sum)):
            if isinstance(spec_te, Prod):
                assert isinstance(term, g.Pair)
                branches = ((0, 0), (1, 1))
            elif isinstance(term, g.Inl):
                branches = ((0, 0),)
            else:
                assert isinstance(term, g.Inr)
                branches = ((1, 0),)
            targets = [
                (j, node.kids[i], components[j], g.recursion_target(components[j]))
                for j, i in branches
            ]
            self.traces.append(CallTrace(call, term, funs, spec_te, tuple(emitted)))
        else:
            decl, sig = self.vp.ctor(term.name)
            assert spec_te.ctor == decl.name
            w = node.instance
            inst = dict(zip(sig.type_vars, w))
            for ell, k_expr in enumerate(sig.ret_indices):
                got = fun_type(funs[ell], codomain=False)
                assert got is None or got == subst_type(k_expr, inst)
            gammas = tuple(IndexName(i + 1, call) for i in range(len(sig.type_vars)))
            rename = {a: Var(y) for a, y in zip(sig.type_vars, gammas)}
            matching = tuple(
                (comp, subst_type(k_expr, rename))
                for comp, k_expr in zip(components, sig.ret_indices)
            )
            defs, pins = match_spec(matching)
            taus = tuple(pins[y][0] if y in pins else Var(y) for y in gammas)
            for i, y in enumerate(gammas):
                env[y] = self.fresh_fun("h", call, i + 1, w[i])
            for b in betas:
                for psi in defs.get(b, ()):
                    emitted.append(g.Constraint(g.lift_type(psi, env), env[b], "v", call))
            for y in gammas:
                sigmas = pins.get(y, ())
                for sigma in sigmas[1:]:
                    emitted.append(g.Constraint(
                        g.lift_type(sigma, env), g.lift_type(sigmas[0], env), "vi", call
                    ))
            at_taus = dict(zip(sig.type_vars, taus))
            rjs = tuple(subst_type(arg_type, at_taus) for arg_type in sig.arg_types)
            zetas = tuple(g.recursion_target(rj) for rj in rjs)
            targets = zip(itertools.count(), node.kids, rjs, zetas)
            self.traces.append(CallTrace(call, term, funs, spec_te, tuple(emitted),
                                         matching, taus, rjs, zetas))
        children = []
        for j, kid, rj, zs in targets:
            if zs is not None:
                child_funs = tuple(g.lift_type(z, env) for z in zs)
                child_cenv = {v: env[v].domain for v in free_type_vars(rj)}
                children.append((kid, child_funs, rj, child_cenv, g.Call(call, j + 1)))
        return children


def _reference_run(typed, spec):
    r = _ReferenceRun(typed.vp)
    witness = typed.witness
    root_funs = tuple(
        r.fresh_fun("f", None, ell + 1, domain) for ell, domain in enumerate(witness.domains)
    )
    stack = [(typed.root, root_funs, spec, witness.subst, g.Call(None, 1))]
    while stack:
        stack.extend(reversed(r.call(*stack.pop())))
    heads = frozenset(id(t.term) for t in r.traces)
    return g.RunResult([c for t in r.traces for c in t.emitted], r.traces,
                       g.AnnotatedTerm(typed.term, heads), root_funs)


def _fun_var_facts(exprs):
    """Every function variable occurrence in `exprs`, in order, with the
    creation rank and domain that equality leaves out."""
    out = []
    stack = list(reversed(exprs))
    while stack:
        e = stack.pop()
        if isinstance(e, g.FunVar):
            out.append((e, e.intro, e.domain))
        stack += reversed(fun_children(e))
    return out


def _call_sides(t):
    return [*t.funs, *(side for c in t.emitted for side in (c.lhs, c.rhs))]


# Runs where one key recurs under different ancestors (`projpair` and `flat`
# below both branches of a `pairing`), where keys differ only in a closed
# leaf, and where one branch meets different constructors.
_PLAN_KEY_CASES = [
    ("g", "pairing (" + G_TERM_FLAT + ") (" + G_TERM_FLAT.replace("nil", "(cons const nil)")
     + ")", "G b1"),
    ("g", "pairing (" + G_TERM_FLAT + ") (" + G_TERM_INJ + ")", "G (b1 * b2)"),
    ("nested", "((cons (1, 2) nil), (cons (3, true) nil))", "List (b1 * Nat) * List (b1 * Bool)"),
    ("nested", "((cons (1, 2) nil), (cons (3, 4) nil))", "List (b1 * Nat) * List (Nat * b1)"),
    ("nested", "cons (cons 1 nil) (cons nil (cons (cons 2 (cons 3 nil)) nil))", "List (List b1)"),
]


class TestWalkMatchesPerCallDerivation:
    """The walk, with one plan per key, does what a derivation per call
    does: call by call in preorder, the same subterm and label, the same
    trace fields, and the same creation rank and domain for every function
    variable; and the same roots, constraints and essential heads."""

    @pytest.mark.parametrize("key,term,spec,int_lits", list(_reference_cases()))
    def test_examples(self, programs, key, term, spec, int_lits):
        vp = {"probe": _PROBE_VP, "step": _STEP_VP}.get(key) or programs[key]
        self._check(run_pipeline(vp, term, spec, int_lits))

    @pytest.mark.parametrize("key,term,spec", _PLAN_KEY_CASES)
    def test_recurring_keys(self, programs, key, term, spec):
        self._check(run_pipeline(programs[key], term, spec))

    def test_random_values(self, nested_vp):
        for term, spec in random_values(nested_vp, 40):
            report = g.analyze(nested_vp, term, g.parse_spec(spec, nested_vp))
            assert report.status == "Mappable", report.detail
            self._check(report)

    @staticmethod
    def _check(report):
        got, want = report.run, _reference_run(report.typed, report.spec)
        assert [t.label for t in got.traces] == [t.label for t in want.traces]
        for t, r in zip(got.traces, want.traces):
            assert t.term is r.term, t.label
            assert (t.funs, t.spec, t.emitted, t.matching, t.taus, t.rjs, t.zetas) == (
                r.funs, r.spec, r.emitted, r.matching, r.taus, r.rjs, r.zetas
            ), t.label
            assert _fun_var_facts(_call_sides(t)) == _fun_var_facts(_call_sides(r)), t.label
        assert _fun_var_facts(got.root_funs) == _fun_var_facts(want.root_funs)
        assert got.constraints == want.constraints
        assert got.annotation.heads == want.annotation.heads


def _frozen(vp, term_text, spec_text):
    term = g.parse_term(term_text, vp)
    spec = g.parse_spec(spec_text, vp)
    typed = g.infer(term, vp)
    g.check_call_invariants(typed, spec, g.spec_head_arity(spec, vp))
    return typed, spec


class TestReChecksAfterCompiling:
    """The walk's invariant re-checks fire on every call: the third `cons`
    (call 1.2.2) is a later call of a key whose plan the first compiled."""

    @pytest.fixture
    def third_cons(self, nested_vp):
        typed, spec = _frozen(nested_vp, "cons 1 (cons 2 (cons 3 nil))", "List b1")
        return typed, spec, typed.root.kids[1].kids[1]

    def test_specification_against_type(self, third_cons):
        typed, spec, node = third_cons
        node.type = App("List", (Base("Bool"),))
        with pytest.raises(g.InternalInvariantViolation) as e:
            g.run(typed, spec)
        assert str(e.value) == (
            "call 1.2.2: instantiated specification List Nat differs from subterm type List Bool"
        )

    def test_input_domain_against_instance(self, third_cons):
        typed, spec, node = third_cons
        node.instance = (Base("Bool"),)
        with pytest.raises(g.InternalInvariantViolation) as e:
            g.run(typed, spec)
        assert str(e.value) == "call 1.2.2: input function 1 has domain Nat, expected Bool"


class TestCompileTimeChecks:
    """The checks a key decides fire on its first call, with the messages of
    a derivation per call. Each root is frozen under one specification, then
    retyped by hand for another, with input functions of no recorded domain,
    so the checks before them pass."""

    @pytest.mark.parametrize(
        "key,term,frozen_as,spec,retyped,funs,message",
        [
            ("g", "cons 1 nil", "List b1", "List b1", "List Nat", 2,
             "call 1: bad call on List b1 with 2 functions"),
            ("g", "cons 1 nil", "List b1", "G b1", "G Nat", 1,
             "call 1: constructor 'cons' does not build G b1"),
            ("g", "(1, 2)", "b1 * b2", "G b1", "G Nat", 1,
             "call 1: expected a constructor application"),
            ("g", "(1, 2)", "b1 * b2", "b1 + b2", "Nat + Nat", 2,
             "call 1: expected an injection"),
            ("g", "inl 1", "b1 + b2", "b1 * b2", "Nat * Nat", 2, "call 1: expected a pair"),
            ("g", "const", "G b1", "G Bool", "G Bool", 1, "cannot match Bool against Nat"),
            ("g", "flat nil", "G b1", "G (b1 * b2)", "G (Nat * Bool)", 1,
             "cannot match b1 * b2 against List y1^1"),
        ],
    )
    def test_first_call_of_a_key(self, programs, key, term, frozen_as, spec, retyped, funs,
                                 message):
        vp = programs[key]
        typed, _ = _frozen(vp, term, frozen_as)
        spec = g.parse_spec(spec, vp)
        typed.root.type = g.parse_type(retyped, vp)
        subst = {}
        assert g.oracle.match_type(spec, typed.root.type, subst)
        typed.witness = InstanceWitness(subst, (None,) * funs)
        with pytest.raises(g.InternalInvariantViolation) as e:
            g.run(typed, spec)
        assert str(e.value) == message


class TestCallSteps:
    """Steps v and vi and the taus, read off `match_spec`'s maps."""

    def test_each_further_pin_against_the_first(self):
        p = run_pipeline(_STEP_VP, "trip 5", "G3 b1 b2 b3")
        assert constraint_strings(p)[3:] == [
            ("1:vi", "<g2^1, g1^1>"),
            ("1:vi", "<g3^1, g1^1>"),
        ]
        assert tuple(map(g.pretty, p.run.traces[0].taus)) == ("b1",)

    def test_single_pins_emit_no_step_six(self):
        p = run_pipeline(_PROBE_VP, "ts (tl 1)", "T b1 b2")
        assert [o for o, _ in constraint_strings(p)] == ["1:i", "1:i", "1.1:i", "1.1:i", "1.1:v"]
        assert tuple(map(g.pretty, p.run.traces[0].taus)) == ("b2", "b1")

    def test_composite_first_pin_is_the_tau(self):
        p = run_pipeline(_STEP_VP, "trip (cons 1 nil)", "G3 (List b1) b2 b2")
        root = p.run.traces[0]
        assert tuple(map(g.pretty, root.taus)) == ("List b1",)
        assert list(map(g.pretty, root.rjs)) == ["List b1"]
        assert root.zetas == ((Var("b1"),),)
        assert [o for o, _ in constraint_strings(p) if o.startswith("1:")] == [
            "1:i", "1:i", "1:i", "1:vi", "1:vi",
        ]

    def test_two_definitions_of_one_variable(self):
        p = run_pipeline(_STEP_VP, "pp 1 2", "P b1 b1")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<g1^1, f2>"),
            ("1:v", "<List h1^1, g1^1>"),
            ("1:v", "<List h2^1, g1^1>"),
        ]
        root = p.run.traces[0]
        assert tuple(map(g.pretty, root.taus)) == ("y1^1", "y2^1")
        assert root.zetas == (None, None)

    def test_closed_definitions_and_closed_arguments(self):
        p = run_pipeline(_STEP_VP, "pn 3", "P b1 (List b2)")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<List g2^1, f2>"),
            ("1:v", "<id@Nat, g1^1>"),
            ("1:v", "<id@Nat, g2^1>"),
        ]
        root = p.run.traces[0]
        assert root.taus == () and root.rjs == (NAT,) and root.zetas == (None,)


def constraint_strings(p) -> list[tuple[str, str]]:
    return [(c.origin, g.pretty(c)) for c in p.run.constraints]


class TestGoldenTraces:
    def test_seq_example(self, seq_vp):
        p = run_pipeline(seq_vp, SEQ_TERM, "Seq b1", int_literals=True)
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:v", "<h1^1 * h2^1, g1^1>"),
            ("1.1:i", "<g1^1.1, h1^1>"),
            ("1.1:v", "<h1^1.1 * h2^1.1, g1^1.1>"),
            ("1.1.1:i", "<g1^1.1.1, h1^1.1>"),
            ("1.1.2:i", "<g1^1.1.2, h2^1.1>"),
            ("1.2:i", "<g1^1.2, h2^1>"),
        ]
        assert [t.label for t in p.run.traces] == ["1", "1.1", "1.1.1", "1.1.2", "1.2"]
        root = p.run.traces[0]
        assert [f"{g.pretty(l)} == {g.pretty(r)}" for l, r in root.matching] == [
            "b1 == y1^1 * y2^1"
        ]
        assert tuple(map(g.pretty, root.taus)) == ("y1^1", "y2^1")
        assert list(map(g.pretty, root.rjs)) == ["Seq y1^1", "Seq y2^1"]
        assert [tuple(map(g.pretty, z)) for z in root.zetas] == [("y1^1",), ("y2^1",)]

    def test_g_inj_example(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_INJ, "G b1")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:v", "<h1^1 * h2^1, g1^1>"),
            ("1.1:i", "<G g1^1.1 * G (g2^1.1 * g2^1.1), G h1^1 * G (h2^1 * h2^1)>"),
            ("1.1.1:i", "<G g1^1.1.1, G g1^1.1>"),
            ("1.1.1:i", "<G (g2^1.1.1 * g2^1.1.1), G (g2^1.1 * g2^1.1)>"),
            ("1.1.1.1:i", "<g1^1.1.1.1, g1^1.1.1>"),
            ("1.1.1.2:i", "<g1^1.1.1.2 * g1^1.1.1.2, g2^1.1.1 * g2^1.1.1>"),
            ("1.1.1.2.1:i", "<g1^1.1.1.2.1, g1^1.1.1.2>"),
            ("1.1.1.2.2:i", "<g1^1.1.1.2.2, g1^1.1.1.2>"),
            ("1.1.1.2.2:v", "<id@Nat, g1^1.1.1.2.2>"),
        ]
        # the literal 2 under the first inner injection is never visited
        assert (0, 0, 0, 0) not in p.run.annotation.essential
        # recursion through the pairing happens at the pair component, so the
        # input functions of the pair call are composite
        pair_call = next(t for t in p.run.traces if t.label == "1.1.1")
        assert [g.pretty(f) for f in pair_call.funs] == ["G g1^1.1", "G (g2^1.1 * g2^1.1)"]

    def test_g_flat_example(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        strings = constraint_strings(p)
        assert len(strings) == 15
        assert ("1.1.1.1:v", "<List h1^1.1.1.1, g1^1.1.1.1>") in strings
        assert ("1.1.1.1.1.1:v", "<id@Nat, g1^1.1.1.1.1.1>") in strings
        assert ("1.1.1.2.2:v", "<id@Nat, g1^1.1.1.2.2>") in strings
        flat_call = next(t for t in p.run.traces if t.label == "1.1.1.1")
        assert [f"{g.pretty(l)} == {g.pretty(r)}" for l, r in flat_call.matching] == [
            "y1^1 == List y1^1.1.1.1"
        ]
        assert tuple(map(g.pretty, flat_call.taus)) == ("y1^1.1.1.1",)
        assert list(map(g.pretty, flat_call.rjs)) == ["List (G y1^1.1.1.1)"]
        # the list-of-analyses call gets a lifted constructor as input function
        inner = next(t for t in p.run.traces if t.label == "1.1.1.1.1")
        assert [g.pretty(f) for f in inner.funs] == ["G h1^1.1.1.1"]
        assert g.pretty(inner.spec) == "List (G y1^1.1.1.1)"

    def test_list_shallow(self, nested_vp):
        p = run_pipeline(nested_vp, LISTS_TERM, "List b1")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1.2:i", "<g1^1.2, g1^1>"),
            ("1.2.2:i", "<g1^1.2.2, g1^1.2>"),
        ]
        root = p.run.traces[0]
        assert list(map(g.pretty, root.rjs)) == ["b1", "List b1"]
        assert root.zetas[0] is None and root.zetas[1] == (Var("b1"),)

    def test_list_deep(self, nested_vp):
        p = run_pipeline(nested_vp, LISTS_TERM, "List (List b1)")
        assert constraint_strings(p) == [
            ("1:i", "<List g1^1, f1>"),
            ("1.1:i", "<g1^1.1, g1^1>"),
            ("1.1.2:i", "<g1^1.1.2, g1^1.1>"),
            ("1.1.2.2:i", "<g1^1.1.2.2, g1^1.1.2>"),
            ("1.2:i", "<List g1^1.2, List g1^1>"),
            ("1.2.1:i", "<g1^1.2.1, g1^1.2>"),
            ("1.2.1.2:i", "<g1^1.2.1.2, g1^1.2.1>"),
            ("1.2.2:i", "<List g1^1.2.2, List g1^1.2>"),
        ]

    def test_trivial_product_spec(self, nested_vp):
        p = run_pipeline(nested_vp, "(1, tt)", "b1 * b2")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
        ]
        assert len(p.run.traces) == 1

    def test_two_pins_on_one_index_via_program(self):
        vp = g.validate(
            g.parse_program(
                "data G2 : Set -> Set -> Set where dup : forall a. a -> G2 a a"
            )
        )
        p = run_pipeline(vp, "dup 5", "G2 b1 b2")
        assert constraint_strings(p) == [
            ("1:i", "<g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
            ("1:vi", "<g2^1, g1^1>"),
        ]
        assert [g.pretty(f) for f in p.form] == ["f'1", "f'1"]

    def test_injection_specs(self, nested_vp):
        left = run_pipeline(nested_vp, "inl (cons 1 nil)", "List b1 + b2")
        assert constraint_strings(left)[:2] == [
            ("1:i", "<List g1^1, f1>"),
            ("1:i", "<g2^1, f2>"),
        ]
        assert any(o.startswith("1.1") for o, _ in constraint_strings(left))
        right = run_pipeline(nested_vp, "inr 5", "List b1 + b2")
        assert [o for o, _ in constraint_strings(right)] == ["1:i", "1:i"]


class TestInvariants:
    @pytest.mark.parametrize(
        "key,term,spec,int_lits",
        [
            ("seq", SEQ_TERM, "Seq b1", True),
            ("g", G_TERM_FLAT, "G b1", False),
            ("nested", LISTS_TERM, "List (List b1)", False),
        ],
    )
    def test_fresh_variable_hygiene(self, programs, key, term, spec, int_lits):
        p = run_pipeline(programs[key], term, spec, int_lits)
        seen: dict[g.FunVar, int] = {}
        for c in p.run.constraints:
            for side in (c.lhs, c.rhs):
                for v in g.funexpr.fun_vars(side):
                    if v in seen:
                        assert seen[v] == v.intro
                    else:
                        seen[v] = v.intro
        intros = sorted(v.intro for v in seen)
        assert len(set(intros)) == len(intros)

    def test_origin_matches_call_label(self, g_vp):
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        for t in p.run.traces:
            for c in t.emitted:
                assert c.origin.split(":")[0] == t.label

    def test_emitted_constraints_decompose(self, g_vp):
        # both sides of every emitted constraint are top-unifiable
        p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
        for c in p.run.constraints:
            g.decompose(c)

    def test_nested_programs_emit_variable_pairs_only(self, nested_vp):
        # with unrestricted constructors and shallow specifications, every
        # constraint decomposes into atomic pairs of distinct variables
        for term, spec in [
            (LISTS_TERM, "List b1"),
            ("pnode (pleaf ((1, 2), (3, 4)))", "PTree b1"),
            ("bcons 1 (bcons (bcons 2 bnil) bnil)", "Bush b1"),
        ]:
            p = run_pipeline(nested_vp, term, spec)
            for c in p.run.constraints:
                for atomic in g.decompose(c):
                    assert isinstance(atomic.lhs, g.FunVar)
                    assert isinstance(atomic.rhs, g.FunVar)

    def test_run_requires_frozen_typing(self, nested_vp):
        typed = g.infer(g.parse_term("nil", nested_vp), nested_vp)
        spec = g.parse_spec("List b1", nested_vp)
        with pytest.raises(g.InternalInvariantViolation):
            g.run(typed, spec)
