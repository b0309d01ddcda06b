"""Seeded request generators, with the expected result of every request
derived from the shape of the generated input.

Nothing here imports gadtmap: each generator builds the term text together
with its type, its node count and what the analysis must report for it (the
most general form, and where the shape fixes them, the number of calls and
constraints, the essential positions and the oracle's candidate count).
`check.py` compares the CLI's output against these expectations.

Types are tuples: ("Nat",), ("Bool",), ("*", a, b) for products and
(D, a) for a one-argument data type D (List, Seq, G).  Function forms are
tuples too: ("var", k), ("id", type), ("*", f, g) and ("map", D, (f,)).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

NAT = ("Nat",)
BOOL = ("Bool",)
DATA_TYPES = ("List", "Seq", "G")
PROPER = ("Seq", "G")  # proper GADTs: the oracle offers no maps over them

NESTED = "programs/nested.gadt"
G = "programs/g.gadt"
SEQLIST = "bench/seqlist.gadt"


def prod(a, b):
    return ("*", a, b)


def List(a):  # noqa: N802 - named after the data type it builds
    return ("List", a)


# ---------------------------------------------------------------------------
# Forms: expansion of identities, canonical renaming, first-order unification


def expand(f):
    """Fully expand identities at composite types (the `id` laws)."""
    if f[0] == "id":
        t = f[1]
        if t[0] == "*":
            return ("*", expand(("id", t[1])), expand(("id", t[2])))
        if t[0] == "+":
            return ("+", expand(("id", t[1])), expand(("id", t[2])))
        if t[0] in DATA_TYPES:
            return ("map", t[0], tuple(expand(("id", a)) for a in t[1:]))
        return f
    if f[0] in ("*", "+"):
        return (f[0], expand(f[1]), expand(f[2]))
    if f[0] == "map":
        return ("map", f[1], tuple(expand(a) for a in f[2]))
    return f


def canonical(forms: tuple) -> tuple:
    """Expand identities and rename variables to 1, 2, ... in order of first
    occurrence across the tuple, so that equal-up-to-renaming forms compare
    equal."""
    names: dict = {}

    def go(f):
        if f[0] == "var":
            return ("var", names.setdefault(f[1], len(names) + 1))
        if f[0] in ("*", "+"):
            return (f[0], go(f[1]), go(f[2]))
        if f[0] == "map":
            return ("map", f[1], tuple(go(a) for a in f[2]))
        return f

    return tuple(go(expand(f)) for f in forms)


def count_vars(forms: tuple) -> int:
    seen = set()

    def go(f):
        if f[0] == "var":
            seen.add(f[1])
        elif f[0] in ("*", "+"):
            go(f[1])
            go(f[2])
        elif f[0] == "map":
            for a in f[2]:
                go(a)

    for f in forms:
        go(f)
    return len(seen)


class Forms:
    """Fresh variables and a union-find substitution for one request."""

    def __init__(self) -> None:
        self.n = 0
        self.subst: dict[int, tuple] = {}

    def fresh(self):
        self.n += 1
        return ("var", self.n)

    def walk(self, f):
        while f[0] == "var" and f[1] in self.subst:
            f = self.subst[f[1]]
        return f

    def unify(self, a, b) -> None:
        a, b = self.walk(a), self.walk(b)
        if a == b:
            return
        if a[0] == "var":
            self.subst[a[1]] = b
            return
        if b[0] == "var":
            self.subst[b[1]] = a
            return
        a, b = expand(a), expand(b)
        if a[0] != b[0] or (a[0] == "map" and a[1] != b[1]) or a[0] == "id":
            if a != b:
                raise ValueError(f"forms do not unify: {a} / {b}")
            return
        if a[0] == "map":
            for x, y in zip(a[2], b[2]):
                self.unify(x, y)
        else:
            self.unify(a[1], b[1])
            self.unify(a[2], b[2])

    def resolve(self, f):
        f = self.walk(f)
        if f[0] in ("*", "+"):
            return (f[0], self.resolve(f[1]), self.resolve(f[2]))
        if f[0] == "map":
            return ("map", f[1], tuple(self.resolve(a) for a in f[2]))
        return f


def count_candidates(domain, depth: int) -> int:
    """How many candidate functions the oracle enumerates out of `domain`:
    an opaque function and the identity at every level, plus products at
    product types and maps at data types that are not proper GADTs, each
    costing one level of depth."""
    n = 2
    if depth >= 1:
        if domain[0] in ("*", "+"):
            n += count_candidates(domain[1], depth - 1) * count_candidates(domain[2], depth - 1)
        elif domain[0] in DATA_TYPES and domain[0] not in PROPER:
            k = 1
            for a in domain[1:]:
                k *= count_candidates(a, depth - 1)
            n += k
    return n


# ---------------------------------------------------------------------------
# Term text


@dataclass(frozen=True)
class T:
    """A generated term: surface text, whether it needs no parentheses as an
    argument, node count and type."""

    text: str
    atomic: bool
    nodes: int
    ty: tuple


def atom(t: T) -> str:
    return t.text if t.atomic else f"({t.text})"


def ctor(name: str, ty, *args: T) -> T:
    text = " ".join([name] + [atom(a) for a in args])
    return T(text, not args, 1 + sum(a.nodes for a in args), ty)


def pair(a: T, b: T) -> T:
    return T(f"({a.text}, {b.text})", True, 1 + a.nodes + b.nodes, prod(a.ty, b.ty))


def cons_list(elems: list[T], elem_ty) -> T:
    """A right-nested `cons` list, built without recursion."""
    if not elems:
        return T("nil", True, 1, List(elem_ty))
    text = "".join(f"cons {atom(e)} (" for e in elems[:-1])
    text += f"cons {atom(elems[-1])} nil" + ")" * (len(elems) - 1)
    return T(text, False, 2 * len(elems) + 1 + sum(e.nodes for e in elems), List(elem_ty))


def value(rng: random.Random, ty) -> T:
    """A random closed value of a ground type (incidental data)."""
    if ty == NAT:
        return T(str(rng.randint(0, 99)), True, 1, NAT)
    if ty == BOOL:
        return T(rng.choice(("tt", "false")), True, 1, BOOL)
    if ty[0] == "*":
        return pair(value(rng, ty[1]), value(rng, ty[2]))
    if ty[0] == "List":
        return cons_list([value(rng, ty[1]) for _ in range(2)], ty[1])
    raise ValueError(f"no values of type {ty}")


# ---------------------------------------------------------------------------
# Requests


@dataclass(frozen=True)
class Request:
    """One `gadtmap analyze` invocation and what its output must say."""

    program: str
    term: str
    spec: str
    flags: tuple[str, ...]
    nodes: int
    form: tuple  # canonical expected forms, one per specification-head argument
    calls: int | None = None
    constraints: int | None = None
    essential: frozenset | None = None  # JSON: the exact essential paths
    incidental: int | None = None  # text: number of bracketed incidental subterms
    checked: int | None = None  # --verify: candidate tuples the oracle must check

    def argv(self, root: str) -> list[str]:
        return ["analyze", f"{root}/{self.program}", "--term", self.term, "--spec", self.spec,
                *self.flags]

    @property
    def json(self) -> bool:
        return "--json" in self.flags


def _spine(prefix: tuple, n: int) -> set:
    """Paths of the n+1 spine nodes of a list rooted at `prefix`."""
    return {prefix + (1,) * k for k in range(n + 1)}


def flat_list(rng: random.Random, n: int, elem_ty, flags) -> Request:
    """An n-element list under `List b1`: one call and one constraint per
    spine node, elements incidental, form `f'1`."""
    t = cons_list([value(rng, elem_ty) for _ in range(n)], elem_ty)
    return Request(NESTED, t.text, "List b1", flags, t.nodes, canonical((("var", 1),)),
                   calls=n + 1, constraints=n + 1, essential=frozenset(_spine((), n)))


def list_of_lists(rng: random.Random, outer: int, total: int, deep: bool, flags,
                  elem_ty=NAT) -> Request:
    """`outer` inner lists holding `total` elements between them.  Under
    `List (List b1)` every inner spine is analysed too and the form is
    `List f'1`; under `List b1` the inner lists are incidental."""
    lengths = [1] * outer
    for _ in range(total - outer):
        lengths[rng.randrange(outer)] += 1
    inner = [cons_list([value(rng, elem_ty) for _ in range(k)], elem_ty) for k in lengths]
    t = cons_list(inner, List(elem_ty))
    essential = _spine((), outer)
    if deep:
        for i, k in enumerate(lengths):
            essential |= _spine((1,) * i + (0,), k)
        form = ("map", "List", (("var", 1),))
        spec = "List (List b1)"
    else:
        form = ("var", 1)
        spec = "List b1"
    n_calls = len(essential)
    return Request(NESTED, t.text, spec, flags, t.nodes, canonical((form,)),
                   calls=n_calls, constraints=n_calls, essential=frozenset(essential))


def seq_tree(rng: random.Random, forms: Forms, leaves: list) -> tuple[T, tuple]:
    """A balanced `pair` tree over `const` leaves of the given payload types,
    and its form under `Seq b`: a product tree of fresh variables mirroring
    the pair tree."""
    if len(leaves) == 1:
        v = value(rng, leaves[0])
        return ctor("const", ("Seq", v.ty), v), forms.fresh()
    mid = (len(leaves) + 1) // 2
    l, fl = seq_tree(rng, forms, leaves[:mid])
    r, fr = seq_tree(rng, forms, leaves[mid:])
    return ctor("pair", ("Seq", prod(l.ty[1], r.ty[1])), l, r), ("*", fl, fr)


PAYLOADS = (NAT, BOOL, prod(NAT, BOOL), List(NAT), prod(List(NAT), NAT))


def seq_request(rng: random.Random, leaves: list, deep: bool, flags,
                verify_depth: int | None = None) -> Request:
    """A balanced pair tree over `const` leaves with payloads of the given
    types, under `Seq b1` or wrapped in `const` under `Seq (Seq b1)`.  Each
    pair call emits a defining and an input constraint, each leaf an input
    constraint; payloads are incidental."""
    forms = Forms()
    n_leaves = len(leaves)
    t, form = seq_tree(rng, forms, leaves)
    calls, constraints = 2 * n_leaves - 1, 3 * n_leaves - 2
    spec = "Seq b1"
    if deep:
        t = ctor("const", ("Seq", t.ty), t)
        form = ("map", "Seq", (form,))
        calls, constraints, spec = calls + 1, constraints + 1, "Seq (Seq b1)"
    return _finish(SEQLIST, t, spec, flags, forms, form, calls, constraints, n_leaves,
                   verify_depth)


def _finish(program, t: T, spec, flags, forms: Forms, form, calls, constraints, incidental,
            verify_depth) -> Request:
    checked = None
    if verify_depth is not None:
        # one-argument head: the single candidate pool ranges over the index
        checked = count_candidates(t.ty[1], verify_depth)
        flags = (*flags, "--verify", f"depth={verify_depth}")
    return Request(program, t.text, spec, tuple(flags), t.nodes,
                   canonical((forms.resolve(form),)), calls=calls, constraints=constraints,
                   incidental=incidental if "--annotate" in flags else None, checked=checked)


# ---------------------------------------------------------------------------
# G terms: proper-GADT constructors that feed each other


@dataclass(frozen=True)
class GTerm:
    t: T
    form: tuple  # the most general form of the function over the index
    calls: int
    incidental: int


# The derivation rules: each builds a G term from its parts together with its
# form under `G b`, its number of analysis calls and of incidental subterms.


def g_const() -> GTerm:
    """`const : G Nat` forces the identity at Nat."""
    return GTerm(ctor("const", ("G", NAT)), ("id", NAT), 1, 0)


def g_inj(forms: Forms, v: T) -> GTerm:
    """`inj v` leaves its index free; v is incidental."""
    return GTerm(ctor("inj", ("G", v.ty), v), forms.fresh(), 1, 1)


def g_pairing(a: GTerm, b: GTerm) -> GTerm:
    """`pairing a b`: the product of the two forms."""
    ty = ("G", prod(a.t.ty[1], b.t.ty[1]))
    return GTerm(ctor("pairing", ty, a.t, b.t), ("*", a.form, b.form),
                 1 + a.calls + b.calls, a.incidental + b.incidental)


def q_pairing(forms: Forms, a: GTerm, b: GTerm) -> GTerm:
    """The second half of a `projpair`, analysed under `G (b * b)`: both
    components describe the same b, so their forms unify."""
    forms.unify(a.form, b.form)
    return replace(g_pairing(a, b), form=a.form)


def q_inj(forms: Forms, v: T) -> GTerm:
    """`inj (v1, v2)` under `G (b * b)`: the pair is analysed under b * b, so
    it is a call of its own and both halves are incidental."""
    return GTerm(ctor("inj", ("G", v.ty), v), forms.fresh(), 2, 2)


def g_projpair(p: GTerm, q: GTerm) -> GTerm:
    """`projpair (inj (p, q))`: form(p) times the common form of q's halves;
    projpair, inj and the pair are one call each."""
    a, bb = p.t.ty[1], q.t.ty[1]
    inner = ctor("inj", ("G", prod(p.t.ty, q.t.ty)), pair(p.t, q.t))
    return GTerm(ctor("projpair", ("G", prod(a, bb[1])), inner), ("*", p.form, q.form),
                 3 + p.calls + q.calls, p.incidental + q.incidental)


def g_flat(forms: Forms, elems: list[GTerm]) -> GTerm:
    """`flat [t..]`: List over the common form of the elements; the list
    spine is analysed under `List (G b)`, one call per node."""
    for e in elems[1:]:
        forms.unify(elems[0].form, e.form)
    elem_ty = elems[0].t.ty
    lst = cons_list([e.t for e in elems], elem_ty)
    return GTerm(ctor("flat", ("G", List(elem_ty[1])), lst), ("map", "List", (elems[0].form,)),
                 2 + len(elems) + sum(e.calls for e in elems),
                 sum(e.incidental for e in elems))


def gen_g(rng: random.Random, forms: Forms, ty, budget: int) -> GTerm:
    """A random term of type `G ty`, built by the derivation rules above."""
    choices = ["inj"]
    if ty == NAT:
        choices.append("const")
    if budget > 0 and ty[0] == "*":
        choices += ["pairing"] * 3 + ["projpair"] * 2
    if budget > 0 and ty[0] == "List":
        choices += ["flat"] * 3
    kind = rng.choice(choices)
    if kind == "const":
        return g_const()
    if kind == "inj":
        return g_inj(forms, value(rng, ty))
    if kind == "pairing":
        return g_pairing(gen_g(rng, forms, ty[1], budget - 1), gen_g(rng, forms, ty[2], budget - 1))
    if kind == "projpair":
        p = gen_g(rng, forms, ty[1], budget - 1)
        half = ty[2]
        if rng.random() < 0.7:
            q = q_pairing(forms, gen_g(rng, forms, half, budget - 1),
                          gen_g(rng, forms, half, budget - 1))
        else:
            q = q_inj(forms, pair(value(rng, half), value(rng, half)))
        return g_projpair(p, q)
    return g_flat(forms, [gen_g(rng, forms, ty[1], budget - 1)
                          for _ in range(rng.randint(1, 3))])


def random_type(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return NAT if rng.random() < 0.75 else BOOL
    if r < 0.85:
        return prod(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return List(random_type(rng, depth - 1))


def balanced(types: list):
    """The balanced product of a list of types."""
    if len(types) == 1:
        return types[0]
    mid = (len(types) + 1) // 2
    return prod(balanced(types[:mid]), balanced(types[mid:]))


def g_request(rng: random.Random, make_type, size, lo: int, hi: int, flags,
              verify_depth: int | None = None) -> Request:
    """A `G b1` request at a type drawn by `make_type`, with lo <= size(term)
    <= hi."""
    while True:
        forms = Forms()
        g = gen_g(rng, forms, make_type(), 8)
        if lo <= size(g) <= hi:
            return _finish(G, g.t, "G b1", flags, forms, g.form, g.calls, None, g.incidental,
                           verify_depth)


# ---------------------------------------------------------------------------
# Workloads


# Sizes are spread evenly over each range, so that no percentile of a
# workload sits on a gap between two size classes.


def lists_deep(rng: random.Random) -> list[Request]:
    """Right-nested lists, rendered with --json.  Term depth grows with
    size; every size stays within the deepest list the seed analyses."""
    flags = ("--json",)
    out = []
    for n in range(20, 201, 20):
        out.append(flat_list(rng, n, NAT, flags))
        out.append(flat_list(rng, n, prod(NAT, BOOL), flags))
    for outer in range(8, 41, 8):
        out.append(list_of_lists(rng, outer, 4 * outer, True, flags))
    out.append(list_of_lists(rng, 40, 160, False, flags))
    return out


def gadt_wide(rng: random.Random) -> list[Request]:
    """Balanced pair trees and G terms, rendered as text with --trace
    --annotate: shallow terms, many product-shaped matching problems."""
    flags = ("--trace", "--annotate")
    out = []
    for n, deep in [(n, False) for n in range(8, 65, 8)] + [(n, True) for n in (8, 24, 40)]:
        leaves = [rng.choice(PAYLOADS) for _ in range(n)]
        out.append(seq_request(rng, leaves, deep, flags))
    for calls in range(8, 49, 4):
        out.append(g_request(rng, lambda: balanced([random_type(rng, 2)
                                                    for _ in range(calls // 4)]),
                             lambda g: g.calls, calls, calls + 3, flags))
    return out


def oracle_verify(rng: random.Random) -> list[Request]:
    """Small terms with --json --verify: the oracle dominates.  Every domain
    mentions List, so maps are among the candidates."""
    flags = ("--json",)
    out = []
    ln, nb, nn = List(NAT), prod(NAT, BOOL), prod(NAT, NAT)
    verify = (*flags, "--verify", "depth=3")
    # Seq over payloads that include lists (bench/seqlist.gadt); candidate
    # tuples per request in the comments
    for leaves, depth in (([nb, ln, nb], 3),  # 158
                          ([ln, ln, nb], 3),  # 110
                          ([ln, nb, ln], 3),  # 106
                          ([nb, ln, NAT], 3),  # 54
                          ([ln, NAT, ln], 3),  # 42
                          ([NAT, BOOL, ln, NAT], 2)):  # 38
        out.append(seq_request(rng, leaves, False, flags, verify_depth=depth))
    # G, at node counts just above the bare `inj v` of each type
    for ty, lo in ((prod(prod(nb, nb), ln), 18),  # 154
                   (prod(prod(NAT, ln), prod(ln, NAT)), 21),  # 102
                   (prod(prod(nn, NAT), nb), 16),  # 86
                   (prod(prod(ln, ln), ln), 25),  # 74
                   (prod(prod(NAT, ln), nn), 16),  # 62
                   (prod(List(nb), ln), 21)):  # 34
        out.append(g_request(rng, lambda: ty, lambda g: g.t.nodes, lo, lo + 4, flags,
                             verify_depth=3))
    # nested: a list of tuples holding lists (106), a list of lists (28)
    elem = prod(prod(ln, nb), ln)
    r = flat_list(rng, 3, elem, verify)
    out.append(replace(r, checked=count_candidates(elem, 3)))
    r = list_of_lists(rng, 2, 3, True, verify, elem_ty=prod(ln, nb))
    out.append(replace(r, checked=count_candidates(List(prod(ln, nb)), 3)))
    return out


# Rounds per workload: each round draws fresh content for the same slots, so
# that the latency percentiles rest on many inputs of each kind.
ROUNDS = {lists_deep: 2, gadt_wide: 6, oracle_verify: 6}


def _workload(make_round):
    def generate(seed: int) -> list[Request]:
        rng = random.Random(seed)
        return [r for _ in range(ROUNDS[make_round]) for r in make_round(rng)]

    generate.__doc__ = make_round.__doc__
    return generate


WORKLOADS = {
    "lists-deep": _workload(lists_deep),
    "gadt-wide": _workload(gadt_wide),
    "oracle-verify": _workload(oracle_verify),
}

PROBE_LADDER = (100, 200, 400, 800, 1600)


def probe_request(n: int) -> Request:
    """The `max_list_len` rung: an n-element Nat list under `List b1`."""
    return flat_list(random.Random(n), n, NAT, ("--json",))
