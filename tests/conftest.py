"""Shared fixtures: programs, the analysis corpus, and pipeline helpers."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

import gadtmap as g

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"

SEQ_SRC = (PROGRAMS_DIR / "seq.gadt").read_text()
G_SRC = (PROGRAMS_DIR / "g.gadt").read_text()
NESTED_SRC = (PROGRAMS_DIR / "nested.gadt").read_text()


@pytest.fixture(scope="session")
def seq_vp() -> g.ValidatedProgram:
    return g.validate(g.parse_program(SEQ_SRC))


@pytest.fixture(scope="session")
def g_vp() -> g.ValidatedProgram:
    return g.validate(g.parse_program(G_SRC))


@pytest.fixture(scope="session")
def nested_vp() -> g.ValidatedProgram:
    return g.validate(g.parse_program(NESTED_SRC))


def run_pipeline(vp, term_text, spec_text, int_literals=False) -> g.AnalysisReport:
    term = g.parse_term(term_text, vp)
    report = g.analyze(vp, term, g.parse_spec(spec_text, vp), int_literals)
    assert report.status == "Mappable", report.detail
    return report


def constraint_shape(c: g.Constraint) -> str:
    """Render a constraint with its variables canonically renamed, for
    comparing constraint multisets up to variable renaming."""
    lhs, rhs = g.canonical_rename((c.lhs, c.rhs))
    return g.pretty(g.Constraint(lhs, rhs))


# The worked examples: (program source key, term, spec, int_literals).
SEQ_TERM = "pair (pair (const tt) (const 2)) (const 5)"
G_TERM_INJ = "projpair (inj (inj (cons 2 nil), pairing (inj 2) const))"
G_TERM_FLAT = "projpair (inj (flat (cons const nil), pairing (inj 2) const))"
LISTS_TERM = "cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)"
ROSE_TERM = "rnode 1 (cons (rnode 2 (cons rnil nil)) nil)"

CORPUS = [
    ("seq", SEQ_TERM, "Seq b1", True),
    ("g", G_TERM_INJ, "G b1", False),
    ("g", G_TERM_FLAT, "G b1", False),
    ("nested", LISTS_TERM, "List b1", False),
    ("nested", LISTS_TERM, "List (List b1)", False),
    ("nested", ROSE_TERM, "Rose b1", False),
    ("nested", "nil", "List b1", False),
    ("nested", "nil", "List (List b1)", False),
    ("nested", "cons 1 nil", "List Nat", False),
    ("nested", "pnode (pleaf ((1, 2), (3, 4)))", "PTree b1", False),
    ("nested", "bcons 1 (bcons (bcons 2 bnil) bnil)", "Bush b1", False),
    ("nested", "(cons 1 nil, pleaf tt)", "List b1 * PTree b2", False),
    ("nested", "inl (cons 1 nil)", "List b1 + b2", False),
    ("seq", "const (pair (const 1) (const 2))", "Seq (Seq b1)", False),
]

PROGRAM_SOURCES = {"seq": SEQ_SRC, "g": G_SRC, "nested": NESTED_SRC}


@pytest.fixture(scope="session")
def programs(seq_vp, g_vp, nested_vp) -> dict[str, g.ValidatedProgram]:
    return {"seq": seq_vp, "g": g_vp, "nested": nested_vp}


# ---------------------------------------------------------------------------
# Random closed terms of nested types (used by the no-constraints property)


def _base_ctors(decl: g.GadtDecl) -> list[g.ConstructorSig]:
    def has_app(t) -> bool:
        if isinstance(t, g.App):
            return True
        return any(has_app(c) for c in g.syntax.type_children(t))

    return [sig for sig in decl.ctors if not any(has_app(a) for a in sig.arg_types)]


def gen_value(rng: random.Random, ty, vp: g.ValidatedProgram, budget: int) -> g.Term:
    """A random closed term of the given ground type, depth-bounded."""
    if isinstance(ty, g.Base):
        if ty.name in ("Nat", "Int"):
            return g.Lit(str(rng.randint(0, 9)))
        if ty.name == "Bool":
            return g.Lit(rng.choice(["tt", "false"]), "Bool")
        return g.Lit("unit", "Unit")
    if isinstance(ty, g.Prod):
        return g.Pair(
            gen_value(rng, ty.left, vp, budget), gen_value(rng, ty.right, vp, budget)
        )
    if isinstance(ty, g.Sum):
        if rng.random() < 0.5:
            return g.Inl(gen_value(rng, ty.left, vp, budget))
        return g.Inr(gen_value(rng, ty.right, vp, budget))
    if isinstance(ty, g.App):
        decl = vp.program.decl(ty.ctor)
        assert decl is not None
        pool = _base_ctors(decl) if budget <= 0 else list(decl.ctors)
        sig = rng.choice(pool)
        assert not g.is_restricted(sig, decl.arity), "generator only covers nested types"
        inst = dict(zip(sig.type_vars, ty.args))
        return g.Ctor(
            sig.name,
            tuple(
                gen_value(rng, g.syntax.subst_type(a, inst), vp, budget - 1)
                for a in sig.arg_types
            ),
        )
    raise AssertionError(f"cannot generate a value of type {ty}")
