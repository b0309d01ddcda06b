"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the pass lines
inline). Expected values are the worked examples' published results; trace
comparisons are up to variable and call-label renaming, via canonical
constraint shapes.
"""
from __future__ import annotations

import json
import random
import time
from collections import Counter

import gadtmap as g
from gadtmap.cli import main
from gadtmap.syntax import App, Base, Prod

from conftest import (
    CORPUS,
    G_TERM_FLAT,
    G_TERM_INJ,
    LISTS_TERM,
    PROGRAM_SOURCES,
    ROSE_TERM,
    SEQ_TERM,
    constraint_shape,
    gen_value,
    run_pipeline,
)


def passline(n: int, message: str) -> None:
    print(f"ACCEPTANCE PASS [{n}]: {message}")


def shapes(p) -> Counter:
    return Counter(constraint_shape(c) for c in p.run.constraints)


def free_var_count(form) -> int:
    seen = set()
    for f in form:
        seen.update(g.funexpr.fun_vars(f))
    return len(seen)


def test_criterion_1_paired_sequences(seq_vp):
    start = time.perf_counter()
    p = run_pipeline(seq_vp, SEQ_TERM, "Seq b1", int_literals=True)
    elapsed = time.perf_counter() - start
    assert [g.pretty(f) for f in p.form] == ["(f'1 * f'2) * f'3"]
    assert free_var_count(p.form) == 3
    assert len(p.run.traces) == 5
    assert len(p.run.constraints) == 7
    assert shapes(p) == Counter({"<f'1, f'2>": 5, "<f'1 * f'2, f'3>": 2})
    assert elapsed < 1.0
    passline(1, f"(f'1 * f'2) * f'3 from 5 calls / 7 constraints in {elapsed:.4f}s")


def test_criterion_2_feedback_term(g_vp):
    p = run_pipeline(g_vp, G_TERM_INJ, "G b1")
    assert [g.pretty(f) for f in p.form] == ["f'1 * id@Nat"]
    assert free_var_count(p.form) == 1
    expected = Counter(
        {
            "<f'1, f'2>": 4,
            "<f'1 * f'2, f'3>": 1,
            "<G f'1 * G (f'2 * f'2), G f'3 * G (f'4 * f'4)>": 1,
            "<G f'1, G f'2>": 1,
            "<G (f'1 * f'1), G (f'2 * f'2)>": 1,
            "<f'1 * f'1, f'2 * f'2>": 1,
            "<id@Nat, f'1>": 1,
        }
    )
    assert shapes(p) == expected
    const_calls = [
        t for t in p.run.traces if t.term == g.Ctor("const", ())
    ]
    assert len(const_calls) == 1
    assert any(c.lhs == g.Id(Base("Nat")) for c in const_calls[0].emitted)
    passline(2, "f'1 * id@Nat with the identity constraint at the const call")


def test_criterion_3_flattened_term(g_vp):
    p = run_pipeline(g_vp, G_TERM_FLAT, "G b1")
    assert [g.pretty(f) for f in p.form] == ["List (id@Nat) * id@Nat"]
    assert free_var_count(p.form) == 0
    passline(3, "List (id@Nat) * id@Nat with zero free variables")


def test_criterion_4_list_shallow(nested_vp):
    p = run_pipeline(nested_vp, LISTS_TERM, "List b1")
    assert [g.pretty(f) for f in p.form] == ["f'1"]
    assert free_var_count(p.form) == 1
    assert all(isinstance(v, g.FunVar) for v in p.solved.bindings.values())
    passline(4, "a single unconstrained variable for the shallow list spec")


def test_criterion_5_list_deep(nested_vp):
    p = run_pipeline(nested_vp, LISTS_TERM, "List (List b1)")
    assert [g.pretty(f) for f in p.form] == ["List f'1"]
    assert free_var_count(p.form) == 1
    passline(5, "List f'1 for the deep list spec")


ESSENTIAL_EXPECTED = {
    # every constructor; the literals stay incidental
    (("seq", SEQ_TERM, "Seq b1", True)): {(), (0,), (0, 0), (0, 1), (1,)},
    # cons 2 nil and the literal under the innermost inj are incidental
    (("g", G_TERM_INJ, "G b1", False)): {
        (),
        (0,),
        (0, 0),
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
    },
    # everything but the literal 2 is essential
    (("g", G_TERM_FLAT, "G b1", False)): {
        (),
        (0,),
        (0, 0),
        (0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
    },
    # only the spine of the outer list
    (("nested", LISTS_TERM, "List b1", False)): {(), (1,), (1, 1)},
    # the full list-of-lists skeleton
    (("nested", LISTS_TERM, "List (List b1)", False)): {
        (),
        (0,),
        (0, 1),
        (0, 1, 1),
        (1,),
        (1, 0),
        (1, 0, 1),
        (1, 1),
    },
}


def test_criterion_6_essential_structure(programs):
    for (key, term, spec, int_lits), expected in ESSENTIAL_EXPECTED.items():
        p = run_pipeline(programs[key], term, spec, int_lits)
        assert p.run.annotation.essential == frozenset(expected), (term, spec)
    # the second worked example in detail: `cons 2 nil` is entirely
    # incidental while every G-constructor is essential
    p = run_pipeline(programs["g"], G_TERM_INJ, "G b1")
    ess = p.run.annotation.essential
    g_ctor_paths = {
        path
        for path in _all_paths(p.typed.term)
        if isinstance(g.syntax.subterm_at(p.typed.term, path), g.Ctor)
        and g.syntax.subterm_at(p.typed.term, path).name
        in ("const", "flat", "inj", "pairing", "projpair")
    }
    assert g_ctor_paths <= ess
    cons_subtree = {p_ for p_ in _all_paths(p.typed.term) if p_[: len((0, 0, 0, 0))] == (0, 0, 0, 0)}
    assert not (cons_subtree & ess)
    passline(6, "essential structure matches the published figures for all five examples")


def _all_paths(term, path=()):
    yield path
    for i, c in enumerate(g.syntax.term_children(term)):
        yield from _all_paths(c, path + (i,))


def test_criterion_7_no_constraints_for_nested_types(nested_vp):
    start = time.perf_counter()
    rng = random.Random(20260810)
    element_types = [Base("Nat"), Base("Bool"), Prod(Base("Nat"), Base("Bool"))]
    count = 0
    for decl_name in ("List", "PTree", "Bush", "Rose"):
        for i in range(50):
            elem = element_types[i % len(element_types)]
            ty = App(decl_name, (elem,))
            term = gen_value(rng, ty, nested_vp, budget=5)
            report = g.analyze(nested_vp, term, g.parse_spec(f"{decl_name} b1", nested_vp))
            assert report.status == "Mappable", report.detail
            form, solved = report.form, report.solved
            assert len(form) == 1 and isinstance(form[0], g.FunVar), g.pretty(term)
            assert all(
                isinstance(v, g.FunVar) for v in solved.bindings.values()
            ), g.pretty(term)
            for root in report.run.root_funs:
                assert root in solved.bindings
            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert elapsed < 30.0
    passline(7, f"{count} random nested-type terms solved to pure variable chains in {elapsed:.2f}s")


def test_criterion_8_oracle_agreement(programs, tmp_path, capsys):
    start = time.perf_counter()
    total = 0
    for key, term, spec, int_lits in CORPUS:
        p = run_pipeline(programs[key], term, spec, int_lits)
        report = g.agrees(p.form, p.typed, p.spec, 3)
        assert report.agrees, (term, spec, report.disagreements)
        total += report.checked
        # and through the command-line surface
        path = tmp_path / f"{key}.gadt"
        path.write_text(PROGRAM_SOURCES[key])
        argv = ["analyze", str(path), "--term", term, "--spec", spec,
                "--verify", "depth=3", "--json"]
        if int_lits:
            argv.append("--int-literals")
        assert main(argv) == 0, (term, spec)
        data = json.loads(capsys.readouterr().out)
        assert data["verify"]["agrees"] is True
        assert data["verify"]["depth"] == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passline(8, f"oracle agreement on {total} candidate tuples across {len(CORPUS)} corpus pairs in {elapsed:.2f}s")


def test_criterion_9_json_determinism(programs, tmp_path, capsys):
    for key, term, spec, int_lits in CORPUS:
        path = tmp_path / f"{key}.gadt"
        path.write_text(PROGRAM_SOURCES[key])
        argv = ["analyze", str(path), "--term", term, "--spec", spec, "--json"]
        if int_lits:
            argv.append("--int-literals")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, (term, spec)
        json.loads(first)  # well-formed JSON
    passline(9, "repeated --json runs are byte-identical on the whole corpus")


def test_criterion_10_rose_trees(nested_vp):
    p = run_pipeline(nested_vp, ROSE_TERM, "Rose b1")
    assert len(p.form) == 1 and isinstance(p.form[0], g.FunVar)
    report = g.agrees(p.form, p.typed, p.spec, 2)
    assert report.agrees, report.disagreements
    passline(10, "definitionally deep rose trees impose no constraints (verified at depth 2)")
