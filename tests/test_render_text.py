"""`cli.render_report` cuts the call subterms and the annotated term from
one rendering of the term, and takes each call's specification and
matching left sides from its parent's R and zeta texts. Its text must be
exactly what the renderer it replaced wrote; `reference` below is that
renderer, rendering every subterm and type where it is printed."""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import gadtmap as g
from gadtmap import cli, oracle
from gadtmap.funexpr import Constraint, FunVar, Id, Opaque, fun_vars
from gadtmap.pretty import pretty_constraint, pretty_fun, pretty_term, pretty_type

from conftest import CORPUS, PROGRAMS_DIR
from test_golden import CASES as GOLDEN_CASES
from test_syntax import _reference_annotated_loop

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_RENDER = cli.render_report  # the renderer itself, where `captured` patches the CLI's


# ---------------------------------------------------------------------------
# The reference: every text rendered where it is printed


def reference(report: g.AnalysisReport, trace: bool = False, annotate: bool = False) -> str:
    lines = [f"status: {report.status}"]
    if report.detail:
        lines.append(f"detail: {report.detail}")
    run = report.run
    if report.form is not None and run is not None:
        lines.append("form: " + ", ".join(pretty_fun(f) for f in report.form))
        free = list(dict.fromkeys(v.display for f in report.form for v in fun_vars(f)))
        lines.append("free variables: " + (", ".join(free) if free else "(none)"))
        lines.append(f"constraints ({len(run.constraints)}):")
        for c in run.constraints:
            lines.append(f"  {c.origin:<10} {pretty_constraint(c)}")
        if annotate:
            annotated = _reference_annotated_loop(run.annotation.term, run.annotation.heads)
            lines.append("essential structure: " + annotated)
        if trace:
            lines.append("calls:")
            for t in run.traces:
                lines.append(
                    f"  call {t.label}: {pretty_term(t.term)}"
                    f"  |  funs: {', '.join(pretty_fun(f) for f in t.funs)}"
                    f"  |  spec: {pretty_type(t.spec)}"
                )
                if t.matching:
                    probs = "; ".join(
                        f"{pretty_type(l)} == {pretty_type(r)}" for l, r in t.matching
                    )
                    lines.append(f"    matching: {probs}")
                if t.taus:
                    lines.append("    tau: " + ", ".join(pretty_type(x) for x in t.taus))
                if t.rjs:
                    lines.append("    R: " + ", ".join(pretty_type(x) for x in t.rjs))
                if any(z is not None for z in t.zetas):
                    zs = ", ".join(
                        "-" if z is None else "[" + ", ".join(pretty_type(x) for x in z) + "]"
                        for z in t.zetas
                    )
                    lines.append(f"    zeta: {zs}")
                if t.emitted:
                    lines.append(
                        "    emitted: " + " ; ".join(pretty_constraint(c) for c in t.emitted)
                    )
    if report.verify is not None:
        verdict = "agrees" if report.verify.agrees else "DISAGREES"
        lines.append(
            f"verify (depth {report.verify_depth}): {verdict} "
            f"on {report.verify.checked} candidate tuple(s)"
        )
        for d in report.verify.disagreements:
            cands = ", ".join(pretty_fun(c) for c in d.candidates)
            lines.append(f"  disagreement: {cands}  mappable={d.mappable} instance={d.instance}")
    return "\n".join(lines)


FLAGS = {
    "plain": (False, False),
    "trace": (True, False),
    "annotate": (False, True),
    "both": (True, True),
}


def assert_matches_reference(report: g.AnalysisReport) -> None:
    for trace, annotate in FLAGS.values():
        assert _RENDER(report, trace, annotate) == reference(report, trace, annotate)


# ---------------------------------------------------------------------------
# Reports the CLI makes


@pytest.fixture()
def captured(monkeypatch):
    """Every report `cli.main` hands to either writer."""
    seen = []
    write = cli.report_to_json

    def record_text(report, *args, **kwargs):
        seen.append(report)
        return _RENDER(report, *args, **kwargs)

    def record_json(report):
        seen.append(report)
        return write(report)

    monkeypatch.setattr(cli, "render_report", record_text)
    monkeypatch.setattr(cli, "report_to_json", record_json)
    return seen


def _analyze(captured, argv: list[str]) -> tuple[g.AnalysisReport, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    (report,) = captured
    captured.clear()
    return report, out.getvalue()


@pytest.mark.parametrize("verify", [(), ("--verify", "depth=2")], ids=["plain", "verify"])
@pytest.mark.parametrize("flags", FLAGS)
@pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
def test_corpus_equals_reference(key, term, spec, int_lits, flags, verify, captured):
    trace, annotate = FLAGS[flags]
    argv = ["analyze", str(PROGRAMS_DIR / f"{key}.gadt"), "--term", term, "--spec", spec]
    argv += ["--int-literals"] * int_lits + ["--trace"] * trace + ["--annotate"] * annotate
    report, out = _analyze(captured, [*argv, *verify])
    assert out == reference(report, trace, annotate) + "\n"


GOLDEN_TEXT = {name: argv for name, argv, _ in GOLDEN_CASES if name.endswith(".txt")}


@pytest.mark.parametrize("name", GOLDEN_TEXT)
def test_golden_equals_reference(name, captured):
    argv = GOLDEN_TEXT[name]
    report, out = _analyze(captured, argv)
    expected = reference(report, "--trace" in argv, "--annotate" in argv)
    assert out == expected + "\n"
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_requests_equal_reference(seed, captured):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    checked = 0
    for generate in WORKLOADS.values():
        for req in generate(seed):
            report, _ = _analyze(captured, req.argv(str(ROOT)))
            text = _RENDER(report, trace=True, annotate=True)
            assert text == reference(report, trace=True, annotate=True), req.argv(".")
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Hand-built reports


@pytest.mark.parametrize("status", ["SpecMismatch", "IllTyped"])
def test_rejections_equal_reference(status):
    report = g.AnalysisReport(status, detail="term of type List ?m0 does not match Seq b1")
    assert_matches_reference(report)
    assert _RENDER(report, True, True) == f"status: {status}\ndetail: {report.detail}"


def test_disagreements_equal_reference(nested_vp, monkeypatch):
    # Wrong on every tuple with an opaque candidate; the identity tuple has none.
    mappable = oracle.mappable
    monkeypatch.setattr(
        oracle, "mappable",
        lambda combo, *rest: mappable(combo, *rest) ^ any(isinstance(c, Opaque) for c in combo),
    )
    term = g.parse_term("cons 1 (cons 2 nil)", nested_vp)
    report = g.analyze(nested_vp, term, g.parse_spec("List b1", nested_vp), verify_depth=2)
    assert not report.verify.agrees and report.verify.disagreements
    assert_matches_reference(report)
    assert "  disagreement: " in _RENDER(report)


NULLARY_SRC = """
data Z : Set where
  z : Z ;
  s : Z -> Z

data Box : Set -> Set where
  box : forall a. a -> Z -> Box a
"""


def test_nullary_data_type_equals_reference():
    # A data type of arity 0: its calls match nothing, so print no
    # `matching:` line, and no `tau:` line either.
    vp = g.validate(g.parse_program(NULLARY_SRC))
    report = g.analyze(vp, g.parse_term("s (s z)", vp), g.parse_spec("Z", vp), verify_depth=2)
    assert report.status == "Mappable", report.detail
    assert_matches_reference(report)
    text = _RENDER(report, trace=True)
    assert "matching:" not in text and "  call 1: s (s z)" in text
    report = g.analyze(vp, g.parse_term("box 1 (s z)", vp), g.parse_spec("Box b1", vp))
    assert report.status == "Mappable", report.detail
    assert_matches_reference(report)


@pytest.mark.parametrize(
    "term,spec,line",
    [
        ("(cons 1 nil, pleaf tt)", "List b1 * PTree b2", "  call 1: (cons 1 nil, pleaf tt)"),
        ("inl (cons 1 nil)", "List b1 + b2", "  call 1.1: cons 1 nil"),
        ("inr (cons 1 nil, nil)", "b1 + List b2 * List b3", "  call 1.2.2: nil"),
        ("cons (1, nil) (cons (2, nil) nil)", "List (b1 * List b2)",
         "    zeta: [b1, List b2], [b1 * List b2]"),
        ("cons (cons 1 nil) nil", "List (List b1)", "    zeta: -, [b1]"),
    ],
    ids=["pair", "inl", "inr-pair", "zeta-pair", "zeta-none"],
)
def test_pair_injection_and_zeta_calls_equal_reference(nested_vp, term, spec, line):
    report = g.analyze(nested_vp, g.parse_term(term, nested_vp), g.parse_spec(spec, nested_vp))
    assert report.status == "Mappable", report.detail
    assert_matches_reference(report)
    text = _RENDER(report, trace=True)
    assert any(ln.startswith(line) for ln in text.splitlines()), text


def test_hand_built_traces_equal_reference():
    # A child call whose specification is not its parent's R entry, an
    # empty zeta, a `-` zeta, and constraints without a call.
    nat, b = g.Base("Nat"), g.Var("b1")
    v = FunVar("f", None, 1)
    first, second = g.Lit("0"), g.Lit("1")
    term = g.Pair(first, second)
    call = g.Call(None, 1)
    root = g.CallTrace(call, term, (), nat, (), zetas=(None, (), (nat,)))
    child = g.CallTrace(
        g.Call(call, 1), first, (v,), g.App("List", (b,)),
        (Constraint(v, Id(nat), "i", call), Constraint(v, v, 'by "hand"')),
        matching=((b, nat),), taus=(nat,), rjs=(g.App("List", (b,)),), zetas=(None,),
    )
    run = g.RunResult(
        list(root.emitted + child.emitted), [root, child],
        g.AnnotatedTerm(term, frozenset({id(term), id(first)})), (v,),
    )
    report = g.AnalysisReport("Mappable", form=(v,), run=run)
    assert_matches_reference(report)
    text = _RENDER(report, trace=True, annotate=True)
    assert "essential structure: (0, [1])" in text and "    zeta: -, [], [Nat]" in text
