"""`cli.report_to_json` writes the analysis report's JSON text straight from
the traces. Its bytes must be exactly what `json.dumps(value, indent=2)`
writes for the report built as dicts, which the reference builders below
do, as the CLI did before it wrote the text directly."""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import gadtmap as g
from gadtmap import cli, oracle
from gadtmap.funexpr import Constraint, FunExpr, FunVar, Id, Lift, Opaque, ProdF, SumF, fun_vars
from gadtmap.pretty import pretty_subterms, pretty_type

from conftest import CORPUS, PROGRAMS_DIR
from test_golden import CASES as GOLDEN_CASES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_WRITE = cli.report_to_json  # the writer itself, where `captured` patches the CLI's


# ---------------------------------------------------------------------------
# The reference: the report as dicts


def fun_to_json(e: FunExpr) -> dict:
    if isinstance(e, FunVar):
        return {"t": "var", "name": e.display}
    if isinstance(e, Id):
        return {"t": "id", "at": pretty_type(e.at)}
    if isinstance(e, (ProdF, SumF)):
        tag = "prod" if isinstance(e, ProdF) else "sum"
        return {"t": tag, "left": fun_to_json(e.left), "right": fun_to_json(e.right)}
    if isinstance(e, Lift):
        return {"t": "map", "ctor": e.ctor, "args": [fun_to_json(a) for a in e.args]}
    if isinstance(e, Opaque):
        return {
            "t": "fun",
            "domain": pretty_type(e.domain),
            "codomain": pretty_type(e.codomain),
        }
    raise TypeError(f"not a function expression: {e!r}")


def _constraint_json(c: Constraint) -> dict:
    return {"lhs": fun_to_json(c.lhs), "rhs": fun_to_json(c.rhs), "origin": c.origin}


def reference(report: g.AnalysisReport) -> dict:
    out: dict = {
        "status": report.status,
        "detail": report.detail,
        "form": None,
        "freeVars": None,
        "constraints": None,
        "calls": None,
        "annotation": None,
    }
    run = report.run
    if report.status == "Mappable" and run is not None and report.form is not None:
        out["form"] = [fun_to_json(f) for f in report.form]
        out["freeVars"] = list(
            dict.fromkeys(v.display for f in report.form for v in fun_vars(f))
        )
        out["constraints"] = [_constraint_json(c) for c in run.constraints]
        shown = pretty_subterms(run.annotation.term, run.annotation.heads)
        out["calls"] = [
            {
                "label": t.label,
                "term": shown[id(t.term)],
                "funs": [fun_to_json(f) for f in t.funs],
                "spec": pretty_type(t.spec),
                "matching": [
                    f"{pretty_type(l)} == {pretty_type(r)}" for l, r in t.matching
                ],
                "taus": [pretty_type(x) for x in t.taus],
                "rjs": [pretty_type(x) for x in t.rjs],
                "zetas": [
                    None if z is None else [pretty_type(x) for x in z] for z in t.zetas
                ],
                "emitted": [_constraint_json(c) for c in t.emitted],
            }
            for t in run.traces
        ]
        out["annotation"] = {
            "term": shown[id(run.annotation.term)],
            "essentialPaths": [list(p) for p in run.annotation.essential],
        }
    if report.verify is not None:
        out["verify"] = {
            "depth": report.verify_depth,
            "agrees": report.verify.agrees,
            "checked": report.verify.checked,
            "disagreements": [
                {
                    "candidates": [fun_to_json(c) for c in d.candidates],
                    "mappable": d.mappable,
                    "instance": d.instance,
                }
                for d in report.verify.disagreements
            ],
        }
    return out


def assert_matches_reference(report: g.AnalysisReport) -> str:
    text = _WRITE(report)
    assert text == json.dumps(reference(report), indent=2)
    return text


# ---------------------------------------------------------------------------
# Reports the CLI makes


@pytest.fixture()
def captured(monkeypatch):
    """Every report `cli.main` hands to `report_to_json`."""
    seen = []

    def record(report):
        seen.append(report)
        return _WRITE(report)

    monkeypatch.setattr(cli, "report_to_json", record)
    return seen


def _analyze(captured, argv: list[str]) -> tuple[g.AnalysisReport, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    (report,) = captured
    captured.clear()
    return report, out.getvalue()


def _corpus_argv(key, term, spec, int_lits, *flags) -> list[str]:
    argv = ["analyze", str(PROGRAMS_DIR / f"{key}.gadt"), "--term", term, "--spec", spec, "--json"]
    return argv + ["--int-literals"] * int_lits + list(flags)


def test_string_encoder_is_stdlib():
    # `cli` takes the C string encoder from `_json`; where `json.encoder`
    # uses another, strings could render differently.
    assert cli._quote is json.encoder.encode_basestring_ascii


@pytest.mark.parametrize("flags", [(), ("--verify", "depth=2")], ids=["plain", "verify"])
@pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
def test_corpus_equals_reference(key, term, spec, int_lits, flags, captured):
    report, out = _analyze(captured, _corpus_argv(key, term, spec, int_lits, *flags))
    assert out == assert_matches_reference(report) + "\n"


GOLDEN_JSON = {
    name: argv for name, argv, _ in GOLDEN_CASES if argv[0] == "analyze" and name.endswith(".json")
}


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_golden_equals_reference(name, captured):
    report, out = _analyze(captured, GOLDEN_JSON[name])
    assert out == assert_matches_reference(report) + "\n"
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
            if req.json:
                report, out = _analyze(captured, req.argv(str(ROOT)))
                assert out == assert_matches_reference(report) + "\n", req.argv(".")
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Hand-built reports


_AWKWARD = 'q"b\\é\x01'  # a quote, a backslash, non-ASCII and a control character


@pytest.mark.parametrize("status", ["SpecMismatch", "IllTyped"])
def test_rejections_equal_reference(status):
    report = g.AnalysisReport(status, detail=f'cannot "type" a\\b {_AWKWARD}')
    text = assert_matches_reference(report)
    assert json.loads(text)["detail"].endswith(_AWKWARD)


def test_awkward_names_equal_reference():
    # Names the parser would refuse, built through the library.
    T, C, D = f"T{_AWKWARD}", f"c{_AWKWARD}", f"d{_AWKWARD}"
    a = g.Var("a")
    program = g.Program((
        g.GadtDecl(T, 1, (
            g.ConstructorSig(C, ("a",), (a, g.App(T, (a,))), (a,)),
            g.ConstructorSig(D, ("a",), (), (a,)),
        )),
    ))
    vp = g.validate(program)
    term = g.Ctor(C, (g.Lit("1"), g.Ctor(C, (g.Lit("2"), g.Ctor(D, ())))))
    report = g.analyze(vp, term, g.App(T, (g.Var("b1"),)), verify_depth=1)
    assert report.status == "Mappable", report.detail
    text = assert_matches_reference(report)
    assert json.loads(text)["annotation"]["term"].startswith(C)


def _form_report(form: tuple[FunExpr, ...], verify=None) -> g.AnalysisReport:
    """A report of `form` with an empty run: no constraints and no calls."""
    term = g.Lit("0")
    run = g.RunResult([], [], g.AnnotatedTerm(term, frozenset({id(term)})), ())
    return g.AnalysisReport("Mappable", form=form, run=run, verify=verify, verify_depth=2)


def test_every_function_expression_equals_reference():
    nat, b = g.Base("Nat"), g.Var("b1")
    v = FunVar("f", None, 1)
    w = FunVar("g", "1.2", 2, prime=True)
    form = (
        Id(g.App("List", (g.Prod(nat, b),))),
        Id(nat),
        ProdF(SumF(v, Id(g.Sum(nat, nat))), ProdF(w, Lift("List", (ProdF(v, w),)))),
        Lift("Pair", (v, Lift("List", (w,)), Id(nat))),
        Lift("Unit", ()),
        Opaque(g.App("List", (nat,)), g.Atom(f"A{_AWKWARD}")),
    )
    text = assert_matches_reference(_form_report(form))
    assert json.loads(text)["freeVars"] == ["f1", "g'2^1.2"]


def test_empty_lists_and_null_zeta_equal_reference():
    nat = g.Base("Nat")
    v = FunVar("f", None, 1)
    first, second = g.Lit("0"), g.Lit("1")
    term = g.Pair(first, second)
    call = g.Call(None, 1)
    root = g.CallTrace(call, term, (), nat, (), zetas=(None, (), (nat,)))
    child = g.CallTrace(
        g.Call(call, 1), first, (v,), g.App("List", (nat,)),
        (Constraint(v, Id(nat), "i", call), Constraint(v, v, 'by "hand"')),
        matching=((nat, nat),), taus=(nat,), rjs=(), zetas=(None,),
    )
    run = g.RunResult(
        list(root.emitted + child.emitted), [root, child],
        g.AnnotatedTerm(term, frozenset({id(term), id(first)})), (v,),
    )
    text = assert_matches_reference(g.AnalysisReport("Mappable", form=(v,), run=run))
    assert json.loads(text)["annotation"]["essentialPaths"] == [[], [0]]
    assert_matches_reference(_form_report(()))


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
    verify = g.AgreementReport(False, 3, [oracle.Disagreement((Id(g.Base("Nat")),), True, False)])
    assert_matches_reference(_form_report((), verify))
