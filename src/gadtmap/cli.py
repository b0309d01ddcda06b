"""Command-line front end.

    gadtmap validate PROGRAM [--json]
    gadtmap analyze PROGRAM --term TEXT --spec TEXT
            [--trace] [--json] [--annotate] [--verify depth=N] [--int-literals]

Exit codes: 0 success, 1 analysis-level rejection (invalid program, ill-typed
term, or specification mismatch), 2 I/O or parse error or input nested too
deeply for the interpreter's recursion limit, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from . import constraints as cgen
from .funexpr import Constraint, FunExpr, FunVar, Id, Lift, Opaque, ProdF, SumF, fun_vars
from .oracle import AgreementReport, agrees
from .parser import ParseError, parse_program, parse_spec, parse_term
from .pretty import pretty_annotated, pretty_constraint, pretty_fun, pretty_term, pretty_type
from .solver import SolvedSystem, solve
from .syntax import Spec, Term
from .typecheck import (
    FunArityMismatch,
    SpecMismatch,
    TypeCheckError,
    TypedTerm,
    check_call_invariants,
    infer,
    spec_head_arity,
)
from .wellformed import ValidatedProgram, WellformedError, validate


@dataclass
class AnalysisReport:
    """Everything one analysis produced, independent of output format."""

    status: str  # "Mappable" | "SpecMismatch" | "IllTyped"
    detail: str | None = None
    form: tuple[FunExpr, ...] | None = None
    solved: SolvedSystem | None = None
    run: cgen.RunResult | None = None
    spec: Spec | None = None
    typed: TypedTerm | None = None
    verify: AgreementReport | None = None
    verify_depth: int | None = None


def analyze(
    vp: ValidatedProgram,
    term: Term,
    spec: Spec,
    int_literals: bool = False,
    verify_depth: int | None = None,
) -> AnalysisReport:
    """Typecheck, analyze, and solve; optionally verify by brute force.

    Typing and specification problems are reported in the returned status.
    """
    try:
        typed = infer(term, vp, int_literals)
        k = spec_head_arity(spec, vp)
        check_call_invariants(typed, spec, k)
    except (SpecMismatch, FunArityMismatch) as e:
        return AnalysisReport("SpecMismatch", detail=str(e), spec=spec)
    except TypeCheckError as e:
        return AnalysisReport("IllTyped", detail=str(e), spec=spec)
    run = cgen.run(typed, spec, vp)
    solved, form = solve(run.constraints, run.root_funs)
    report = AnalysisReport("Mappable", form=form, solved=solved, run=run, spec=spec, typed=typed)
    if verify_depth is not None:
        report.verify = agrees(form, typed, spec, verify_depth)
        report.verify_depth = verify_depth
    return report


# ---------------------------------------------------------------------------
# JSON rendering


def fun_to_json(e: FunExpr) -> dict:
    if isinstance(e, FunVar):
        return {"t": "var", "name": e.display}
    if isinstance(e, Id):
        return {"t": "id", "at": pretty_type(e.at)}
    if isinstance(e, ProdF):
        return {"t": "prod", "left": fun_to_json(e.left), "right": fun_to_json(e.right)}
    if isinstance(e, SumF):
        return {"t": "sum", "left": fun_to_json(e.left), "right": fun_to_json(e.right)}
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


def report_to_json(report: AnalysisReport) -> dict:
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
        out["freeVars"] = _free_var_names(report.form)
        out["constraints"] = [_constraint_json(c) for c in run.constraints]
        out["calls"] = [
            {
                "label": t.label,
                "term": pretty_term(t.term),
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
            "term": pretty_term(run.annotation.term),
            "essentialPaths": sorted(list(p) for p in run.annotation.essential),
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


def _free_var_names(form: tuple[FunExpr, ...]) -> list[str]:
    """Display names of the form's free variables, in order of first
    occurrence across the tuple."""
    return list(dict.fromkeys(v.display for f in form for v in fun_vars(f)))


# ---------------------------------------------------------------------------
# Text rendering


def render_report(report: AnalysisReport, trace: bool = False, annotate: bool = False) -> str:
    lines = [f"status: {report.status}"]
    if report.detail:
        lines.append(f"detail: {report.detail}")
    run = report.run
    if report.form is not None and run is not None:
        lines.append("form: " + ", ".join(pretty_fun(f) for f in report.form))
        free = _free_var_names(report.form)
        lines.append("free variables: " + (", ".join(free) if free else "(none)"))
        lines.append(f"constraints ({len(run.constraints)}):")
        for c in run.constraints:
            lines.append(f"  {c.origin:<10} {pretty_constraint(c)}")
        if annotate:
            lines.append(
                "essential structure: "
                + pretty_annotated(run.annotation.term, run.annotation.essential)
            )
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


# ---------------------------------------------------------------------------
# Entry points


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        program = parse_program(text)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    errors = []
    vp = None
    try:
        vp = validate(program)
    except WellformedError as e:
        errors = e.errors
    if args.json:
        out = {
            "decls": [
                {
                    "name": d.name,
                    "arity": d.arity,
                    "constructors": [c.name for c in d.ctors],
                }
                for d in program.decls
            ],
            "properFlags": vp.proper_flags if vp else None,
            "errors": [{"code": e.code, "message": e.message} for e in errors],
        }
        print(json.dumps(out, indent=2))
    else:
        if vp:
            flags = ", ".join(f"{n}={'proper' if p else 'plain'}" for n, p in vp.proper_flags.items())
            print(f"ok: {flags}" if flags else "ok: (no declarations)")
        for e in errors:
            print(str(e), file=sys.stderr)
    return 0 if vp else 1


_VERIFY_RE = re.compile(r"^depth=([0-9]+)$")


def cmd_analyze(args: argparse.Namespace) -> int:
    verify_depth = None
    if args.verify is not None:
        m = _VERIFY_RE.match(args.verify)
        if not m:
            print("error: --verify expects depth=N", file=sys.stderr)
            return 2
        verify_depth = int(m.group(1))
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        vp = validate(parse_program(text))
        term = parse_term(args.term, vp)
        spec = parse_spec(args.spec, vp)
        report = analyze(vp, term, spec, args.int_literals, verify_depth)
        if args.json:
            rendered = json.dumps(report_to_json(report), indent=2)
        else:
            rendered = render_report(report, trace=args.trace, annotate=args.annotate)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except WellformedError as e:
        for d in e.errors:
            print(str(d), file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    print(rendered)
    if report.status != "Mappable":
        return 1
    if report.verify is not None and not report.verify.agrees:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gadtmap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate", help="check a program file")
    v.add_argument("program")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)
    a = sub.add_parser("analyze", help="analyze a term against a specification")
    a.add_argument("program")
    a.add_argument("--term", required=True)
    a.add_argument("--spec", required=True)
    a.add_argument("--trace", action="store_true")
    a.add_argument("--json", action="store_true")
    a.add_argument("--annotate", action="store_true")
    a.add_argument("--verify", metavar="depth=N")
    a.add_argument("--int-literals", action="store_true")
    a.set_defaults(func=cmd_analyze)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
