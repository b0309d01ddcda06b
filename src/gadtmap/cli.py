"""Command-line front end.

    gadtmap validate PROGRAM [--json]
    gadtmap analyze PROGRAM --term TEXT --spec TEXT
            [--trace] [--json] [--annotate] [--verify depth=N] [--int-literals]

Exit codes: 0 success, 1 analysis-level rejection (invalid program, ill-typed
term, or specification mismatch), 2 I/O or parse error, a type nested too
deeply for the interpreter's recursion limit, or a `--verify` depth with more
than a million candidate tuples or more digits than Python reads,
3 verification failure or an internal error (a fault of the analysis,
reported on one line as `internal error: <stage>: <message>`).
"""
from __future__ import annotations

import functools
import re
import sys
from _json import encode_basestring_ascii as _quote  # what `json.encoder` uses

from . import constraints as cgen
from .funexpr import Constraint, FunExpr, FunVar, Id, Lift, Opaque, ProdF, SumF, fun_vars
from .oracle import AgreementReport, CandidateSpaceTooLarge, OracleInconsistency, agrees
from .parser import ParseError, parse_program, parse_spec, parse_term
from .pretty import pretty_annotated, pretty_constraint, pretty_fun, pretty_subterms, pretty_type
from .solver import SolvedSystem, SpecUnsatisfiable, solve
from .syntax import Record, Term, TypeExpr
from .typecheck import (
    SpecMismatch,
    TypeCheckError,
    TypedTerm,
    check_call_invariants,
    infer,
    spec_head_arity,
)
from .wellformed import ValidatedProgram, WellformedError, validate

TYPE_CHECKING = False  # as in `syntax`
if TYPE_CHECKING:
    import argparse

    from .oracle import Disagreement
    from .syntax import Program
    from .wellformed import Diagnostic


class AnalysisReport(Record):
    """Everything one analysis produced, independent of output format."""

    __slots__ = (
        "status", "detail", "form", "solved", "run", "spec", "typed", "verify", "verify_depth"
    )

    def __init__(
        self,
        status: str,
        detail: str | None = None,
        form: tuple[FunExpr, ...] | None = None,
        solved: SolvedSystem | None = None,
        run: cgen.RunResult | None = None,
        spec: TypeExpr | None = None,
        typed: TypedTerm | None = None,
        verify: AgreementReport | None = None,
        verify_depth: int | None = None,
    ) -> None:
        self.status = status  # "Mappable" | "SpecMismatch" | "IllTyped"
        self.detail = detail
        self.form = form
        self.solved = solved
        self.run = run
        self.spec = spec
        self.typed = typed
        self.verify = verify
        self.verify_depth = verify_depth


def analyze(
    vp: ValidatedProgram,
    term: Term,
    spec: TypeExpr,
    int_literals: bool = False,
    verify_depth: int | None = None,
) -> AnalysisReport:
    """Typecheck, analyze, and solve; optionally verify by brute force.

    Typing and specification problems are reported in the returned status.
    """
    try:
        typed = infer(term, vp, int_literals)
        check_call_invariants(typed, spec, spec_head_arity(spec, vp))
    except SpecMismatch as e:
        return AnalysisReport("SpecMismatch", detail=str(e), spec=spec)
    except TypeCheckError as e:
        return AnalysisReport("IllTyped", detail=str(e), spec=spec)
    run = cgen.run(typed, spec)
    solved, form = solve(run.constraints, run.root_funs)
    report = AnalysisReport("Mappable", form=form, solved=solved, run=run, spec=spec, typed=typed)
    if verify_depth is not None:
        report.verify = agrees(form, typed, spec, verify_depth)
        report.verify_depth = verify_depth
    return report


# ---------------------------------------------------------------------------
# JSON rendering

# The line breaks of the report's first levels.
_L1, _L2, _L3, _L4 = ("\n" + "  " * d for d in range(1, 5))


def report_to_json(report: AnalysisReport) -> str:
    """The report's JSON text, written straight from the traces.

    The bytes are those `json.dumps(value, indent=2)` writes for the report as
    a tree of dicts and lists with the keys the README lists, in that order.
    Each function below writes one JSON shape, given the line break `nl` of
    its own level (a newline and the indent of its closing bracket; its
    members sit two spaces deeper), and assembles each container with one
    join. Every string is quoted by the standard library's C encoder. Each
    function variable's name is quoted once per report, and each
    constraint's origin once for both places it appears in.
    """
    names: dict[int, str] = {}  # `id` of a FunVar: its quoted display name
    run = report.run
    form = free = constraints = calls = annotation = "null"
    if report.status == "Mappable" and run is not None and report.form is not None:
        form = _list_json([_fun_json(f, _L2, names) for f in report.form], _L1)
        free = _list_json(list(map(_quote, _free_var_names(report.form))), _L1)
        constraints, calls, annotation = _run_json(run, names)
    verify = ""
    if report.verify is not None:
        v = report.verify
        disagreements = [_disagreement_json(d, _L3, names) for d in v.disagreements]
        verify = (
            f',{_L1}"verify": {{{_L2}"depth": {_scalar_json(report.verify_depth)},'
            f'{_L2}"agrees": {_scalar_json(v.agrees)},{_L2}"checked": {_scalar_json(v.checked)},'
            f'{_L2}"disagreements": {_list_json(disagreements, _L2)}{_L1}}}'
        )
    return (
        f'{{{_L1}"status": {_quote(report.status)},{_L1}"detail": {_scalar_json(report.detail)},'
        f'{_L1}"form": {form},{_L1}"freeVars": {free},{_L1}"constraints": {constraints},'
        f'{_L1}"calls": {calls},{_L1}"annotation": {annotation}{verify}\n}}'
    )


def _run_json(run: cgen.RunResult, names: dict[int, str]) -> tuple[str, str, str]:
    """The `constraints`, `calls` and `annotation` values.

    Each intermediate is dropped as soon as it is joined into its container,
    so rendering a large report allocates about twice its size at most (2.2
    times for the largest lists-deep report, by `tracemalloc`)."""
    shown = pretty_subterms(run.annotation.term, run.annotation.heads)
    root = _quote(shown[id(run.annotation.term)])
    # `run.constraints` is the traces' `emitted` blocks end to end, so each
    # constraint is written at both levels from one trace's block.
    listed, traced = [], []
    for t in run.traces:
        emitted = []
        for c in t.emitted:
            origin = _quote(c.origin)
            listed.append(_constraint_json(c, origin, _L2, names))
            emitted.append(_constraint_json(c, origin, _L4, names))
        traced.append(_call_json(t, _quote(shown[id(t.term)]), emitted, _L2, names))
    del shown
    calls = _list_json(traced, _L1)
    del traced
    constraints = _list_json(listed, _L1)
    del listed
    paths = _list_json(_paths_json(run.annotation.essential), _L2)
    return constraints, calls, f'{{{_L2}"term": {root},{_L2}"essentialPaths": {paths}{_L1}}}'


def _scalar_json(v: str | int | bool | None) -> str:
    return _SCALARS[type(v)](v)


def _list_json(items: list[str], nl: str) -> str:
    """A list whose items, one level below `nl`, are already written."""
    if not items:
        return "[]"
    m = nl + "  "
    return f"[{m}{(',' + m).join(items)}{nl}]"


def _fun_json(e: FunExpr, nl: str, names: dict[int, str]) -> str:
    m = nl + "  "
    if isinstance(e, FunVar):
        name = names.get(id(e))
        if name is None:
            name = names[id(e)] = _quote(e.display)
        return f'{{{m}"t": "var",{m}"name": {name}{nl}}}'
    if isinstance(e, Id):
        return f'{{{m}"t": "id",{m}"at": {_quote(pretty_type(e.at))}{nl}}}'
    if isinstance(e, (ProdF, SumF)):
        tag = "prod" if isinstance(e, ProdF) else "sum"
        return (
            f'{{{m}"t": "{tag}",{m}"left": {_fun_json(e.left, m, names)},'
            f'{m}"right": {_fun_json(e.right, m, names)}{nl}}}'
        )
    if isinstance(e, Lift):
        args = _list_json([_fun_json(a, m + "  ", names) for a in e.args], m)
        return f'{{{m}"t": "map",{m}"ctor": {_quote(e.ctor)},{m}"args": {args}{nl}}}'
    if isinstance(e, Opaque):
        return (
            f'{{{m}"t": "fun",{m}"domain": {_quote(pretty_type(e.domain))},'
            f'{m}"codomain": {_quote(pretty_type(e.codomain))}{nl}}}'
        )
    raise TypeError(f"not a function expression: {e!r}")


def _constraint_json(c: Constraint, origin: str, nl: str, names: dict[int, str]) -> str:
    m = nl + "  "
    return (
        f'{{{m}"lhs": {_fun_json(c.lhs, m, names)},{m}"rhs": {_fun_json(c.rhs, m, names)},'
        f'{m}"origin": {origin}{nl}}}'
    )


def _paths_json(paths: tuple[tuple[int, ...], ...]) -> list[str]:
    """The lists of `paths`, given in preorder, each one level below `_L3`.

    In preorder the last path written one shorter than `p` is `p`'s parent,
    so each path's items are its parent's and one more: one copy per path,
    not one string per index."""
    sep = "," + _L4
    items: list[str] = []  # items[k - 1]: the items of the last path of length k
    out = []
    for p in paths:
        if not p:
            out.append("[]")
            continue
        del items[len(p) - 1:]
        items.append(f"{items[-1]}{sep}{p[-1]!r}" if items else repr(p[0]))
        out.append(f"[{_L4}{items[-1]}{_L3}]")
    return out


def _types_json(ts: tuple[TypeExpr, ...], nl: str) -> str:
    return _list_json([_quote(pretty_type(x)) for x in ts], nl)


def _call_json(
    t: cgen.CallTrace, term: str, emitted: list[str], nl: str, names: dict[int, str]
) -> str:
    m = nl + "  "
    d = m + "  "
    funs = _list_json([_fun_json(f, d, names) for f in t.funs], m)
    matching = _list_json(
        [_quote(f"{pretty_type(l)} == {pretty_type(r)}") for l, r in t.matching], m
    )
    zetas = _list_json(["null" if z is None else _types_json(z, d) for z in t.zetas], m)
    return (
        f'{{{m}"label": {_quote(t.label)},{m}"term": {term},{m}"funs": {funs},'
        f'{m}"spec": {_quote(pretty_type(t.spec))},{m}"matching": {matching},'
        f'{m}"taus": {_types_json(t.taus, m)},{m}"rjs": {_types_json(t.rjs, m)},'
        f'{m}"zetas": {zetas},{m}"emitted": {_list_json(emitted, m)}{nl}}}'
    )


def _disagreement_json(d: Disagreement, nl: str, names: dict[int, str]) -> str:
    m = nl + "  "
    candidates = _list_json([_fun_json(c, m + "  ", names) for c in d.candidates], m)
    return (
        f'{{{m}"candidates": {candidates},{m}"mappable": {_scalar_json(d.mappable)},'
        f'{m}"instance": {_scalar_json(d.instance)}{nl}}}'
    )


def _free_var_names(form: tuple[FunExpr, ...]) -> list[str]:
    """Display names of the form's free variables, in order of first
    occurrence across the tuple."""
    return list(dict.fromkeys(v.display for f in form for v in fun_vars(f)))


_LITERALS = {None: "null", True: "true", False: "false"}
# The encoder of each scalar kind, by exact type; each runs in C.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def _validate_json(
    program: Program, vp: ValidatedProgram | None, errors: list[Diagnostic]
) -> str:
    """The `validate --json` report's text, written as `report_to_json`
    writes the analysis report: the bytes of `json.dumps(value, indent=2)`
    for its `decls`, `properFlags` (null for an invalid program) and
    `errors`."""
    decls = [
        f'{{{_L3}"name": {_quote(d.name)},{_L3}"arity": {_scalar_json(d.arity)},'
        f'{_L3}"constructors": {_list_json([_quote(c.name) for c in d.ctors], _L3)}{_L2}}}'
        for d in program.decls
    ]
    flags = "null"
    if vp is not None:
        items = [f"{_quote(n)}: {_scalar_json(p)}" for n, p in vp.proper_flags.items()]
        flags = f"{{{_L2}{(',' + _L2).join(items)}{_L1}}}" if items else "{}"
    diagnostics = [
        f'{{{_L3}"code": {_quote(e.code)},{_L3}"message": {_quote(e.message)}{_L2}}}'
        for e in errors
    ]
    return (
        f'{{{_L1}"decls": {_list_json(decls, _L1)},{_L1}"properFlags": {flags},'
        f'{_L1}"errors": {_list_json(diagnostics, _L1)}\n}}'
    )


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
        # `run.constraints` is the traces' `emitted` blocks end to end, so each
        # constraint is rendered once and printed in both places.
        emitted = [[pretty_constraint(c) for c in t.emitted] for t in run.traces]
        lines.append(f"constraints ({len(run.constraints)}):")
        for t, texts in zip(run.traces, emitted):
            for c, text in zip(t.emitted, texts):
                lines.append(f"  {c.origin:<10} {text}")
        if annotate:
            lines.append(
                "essential structure: "
                + pretty_annotated(run.annotation.term, run.annotation.heads)
            )
        if trace:
            lines.append("calls:")
            shown = pretty_subterms(run.annotation.term, run.annotation.heads)
            for t, texts in zip(run.traces, emitted):
                lines.append(
                    f"  call {t.label}: {shown[id(t.term)]}"
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
                if texts:
                    lines.append("    emitted: " + " ; ".join(texts))
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


def _read(path: str) -> str | None:
    """The program file's text, or None after reporting on stderr why it
    cannot be read (missing, unreadable, or not UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read(args.program)
    if text is None:
        return 2
    errors = []
    vp = None
    try:
        program = parse_program(text)
        vp = validate(program)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except WellformedError as e:
        errors = e.errors
    if args.json:
        print(_validate_json(program, vp, errors))
    else:
        if vp:
            flags = ", ".join(f"{n}={'proper' if p else 'plain'}" for n, p in vp.proper_flags.items())
            print(f"ok: {flags}" if flags else "ok: (no declarations)")
        for e in errors:
            print(str(e), file=sys.stderr)
    return 0 if vp else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    verify_depth = None
    if args.verify is not None:
        m = re.fullmatch(r"depth=([0-9]+)", args.verify)
        if not m:
            print("error: --verify expects depth=N", file=sys.stderr)
            return 2
        try:
            verify_depth = int(m.group(1))
        except ValueError:  # more digits than `int` reads from text
            print("error: --verify: the depth has too many digits", file=sys.stderr)
            return 2
    text = _read(args.program)
    if text is None:
        return 2
    try:
        vp = validate(parse_program(text))
        term = parse_term(args.term, vp)
        spec = parse_spec(args.spec, vp)
        report = analyze(vp, term, spec, args.int_literals, verify_depth)
        if args.json:
            rendered = report_to_json(report)
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
    except CandidateSpaceTooLarge as e:
        print(f"error: --verify: {e}", file=sys.stderr)
        return 2
    except (cgen.InternalInvariantViolation, SpecUnsatisfiable, OracleInconsistency) as e:
        print(f"internal error: {e.stage}: {e}", file=sys.stderr)
        return 3
    print(rendered)
    if report.status != "Mappable":
        return 1
    if report.verify is not None and not report.verify.agrees:
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    `main` call of the process. `argparse` is imported here, so importing
    gadtmap as a library does not load it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="gadtmap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
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
    """Run one command and return its exit code.

    The command runs with CPython's cyclic garbage collector paused, and the
    caller's collector state is restored on every exit. The pipeline makes no
    reference cycles, so reference counting frees everything a command
    allocates as it goes, and a collection would only trace live objects. A
    library caller running many analyses may pause the collector around them
    the same way. `gc` is imported here, as `build_parser` imports
    `argparse`."""
    import gc

    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
