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
    from collections.abc import Callable


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
        # `run.constraints` is the traces' `emitted` blocks end to end, so each
        # constraint's dict is built once and appears in both places.
        emitted = [[_constraint_json(c) for c in t.emitted] for t in run.traces]
        out["constraints"] = [d for ds in emitted for d in ds]
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
                "emitted": ds,
            }
            for t, ds in zip(run.traces, emitted)
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


def _free_var_names(form: tuple[FunExpr, ...]) -> list[str]:
    """Display names of the form's free variables, in order of first
    occurrence across the tuple."""
    return list(dict.fromkeys(v.display for f in form for v in fun_vars(f)))


# Deeper values raise `RecursionError` at any recursion limit, so a cycle
# stops here; CPython's default limit, far past a report's nesting.
_MAX_DEPTH = 1000
_LITERALS = {None: "null", True: "true", False: "false"}
# The encoder of each scalar kind, by exact type; each runs in C.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def json_text(value: object) -> str:
    """What `json.dumps` writes with an indent of two spaces, byte for byte,
    for a tree of dicts with `str` keys, lists, `str`, `int`, `bool` and
    `None` (exact types).

    Any other value, a float or a tuple included, raises `TypeError`, so a
    report field of a new kind fails instead of being rendered differently
    from the standard library. A cycle raises `ValueError` as `json.dumps`
    does, and a value nested past the recursion limit or past `_MAX_DEPTH`
    levels, even under a raised limit, raises `RecursionError` (no report
    comes near). The writer keeps no set of open containers (tracking each
    one cost about 6% of its time), so a cycle first shows up as a
    `RecursionError`, and `json.dumps` then tells it from deep nesting. With
    an indent the standard library runs its pure-Python encoder, which takes
    about 2.3 to 2.5 times as long on lists-deep reports (`scripts/ab.py`'s
    `encode` block: 6.8 to 7.5 against 2.9 to 3.0 ms per report, CPython
    3.11).
    """
    enc = _SCALARS.get(type(value))
    if enc is not None:
        return enc(value)
    out: list[str] = []
    try:
        _write_json(value, 0, out.append, [("\n", ",\n", {}, {}, "")])
    except RecursionError:
        import json

        json.dumps(value)  # raises ValueError at a cycle's first repeat
        raise
    return "".join(out)


def _write_json(
    o: list | dict,
    depth: int,
    append: Callable[[str], None],
    levels: list[tuple[str, str, dict, dict, str]],
) -> None:
    """Pass the text of the list or dict `o`, nested `depth` deep, to `append`.

    `levels[d]` holds the line break that indents level `d`, the item
    separator there, the prefixes of the dict keys met there, and the line
    break that closes a container holding level `d`, each built once: a
    first key's prefix follows `{`, a later key's the separator. A list of
    scalars of one type is written with one `join`, a list of `int`s from
    its `repr`; otherwise there is one frame per level of nesting.
    """
    t = type(o)
    if t is list:
        if not o:
            append("[]")
            return
        kinds = set(map(type, o))
        enc = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    elif t is dict:
        if not o:
            append("{}")
            return
        enc = None
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    depth += 1
    if depth == len(levels):
        if depth > _MAX_DEPTH:
            raise RecursionError("JSON value nested too deeply")
        close = levels[-1][0]
        nl = close + "  "
        levels.append((nl, "," + nl, {}, {}, close))
    nl, sep, firsts, laters, close = levels[depth]
    if enc is int.__repr__:  # ints print alike in a list's repr, ", " apart
        append("[" + nl + repr(o)[1:-1].replace(", ", sep) + close + "]")
    elif enc is not None:
        append("[" + nl + sep.join(map(enc, o)) + close + "]")
    elif t is list:
        prefix = "[" + nl
        for v in o:
            enc = _SCALARS.get(type(v))
            if enc is None:
                append(prefix)
                _write_json(v, depth, append, levels)
            else:
                append(prefix + enc(v))
            prefix = sep
        append(close + "]")
    else:
        prefixes = firsts
        for k, v in o.items():
            prefix = prefixes.get(k)
            if prefix is None:
                start = "{" + nl if prefixes is firsts else sep
                prefix = prefixes[k] = start + _quote(k) + ": "
            enc = _SCALARS.get(type(v))
            if enc is None:
                append(prefix)
                _write_json(v, depth, append, levels)
            else:
                append(prefix + enc(v))
            prefixes = laters
        append(close + "}")


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
        print(json_text(out))
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
            rendered = json_text(report_to_json(report))
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
