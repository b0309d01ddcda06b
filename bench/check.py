"""Checks of `gadtmap analyze` output against the expectations that
`workloads.py` derives from each input's shape.

The form in the output is read back with a parser of its own (for the text
renderer) or from the JSON tree, then compared with the expected form up to
identity expansion and variable renaming.  Nothing here imports gadtmap.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import time

from workloads import Request, canonical, count_vars

_TOKEN = re.compile(r"\s*(f'\d+|id@|[A-Za-z][A-Za-z0-9_']*|[*+()])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    """Recursive descent over the rendered grammar of types and function
    expressions: `+` below `*` below application, both right-associative."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'a token'}, got {tok!r}")
        self.i += 1
        return tok

    def done(self):
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.peek()!r}")

    # types
    def type(self):
        left = self.tprod()
        if self.peek() == "+":
            self.take()
            return ("+", left, self.type())
        return left

    def tprod(self):
        left = self.tapp()
        if self.peek() == "*":
            self.take()
            return ("*", left, self.tprod())
        return left

    def tapp(self):
        tok = self.peek()
        if tok == "(":
            return self.tatom()
        name = self.take()
        args = []
        while self.peek() is not None and (self.peek() == "(" or self.peek()[0].isalpha()) \
                and self.peek() != "id@":
            args.append(self.tatom())
        return (name, *args)

    def tatom(self):
        if self.peek() == "(":
            self.take("(")
            t = self.type()
            self.take(")")
            return t
        return (self.take(),)

    # function expressions
    def fun(self):
        left = self.fprod()
        if self.peek() == "+":
            self.take()
            return ("+", left, self.fun())
        return left

    def fprod(self):
        left = self.fapp()
        if self.peek() == "*":
            self.take()
            return ("*", left, self.fprod())
        return left

    def fapp(self):
        tok = self.peek()
        if tok is not None and tok[0].isupper():
            name = self.take()
            args = []
            while self.peek() is not None and self.peek() not in ("*", "+", ")"):
                args.append(self.fatom())
            return ("map", name, tuple(args))
        return self.fatom()

    def fatom(self):
        tok = self.take()
        if tok.startswith("f'"):
            return ("var", tok)
        if tok == "id@":
            return ("id", self.tatom())
        if tok == "(":
            f = self.fun()
            self.take(")")
            return f
        raise ValueError(f"unexpected {tok!r} in a function expression")


def read_type(text: str):
    r = _Reader(text)
    t = r.type()
    r.done()
    return t


def read_fun(text: str):
    r = _Reader(text)
    f = r.fun()
    r.done()
    return f


def fun_from_json(obj: dict):
    tag = obj["t"]
    if tag == "var":
        return ("var", obj["name"])
    if tag == "id":
        return ("id", read_type(obj["at"]))
    if tag in ("prod", "sum"):
        return ("*" if tag == "prod" else "+", fun_from_json(obj["left"]),
                fun_from_json(obj["right"]))
    if tag == "map":
        return ("map", obj["ctor"], tuple(fun_from_json(a) for a in obj["args"]))
    raise ValueError(f"unexpected function expression {obj!r}")


def _split_top(text: str) -> list[str]:
    """Split a comma-separated list of forms at parenthesis depth 0."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += (ch == "(") - (ch == ")")
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def call(main, argv: list[str]) -> tuple[object, str, float]:
    """One CLI invocation: exit status (or the exception it raised), captured
    stdout, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a traceback is a failed request, never the answer
        rc = f"{type(e).__name__}: {str(e)[:200]}"
    return rc, out.getvalue(), time.perf_counter() - start


def check(req: Request, rc, out: str) -> str | None:
    """None when the output is what the input's shape demands, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        problem = _check_json(req, json.loads(out)) if req.json else _check_text(req, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {e}"
    return problem


def _compare(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _check_json(req: Request, data: dict) -> str | None:
    if data["status"] != "Mappable":
        return f"status {data['status']}"
    form = canonical(tuple(fun_from_json(f) for f in data["form"]))
    checks = [
        _compare("form", form, req.form),
        _compare("free variables", len(data["freeVars"]), count_vars(req.form)),
    ]
    if req.calls is not None:
        checks.append(_compare("calls", len(data["calls"]), req.calls))
    if req.constraints is not None:
        checks.append(_compare("constraints", len(data["constraints"]), req.constraints))
    if req.essential is not None:
        got = frozenset(tuple(p) for p in data["annotation"]["essentialPaths"])
        checks.append(None if got == req.essential else "essential paths differ")
    if req.checked is not None:
        v = data["verify"]
        checks.append(_compare("verify.agrees", v["agrees"], True))
        checks.append(_compare("verify.checked", v["checked"], req.checked))
        checks.append(_compare("verify.disagreements", len(v["disagreements"]), 0))
    return next((c for c in checks if c), None)


def _check_text(req: Request, out: str) -> str | None:
    lines = out.splitlines()
    fields = {}
    for line in lines:
        key, sep, rest = line.partition(": ")
        if sep and not line.startswith(" "):
            fields.setdefault(key, rest)
    if fields.get("status") != "Mappable":
        return f"status {fields.get('status')}"
    form = canonical(tuple(read_fun(f) for f in _split_top(fields["form"])))
    free = fields["free variables"]
    n_free = 0 if free == "(none)" else len(free.split(", "))
    checks = [
        _compare("form", form, req.form),
        _compare("free variables", n_free, count_vars(req.form)),
    ]
    if req.constraints is not None:
        header = next(l for l in lines if l.startswith("constraints ("))
        checks.append(_compare("constraints", int(header[len("constraints ("):-2]),
                               req.constraints))
    if req.calls is not None:
        checks.append(_compare("calls", sum(l.startswith("  call ") for l in lines),
                               req.calls))
    if req.incidental is not None:
        checks.append(_compare("incidental subterms",
                               fields["essential structure"].count("["), req.incidental))
    return next((c for c in checks if c), None)
