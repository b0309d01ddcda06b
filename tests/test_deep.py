"""Deep terms through the library at the interpreter's default recursion limit.

Every case runs in a fresh interpreter, where the stack depth of the test
process does not matter: the parser, `infer`, `check_call_invariants`, the
constraint walk and `solve` must not recurse once per nesting level of a
term, and the report's renderers take one frame per nesting level of a type.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NESTED = ROOT / "programs" / "nested.gadt"
SEQ = ROOT / "programs" / "seq.gadt"

PRELUDE = f"""
import json, sys
import gadtmap as g
vp = g.validate(g.parse_program(open({str(NESTED)!r}, encoding="utf-8").read()))
"""


def fresh(code: str):
    """Run `code` after PRELUDE in a fresh interpreter; return the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-"],
        input=PRELUDE + code,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cons_list(items: list[str]) -> str:
    return "".join(f"cons {x} (" for x in items) + "nil" + ")" * len(items)


def analyze_code(term: str, spec: str) -> str:
    return f"""
report = g.analyze(vp, g.parse_term({term!r}, vp), g.parse_spec({spec!r}, vp))
run = report.run
print(json.dumps({{
    "status": report.status,
    "form": [str(f) for f in report.form],
    "traces": len(run.traces),
    "heads": len(run.annotation.heads),
    "annotated": g.pretty_annotated(run.annotation.term, run.annotation.heads),
    "constraints": len(run.constraints),
    "last": run.traces[-1].label.count("."),
}}))
"""


def test_long_list_analyses():
    n = 20_000
    out = fresh(analyze_code(cons_list(["0"] * n), "List b1"))
    assert out["status"] == "Mappable"
    assert out["form"] == ["f'1"]
    assert out["traces"] == out["heads"] == out["constraints"] == n + 1
    assert out["last"] == n  # the `nil` call sits n branches below the root
    assert out["annotated"] == "cons [0] (" * (n - 1) + "cons [0] nil" + ")" * (n - 1)


def test_long_list_of_lists_analyses():
    n = 3000
    inner = [cons_list([str(i)] * (i % 3)) for i in range(n)]
    out = fresh(analyze_code(cons_list([f"({x})" for x in inner]), "List (List b1)"))
    calls = n + 1 + sum(i % 3 + 1 for i in range(n))
    assert out["status"] == "Mappable"
    assert out["form"] == ["List f'1"]
    assert out["traces"] == out["heads"] == out["constraints"] == calls
    # Only the inner lists' elements are incidental.
    assert out["annotated"].count("[") == sum(i % 3 for i in range(n))


@pytest.mark.parametrize("flags", [[], ["--trace", "--annotate"], ["--json"]])
def test_deep_seq_chain_analyses_from_the_command_line(flags):
    # A left-nested `pair` chain, whose type is as deep as the term: every
    # renderer of the report takes one frame per level of the type. 980
    # levels pass on CPython 3.11; 900 leaves a margin for other versions.
    n = 900
    term = "pair (" * (n - 1) + "pair (const 0) (const 0)" + ") (const 0)" * (n - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "gadtmap", "analyze", str(SEQ), "--term", term,
         "--spec", "Seq b1", *flags],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if "--json" in flags:
        out = json.loads(proc.stdout)
        assert out["status"] == "Mappable" and len(out["calls"]) == 2 * n + 1
    else:
        assert proc.stdout.startswith("status: Mappable\n")


# Messages recorded with the recursive parser, under a raised recursion
# limit, before it was replaced by the explicit-stack one; end of input is
# reported just past the last character.
MALFORMED = {
    "unclosed paren": ("cons 0 (" * 900 + "nil" + ")" * 899, "1:8103: unexpected end of input"),
    "wrong arity": (
        "cons 0 (" * 700 + "cons 0" + ")" * 700,
        "1:5601: constructor 'cons' expects 2 argument(s), got 1",
    ),
    "open annotation": (
        "inl (" * 900 + "(nil : List a)" + ")" * 900,
        "1:4513: type annotations must be closed (found variable 'a')",
    ),
    "stray token": ("cons 0 (" * 900 + "nil ;" + ")" * 900, "1:7205: expected ')', got ';'"),
}


def test_malformed_deep_terms_report_their_parse_error():
    texts = {k: text for k, (text, _) in MALFORMED.items()}
    got = fresh(f"""
out = {{}}
for key, text in {texts!r}.items():
    try:
        g.parse_term(text, vp)
        out[key] = None
    except g.ParseError as e:
        out[key] = str(e)
print(json.dumps(out))
""")
    assert got == {k: message for k, (_, message) in MALFORMED.items()}
