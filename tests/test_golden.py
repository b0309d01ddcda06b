"""Byte-for-byte regression against recorded `gadtmap analyze` output.

`tests/golden/` holds the `--json` report of every CORPUS entry and the
`--trace --annotate` text of the five worked examples, as printed before the
pipeline was folded into one `analyze`. It also holds outputs whose bytes
depend on the order of inference: metavariable numbers in `IllTyped` and
`SpecMismatch` details, nested annotations, and `inl`/`inr` subterms, and
the `validate --json` report of every program file, of an invalid program
and of an empty one, as the generic JSON encoder wrote them. A refactor
that keeps the analysis must keep these bytes and exit codes.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from gadtmap.cli import main

from conftest import CORPUS, PROGRAMS_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _argv(key, term, spec, int_lits, *flags):
    argv = ["analyze", str(PROGRAMS_DIR / f"{key}.gadt"), "--term", term, "--spec", spec, *flags]
    if int_lits:
        argv.append("--int-literals")
    return argv


ROOT = PROGRAMS_DIR.parent


def _validate(path: Path) -> list[str]:
    return ["validate", str(path), "--json"]


SUM_LIST = ("nested", "cons (inr 1) (cons (inl tt) nil)", "List (b1 + b2)", False)

CASES = (
    [(f"corpus{i:02d}.json", _argv(*entry, "--json"), 0) for i, entry in enumerate(CORPUS)]
    + [
        (f"worked{i}.txt", _argv(*entry, "--trace", "--annotate"), 0)
        for i, entry in enumerate(CORPUS[:5])
    ]
    + [
        ("ann_conflict.txt", _argv("nested", "cons (tt : Int) nil", "List b1", False), 1),
        (
            "ann_nested.txt",
            _argv("nested", "((cons 1 nil : List Bool) : List Nat)", "List b1", False),
            1,
        ),
        ("inr_mismatch.txt", _argv("nested", "inr (cons 1 nil)", "List (List b1)", False), 1),
        ("pair_mismatch.txt", _argv("nested", "(nil, inr nil)", "List (List b1)", False), 1),
        ("sum_list.json", _argv(*SUM_LIST, "--json", "--verify", "depth=2"), 0),
        ("sum_list.txt", _argv(*SUM_LIST, "--trace", "--annotate"), 0),
    ]
    + [
        (f"validate_{p.stem}.json", _validate(p), 0)
        for p in sorted(PROGRAMS_DIR.glob("*.gadt"))
    ]
    + [
        ("validate_seqlist.json", _validate(ROOT / "bench" / "seqlist.gadt"), 0),
        ("validate_invalid.json", _validate(GOLDEN_DIR / "k_mentions_proper.gadt"), 1),
        ("validate_empty.json", _validate(GOLDEN_DIR / "empty.gadt"), 0),
    ]
)


@pytest.mark.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])
def test_output_matches_golden(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
