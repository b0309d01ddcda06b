"""Byte-for-byte regression against recorded `gadtmap analyze` output.

`tests/golden/` holds the `--json` report of every CORPUS entry and the
`--trace --annotate` text of the five worked examples, as printed before the
pipeline was folded into one `analyze`. A refactor that keeps the analysis
must keep these bytes.
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


CASES = [(f"corpus{i:02d}.json", _argv(*entry, "--json")) for i, entry in enumerate(CORPUS)] + [
    (f"worked{i}.txt", _argv(*entry, "--trace", "--annotate"))
    for i, entry in enumerate(CORPUS[:5])
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
