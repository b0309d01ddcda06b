"""The README's Library example runs as written."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "Mappable [\"f'1 * id@Nat\"]\n"
