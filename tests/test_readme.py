"""The README's Library examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    library = library[:library.index("\n## ", 1)]
    namespace: dict = {}
    monkeypatch.chdir(ROOT)
    for block in re.findall(r"```python\n(.*?)```", library, re.DOTALL):
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "Mappable [\"f'1 * id@Nat\"]\n"
    assert [r.status for r in namespace["reports"]] == ["Mappable", "Mappable"]
