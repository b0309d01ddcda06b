"""Fresh-interpreter measurements, run by run.py as isolated child processes
at the interpreter's default recursion limit.

    python3 -I bench/child.py setup PROGRAM...   # seconds to import gadtmap
                                                # and validate the programs
    python3 -I bench/child.py probe              # max_list_len
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup(programs: list[str]) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    import gadtmap

    for p in programs:
        gadtmap.validate(gadtmap.parse_program((ROOT / p).read_text(encoding="utf-8")))
    return time.perf_counter() - START


def probe() -> int:
    """The largest rung of the ladder at which `analyze --json` on a cons list
    under `List b1` exits 0 with a correct report; the ladder stops at the
    first failure, a raised RecursionError included."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from check import call, check
    from gadtmap.cli import main
    from workloads import PROBE_LADDER, probe_request

    best = 0
    for n in PROBE_LADDER:
        req = probe_request(n)
        rc, out, _ = call(main, req.argv(str(ROOT)))
        if check(req, rc, out) is not None:
            break
        best = n
    return best


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(f"{setup(sys.argv[2:]):.9f}")
    else:
        print(probe())
