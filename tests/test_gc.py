"""The pipeline makes no reference cycles, so reference counting frees
everything a command allocates, and `cli.main` runs each command with the
cyclic garbage collector paused, restoring the caller's collector state on
every exit."""
from __future__ import annotations

import gc

import pytest

from gadtmap import cli
from gadtmap.cli import main

from conftest import CORPUS, PROGRAMS_DIR


def program(key: str) -> str:
    return str(PROGRAMS_DIR / f"{key}.gadt")


SEQ_CHAIN = "pair (" * 999 + "pair (const 0) (const 0)" + ") (const 0)" * 999
CONS_800 = "cons 0 (" * 799 + "cons 0 nil" + ")" * 799
Q = "(((1,2),(3,4)),((5,6),(7,8)))"

# (argv, exit code) of each error exit.
ERRORS = {
    "parse error": (["analyze", program("nested"), "--term", "snoc 1", "--spec", "List b1"], 2),
    "IllTyped": (
        ["analyze", program("nested"), "--term", "cons 1 (cons tt nil)", "--spec", "List b1"], 1
    ),
    "SpecMismatch": (["analyze", program("g"), "--term", "const", "--spec", "List b1"], 1),
    "nested too deeply": (["analyze", program("seq"), "--term", SEQ_CHAIN, "--spec", "Seq b1"], 2),
    "CandidateSpaceTooLarge": (
        ["analyze", program("nested"), "--term", f"({Q}, {Q})", "--spec", "b1 * b2",
         "--verify", "depth=3"],
        2,
    ),
}


@pytest.fixture(scope="module", autouse=True)
def warm():
    """One call first, for what the process keeps from its first command:
    building `argparse`'s parser leaves argparse's own cyclic help
    formatters; the patterns argparse matches a flag with and the
    `--verify` pattern are compiled and cached; and the first `repr` of a
    list (the JSON writer's for index paths) makes the thread's state
    dict."""
    main(["analyze", program("nested"), "--term", "cons 1 nil", "--spec", "List b1", "--json",
          "--verify", "depth=1"])
    gc.collect()


def paused_run(argv: list[str]) -> tuple[int, int, int]:
    """Run `main` with the collector off around the call: its exit code, the
    unreachable objects a full collection then finds, and how many tracked
    objects the young generation gained."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects(0))
        code = main(argv)
        grown = len(gc.get_objects(0)) - before
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    return code, found, grown


MODES = {
    "text": ["--trace", "--annotate"],
    "json": ["--json"],
    "verify": ["--json", "--verify", "depth=2"],
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key,term,spec,int_literals", CORPUS)
def test_corpus_leaves_no_cycles(capsys, key, term, spec, int_literals, mode):
    argv = ["analyze", program(key), "--term", term, "--spec", spec, *MODES[mode]]
    if int_literals:
        argv.append("--int-literals")
    code, found, grown = paused_run(argv)
    assert code == 0, capsys.readouterr().err
    assert (found, grown) == (0, 0)


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("key", ["seq", "g", "nested"])
def test_validate_leaves_no_cycles(capsys, key, flags):
    assert paused_run(["validate", program(key), *flags]) == (0, 0, 0)


@pytest.mark.parametrize("name", ERRORS)
def test_error_exit_leaves_no_cycles(capsys, name):
    argv, expected = ERRORS[name]
    code, found, grown = paused_run(argv)
    assert code == expected, capsys.readouterr().err
    assert (found, grown) == (0, 0)


def test_internal_error_leaves_no_cycles(capsys, monkeypatch):
    fake_internal_error(monkeypatch)
    assert paused_run(MAPPABLE) == (3, 0, 0)


def fake_disagreement(monkeypatch):
    fake = cli.AgreementReport(False, 1, [])
    monkeypatch.setattr(cli, "agrees", lambda *a, **k: fake)


def fake_internal_error(monkeypatch):
    def fail(*args):
        raise cli.cgen.InternalInvariantViolation("call 1.2: expected a pair")

    monkeypatch.setattr(cli.cgen, "run", fail)


MAPPABLE = ["analyze", program("nested"), "--term", "cons 1 nil", "--spec", "List b1"]


class TestPause:
    """`main` pauses the collector for the command and gives the caller back
    the state it had, whatever the exit."""

    # name: (argv, patch or None, exit code)
    CASES = {
        **{name: (argv, None, code) for name, (argv, code) in ERRORS.items()},
        "mappable": (MAPPABLE, None, 0),
        "validate": (["validate", program("g")], None, 0),
        "unreadable file": (["validate", str(PROGRAMS_DIR / "missing.gadt")], None, 2),
        "disagreement": ([*MAPPABLE, "--verify", "depth=1"], fake_disagreement, 3),
        "internal error": (MAPPABLE, fake_internal_error, 3),
    }

    @pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
    def caller(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("name", CASES)
    def test_state_restored_on_every_exit(self, caller, capsys, monkeypatch, name):
        argv, patch, expected = self.CASES[name]
        if patch:
            patch(monkeypatch)
        seen = []
        read = cli._read

        def spy(path):  # both commands read their program file first
            seen.append(gc.isenabled())
            return read(path)

        monkeypatch.setattr(cli, "_read", spy)
        assert main(argv) == expected
        assert seen == [False]
        assert gc.isenabled() is caller

    def test_state_restored_when_an_exception_escapes(self, caller, capsys, monkeypatch):
        def fail(*args):
            raise KeyError("stage")

        monkeypatch.setattr(cli, "solve", fail)
        with pytest.raises(KeyError):
            main(MAPPABLE)
        assert gc.isenabled() is caller

    def test_state_restored_on_bad_arguments(self, caller, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", program("nested"), "--no-such-flag"])
        assert gc.isenabled() is caller

    def test_no_collection_runs_during_a_command(self, caller, capsys):
        # An 800-element list allocates far past every generation's
        # threshold, so a collection would run if the collector were on.
        argv = ["analyze", program("nested"), "--term", CONS_800, "--spec", "List b1", "--json"]
        assert collections_during(argv) == (0, [])
        # Parsing the arguments allocates too. The young generation's counter
        # is set to every seventh offset below its threshold in turn (k
        # fresh lists after a young collection; with the collector on, the
        # lists past the threshold start one of their own first), and no
        # offset may let a collection start inside the command.
        argv = ["analyze", program("nested"), "--term", "cons 1 nil", "--spec", "List b1",
                "--json"]
        collected = []
        for k in range(0, 3 * gc.get_threshold()[0], 7):
            gc.collect(0)
            shift = [[] for _ in range(k)]
            code, started = collections_during(argv)
            assert code == 0
            if started:
                collected.append(k)
            del shift
        assert collected == []


def collections_during(argv: list[str]) -> tuple[int, list[int]]:
    """`main(argv)`'s exit code and the generation of each collection that
    started while it ran. A `gc` callback sees them: comparing
    `gc.get_stats()` before and after would also count the collection that
    the first allocation after `main` may start, once `main` has turned
    the collector back on with its counter past the threshold."""
    inside = [False]
    started = []

    def spy(phase, info):
        if phase == "start" and inside[0]:
            started.append(info["generation"])

    gc.callbacks.append(spy)
    try:
        inside[0] = True
        code = main(argv)
        inside[0] = False
    finally:
        gc.callbacks.remove(spy)
    return code, started
