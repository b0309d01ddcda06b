"""Command-line behaviour: exit codes, JSON schema, output determinism."""
from __future__ import annotations

import json

import pytest

import gadtmap as g
from gadtmap.cli import main

from conftest import CORPUS, PROGRAM_SOURCES


@pytest.fixture()
def program_files(tmp_path):
    paths = {}
    for key, src in PROGRAM_SOURCES.items():
        p = tmp_path / f"{key}.gadt"
        p.write_text(src)
        paths[key] = str(p)
    return paths


class TestValidateCommand:
    def test_valid_program(self, program_files, capsys):
        assert main(["validate", program_files["g"]]) == 0
        out = capsys.readouterr().out
        assert "G=proper" in out and "List=plain" in out

    def test_json_output(self, program_files, capsys):
        assert main(["validate", program_files["seq"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["properFlags"] == {"Seq": True}
        assert data["errors"] == []
        assert data["decls"][0]["constructors"] == ["const", "pair"]

    def test_invalid_program(self, tmp_path, capsys):
        bad = tmp_path / "bad.gadt"
        bad.write_text(
            "data Seq : Set -> Set where pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
            "data H : Set -> Set where c : forall a. a -> H (Seq a)"
        )
        assert main(["validate", str(bad)]) == 1
        assert "KMentionsProperGadt" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/prog.gadt"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gadt"
        bad.write_text("data : where")
        assert main(["validate", str(bad)]) == 2


class TestAnalyzeCommand:
    def test_mappable_exit_zero(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["nested"],
                "--term",
                "cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)",
                "--spec",
                "List (List b1)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status: Mappable" in out
        assert "form: List f'1" in out

    def test_spec_mismatch_exit_one(self, program_files, capsys):
        code = main(
            ["analyze", program_files["g"], "--term", "const", "--spec", "List b1"]
        )
        assert code == 1
        assert "SpecMismatch" in capsys.readouterr().out

    def test_ill_typed_exit_one(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["nested"],
                "--term",
                "cons 1 (cons tt nil)",
                "--spec",
                "List b1",
            ]
        )
        assert code == 1
        assert "IllTyped" in capsys.readouterr().out

    def test_parse_error_exit_two(self, program_files, capsys):
        code = main(
            ["analyze", program_files["nested"], "--term", "snoc 1", "--spec", "List b1"]
        )
        assert code == 2

    def test_invalid_program_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.gadt"
        bad.write_text(
            "data Seq : Set -> Set where pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
            "data H : Set -> Set where c : forall a. a -> H (Seq a)"
        )
        assert main(["analyze", str(bad), "--term", "c 1", "--spec", "H b1"]) == 1

    def test_verify_flag(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["g"],
                "--term",
                "projpair (inj (inj (cons 2 nil), pairing (inj 2) const))",
                "--spec",
                "G b1",
                "--verify",
                "depth=3",
            ]
        )
        assert code == 0
        assert "agrees" in capsys.readouterr().out

    def test_verify_flag_format(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["g"],
                "--term",
                "const",
                "--spec",
                "G b1",
                "--verify",
                "3",
            ]
        )
        assert code == 2

    def test_json_schema(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["seq"],
                "--term",
                "pair (const tt) (const 2)",
                "--spec",
                "Seq b1",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert list(data) == [
            "status",
            "detail",
            "form",
            "freeVars",
            "constraints",
            "calls",
            "annotation",
        ]
        assert data["status"] == "Mappable"
        assert data["form"][0]["t"] == "prod"
        assert {"lhs", "rhs", "origin"} <= set(data["constraints"][0])
        call = data["calls"][0]
        assert {"label", "term", "funs", "spec", "matching", "taus", "rjs", "zetas", "emitted"} <= set(call)
        assert data["annotation"]["essentialPaths"][0] == []

    def test_annotation_output(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["nested"],
                "--term",
                "cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)",
                "--spec",
                "List b1",
                "--annotate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cons [cons 1 (cons 2 nil)] (cons [cons 3 nil] nil)" in out

    def test_trace_output(self, program_files, capsys):
        code = main(
            [
                "analyze",
                program_files["seq"],
                "--term",
                "pair (const tt) (const 2)",
                "--spec",
                "Seq b1",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "call 1:" in out and "matching:" in out

    def test_int_literals_flag_changes_defaulting(self, program_files, capsys):
        argv = ["analyze", program_files["seq"], "--term", "const 2", "--spec", "Seq Int"]
        assert main(argv) == 1
        assert "SpecMismatch" in capsys.readouterr().out
        assert main(argv + ["--int-literals"]) == 0
        assert "form: id@Int" in capsys.readouterr().out


class TestVerifyExitCode:
    def test_disagreement_exits_three(self, program_files, capsys, monkeypatch):
        # exercise the exit-code wiring; honest disagreements don't exist
        from gadtmap import cli as cli_mod
        from gadtmap.oracle import AgreementReport, Disagreement

        fake = AgreementReport(False, 1, [Disagreement((), False, True)])
        monkeypatch.setattr(cli_mod, "agrees", lambda *a, **k: fake)
        code = main(
            [
                "analyze",
                program_files["nested"],
                "--term",
                "nil",
                "--spec",
                "List b1",
                "--verify",
                "depth=1",
            ]
        )
        assert code == 3
        assert "DISAGREES" in capsys.readouterr().out


def test_module_entry_point(program_files):
    import subprocess
    import sys

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "gadtmap",
            "analyze",
            program_files["nested"],
            "--term",
            "nil",
            "--spec",
            "List b1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: Mappable" in proc.stdout


class TestDeepInput:
    """Input nested past the interpreter's recursion limit ends in a one-line
    error and exit code 2. Each case runs in a fresh interpreter at the
    default limit, where the parent process's stack depth does not matter."""

    @staticmethod
    def run_cli(program, n, *flags):
        import subprocess
        import sys

        term = "cons 0 (" * (n - 1) + "cons 0 nil" + ")" * (n - 1)
        argv = ["analyze", program, "--term", term, "--spec", "List b1", *flags]
        return subprocess.run(
            [sys.executable, "-m", "gadtmap", *argv], capture_output=True, text=True
        )

    def test_deep_term_fails_in_parser(self, program_files):
        proc = self.run_cli(program_files["nested"], 1000)
        assert proc.returncode == 2
        assert proc.stderr == "error: input nested too deeply\n"
        assert "Traceback" not in proc.stderr

    def test_deep_term_fails_in_json_rendering(self, program_files):
        proc = self.run_cli(program_files["nested"], 300, "--json")
        assert proc.returncode == 2
        assert proc.stderr == "error: input nested too deeply\n"
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize("key,term,spec,int_lits", CORPUS)
    def test_json_runs_are_byte_identical(self, program_files, capsys, key, term, spec, int_lits):
        argv = ["analyze", program_files[key], "--term", term, "--spec", spec, "--json"]
        if int_lits:
            argv.append("--int-literals")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
