"""Command-line behaviour: exit codes, JSON schema, output determinism."""
from __future__ import annotations

import json
import time

import pytest

import gadtmap as g
from gadtmap.cli import json_text, main, report_to_json

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
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: '/nonexistent/prog.gadt'\n"
        )

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gadt"
        bad.write_text("data : where")
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_deep_declaration_type_fails_with_one_line(self, tmp_path, capsys, flags):
        # The type parser recurses once per level of parentheses.
        n = 3000
        deep = tmp_path / "deep.gadt"
        deep.write_text(f"data T : Set -> Set where mk : forall a. {'(' * n}a{')' * n} -> T a")
        assert main(["validate", str(deep), *flags]) == 2
        assert capsys.readouterr() == ("", "error: input nested too deeply\n")


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

    def test_occurs_check_in_inference_exit_one(self, tmp_path, capsys):
        # `e` needs `U b (List b)` and `d` gives `U a a`, so inference must
        # solve a metavariable by a type containing it; without the occurs
        # check the solution would be cyclic.
        src = tmp_path / "occurs.gadt"
        src.write_text(
            "data List : Set -> Set where nil : forall a. List a ;"
            " cons : forall a. a -> List a -> List a\n"
            "data T : Set -> Set where t : forall a. a -> T a\n"
            "data U : Set -> Set -> Set where d : forall a. T a -> U a a\n"
            "data V : Set where e : forall b. U b (List b) -> V"
        )
        assert main(["analyze", str(src), "--term", "e (d (t nil))", "--spec", "V"]) == 1
        assert capsys.readouterr().out == (
            "status: IllTyped\ndetail: occurs check failed binding ?m3 to List ?m3\n"
        )

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

    @pytest.mark.parametrize("value", ["3", "depth=1\n", "depth="])
    def test_verify_flag_format(self, program_files, capsys, value):
        argv = ["analyze", program_files["g"], "--term", "const", "--spec", "G b1"]
        assert main([*argv, "--verify", value]) == 2
        assert capsys.readouterr().err == "error: --verify expects depth=N\n"

    def test_verify_depth_with_too_many_digits(self, program_files, capsys):
        # Past `int`'s limit on digits read from text (4300 by default).
        argv = ["analyze", program_files["g"], "--term", "const", "--spec", "G b1"]
        assert main([*argv, "--verify", "depth=" + "9" * 5000]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --verify: the depth has too many digits\n"

    def test_verify_candidate_space_is_bounded(self, program_files, capsys):
        # Pools grow doubly exponentially with the domain's depth: 1444 tuples
        # at depth 2, 2090916 at depth 3, which are refused before enumerating.
        q = "(((1,2),(3,4)),((5,6),(7,8)))"
        argv = ["analyze", program_files["nested"], "--term", f"({q}, {q})", "--spec", "b1 * b2"]
        assert main([*argv, "--verify", "depth=2"]) == 0
        assert "agrees on 1444 candidate tuple(s)" in capsys.readouterr().out
        start = time.perf_counter()
        assert main([*argv, "--verify", "depth=3"]) == 2
        assert time.perf_counter() - start < 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: --verify: 2090916 candidate tuples at depth 3, more than the 1000000 checked\n"
        )

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

    def test_opaque_candidate_in_json(self, program_files, capsys, monkeypatch):
        # A disagreement's candidates may hold opaque functions, which render
        # with their domain and codomain.
        from gadtmap import cli as cli_mod
        from gadtmap.oracle import AgreementReport, Disagreement

        phi = g.Opaque(g.Base("Nat"), g.App("List", (g.Base("Nat"),)))
        fake = AgreementReport(False, 1, [Disagreement((phi,), False, True)])
        monkeypatch.setattr(cli_mod, "agrees", lambda *a, **k: fake)
        argv = ["analyze", program_files["nested"], "--term", "cons 1 nil", "--spec", "List b1"]
        assert main([*argv, "--json", "--verify", "depth=1"]) == 3
        verify = json.loads(capsys.readouterr().out)["verify"]
        assert verify["disagreements"] == [
            {
                "candidates": [{"t": "fun", "domain": "Nat", "codomain": "List Nat"}],
                "mappable": False,
                "instance": True,
            }
        ]


def test_help_prints_the_docstring_line_for_line(capsys):
    # Not refilled into one paragraph: the usage lines and exit codes keep
    # their line breaks and indentation.
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "\n    gadtmap validate PROGRAM [--json]\n" in out
    assert g.cli.__doc__.strip() in out


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


@pytest.mark.parametrize(
    "argv", [["validate"], ["analyze", "--term", "nil", "--spec", "List b1"]]
)
def test_non_utf8_program_is_an_io_error(tmp_path, argv):
    import subprocess
    import sys

    bad = tmp_path / "bad.gadt"
    bad.write_bytes(b"\xff")
    proc = subprocess.run(
        [sys.executable, "-m", "gadtmap", argv[0], str(bad), *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


class TestDeepInput:
    """Deep terms analyse; input whose type is too deep ends in a one-line
    error and exit code 2. Each case runs in a fresh interpreter at the
    default recursion limit, where the parent process's stack depth does
    not matter."""

    @staticmethod
    def run_cli(program, term, spec, *flags):
        import subprocess
        import sys

        argv = ["analyze", program, "--term", term, "--spec", spec, *flags]
        return subprocess.run(
            [sys.executable, "-m", "gadtmap", *argv], capture_output=True, text=True
        )

    @staticmethod
    def cons_list(n):
        return "cons 0 (" * (n - 1) + "cons 0 nil" + ")" * (n - 1)

    @pytest.mark.parametrize("n", [300, 400, 1000, 1600])
    def test_deep_term_renders_as_json(self, program_files, n):
        proc = self.run_cli(program_files["nested"], self.cons_list(n), "List b1", "--json")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["status"] == "Mappable"
        assert len(out["calls"]) == n + 1

    def test_deep_term_verifies(self, program_files):
        # The oracle's checker and its `map_apply` reference recurse over the
        # term: at the default recursion limit they reach ~490 elements on
        # CPython 3.10-3.12, so one more frame per term level fails here.
        n = 400
        proc = self.run_cli(
            program_files["nested"], self.cons_list(n), "List b1", "--json", "--verify", "depth=1"
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["verify"]["agrees"] is True
        assert out["verify"]["checked"] == 2

    def test_deep_pair_nest_type_renders_as_json(self, program_files):
        # The nest's type is as deep as the term; grounding it takes no frame
        # per level.
        n = 3000
        nest = "(0, " * (n - 1) + "0" + ")" * (n - 1)
        proc = self.run_cli(program_files["nested"], nest, "b1 * b2", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "Mappable"

    def test_deep_type_fails_with_one_line(self, program_files):
        # A `Seq` chain's type is as deep as the term, and so is its form,
        # which the text renderer's `pretty_fun` recurses over.
        n = 1000
        chain = "pair (" * (n - 1) + "pair (const 0) (const 0)" + ") (const 0)" * (n - 1)
        proc = self.run_cli(program_files["seq"], chain, "Seq b1")
        assert proc.returncode == 2
        assert proc.stderr == "error: input nested too deeply\n"
        assert "Traceback" not in proc.stderr

    @staticmethod
    def nested_list(n):
        # Each level is a list of the level below, so the type is as deep as
        # the term.
        return "cons (" * (n - 1) + "cons nil nil" + ") nil" * (n - 1)

    def test_deep_nested_list_type_passes(self, program_files):
        proc = self.run_cli(program_files["nested"], self.nested_list(400), "List b1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("status: Mappable\n")

    def test_deep_nested_list_type_passes_at_800_levels(self, program_files):
        # Neither grounding the typing nor `infer`'s occurs check takes a
        # frame per type level.
        proc = self.run_cli(program_files["nested"], self.nested_list(800), "List b1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("status: Mappable\n")

    def test_deep_nested_list_type_passes_at_2000_levels(self, program_files):
        # Past the ~986 levels that grounding reached with a frame per level.
        proc = self.run_cli(program_files["nested"], self.nested_list(2000), "List b1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("status: Mappable\n")

    def test_deep_bush_spine_fails_with_one_line(self, program_files):
        # The k-th element of a `bcons` spine is a k-deep `Bush`; the walk's
        # invariant re-checks compare types as deep as the spine.
        n = 300
        spine = "bcons 1 (" + "bcons bnil (" * (n - 1) + "bnil" + ")" * n
        proc = self.run_cli(program_files["nested"], spine, "Bush b1")
        assert proc.returncode == 2
        assert proc.stderr == "error: input nested too deeply\n"


class TestInternalError:
    """A fault of the analysis itself ends in one line naming the stage, and
    exit code 3, never a traceback."""

    ARGV = ["--term", "cons 1 nil", "--spec", "List b1"]

    def test_walk_invariant_violation(self, program_files, capsys, monkeypatch):
        import gadtmap.constraints

        def fail(*args):
            raise gadtmap.constraints.InternalInvariantViolation("call 1.2: expected a pair")

        monkeypatch.setattr(gadtmap.constraints, "run", fail)
        assert main(["analyze", program_files["nested"], *self.ARGV]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: constraints: call 1.2: expected a pair\n"

    def test_unsatisfiable_constraints(self, program_files, capsys, monkeypatch):
        import gadtmap.cli
        from gadtmap.solver import SpecUnsatisfiable

        def fail(*args):
            raise SpecUnsatisfiable("head clash in <f1, g1^1>")

        monkeypatch.setattr(gadtmap.cli, "solve", fail)
        assert main(["analyze", program_files["nested"], *self.ARGV, "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: solver: head clash in <f1, g1^1>\n"

    def test_identity_tuple_not_rebuilt(self, program_files, capsys, monkeypatch):
        import gadtmap.oracle

        monkeypatch.setattr(gadtmap.oracle, "map_apply", lambda *a: None)
        argv = [*self.ARGV, "--verify", "depth=2"]
        assert main(["analyze", program_files["nested"], *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: oracle: the identity tuple does not rebuild the term\n"

    def test_checker_disagrees_with_reference(self, program_files, capsys, monkeypatch):
        import gadtmap.oracle

        monkeypatch.setattr(gadtmap.oracle.Checker, "check", lambda *a: False)
        argv = [*self.ARGV, "--verify", "depth=2"]
        assert main(["analyze", program_files["nested"], *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "internal error: oracle: identity tuple: the checker says not mappable, "
            "the rebuilt term's typing says mappable\n"
        )


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


class TestParserReuse:
    """`main` builds its argument parser once per process."""

    def test_main_reuses_one_parser(self, program_files, capsys, monkeypatch):
        import argparse

        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        assert main(["validate", program_files["g"]]) == 0
        assert main(["analyze", program_files["nested"], "--term", "nil", "--spec", "List b1"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_back_to_back_calls_keep_exit_codes_and_stderr(self, program_files, capsys):
        bad = ["analyze", program_files["nested"], "--term", "nil"]  # no --spec
        good = ["analyze", program_files["nested"], "--term", "nil", "--spec", "List b1"]
        results = []
        for argv in (bad, good, bad, ["--help"], ["--help"]):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            results.append((code, capsys.readouterr()))
        (c1, r1), (c2, r2), (c3, r3), (c4, r4), (c5, r5) = results
        assert (c1, c2, c3, c4, c5) == (2, 0, 2, 0, 0)
        assert r1.err == r3.err and "the following arguments are required: --spec" in r1.err
        assert r2.err == "" and "status: Mappable" in r2.out
        assert r4.out == r5.out and r4.out.startswith("usage: gadtmap")


class TestSpecIsATypeExpression:
    """A specification is a plain type expression: `analyze` takes one built
    by hand exactly as one from `parse_spec`."""

    def test_hand_built_spec_analyses_like_a_parsed_one(self, nested_vp):
        term = g.parse_term("cons (cons 1 nil) (cons nil nil)", nested_vp)
        parsed = g.analyze(nested_vp, term, g.parse_spec("List b1", nested_vp))
        built = g.analyze(nested_vp, term, g.App("List", (g.Var("b1"),)))
        assert built.form == parsed.form
        assert built.run.constraints == parsed.run.constraints
        assert json_text(report_to_json(built)) == json_text(report_to_json(parsed))

    def test_spec_variables_are_numbered_in_first_occurrence_order(self, seq_vp):
        term = g.parse_term("const 1", seq_vp)
        report = g.analyze(seq_vp, term, g.parse_spec("Seq ((b2 * b1) * b2)", seq_vp))
        assert report.status == "SpecMismatch"
        assert report.detail == (
            "term of type Seq Nat does not match specification Seq ((b2 * b1) * b2): "
            "type mismatch in specification: expected (?m2 * ?m3) * ?m2, found Nat"
        )
