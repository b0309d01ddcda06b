"""Self-tests of the benchmark: generators, expected-result derivation and
output checks.

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import call, check, read_fun  # noqa: E402
from workloads import (  # noqa: E402
    BOOL,
    NAT,
    PROBE_LADDER,
    WORKLOADS,
    Forms,
    List,
    T,
    canonical,
    count_candidates,
    g_const,
    g_flat,
    g_inj,
    g_projpair,
    gen_g,
    list_of_lists,
    prod,
    probe_request,
    q_pairing,
    seq_request,
)

gadtmap = pytest.importorskip("gadtmap")
from gadtmap.cli import main  # noqa: E402


def _corpus() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("corpus_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return [(term, spec_text) for _, term, spec_text, _ in mod.CORPUS]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert WORKLOADS[name](7) == WORKLOADS[name](7)
    assert WORKLOADS[name](7) != WORKLOADS[name](8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_generated_term_parses_and_typechecks(name):
    programs = {}
    for req in WORKLOADS[name](3):
        if req.program not in programs:
            text = (ROOT / req.program).read_text()
            programs[req.program] = gadtmap.validate(gadtmap.parse_program(text))
        vp = programs[req.program]
        typed = gadtmap.infer(gadtmap.parse_term(req.term, vp), vp)
        spec = gadtmap.parse_spec(req.spec, vp)
        gadtmap.check_call_invariants(typed, spec, gadtmap.spec_head_arity(spec, vp))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_the_derived_expectations(name):
    for req in WORKLOADS[name](11)[:12]:
        rc, out, _ = call(main, req.argv(str(ROOT)))
        assert check(req, rc, out) is None, (req.spec, req.term)


def _form(text: str) -> tuple:
    return canonical((read_fun(text),))


def test_derivation_reproduces_the_acceptance_forms():
    corpus = _corpus()

    req = seq_request(_Script(["tt", "2", "5"]), [BOOL, NAT, NAT], False, ())
    assert (req.term, req.spec) in corpus
    assert req.form == _form("(f'1 * f'2) * f'3")
    assert (req.calls, req.constraints) == (5, 7)  # acceptance criterion 1

    req = seq_request(_Script(["1", "2"]), [NAT, NAT], True, ())
    assert (req.term, req.spec) in corpus
    assert req.form == _form("Seq (f'1 * f'2)")

    for payload, expected in ((_inj_list, "f'1 * id@Nat"), (_flat_const, "List (id@Nat) * id@Nat")):
        forms = Forms()
        half = q_pairing(forms, g_inj(forms, T("2", True, 1, NAT)), g_const())
        term = g_projpair(payload(forms), half)
        assert (term.t.text, "G b1") in corpus
        assert canonical((forms.resolve(term.form),)) == _form(expected)

    lists = "cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)"
    for deep, spec, expected in ((True, "List (List b1)", "List f'1"), (False, "List b1", "f'1")):
        req = list_of_lists(_Script(["1", "2", "3"], extra=[0]), 2, 3, deep, ())
        assert (req.term, req.spec) == (lists, spec) and (lists, spec) in corpus
        assert req.form == _form(expected)
    assert req.calls == 3
    deep = list_of_lists(_Script(["1", "2", "3"], extra=[0]), 2, 3, True, ())
    assert deep.calls == deep.constraints == 8  # the README's "constraints (8)"


def _inj_list(forms):
    return g_inj(forms, T("cons 2 nil", False, 3, List(NAT)))


def _flat_const(forms):
    return g_flat(forms, [g_const()])


def test_forms_compare_up_to_renaming_and_identity_expansion():
    assert _form("f'2 * f'1") == _form("f'1 * f'2")
    assert _form("f'1 * f'1") != _form("f'1 * f'2")
    assert _form("id@(Nat * Nat)") == _form("id@Nat * id@Nat")
    assert _form("id@(List Nat)") == _form("List (id@Nat)")
    assert _form("List (id@Nat) * id@Nat") != _form("List f'1 * id@Nat")


def test_candidate_count_matches_the_oracle_example():
    # pair (pair (const (cons 1 nil)) (const (2, tt))) (const (inl 5 : Nat + Bool))
    domain = prod(prod(List(NAT), prod(NAT, BOOL)), ("+", NAT, BOOL))
    assert count_candidates(domain, 3) == 158


def test_unification_of_g_halves():
    forms = Forms()
    rng = random.Random(5)
    for _ in range(200):
        g = gen_g(rng, forms, prod(NAT, List(NAT)), 4)
        assert canonical((forms.resolve(g.form),))  # never raises


def _wrong_form(data):
    data["form"] = [{"t": "id", "at": "Nat"}]


def _disagree(data):
    data["verify"]["agrees"] = False


def _miscount(data):
    data["verify"]["checked"] += 1


def _lose_essential(data):
    data["annotation"]["essentialPaths"].pop()


def _lose_call(data):
    data["calls"].pop()


@pytest.mark.parametrize("mutate", [_wrong_form, _disagree, _miscount, _lose_essential,
                                    _lose_call])
def test_check_rejects_wrong_output(mutate):
    req = WORKLOADS["oracle-verify"](2)[-1]  # a list of lists under List (List b1)
    rc, out, _ = call(main, req.argv(str(ROOT)))
    assert check(req, rc, out) is None
    data = json.loads(out)
    mutate(data)
    assert check(req, rc, json.dumps(data, indent=2)) is not None


def test_check_reads_text_output():
    req = WORKLOADS["gadt-wide"](2)[0]
    rc, out, _ = call(main, req.argv(str(ROOT)))
    assert check(req, rc, out) is None
    assert check(req, rc, out.replace("[", "", 1)) is not None  # one fewer incidental
    assert check(req, rc, out.replace("form: (", "form: id@Nat * (", 1)) is not None


def test_check_rejects_a_failed_exit():
    req = probe_request(PROBE_LADDER[0])
    assert check(req, 1, "") == "exit code 1"
    assert check(req, "RecursionError: maximum recursion depth exceeded", "")


def test_probe_rung_below_the_limit_succeeds():
    req = probe_request(PROBE_LADDER[0])
    rc, out, _ = call(main, req.argv(str(ROOT)))
    assert check(req, rc, out) is None


class _Script(random.Random):
    """A random source that yields scripted literals (`randint`, `choice`)
    and scripted indices (`randrange`)."""

    def __init__(self, lits, extra=()):
        super().__init__(0)
        self.lits = iter(lits)
        self.extra = list(extra)

    def randint(self, a, b):
        return int(next(self.lits))

    def choice(self, seq):
        return next(self.lits)

    def randrange(self, n):
        return self.extra.pop(0)
