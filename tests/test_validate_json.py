"""`validate --json` is written by shape, as the analysis report is
(`test_report_json.py`): `cli._validate_json` and the pieces it is built from,
`_scalar_json` and `_list_json`, must write exactly what
`json.dumps(value, indent=2)` writes for the report built as dicts, which
`reference` below does, as the CLI did before it wrote the text directly."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadtmap as g
from gadtmap import cli
from gadtmap.cli import main
from gadtmap.parser import parse_program
from gadtmap.wellformed import Diagnostic

from conftest import PROGRAMS_DIR

ROOT = PROGRAMS_DIR.parent


def reference(program: g.Program, vp, errors) -> dict:
    return {
        "decls": [
            {"name": d.name, "arity": d.arity, "constructors": [c.name for c in d.ctors]}
            for d in program.decls
        ],
        "properFlags": vp.proper_flags if vp else None,
        "errors": [{"code": e.code, "message": e.message} for e in errors],
    }


def checked(program: g.Program):
    """`program`'s validated form and diagnostics, as `cmd_validate` gets them."""
    try:
        return g.validate(program), []
    except g.WellformedError as e:
        return None, e.errors


# ---------------------------------------------------------------------------
# The command, end to end

_FILES = sorted(str(p.relative_to(ROOT)) for p in PROGRAMS_DIR.glob("*.gadt")) + [
    "bench/seqlist.gadt"
]

_VALID = {
    "empty": "",
    "nullary": "data U : Set where u : U",
    "binary": "data P : Set -> Set -> Set where mk : forall a b. a -> b -> P a b",
    "no constructors": "data E : Set -> Set where",
    "argument mentions proper": (
        "data Seq : Set -> Set where const : forall a. a -> Seq a ; "
        "pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
        "data H : Set -> Set where ok : forall a. H (Seq a) -> H a"
    ),
    "index mentions plain nested": (
        "data List : Set -> Set where nil : forall a. List a ; "
        "cons : forall a. a -> List a -> List a\n"
        "data G : Set -> Set where flat : forall a. List (G a) -> G (List a)"
    ),
    "products and sums in indices": (
        "data P : Set -> Set where c : forall a b. a -> b -> P ((a * b) + Nat)"
    ),
    "mutual recursion": (
        "data Even : Set -> Set where ez : forall a. Even a ; "
        "es : forall a. Odd a -> Even a\n"
        "data Odd : Set -> Set where os : forall a. Even a -> Odd a"
    ),
    "declaration order": (
        "data B : Set -> Set where cb : forall x. A x -> B x\n"
        "data A : Set -> Set where ca : forall x. B x -> A x"
    ),
}

_INVALID = {
    "mentions proper": (
        "data Seq : Set -> Set where pair : forall a b. Seq a -> Seq b -> Seq (a * b)\n"
        "data H : Set -> Set where c : forall a. a -> H (Seq a)"
    ),
    "mentions self": "data L : Set -> Set where c : forall a. a -> L (L a)",
    "unknown constructor": "data A : Set -> Set where c : forall a. Mystery a -> A a",
    "arity misuse": (
        "data List : Set -> Set where nil : forall a. List a\n"
        "data A : Set -> Set where c : forall a. List a a -> A a"
    ),
    "several errors": (
        "data L : Set -> Set where c : forall a. Mystery a -> L (L a) ; "
        "d : forall a. L a a -> L a"
    ),
    "valid beside invalid": (
        "data U : Set where u : U\n"
        "data L : Set -> Set where c : forall a. a -> L (L a)"
    ),
}


def _run(path, capsys) -> tuple[int, str]:
    code = main(["validate", str(path), "--json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("path", _FILES)
def test_program_files_equal_reference(path, capsys):
    code, out = _run(ROOT / path, capsys)
    program = parse_program((ROOT / path).read_text(encoding="utf-8"))
    vp, errors = checked(program)
    assert code == 0 and vp is not None
    assert out == json.dumps(reference(program, vp, errors), indent=2) + "\n"


@pytest.mark.parametrize(
    "src, code",
    [(s, 0) for s in _VALID.values()] + [(s, 1) for s in _INVALID.values()],
    ids=[f"valid {k}" for k in _VALID] + [f"invalid {k}" for k in _INVALID],
)
def test_programs_equal_reference(src, code, tmp_path, capsys):
    path = tmp_path / "p.gadt"
    path.write_text(src, encoding="utf-8")
    assert _run(path, capsys) == (
        code,
        json.dumps(reference(parse_program(src), *checked(parse_program(src))), indent=2) + "\n",
    )


_NIL = g.ConstructorSig("nil", ("a",), (), (g.Var("a"),))
_MK = g.ConstructorSig("mk", ("a",), (g.Var("a"), g.Meta(0)), (g.Var("a"),))


# The parser refuses both of these, so no program file can reach them.
@pytest.mark.parametrize(
    "ctors", [(_NIL, _NIL), (_MK,)], ids=["duplicate constructor", "metavariable argument"]
)
def test_unparsable_programs_equal_reference(ctors):
    program = g.Program((g.GadtDecl("L", 1, ctors),))
    vp, errors = checked(program)
    assert vp is None and [e.code for e in errors] == ["BadArgForm"]
    assert cli._validate_json(program, vp, errors) == json.dumps(
        reference(program, vp, errors), indent=2
    )


# ---------------------------------------------------------------------------
# Names and messages the parser never makes

# Characters JSON must escape or that `ensure_ascii` writes as \u escapes:
# quotes, backslashes, control characters, non-ASCII, lone surrogates and
# a character outside the basic plane.
_AWKWARD = '"\\/\x00\x01\b\t\n\f\r\x1f\x7f é \ud800 𐏿\U0001f600'
_texts = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=())), max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=-(2**200), max_value=2**200))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _texts)


class _Validated:
    """The part of a `ValidatedProgram` the writer reads."""

    def __init__(self, proper_flags: dict[str, bool]) -> None:
        self.proper_flags = proper_flags


_decls = st.builds(
    g.GadtDecl,
    _texts,
    st.integers(min_value=0, max_value=3),
    st.lists(st.builds(g.ConstructorSig, _texts, st.just(()), st.just(()), st.just(())), max_size=3)
    .map(tuple),
)


@given(
    st.lists(_decls, max_size=3).map(lambda ds: g.Program(tuple(ds))),
    st.one_of(st.none(), st.dictionaries(_texts, st.booleans(), max_size=3).map(_Validated)),
    st.lists(st.builds(Diagnostic, _texts, _texts), max_size=3),
)
@settings(max_examples=100)
def test_awkward_reports_equal_reference(program, vp, errors):
    assert cli._validate_json(program, vp, errors) == json.dumps(
        reference(program, vp, errors), indent=2
    )


# ---------------------------------------------------------------------------
# The pieces


_SCALAR_CASES = [None, True, False, 0, 1, -1, -(2**63), 2**64, 3**90, -(2**200) - 1,
                 "", "plain", *_AWKWARD.split(" ")]


@pytest.mark.parametrize(
    "value", _SCALAR_CASES, ids=[f"{type(v).__name__}{i}" for i, v in enumerate(_SCALAR_CASES)]
)
def test_scalar_equals_stdlib(value):
    assert cli._scalar_json(value) == json.dumps(value)


@given(_scalars)
@settings(max_examples=200)
def test_scalars_equal_stdlib(value):
    assert cli._scalar_json(value) == json.dumps(value)


class _Thing:
    pass


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), b"x", _Thing()], ids=["float", "tuple", "bytes", "object"]
)
def test_other_kinds_are_refused(value):
    # JSON has no such scalar; the writer fails rather than invent one.
    with pytest.raises(KeyError):
        cli._scalar_json(value)


def _write(value, depth: int = 0) -> str:
    """`value`, a tree of lists over scalars, written with the pieces at
    `depth` levels of indentation, as the report writers use them."""
    if isinstance(value, list):
        return cli._list_json([_write(v, depth + 1) for v in value], "\n" + "  " * depth)
    return cli._scalar_json(value)


def test_line_breaks_are_the_indent_levels():
    assert (cli._L1, cli._L2, cli._L3, cli._L4) == tuple("\n" + "  " * d for d in range(1, 5))


@pytest.mark.parametrize(
    "value",
    [[], [[]], [[], [1]], [[[1, 2], []]], ["x", 1, None, True], [[[[["deep"]]]]]],
)
def test_list_equals_stdlib(value):
    assert _write(value) == json.dumps(value, indent=2)


@given(st.recursive(_scalars, st.lists, max_leaves=20))
@settings(max_examples=200)
def test_trees_equal_stdlib(value):
    assert _write(value) == json.dumps(value, indent=2)
