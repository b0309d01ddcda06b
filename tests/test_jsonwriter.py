"""`cli.json_text` writes exactly what `json.dumps(value, indent=2)` writes,
for the value kinds `validate --json` reports are made of, and rejects every
other kind. The analysis report has its own writer (`test_report_json.py`)."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadtmap import cli
from gadtmap.cli import json_text, main

ROOT = Path(__file__).resolve().parent.parent

# Characters JSON must escape or that `ensure_ascii` writes as \u escapes:
# quotes, backslashes, control characters, non-ASCII, lone surrogates and
# a character outside the basic plane.
_AWKWARD = '"\\/\x00\x01\b\t\n\f\r\x1f\x7f é 𐏿\U0001f600'
_texts = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=())), max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=-(2**200), max_value=2**200))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _texts)
_trees = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids),
        st.dictionaries(_texts, kids),
        # lists of one scalar kind take a shorter path; bools are not ints
        st.lists(st.one_of(_ints, st.booleans())),
        st.lists(_texts),
    ),
    max_leaves=20,
)


def test_string_encoder_is_stdlib():
    # `cli` takes the C string encoder from `_json`; where `json.encoder`
    # uses another, strings could render differently.
    assert cli._quote is json.encoder.encode_basestring_ascii


@given(_trees)
@settings(max_examples=200)
def test_equals_stdlib(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[1, 2], []], {"b": [None]}], [True, 1, False, 0],
     ["x", 1], [None, None], [[True], [1]],
     # lists of ints are written from their `repr`; a bool among them is not an int
     [-1, 0, -(2**63)], [2**64, -(2**64) - 1, 3**90], [1, True, 0, False], [[0]], [[], [1]],
     {"p": [[1, 2], [-3]], "q": []}],
)
def test_edge_shapes_equal_stdlib(value):
    assert json_text(value) == json.dumps(value, indent=2)


class _Thing:
    pass


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1: "a"}, {("a",): 1}, _Thing(), [0, 1.0], {"a": (1,)}, [[_Thing()]]],
    ids=["float", "tuple", "int key", "tuple key", "object", "float in list",
         "tuple in dict", "nested object"],
)
def test_other_kinds_raise_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_cycle_raises_value_error():
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(loop)


@pytest.fixture()
def spy(monkeypatch):
    """Record every value `cli` hands to `json_text`."""
    seen = []

    def record(value):
        seen.append(value)
        return json_text(value)

    monkeypatch.setattr(cli, "json_text", record)
    return seen


@pytest.mark.parametrize(
    "path",
    sorted(str(p.relative_to(ROOT)) for p in (ROOT / "programs").glob("*.gadt"))
    + ["bench/seqlist.gadt"],
)
def test_validate_json_equals_stdlib(path, spy, capsys):
    assert main(["validate", str(ROOT / path), "--json"]) == 0
    (value,) = spy
    assert capsys.readouterr().out == json.dumps(value, indent=2) + "\n"


def test_shared_subtree_is_not_a_cycle():
    # A dict shared at different depths is written at each.
    leaf = {"lhs": {"t": "id", "at": "Nat"}, "origin": "1:i", "tags": [1, "a"]}
    value = {"constraints": [leaf, leaf], "calls": [{"emitted": [leaf]}, [[leaf], []]]}
    assert json_text(value) == json.dumps(value, indent=2)


def _dict_value_loop() -> dict:
    loop: dict = {"a": 1}
    loop["b"] = [loop]
    return loop


def _list_item_loop() -> dict:
    inner: list = [1]
    loop = {"k": [inner, "x"]}
    inner.append([{"back": loop["k"]}])
    return loop


@pytest.mark.parametrize("make", [_dict_value_loop, _list_item_loop], ids=["dict value", "list item"])
def test_cycle_through_container_raises_value_error(make):
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(make(), indent=2)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(make())


def _self_loop() -> list:
    loop: list = []
    loop.append(loop)
    return loop


@pytest.fixture()
def raised_limit():
    """A recursion limit of 5 000, restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("make", [_self_loop, _dict_value_loop], ids=["self", "dict value"])
def test_cycle_stops_at_max_depth_under_raised_limit(make, monkeypatch, raised_limit):
    # The writer gives up `_MAX_DEPTH` levels down, not at the recursion
    # limit, so a cycle costs the same at any limit.
    depths = []
    write = cli._write_json

    def counted(o, depth, append, levels):
        depths.append(depth + 1)
        write(o, depth, append, levels)

    monkeypatch.setattr(cli, "_write_json", counted)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(make())
    assert max(depths) <= 1001


def test_nesting_past_max_depth_raises_recursion_error_under_raised_limit(raised_limit):
    value: object = [0]  # one level per list
    for _ in range(cli._MAX_DEPTH):
        value = [value]
    with pytest.raises(RecursionError):
        json_text(value)
    assert json_text(value[0]) == json.dumps(value[0], indent=2)


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"a": v}], ids=["list", "dict"])
def test_nesting_past_recursion_limit_raises_recursion_error(wrap):
    value: object = []
    for _ in range(sys.getrecursionlimit() + 10):
        value = wrap(value)
    with pytest.raises(RecursionError):
        json.dumps(value, indent=2)
    with pytest.raises(RecursionError):
        json_text(value)


@pytest.mark.parametrize(
    "shape",
    [lambda k: [{"a": 1, "b": 2}, {k: 1}], lambda k: [{"a": 1, "b": 2}, {"a": 1, k: 2}],
     lambda k: [{"a": {"b": 1}}, {"a": {"b": 2, k: 3}}]],
    ids=["first key", "later key", "deeper"],
)
def test_non_str_key_after_cached_keys_raises_type_error(shape):
    with pytest.raises(TypeError):
        json.dumps(shape(("a",)), indent=2)
    for key in [("a",), 1]:  # the stdlib writes an int key as a string
        with pytest.raises(TypeError):
            json_text(shape(key))

