"""Tests for the report serialisation helpers."""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coblim.reports import CheckResult, canonical_json, csv_text, jsonable, quantiles
from oracles import csv_lines, json_text


@dataclass
class _Outer:
    label: str
    checks: List[CheckResult]
    extras: Dict[str, Any] = field(default_factory=dict)


def test_jsonable_leaves_and_nested_dataclass():
    # numpy scalars become their exact Python types, plain types pass through
    for value, expected in [(np.float64(0.1), 0.1), (np.bool_(True), True), (True, True),
                            (False, False), (3, 3), (2.5, 2.5), ("s", "s"), (None, None),
                            (np.int64(7), 7)]:
        out = jsonable(value)
        assert out == expected and type(out) is type(expected), value
    assert jsonable(Fraction(-3, 4)) == "-3/4"
    assert jsonable(Fraction(5)) == "5/1"
    outer = _Outer("x", [CheckResult("c", True, np.float64(0.25), "d")],
                   {1: (Fraction(1, 3), np.arange(2)), "none": None})
    assert jsonable(outer) == {
        "label": "x",
        "checks": [{"name": "c", "passed": True, "margin": 0.25, "detail": "d"}],
        "extras": {"1": ["1/3", [0, 1]], "none": None},
    }


# signed zeros compare equal, so which of them a sort or a partition puts at
# an index is not fixed; the sample holds +0.0 only
_samples = st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64)
                    .map(lambda x: x + 0.0), min_size=1, max_size=40)
_ties = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40)
_qs = st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1,
               max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_samples, _ties), _qs)
def test_quantiles_bit_identical_to_np_quantile(sample, qs):
    # n = 1, q = 0 and q = 1, ties, and values of any size
    x = np.asarray(sample)
    got = np.asarray(quantiles(x, qs))
    want = np.asarray([np.quantile(x, q) for q in qs])
    assert got.tobytes() == want.tobytes(), (sample, qs, got, want)
    assert quantiles(x[:1], qs) == [float(x[0])] * len(qs)


# Values for the artifact formatters: strings with the characters that the
# encoder's separator, the row placement and JSON escape touch, keys that
# collide once made str, every numpy kind a report holds, and row tables.
_strings = st.one_of(st.text(max_size=6),
                     st.sampled_from(["%s", "%%", "\0", '"', "\\", "\n", "\u00e9", ",", "}", "1"]))
_keys = st.one_of(_strings, st.integers(-2, 2))
_floats = st.floats(width=64)
_flat = st.one_of(st.none(), st.booleans(), st.integers(), _floats, _strings,
                  _floats.map(np.float64))
_scalars = st.one_of(
    _flat, st.fractions(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.floats(width=32).map(np.float32), _floats.map(np.asarray),
    st.lists(st.tuples(_floats, _floats), max_size=3).map(np.array))
_tables = st.one_of(
    # one key set per table
    st.lists(_keys, min_size=1, max_size=4).flatmap(lambda keys: st.lists(
        st.fixed_dictionaries({k: _flat for k in keys}), min_size=1, max_size=4)),
    # key sets that may differ between rows
    st.lists(st.dictionaries(st.sampled_from(["a", "b", "%s"]), _flat, max_size=3),
             min_size=1, max_size=4),
    # a list cell, like exact_rows' window
    st.lists(st.fixed_dictionaries({"n": st.integers(), "window": st.lists(st.integers(),
                                                                            max_size=2)}),
             min_size=1, max_size=3))


@dataclass
class _Pair:
    left: Any
    right: Any


_values = st.recursive(
    st.one_of(_scalars, _tables),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_keys, inner, max_size=4),
                            st.builds(_Pair, inner, inner)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_values)
@example({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "-0": -0.0,
          "tiny": 5e-324, "np_nan": np.float64("nan"),
          "rows": [{"x": float("nan"), "y": -0.0}, {"x": np.float64("-inf"), "y": 5e-324}]})
@example([10**30, np.int64(-7), np.bool_(False), np.asarray(2.5), np.arange(6).reshape(2, 3)])
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}], "d": [[]], "e": {"f": {"g": [], "h": {}}},
          "i": [[{}], {"j": []}], "k": _Pair({}, [])})
@example({1: "int", "1": "str", "%s": 1, "%%": [2], "rows": [{"%s": 1, "%%": 2.5},
                                                           {"%s": 3, "%%": 4.5}],
          "keyed": [{1: "a", "1": "b"}, {1: "c", "1": "d"}]})
@example(["a\0b", '"', "\\", "\n", "\u00e9", {"\0\"\\\n\u00e9": "\0"},
          [{"s": "x\0y", "t": '"\\\n\u00e9'}, {"s": "}\0{", "t": "},{"}]])
@example({"rows": [{"a": 1, "b": 2}, {"a": 3, "c": 4}], "empty": [{"a": 1}, {}]})
@example({"rows": [{"n": 1, "window": [2, 3]}, {"n": 4, "window": (5, 6)}]})
def test_canonical_json_is_the_indented_json_dumps_text(value):
    assert canonical_json(value) == json_text(value)


def test_canonical_json_of_containers_past_the_c_encoders_chunk_size():
    # CPython 3.10 and 3.11 hand the C encoder's text back in chunks of
    # 100,000 pieces, about two per scalar, so each of these spans several.
    value = {"floats": [i / 7 for i in range(60_000)],
             "rows": [{k: i + j / 3 for j, k in enumerate("abcdefg")} for i in range(10_000)]}
    assert canonical_json(value) == json_text(value)


_numbers = st.one_of(st.integers(), _floats, st.booleans(), _floats.map(np.float64))
_cells = st.one_of(_numbers, st.none(), _strings, st.fractions(),
                   st.integers(-9, 9).map(np.int64), st.booleans().map(np.bool_))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.sampled_from(["n", "eps", "%s", "x y"]), min_size=width, max_size=width),
    st.one_of(st.lists(st.lists(_numbers, min_size=width, max_size=width), max_size=5),
              st.lists(st.lists(_cells, min_size=width, max_size=width), max_size=5)))),
    st.sampled_from(["\n", "\r\n"]))
@example((["a", "b"], [[float("nan"), -0.0], [5e-324, np.float64("inf")]]), "\n")
@example((["a", "b"], [[Fraction(1, 3), None], [np.int64(2), np.bool_(True)]]), "\r\n")
@example((["a", "b"], [[1, "x y"], [2.5, "z"]]), "\n")
@example((["a"], []), "\n")
@example((["a", "b"], [[1, 2, 3], [4]]), "\n")
def test_csv_text_is_the_per_cell_join(table, eol):
    header, rows = table
    assert csv_text(header, rows, eol) == csv_lines(header, rows, eol)
    assert csv_text(header, map(iter, rows), eol) == csv_lines(header, rows, eol)

