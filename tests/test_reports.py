"""Tests for the report serialisation helpers."""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coblim.reports import CheckResult, jsonable, quantiles


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
