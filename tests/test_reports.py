"""Tests for the report serialisation helpers."""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List

import numpy as np

from coblim.reports import CheckResult, jsonable


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
