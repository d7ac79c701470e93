"""Shared report structures and the one artifact formatter.

Every analysis in the package funnels its verdicts through CriteriaReport so
the CLI can exit nonzero when a hard check fails.  Every artifact's text
comes from ``canonical_json`` (sorted keys, trailing newline, repr-floats),
``csv_text`` or ``plot_text``, so repeated runs are byte-identical.
``canonical_json`` is one walk that converts report values as ``jsonable``
does and writes the indentation of ``json.dumps(indent=2)``; the stdlib's C
encoder formats the scalars, one call per container or per row table.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

__all__ = [
    "CheckResult",
    "CriteriaReport",
    "canonical_json",
    "config_hash",
    "csv_text",
    "jsonable",
    "plot_text",
    "quantiles",
]


_PLAIN_TYPES = frozenset({float, int, str, bool, type(None)})
_NESTED = (dict, list, tuple)
# Scalars the C encoder writes as json.dumps writes their jsonable value:
# np.float64 is a float subclass, written by float's repr as its tolist() is.
_FLAT = _PLAIN_TYPES | {np.float64}
# Item separator "\0": ensure_ascii escapes every NUL inside a string, so
# each raw NUL of the output is a separator.
_ENCODE = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", "\0", True, False, True)


def _encode(obj: Any) -> str:
    """``obj``'s compact JSON text; the C encoder may return it in several
    chunks (CPython 3.10 and 3.11 flush every 100,000), so they are joined."""
    return "".join(_ENCODE(obj, 0))


def _step(obj: Any) -> Any:
    """One level of ``jsonable``; a container's values are left as they are."""
    if type(obj) in _PLAIN_TYPES:
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return _step(obj.tolist())
    return obj


def jsonable(obj: Any) -> Any:
    """Recursively convert report values into JSON-stable primitives.

    Fractions become exact "num/den" strings; a dataclass instance becomes
    the dict of its fields, so a report's JSON shape is its field list; dict
    keys become ``str`` (a later duplicate wins); numpy scalars/arrays become
    Python scalars/lists; floats stay floats (json uses repr, which is
    deterministic and round-trips).  Values of the exact plain types are
    returned at once; their subclasses (np.float64) take the numpy branch.
    """
    obj = _step(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """``json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"``, byte for byte."""
    return _text(_step(obj), "\n") + "\n"


def _text(obj: Any, nl: str) -> str:
    """The text of a ``_step``-converted value whose own lines start ``nl``."""
    if not isinstance(obj, _NESTED):
        return _encode(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    if _table(obj):
        # Every raw NUL is a separator; only one between rows follows a "}".
        cell = inner + "  "
        body = _encode(obj)[2:-2].replace("}\0{", inner + "}," + inner + "{" + cell)
        return "[" + inner + "{" + cell + body.replace("\0", "," + cell) + inner + "}" + nl + "]"
    keys = sorted(obj) if isinstance(obj, dict) else None
    vals = [_step(v) for v in (obj if keys is None else map(obj.get, keys))]
    texts = _encode([None if isinstance(v, _NESTED) else v for v in vals])[1:-1]
    texts = [_text(v, inner) if isinstance(v, _NESTED) else t
             for v, t in zip(vals, texts.split("\0"))]
    if keys is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    texts = [encode_basestring_ascii(k) + ": " + t for k, t in zip(keys, texts)]
    return "{" + inner + ("," + inner).join(texts) + nl + "}"


def _table(obj: Any) -> bool:
    """Whether ``obj`` is a list of nonempty dicts with str keys and flat
    scalar values, which the C encoder writes whole, each row's keys sorted."""
    return (not isinstance(obj, dict) and set(map(type, obj)) == {dict} and all(obj)
            and set(map(type, chain.from_iterable(obj))) == {str}
            and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _FLAT)


def _cell(v: Any) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        # repr of the value itself, so float subclasses such as np.float64
        # keep their own repr.
        return repr(v)
    return "" if v is None else str(v)


def csv_text(header: Sequence[str], rows: Iterable[Iterable[Any]], eol: str) -> str:
    """Comma-joined table: Fractions as exact "n/d", floats as repr, None empty.

    Cells are never quoted.  ``eol`` ends every line, header included.
    """
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return eol.join(lines) + eol


def plot_text(xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Plain two-column plot data, one ``x y`` pair per line; Fractions as float."""
    def cell(v: Any) -> str:
        return _cell(float(v) if isinstance(v, Fraction) else v)

    return "\n".join(f"{cell(x)} {cell(y)}" for x, y in zip(xs, ys)) + "\n"


def quantiles(x: np.ndarray, qs: Sequence[float]) -> List[float]:
    """np.quantile(x, q) for each q in [0, 1], bit for bit, for a 1-D sample
    without NaN, and without the numpy.ma import np.quantile makes on first
    use.  numpy's linear method: with s = sorted x and v = (n - 1) q, it
    takes a + (b - a) t for t < 0.5 and b - (b - a)(1 - t) otherwise, with
    a = s[i], b = s[i + 1] and t = v - i for i = floor v; for v >= n - 1,
    a = b = s[n - 1] and t = v + 1.  Like numpy, it partitions a copy of x
    at those indices instead of sorting it."""
    last, picks = x.shape[0] - 1, []
    for q in qs:
        v = last * q
        i, t = (last, v + 1) if v >= last else (math.floor(v), v - math.floor(v))
        picks.append((i, min(i + 1, last), t))
    s = np.partition(x, sorted({k for i, j, _ in picks for k in (i, j)}))
    out = []
    for i, j, t in picks:
        a, b = float(s[i]), float(s[j])
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def config_hash(config: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of a config mapping."""
    payload = json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CheckResult:
    """One named check: pass/fail plus a numeric margin (positive = slack)."""

    name: str
    passed: bool
    margin: float = 0.0
    detail: str = ""


@dataclass
class CriteriaReport:
    """A bundle of checks with context (exponents, decision rules, tables)."""

    title: str
    checks: List[CheckResult] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, passed: bool, margin: float = 0.0, detail: str = "") -> CheckResult:
        result = CheckResult(name=name, passed=bool(passed), margin=float(margin), detail=detail)
        self.checks.append(result)
        return result

    def absorb(self, tag: str, sub: "CriteriaReport") -> None:
        """Take over ``sub``'s checks, named ``[tag] ...``, and nest it in context[tag]."""
        self.checks.extend(replace(c, name=f"[{tag}] {c.name}") for c in sub.checks)
        self.context[tag] = sub.to_dict()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "all_passed": self.all_passed,
            "checks": jsonable(self.checks),
            "context": jsonable(self.context),
        }

    def summary_lines(self) -> List[str]:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name} (margin={c.margin:.6g}) {c.detail}".rstrip())
        return lines

