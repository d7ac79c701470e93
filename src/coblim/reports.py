"""Shared report structures and the one artifact formatter.

Every analysis in the package funnels its verdicts through CriteriaReport so
the CLI can exit nonzero when a hard check fails.  Every artifact's text
comes from ``canonical_json`` (sorted keys, trailing newline, repr-floats),
``csv_text`` or ``plot_text``, so repeated runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from typing import Any, Dict, List, Sequence

__all__ = [
    "CheckResult",
    "CriteriaReport",
    "canonical_json",
    "config_hash",
    "csv_text",
    "jsonable",
    "plot_text",
]


_PLAIN_TYPES = frozenset({float, int, str, bool, type(None)})


def jsonable(obj: Any) -> Any:
    """Recursively convert report values into JSON-stable primitives.

    Fractions become exact "num/den" strings; a dataclass instance becomes
    the dict of its fields, so a report's JSON shape is its field list;
    numpy scalars/arrays become Python scalars/lists; floats stay floats
    (json uses repr, which is deterministic and round-trips).  Values of the
    exact plain types are returned at once; their subclasses (np.float64)
    take the branches below.
    """
    if type(obj) in _PLAIN_TYPES:
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return jsonable(obj.tolist())
    if hasattr(obj, "item") and not isinstance(obj, (int, float, str, bool)):
        return obj.item()
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def _cell(v: Any) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        # repr of the value itself, so float subclasses such as np.float64
        # keep their own repr.
        return repr(v)
    return "" if v is None else str(v)


def csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]], eol: str) -> str:
    """Comma-joined table: Fractions as exact "n/d", floats as repr, None empty.

    Cells are never quoted.  ``eol`` ends every line, header included.
    """
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return eol.join(lines) + eol


def plot_text(xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Plain two-column plot data, one ``x y`` pair per line; Fractions as float."""
    def cell(v: Any) -> str:
        return _cell(float(v) if isinstance(v, Fraction) else v)

    return "\n".join(f"{cell(x)} {cell(y)}" for x, y in zip(xs, ys)) + "\n"


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

