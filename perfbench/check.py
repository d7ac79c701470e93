"""Output check of one benchmark operation against its recorded reference.

A reference (see ``record_refs.py``) holds, per operation and seed, the exit
code, the ``[PASS]/[FAIL]`` verdict lines of standard output and the sha256
of every artifact except ``manifest.json``, whose timestamps change on every
run.

* Byte-identical operations must match all three exactly.
* The quadrature criteria must match the exit code and each verdict's
  status and name.  Its ``report.json`` is compared value by value: an
  integral ``value`` must lie within its own reported ``error`` plus the
  reference's; a projective norm ``X`` within its ``X_floor`` plus the
  reference's (the floor is the quadrature error carried through the root
  that turns the integral into the norm).  Every other number is derived from
  those and must lie within the sum of all of them.  Booleans and strings
  other than the human-readable ``detail`` must be equal; ``evals`` and
  ``subdivisions`` count work and are not compared.  A changed digest is
  reported as information only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

WORK_COUNTERS = frozenset({"evals", "subdivisions"})


def digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every artifact in ``out_dir`` except ``manifest.json``."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def verdict_lines(stdout: str) -> List[str]:
    return [line.strip() for line in stdout.splitlines()
            if line.strip().startswith(("[PASS]", "[FAIL]"))]


def _verdict_names(lines: List[str]) -> List[str]:
    return [line.split(" (margin=")[0] for line in lines]


def observe(exit_code: int, stdout: str, out_dir: Path) -> Dict[str, Any]:
    """What the check compares, in the reference's format."""
    return {"exit": exit_code, "verdicts": verdict_lines(stdout), "digests": digests(out_dir)}


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_report(cur: Any, ref: Any) -> List[str]:
    """Problems found comparing a quadrature report.json with its reference."""
    problems: List[str] = []
    derived: List[Tuple[str, float, float]] = []
    budget = [0.0]

    def walk(c: Any, r: Any, path: str) -> None:
        if isinstance(r, dict):
            if not isinstance(c, dict) or set(c) != set(r):
                problems.append(f"{path}: keys differ from the reference")
                return
            for key in r:
                sub = f"{path}/{key}"
                cv, rv = c[key], r[key]
                if not _is_number(rv):
                    if key != "detail":
                        walk(cv, rv, sub)
                    continue
                if not _is_number(cv):
                    problems.append(f"{sub}: {cv!r} is not a number")
                    continue
                if key in WORK_COUNTERS or key == "error" or key.endswith(("_error", "_floor")):
                    continue
                if key == "value" and "error" in r:
                    tol = c["error"] + r["error"]
                elif f"{key}_floor" in r:
                    tol = c[f"{key}_floor"] + r[f"{key}_floor"]
                else:
                    derived.append((sub, cv, rv))
                    continue
                budget[0] += tol
                if not abs(cv - rv) <= tol:
                    problems.append(f"{sub}: {cv!r} differs from {rv!r} by more than {tol:.3g}")
        elif isinstance(r, list):
            if not isinstance(c, list) or len(c) != len(r):
                problems.append(f"{path}: list length differs from the reference")
                return
            for i, (cv, rv) in enumerate(zip(c, r)):
                if _is_number(rv):
                    if not _is_number(cv):
                        problems.append(f"{path}/{i}: {cv!r} is not a number")
                    else:
                        derived.append((f"{path}/{i}", cv, rv))
                else:
                    walk(cv, rv, f"{path}/{i}")
        elif c != r:
            problems.append(f"{path}: {c!r} differs from {r!r}")

    walk(cur, ref, "")
    for path, cv, rv in derived:
        if cv != rv and not abs(cv - rv) <= budget[0]:
            problems.append(f"{path}: {cv!r} differs from {rv!r} by more than {budget[0]:.3g}")
    return problems


def check_op(byte_identical: bool, ref: Dict[str, Any], seen: Dict[str, Any],
             out_dir: Path) -> Tuple[List[str], List[str]]:
    """(problems, notes) for one operation; any problem makes it a failed run."""
    problems: List[str] = []
    notes: List[str] = []
    if seen["exit"] != ref["exit"]:
        problems.append(f"exit code {seen['exit']}, reference {ref['exit']}")
    if byte_identical:
        if seen["verdicts"] != ref["verdicts"]:
            problems.append("verdict lines differ from the reference")
        if seen["digests"] != ref["digests"]:
            changed = sorted(k for k in set(seen["digests"]) | set(ref["digests"])
                             if seen["digests"].get(k) != ref["digests"].get(k))
            problems.append(f"artifacts differ from the reference: {', '.join(changed)}")
        return problems, notes
    if _verdict_names(seen["verdicts"]) != _verdict_names(ref["verdicts"]):
        problems.append("verdicts differ from the reference")
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        problems.append("report.json missing")
    else:
        problems += _compare_report(json.loads(report_path.read_text(encoding="utf-8")),
                                    ref["report"])
    if seen["digests"] != ref["digests"]:
        notes.append("artifact digests differ from the reference (values within error)")
    return problems, notes
