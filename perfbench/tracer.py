"""Span recorder for the traced benchmark pass, installed from outside coblim.

Every target is a public function of a coblim module.  ``coblim.cli`` and
the other modules import these functions by name, so ``Tracer.install``
replaces each attribute of each loaded ``coblim`` module that holds the
original function, and ``Tracer.uninstall`` puts every one back.  A span
records its name, start, end and parent span.  Spans stay in memory;
``Tracer.metrics`` turns them into per-layer figures after the pass.

Metric names, for a target ``<module>.<function>``:

* ``<module>.<function>_s``      summed wall time of its spans
* ``<module>.<function>_self_s`` the same minus the time of its child spans
* ``<module>.<function>_calls``  number of spans

plus the exact work counters in ``COUNTERS``, which are read from each
call's arguments or result.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

Counts = Dict[str, int]
CountFn = Callable[[Mapping[str, Any], Any], Counts]


def _orbit_cells(args: Mapping[str, Any], result: Any) -> Counts:
    # Computed, not measured: one float64 per path and orbit step up to the
    # top horizon, which is what the report materialises per path.
    cfg = args["cfg"]
    return {"mc_harness.orbit_cells": cfg.paths * (cfg.horizons[-1] + 1)}


def _condition16_cells(args: Mapping[str, Any], result: Any) -> Counts:
    # On the odometer condition16 reads window maxima over all residues and
    # gathers no orbits.
    return _orbit_cells(args, result) if args["cfg"].system == "shift" else {}


def _weak_norm_jumps(args: Mapping[str, Any], result: Any) -> Counts:
    profile = args["profile"]
    rep = getattr(profile, "rep", profile)
    return {"weak_tails.weak_norm_jumps": len(getattr(rep, "pairs", ()))}


# (module, function, counter); the counter maps the bound call arguments and
# the result to exact work counts.
TARGETS: Tuple[Tuple[str, str, Optional[CountFn]], ...] = (
    ("reports", "canonical_json", None),
    ("dynamics", "stream_generator", None),
    ("dynamics", "fair_bits",
     lambda a, r: {"dynamics.fair_bits_drawn": a["count"]}),
    ("dynamics", "coordinate_matrix",
     lambda a, r: {"dynamics.coordinate_matrix_steps": a["eps"].shape[0] * a["n"]}),
    ("counterexamples", "g_residue_table", None),
    ("counterexamples", "exact_violation_probability", None),
    ("counterexamples", "exact_norms", None),
    ("mc_harness", "condition16_report", _condition16_cells),
    ("mc_harness", "condition17_report", _orbit_cells),
    ("mc_harness", "slln_report", _orbit_cells),
    ("mc_harness", "clt_lil_report", _orbit_cells),
    ("mc_harness", "validate_hypotheses", None),
    ("maximal", "enumerate_mstar",
     lambda a, r: {"maximal.mstar_updates": (1 << a["h"].i) * a["n_max"]}),
    ("maximal", "maximal_inequality_report", None),
    ("weak_tails", "weak_norm", _weak_norm_jumps),
    ("weak_tails", "strong_norm", None),
    ("series_checker", "prop23_report",
     lambda a, r: {"series_checker.terms": a["K_max"] - a["family"].k_start + 1}),
    ("bernoulli_criteria", "criterion_integral",
     lambda a, r: {"bernoulli_criteria.criterion_integral_evals": r.evals}),
    ("bernoulli_criteria", "adaptive_integral", None),
    ("bernoulli_criteria", "prop212_check", None),
    ("bernoulli_criteria", "prop213_check", None),
    ("bernoulli_criteria", "corollary_check", None),
)

COUNTERS = (
    "dynamics.fair_bits_drawn",
    "dynamics.coordinate_matrix_steps",
    "mc_harness.orbit_cells",
    "maximal.mstar_updates",
    "weak_tails.weak_norm_jumps",
    "series_checker.terms",
    "bernoulli_criteria.criterion_integral_evals",
    "bernoulli_criteria.evaluator_calls",
    "bernoulli_criteria.evaluator_points",
)

OP_SPAN = "cli.run_s."


class Tracer:
    """In-memory spans and counts for one pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []  # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Optional[CountFn]) -> Callable:
        signature = inspect.signature(fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_evaluator(self, evaluator: Callable) -> Callable:
        counts = self.counts

        def counted(x: Any) -> Any:
            counts["bernoulli_criteria.evaluator_calls"] += 1
            counts["bernoulli_criteria.evaluator_points"] += x.size
            return evaluator(x)

        return counted

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original: Any, replacement: Any) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "coblim" or mod_name.startswith("coblim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        """Patch every target in every loaded coblim module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, fn_name, count in TARGETS:
            original = getattr(sys.modules[f"coblim.{mod_name}"], fn_name)
            self._replace_everywhere(original, self._wrap(f"{mod_name}.{fn_name}", original, count))

        criteria = sys.modules["coblim.bernoulli_criteria"]
        make_function = criteria.make_function

        def counting_make_function(*args: Any, **kwargs: Any) -> Any:
            f = make_function(*args, **kwargs)
            return dataclasses.replace(f, evaluator=self._counting_evaluator(f.evaluator))

        self._replace_everywhere(make_function, counting_make_function)
        return self

    def uninstall(self) -> None:
        """Restore every attribute that ``install`` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self, op_keys: Iterable[str]) -> Dict[str, float]:
        """Per-layer figures from the recorded spans; zero where nothing ran."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for mod_name, fn_name, _ in TARGETS:
            prefix = f"{mod_name}.{fn_name}"
            out.update({f"{prefix}_s": 0.0, f"{prefix}_self_s": 0.0, f"{prefix}_calls": 0})
        for key in op_keys:
            out[OP_SPAN + key] = 0.0
        for (name, start, end, _), child in zip(self.spans, child_time):
            if name.startswith(OP_SPAN):
                out[name] += end - start
                continue
            out[f"{name}_s"] += end - start
            out[f"{name}_self_s"] += end - start - child
            out[f"{name}_calls"] += 1
        out.update(self.counts)
        out["mc_harness.orbit_bytes_computed"] = 8 * self.counts["mc_harness.orbit_cells"]
        return out
