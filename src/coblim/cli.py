"""Command-line runner: JSON configs, named presets, deterministic artifacts.

Seven subcommands expose the package's reports::

    counterexample   exact tower norm tables and violation probabilities
    conditions       Monte Carlo vs exact reports for the three decay conditions
    clt              normalized-sum normality and iterated-logarithm diagnostics
    maximal          exact enumeration checks of both maximal inequalities
    criteria         integral/projective criteria for functions on [0, 1]
    series           partial-sum trend verdicts for the block-family series
    validate         exact exponent-window arithmetic for the limit theorems

Configuration is a single JSON object (top-level keys: ``system``,
``exponents``, ``horizons``, ``paths``, ``epsilons``, ``function``,
``preset``, plus ``seed``/``workers``/``schema_version``).  A named preset
supplies defaults; explicit config keys override the preset, and the
``--seed``/``--workers`` flags override the config.  Config problems are
reported with ``file:line`` anchors and exit status 2.

Exit codes: 0 when artifacts were written and every hard check passed;
1 when a checked inequality was violated (trend verdicts — the ``series``
and ``conditions``/``clt`` Monte Carlo trend labels — are data, not
failures, except where an exact counterpart makes the comparison a hard
check); 2 on configuration errors, including module resource guards,
and then no file is written.

Determinism: for a fixed resolved config, every numeric artifact (JSON
report, CSV table, two-column plot-data file) is byte-identical across
runs and across ``--workers`` settings.  Wall-clock and version stamps
live only in ``manifest.json``, which also lists every output file.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bernoulli_criteria import (
    FUNCTION_FAMILIES,
    corollary_check,
    make_function,
    prop212_check,
    prop213_check,
)
from .counterexamples import (
    TowerCounterexample,
    build_tower_counterexample,
    check_table_bits,
    exact_norms,
    norm_decay_ratios,
)
from .maximal import (
    check_enumeration,
    check_level,
    default_threshold_grid,
    maximal_inequality_report,
    random_level_function,
)
from .mc_harness import (
    SHIFT_FUNCTIONS,
    THEOREM_IDS,
    OdometerConfig,
    ShiftConfig,
    clt_lil_report,
    condition16_report,
    condition17_blocks,
    condition17_report,
    slln_report,
    validate_hypotheses,
)
from .reports import CriteriaReport, canonical_json, config_hash, csv_text, jsonable, plot_text
from .series_checker import geometric_family, prop23_report

__all__ = ["main", "run", "PRESETS", "ConfigError"]

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260814
TOP_LEVEL_KEYS = (
    "schema_version",
    "preset",
    "system",
    "exponents",
    "horizons",
    "paths",
    "epsilons",
    "function",
    "seed",
    "workers",
)
#: Keys each config section may hold; a key is accepted when any subcommand
#: reads it, so one file can drive several subcommands.
SECTION_KEYS: Dict[str, Tuple[str, ...]] = {
    "system": ("name", "kind", "bits", "i0", "i_max", "window", "level", "theorems"),
    "exponents": ("p", "q", "r", "alpha", "beta", "slln_alpha", "delta"),
    "horizons": ("n", "n_max", "K_max", "N"),
    "paths": ("count", "block_exp"),
    "epsilons": ("values", "floor", "tail_start", "grid", "dr_threshold"),
    "function": ("martingale", "transfer", "family", "params"),
}


class ConfigError(Exception):
    """Configuration problem, anchored to a config file line when possible."""

    def __init__(self, message: str, path: Optional[str] = None, line: Optional[int] = None):
        self.path = path
        self.line = line
        if path is not None:
            anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        else:
            anchor = ""
        super().__init__(anchor + message)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESETS: Dict[str, Dict[str, Any]] = {
    # Slow-decay tower family: L^p norms summable, scaled orbit maxima do not
    # vanish in probability.
    "tower-iplil": {
        "system": {"name": "odometer", "kind": "ip_lil", "bits": 24, "i0": 4, "i_max": 22},
        "exponents": {"p": 1.2, "r": 4.0, "alpha": 0.3667},
        "horizons": {"n": [256, 1024, 4096]},
        "paths": {"count": 10000},
        "epsilons": {"values": [0.1, 1.0, 4.0, 8.0], "floor": 0.3, "tail_start": 10},
    },
    # Strong-law counterpart: exact event measure stays >= 1/2 along the towers.
    "tower-slln": {
        "system": {"name": "odometer", "kind": "slln", "bits": 22, "i0": 4, "i_max": 20},
        "exponents": {"q": 1.1, "p": 1.8, "r": 3.0, "beta": 0.3611},
        "horizons": {"n": [256, 1024, 4096]},
        "paths": {"count": 10000},
        "epsilons": {"values": [0.1, 1.0, 4.0, 8.0], "floor": 0.5, "tail_start": 8},
    },
    # Pure martingale on the shift: KS distance and LIL ratio diagnostics.
    "clt-rademacher": {
        "system": {"name": "shift", "window": 53},
        "horizons": {"n": [512, 2048, 4096]},
        "paths": {"count": 4000},
        "function": {"martingale": "rademacher", "transfer": "zero"},
    },
    # Same seeds with a bounded transfer part: S_n/sqrt(n) moves by O(1/sqrt(n)).
    "clt-bounded-transfer": {
        "system": {"name": "shift", "window": 53},
        "horizons": {"n": [512, 2048, 4096]},
        "paths": {"count": 4000},
        "function": {"martingale": "rademacher", "transfer": "cosine"},
    },
    # Exact maximal-inequality enumeration at desk scale.
    "maximal-smoke": {
        "system": {"name": "odometer", "bits": 14, "level": 8},
        "horizons": {"n_max": 1024},
        "paths": {"count": 5},
        "epsilons": {"grid": 64},
        "exponents": {"q": 2.0},
    },
    # Geometric block family whose main series is exactly summable.
    "series-327": {
        "exponents": {"p": 1.5},
        "horizons": {"K_max": 1000000},
        "epsilons": {"dr_threshold": 5.0},
    },
    # Function-family presets for the integral/projective criteria.
    "criteria-affine": {
        "function": {"family": "affine", "params": {}},
        "exponents": {"p": 1.5, "r": 1.8, "delta": 0.1},
        "horizons": {"N": 6},
    },
    "criteria-cosine": {
        "function": {"family": "cosine", "params": {"k": 1}},
        "exponents": {"p": 1.5, "r": 1.8, "delta": 0.1},
        "horizons": {"N": 6},
    },
    "criteria-step": {
        "function": {"family": "indicator_step", "params": {"c": 0.3}},
        "exponents": {"p": 1.5, "r": 1.8, "delta": 0.1},
        "horizons": {"N": 6},
    },
    # Six terms keep the top frequency at 2^6; the function is genuinely
    # rough on every scale the criteria probe.  The lockstep inner integrals
    # run this preset in a few seconds (about 4 s on 2 CPUs), but it is not a
    # benchmark operation, so tests/test_cli.py pins its artifact digests.
    "criteria-weierstrass": {
        "function": {"family": "weierstrass", "params": {"a": 0.5, "b": 2, "terms": 6}},
        "exponents": {"p": 1.5, "r": 1.8, "delta": 0.1},
        "horizons": {"N": 5},
    },
    # Exponent-window arithmetic for the two counterexample regimes.  Each
    # preset checks the window its exponent pair is built to satisfy; the
    # other theorem ids can be requested via system.theorems (their windows
    # genuinely fail for these pairs, which is what the constructions show).
    "windows-iplil": {
        "system": {"theorems": ["2.10"]},
        "exponents": {"p": 1.2, "r": 4.0},
    },
    "windows-slln": {
        "system": {"theorems": ["2.11"]},
        "exponents": {"q": 1.1, "p": 1.8, "r": 3.0},
    },
}

# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    """Recursive dict merge; override wins, sub-dicts merge key-wise."""
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


class ConfigView:
    """Resolved config with line-anchored error reporting.

    ``raw_text`` is the original JSON document (empty for preset-only runs);
    errors anchor at the first line mentioning the offending key (at or
    after the first line mentioning its section, when one is given),
    falling back to line 1.
    """

    def __init__(self, cfg: Dict[str, Any], path: Optional[str], raw_text: str):
        self.cfg = cfg
        self.path = path or "<preset>"
        self.raw_text = raw_text

    def anchor(self, key: str, section: Optional[str] = None) -> int:
        lines = self.raw_text.splitlines()
        start = 0 if section is None else next(
            (i for i, line in enumerate(lines) if f'"{section}"' in line), 0)
        for idx, line in enumerate(lines[start:], start=start + 1):
            if f'"{key}"' in line:
                return idx
        return 1

    def fail(self, key: str, message: str, section: Optional[str] = None) -> "ConfigError":
        return ConfigError(message, path=self.path, line=self.anchor(key, section))

    @contextmanager
    def blame(self, key: str, section: Optional[str] = None, prefix: str = "",
              errors: Tuple[type, ...] = (ValueError,)) -> Iterator[None]:
        """Raise an error of the block as a ConfigError anchored at `key`."""
        try:
            yield
        except errors as exc:
            raise self.fail(key, prefix + str(exc), section) from exc

    def section(self, name: str) -> Dict[str, Any]:
        val = self.cfg.get(name, {})
        if not isinstance(val, dict):
            raise self.fail(name, f"config key {name!r} must be an object")
        return val

    def get(
        self,
        section: str,
        key: str,
        kind: type | Tuple[type, ...],
        default: Any = None,
        required: bool = False,
        check=None,
        describe: str = "",
    ) -> Any:
        assert key in SECTION_KEYS[section], f"{section}.{key} missing from SECTION_KEYS"
        sec = self.section(section)
        if key not in sec:
            if required:
                raise self.fail(section, f"missing required key {section}.{key}" +
                                (f" ({describe})" if describe else ""))
            return default
        val = sec[key]
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = "/".join(k.__name__ for k in kinds)
        if isinstance(val, bool) and bool not in kinds:
            raise self.fail(key, f"{section}.{key} must be {names}, got a boolean")
        if not isinstance(val, kinds):
            raise self.fail(key, f"{section}.{key} must be {names}, got {type(val).__name__}")
        if check is not None and not check(val):
            raise self.fail(key, f"{section}.{key} = {val!r} invalid" +
                            (f": {describe}" if describe else ""))
        return val


def load_config(path: Optional[str]) -> Tuple[Dict[str, Any], str]:
    """Parse the JSON config file; JSON errors become line-anchored ConfigErrors."""
    if path is None:
        return {}, ""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(exc.msg, path=path, line=exc.lineno) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level JSON value must be an object", path=path, line=1)
    return cfg, text


def resolve_config(
    subcommand: str,
    config_path: Optional[str],
    preset_flag: Optional[str],
    seed_flag: Optional[int],
    workers_flag: Optional[int],
) -> ConfigView:
    """Preset defaults <- config file <- command-line flag overrides."""
    file_cfg, raw_text = load_config(config_path)
    file_view = ConfigView(file_cfg, config_path, raw_text)

    for key, val in file_cfg.items():
        if key not in TOP_LEVEL_KEYS:
            raise file_view.fail(key, f"unknown top-level config key {key!r}; "
                                      f"allowed: {', '.join(TOP_LEVEL_KEYS)}")
        if key in SECTION_KEYS and isinstance(val, dict):
            for sub in val:
                if sub not in SECTION_KEYS[key]:
                    raise file_view.fail(sub, f"unknown config key {key}.{sub}; allowed in "
                                              f"{key!r}: {', '.join(SECTION_KEYS[key])}", key)
    version = file_cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise file_view.fail("schema_version",
                             f"unsupported schema_version {version!r} "
                             f"(supported: {SCHEMA_VERSION})")

    preset_name = preset_flag or file_cfg.get("preset") or SUBCOMMANDS[subcommand][1]
    if not isinstance(preset_name, str) or preset_name not in PRESETS:
        raise file_view.fail("preset", f"unknown preset {preset_name!r}; "
                                       f"available: {', '.join(sorted(PRESETS))}")

    cfg = _merge(PRESETS[preset_name], file_cfg)
    cfg["preset"] = preset_name
    cfg["schema_version"] = SCHEMA_VERSION
    cfg.setdefault("seed", DEFAULT_SEED)
    cfg.setdefault("workers", 1)
    if seed_flag is not None:
        cfg["seed"] = seed_flag
    if workers_flag is not None:
        cfg["workers"] = workers_flag

    view = ConfigView(cfg, config_path, raw_text)
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 64:
        raise view.fail("seed", f"seed must be an integer in [0, 2^64), got {seed!r}")
    workers = cfg["workers"]
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise view.fail("workers", f"workers must be a positive integer, got {workers!r}")
    return view


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

Artifacts = Dict[str, str]  # file name -> exact text


def _records_csv(records: Sequence[Dict[str, Any]]) -> str:
    """CRLF table of dict rows, columns in first-seen key order."""
    keys = list(dict.fromkeys(k for row in records for k in row))
    return csv_text(keys, (map(row.get, keys) for row in records), "\r\n")


def _report_json(report: CriteriaReport, sha: str) -> str:
    payload = report.to_dict()
    payload["config_sha256"] = sha
    payload["version"] = __version__
    return canonical_json(payload)


def _verdict(report: CriteriaReport) -> int:
    """Print the report's check lines; exit code 1 if any hard check failed."""
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# shared construction helpers
# ---------------------------------------------------------------------------

def _check_system(view: ConfigView, name: str) -> None:
    """A handler whose system is fixed refuses a config naming another one."""
    view.get("system", "name", str, default=name, check=lambda s: s == name,
             describe=f"this subcommand runs on the {name}")


def _build_cex(view: ConfigView) -> TowerCounterexample:
    """Tower counterexample from the system/exponents sections."""
    q = view.get("exponents", "q", (int, float))
    default_kind = "slln" if q is not None else "ip_lil"
    kind = view.get("system", "kind", str, default=default_kind,
                    check=lambda s: s in ("ip_lil", "slln"),
                    describe="expected 'ip_lil' or 'slln'")
    p = view.get("exponents", "p", (int, float), required=True, check=lambda v: v > 0)
    r = view.get("exponents", "r", (int, float), required=True, check=lambda v: v > 0)
    if kind == "slln" and q is None:
        raise view.fail("exponents", "slln construction requires exponents.q")
    window_key = "beta" if kind == "slln" else "alpha"
    window_exp = view.get("exponents", window_key, (int, float))
    bits = view.get("system", "bits", int, default=24,
                    check=lambda b: 2 <= b <= 40, describe="bits in [2, 40]")
    i0 = view.get("system", "i0", int, default=None, check=lambda v: v >= 1)
    i_max = view.get("system", "i_max", int, default=20, check=lambda v: v >= 1)
    with view.blame("system", prefix="counterexample construction rejected: "):
        return build_tower_counterexample(
            kind, float(p), float(r), q=None if q is None else float(q),
            window_exp=None if window_exp is None else float(window_exp),
            i0=i0, i_max=i_max, bits=bits,
        )


def _monte_carlo_config(view: ConfigView, kind: type, **fields: Any) -> Any:
    """``kind(**fields)`` with the system, horizons, paths, seed and workers of the view."""
    _check_system(view, kind.system)
    horizons = view.get("horizons", "n", (int, list), default=[4096])
    if isinstance(horizons, int):
        horizons = [horizons]
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in horizons):
        raise view.fail("n", "horizons.n must be an int or a list of ints")
    count = view.get("paths", "count", int, default=10000, check=lambda v: v >= 100,
                     describe="at least 100 paths")
    with view.blame("n", "horizons"):
        return kind(horizons=tuple(sorted(set(horizons))), paths=count,
                    seed=view.cfg["seed"], workers=view.cfg["workers"], **fields)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns its artifacts and the exit code)
# ---------------------------------------------------------------------------

def _run_counterexample(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    _check_system(view, "odometer")
    cex = _build_cex(view)
    rows = exact_norms(cex)
    ratios = norm_decay_ratios(rows)
    floor = view.get("epsilons", "floor", (int, float), default=0.3,
                     check=lambda v: 0 <= v <= 1, describe="probability floor in [0, 1]")
    tail_start = view.get("epsilons", "tail_start", int, default=cex.i0,
                          check=lambda v: v >= 1)

    header = ["i", "n_i", "k_i", "amplitude", "g_norm_exact", "g_norm_bound",
              "diff_norm_exact", "diff_norm_bound", "violation_prob"]
    files = {
        "norms.csv": csv_text(header, [[r.i, r.n, r.k, r.amplitude, r.norm_p_exact, r.bound_355,
                                        r.norm_r_exact, r.bound_358, r.violation_prob]
                                       for r in rows], "\n"),
        "violation_prob.dat": plot_text([r.i for r in rows],
                                        [float(r.violation_prob) for r in rows]),
        "norm_ratios.dat": plot_text([r.i for r in rows[1:]], ratios),
    }

    report = CriteriaReport(title="tower counterexample integrity",
                            context={"construction": cex.describe(),
                                     "tail_start": tail_start, "floor": floor})
    norm_slack = min(r.bound_355 - r.norm_p_exact for r in rows)
    report.add("exact norm within closed-form bound at every level",
               all(r.norm_p_exact <= r.bound_355 for r in rows), norm_slack,
               detail=f"min slack {norm_slack:.3e} over i in [{rows[0].i}, {rows[-1].i}]")
    # The difference norm equals its closed form exactly (the towers have no
    # residual set), so the comparison only guards against float round-off.
    diff_slack = min(r.bound_358 - r.norm_r_exact for r in rows)
    report.add("coboundary-difference norm matches closed form",
               all(r.norm_r_exact <= r.bound_358 * (1 + 1e-12) for r in rows), diff_slack,
               detail=f"min slack {diff_slack:.3e} (equality expected up to round-off)")
    tail_rows = [r for r in rows if r.i >= tail_start]
    if not tail_rows:
        raise view.fail("tail_start", f"tail_start {tail_start} beyond last level {rows[-1].i}")
    min_prob = min(float(r.violation_prob) for r in tail_rows)
    report.add(f"violation probability >= {floor} on levels >= {tail_start}",
               min_prob >= floor, min_prob - floor,
               detail=f"min exact probability {min_prob:.6f} (closed threshold events)")
    report.context["ratios"] = ratios
    files["report.json"] = _report_json(report, sha)
    return files, _verdict(report)


def _run_conditions(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    cex = _build_cex(view)
    with view.blame("i_max", "system"):  # before the table of 2^i_max entries is allocated
        check_table_bits(cex.i_max)
    eps = view.get("epsilons", "values", list, default=[0.1, 0.5, 1.0])
    if not eps or not all(isinstance(e, (int, float)) and not isinstance(e, bool) and e > 0
                          for e in eps):
        raise view.fail("values", "epsilons.values must be a nonempty list of positive numbers")
    block_exp = view.get("paths", "block_exp", (int, float), default=0.5,
                         check=lambda v: 0 < v < 1, describe="block exponent in (0, 1)")
    cfg = _monte_carlo_config(view, OdometerConfig, cex=cex,
                              epsilons=tuple(float(e) for e in eps),
                              alpha=view.get("exponents", "slln_alpha", (int, float)),
                              block_exp=float(block_exp))
    with view.blame("n", "horizons"):  # before condition16's pass, which runs first
        condition17_blocks(cfg)
    with view.blame("slln_alpha", "exponents"):  # read by slln_report, which runs last
        cfg.resolved_alpha()
    reports = {
        "condition16": condition16_report(cfg),
        "condition17": condition17_report(cfg),
        "strong_law": slln_report(cfg),
    }
    files: Artifacts = {}
    for name, rep in reports.items():
        files[f"{name}.json"] = canonical_json(rep)
        files[f"{name}.csv"] = _records_csv(rep.rows)
        print(f"{name}:")
        for line in rep.summary_lines():
            print(f"  {line}")

    r16 = reports["condition16"]
    eps0 = cfg.epsilons[0]
    xs = [row["n"] for row in r16.rows if row["epsilon"] == eps0]
    ys = [row["estimate"] for row in r16.rows if row["epsilon"] == eps0]
    files["condition16_decay.dat"] = plot_text(xs, ys)

    # Hard check: where the exact enumeration exists, the Monte Carlo
    # estimate must sit within 3 binomial sigma of it.
    gate = CriteriaReport(title="Monte Carlo vs exact enumeration",
                          context={"epsilons": list(cfg.epsilons)})
    for row, exact_row in zip(r16.rows, r16.exact_rows):
        exact = float(exact_row["exact_prob"])
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / cfg.paths)
        diff = abs(row["estimate"] - exact)
        gate.add(f"estimate within 3 sigma of exact (n={row['n']}, eps={row['epsilon']})",
                 diff <= 3 * sigma, 3 * sigma - diff,
                 detail=f"|{row['estimate']:.6f} - {exact:.6f}| = {diff:.2e}, sigma={sigma:.2e}")
    files["mc_vs_exact.json"] = _report_json(gate, sha)
    return files, _verdict(gate)


def _run_clt(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    transfer = view.get("function", "transfer", str, default="zero",
                        check=lambda s: s in SHIFT_FUNCTIONS,
                        describe=f"one of {sorted(SHIFT_FUNCTIONS)}")
    window = view.get("system", "window", int, default=53, check=lambda w: 1 <= w <= 53,
                      describe="coordinate window in [1, 53]")
    martingale = view.get("function", "martingale", str, default="rademacher",
                          check=lambda m: m in ("rademacher", "zero"),
                          describe="'rademacher' or 'zero'")
    cfg = _monte_carlo_config(view, ShiftConfig, function=transfer,
                              martingale=martingale, window=window)
    with view.blame("function"):  # a degenerate f
        rep = clt_lil_report(cfg)
    files = {
        "clt.json": canonical_json(rep),
        "clt.csv": _records_csv(rep.rows),
        "ks_by_horizon.dat": plot_text([row["n"] for row in rep.rows],
                                       [row["ks_distance"] for row in rep.rows]),
    }
    print(f"sigma = {rep.sigma:.6f}")
    for row in rep.rows:
        print(f"n={row['n']}: ks={row['ks_distance']:.5f} sup_q99={row['sup_q99']:.4f}")
    print(f"lil ratio mean {rep.limsup['mean']:.4f} "
          f"q99 {rep.limsup['quantiles']['0.99']:.4f} on {rep.limsup['tail_window']}")
    return files, 0


def _run_maximal(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    _check_system(view, "odometer")
    bits = view.get("system", "bits", int, default=14, required=False)
    level = view.get("system", "level", int, default=8)
    n_max = view.get("horizons", "n_max", int, default=1024, check=lambda v: v >= 1)
    count = view.get("paths", "count", int, default=5, check=lambda v: v >= 1)
    grid = view.get("epsilons", "grid", int, default=64, check=lambda v: v >= 1)
    q = view.get("exponents", "q", (int, float), default=2.0, check=lambda v: v > 1,
                 describe="weak-norm exponent q > 1")

    # both guards run before the first draw, which at level 20 holds 2^20 numerators
    with view.blame("level", "system"):
        check_level(level)
    with view.blame("bits", "system"):
        check_enumeration(bits, level)

    files: Artifacts = {}
    summary_rows = []
    report = CriteriaReport(title="maximal inequality enumeration",
                            context={"bits": bits, "level": level, "n_max": n_max,
                                     "functions": count, "grid": grid, "q": q})
    total_level = total_weak = 0
    min_slack = math.inf
    for stream in range(count):
        h = random_level_function(view.cfg["seed"], stream, i=level)
        with view.blame("n_max", "horizons"):  # its int64 guard; the rest is checked above
            rep = maximal_inequality_report(h, bits, n_max,
                                            t_grid=default_threshold_grid(h, grid), q=float(q))
        total_level += rep.level_bound_violations
        total_weak += rep.weak_bound_violations
        min_slack = min(min_slack, rep.min_slack_weak)
        summary_rows.append([stream, rep.i, rep.bits, rep.n_max,
                             rep.level_bound_violations, rep.weak_bound_violations,
                             rep.min_slack_weak, rep.mstar_strong_q, rep.h_weak_q])
        if stream == 0:
            files["thresholds_stream0.csv"] = _records_csv(jsonable(rep.rows))
            files["mstar_tail_stream0.dat"] = plot_text([float(r.t) for r in rep.rows],
                                                        [float(r.mu) for r in rep.rows])
    files["maximal_summary.csv"] = csv_text(
        ["stream", "i", "bits", "n_max", "level_violations",
         "weak_violations", "min_slack_weak", "mstar_strong_q", "h_weak_q"],
        summary_rows, "\n")
    report.add("level-measure bound holds at every threshold", total_level == 0,
               margin=0.0 if total_level == 0 else -float(total_level),
               detail=f"{total_level} violations over {count} functions")
    report.add("weak-norm bound holds at every threshold", total_weak == 0,
               margin=float(min_slack), detail=f"min slack {min_slack:.3e}")
    files["report.json"] = _report_json(report, sha)
    return files, _verdict(report)


def _run_criteria(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    family = view.get("function", "family", str, required=True,
                      check=lambda s: s in FUNCTION_FAMILIES,
                      describe=f"one of {FUNCTION_FAMILIES}")
    params = view.get("function", "params", dict, default={})
    with view.blame("params", prefix="function construction rejected: ",
                    errors=(TypeError, ValueError)):
        f = make_function(family, **params)
    p = view.get("exponents", "p", (int, float), required=True,
                 check=lambda v: 1 < v < 2, describe="p in (1, 2)")
    r = view.get("exponents", "r", (int, float), default=None)
    delta = view.get("exponents", "delta", (int, float), default=0.1,
                     check=lambda v: v > 0, describe="log-weight surplus delta > 0")
    depth = view.get("horizons", "N", int, default=6,
                     check=lambda v: 1 <= v <= 20, describe="projection depth in [1, 20]")

    combined = CriteriaReport(title=f"integral and projective criteria for {f.label}",
                              context={"family": family, "p": float(p), "r": r,
                                       "delta": float(delta), "depth": depth})
    sub_reports: Dict[str, CriteriaReport] = {}

    sub_reports["moment_integral"] = prop212_check(f, float(p), delta=float(delta))
    if r is not None:
        with view.blame("r"):
            sub_reports["moment_integral_pair"] = prop213_check(
                f, float(p), float(r), delta=float(delta))
    tables: Dict[Tuple[float, float], CriteriaReport] = {}
    for which in ("2.2", "2.5") + (("2.8",) if r is not None else ()):
        tag = f"corollary_{which.replace('.', '_')}"
        sub_reports[tag] = corollary_check(f, which, float(p),
                                           r=None if r is None else float(r), N=depth,
                                           delta=float(delta), tables=tables)
    for tag, rep in sub_reports.items():
        combined.absorb(tag, rep)

    files: Artifacts = {}
    rows = sub_reports["corollary_2_2"].context.get("rows", [])
    if rows:
        files["projective_norms.csv"] = csv_text(
            ["n", "proj_norm", "proj_error", "one_step_norm", "one_step_error"],
            [[row["n"], row["proj"], row["proj_error"],
              row["one_step"], row["one_step_error"]] for row in rows], "\n")
        files["projective_decay.dat"] = plot_text([row["n"] for row in rows],
                                                  [row["proj"] for row in rows])
    files["report.json"] = _report_json(combined, sha)
    return files, _verdict(combined)


def _run_series(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    p = view.get("exponents", "p", (int, float), required=True,
                 check=lambda v: 1 < v < 2, describe="p in (1, 2)")
    k_max = view.get("horizons", "K_max", int, default=1000000,
                     check=lambda v: v >= 1000, describe="K_max >= 10^3")
    threshold = view.get("epsilons", "dr_threshold", (int, float), default=5.0,
                         check=lambda v: v > 1, describe="growth threshold > 1")
    with view.blame("exponents"):
        report = prop23_report(geometric_family(float(p)), K_max=k_max,
                               dr_threshold=float(threshold))

    main_ctx = report.context["main"]
    quad_ctx = report.context["quadratic"]
    tail_ctx = report.context["tail_product"]
    rows = []
    for cp, s in zip(main_ctx["checkpoints"], main_ctx["partial_sums"]):
        rows.append(["main", cp, s])
    for cp, v in zip(tail_ctx["checkpoints"], tail_ctx["values"]):
        rows.append(["tail_product", cp, v])
    for cp, s in zip(quad_ctx["checkpoints"], quad_ctx["partial_sums"]):
        rows.append(["quadratic", cp, s])
    files = {
        "report.json": _report_json(report, sha),
        "series.csv": csv_text(["condition", "K", "value"], rows, "\n"),
        "main_partial_sums.dat": plot_text(main_ctx["checkpoints"], main_ctx["partial_sums"]),
        "quadratic_partial_sums.dat": plot_text(quad_ctx["checkpoints"],
                                                quad_ctx["partial_sums"]),
    }

    for key in ("main", "tail_product", "quadratic"):
        ctx = report.context[key]
        print(f"{key}: {ctx['verdict']}  [{ctx['rule']}]")
    # Trend verdicts are data: the report always exits 0 once produced.
    return files, 0


def _run_validate(view: ConfigView, sha: str) -> Tuple[Artifacts, int]:
    expo = view.section("exponents")
    # numbers or exact decimal strings such as "6/5", never JSON booleans
    known = {k: view.get("exponents", k, (int, float, str)) for k, v in expo.items()
             if v is not None}
    if "q" in known:
        default_thms = ["2.7", "2.11"]
    else:
        default_thms = ["2.1", "2.4i", "2.4ii", "2.10"]
    theorems = view.get("system", "theorems", list, default=default_thms)
    combined = CriteriaReport(title="exponent hypothesis windows",
                              context={"exponents": known})
    rows = []
    for thm in theorems:
        if thm not in THEOREM_IDS:
            raise view.fail("theorems", f"unknown theorem id {thm!r}; known: {THEOREM_IDS}")
        with view.blame("exponents", prefix=f"window {thm}: ",
                        errors=(ValueError, KeyError, ZeroDivisionError)):
            rep = validate_hypotheses(expo, thm)
        combined.absorb(thm, rep)
        rows += [[thm, c.name, int(c.passed), c.margin, c.detail] for c in rep.checks]
    files = {
        "windows.csv": csv_text(["theorem", "check", "passed", "margin", "detail"], rows, "\n"),
        "report.json": _report_json(combined, sha),
    }
    return files, _verdict(combined)


#: Each subcommand's handler, and the preset it runs when neither ``--preset``
#: nor the config names one.
SUBCOMMANDS: Dict[str, Tuple[Callable[[ConfigView, str], Tuple[Artifacts, int]], str]] = {
    "counterexample": (_run_counterexample, "tower-iplil"),
    "conditions": (_run_conditions, "tower-iplil"),
    "clt": (_run_clt, "clt-rademacher"),
    "maximal": (_run_maximal, "maximal-smoke"),
    "criteria": (_run_criteria, "criteria-affine"),
    "series": (_run_series, "series-327"),
    "validate": (_run_validate, "windows-iplil"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(
    subcommand: str,
    config_path: Optional[str] = None,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    preset: Optional[str] = None,
) -> int:
    """Programmatic entry point; returns the process exit code."""
    view = resolve_config(subcommand, config_path, preset, seed, workers)
    # Workers parallelism never affects numeric results, so it stays out of
    # the hashed config echo (else the same experiment would hash apart).
    echo = {k: view.cfg[k] for k in TOP_LEVEL_KEYS if k in view.cfg and k != "workers"}
    sha = config_hash(echo)
    out = Path(out_dir) if out_dir else Path("runs") / f"{subcommand}-{sha[:12]}"

    started = time.time()
    try:
        files, code = SUBCOMMANDS[subcommand][0](view, sha)
    except ConfigError:
        raise
    except ValueError as exc:
        # Module-level guards (resource limits, domain checks) are
        # configuration problems by the time they reach the CLI.
        raise ConfigError(str(exc), path=view.path, line=1) from exc
    # Nothing is written until the handler has succeeded, so a config error
    # leaves no partial output.
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="")
    # Re-running with the echoed config reproduces every other artifact
    # byte for byte; the wall-clock and version stamps are the only fields
    # excluded from that contract.
    manifest = {
        "subcommand": subcommand,
        "config_path": config_path,
        "config": echo,
        "config_sha256": sha,
        "seed": view.cfg["seed"],
        "workers": view.cfg["workers"],
        "out_dir": str(out),
        "outputs": sorted([*files, "manifest.json"]),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_seconds": round(time.time() - started, 3),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if "scipy" in sys.modules:  # coblim imports it only for the lacunary family's zeta
        manifest["versions"]["scipy"] = sys.modules["scipy"].__version__
    (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8", newline="")
    print(f"[OK] {subcommand}: {len(manifest['outputs'])} artifacts in {out} "
          f"(config {sha[:12]})")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coblim",
        description="deterministic verification runs for coboundary limit-theorem criteria",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} report")
        sp.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file (preset defaults apply underneath)")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: runs/<subcommand>-<confighash>)")
        sp.add_argument("--seed", metavar="U64", type=int, default=None,
                        help="seed override (config seed otherwise)")
        sp.add_argument("--workers", metavar="N", type=int, default=None,
                        help="minimum number of path chunks (runs are serial); "
                             "never affects numeric results")
        sp.add_argument("--preset", metavar="NAME", default=None,
                        help=f"named preset ({', '.join(sorted(PRESETS))})")
    args = parser.parse_args(argv)
    try:
        return run(args.subcommand, config_path=args.config, out_dir=args.out,
                   seed=args.seed, workers=args.workers, preset=args.preset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
