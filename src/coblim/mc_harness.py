"""Monte Carlo harness for the limit-theorem conditions.

Four experiment families.  The three condition reports read an
OdometerConfig and run on the odometer, where f = g - g.T has no martingale
part; the CLT/LIL diagnostics read a ShiftConfig and run on the shift.  Each
report refuses the other system's config:

* condition16_report — in-probability decay of n^{-1/2} max_{k<=n} |g.T^k|,
  with an exact counterpart that counts, over all residues, the windows
  meeting a value above the threshold;
* condition17_report — the almost-sure decay of (n log log n)^{-1/2} g.T^n,
  probed through block maxima and Borel-Cantelli partial sums (a.s.
  statements are not directly samplable);
* slln_report — partial sums of the strong-law series
  sum_n n^{alpha p - 2} mu{max_{k<=n} |S_k(f)| >= eps n^alpha}, with
  max_{k<=n} |S_k(f)| = max(g - min_window, max_window - g) read from the
  window extrema of g at the start residues;
* clt_lil_report — normalized-sum normality (Kolmogorov-Smirnov), polygonal
  sup-functional quantiles and iterated-logarithm ratio estimates.  The
  normal CDF of the KS distance is _normal_cdf, a numpy port of cephes ndtr
  that gives scipy.special.ndtr's bits without importing scipy.special; its
  exp(-z^2) is evaluated by math.exp (the C library, as in the compiled
  ndtr), since numpy's vectorized exp can differ in the last bit.

Conventions shared by all reports:

* paths are independent work units keyed by (seed, path-id) through
  counter-based streams, so results are bit-identical for any worker count
  or chunking of the path range;
* each odometer event depends on the start only via its residue, and these
  are derived once per OdometerConfig (on first use) and shared by the
  condition reports run on that config: g_table, the residue table of g as
  ranks into its sorted values g_values (uint16 on both tower presets), in
  one buffer whose slice at r is the orbit row of r; start_residues,
  from the first raw word of each path's stream (no Generator per path);
  and orbit_pass, which answers every window of the orbit rows at the
  start residues that the reports read by range-extremum lookups, without
  gathering the rows (OrbitPass).  g is >= 0, as every tower counterexample
  is, so the events on |g.T^n| read g.T^n: both conditions compare window
  maxima with their thresholds, condition17 brackets its tail sup by block
  maxima, and OrbitPass refuses a g with a negative value;
* every Monte Carlo probability that has an exactly countable counterpart on
  the odometer is reported next to it (the exact side never samples);
* "holds"/"fails" verdicts are finite-sample trend labels with the decision
  rules spelled out in the docstrings, never claims about the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from .counterexamples import (
    TowerCounterexample,
    _window_hit_counts,
    blocks_for_range,
    check_table_bits,
    exact_exponent,
    exact_violation_probability,
    feasibility_checks,
    g_rank_dtype,
    g_residue_table,
    orbit_truncation_bound,
    truncation_tail_bound,
)
from .dynamics import coordinate_matrix, fair_bits, first_draws
from .reports import CriteriaReport, config_hash, quantiles

__all__ = [
    "ShiftFunction",
    "SHIFT_FUNCTIONS",
    "OdometerConfig",
    "ShiftConfig",
    "ConditionReport",
    "CltReport",
    "validate_hypotheses",
    "condition16_report",
    "condition17_blocks",
    "condition17_report",
    "slln_report",
    "clt_lil_report",
    "ks_statistic",
]


# ---------------------------------------------------------------------------
# transfer functions on the shift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftFunction:
    """A closed-form g for the doubling-map system.

    `evaluator` must accept a float64 array of coordinates in [0, 1/2) and
    return an array of the same shape.  `sup_bound` is a bound on ||g||_oo,
    None when g is unbounded.  clt_lil_report relies on it: S_k(f) lies
    within 2 sup_bound of S_k(m), and the report skips g wherever that bound
    settles the maxima it reads.  0.0 marks g = 0, which it never evaluates.
    """

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sup_bound is not None and not self.sup_bound >= 0.0:  # NaN fails too
            raise ValueError(f"sup_bound = {self.sup_bound} invalid: need a bound >= 0 "
                             f"on |g|, or None when g is unbounded")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=np.float64))


def _inverse_cuberoot(x: np.ndarray) -> np.ndarray:
    # unbounded but square-integrable: E[g^2] = int_0^{1/2} x^{-2/3} dx < oo.
    # The floor keeps x = 0 (probability 2^-W) finite without affecting moments.
    return np.minimum(np.maximum(x, 2.0 ** -54) ** (-1.0 / 3.0), 2.0 ** 18)


def _cosine(x: np.ndarray) -> np.ndarray:
    y = 2.0 * np.pi * x
    return np.cos(y, out=y)  # in place: one temporary, not two


SHIFT_FUNCTIONS: Dict[str, ShiftFunction] = {
    "zero": ShiftFunction("zero", lambda x: np.zeros_like(x), sup_bound=0.0),
    "identity": ShiftFunction("identity", lambda x: x.copy(), sup_bound=0.5),
    "cosine": ShiftFunction("cosine", _cosine, sup_bound=1.0),
    "inverse_cuberoot": ShiftFunction("inverse_cuberoot", _inverse_cuberoot, sup_bound=None),
}


# ---------------------------------------------------------------------------
# hypothesis validation (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _need(exponents: Mapping[str, Any], *names: str) -> List[Fraction]:
    missing = [n for n in names if n not in exponents or exponents[n] is None]
    if missing:
        raise ValueError(f"missing exponent(s): {', '.join(missing)}")
    return [exact_exponent(exponents[n]) for n in names]


THEOREM_IDS = ("2.1", "2.4i", "2.4ii", "2.7", "2.10", "2.11")


def validate_hypotheses(exponents: Mapping[str, Any], theorem: str) -> CriteriaReport:
    """Check the exponent hypotheses of one limit theorem, exactly.

    Supported ids: "2.1" (weak invariance principle via weak-norm pair),
    "2.4i"/"2.4ii" (iterated logarithm, strict/boundary), "2.7" (strong-law
    series), "2.10" and "2.11" (counterexample feasibility windows).  Every
    comparison is performed in rational arithmetic, on exponents read by
    counterexamples.exact_exponent (floats through their decimal repr);
    margins are distances to the relevant boundary (positive = strict
    slack).  Where the construction needs an auxiliary exponent window, the
    open interval is reported in the context and its nonemptiness is a named
    check.  The checks of 2.10 and 2.11 are counterexamples.feasibility_checks
    for the ip_lil and slln kinds, the rule by which build_tower_counterexample
    accepts or refuses the same exponents.  Every check of a theorem is
    computed, so exponents that put one of its boundary formulas on a pole
    (r = 1, or p = 0 or 1) raise ZeroDivisionError.
    """
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREM_IDS}")
    report = CriteriaReport(title=f"hypotheses {theorem}")
    ctx = report.context
    ctx["theorem"] = theorem

    if theorem == "2.1":
        (p,) = _need(exponents, "p")
        report.add("1 < p < 2", 1 < p < 2, float(min(p - 1, 2 - p)),
                   detail=f"p = {p}")
        r = exact_exponent(exponents["r"]) if exponents.get("r") is not None else p / (p - 1)
        ctx["p"] = p
        ctx["r_conjugate"] = r
        lo, hi = 1 - p / 2, (r / 2 - 1) / (r - 1)
        ctx["alpha_window"] = (lo, hi)
        report.add("alpha window nonempty", lo <= hi, float(hi - lo),
                   detail=f"[{float(lo):.6g}, {float(hi):.6g}] (degenerate when r = p/(p-1))")
    elif theorem in ("2.4i", "2.4ii"):
        p, r = _need(exponents, "p", "r")
        ctx["p"], ctx["r"] = p, r
        report.add("1 < p < 2 < r", 1 < p < 2 < r, float(min(p - 1, 2 - p, r - 2)),
                   detail=f"p = {p}, r = {r}")
        boundary = r / (r - 1)
        ctx["r/(r-1)"] = boundary
        if theorem == "2.4i":
            report.add("p > r/(r-1)", p > boundary, float(p - boundary),
                       detail=f"r/(r-1) = {boundary}")
            lo, hi = 2 / p - 1, 1 - 2 / r
            ctx["alpha_window"] = (lo, hi)
            report.add("alpha window nonempty", lo < hi, float(hi - lo),
                       detail=f"({float(lo):.6g}, {float(hi):.6g}); open iff p > r/(r-1)")
        else:
            report.add("p = r/(r-1) (boundary case)", p == boundary,
                       float(abs(p - boundary)),
                       detail=f"r/(r-1) = {boundary}; strong moments required here")
            ctx["alpha"] = 2 / p - 1
    elif theorem == "2.7":
        q, p, r = _need(exponents, "q", "p", "r")
        ctx["q"], ctx["p"], ctx["r"] = q, p, r
        report.add("1 <= q < p < r < 2", 1 <= q < p < r < 2,
                   float(min(q - 1, p - q, r - p, 2 - r)),
                   detail=f"q = {q}, p = {p}, r = {r}")
        bound = (p - 1) * r / (r - 1)
        ctx["(p-1)r/(r-1)"] = bound
        report.add("q >= (p-1)r/(r-1)", q >= bound, float(q - bound),
                   detail=f"(p-1)r/(r-1) = {bound}")
        lo, hi = (p - q) / p, (r - p) / (p * (r - 1))
        ctx["beta_window_at_alpha_1/p"] = (lo, hi)
        report.add("beta window nonempty at alpha = 1/p", lo <= hi, float(hi - lo),
                   detail=f"[{float(lo):.6g}, {float(hi):.6g}]")
    elif theorem == "2.10":
        p, r = _need(exponents, "p", "r")
        for check in feasibility_checks("ip_lil", p, r, None, ctx):
            report.add(*check)
    else:  # 2.11
        q, p, r = _need(exponents, "q", "p", "r")
        for check in feasibility_checks("slln", p, r, q, ctx):
            report.add(*check)
    return report


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _checked_horizons(horizons: Sequence[int], paths: int, workers: int) -> Tuple[int, ...]:
    """The horizons as a tuple, after the checks both systems share."""
    horizons = tuple(int(n) for n in horizons)
    if not horizons or any(n < 1 for n in horizons):
        raise ValueError("horizons must be a nonempty tuple of positive ints")
    if list(horizons) != sorted(set(horizons)):
        raise ValueError("horizons must be strictly increasing")
    if paths < 100:
        raise ValueError("need at least 100 paths for the binomial error bars")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return horizons


def _require(cfg: Any, kind: type) -> None:
    """Refuse the other system's config before any of its fields is read."""
    if not isinstance(cfg, kind):
        raise ValueError(f"this report runs on the {kind.system} system and needs "
                         f"{kind.__name__}, not {type(cfg).__name__}")


@dataclass
class OdometerConfig:
    """Knobs of the three condition reports on the odometer, where f = g - g.T.

    `cex` is g, and fixes the precision B = cex.bits and the exponents p, q
    and r; `alpha` is the strong-law normalization exponent (1/p when None);
    `block_exp` is the block-growth exponent of condition17.  The residue
    table of g holds 2^{cex.i_max} entries, so i_max above MAX_TABLE_BITS is
    refused (check_table_bits)."""

    system: ClassVar[str] = "odometer"
    cex: TowerCounterexample
    horizons: Tuple[int, ...]
    paths: int
    seed: int
    workers: int = 1
    epsilons: Tuple[float, ...] = (0.1, 0.5, 1.0)
    alpha: Optional[float] = None
    block_exp: float = 0.5

    def __post_init__(self) -> None:
        self.horizons = _checked_horizons(self.horizons, self.paths, self.workers)
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        check_table_bits(self.cex.i_max)
        bits = self.cex.bits
        if not 1 <= bits <= 64:
            raise ValueError(f"bits = {bits} invalid: odometer precision in [1, 64]")
        if 2 * self.horizons[-1] > (1 << bits):
            raise ValueError(f"horizon {self.horizons[-1]} too long for B={bits} odometer "
                             f"(need 2n <= 2^B)")
        if not 0 < self.block_exp < 1:
            raise ValueError("block_exp must lie in (0, 1)")

    def resolved_alpha(self) -> float:
        lo = 1.0 / self.cex.p
        a = lo if self.alpha is None else float(self.alpha)
        if not lo - 1e-12 <= a <= 1.0 + 1e-12:
            raise ValueError(f"alpha={a} outside [1/p, 1] = [{lo:.6g}, 1]")
        return a

    @cached_property
    def g_table(self) -> np.ndarray:
        """g on every residue mod M = 2^{i_max} of the odometer as ranks into
        g_values, built with them (see g_residue_table): the first M entries of
        the config's one rank buffer of g (g_table.base), whose last n_top
        entries repeat the first n_top of g_table cyclically, so the orbit row
        of r, the ranks of g(T^k r) for k = 0..n_top, is buffer[r : r + n_top + 1].
        Only those n_top entries are copied, never the whole table."""
        m, n_top = 1 << self.cex.i_max, self.horizons[-1]
        buffer = np.empty(m + n_top, dtype=g_rank_dtype(self.cex))
        table = buffer[:m]
        self.__dict__["g_values"] = g_residue_table(self.cex, out=table)
        np.take(table, np.arange(n_top), mode="wrap", out=buffer[m:])
        return table

    @cached_property
    def g_values(self) -> np.ndarray:
        """The sorted values of g (see g_residue_table): g(r) = g_values[g_table[r]]."""
        self.g_table  # building the table stores its values here
        return self.__dict__["g_values"]

    @cached_property
    def start_residues(self) -> np.ndarray:
        """Per-path odometer start residues mod len(g_table): path j starts at
        stream_generator(seed, j).integers(0, 2**bits), read by first_draws."""
        modulus = np.uint64(self.g_table.shape[0])
        return (first_draws(self.seed, self.paths, self.cex.bits) % modulus).astype(np.int64)

    @cached_property
    def orbit_pass(self) -> "OrbitPass":
        """Everything the odometer reports read of the orbit rows at the start
        residues, from one chunked pass over them (see OrbitPass)."""
        return OrbitPass(self)

    def echo(self) -> Dict[str, Any]:
        """Jsonable config echo (embedded in every report)."""
        cex = self.cex
        return {
            "system": self.system, "horizons": list(self.horizons),
            "paths": self.paths, "seed": self.seed,
            "epsilons": list(self.epsilons),
            "exponents": {"p": cex.p, "q": cex.q, "r": cex.r, "alpha": self.alpha},
            "block_exp": self.block_exp,
            "transfer": cex.describe(),
            "bits": cex.bits,
            # perfbench/refs pins these shift fields, which the odometer never
            # reads; the next re-record of the refs (ROADMAP item 2) drops them
            "martingale": "rademacher", "window": 53,
        }


@dataclass
class ShiftConfig:
    """Knobs of clt_lil_report on the shift, where f = m + g - g.T.

    `function` is g, a ShiftFunction or a key of SHIFT_FUNCTIONS; `martingale`
    names m as a function of the next input bit ("rademacher" has unit
    variance, "zero" disables it); `window` counts the coordinate bits.  The
    top horizon must be >= 16, so the iterated-logarithm tail window is
    nonempty.
    """

    system: ClassVar[str] = "shift"
    horizons: Tuple[int, ...]
    paths: int
    seed: int
    workers: int = 1
    function: Union[ShiftFunction, str] = "zero"
    martingale: str = "rademacher"
    window: int = 53

    def __post_init__(self) -> None:
        self.horizons = _checked_horizons(self.horizons, self.paths, self.workers)
        if self.horizons[-1] < 16:
            raise ValueError(f"horizons {list(self.horizons)}: the top horizon must be >= 16 "
                             f"(the iterated-logarithm tail window is [max(16, n/8), n])")
        if not 1 <= self.window <= 53:
            raise ValueError(f"window = {self.window} invalid: coordinate window in [1, 53]")
        if self.martingale not in ("rademacher", "zero"):
            raise ValueError(f"unknown martingale part {self.martingale!r}")
        if isinstance(self.function, str):
            if self.function not in SHIFT_FUNCTIONS:
                raise ValueError(f"unknown shift function {self.function!r}; "
                                 f"known: {sorted(SHIFT_FUNCTIONS)}")
            self.function = SHIFT_FUNCTIONS[self.function]

    def echo(self) -> Dict[str, Any]:
        """Jsonable config echo (embedded in the report)."""
        return {
            "system": self.system, "horizons": list(self.horizons),
            "paths": self.paths, "seed": self.seed,
            "martingale": self.martingale,
            "transfer": {"shift_function": self.function.label},
            "window": self.window,
            # perfbench/refs pins these odometer fields, which the shift never
            # reads; the next re-record of the refs (ROADMAP item 2) drops them
            "bits": 24, "block_exp": 0.5, "epsilons": [0.1, 0.5, 1.0],
            "exponents": {"p": None, "q": None, "r": None, "alpha": None},
        }


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    """Rows + exact counterparts + trend verdicts for one condition."""

    condition: str
    config: Dict[str, Any]
    config_sha256: str
    version: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    exact_rows: List[Dict[str, Any]] = field(default_factory=list)
    verdicts: Dict[str, str] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **kv: Any) -> Dict[str, Any]:
        est = kv.get("estimate")
        if est is not None and not 0.0 <= est <= 1.0:
            raise ValueError(f"estimate {est} outside [0, 1]")
        self.rows.append(kv)
        return kv

    def summary_lines(self) -> List[str]:
        return [f"verdict[eps={k}] = {v}" for k, v in sorted(self.verdicts.items())]


def _binomial_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def _level_trend_verdict(first: float, last: float) -> str:
    """Trend label for a sequence of probabilities across growing horizons.

    Decision rule: final <= half of initial -> consistent-with-holds;
    final >= 0.8 * initial (and positive) -> consistent-with-fails;
    anything in between -> inconclusive.
    """
    if last <= first / 2.0:
        return "consistent-with-holds"
    if last > 0 and last >= 0.8 * first:
        return "consistent-with-fails"
    return "inconclusive"


def _increment_trend_verdict(increments: Sequence[float]) -> str:
    """Trend label for partial-sum increments of a nonnegative series.

    Decision rule on the first/last thirds of the increment sequence:
    tail <= head/4 -> consistent-with-holds (Cauchy-like decay);
    tail >= 0.75 * head -> consistent-with-fails (no decay);
    otherwise inconclusive.  An all-zero series is consistent-with-holds.
    """
    vals = [float(v) for v in increments]
    total = math.fsum(vals)
    if total == 0.0:
        return "consistent-with-holds"
    third = max(1, len(vals) // 3)
    head = math.fsum(vals[:third])
    tail = math.fsum(vals[-third:])
    if tail <= head / 4.0:
        return "consistent-with-holds"
    if tail >= 0.75 * head:
        return "consistent-with-fails"
    return "inconclusive"


# ---------------------------------------------------------------------------
# path plumbing
# ---------------------------------------------------------------------------

def _chunk_ranges(paths: int, workers: int, per_chunk: int) -> List[Tuple[int, int]]:
    """Contiguous path-id ranges.  Chunking never affects results (per-path
    streams and order-preserving assembly); it only caps memory."""
    size = max(1, min(per_chunk, math.ceil(paths / max(1, workers))))
    return [(a, min(paths, a + size)) for a in range(0, paths, size)]


def _shift_bits_chunk(cfg: ShiftConfig, lo: int, hi: int, n: int) -> np.ndarray:
    """Bits eps_k, k in [-window, n + window], for paths lo..hi-1."""
    count = n + 2 * cfg.window + 1
    eps = np.empty((hi - lo, count), dtype=np.uint8)
    for j in range(lo, hi):
        eps[j - lo] = fair_bits(cfg.seed, j, count)
    return eps


def _paths_per_chunk(n: int) -> int:
    """Paths per chunk for rows of n steps: about 2^18 steps, whose bits and
    walk bytes (as indices) take 256 KiB and 256 KiB."""
    return max(1, (1 << 18) // max(1, n))


# The orbit pass cuts the paths, sorted by start residue, into chunks of at
# most _REGION_PATHS paths whose orbit rows lie in one region of the g buffer
# of at most _REGION_CELLS cells (or one row).  Regions of 2^15-2^16 cells
# ran fastest; 2^18 and 2^20 were slower (see ROADMAP)
_REGION_CELLS = 1 << 15
_REGION_PATHS = 128
# the top level of the cell lookups: windows of 32 cells or more are read
# through the blocks of 16 cells that they cover
_PIECE_LEVEL = 4


def _region_chunks(starts: np.ndarray, n_top: int, workers: int) -> List[Tuple[int, int]]:
    """Index ranges [i, j) of the sorted start residues `starts`, each of at
    most _REGION_PATHS paths whose orbit rows lie in the region
    buffer[starts[i] : starts[j - 1] + n_top + 1] of at most _REGION_CELLS
    cells (or one row), and at least `workers` of them (for paths >= workers).
    As with _chunk_ranges, the cut changes no result."""
    cap = max(1, min(_REGION_PATHS, math.ceil(starts.size / workers)))
    ends = np.searchsorted(starts, starts + max(0, _REGION_CELLS - n_top - 1), side="right")
    chunks, i = [], 0
    while i < starts.size:
        j = min(int(ends[i]), i + cap)
        chunks.append((i, j))
        i = j
    return chunks


class _RangeLookups:
    """ufunc (np.maximum or np.minimum) over fixed closed column windows [a, b]
    of orbit rows region[o : o + n_top + 1], for one region at a time.

    Row k of the cell levels holds at entry p the ufunc over region[p : p +
    2^k], for k = 0.._PIECE_LEVEL: row 0 is the region copied in, and row k
    is built from row k - 1 by doubling.  A window of 2^k to 2^{k+1} - 1
    cells, k < 5, is the ufunc of two lookups in row k: one starting at a,
    one ending at b.  A window of L >= 32 cells holds c = floor((L + 1) /
    16) - 1 or c + 1 whole blocks of the region's 16-cell grid.  Block level
    k holds at entry j the ufunc over the blocks j .. j + 2^k - 1 (level 0
    is cell row 4 at the multiples of 16), so the window is the ufunc of
    four lookups: 16 cells at each end, and two at block level floor(log2
    c), one from its first whole block and one ending at its last.  Pieces
    may overlap, which max and min do not mind.  The buffers are allocated
    once, of the regions' `dtype` (the rank type of g for OrbitPass), for
    regions of up to `stride` cells and up to `rows` rows, and reused by
    every region.
    """

    def __init__(self, ufunc: np.ufunc, windows: Sequence[Tuple[int, int]],
                 stride: int, rows: int, dtype: np.dtype) -> None:
        self.ufunc, size = ufunc, 1 << _PIECE_LEVEL
        levels = [min((b - a + 1).bit_length() - 1, _PIECE_LEVEL) for a, b in windows]
        long = [(w, a, b) for w, (a, b) in enumerate(windows) if b - a + 1 >= 2 * size]
        self.long = np.asarray([w for w, _, _ in long], dtype=np.intp)
        tops = [((b - a + 2) // size - 1).bit_length() - 1 for _, a, b in long]
        self.levels = np.empty((_PIECE_LEVEL + 1, stride), dtype)
        self.blocks = np.empty((max(tops, default=0) + 1, stride // size), dtype)
        self.cols = np.asarray(
            [k * stride + a for k, (a, _) in zip(levels, windows)]
            + [k * stride + b + 1 - (1 << k) for k, (_, b) in zip(levels, windows)],
            dtype=np.intp)
        # block lookups at ((o + shift) >> 4) + base: the whole blocks of
        # [o + a, o + b] run from (o + a + 15) >> 4 to ((o + b + 1) >> 4) - 1
        self.shift = np.asarray([a + size - 1 for _, a, _ in long]
                                + [b + 1 for _, _, b in long], dtype=np.intp)
        width = self.blocks.shape[1]
        self.base = np.asarray([k * width for k in tops]
                               + [k * width - (1 << k) for k in tops], dtype=np.intp)
        self.idx = np.empty((rows, self.cols.size), dtype=np.intp)
        self.vals = np.empty((rows, self.cols.size), dtype)
        self.out = np.empty((rows, len(windows)), dtype)

    def __call__(self, region: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The window values of the rows region[o:], o in `offsets`, one row
        each; a view into a buffer that the next call overwrites."""
        ufunc, levels, cells = self.ufunc, self.levels, region.shape[0]
        levels[0, :cells] = region
        for k in range(1, _PIECE_LEVEL + 1):
            n, half = max(cells - (1 << k) + 1, 0), 1 << (k - 1)
            ufunc(levels[k - 1, :n], levels[k - 1, half: half + n], out=levels[k, :n])
        rows, w = offsets.shape[0], self.out.shape[1]
        idx = np.add(offsets[:, None], self.cols, out=self.idx[:rows])
        vals = np.take(levels.reshape(-1), idx, out=self.vals[:rows], mode="clip")
        out = ufunc(vals[:, :w], vals[:, w:], out=self.out[:rows])
        blocks, count, n = self.blocks, cells >> _PIECE_LEVEL, self.long.size
        blocks[0, :count] = levels[_PIECE_LEVEL, : count << _PIECE_LEVEL: 1 << _PIECE_LEVEL]
        for k in range(1, blocks.shape[0]):
            m, half = count - (1 << k) + 1, 1 << (k - 1)
            ufunc(blocks[k - 1, :m], blocks[k - 1, half: half + m], out=blocks[k, :m])
        idx = ((offsets[:, None] + self.shift) >> _PIECE_LEVEL) + self.base
        vals = np.take(blocks.reshape(-1), idx, mode="clip")
        out[:, self.long] = ufunc(out[:, self.long], ufunc(vals[:, :n], vals[:, n:]))
        return out


class BlockProbe:
    """condition17's probe on [n0, n_top] and its counts over the paths.

    Geometry: the complete blocks (j, m_j, l_j), m_j >= n0 and m_j + l_j <=
    n_top, with thresholds eps sqrt(m_j loglog m_j), and the towers i whose
    dyadic window [2^i, 2^{i+1}] lies in [n0, n_top], with thresholds eps
    sqrt(2^{i+1} loglog 2^{i+1}); `windows` lists the closed column windows
    of both, blocks first, whose maxima OrbitPass reads as ranks into
    cfg.g_values.  A value exceeds (meets) a threshold exactly when its rank
    reaches the least rank of a value that does, so observe compares ranks
    with these once-computed ranks.  Counts, filled by observe: per path the
    tail sup of g.T^n / sqrt(n loglog n) over n0 <= n <= n_top; per eps the
    paths whose block max exceeds its threshold (strictly) and those whose
    dyadic-window max meets its threshold.  The events read |g.T^n|, which
    is g.T^n: OrbitPass admits only g >= 0.
    """

    def __init__(self, cfg: OdometerConfig, blocks: List[Tuple[int, int, int]]) -> None:
        n0, n_top, cex = cfg.horizons[0], cfg.horizons[-1], cfg.cex
        self.blocks = blocks
        self.n0 = n0
        ns = np.arange(n0, n_top + 1, dtype=np.float64)
        self.norm = np.sqrt(ns * np.log(np.log(ns)))
        starts = np.asarray([mj for _, mj, _ in blocks], dtype=np.int64)
        self.lengths = np.asarray([ln + 1 for _, _, ln in blocks], dtype=np.int64)
        # blocks are contiguous (m_{j+1} = m_j + l_j): the closed windows cover
        # [m_1, m_last + l_last], and the tail sup divides the rest exactly
        first, last = int(starts[0]), int(starts[-1] + self.lengths[-1] - 1)
        self.outside = np.r_[n0:first, last + 1: n_top + 1]
        self.starts = starts
        # norm over each closed window: the segment [m_j, m_{j+1}), then its end
        covered, ends = self.norm[: last + 1 - n0], self.norm[starts + self.lengths - 1 - n0]
        self.norm_min = np.minimum(np.minimum.reduceat(covered, starts - n0), ends)
        self.norm_max = np.maximum(np.maximum.reduceat(covered, starts - n0), ends)
        self.thresholds = {eps: eps * self.norm[starts - n0] for eps in cfg.epsilons}
        self.dyadic = [
            i for i in range(cex.i0, cex.i_max + 1)
            if (1 << i) >= n0 and (1 << (i + 1)) <= n_top
        ]
        self.dyadic_thresholds = {
            eps: [eps * math.sqrt((1 << (i + 1)) * math.log(math.log(1 << (i + 1))))
                  for i in self.dyadic]
            for eps in cfg.epsilons
        }
        self.windows = ([(mj, mj + ln) for _, mj, ln in blocks]
                        + [(1 << i, 1 << (i + 1)) for i in self.dyadic])
        self.values = values = cfg.g_values
        rank_type = np.min_scalar_type(values.size)  # up to len(values): never reached
        self.block_ranks = {eps: np.searchsorted(values, thr, "right").astype(rank_type)
                            for eps, thr in self.thresholds.items()}
        self.dyadic_ranks = {eps: np.searchsorted(values, thr, "left").astype(rank_type)
                             for eps, thr in self.dyadic_thresholds.items()}
        self.tail_sup = np.empty(cfg.paths, dtype=np.float64)
        self.block_hits = {eps: np.zeros(len(blocks), dtype=np.int64) for eps in cfg.epsilons}
        self.dyadic_hits = {eps: np.zeros(len(self.dyadic), dtype=np.int64)
                            for eps in cfg.epsilons}

    def observe(self, paths: np.ndarray, rows: np.ndarray, maxima: np.ndarray,
                buffer: np.ndarray) -> None:
        """Add the paths `paths`, whose orbit rows are buffer[r : r + n_top + 1]
        for r in `rows`, to the counts; `maxima` holds the ranks of their
        maxima over `windows`."""
        block_max, dyadic_max = maxima[:, : len(self.blocks)], maxima[:, len(self.blocks):]
        for eps, ranks in self.block_ranks.items():
            self.block_hits[eps] += (block_max >= ranks).view(np.uint8).sum(axis=0, dtype=np.int32)
            self.dyadic_hits[eps] += (dyadic_max >= self.dyadic_ranks[eps]).view(
                np.uint8).sum(axis=0, dtype=np.int32)
        self.tail_sup[paths] = self._tail_sup(rows, self.values.take(block_max), buffer)

    def _tail_sup(self, rows: np.ndarray, block_max: np.ndarray,
                  buffer: np.ndarray) -> np.ndarray:
        """max over n0 <= n <= n_top of fl(g.T^n / norm_n) per row of ranks,
        dividing only the cells outside the blocks and those of the blocks
        that may hold it.  Rounding is monotone and g >= 0 (OrbitPass), so
        with B the block max and N_min, N_max the least and largest norm over
        the block, every ratio of the block is at most fl(B / N_min), and the
        ratio at the cell of B is at least fl(B / N_max): a block whose upper
        bound is below the largest lower bound, or below an outside ratio,
        holds no maximum."""
        n0, norm, values = self.n0, self.norm, self.values
        best = np.max(values.take(buffer[rows[:, None] + self.outside])
                      / norm[self.outside - n0], axis=1, initial=-np.inf)
        upper = block_max / self.norm_min
        lower = np.max(block_max / self.norm_max, axis=1)
        path, block = np.nonzero(upper >= np.maximum(best, lower)[:, None])
        lengths = self.lengths[block]
        first = np.cumsum(lengths) - lengths
        cols = np.repeat(self.starts[block] - first, lengths) + np.arange(int(lengths.sum()))
        ratios = values.take(buffer[np.repeat(rows[path], lengths) + cols]) / norm[cols - n0]
        np.maximum.at(best, path, np.maximum.reduceat(ratios, first))
        return best


class OrbitPass:
    """What the odometer reports read of the orbit rows g(T^k r_j), k =
    0..n_top, at the start residues r_j: wmax and wmin, the max and min of g
    over T^1..T^n (rows paths, columns horizons n), read by condition16 and
    slln; and probe, condition17's BlockProbe, None where the config has none.

    g must be >= 0, as every tower counterexample is: the odometer reports
    read |g| as g, so a g whose least value is negative is refused.
    Every value is a max or min over a window of a row, and the row of r is
    buffer[r : r + n_top + 1] of the config's one rank buffer of g
    (g_table.base).  The ranks order as the values of g do, so the extrema
    are taken on ranks and read in cfg.g_values at the end.
    The paths, sorted by start residue, are cut into chunks (_region_chunks)
    whose rows lie in one region of the buffer, and the windows of a chunk
    are lookups into doubling levels over its region's cells and over its
    16-cell blocks (_RangeLookups): the prefix windows [1, h] for both
    extrema, and the blocks and dyadic windows for the max.  The results
    land at each path's own index, so they do not depend on the cut.
    """

    def __init__(self, cfg: OdometerConfig) -> None:
        horizons, n_top = cfg.horizons, cfg.horizons[-1]
        if cfg.g_values[0] < 0:
            raise ValueError(f"g takes the negative value {cfg.g_values[0]}: the odometer "
                             f"reports read |g| as g, so g must be >= 0")
        buffer = cfg.g_table.base
        order = np.argsort(cfg.start_residues, kind="stable")
        starts = cfg.start_residues[order]
        chunks = _region_chunks(starts, n_top, cfg.workers)
        stride = max(int(starts[j - 1] - starts[i]) for i, j in chunks) + n_top + 1
        rows = max(j - i for i, j in chunks)
        prefixes = [(1, n) for n in horizons]
        try:
            blocks: Optional[List[Tuple[int, int, int]]] = condition17_blocks(cfg)
        except ValueError:  # no condition17 probe; condition16 and slln still run
            blocks = None
        self.probe = None if blocks is None else BlockProbe(cfg, blocks)
        windows = prefixes if self.probe is None else prefixes + self.probe.windows
        highs = _RangeLookups(np.maximum, windows, stride, rows, buffer.dtype)
        lows = _RangeLookups(np.minimum, prefixes, stride, rows, buffer.dtype)
        wmax, wmin = np.empty((2, cfg.paths, len(horizons)), dtype=buffer.dtype)
        for i, j in chunks:
            region = buffer[starts[i]: starts[j - 1] + n_top + 1]
            offsets = starts[i:j] - starts[i]
            maxima = highs(region, offsets)
            wmax[order[i:j]] = maxima[:, : len(horizons)]
            wmin[order[i:j]] = lows(region, offsets)
            if self.probe is not None:
                self.probe.observe(order[i:j], starts[i:j], maxima[:, len(horizons):], buffer)
        self.wmax, self.wmin = cfg.g_values.take(wmax), cfg.g_values.take(wmin)


# ---------------------------------------------------------------------------
# condition16: in-probability decay of the scaled orbit maximum
# ---------------------------------------------------------------------------

def condition16_report(cfg: OdometerConfig) -> ConditionReport:
    """Estimate mu{ n^{-1/2} max_{1<=k<=n} |g.T^k| > eps } per horizon.

    The estimate reads the window maxima of cfg.orbit_pass.  The exact
    counterparts per (n, eps): the full-g probability, counting all residues
    mod 2^{i_max} (the event depends on the start only through them) in one
    call to _window_hit_counts for all pairs, which reads block maxima of the
    rank table against the least rank of a value at the threshold; and the
    single-tower lower bound from exact_violation_probability.
    The Monte Carlo estimate must sit within 3 binomial sigma of the former.

    All exceedance events are closed (max >= threshold) so that the sampled
    event and its exact counterpart coincide literally; the open and closed
    versions bracket each other and share every decay property of interest.

    Verdict rule per eps (documented, finite-sample): see
    _level_trend_verdict on the first/last horizon estimates.
    """
    report = _new_report("condition16", cfg)
    cex, table, wmax = cfg.cex, cfg.g_table, cfg.orbit_pass.wmax
    ranks = np.searchsorted(cfg.g_values, [eps * math.sqrt(n) for n in cfg.horizons
                                           for eps in cfg.epsilons])
    ns = [n for n in cfg.horizons for _ in cfg.epsilons]
    hits = iter(_window_hit_counts(table, list(zip(ranks.tolist(), ns))))
    for gi, n in enumerate(cfg.horizons):
        for eps in cfg.epsilons:
            thr = eps * math.sqrt(n)
            est = float(np.mean(wmax[:, gi] >= thr))
            exact = Fraction(next(hits), table.shape[0])
            report.add_row(
                n=n, epsilon=eps, estimate=est,
                se=_binomial_se(est, cfg.paths), threshold=thr, paths=cfg.paths,
            )
            i_star = min(cex.i_max, max(cex.i0, n.bit_length() - 1))
            tower_bound = exact_violation_probability(cex, i_star, thr, (1, n))
            report.exact_rows.append({
                "n": n, "epsilon": eps, "threshold": thr,
                "exact_prob": exact, "tower_bound": tower_bound,
                "tower_index": i_star, "mc_abs_error": abs(est - float(exact)),
            })
    for eps in cfg.epsilons:
        series = [row["estimate"] for row in report.rows if row["epsilon"] == eps]
        report.verdicts[f"{eps}"] = _level_trend_verdict(series[0], series[-1])
    return report


def _new_report(condition: str, cfg: OdometerConfig) -> ConditionReport:
    """An empty odometer report with the config echo and the truncation
    bounds of g at the top horizon, which every estimate inherits."""
    _require(cfg, OdometerConfig)
    echo = cfg.echo()
    report = ConditionReport(condition=condition, config=echo,
                             config_sha256=config_hash(echo), version=__version__)
    report.extras["truncation"] = {
        "tail_measure_bound": truncation_tail_bound(cfg.cex),
        "orbit_bound_at_max_horizon": orbit_truncation_bound(cfg.cex, cfg.horizons[-1]),
    }
    return report


# ---------------------------------------------------------------------------
# condition17: almost-sure decay probed through blocks
# ---------------------------------------------------------------------------

def condition17_blocks(cfg: OdometerConfig) -> List[Tuple[int, int, int]]:
    """condition17's complete blocks (j, m_j, l_j) of cfg, m_j >= n0 and m_j
    + l_j <= n_top, found without reading g; refuses a first horizon n0
    below 16 (log log must be positive) and a range without a block."""
    n0, n_top = cfg.horizons[0], cfg.horizons[-1]
    if n0 < 16:
        raise ValueError("first horizon must be >= 16 (log log must be positive)")
    blocks = [(j, mj, ln) for j, mj, ln in blocks_for_range(cfg.block_exp, n_top)
              if mj >= n0 and mj + ln <= n_top]
    if not blocks:
        raise ValueError("no complete blocks inside the horizon range; extend horizons")
    return blocks


def condition17_report(cfg: OdometerConfig) -> ConditionReport:
    """Block probe of (n log log n)^{-1/2} g.T^n -> 0 a.s.

    Splits [n0, n_G] into blocks starting at m_j = sum_{i<j} [i^block_exp]
    and estimates, per block and eps, the exceedance fraction

        p_j = mu{ max_{0<=i<=[j^b]} |g.T^{m_j+i}| > eps sqrt(m_j loglog m_j) },

    whose summability (Borel-Cantelli) is what the almost-sure statement
    needs.  Also reported per path: sup_{n0<=n<=n_G} |g.T^n| / sqrt(n
    loglog n).  Dyadic windows [2^i, 2^{i+1}] get exact single-tower lower
    bounds at the fixed threshold eps sqrt(2^{i+1} loglog 2^{i+1}), with
    matching Monte Carlo estimates of the same event.

    Verdict rule per eps: Borel-Cantelli increments are aggregated per
    dyadic span of m_j and fed to _increment_trend_verdict.  A config that
    condition17_blocks refuses is refused before the orbit pass runs.
    """
    report = _new_report("condition17", cfg)
    n0, n_top = cfg.horizons[0], cfg.horizons[-1]
    condition17_blocks(cfg)
    probe = cfg.orbit_pass.probe
    cex, blocks = cfg.cex, probe.blocks

    for eps in cfg.epsilons:
        partial = 0.0
        for bi, (j, mj, ln) in enumerate(blocks):
            frac = probe.block_hits[eps][bi] / cfg.paths
            partial += frac
            report.add_row(
                j=j, m_j=mj, block_len=ln, epsilon=eps, estimate=frac,
                se=_binomial_se(frac, cfg.paths),
                threshold=float(probe.thresholds[eps][bi]), bc_partial_sum=partial,
            )
    for di, i in enumerate(probe.dyadic):
        n_hi = 1 << (i + 1)
        for eps in cfg.epsilons:
            theta = probe.dyadic_thresholds[eps][di]
            bound = exact_violation_probability(cex, i, theta, (1 << i, n_hi))
            est = probe.dyadic_hits[eps][di] / cfg.paths
            report.exact_rows.append({
                "tower": i, "epsilon": eps, "threshold": theta,
                "window": [1 << i, n_hi], "tower_bound": bound,
                "estimate": est, "se": _binomial_se(est, cfg.paths),
            })

    qs = [0.5, 0.9, 0.99]
    report.extras["tail_sup"] = {
        "window": [n0, n_top],
        "mean": float(np.mean(probe.tail_sup)),
        "quantiles": dict(zip(map(str, qs), quantiles(probe.tail_sup, qs))),
        "max": float(np.max(probe.tail_sup)),
    }
    for eps in cfg.epsilons:
        spans: Dict[int, float] = {}
        for bi, (j, mj, ln) in enumerate(blocks):
            spans.setdefault(mj.bit_length(), 0.0)
            spans[mj.bit_length()] += probe.block_hits[eps][bi] / cfg.paths
        report.verdicts[f"{eps}"] = _increment_trend_verdict(
            [spans[k] for k in sorted(spans)]
        )
    return report


# ---------------------------------------------------------------------------
# strong-law weighted series
# ---------------------------------------------------------------------------

def slln_report(cfg: OdometerConfig) -> ConditionReport:
    """Partial sums of sum_n n^{alpha p - 2} mu{max_{k<=n} |S_k(f)| >= eps n^alpha}.

    The weight of each geometric horizon block (n_{G-1}, n_G] is the exact
    sum of n^{alpha p - 2} over the integers in the block (compensated
    summation); mu is replaced by the Monte Carlo estimate at the block's
    right endpoint.  On the odometer f = g - g.T, so the partial sums
    telescope, S_k(f) = g - g.T^k, and max_{1<=k<=n} |S_k(f)| =
    max(g - min_window, max_window - g) over the window of T^1..T^n, read
    from OdometerConfig.orbit_pass; rounding is monotone, so this
    equals the per-path maximum of |fl(g - g.T^k)| bit for bit.

    Verdict rule per eps: _increment_trend_verdict on the per-block
    increments weight * estimate.
    """
    report = _new_report("slln", cfg)
    alpha, p = cfg.resolved_alpha(), cfg.cex.p
    report.extras["alpha"] = alpha

    g0 = cfg.g_values.take(cfg.g_table[cfg.start_residues])[:, None]
    wmax, wmin = cfg.orbit_pass.wmax, cfg.orbit_pass.wmin
    maxS_at = np.maximum(g0 - wmin, wmax - g0)

    prev = 0
    weights = []
    for n in cfg.horizons:
        weights.append(math.fsum((k ** (alpha * p - 2.0)) for k in range(prev + 1, n + 1)))
        prev = n
    for eps in cfg.epsilons:
        partial = 0.0
        increments = []
        for gi, n in enumerate(cfg.horizons):
            est = float(np.mean(maxS_at[:, gi] >= eps * n ** alpha))
            term = weights[gi] * est
            partial += term
            increments.append(term)
            report.add_row(
                n=n, epsilon=eps, estimate=est, se=_binomial_se(est, cfg.paths),
                weight=weights[gi], term=term, partial_sum=partial,
                threshold=eps * n ** alpha,
            )
        report.verdicts[f"{eps}"] = _increment_trend_verdict(increments)
    return report


# ---------------------------------------------------------------------------
# CLT / LIL diagnostics
# ---------------------------------------------------------------------------

# Phi, ported from cephes ndtr.c (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the routine behind scipy.special.ndtr.  The
# coefficients are cephes' own; _polevl is cephes polevl (plain Horner) and
# _p1evl is p1evl (the same with an implicit leading 1).
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285307336E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    return _polevl(x, (1.0, *coef))  # 1.0 * x is exact, so this is x + coef[0] first


def _erf_small(x: np.ndarray) -> np.ndarray:
    # cephes erf for |x| <= 1
    w = x * x
    return x * _polevl(w, _NDTR_T) / _p1evl(w, _NDTR_U)


def _normal_cdf(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a float64 array, bit for bit scipy.special.ndtr.

    With x = a/sqrt(2) and z = |x|: Phi = 0.5 + 0.5 erf(x) for z < sqrt(1/2);
    otherwise y = 0.5 erfc(z) and Phi = 1 - y for x > 0, y for x <= 0.
    erfc(z) is 1 - erf(z) for z < 1, exp(-z^2) P(z)/Q(z) for z < 8,
    exp(-z^2) R(z)/S(z) beyond, and 0 once z^2 > MAXLOG.  exp(-z^2) comes
    from math.exp, the C library's exp that the compiled ndtr calls; numpy's
    SIMD exp (AVX-512) differs from it in the last bit on about 1% of them.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    phi = np.empty_like(x)
    small = z < _SQRT1_2
    phi[small] = 0.5 + 0.5 * _erf_small(x[small])
    large = ~small
    zl = z[large]
    erfc = np.zeros_like(zl)
    near = zl < 1.0
    erfc[near] = 1.0 - _erf_small(zl[near])
    mid = ~near & (zl < 8.0)
    tail = ~near & ~mid & ~(zl * zl > _MAXLOG)  # NaN falls through to NaN here
    for sel, num, den in ((mid, _NDTR_P, _NDTR_Q), (tail, _NDTR_R, _NDTR_S)):
        w = zl[sel]
        e = np.fromiter(map(math.exp, (-(w * w)).tolist()), dtype=np.float64, count=w.size)
        erfc[sel] = e * _polevl(w, num) / _p1evl(w, den)
    y = 0.5 * erfc
    phi[large] = np.where(x[large] > 0, 1.0 - y, y)
    return phi


def ks_statistic(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal.

    Phi is _normal_cdf, a port of cephes ndtr that reproduces
    scipy.special.ndtr bit for bit without importing scipy.special (about
    0.3 s of start-up); the KS distances in the clt artifacts are unchanged.
    """
    z = np.sort(np.asarray(sample, dtype=np.float64))
    n = z.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    cdf = _normal_cdf(z)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))


@dataclass
class CltReport:
    """Normality, sup-functional and iterated-logarithm diagnostics."""

    config: Dict[str, Any]
    config_sha256: str
    version: str
    sigma: float
    rows: List[Dict[str, Any]] = field(default_factory=list)
    limsup: Dict[str, Any] = field(default_factory=dict)
    report: str = field(default="clt_lil", init=False)


# clt_lil_report forms S_k(f) on whole blocks of this many steps, whole bytes
# of the walk.  Of 16, 24, 32, 40 and 64, 32 ran fastest on both clt presets
# (on clt-bounded-transfer it opens 13% of the steps; 24 ran as fast)
_G_BLOCK = 32

# The +-1 walk of the 8 steps 2 bit_i - 1 that byte b packs little-endian:
# _WALK_PREFIX[b, i] is its value after i steps, _WALK_TOTAL[b] after all 8,
# and _WALK_MAX[b] and _WALK_MIN[b] are the max and min of _WALK_PREFIX[b]
_BYTE_STEPS = 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1
_WALK_PREFIX = (np.cumsum(_BYTE_STEPS, axis=1) - _BYTE_STEPS).astype(np.int8)
_WALK_TOTAL = _BYTE_STEPS.sum(axis=1).astype(np.int8)
_WALK_MAX, _WALK_MIN = _WALK_PREFIX.max(axis=1), _WALK_PREFIX.min(axis=1)


def _open_blocks(top: np.ndarray, h_idx: np.ndarray, k0: int,
                 norm_range: Tuple[np.ndarray, np.ndarray], bound: float) -> np.ndarray:
    """Which blocks of _G_BLOCK steps k = 0, 1, ... clt_lil_report must form
    S_k(f) on, as (paths, blocks) booleans, for the steps k <= n = h_idx[-1].

    top[:, b] bounds |S_k(m)| on block b; ``bound`` is 2 ||g||_oo, 0 for
    g = 0 and inf for an unbounded g; ``norm_range`` holds the min and max,
    per block, of the iterated-logarithm norm L_k on its steps in the tail
    [k0, n], taken as inf off it.  With P = top[:, b], a block is open when
    fl(P + bound) >= fl(M - bound), M the largest top over the blocks before
    the one of h_s, the horizon that ends the block's segment (h_{s-1}, h_s],
    so that some |S_k(m)| with k <= h_s reaches M; or, if it meets the tail,
    when fl(P + bound) / min L_k >= lb, lb the largest
    fl(max(P - bound, 0)) / max L_k over the blocks.  Block 0 (which carries
    g(x_0)) and the blocks of the horizon columns are always open.
    """
    t, (norm_min, norm_max) = k0 // _G_BLOCK, norm_range
    p = top.astype(np.float64)
    reach = np.stack([np.max(p[:, :b], axis=1, initial=0.0) for b in h_idx // _G_BLOCK], axis=1)
    seg = np.searchsorted(h_idx, _G_BLOCK * np.arange(p.shape[1]))
    is_open = p + bound >= (reach - bound)[:, seg]
    tail = p[:, t:]
    lb = np.max(np.maximum(tail - bound, 0.0) / norm_max[t:], axis=1)
    is_open[:, t:] |= (tail + bound) / norm_min[t:] >= lb[:, None]
    is_open[:, 0] = True
    is_open[:, h_idx // _G_BLOCK] = True
    return is_open


class _ShiftWalk:
    """What clt_lil_report reads of S_k(f), k = 0..n_top, a chunk of paths at
    a time: S_h(f) at the horizons h, max_{1<=k<=h} |S_k(f)| and the tail
    ratio max_{k0<=k<=n_top} fl(|S_k(f)| / L_k), L_k = sqrt(2 k loglog k).

    The martingale steps are read by bytes (packed little-endian, byte j
    covers k = 8j..8j+7): the walk tables give S_{8j}(m) from one integer
    cumsum over n/8 bytes and bound |S_k(m)| on each block of _G_BLOCK
    steps.  S_k(f) = S_k(m) + g(x_0) - g(x_k) lies within D = 2 sup_bound of
    S_k(m) (the coboundary sandwich; D = 0 for g = 0), so it is formed, in
    float64, only on the blocks where D cannot rule out a maximum
    (_open_blocks); every other step is strictly below a maximum it would
    enter, and every output bit equals that of S_k(f) on all steps.  Rounding
    is monotone, so a block's ratios lie in [fl(B / max L_k), fl(B / min L_k)],
    B its max of |S_k(f)|: only the blocks reaching the largest lower end
    are divided.  An unbounded g or a zero martingale part opens every block.
    """

    def __init__(self, cfg: ShiftConfig) -> None:
        assert _G_BLOCK % 8 == 0, "blocks must be whole bytes of the walk"
        n_top = cfg.horizons[-1]
        self.w, self.h_idx = cfg.window, np.asarray(cfg.horizons, dtype=np.int64)
        self.g = None if cfg.function.sup_bound == 0.0 else cfg.function
        self.bound = math.inf if cfg.function.sup_bound is None else 2.0 * cfg.function.sup_bound
        unit = int(cfg.martingale == "rademacher")  # m = 0: a walk that stays at 0
        self.tables = _WALK_TOTAL * unit, _WALK_MAX * unit, _WALK_MIN * unit
        self.prefix = (_WALK_PREFIX * unit).astype(np.float64)
        # L_k on the steps of each block, inf off the tail [k0, n_top]
        self.k0 = max(16, n_top // 8)
        ks = np.arange(self.k0, n_top + 1, dtype=np.float64)
        norm = np.full((n_top // _G_BLOCK + 1) * _G_BLOCK, np.inf)
        norm[self.k0: n_top + 1] = np.sqrt(2.0 * ks * np.log(np.log(ks)))
        self.norm = norm.reshape(-1, _G_BLOCK)
        self.norm_range = self.norm.min(axis=1), self.norm.max(axis=1)

    def __call__(self, eps_bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(finals, sups, tail ratios) of the paths whose bits eps_k, k in
        [-window, n_top + window], are the rows of eps_bits."""
        w, h_idx, (total, high, low), norm = self.w, self.h_idx, self.tables, self.norm
        paths, (n_blocks, size) = eps_bits.shape[0], norm.shape
        per = size // 8
        # the bytes of the steps k = 1..n_top, padded to whole blocks, as
        # indices into the tables; edge[:, j] = S_{8j}(m)
        walk = np.zeros((paths, n_blocks * per), dtype=np.intp)
        packed = np.packbits(eps_bits[:, w: w + h_idx[-1]], axis=1, bitorder="little")
        walk[:, : packed.shape[1]] = packed
        edge = np.zeros(walk.shape, dtype=np.int32)
        np.cumsum(total.take(walk[:, :-1]), axis=1, dtype=np.int32, out=edge[:, 1:])
        top = np.maximum(edge + high.take(walk), -(edge + low.take(walk)))
        is_open = _open_blocks(np.maximum.reduce([top[:, i::per] for i in range(per)]),
                               h_idx, self.k0, self.norm_range, self.bound)
        rows, blocks = np.nonzero(is_open)
        s = self.prefix[walk.reshape(paths, n_blocks, per)[rows, blocks]]
        s += edge.reshape(paths, n_blocks, per)[rows, blocks][:, :, None]
        s = s.reshape(rows.size, size)
        if self.g is not None:
            pad = n_blocks * size + w - 1 - eps_bits.shape[1]
            if pad > 0:  # a window shorter than the block: the last block reads past the bits
                eps_bits = np.pad(eps_bits, ((0, 0), (0, pad)))
            windows = sliding_window_view(eps_bits, size + w - 1, axis=1)
            gx = self.g(coordinate_matrix(windows[rows, blocks * size], size - 1, w))
            g0 = gx[blocks == 0, 0]  # block 0 is open on every row, rows in order
            s += np.subtract(g0[rows, None], gx, out=gx)
        # the open blocks in (row, block) order, and the horizons' among them
        keys = rows * n_blocks + blocks
        at = np.searchsorted(keys, np.arange(paths)[:, None] * n_blocks + h_idx // size)
        finals = s[at, h_idx % size]
        np.abs(s, out=s)
        # max |S_k(f)| over the open blocks before each horizon's, and within it
        block_max = np.zeros((paths, n_blocks))
        block_max[rows, blocks] = np.max(s, axis=1)
        sups = np.stack([np.maximum(np.max(block_max[:, :b], axis=1, initial=0.0),
                                    np.max(s[at[:, i], : c + 1], axis=1))
                         for i, (b, c) in enumerate(zip(h_idx // size, h_idx % size))], axis=1)
        norm_min, norm_max = self.norm_range
        tail = np.max(block_max / norm_max, axis=1)
        rows, blocks = np.nonzero(is_open & (block_max / norm_min >= tail[:, None]))
        ratios = s[np.searchsorted(keys, rows * n_blocks + blocks)] / norm[blocks]
        np.maximum.at(tail, rows, np.max(ratios, axis=1))
        return finals, sups, tail


def clt_lil_report(cfg: ShiftConfig) -> CltReport:
    """Distributional diagnostics for S_n(f)/(sigma sqrt(n)) on the shift.

    Per horizon: Kolmogorov-Smirnov distance of the normalized sums to the
    standard normal, and quantiles of the polygonal sup functional
    max_{k<=n} |S_k| / (sigma sqrt(n)) (the polygonal interpolant attains
    its sup at the knots).  At the top horizon, a per-path estimate of the
    iterated-logarithm ratio sup over the tail window [n_G/8, n_G] of
    |S_k| / sqrt(2 sigma^2 k loglog k).

    sigma is exact (1) for the Rademacher martingale part; with a zero
    martingale part it is estimated at the top horizon and a value below
    1e-9 raises, signalling a degenerate f.  A g with sup_bound 0.0 is
    g = 0 and is never evaluated.

    The report reads only the horizon columns of S_k(f), the maxima of
    |S_k(f)| up to each horizon and the tail maximum of the ratio, which
    _ShiftWalk computes from byte tables of the martingale's walk, in
    float64 only where the coboundary sandwich leaves a maximum open.
    """
    _require(cfg, ShiftConfig)
    n_top = cfg.horizons[-1]
    sigma = 1.0 if cfg.martingale == "rademacher" else None  # else estimated below

    finals = np.empty((cfg.paths, len(cfg.horizons)), dtype=np.float64)
    sups = np.empty((cfg.paths, len(cfg.horizons)), dtype=np.float64)
    tail_ratio = np.empty(cfg.paths, dtype=np.float64)
    walk = _ShiftWalk(cfg)
    for lo, hi in _chunk_ranges(cfg.paths, cfg.workers, _paths_per_chunk(n_top)):
        finals[lo:hi], sups[lo:hi], tail_ratio[lo:hi] = walk(_shift_bits_chunk(cfg, lo, hi, n_top))

    if sigma is None:
        sigma = float(np.std(finals[:, -1]) / math.sqrt(n_top))
        if sigma < 1e-9:
            raise ValueError("degenerate f: sigma estimate below 1e-9")
    report = CltReport(
        config=cfg.echo(), config_sha256=config_hash(cfg.echo()),
        version=__version__, sigma=sigma,
    )
    qs = [0.5, 0.9, 0.99]
    for gi, n in enumerate(cfg.horizons):
        z = finals[:, gi] / (sigma * math.sqrt(n))
        sup_scaled = sups[:, gi] / (sigma * math.sqrt(n))
        row = {
            "n": n,
            "ks_distance": ks_statistic(z),
            "mean": float(np.mean(z)),
            "sup_mean": float(np.mean(sup_scaled)),
        }
        for q, value in zip(qs, quantiles(sup_scaled, qs)):
            row[f"sup_q{int(q * 100)}"] = value
        report.rows.append(row)
    report.limsup = {
        "tail_window": [walk.k0, n_top],
        "normalization": "sqrt(2 sigma^2 k loglog k)",
        "mean": float(np.mean(tail_ratio / sigma)),
        "quantiles": dict(zip(map(str, qs), quantiles(tail_ratio / sigma, qs))),
    }
    return report
