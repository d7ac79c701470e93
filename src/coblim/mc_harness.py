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
  condition reports run on that config: g_table, the residue table of g;
  start_residues, from the first raw word of each path's stream (no
  Generator per path); orbits, the strided view whose row r is g(T^k r),
  k = 0..n_top; and orbit_pass, the one chunked pass over the orbit rows at
  the start residues, which computes everything the three reports read of
  them (window extrema per horizon for condition16 and slln; tail sups,
  block and dyadic-window exceedance counts for condition17).  g is held
  once, in one float64 buffer of M + n_top entries (M = 2^{i_max}):
  g_table is a view of its first M entries, its last n_top entries repeat
  the first n_top of g_table cyclically, and orbits is the sliding-window
  view over all of it;
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
    AbsoluteThreshold,
    TowerCounterexample,
    blocks_for_range,
    exact_violation_probability,
    g_residue_table,
    orbit_truncation_bound,
    truncation_tail_bound,
)
from .dynamics import coordinate_matrix, fair_bits, first_draws
from .reports import CriteriaReport, config_hash

__all__ = [
    "ShiftFunction",
    "SHIFT_FUNCTIONS",
    "OdometerConfig",
    "ShiftConfig",
    "ConditionReport",
    "CltReport",
    "validate_hypotheses",
    "condition16_report",
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
    return an array of the same shape.  `sup_bound` is ||g||_oo when finite;
    0.0 marks g = 0, which clt_lil_report never evaluates.
    """

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=np.float64))


def _inverse_cuberoot(x: np.ndarray) -> np.ndarray:
    # unbounded but square-integrable: E[g^2] = int_0^{1/2} x^{-2/3} dx < oo.
    # The floor keeps x = 0 (probability 2^-W) finite without affecting moments.
    return np.minimum(np.maximum(x, 2.0 ** -54) ** (-1.0 / 3.0), 2.0 ** 18)


SHIFT_FUNCTIONS: Dict[str, ShiftFunction] = {
    "zero": ShiftFunction("zero", lambda x: np.zeros_like(x), sup_bound=0.0),
    "identity": ShiftFunction("identity", lambda x: x.copy(), sup_bound=0.5),
    "cosine": ShiftFunction("cosine", lambda x: np.cos(2.0 * np.pi * x), sup_bound=1.0),
    "inverse_cuberoot": ShiftFunction("inverse_cuberoot", _inverse_cuberoot, sup_bound=None),
}


# ---------------------------------------------------------------------------
# hypothesis validation (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _frac(x: Union[int, float, str, Fraction]) -> Fraction:
    """Exact rational from user input.

    Floats are read through their decimal repr, so validate_hypotheses(p=1.6)
    means the decimal 8/5, not the binary double nearest to it; boundary
    cases like p = r/(r-1) then compare exactly.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _need(exponents: Mapping[str, Any], *names: str) -> List[Fraction]:
    missing = [n for n in names if n not in exponents or exponents[n] is None]
    if missing:
        raise ValueError(f"missing exponent(s): {', '.join(missing)}")
    return [_frac(exponents[n]) for n in names]


THEOREM_IDS = ("2.1", "2.4i", "2.4ii", "2.7", "2.10", "2.11")


def validate_hypotheses(exponents: Mapping[str, Any], theorem: str) -> CriteriaReport:
    """Check the exponent hypotheses of one limit theorem, exactly.

    Supported ids: "2.1" (weak invariance principle via weak-norm pair),
    "2.4i"/"2.4ii" (iterated logarithm, strict/boundary), "2.7" (strong-law
    series), "2.10" and "2.11" (counterexample feasibility windows).  Every
    comparison is performed in rational arithmetic; margins are distances to
    the relevant boundary (positive = strict slack).  Where the construction
    needs an auxiliary exponent window, the open interval is reported in the
    context and its nonemptiness is a named check.
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
        r = _frac(exponents["r"]) if exponents.get("r") is not None else p / (p - 1)
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
        ctx["p"], ctx["r"] = p, r
        report.add("1 <= p < 2 <= r", 1 <= p < 2 <= r,
                   float(min(p - 1, 2 - p, r - 2)), detail=f"p = {p}, r = {r}")
        gap = Fraction(1, 2) * (r / (r - 1) - p)
        ctx["feasibility_gap"] = gap
        report.add("p < r/(r-1)", p < r / (r - 1), float(r / (r - 1) - p),
                   detail=f"r/(r-1) = {r / (r - 1)}")
        lo, hi = (r - 2) / (2 * (r - 1)), 1 - p / 2
        ctx["window"] = (lo, hi)
        report.add("window nonempty", lo < hi, float(hi - lo),
                   detail=f"({float(lo):.6g}, {float(hi):.6g}), width = feasibility gap")
    else:  # 2.11
        q, p, r = _need(exponents, "q", "p", "r")
        ctx["q"], ctx["p"], ctx["r"] = q, p, r
        report.add("1 < p < 2", 1 < p < 2, float(min(p - 1, 2 - p)), detail=f"p = {p}")
        report.add("1 <= q < p < r", 1 <= q < p < r,
                   float(min(q - 1, p - q, r - p)), detail=f"q = {q}, p = {p}, r = {r}")
        bound = (p - 1) * r / (r - 1)
        ctx["(p-1)r/(r-1)"] = bound
        report.add("q < (p-1)r/(r-1)", q < bound, float(bound - q),
                   detail=f"(p-1)r/(r-1) = {bound}")
        lo, hi = (r - p) / (p * (r - 1)), 1 - q / p
        ctx["window"] = (lo, hi)
        report.add("window nonempty", lo < hi, float(hi - lo),
                   detail=f"({float(lo):.6g}, {float(hi):.6g})")
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
    `block_exp` is the block-growth exponent of condition17."""

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
        """g on every residue mod M = 2^{i_max} of the odometer (see g_residue_table):
        the first M entries of the config's one float64 buffer of g, whose last
        n_top entries orbits fills."""
        m = 1 << self.cex.i_max
        return g_residue_table(self.cex, out=np.empty(m + self.horizons[-1])[:m])

    @cached_property
    def start_residues(self) -> np.ndarray:
        """Per-path odometer start residues mod len(g_table): path j starts at
        stream_generator(seed, j).integers(0, 2**bits), read by first_draws."""
        modulus = np.uint64(self.g_table.shape[0])
        return (first_draws(self.seed, self.paths, self.cex.bits) % modulus).astype(np.int64)

    @cached_property
    def orbits(self) -> np.ndarray:
        """Read-only view with rows g(T^k r), k = 0..n_top: the sliding windows over
        the buffer whose head is g_table (g_table.base), once its last n_top entries
        hold the first n_top entries of g_table, cyclically.  Only those n_top
        entries are copied, never the whole table."""
        n_top, table = self.horizons[-1], self.g_table
        m, buffer = table.shape[0], table.base
        buffer[m:] = table[:n_top] if n_top <= m else table[np.arange(n_top) % m]
        return sliding_window_view(buffer, n_top + 1)

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
    variance, "zero" disables it); `window` counts the coordinate bits.
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


def _horizon_accumulate(ufunc: np.ufunc, x: np.ndarray, h_idx: np.ndarray) -> np.ndarray:
    """ufunc (np.maximum or np.minimum) over x[:, 1..n] for each horizon n in
    ``h_idx``, one column each: reduced per segment between horizons, then
    accumulated across them."""
    cols = np.concatenate(([1], h_idx[:-1] + 1))
    return ufunc.accumulate(ufunc.reduceat(x[:, : h_idx[-1] + 1], cols, axis=1), axis=1)


def _paths_per_chunk(n: int) -> int:
    """Paths per chunk for rows of n + 1 float64 cells: about 2^18 cells (2 MiB)."""
    return max(1, (1 << 18) // max(1, n))


class BlockProbe:
    """condition17's probe on [n0, n_top] and its counts over the paths.

    Geometry: the complete blocks (j, m_j, l_j), m_j >= n0 and m_j + l_j <=
    n_top, with thresholds eps sqrt(m_j loglog m_j), and the towers i whose
    dyadic window [2^i, 2^{i+1}] lies in [n0, n_top], with thresholds eps
    sqrt(2^{i+1} loglog 2^{i+1}).  Counts, filled by observe: per path the
    tail sup of g.T^n / sqrt(n loglog n) over n0 <= n <= n_top; per eps the
    paths whose block max exceeds its threshold (strictly) and those whose
    dyadic-window max meets its threshold.
    """

    def __init__(self, cfg: OdometerConfig, blocks: List[Tuple[int, int, int]]) -> None:
        n0, n_top, cex = cfg.horizons[0], cfg.horizons[-1], cfg.cex
        self.blocks = blocks
        self.n0 = n0
        self.norm = np.sqrt(
            np.arange(n0, n_top + 1, dtype=np.float64)
            * np.log(np.log(np.arange(n0, n_top + 1, dtype=np.float64)))
        )
        starts = np.asarray([mj for _, mj, _ in blocks], dtype=np.int64)
        self.ends = np.asarray([mj + ln for _, mj, ln in blocks], dtype=np.int64)
        # segment boundaries [m_j, m_{j+1}) plus the closing right endpoint
        self.bounds = np.concatenate([starts, self.ends[-1:]])
        self.thresholds = {
            eps: eps * np.sqrt(starts * np.log(np.log(starts.astype(np.float64))))
            for eps in cfg.epsilons
        }
        self.dyadic = [
            i for i in range(cex.i0, cex.i_max + 1)
            if (1 << i) >= n0 and (1 << (i + 1)) <= n_top
        ]
        self.dyadic_thresholds = {
            eps: [eps * math.sqrt((1 << (i + 1)) * math.log(math.log(1 << (i + 1))))
                  for i in self.dyadic]
            for eps in cfg.epsilons
        }
        self.tail_sup = np.empty(cfg.paths, dtype=np.float64)
        self.block_hits = {eps: np.zeros(len(blocks), dtype=np.int64) for eps in cfg.epsilons}
        self.dyadic_hits = {eps: np.zeros(len(self.dyadic), dtype=np.int64)
                            for eps in cfg.epsilons}

    @classmethod
    def for_config(cls, cfg: OdometerConfig) -> Optional["BlockProbe"]:
        """The probe of cfg, or None when its first horizon is below 16 (log
        log must be positive) or no complete block fits in the range."""
        n0, n_top = cfg.horizons[0], cfg.horizons[-1]
        if n0 < 16:
            return None
        blocks = [
            (j, mj, ln) for j, mj, ln in blocks_for_range(cfg.block_exp, n_top)
            if mj >= n0 and mj + ln <= n_top
        ]
        return cls(cfg, blocks) if blocks else None

    def observe(self, lo: int, hi: int, gv: np.ndarray) -> None:
        """Add the orbit rows gv of paths lo..hi-1 to the counts."""
        self.tail_sup[lo:hi] = np.max(gv[:, self.n0:] / self.norm[None, :], axis=1)
        red = np.maximum.reduceat(gv, self.bounds, axis=1)[:, : len(self.blocks)]
        block_max = np.maximum(red, gv[:, self.ends])
        for eps, thr in self.thresholds.items():
            self.block_hits[eps] += (block_max > thr[None, :]).sum(axis=0)
        for di, i in enumerate(self.dyadic):
            wmax = np.max(gv[:, (1 << i): (1 << (i + 1)) + 1], axis=1)
            for eps, thetas in self.dyadic_thresholds.items():
                self.dyadic_hits[eps][di] += int(np.count_nonzero(wmax >= thetas[di]))


class OrbitPass:
    """What the odometer reports read of the orbit rows g(T^k r_j), k =
    0..n_top, at the start residues r_j, from one pass over cfg.orbits in
    chunks of paths: wmax and wmin, the max and min of g over T^1..T^n (rows
    paths, columns horizons n; see _horizon_accumulate), read by condition16
    and slln; and probe, condition17's BlockProbe, None where the config has
    none."""

    def __init__(self, cfg: OdometerConfig) -> None:
        h_idx = np.asarray(cfg.horizons, dtype=np.int64)
        self.wmax, self.wmin = np.empty((2, cfg.paths, len(cfg.horizons)), dtype=np.float64)
        self.probe = BlockProbe.for_config(cfg)
        for lo, hi in _chunk_ranges(cfg.paths, cfg.workers, _paths_per_chunk(cfg.horizons[-1])):
            gv = cfg.orbits[cfg.start_residues[lo:hi]]
            self.wmax[lo:hi] = _horizon_accumulate(np.maximum, gv, h_idx)
            self.wmin[lo:hi] = _horizon_accumulate(np.minimum, gv, h_idx)
            if self.probe is not None:
                self.probe.observe(lo, hi, gv)


_HIT_PIECE = 1 << 18  # table entries scanned at a time by _window_hit_count


def _window_hit_count(table: np.ndarray, thr: float, n: int) -> int:
    """Number of residues r whose window r+1..r+n (mod M) meets a value >= thr:
    the union of the arcs p-n..p-1 before the hits p, so each hit adds the
    cyclic gap back to the previous hit, capped at n.  The table is scanned in
    pieces of _HIT_PIECE entries; the last hit carries to the next piece, and
    the first hit closes the cyclic gap at the end."""
    total, first, last = 0, -1, -1
    for lo in range(0, table.shape[0], _HIT_PIECE):
        hits = np.flatnonzero(table[lo: lo + _HIT_PIECE] >= thr)
        if hits.size == 0:
            continue
        hits += lo
        if last < 0:
            first = int(hits[0])
        else:
            total += min(int(hits[0]) - last, n)
        total += int(np.minimum(np.diff(hits), n).sum())
        last = int(hits[-1])
    return 0 if last < 0 else total + min(first + table.shape[0] - last, n)


# ---------------------------------------------------------------------------
# condition16: in-probability decay of the scaled orbit maximum
# ---------------------------------------------------------------------------

def condition16_report(cfg: OdometerConfig) -> ConditionReport:
    """Estimate mu{ n^{-1/2} max_{1<=k<=n} |g.T^k| > eps } per horizon.

    The estimate reads the window maxima of cfg.orbit_pass.  The exact
    counterparts per (n, eps): the full-g probability, counting all residues
    mod 2^{i_max} with _window_hit_count (the event depends on the start only
    through them), and the single-tower lower bound from
    exact_violation_probability.  The Monte Carlo estimate must sit within 3
    binomial sigma of the former.

    All exceedance events are closed (max >= threshold) so that the sampled
    event and its exact counterpart coincide literally; the open and closed
    versions bracket each other and share every decay property of interest.

    Verdict rule per eps (documented, finite-sample): see
    _level_trend_verdict on the first/last horizon estimates.
    """
    report = _new_report("condition16", cfg)
    cex, table = cfg.cex, cfg.g_table
    for gi, n in enumerate(cfg.horizons):
        for eps in cfg.epsilons:
            thr = eps * math.sqrt(n)
            est = float(np.mean(cfg.orbit_pass.wmax[:, gi] >= thr))
            exact = Fraction(_window_hit_count(table, thr, n), table.shape[0])
            report.add_row(
                n=n, epsilon=eps, estimate=est,
                se=_binomial_se(est, cfg.paths), threshold=thr, paths=cfg.paths,
            )
            i_star = min(cex.i_max, max(cex.i0, n.bit_length() - 1))
            tower_bound = exact_violation_probability(
                cex, i_star, AbsoluteThreshold(thr), window=(1, n)
            )
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
    dyadic span of m_j and fed to _increment_trend_verdict.
    """
    report = _new_report("condition17", cfg)
    n0, n_top = cfg.horizons[0], cfg.horizons[-1]
    if n0 < 16:
        raise ValueError("first horizon must be >= 16 (log log must be positive)")
    probe = cfg.orbit_pass.probe
    if probe is None:
        raise ValueError("no complete blocks inside the horizon range; extend horizons")
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
            bound = exact_violation_probability(
                cex, i, AbsoluteThreshold(theta), window=(1 << i, n_hi)
            )
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
        "quantiles": {str(q): float(np.quantile(probe.tail_sup, q)) for q in qs},
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

    g0 = cfg.g_table[cfg.start_residues][:, None]
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
    """
    _require(cfg, ShiftConfig)
    n_top, w = cfg.horizons[-1], cfg.window
    if n_top < 16:
        raise ValueError(f"horizons {list(cfg.horizons)}: the top horizon must be >= 16 "
                         f"(the iterated-logarithm tail window is [max(16, n/8), n])")
    g = None if cfg.function.sup_bound == 0.0 else cfg.function
    sigma = 1.0 if cfg.martingale == "rademacher" else None  # else estimated below

    finals = np.empty((cfg.paths, len(cfg.horizons)), dtype=np.float64)
    sups = np.empty((cfg.paths, len(cfg.horizons)), dtype=np.float64)
    tail_ratio = np.empty(cfg.paths, dtype=np.float64)
    k0 = max(16, n_top // 8)
    ks_grid = np.arange(k0, n_top + 1, dtype=np.float64)
    lil_norm = np.sqrt(2.0 * ks_grid * np.log(np.log(ks_grid)))
    h_idx = np.asarray(cfg.horizons, dtype=np.int64)
    for lo, hi in _chunk_ranges(cfg.paths, cfg.workers, _paths_per_chunk(n_top)):
        # S_k(f) = S_k(m) + g(w) - g(T^k w), k = 0..n_top (S_0 = 0), built in
        # place: each extra chunk-sized array raises the peak memory, so g,
        # whose evaluation holds the most temporaries, runs before s exists
        eps_bits = _shift_bits_chunk(cfg, lo, hi, n_top)
        gx = None if g is None else g(coordinate_matrix(eps_bits, n_top, w))
        s = np.zeros((hi - lo, n_top + 1), dtype=np.float64)
        if cfg.martingale == "rademacher":
            # +-1 partial sums in int32, exact in float64
            steps = eps_bits[:, w: w + n_top].astype(np.int32)
            steps *= 2
            steps -= 1
            s[:, 1:] = np.cumsum(steps, axis=1, out=steps)
            del steps
        if gx is not None:
            s += gx[:, :1] - gx
            del gx
        finals[lo:hi] = s[:, h_idx]
        np.abs(s, out=s)
        sups[lo:hi] = _horizon_accumulate(np.maximum, s, h_idx)
        tail_ratio[lo:hi] = np.max(s[:, k0:] / lil_norm[None, :], axis=1)
        del s  # else it lives on through the next chunk's g evaluation

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
        for q in qs:
            row[f"sup_q{int(q * 100)}"] = float(np.quantile(sup_scaled, q))
        report.rows.append(row)
    report.limsup = {
        "tail_window": [k0, n_top],
        "normalization": "sqrt(2 sigma^2 k loglog k)",
        "mean": float(np.mean(tail_ratio / sigma)),
        "quantiles": {str(q): float(np.quantile(tail_ratio / sigma, q)) for q in qs},
    }
    return report
