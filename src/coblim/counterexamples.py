"""Transfer-function counterexamples on exact odometer towers.

Two families of triangular tower functions are built here, both of the form

    g_i = a_i * ( sum_{j=1..k_i} j 1(T^{n_i-j} A_i)
                + sum_{j=k_i+1..2k_i-1} (2k_i-j) 1(T^{n_i-j} A_i) ),
    g   = sum_{i >= i0} g_i,

with n_i = 2^i, k_i = ceil(2^(i*w)) and A_i the level-0 cylinder of the
height-n_i odometer tower.  The IP_LIL kind uses amplitude
a_i = sqrt(n_i log log n_i)/k_i and defeats the invariance principle and the
LIL for f = g - g.T; the SLLN kind uses a_i = n_i^(1/p)/k_i and defeats the
p-strong law.  On the odometer the towers are exact (mu(A_i) = 2^-i, no
residual set), so norms and violation events are countable in exact rational
arithmetic: g_i(T^l w) depends only on (level(w,i)+l) mod n_i.

All level combinatorics are integer-exact; amplitudes are the only floating
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import OdometerPoint, level
from .weak_tails import SimpleFunctionRep, strong_norm

__all__ = [
    "TowerLevelMap",
    "TowerCounterexample",
    "build_tower_counterexample",
    "eval_g",
    "truncation_tail_bound",
    "orbit_truncation_bound",
    "exact_norms",
    "NormRow",
    "exact_violation_probability",
    "PeakFraction",
    "AbsoluteThreshold",
    "dyadic_window",
    "full_window",
    "g_residue_table",
    "blocks_for_range",
]

_E_TO_E = math.exp(math.e)  # n_i must exceed this so log log n_i > 1 > 0


@dataclass(frozen=True)
class TowerLevelMap:
    """Sparse level -> value map realizing g_i on the height-2^i tower.

    Nonzero at exactly the 2k_i - 1 levels n_i - j (j = 1..2k_i-1), with the
    triangular profile a_i*j rising to the peak a_i*k_i at level n_i - k_i
    and falling back to a_i.  All values are >= 0 (the lower-bound counting
    arguments need g_i <= g pointwise).
    """

    i: int
    n: int
    k: int
    amplitude: float

    def __post_init__(self) -> None:
        if self.n != 1 << self.i:
            raise ValueError("n must equal 2^i")
        if not 0 < 2 * self.k < self.n:
            raise ValueError(f"need 0 < 2k < n at i={self.i} (k={self.k}, n={self.n})")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")

    def value_at_level(self, lev: int) -> float:
        j = self.n - lev
        if 1 <= j <= 2 * self.k - 1:
            return self.amplitude * min(j, 2 * self.k - j)
        return 0.0

    def profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """(levels, values) of the nonzero part, j ascending."""
        js = np.arange(1, 2 * self.k, dtype=np.int64)
        vals = self.amplitude * np.minimum(js, 2 * self.k - js)
        return self.n - js, vals

    @property
    def peak(self) -> float:
        return self.amplitude * self.k

    def rep(self) -> SimpleFunctionRep:
        """Exact distribution of g_i under the uniform measure."""
        _, vals = self.profile()
        return SimpleFunctionRep.from_uniform(vals.tolist(), self.n)

    def diff_rep(self) -> SimpleFunctionRep:
        """Exact distribution of |g_i - g_i o T|.

        The one-step difference is +-a_i on the 2k_i levels n_i - j for
        j = 1..2k_i and zero elsewhere, since the triangular profile moves
        by unit steps of a_i and the tower wraps exactly on the odometer.
        """
        return SimpleFunctionRep.from_pairs([self.amplitude], [Fraction(2 * self.k, self.n)])


@dataclass(frozen=True)
class TowerCounterexample:
    """Validated parameters plus level maps for one counterexample g."""

    kind: str  # "ip_lil" or "slln"
    p: float
    r: float
    q: Optional[float]
    window_exp: float  # the alpha of the IP_LIL kind / beta of the SLLN kind
    i0: int
    i_max: int
    bits: int
    maps: Tuple[TowerLevelMap, ...]

    def map_for(self, i: int) -> TowerLevelMap:
        if not self.i0 <= i <= self.i_max:
            raise ValueError(f"tower index {i} outside [{self.i0}, {self.i_max}]")
        return self.maps[i - self.i0]

    @property
    def g_exponent(self) -> float:
        """Integrability exponent claimed for g: p (IP_LIL) or q (SLLN)."""
        return self.p if self.kind == "ip_lil" else float(self.q)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        out = {
            "kind": self.kind,
            "p": self.p,
            "r": self.r,
            "window_exp": self.window_exp,
            "i0": self.i0,
            "i_max": self.i_max,
            "bits": self.bits,
        }
        if self.q is not None:
            out["q"] = self.q
        return out


def _window_bounds(kind: str, p: float, r: float, q: Optional[float]) -> Tuple[float, float]:
    if kind == "ip_lil":
        return (r - 2) / (2 * (r - 1)), 1 - p / 2
    return (r - p) / (p * (r - 1)), 1 - float(q) / p  # type: ignore[arg-type]


def _amplitude(kind: str, p: float, n: int, k: int) -> float:
    if kind == "ip_lil":
        return math.sqrt(n * math.log(math.log(n))) / k
    return n ** (1.0 / p) / k


def build_tower_counterexample(
    kind: str,
    p: float,
    r: float,
    q: Optional[float] = None,
    window_exp: Optional[float] = None,
    i0: Optional[int] = None,
    i_max: int = 20,
    bits: int = 24,
) -> TowerCounterexample:
    """Validate exponents, choose the window exponent, build the level maps.

    Args:
        kind: "ip_lil" (needs 1 <= p < 2 <= r, p < r/(r-1)) or "slln"
            (needs 1 <= q < p < r, 1 < p < 2, q < (p-1)r/(r-1)).
        window_exp: exponent in the open feasibility window; default midpoint.
        i0: first tower index; default is the smallest i with 2k_i < n_i and
            n_i > e^e (keeps log log n_i positive).
        i_max: truncation index for g = sum g_i.
        bits: odometer precision B >= i_max.

    Raises:
        ValueError naming the violated strict inequality when the exponents
        sit on or beyond a boundary, or when the window is empty.
    """
    if kind not in ("ip_lil", "slln"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ip_lil":
        if q is not None:
            raise ValueError("q is only a parameter of the slln kind")
        if not (1 <= p < 2 <= r):
            raise ValueError(f"need 1 <= p < 2 <= r, got p={p}, r={r}")
        if not p < r / (r - 1):
            raise ValueError(
                f"feasibility fails: need p < r/(r-1) = {r / (r - 1):.6g} (got p={p}); "
                "the window of admissible exponents is empty"
            )
    else:
        if q is None:
            raise ValueError("the slln kind requires q")
        if not (1 <= q < p < r and 1 < p < 2):
            raise ValueError(f"need 1 <= q < p < r and 1 < p < 2, got q={q}, p={p}, r={r}")
        if not q < (p - 1) * r / (r - 1):
            raise ValueError(
                f"feasibility fails: need q < (p-1)r/(r-1) = {(p - 1) * r / (r - 1):.6g} "
                f"(got q={q}); the window of admissible exponents is empty"
            )
    lo, hi = _window_bounds(kind, p, r, q)
    if not lo < hi:
        raise ValueError(f"window ({lo:.6g}, {hi:.6g}) for the {kind} exponent is empty")
    if window_exp is None:
        window_exp = (lo + hi) / 2
    if not lo < window_exp < hi:
        raise ValueError(
            f"window exponent {window_exp} outside the open window ({lo:.6g}, {hi:.6g})"
        )

    def k_of(i: int) -> int:
        return math.ceil(2 ** (i * window_exp))

    if i0 is None:
        i0 = 1
        while not (2 * k_of(i0) < (1 << i0) and (1 << i0) > _E_TO_E):
            i0 += 1
            if i0 > 60:
                raise ValueError("could not find a start index i0")
    else:
        if not (2 * k_of(i0) < (1 << i0) and (1 << i0) > _E_TO_E):
            raise ValueError(f"i0={i0} violates 2k_i < n_i or n_i > e^e")
    if i_max < i0:
        raise ValueError(f"i_max={i_max} < i0={i0}")
    if i_max > bits:
        raise ValueError(f"truncation index i_max={i_max} exceeds precision B={bits}")
    maps = []
    for i in range(i0, i_max + 1):
        n, k = 1 << i, k_of(i)
        if not 2 * k < n:
            raise ValueError(f"2k_i < n_i fails at i={i}")
        maps.append(TowerLevelMap(i=i, n=n, k=k, amplitude=_amplitude(kind, p, n, k)))
    return TowerCounterexample(
        kind=kind, p=p, r=r, q=q, window_exp=window_exp,
        i0=i0, i_max=i_max, bits=bits, maps=tuple(maps),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_g(cex: TowerCounterexample, point: OdometerPoint) -> float:
    """g(point) = sum_{i=i0..i_max} g_i(point), reading each tower level."""
    if point.nbits != cex.bits:
        raise ValueError(f"point precision {point.nbits} != counterexample B={cex.bits}")
    return math.fsum(m.value_at_level(level(point, m.i)) for m in cex.maps)


def _omitted_towers_sum(cex: TowerCounterexample, term: Callable[[int, int], float]) -> float:
    """sum_{i > i_max} term(k_i, n_i) over the towers the truncation leaves out.

    The bounds below converge geometrically (k_i/n_i ~ 2^{-i(1-w)}); terms
    are accumulated until they fall below 1e-18 relative.
    """
    total = 0.0
    i = cex.i_max + 1
    while True:
        t = term(math.ceil(2 ** (i * cex.window_exp)), 1 << i)
        total += t
        if t < 1e-18 * max(total, 1e-300) or i > cex.i_max + 4000:
            return total
        i += 1


def truncation_tail_bound(cex: TowerCounterexample) -> float:
    """sum_{i > i_max} 2 k_i / n_i: probability any omitted g_i is nonzero."""
    return _omitted_towers_sum(cex, lambda k, n_i: 2.0 * k / n_i)


def orbit_truncation_bound(cex: TowerCounterexample, n: int) -> float:
    """Probability that an orbit segment of length n meets an omitted tower.

    Union bound: a uniform start hits the nonzero band of tower i within n
    steps with probability at most (n + 2k_i)/n_i.
    """
    return min(_omitted_towers_sum(cex, lambda k, n_i: min(1.0, (n + 2.0 * k) / n_i)), 1.0)


def g_residue_table(cex: TowerCounterexample) -> np.ndarray:
    """g as a dense table over residues mod 2^{i_max}.

    g depends on the point only through value mod 2^{i_max}; the table makes
    window maxima over orbits cheap and exact (one gather per step).
    """
    size = 1 << cex.i_max
    table = np.zeros(size, dtype=np.float64)
    for m in cex.maps:
        levels, vals = m.profile()
        for lev, v in zip(levels.tolist(), vals.tolist()):
            table[lev::m.n] += v
    return table


# ---------------------------------------------------------------------------
# exact norms
# ---------------------------------------------------------------------------

@dataclass
class NormRow:
    """Exact per-tower norms with their closed-form bounds."""

    i: int
    n: int
    k: int
    amplitude: float
    norm_p_exact: float   # L^p norm of g_i (L^q for the slln kind)
    bound_355: float
    norm_r_exact: float   # L^r norm of g_i - g_i o T (exact: a_i (2k_i/n_i)^{1/r})
    bound_358: float
    violation_prob: Fraction


def _g_norm_bound(cex: TowerCounterexample, m: TowerLevelMap) -> float:
    """Closed-form bound on the g_i norm at the kind's integrability exponent.

    IP_LIL: ||g_i||_p <= 2^{1/p} n^{1/2-1/p} (log log n)^{1/2} k^{1/p}.
    SLLN:   ||g_i||_q <= 2^{1/q} n^{1/p-1/q} k^{1/q} (same computation with
            amplitude n^{1/p}/k in place of sqrt(n log log n)/k).
    """
    e = cex.g_exponent
    if cex.kind == "ip_lil":
        return 2 ** (1 / e) * m.n ** (0.5 - 1 / e) * math.log(math.log(m.n)) ** 0.5 * m.k ** (1 / e)
    return 2 ** (1 / e) * m.n ** (1 / cex.p - 1 / e) * m.k ** (1 / e)


def default_violation_event(cex: TowerCounterexample, i: int) -> Tuple["ThresholdRule", Tuple[int, int]]:
    """The reference violation event for tower i.

    SLLN: max over l in [2^i, 2^{i+1}] of g_i o T^l >= n_i^{1/p}, i.e. the
    peak level qualifies and nothing below it (threshold = peak exactly).
    IP_LIL: max over l in [1, n_i] of g_i o T^l > 0.1 sqrt(n_i) (the epsilon
    = 0.1 instance of the condition16 scaled-maximum event at horizon n_i).
    """
    m = cex.map_for(i)
    if cex.kind == "slln":
        return PeakFraction(Fraction(1)), dyadic_window(i)
    return AbsoluteThreshold(0.1 * math.sqrt(m.n)), full_window(m.n)


def exact_norms(cex: TowerCounterexample, i_range: Optional[Sequence[int]] = None) -> List[NormRow]:
    """Per-tower exact norms, closed-form bounds and violation probabilities.

    The g_i norm is computed from the exact simple-function representation;
    the coboundary-difference norm is a_i (2k_i/n_i)^{1/r} exactly (the
    difference has modulus a_i on exactly 2k_i levels), which coincides with
    the closed-form bound since the odometer towers have no residual set.
    """
    rows = []
    for i in (i_range if i_range is not None else range(cex.i0, cex.i_max + 1)):
        m = cex.map_for(i)
        e = cex.g_exponent
        norm_g = strong_norm(m.rep(), e)
        norm_diff = strong_norm(m.diff_rep(), cex.r)
        bound_diff = m.amplitude * (2 * m.k / m.n) ** (1 / cex.r)
        rule, window = default_violation_event(cex, i)
        prob = exact_violation_probability(cex, i, rule, window)
        rows.append(NormRow(
            i=i, n=m.n, k=m.k, amplitude=m.amplitude,
            norm_p_exact=norm_g, bound_355=_g_norm_bound(cex, m),
            norm_r_exact=norm_diff, bound_358=bound_diff,
            violation_prob=prob,
        ))
    return rows


def norm_decay_ratios(rows: Sequence[NormRow]) -> List[float]:
    """Successive ratios ||g_{i+1}|| / ||g_i|| (geometric decay diagnostic)."""
    return [rows[j + 1].norm_p_exact / rows[j].norm_p_exact for j in range(len(rows) - 1)]


# ---------------------------------------------------------------------------
# exact violation probabilities (residue counting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakFraction:
    """Threshold = fraction * peak value, resolved in exact integer units.

    g_i takes the values a_i * min(j, 2k_i - j); comparing against
    fraction * a_i * k_i reduces to min(j, 2k_i - j) >= ceil(fraction * k_i),
    an exact integer comparison immune to amplitude rounding.
    """

    fraction: Fraction

    def qualifying_j(self, m: TowerLevelMap) -> range:
        units = self.fraction * m.k
        jmin = max(math.ceil(units), 1)
        if jmin > m.k:
            return range(0)  # above the peak: empty
        return range(jmin, 2 * m.k - jmin + 1)


@dataclass(frozen=True)
class AbsoluteThreshold:
    """Threshold as a raw value; compared against a_i * min(j, 2k_i - j)."""

    value: float

    def qualifying_j(self, m: TowerLevelMap) -> range:
        if self.value <= 0:
            return range(1, 2 * m.k)
        # smallest unit count u with a_i * u >= value
        u = math.ceil(self.value / m.amplitude)
        if u * m.amplitude < self.value:  # guard the ceil against rounding
            u += 1
        while u > 1 and (u - 1) * m.amplitude >= self.value:
            u -= 1
        if u > m.k:
            return range(0)
        return range(u, 2 * m.k - u + 1)


ThresholdRule = Union[PeakFraction, AbsoluteThreshold]


def dyadic_window(i: int) -> Tuple[int, int]:
    """The window l in [2^i, 2^{i+1}] of the block event."""
    return (1 << i, 1 << (i + 1))


def full_window(n: int) -> Tuple[int, int]:
    """The window l in [1, n] of the condition16 scaled maximum."""
    return (1, n)


def exact_violation_probability(
    cex: TowerCounterexample,
    i: int,
    rule: ThresholdRule,
    window: Optional[Tuple[int, int]] = None,
) -> Fraction:
    """Exact measure of {w : max_{l in window} g_i(T^l w) >= threshold}.

    Since g_i(T^l w) depends only on (level(w,i) + l) mod n_i, the event is
    the set of residues res with res + l = n_i - j (mod n_i) for a qualifying
    j and an l in the window.  Both ranges are contiguous, so these residues
    form one arc of len(js) + l_hi - l_lo points mod n_i (all of Z/n_i Z when
    that reaches n_i); its measure is a dyadic rational counted exactly.
    g >= g_i >= 0 makes this a certified lower bound for the same event with
    the full g.

    `window` is an inclusive pair (l_lo, l_hi); default is the dyadic block
    window [2^i, 2^{i+1}].
    """
    if not cex.i0 <= i <= cex.i_max:
        raise ValueError(f"tower index {i} outside [{cex.i0}, {cex.i_max}]")
    m = cex.map_for(i)
    if window is None:
        window = dyadic_window(i)
    l_lo, l_hi = window
    if l_lo > l_hi or l_lo < 0:
        raise ValueError(f"bad window {window}")
    js = rule.qualifying_j(m)
    if len(js) == 0:
        return Fraction(0)
    return Fraction(min(m.n, len(js) + l_hi - l_lo), m.n)


def violation_probability_bruteforce(
    cex: TowerCounterexample, i: int, rule: ThresholdRule, window: Tuple[int, int]
) -> Fraction:
    """Reference implementation scanning all residues (small i only)."""
    m = cex.map_for(i)
    if m.n > 1 << 16:
        raise ValueError("brute force capped at i <= 16")
    js = rule.qualifying_j(m)
    qual_levels = np.zeros(m.n, dtype=bool)
    for j in js:
        qual_levels[m.n - j] = True
    l_lo, l_hi = window
    hit = np.zeros(m.n, dtype=bool)
    for l in range(l_lo, l_hi + 1):
        hit |= qual_levels[(np.arange(m.n) + l) % m.n]
    return Fraction(int(hit.sum()), m.n)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def blocks_for_range(alpha: float, n_max: int) -> List[Tuple[int, int, int]]:
    """Blocks (j, m_j, len_j) with m_j = sum_{i<j} [i^alpha], covering [0, n_max].

    len_j = [j^alpha] is the j-th block length; m_{j+1} = m_j + len_j.  The
    list stops with the first block whose start exceeds n_max.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    out = []
    m = 0
    j = 1
    while m <= n_max:
        ln = int(j ** alpha)
        out.append((j, m, max(ln, 1)))
        m += max(ln, 1)
        j += 1
    return out
