"""Exact verification of the maximal ergodic inequality on the odometer.

For the truncated maximal function

    M*_N(h)(w) = max_{1 <= n <= N} |S_n(h)(w)| / n,

the two-sided Hopf-type inequality

    t * mu{M*_N(h) >= t} <= E[ |h| 1{M*_N(h) >= t} ]          (level bound)

holds at every threshold, as does its weak-norm companion

    t * mu{M*_N(h) >= t}^(1/q) <= q/(q-1) * ||h 1{M*_N(h) >= t}||_{q,oo}.

Both are verified here by exhaustive enumeration with rational arithmetic:
equality can occur (single-spike functions attain it), so sampling or float
slack tolerances would be useless.  The trick that makes exhaustion cheap is
that a function of tower-i levels pulled back through the odometer satisfies
h(T^k w) = vals[(level(w,i) + k) mod 2^i]; the 2^B points collapse into 2^i
residue classes with identical orbits, and dyadic values make every partial
sum an integer multiple of 2^-scale_bits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import stream_generator
from .weak_tails import SimpleFunctionRep, strong_norm, weak_norm

__all__ = [
    "LevelFunction",
    "random_level_function",
    "enumerate_mstar",
    "ThresholdRow",
    "MaximalReport",
    "default_threshold_grid",
    "maximal_inequality_report",
    "MAX_ENUMERATION_BITS",
    "check_level",
    "check_enumeration",
]

MAX_ENUMERATION_BITS = 20  # refuse full enumeration beyond 2^20 points


def check_level(i: int) -> None:
    """Refuse a tower level i outside [1, MAX_ENUMERATION_BITS]."""
    if not 1 <= i <= MAX_ENUMERATION_BITS:
        raise ValueError(f"level i = {i} invalid: need 1 <= i <= {MAX_ENUMERATION_BITS}")


def check_enumeration(bits: int, i: int) -> None:
    """Refuse enumerating M* over 2^bits points beyond the resource guard
    (bits <= MAX_ENUMERATION_BITS), or at a level resolution i above bits."""
    if bits > MAX_ENUMERATION_BITS:
        raise ValueError(
            f"resource guard: B={bits} exceeds {MAX_ENUMERATION_BITS}; "
            f"full enumeration over 2^{bits} points refused"
        )
    if i > bits:
        raise ValueError(f"level resolution i={i} exceeds precision B={bits}")


@dataclass(frozen=True)
class LevelFunction:
    """Simple function of the tower-i level with dyadic values.

    The value on the level-l cylinder is numerators[l] / 2^scale_bits; each
    cylinder has measure 2^-i, so the distribution (and all norms) of h are
    exact rationals.  Keeping values dyadic keeps partial sums along orbits
    in integer arithmetic.
    """

    i: int
    numerators: Tuple[int, ...]
    scale_bits: int = 12

    def __post_init__(self) -> None:
        if not 1 <= self.i <= MAX_ENUMERATION_BITS:
            raise ValueError(f"need 1 <= i <= {MAX_ENUMERATION_BITS}")
        if len(self.numerators) != 1 << self.i:
            raise ValueError(f"need exactly 2^{self.i} level values")
        if not 0 <= self.scale_bits <= 30:
            raise ValueError("scale_bits out of range [0, 30]")
        if any(abs(v) > 1 << 30 for v in self.numerators):
            raise ValueError("level numerators capped at 2^30 (integer-overflow headroom)")

    @property
    def denominator(self) -> int:
        return 1 << self.scale_bits

    def abs_rep(self) -> SimpleFunctionRep:
        """Exact distribution of |h| (uniform mass 2^-i per level)."""
        return SimpleFunctionRep.from_uniform(
            [num / self.denominator for num in self.numerators], 1 << self.i)

    def max_abs(self) -> Fraction:
        return Fraction(max(abs(v) for v in self.numerators), self.denominator)


# Draws of random_level_function: numerators uniform in [-2^18, 2^18] over
# 2^12, and about a quarter of the levels set to zero.
_RANDOM_SCALE_BITS = 12
_RANDOM_MAX_UNITS = 1 << 18
_RANDOM_ZERO_FRACTION = 0.25


def random_level_function(seed: int, stream: int, i: int = 8) -> LevelFunction:
    """Seeded random dyadic level function (signed, partially sparse).

    Mixed signs exercise the two-sided maximal function; the zeroed levels
    produce ties and empty threshold sets, the cases where the inequality is
    sharp.  Refuses i outside [1, MAX_ENUMERATION_BITS] before it draws.
    """
    check_level(i)
    rng = stream_generator(seed, stream)
    n = 1 << i
    nums = rng.integers(-_RANDOM_MAX_UNITS, _RANDOM_MAX_UNITS + 1, size=n, dtype=np.int64)
    nums[rng.random(n) < _RANDOM_ZERO_FRACTION] = 0
    return LevelFunction(i=i, numerators=tuple(int(v) for v in nums),
                         scale_bits=_RANDOM_SCALE_BITS)


def enumerate_mstar(h: LevelFunction, n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact M*_{n_max} for every residue class, as integer pairs.

    Returns (best_num, best_den) with M* on residue class r equal to
    best_num[r] / (best_den[r] * 2^scale_bits).  Streaming over n keeps one
    int64 partial-sum vector; the cross-multiplied comparison
    |S_n| * best_den > best_num * n is exact (magnitudes stay below 2^63 by
    the caps on numerators, n_max and i).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    m = 1 << h.i
    nums = np.asarray(h.numerators, dtype=np.int64)
    if int(np.abs(nums).max(initial=0)) * n_max * n_max >= 1 << 62:
        raise ValueError("n_max too large for exact int64 streaming at this value scale")
    tiled = np.concatenate([nums, nums])  # orbit gather without modular index math
    s = np.zeros(m, dtype=np.int64)
    best_num = np.zeros(m, dtype=np.int64)
    best_den = np.ones(m, dtype=np.int64)
    base = np.arange(m, dtype=np.int64)
    for n in range(1, n_max + 1):
        s += tiled[(base + ((n - 1) & (m - 1)))]
        a = np.abs(s)
        upgrade = a * best_den > best_num * n
        best_num[upgrade] = a[upgrade]
        best_den[upgrade] = n
    return best_num, best_den


@dataclass
class ThresholdRow:
    """One threshold's exact measures and slacks."""

    t: Fraction
    mu: Fraction                    # mu{M* >= t}
    expectation: Fraction           # E[|h| 1{M* >= t}]
    slack_level_bound: Fraction     # expectation - t*mu  (>= 0 required)
    lhs_weak: float                 # t * mu^(1/q)
    rhs_weak: float                 # q/(q-1) * ||h 1{M* >= t}||_{q,oo}
    slack_weak: float               # rhs - lhs


@dataclass
class MaximalReport:
    """Exact per-threshold verification of both maximal inequalities."""

    i: int
    bits: int
    n_max: int
    q: float
    scale_bits: int
    rows: List[ThresholdRow] = field(default_factory=list)
    mstar_strong_q: float = 0.0  # ||M*||_q from the enumerated distribution
    h_weak_q: float = 0.0        # ||h||_{q,oo} (unrestricted), for context
    # per row, whether the weak bound fails: decided in integers for an
    # integer q, by slack_weak < -1e-12 otherwise
    weak_failed: List[bool] = field(default_factory=list)

    @property
    def level_bound_violations(self) -> int:
        return sum(1 for r in self.rows if r.slack_level_bound < 0)

    @property
    def weak_bound_violations(self) -> int:
        return sum(self.weak_failed)

    @property
    def min_slack_weak(self) -> float:
        return min((r.slack_weak for r in self.rows), default=0.0)


def default_threshold_grid(h: LevelFunction, points: int = 64) -> List[Fraction]:
    """Linear dyadic grid (j/points) * max|h|, j = 1..points.

    Hits max|h| exactly at j = points; equality cases of the level bound live
    at such jump thresholds, so the grid deliberately includes them.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    vmax = h.max_abs()
    if vmax == 0:
        vmax = Fraction(1)
    return [vmax * Fraction(j, points) for j in range(1, points + 1)]


def maximal_inequality_report(
    h: LevelFunction,
    bits: int,
    n_max: int,
    t_grid: Optional[Sequence[Union[Fraction, float]]] = None,
    q: float = 2.0,
) -> MaximalReport:
    """Enumerate M*_{n_max} exactly and verify both inequalities on a grid.

    Full enumeration of the 2^bits odometer points, carried out at residue
    resolution: points sharing a tower-i level have identical orbit values,
    so the 2^i residue classes (each of exact measure 2^-i) are exhaustive.
    Measures, expectations and the level-bound slack are Fractions.  The
    weak-norm columns are floats; for an integer q the weak bound's verdict
    is exact, t^q mu against (q/(q-1))^q max_v v^q tail_v / m cross-multiplied
    in integers (tail_v counts the hit residues with |h| >= v), and for any
    other q it is the float slack below -1e-12.

    Raises ValueError when bits exceeds the enumeration guard (B <= 20), or
    when the level resolution i exceeds bits.
    """
    check_enumeration(bits, h.i)
    if q <= 1:
        raise ValueError("q must exceed 1")
    if t_grid is None:
        t_grid = default_threshold_grid(h)
    thresholds = [t if isinstance(t, Fraction) else Fraction(t) for t in t_grid]
    if any(t <= 0 for t in thresholds):
        raise ValueError("thresholds must be positive")

    best_num, best_den = enumerate_mstar(h, n_max)
    m = 1 << h.i
    scale = h.denominator
    pairs = [(int(best_num[r]), int(best_den[r])) for r in range(m)]

    report = MaximalReport(i=h.i, bits=bits, n_max=n_max, q=q, scale_bits=h.scale_bits)
    mstar_rep = SimpleFunctionRep.from_uniform([bn / (bd * scale) for bn, bd in pairs], m)
    report.mstar_strong_q = strong_norm(mstar_rep, q)
    report.h_weak_q = weak_norm(h.abs_rep(), q)
    cq = q / (q - 1.0)

    # residues in ascending exact order of M*, so every hit set is a suffix
    order = sorted(range(m), key=lambda r: Fraction(*pairs[r]))
    ranked = [pairs[r] for r in order]
    abs_nums = [abs(h.numerators[r]) for r in order]
    abs_values = [v / scale for v in abs_nums]
    qi = int(q) if float(q).is_integer() else 0
    powers = [v ** qi for v in abs_nums] if qi else []
    for t in thresholds:
        # M*_r >= t  <=>  best_num * t.den >= t.num * best_den * scale (exact
        # ints); the test is False then True along `ranked`
        tn, td = t.numerator, t.denominator
        first = bisect_left(ranked, True, key=lambda pair: pair[0] * td >= tn * pair[1] * scale)
        mu = Fraction(m - first, m)
        expectation = Fraction(sum(abs_nums[first:]), m * scale)
        slack = expectation - t * mu
        restricted = SimpleFunctionRep.from_uniform(abs_values[first:], m)
        lhs_weak = float(t) * float(mu) ** (1.0 / q)
        rhs_weak = cq * weak_norm(restricted, q)
        report.rows.append(ThresholdRow(
            t=t, mu=mu, expectation=expectation, slack_level_bound=slack,
            lhs_weak=lhs_weak, rhs_weak=rhs_weak, slack_weak=rhs_weak - lhs_weak,
        ))
        if qi:  # v^q tail_v in units of scale^-q: the j-th largest v^q times j
            hit = sorted(powers[first:], reverse=True)
            weak = max(map(mul, hit, range(1, len(hit) + 1)), default=0)
            report.weak_failed.append(
                tn ** qi * (m - first) * ((qi - 1) * scale) ** qi > (qi * td) ** qi * weak)
        else:
            report.weak_failed.append(rhs_weak - lhs_weak < -1e-12)
    return report
