"""Weak-L^q tails and norms for simple functions and empirical samples.

The weak norm used throughout is ||h||_{q,oo}^q = sup_{t>0} t^q mu{|h| > t}.
For a nonnegative simple function the supremum is attained as t increases to
a jump value v, where the tail is mu{|h| >= v}; evaluating v^q mu{|h| >= v}
over the finitely many jumps therefore gives the exact supremum.  Empirical
profiles only ever bound the sup from below on their grid.

Membership in L_0^{q,oo} (t^q mu{|h|>t} -> 0) cannot be certified from data;
the largest-t grid value of t^q tail(t) is reported as a trend indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SimpleFunctionRep",
    "TailProfile",
    "tail_profile",
    "weak_norm",
    "strong_norm",
    "l0_indicator",
]


@dataclass(frozen=True)
class SimpleFunctionRep:
    """Distribution of |h| for a simple function: (value, measure) pairs.

    Values are distinct and strictly positive, measures are exact rationals
    with sum <= 1; the remaining mass sits at value 0 implicitly.
    """

    pairs: Tuple[Tuple[float, Fraction], ...]

    def __post_init__(self) -> None:
        vals = [v for v, _ in self.pairs]
        if any(v <= 0 for v in vals):
            raise ValueError("values must be strictly positive (zero mass is implicit)")
        if len(set(vals)) != len(vals):
            raise ValueError("values must be distinct")
        total = sum((m for _, m in self.pairs), Fraction(0))
        if any(m < 0 for _, m in self.pairs):
            raise ValueError("measures must be nonnegative")
        if total > 1:
            raise ValueError(f"measures sum to {total} > 1")

    @classmethod
    def from_pairs(cls, values: Sequence[float], measures: Sequence[Fraction]) -> "SimpleFunctionRep":
        """Build a rep from parallel sequences, taking |value| and merging duplicates."""
        if len(values) != len(measures):
            raise ValueError("values and measures must have equal length")
        acc: dict = {}
        for v, m in zip(values, measures):
            av = abs(float(v))
            if av == 0.0 or m == 0:
                continue
            acc[av] = acc.get(av, Fraction(0)) + Fraction(m)
        pairs = tuple(sorted(acc.items()))
        return cls(pairs=pairs)

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.pairs), Fraction(0))

    def jump_values(self) -> List[float]:
        return [v for v, _ in self.pairs]

    def tail(self, t: float) -> Fraction:
        """mu{|h| > t}, exact."""
        return sum((m for v, m in self.pairs if v > t), Fraction(0))

    def tail_geq(self, t: float) -> Fraction:
        """mu{|h| >= t}, exact."""
        return sum((m for v, m in self.pairs if v >= t), Fraction(0))

    def moment(self, q: float) -> float:
        """E|h|^q computed from the representation (fsum for stability)."""
        return math.fsum((v ** q) * float(m) for v, m in self.pairs)


@dataclass
class TailProfile:
    """Tail function sampled on a grid: tail[m] = mu-hat{|h| > t_grid[m]}.

    `source` is "exact" when backed by a SimpleFunctionRep (kept in `rep` so
    norm computations can use the true jump points) or "empirical" when
    estimated from samples (`count` many).
    """

    t_grid: np.ndarray
    tail: np.ndarray
    source: str
    count: Optional[int] = None
    rep: Optional[SimpleFunctionRep] = None

    def t_pow_q_tail(self, q: float) -> np.ndarray:
        return self.t_grid ** q * self.tail


TailSource = Union[SimpleFunctionRep, np.ndarray, Sequence[float]]


def _default_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if hi <= 0:
        return np.array([1.0])
    lo = max(lo, hi * 1e-12)
    return np.geomspace(lo, hi, points)


def tail_profile(source: TailSource, t_grid: Optional[np.ndarray] = None, points: int = 64) -> TailProfile:
    """Tail function of |h| over a grid.

    Exact counting for a SimpleFunctionRep; empirical fractions otherwise.
    When no grid is given, a geometric grid spanning the observed range is
    used, augmented with the exact jump values in the exact case.
    """
    if isinstance(source, SimpleFunctionRep):
        jumps = source.jump_values()
        if t_grid is None:
            hi = max(jumps) if jumps else 1.0
            base = _default_grid(min(jumps) / 2 if jumps else 0.5, hi * 1.02, points)
            t_grid = np.unique(np.concatenate([base, np.asarray(jumps, dtype=float)]))
        t_grid = np.asarray(t_grid, dtype=np.float64)
        tails = np.array([float(source.tail(float(t))) for t in t_grid])
        return TailProfile(t_grid=t_grid, tail=tails, source="exact", rep=source)

    samples = np.abs(np.asarray(source, dtype=np.float64)).ravel()
    if samples.size == 0:
        raise ValueError("empirical tail profile needs at least one sample")
    if t_grid is None:
        hi = float(samples.max())
        t_grid = _default_grid(hi / 1e6 if hi > 0 else 0.5, hi * 1.02 if hi > 0 else 1.0, points)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    sorted_s = np.sort(samples)
    # count of samples strictly above t
    idx = np.searchsorted(sorted_s, t_grid, side="right")
    tails = (samples.size - idx) / samples.size
    return TailProfile(t_grid=t_grid, tail=tails, source="empirical", count=int(samples.size))


def weak_norm(profile: Union[TailProfile, SimpleFunctionRep], q: float) -> float:
    """||h||_{q,oo} = (sup_t t^q mu{|h|>t})^{1/q}.

    For exact sources the sup is evaluated at the jump points (as t increases
    to a jump v the tail is mu{|h| >= v}), which equals the true supremum.
    For empirical profiles the sup is taken over the grid only.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    rep = profile if isinstance(profile, SimpleFunctionRep) else profile.rep
    if rep is not None:
        best = 0.0
        for v, _ in rep.pairs:
            best = max(best, (v ** q) * float(rep.tail_geq(v)))
        return best ** (1.0 / q)
    sup = float(np.max(profile.t_pow_q_tail(q))) if profile.t_grid.size else 0.0
    return sup ** (1.0 / q)


def strong_norm(source: TailSource, q: float) -> float:
    """||h||_q: exact from a SimpleFunctionRep, empirical mean otherwise."""
    if q <= 0:
        raise ValueError("q must be positive")
    if isinstance(source, SimpleFunctionRep):
        return source.moment(q) ** (1.0 / q)
    samples = np.abs(np.asarray(source, dtype=np.float64)).ravel()
    if samples.size == 0:
        raise ValueError("empirical strong norm needs at least one sample")
    return float(np.mean(samples ** q) ** (1.0 / q))


def l0_indicator(profile: TailProfile, q: float) -> float:
    """Largest-t value of t^q tail(t): a trend proxy for L_0^{q,oo} membership."""
    if profile.t_grid.size == 0:
        return 0.0
    k = int(np.argmax(profile.t_grid))
    return float(profile.t_grid[k] ** q * profile.tail[k])
