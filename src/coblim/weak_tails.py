"""Weak-L^q and strong L^q norms of simple functions, computed exactly.

The weak norm used throughout is ||h||_{q,oo}^q = sup_{t>0} t^q mu{|h| > t}.
For a nonnegative simple function the supremum is attained as t increases to
a jump value v, where the tail is mu{|h| >= v}; evaluating v^q mu{|h| >= v}
over the finitely many jumps therefore gives the exact supremum.  The
distribution of |h| is given as a SimpleFunctionRep: finitely many values
with exact rational measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

__all__ = [
    "SimpleFunctionRep",
    "weak_norm",
    "strong_norm",
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


def weak_norm(profile: SimpleFunctionRep, q: float) -> float:
    """||h||_{q,oo} = (sup_t t^q mu{|h|>t})^{1/q}, evaluated at the jump points.

    One pass over the values in descending order accumulates the exact tail
    mu{|h| >= v}; the pairs are sorted here because the constructor does not
    require them in order.  The argument keeps the name `profile` because
    callers bind it by keyword.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    best = 0.0
    tail = Fraction(0)
    for v, m in sorted(profile.pairs, reverse=True):
        tail += m
        best = max(best, (v ** q) * float(tail))
    return best ** (1.0 / q)


def strong_norm(source: SimpleFunctionRep, q: float) -> float:
    """||h||_q = (E|h|^q)^{1/q}, exact up to the float moment sum."""
    if q <= 0:
        raise ValueError("q must be positive")
    return source.moment(q) ** (1.0 / q)
