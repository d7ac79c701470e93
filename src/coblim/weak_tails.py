"""Weak-L^q and strong L^q norms of simple functions, counted exactly.

The weak norm used throughout is ||h||_{q,oo}^q = sup_{t>0} t^q mu{|h| > t}.
For a nonnegative simple function the supremum is attained as t increases to
a jump value v, where the tail is mu{|h| >= v}; evaluating v^q mu{|h| >= v}
over the finitely many jumps therefore gives the exact supremum.  The
distribution of |h| is given as a SimpleFunctionRep over n equal cells:
|h| = v on `count` of the n cells, so every measure is an integer count over
n.  Tails are integer sums and each one is divided by n once, which rounds
the exact rational count/n correctly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Tuple

__all__ = [
    "SimpleFunctionRep",
    "weak_norm",
    "strong_norm",
]


@dataclass(frozen=True)
class SimpleFunctionRep:
    """Distribution of |h| for a simple function on n equal cells.

    Each pair (value, count) says |h| = value on `count` of the n cells.
    Values are distinct and strictly positive, counts are nonnegative with
    sum <= n; the remaining cells carry value 0 implicitly.
    """

    pairs: Tuple[Tuple[float, int], ...]
    n: int

    def __post_init__(self) -> None:
        vals = [v for v, _ in self.pairs]
        if any(v <= 0 for v in vals):
            raise ValueError("values must be strictly positive (zero mass is implicit)")
        if len(set(vals)) != len(vals):
            raise ValueError("values must be distinct")
        if self.n < 1:
            raise ValueError("need at least one cell")
        if any(c < 0 for _, c in self.pairs):
            raise ValueError("counts must be nonnegative")
        total = sum(c for _, c in self.pairs)
        if total > self.n:
            raise ValueError(f"counts sum to {total} > n = {self.n}")

    @classmethod
    def from_uniform(cls, values: Iterable[float], n: int) -> "SimpleFunctionRep":
        """Build the rep of a function that takes each of `values` on one of n cells."""
        counts = Counter(abs(float(v)) for v in values)
        counts.pop(0.0, None)
        return cls(tuple(sorted(counts.items())), n)


def weak_norm(profile: SimpleFunctionRep, q: float) -> float:
    """||h||_{q,oo} = (sup_t t^q mu{|h|>t})^{1/q}, evaluated at the jump points.

    One pass over the values in descending order accumulates the integer
    tail count of {|h| >= v}; the pairs are sorted here because the
    constructor does not require them in order.  The argument keeps the name
    `profile` because callers bind it by keyword.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    best = 0.0
    tail = 0
    for v, c in sorted(profile.pairs, reverse=True):
        tail += c
        best = max(best, (v ** q) * (tail / profile.n))
    return best ** (1.0 / q)


def strong_norm(source: SimpleFunctionRep, q: float) -> float:
    """||h||_q = (E|h|^q)^{1/q}, exact up to the float moment sum."""
    if q <= 0:
        raise ValueError("q must be positive")
    return math.fsum(v ** q * (c / source.n) for v, c in source.pairs) ** (1.0 / q)
