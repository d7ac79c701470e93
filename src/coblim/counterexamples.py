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

A violation event of tower i is a float threshold and an inclusive window
(l_lo, l_hi) of shifts: TowerLevelMap.qualifying_j(threshold) gives the
levels whose value meets the threshold as floats compare, and
exact_violation_probability counts the residues whose window reaches one.
All level combinatorics are integer-exact; amplitudes and thresholds are the
only floating quantities.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .weak_tails import SimpleFunctionRep, strong_norm

__all__ = [
    "TowerLevelMap",
    "TowerCounterexample",
    "build_tower_counterexample",
    "exact_exponent",
    "feasibility_checks",
    "truncation_tail_bound",
    "orbit_truncation_bound",
    "exact_norms",
    "NormRow",
    "exact_violation_probability",
    "MAX_TABLE_BITS",
    "check_table_bits",
    "g_rank_dtype",
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

    def profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """(levels, values) of the nonzero part, j ascending."""
        js = np.arange(1, 2 * self.k, dtype=np.int64)
        vals = self.amplitude * np.minimum(js, 2 * self.k - js)
        return self.n - js, vals

    @property
    def peak(self) -> float:
        return self.amplitude * self.k

    def qualifying_j(self, value: float) -> range:
        """The j whose level n - j holds a value >= `value`.

        Those are the j with min(j, 2k - j) >= u for the least u in 1..k
        with fl(u * amplitude) >= value, the float comparison the event
        makes; fl(u * amplitude) grows with u, so u is found by bisection
        (none above the peak, every j for value <= amplitude).
        """
        u = 1 + bisect_left(range(1, self.k + 1), True,
                            key=lambda u: u * self.amplitude >= value)
        return range(u, 2 * self.k - u + 1)

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
        return SimpleFunctionRep(((self.amplitude, 2 * self.k),), self.n)


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


Exponent = Union[int, float, str, Fraction]


def exact_exponent(x: Exponent) -> Fraction:
    """Exact rational from an exponent.

    Floats are read through their decimal repr, so p = 1.6 means the decimal
    8/5, not the binary double nearest to it; boundary cases like
    p = r/(r-1) then compare exactly.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(str(x))


def feasibility_checks(kind: str, p: Exponent, r: Exponent, q: Optional[Exponent],
                       context: Dict[str, Any]) -> Iterator[Tuple[str, bool, float, str]]:
    """The exponent hypotheses of the kind's counterexample, decided exactly,
    as (name, passed, margin, detail) checks; the margin is the distance to
    the boundary (positive = strict slack).

    ip_lil (theorem 2.10): 1 <= p < 2 <= r and p < r/(r-1); slln (theorem
    2.11): 1 < p < 2, 1 <= q < p < r and q < (p-1)r/(r-1).  Each kind ends
    with the open window of its exponent (alpha / beta), nonempty exactly
    when its strict inequality holds.  The exponents are read by
    exact_exponent and the checks are yielded in that order, so a caller may
    stop at the first failing one: the range checks come before any division
    by r - 1 or p.  `context` receives the exponents, the boundary and the
    window as Fractions.  build_tower_counterexample and
    mc_harness.validate_hypotheses both decide the kinds by this rule.
    """
    p, r = exact_exponent(p), exact_exponent(r)
    if kind == "ip_lil":
        context["p"], context["r"] = p, r
        yield ("1 <= p < 2 <= r", 1 <= p < 2 <= r, float(min(p - 1, 2 - p, r - 2)),
               f"p = {p}, r = {r}")
        bound = r / (r - 1)
        context["feasibility_gap"] = (bound - p) / 2
        yield "p < r/(r-1)", p < bound, float(bound - p), f"r/(r-1) = {bound}"
        lo, hi, note = (r - 2) / (2 * (r - 1)), 1 - p / 2, ", width = feasibility gap"
    else:
        q = exact_exponent(q)  # type: ignore[arg-type]
        context["q"], context["p"], context["r"] = q, p, r
        yield "1 < p < 2", 1 < p < 2, float(min(p - 1, 2 - p)), f"p = {p}"
        yield ("1 <= q < p < r", 1 <= q < p < r, float(min(q - 1, p - q, r - p)),
               f"q = {q}, p = {p}, r = {r}")
        bound = (p - 1) * r / (r - 1)
        context["(p-1)r/(r-1)"] = bound
        yield "q < (p-1)r/(r-1)", q < bound, float(bound - q), f"(p-1)r/(r-1) = {bound}"
        lo, hi, note = (r - p) / (p * (r - 1)), 1 - q / p, ""
    context["window"] = (lo, hi)
    yield "window nonempty", lo < hi, float(hi - lo), f"({float(lo):.6g}, {float(hi):.6g}){note}"


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
            (needs 1 <= q < p < r, 1 < p < 2, q < (p-1)r/(r-1)); decided
            exactly by feasibility_checks.
        window_exp: exponent in the open feasibility window; default midpoint.
        i0: first tower index; default is the smallest i with 2k_i < n_i and
            n_i > e^e (keeps log log n_i positive), which an explicit i0
            must satisfy too.
        i_max: truncation index for g = sum g_i.
        bits: odometer precision B >= i_max.

    Raises:
        ValueError "feasibility fails: <check> (<detail>)" at the first
        failing check of feasibility_checks, so when the exponents sit on or
        beyond a boundary; and when the window exponent is outside the exact
        open window.
    """
    if kind not in ("ip_lil", "slln"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ip_lil" and q is not None:
        raise ValueError("q is only a parameter of the slln kind")
    if kind == "slln" and q is None:
        raise ValueError("the slln kind requires q")
    context: Dict[str, Any] = {}
    for name, passed, _, detail in feasibility_checks(kind, p, r, q, context):
        if not passed:
            raise ValueError(f"feasibility fails: {name} ({detail})")
    lo, hi = context["window"]
    if window_exp is None:
        window_exp = float((lo + hi) / 2)
    if not lo < exact_exponent(window_exp) < hi:
        raise ValueError(f"window exponent {window_exp} outside the open window "
                         f"({float(lo):.6g}, {float(hi):.6g})")

    def k_of(i: int) -> int:
        return math.ceil(2 ** (i * window_exp))

    def starts(i: int) -> bool:
        return 2 * k_of(i) < (1 << i) and (1 << i) > _E_TO_E

    if i0 is None:
        i0 = next((i for i in range(1, 61) if starts(i)), None)
        if i0 is None:
            raise ValueError("could not find a start index i0")
    elif not starts(i0):
        raise ValueError(f"i0={i0} violates 2k_i < n_i or n_i > e^e")
    if i_max < i0:
        raise ValueError(f"i_max={i_max} < i0={i0}")
    if i_max > bits:
        raise ValueError(f"truncation index i_max={i_max} exceeds precision B={bits}")
    maps = []
    for i in range(i0, i_max + 1):
        n, k = 1 << i, k_of(i)
        maps.append(TowerLevelMap(i=i, n=n, k=k, amplitude=_amplitude(kind, p, n, k)))
    return TowerCounterexample(
        kind=kind, p=p, r=r, q=q, window_exp=window_exp,
        i0=i0, i_max=i_max, bits=bits, maps=tuple(maps),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

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


MAX_TABLE_BITS = 24  # refuse residue tables beyond 2^24 entries


def check_table_bits(i_max: int) -> None:
    """Refuse a residue table of 2^i_max entries beyond the resource guard
    (i_max <= MAX_TABLE_BITS), before anything is allocated."""
    if i_max > MAX_TABLE_BITS:
        raise ValueError(f"resource guard: i_max={i_max} exceeds {MAX_TABLE_BITS}; "
                         f"a residue table of 2^{i_max} entries refused")


def g_rank_dtype(cex: TowerCounterexample) -> np.dtype:
    """The smallest unsigned type that holds every rank of g_residue_table:
    g takes at most 1 + sum_i (2k_i - 1) values, 0 and one per band cell."""
    return np.min_scalar_type(sum(2 * m.k - 1 for m in cex.maps))


def g_residue_table(cex: TowerCounterexample, out: np.ndarray) -> np.ndarray:
    """g over the residues mod 2^{i_max} as ranks into its sorted values:
    writes the ranks into `out` (2^{i_max} entries of g_rank_dtype(cex)) and
    returns the values, so that g(r) = values[out[r]].

    g depends on the point only through value mod 2^{i_max}, and T adds 1 to
    it, so an orbit of g is a run of consecutive (cyclic) table entries.  A
    cell's value is 0.0 plus one addition per tower whose band (residues
    n_i - 2k_i + 1 .. n_i - 1 mod n_i) holds it, in tower order, as from one
    addition per level, so the values are 0.0 and those of the band cells (a
    band longer than n_{i-1} can cover every copy of a prior band cell, whose
    value then goes unused).  The ranks are built by doubling: the table mod
    n_i is the table mod n_{i-1} twice, with tower i's band overwritten.
    """
    size, dtype = 1 << cex.i_max, g_rank_dtype(cex)
    if out.shape != (size,) or out.dtype != dtype:
        raise ValueError(f"out must be a {dtype} array of {size} entries")
    # each tower's profile on its band, residues ascending, and the value of
    # every band cell: the prior towers' additions where their bands hold it
    profiles, bands = [m.profile()[1][::-1] for m in cex.maps], []
    for m, own in zip(cex.maps, profiles):
        residues, band = np.arange(m.n - own.size, m.n), np.zeros(own.size)
        for prior, vals in zip(cex.maps, profiles[: len(bands)]):
            level = residues % prior.n - (prior.n - vals.size)
            np.add(band, vals.take(level, mode="clip"), out=band, where=level >= 0)
        bands.append(band + own)
    values = np.sort(np.concatenate([[0.0], *bands]))
    values = values[np.r_[True, values[1:] != values[:-1]]]
    period = cex.maps[0].n
    out[:period] = 0
    for m, band in zip(cex.maps, bands):
        out[period: m.n] = out[: m.n - period]
        period = m.n
        out[m.n - band.size: m.n] = np.searchsorted(values, band)
    return values


# _window_hit_counts reads the table through maxima of blocks of at most
# _HIT_BLOCK cells, and scans at most _HIT_PIECE blocks or cells at a time:
# gathers of 2^18 float64 cells (2 MiB) raised the peak RSS of a conditions
# preset by 2 MiB, those of 2^17 did not
_HIT_BLOCK, _HIT_PIECE = 64, 1 << 17


def _window_hit_counts(table: np.ndarray, pairs: Sequence[Tuple[float, int]]) -> List[int]:
    """Per (thr, n): the number of residues r whose window r+1..r+n (mod M)
    meets an entry >= thr, for a table of values or of ranks (g_residue_table)
    with thresholds of the same kind.  That is M less max(L - n + 1, 0)
    summed over the cyclic runs of L misses (entries < thr) between two
    hits, or 0 without a hit.  The runs are read off the maxima of the
    table's blocks of b cells, b the largest power of two up to _HIT_BLOCK
    that divides M and has 2b - 1 <= n, shared by the pairs of one b: a run
    of n or more misses covers a whole block, so only runs from a hit block
    to the next one across a miss block can count.
    """
    m, counts, maxima = table.shape[0], [], {}
    for thr, n in pairs:
        b = min(_HIT_BLOCK, 1 << (((n + 1) // 2).bit_length() - 1), m & -m)
        if b not in maxima:
            maxima[b] = np.maximum.reduceat(table, np.arange(0, m, b))
        blocks, excess, first, hits = table.reshape(-1, b), 0, 0, None
        for lo in range(0, m // b, _HIT_PIECE):
            found = np.flatnonzero(maxima[b][lo: lo + _HIT_PIECE] >= thr) + lo
            if not found.size:
                continue
            if hits is None:
                first = int(found[0])
            else:  # the runs from the hit blocks before, up to this piece's first
                excess += _miss_excess(blocks, thr, n, hits, np.append(hits[1:], found[0]))
            hits = found
        # the last piece's runs, up to the first hit block past the cyclic end
        counts.append(0 if hits is None else m - excess - _miss_excess(
            blocks, thr, n, hits, np.append(hits[1:], first + m // b)))
    return counts


def _miss_excess(blocks: np.ndarray, thr: float, n: int,
                 starts: np.ndarray, ends: np.ndarray) -> int:
    """max(L - n + 1, 0) summed over the runs of L misses from the last hit
    in the row `start` of `blocks` to the first hit in the row `end` (mod the
    row count), the next hit block.  With b cells a block, L is at most
    (end - start + 1) b - 2, and only the runs with that bound at n or more
    scan their two blocks, in pieces of _HIT_PIECE cells."""
    count, b = blocks.shape
    keep = (ends - starts + 1) * b - 2 >= n
    starts, ends, total, step = starts[keep], ends[keep], 0, max(1, _HIT_PIECE // b)
    for lo in range(0, starts.shape[0], step):
        a, z = starts[lo: lo + step], ends[lo: lo + step]
        # the first hit in each block z, and the last in each block a, from its end
        first = np.argmax(blocks[z % count] >= thr, axis=1)
        last = np.argmax(blocks[a, ::-1] >= thr, axis=1)
        total += int(np.maximum((z - a - 1) * b + first + last - n + 1, 0).sum())
    return total


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


def default_violation_event(cex: TowerCounterexample, i: int) -> Tuple[float, Tuple[int, int]]:
    """The reference violation event for tower i, as (threshold, window).

    SLLN: max over l in [2^i, 2^{i+1}] of g_i o T^l >= n_i^{1/p}, i.e. the
    peak level qualifies and nothing below it (threshold = peak exactly).
    IP_LIL: max over l in [1, n_i] of g_i o T^l >= 0.1 sqrt(n_i) (the epsilon
    = 0.1 instance of the condition16 scaled-maximum event at horizon n_i).
    """
    m = cex.map_for(i)
    if cex.kind == "slln":
        return m.peak, (1 << i, 1 << (i + 1))
    return 0.1 * math.sqrt(m.n), (1, m.n)


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
        prob = exact_violation_probability(cex, i, *default_violation_event(cex, i))
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

def exact_violation_probability(
    cex: TowerCounterexample,
    i: int,
    threshold: float,
    window: Tuple[int, int],
) -> Fraction:
    """Exact measure of {w : max_{l_lo <= l <= l_hi} g_i(T^l w) >= threshold}
    for the inclusive window (l_lo, l_hi).

    Since g_i(T^l w) depends only on (level(w,i) + l) mod n_i, the event is
    the set of residues res with res + l = n_i - j (mod n_i) for a j of
    TowerLevelMap.qualifying_j and an l in the window.  Both ranges are
    contiguous, so these residues form one arc of len(js) + l_hi - l_lo
    points mod n_i (all of Z/n_i Z when that reaches n_i); its measure is a
    dyadic rational counted exactly.  g >= g_i >= 0 makes this a certified
    lower bound for the same event with the full g.
    """
    m = cex.map_for(i)  # refuses i outside [i0, i_max]
    l_lo, l_hi = window
    if l_lo > l_hi or l_lo < 0:
        raise ValueError(f"bad window {window}")
    js = m.qualifying_j(threshold)
    if len(js) == 0:
        return Fraction(0)
    return Fraction(min(m.n, len(js) + l_hi - l_lo), m.n)


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
