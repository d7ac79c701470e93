"""Trend diagnostics for block-family summability conditions.

A *sequence family* is a triple of closed-form sequences (theta_k, N_k,
rho_k) describing a blockwise construction: scale factors theta_k > 0,
block multiplicities N_k (integer-valued, >= 1) and level measures
rho_k in (0, 1).  Three derived quantities govern whether the
construction supports a projective central limit criterion:

* the **main series**      sum_k theta_k^p N_k^(p/2) rho_k,
* the **tail product**     theta_(k+1)^(p/(p-1)) * sum_(i>=k) rho_i,
* the **quadratic series** sum_k theta_k^2 N_k^(1/2) rho_k.

The interesting families grow geometrically, so all sequence
evaluators work in log2 space: ``log2_theta(k)`` returns log2(theta_k)
for a float64 array of indices, and likewise for the other two.  This
keeps k up to 10^6 (where theta_k ~ 2^(k(p-1)/p) overflows any float)
exactly representable; the term exponents cancel analytically and the
*sums* of log-terms stay O(1).

Summation is exact per group: every run of indices that shares one
2^19-index chunk and one checkpoint segment is summed with ``math.fsum``,
and each segment's increment is the ``math.fsum`` of its groups.  That
grouping fixes the output bits.  The family is evaluated in pieces of
2^14 indices, which bound the working memory to the term rows of one
chunk and leave the groups, and so the bits, as they are.

``prop23_report`` evaluates partial sums at decade checkpoints and
attaches one verdict per quantity.  Verdicts are trend labels computed
by stated decision rules, not proofs:

* main series   -- "converges" when decade increments decay (last
  decade increment <= 0.6x the first full decade's), "diverges" when
  they fail to decay (ratio >= 0.9), else "inconclusive".
* tail product  -- "tends to 0" when checkpoint values decrease and
  the last is <= 0.5x the first, else "inconclusive" / "does not
  tend to 0" if values increase.
* quadratic     -- "diverges (unbounded trend)" when the growth factor
  S(K_max)/S(first checkpoint) reaches ``dr_threshold``, else
  "inconclusive at this range".  Slowly divergent series (increments
  ~ k^(-1/p)) may legitimately stay below any fixed threshold for
  every feasible K_max; the verdict reports what the range shows.
  The geometric family's quadratic term is exactly
  k^(-1/p) (ln k)^(-4/p) once the count ceiling is dropped (k > 10^3
  for p <= 1.8); its growth factor S(10^6)/S(10^3) is 1.0060, 1.1515
  and 1.8528 at p = 1.2, 1.5 and 1.8.

The decision-rule constants are calibrated against the canonical
geometric family (`geometric_family`), whose main-series increments
are exactly 1/(k ln^2 k) up to the integer ceiling in N_k: its decade
increment ratio is 0.40 for every p, well clear of both cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reports import CriteriaReport

__all__ = [
    "SequenceFamily",
    "geometric_family",
    "prop23_report",
    "DEFAULT_CHECKPOINTS",
]


Log2Seq = Callable[[np.ndarray], np.ndarray]

#: Decade checkpoints at which partial sums are reported.
DEFAULT_CHECKPOINTS = (10**3, 10**4, 10**5)

_CHUNK = 1 << 19
_PIECE = 1 << 14

# Main-series decade increment ratio: at or below _TOL_DECAY "converges", at
# or above _TOL_FLAT "diverges" (see the module docstring).
_TOL_DECAY = 0.6
_TOL_FLAT = 0.9


@dataclass(frozen=True)
class SequenceFamily:
    """Closed-form log2-space evaluators for (theta_k, N_k, rho_k).

    Parameters
    ----------
    label:
        Human-readable family name, used in reports and error messages.
    p:
        Moment exponent in (1, 2) the family is built for.
    log2_theta, log2_count, log2_rho:
        Vectorized maps from float64 index arrays to log2 of the
        sequence values.  ``log2_count`` must describe an
        integer-valued sequence wherever 2^log2_count is exactly
        representable (it may fall back to a continuous model beyond
        2^50, where integrality is unobservable anyway).
    k_start:
        First index of the evaluated range (default 2 so that log k
        and log log k are positive).
    burn_in:
        Index from which the monotonicity invariants are enforced.
        Families with log corrections (such as the canonical geometric
        one) are non-monotone for a handful of small indices; the
        burn-in tolerates that transient without weakening the check
        on the bulk of the range.
    rho_tail_log2:
        Optional closed form for log2(sum_(i>=k) rho_i).  When absent
        the tail is truncated at the evaluated range and flagged as
        such in the report.
    """

    label: str
    p: float
    log2_theta: Log2Seq
    log2_count: Log2Seq
    log2_rho: Log2Seq
    k_start: int = 2
    burn_in: int = 32
    rho_tail_log2: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if not 1.0 < self.p < 2.0:
            raise ValueError(f"exponent p must lie in (1, 2); got {self.p}")
        if self.k_start < 2:
            raise ValueError("k_start must be >= 2 (log log k must be defined)")


def geometric_family(p: float) -> SequenceFamily:
    """Canonical geometric family with exactly summable main series.

    theta_k = 2^(k(p-1)/p) / (ln k)^(2/p)
    N_k     = ceil( 2^(2k(2-p)/p) / k^(2/p) )
    rho_k   = 2^(-k)

    The exponents cancel so that, before the ceiling, the main-series
    term is exactly 1/(k ln^2 k): summable, but barely.  The ceiling is
    applied exactly while the raw count fits a float (log2 <= 50) and
    is dropped beyond, where it perturbs the term by < 2^-50.  The
    rho tail has the closed form sum_(i>=k) 2^(-i) = 2^(1-k).
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"exponent p must lie in (1, 2); got {p}")

    def log2_theta(k: np.ndarray) -> np.ndarray:
        return k * (p - 1.0) / p - (2.0 / p) * np.log2(np.log(k))

    def log2_count(k: np.ndarray) -> np.ndarray:
        raw = 2.0 * k * (2.0 - p) / p - (2.0 / p) * np.log2(k)
        exact = np.log2(np.ceil(np.exp2(np.minimum(raw, 50.0))))
        return np.where(raw <= 50.0, exact, raw)

    def log2_rho(k: np.ndarray) -> np.ndarray:
        return -np.asarray(k, dtype=np.float64)

    return SequenceFamily(
        label=f"geometric(p={p:g})",
        p=p,
        log2_theta=log2_theta,
        log2_count=log2_count,
        log2_rho=log2_rho,
        k_start=2,
        rho_tail_log2=lambda k: 1.0 - float(k),
    )


def _validate_invariants(
    family: SequenceFamily,
    ks: np.ndarray,
    lt: np.ndarray,
    lc: np.ndarray,
    lr: np.ndarray,
    prev: Optional[tuple[float, float, float, float]],
) -> tuple[float, float, float, float]:
    """Check declared monotonicity/range invariants on one piece.

    Raises ValueError naming the violated invariant and the first
    offending index, where "first" is decided piece by piece: the
    earliest piece with a violation is reported, and within it the
    range checks come before the monotonicity checks.  ``prev`` is the
    previous piece's last ``(k, lt, lc, lr)`` (None on the first piece),
    so the monotonicity checks span piece boundaries; returns this
    piece's last tuple.
    """

    def check(bad: np.ndarray, kv: np.ndarray, what: str) -> None:
        hits = np.flatnonzero(bad)
        if hits.size:
            raise ValueError(f"family '{family.label}' violates invariant: "
                             f"{what} at k={int(kv[hits[0]])}")

    for name, arr in (("theta", lt), ("count", lc), ("rho", lr)):
        check(~np.isfinite(arr), ks, f"log2 {name} is not finite")
    check(lc < -1e-9, ks, "count_k must be a positive integer (>= 1) but log2 count < 0")
    check(lr >= 0.0, ks, "rho_k must lie in (0, 1) but rho >= 1")

    # Monotonicity from the burn-in index onward (ks ascends, so that is a
    # suffix).  The count sequence is integer-valued so ceiling plateaus are
    # allowed (non-strict); rho is checked as -rho non-decreasing.
    i0 = int(np.searchsorted(ks, family.burn_in))
    head = prev is not None and prev[0] >= family.burn_in
    kv = np.concatenate(([prev[0]], ks[i0:])) if head else ks[i0:]
    for i, arr, sign, name in ((1, lt, 1.0, "theta_k non-decreasing"),
                               (2, lc, 1.0, "count_k non-decreasing"),
                               (3, lr, -1.0, "rho_k decreasing")):
        vals = np.concatenate(([prev[i]], arr[i0:])) if head else arr[i0:]
        check(sign * np.diff(vals) < -1e-9, kv[1:], f"{name} fails")
    return float(ks[-1]), float(lt[-1]), float(lc[-1]), float(lr[-1])


def _tail_product(family: SequenceFamily, k: int, rho_partial_from_k: float) -> tuple[float, bool]:
    """theta_(k+1)^(p/(p-1)) * tail(rho, k); returns (value, exact_tail)."""
    p = family.p
    lt1 = float(family.log2_theta(np.asarray([float(k + 1)]))[0])
    expo = (p / (p - 1.0)) * lt1
    if family.rho_tail_log2 is not None:
        return 2.0 ** (expo + family.rho_tail_log2(k)), True
    if rho_partial_from_k <= 0.0:
        return 0.0, False
    return 2.0 ** expo * rho_partial_from_k, False


def prop23_report(
    family: SequenceFamily,
    K_max: int = 10**6,
    dr_threshold: float = 5.0,
) -> CriteriaReport:
    """Partial-sum trend report for the three summability conditions.

    Sums the main and quadratic series over k in [k_start, K_max]
    with one exact ``math.fsum`` per (2^19-index chunk, checkpoint
    segment) group and one per segment over its groups (this grouping
    fixes the output bits; pieces of ``_PIECE`` indices only bound the
    memory), records partial sums at the checkpoints (the
    ``DEFAULT_CHECKPOINTS`` below K_max, then K_max itself), validates
    the family's declared invariants on the evaluated range, and
    attaches one verdict per condition using the decision rules
    documented in the module docstring.

    The report context carries, per condition, the checkpoints, the
    partial sums (or values, for the tail product), the verdict, and
    the exact decision rule used.
    """
    if K_max < 10**3:
        raise ValueError(f"K_max must be >= 10^3 for decade checkpoints; got {K_max}")
    if dr_threshold <= 1.0:
        raise ValueError(f"dr_threshold must exceed 1; got {dr_threshold}")

    cps = [c for c in DEFAULT_CHECKPOINTS if c < K_max] + [K_max]
    p = family.p

    # parts[row][j] collects one math.fsum per chunk of segment j, which
    # covers (cps[j-1], cps[j]]; the rows are main, quadratic, rho.  Each
    # chunk's term rows are filled piece by piece into one reused buffer.
    parts = [[[] for _ in cps] for _ in range(3)]
    terms = np.empty((3, min(_CHUNK, K_max + 1 - family.k_start)))
    prev = None
    for lo in range(family.k_start, K_max + 1, _CHUNK):
        hi = min(lo + _CHUNK, K_max + 1)
        for s in range(lo, hi, _PIECE):
            e = min(s + _PIECE, hi)
            ks = np.arange(s, e, dtype=np.float64)
            lt = np.asarray(family.log2_theta(ks), dtype=np.float64)
            lc = np.asarray(family.log2_count(ks), dtype=np.float64)
            lr = np.asarray(family.log2_rho(ks), dtype=np.float64)
            prev = _validate_invariants(family, ks, lt, lc, lr, prev)
            cols = slice(s - lo, e - lo)
            np.exp2(p * lt + (p / 2.0) * lc + lr, out=terms[0, cols])
            np.exp2(2.0 * lt + 0.5 * lc + lr, out=terms[1, cols])
            np.exp2(lr, out=terms[2, cols])

        # terms[:, :cut] holds the indices lo..cp of this chunk
        cuts = [0, *(min(max(cp + 1 - lo, 0), hi - lo) for cp in cps)]
        for row, t in zip(parts, terms):
            for seg, a, b in zip(row, cuts, cuts[1:]):
                if a < b:
                    seg.append(math.fsum(memoryview(t[a:b])))

    inc_main, inc_quad, inc_rho = ([math.fsum(seg) for seg in row] for row in parts)
    sums_main, sums_quad, sums_rho = (list(np.cumsum(inc))
                                      for inc in (inc_main, inc_quad, inc_rho))

    if sums_rho[-1] >= 1.0:
        raise ValueError(
            f"family '{family.label}' violates invariant: partial sums of "
            f"rho_k reach {sums_rho[-1]:.6f} >= 1 on the evaluated range"
        )

    report = CriteriaReport(
        title=f"summability trend report for {family.label}",
        context={
            "family": family.label,
            "p": p,
            "K_max": K_max,
            "checkpoints": cps,
            "rho_partial_sum": sums_rho[-1],
        },
    )

    # --- main series: Cauchy diagnostic on decade increments -------------
    # Compare the last full-decade increment against the first one past
    # the opening segment (the opening segment mixes in small-k
    # transients and is reported but not used for the ratio).
    if len(inc_main) >= 3:
        first_dec, last_dec = inc_main[1], inc_main[-1]
        ratio_main = last_dec / first_dec if first_dec > 0 else math.inf
        if ratio_main <= _TOL_DECAY:
            verdict_main = "converges"
        elif ratio_main >= _TOL_FLAT:
            verdict_main = "diverges (non-decaying increments)"
        else:
            verdict_main = "inconclusive at this range"
        rule_main = (
            f"decade increment ratio {ratio_main:.4f}: <= {_TOL_DECAY:g} converges, "
            f">= {_TOL_FLAT:g} diverges, else inconclusive"
        )
    else:
        ratio_main = math.nan
        verdict_main = "inconclusive at this range"
        rule_main = (
            "fewer than two full decades past the opening segment; "
            "no increment comparison possible"
        )
    report.add(
        "main series partial-sum increments decay",
        verdict_main == "converges",
        margin=0.0 if math.isnan(ratio_main) else _TOL_DECAY - ratio_main,
        detail=f"S={sums_main[-1]:.6f} at K={K_max}; {rule_main}",
    )
    report.context["main"] = {
        "checkpoints": cps,
        "partial_sums": sums_main,
        "increments": inc_main,
        "verdict": verdict_main,
        "rule": rule_main,
    }

    # --- tail product: values at checkpoints --------------------------
    vals_tail = []
    tail_exact = True
    for j, cp in enumerate(cps):
        # Range-truncated rho tail from cp onward (only used when no
        # closed form is supplied): rho_cp plus the later segments.
        rho_cp = float(np.exp2(family.log2_rho(np.asarray([float(cp)])))[0])
        partial = rho_cp + math.fsum(inc_rho[j + 1 :])
        val, exact = _tail_product(family, cp, partial)
        vals_tail.append(val)
        tail_exact = tail_exact and exact
    ratio_tail = vals_tail[-1] / vals_tail[0] if vals_tail[0] > 0 else math.inf
    decreasing = all(b < a for a, b in zip(vals_tail, vals_tail[1:]))
    if decreasing and ratio_tail <= 0.5:
        verdict_tail = "tends to 0"
    elif vals_tail[-1] > vals_tail[0]:
        verdict_tail = "does not tend to 0"
    else:
        verdict_tail = "inconclusive at this range"
    rule_tail = (
        f"checkpoint values decreasing and last/first {ratio_tail:.4g} <= 0.5 "
        f"tends to 0; increasing values negate; else inconclusive"
    )
    report.add(
        "tail product decreases toward zero",
        verdict_tail == "tends to 0",
        margin=0.5 - ratio_tail,
        detail=(
            f"values {vals_tail[0]:.4g} -> {vals_tail[-1]:.4g}; {rule_tail}"
            + ("" if tail_exact else " (rho tail truncated at K_max)")
        ),
    )
    report.context["tail_product"] = {
        "checkpoints": cps,
        "values": vals_tail,
        "verdict": verdict_tail,
        "rule": rule_tail,
        "closed_form_tail": tail_exact,
    }

    # --- quadratic series: unbounded-trend detection -------------------
    growth = sums_quad[-1] / sums_quad[0] if sums_quad[0] > 0 else math.inf
    if growth >= dr_threshold:
        verdict_quad = "diverges (unbounded trend)"
    else:
        verdict_quad = "inconclusive at this range"
    rule_quad = (
        f"growth factor S(K_max)/S({cps[0]}) = {growth:.4f}: >= {dr_threshold:g} "
        f"diverges, else inconclusive"
    )
    report.add(
        "quadratic series shows unbounded growth trend",
        verdict_quad.startswith("diverges"),
        margin=growth - dr_threshold,
        detail=f"S={sums_quad[-1]:.6f} at K={K_max}; {rule_quad}",
    )
    report.context["quadratic"] = {
        "checkpoints": cps,
        "partial_sums": sums_quad,
        "increments": inc_quad,
        "growth_factor": growth,
        "verdict": verdict_quad,
        "rule": rule_quad,
    }

    return report
