"""Regularity criteria for functions of the doubling map.

Everything here revolves around the closed form of the conditional
expectation with respect to the past sigma-algebra of the dyadic shift: for
a centered f on [0, 1],

    E_n f (x) := E[f.T^n | past](x) = 2^-n sum_{j=0}^{2^n - 1} f((x+j)/2^n),

and its (I - U) variant, which is E_n applied to

    ftilde(x) = f(x) - f(x/2)/2 - f((x+1)/2)/2.

The module provides: the named function families accepted in configs, an
adaptive Gauss-Legendre quadrature engine with breakpoint awareness, the
smoothing inequalities

    ||E_n f||_q^q      <= 2^n iint_{|x-y|<=2^-n} |f(x)-f(y)|^q,
    ||E_n ftilde||_q^q <= 2^n iint_{|x-y|<=2^-n} |ftilde(x)-ftilde(y)|^q

the log-weighted modulus integrals

    iint |f(x)-f(y)|^q |x-y|^{-1} (log 1/|x-y|)^{w+delta} dx dy

(whose finiteness drives the invariance-principle / iterated-logarithm /
strong-law criteria), projective-series tables, and checkers assembling
those pieces per criterion.  Double integrals are reduced to one dimension
through u = x - y:

    iint_{|x-y|<=d} G(x,y) = 2 int_0^d J(u) du,
    J(u) = int_0^{1-u} |f(x+u) - f(x)|^q dx,

so the only delicate direction (u -> 0) is handled by dyadic shells.  The
smoothing bounds and the modulus integrals share that one outer integrand
u -> J(u); all functions here are centered (int_0^1 f = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .reports import CriteriaReport

__all__ = [
    "FunctionOnUnitInterval",
    "QuadratureResult",
    "QuadratureError",
    "FUNCTION_FAMILIES",
    "make_function",
    "doubling_average",
    "ftilde",
    "adaptive_integral",
    "conditional_expectation",
    "conditional_expectation_function",
    "lemma32_check",
    "criterion_integral",
    "projective_series_report",
    "prop212_check",
    "prop213_check",
    "corollary_check",
]


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be certified to the requested accuracy."""


@dataclass(frozen=True)
class FunctionOnUnitInterval:
    """A centered function on [0, 1] with the metadata the quadrature engine needs.

    The function must have int_0^1 f = 0: the closed form of E_n relies on
    it, and `validate_centering` checks it.  `evaluator` must accept float64
    arrays with entries in [0, 1].
    `breakpoints` lists interior discontinuities (quadrature never straddles
    them).  `circle_modulus_sq`, when present, returns
    the exact circle-translation modulus u -> int_0^1 |f(x+u mod 1)-f(x)|^2
    dx; families built from orthogonal waves carry it so that q=2 modulus
    integrals bypass quadrature (which cannot resolve lacunary frequencies).
    `sup_bound` bounds sup|f| and controls the boundary correction between
    circle and interval translation.
    """

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    breakpoints: Tuple[float, ...] = ()
    sup_bound: Optional[float] = None
    circle_modulus_sq: Optional[Callable[[float], float]] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=np.float64))


@dataclass
class QuadratureResult:
    """Value + certified absolute error estimate of one integral."""

    value: float
    error: float
    subdivisions: int
    evals: int
    divergent: bool = False


# ---------------------------------------------------------------------------
# adaptive quadrature engine
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(15)


def _lockstep_integrals(
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    problems: Sequence[Tuple[float, float, Sequence[float]]],
    tol: float,
    max_evals: int,
) -> List[QuadratureResult]:
    """int_a^b of many (a, b, breakpoints) problems, refined in lockstep.

    `func(xs, owner)` evaluates the integrand of problem `owner[k]` at
    `xs[k]`.  Each round evaluates the pending panels of every unfinished
    problem in one `func` call, 45 nodes per panel (the panel, then its left
    and right half, 15 Gauss-Legendre nodes each).  Then each unfinished
    problem takes one step of `adaptive_integral`'s refinement on its own
    heap, so its panels, and its result, do not depend on the other
    problems of the batch.
    """
    results = [QuadratureResult(0.0, 0.0, 0, 0) for _ in problems]
    heaps: List[List[Tuple[float, float, float, float]]] = [[] for _ in problems]
    evals = [0] * len(problems)
    subdivisions = [0] * len(problems)
    pending: Dict[int, List[Tuple[float, float]]] = {}  # problem -> panels to evaluate
    for j, (a, b, breakpoints) in enumerate(problems):
        if b > a:
            cuts = sorted({a, b, *(c for c in breakpoints if a < c < b)})
            subdivisions[j] = len(cuts) - 1
            pending[j] = list(zip(cuts[:-1], cuts[1:]))
    while pending:
        panels = [(j, lo, hi) for j, todo in pending.items() for lo, hi in todo]
        owner = np.array([j for j, _, _ in panels])
        lo, hi = np.array([(plo, phi) for _, plo, phi in panels], dtype=np.float64).T
        mid = 0.5 * (lo + hi)
        a = np.stack([lo, lo, mid], axis=1)
        b = np.stack([hi, mid, hi], axis=1)
        half = 0.5 * (b - a)
        xs = (0.5 * (a + b))[:, :, None] + half[:, :, None] * _GL_NODES
        ys = func(xs.ravel(), np.repeat(owner, 45))
        # one dot per 15-point rule: a batched product sums in another order
        dots = np.fromiter(map(_GL_WEIGHTS.dot, ys.reshape(-1, 15)), np.float64)
        rules = half * dots.reshape(-1, 3)
        halves = rules[:, 1] + rules[:, 2]
        neg_errs = -np.abs(rules[:, 0] - halves)
        for (j, plo, phi), neg_err, value in zip(panels, neg_errs.tolist(), halves.tolist()):
            evals[j] += 45
            heappush(heaps[j], (neg_err, plo, phi, value))
        for j in list(pending):
            heap = heaps[j]
            while True:
                total_err = -math.fsum(item[0] for item in heap)
                if total_err <= tol or evals[j] + 90 > max_evals:
                    value = math.fsum(item[3] for item in heap)
                    results[j] = QuadratureResult(value, total_err, subdivisions[j], evals[j])
                    del pending[j]
                    break
                neg_err, plo, phi, _ = heappop(heap)
                pmid = 0.5 * (plo + phi)
                if pmid <= plo or pmid >= phi:  # panel at float resolution: accept as-is
                    heappush(heap, (-0.0, plo, phi, -neg_err * 0.0))
                    continue
                pending[j] = [(plo, pmid), (pmid, phi)]
                subdivisions[j] += 1
                break
    return results


def adaptive_integral(
    func: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_evals: int = 10 ** 6,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """int_a^b func, adaptive Gauss-Legendre with worst-segment refinement.

    Each segment's value is the two-half 15-point rule; its error estimate
    is the defect against the single-panel rule.  Segments never straddle a
    breakpoint.  Refinement runs in rounds: the first evaluates every
    breakpoint segment, each later one splits the worst segment and
    evaluates both halves, in one `func` call per round.  It stops when the
    summed error estimate drops below `tol` or the evaluation budget is
    spent — the achieved error is always reported, so callers can decide
    whether it is good enough.  This is the one-problem case of the lockstep
    engine that also runs the inner translate integrals.
    """
    problem = (a, b, breakpoints)
    return _lockstep_integrals(lambda xs, owner: func(xs), [problem], tol, max_evals)[0]


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def _build_log_power(s: float) -> FunctionOnUnitInterval:
    if s <= 0:
        raise ValueError("log_power needs s > 0")

    def raw(x: np.ndarray) -> np.ndarray:
        return np.log(np.e / np.maximum(x, 1e-300)) ** (-s)

    mean = adaptive_integral(raw, 0.0, 1.0, tol=1e-12).value

    def centered(x: np.ndarray) -> np.ndarray:
        return raw(x) - mean

    # modulus ~ (log 1/u)^(-s): continuous but with no Hölder exponent at 0,
    # the regime where the log-weighted integrals can genuinely diverge
    return FunctionOnUnitInterval(
        label=f"log_power(s={s})", evaluator=centered,
    )


def _build_lacunary(b: float) -> FunctionOnUnitInterval:
    """The lacunary series f(x) = sum_{k>=1} k^{-b} cos(2 pi 2^k x), b > 1.

    Since float64 arguments are dyadic rationals, 2^k x is exact (a pure
    exponent shift) and so is frac(2^k x); once k exceeds the argument's
    mantissa span every frac is 0 — the dyadic floats are exactly the
    exceptional set of the series.  The evaluator therefore returns the
    projection onto float-resolvable frequencies (degenerate cos(0) terms
    dropped): a bounded, mean-zero surrogate that agrees with the series
    wherever a float can represent the phase.  The modulus profile keeps
    the full series: frequencies beyond the mantissa span of u wrap
    uniformly for a generic real near u, each contributing its mean, i.e.
    the Hurwitz tail zeta(2b, .).  The resulting squared circle modulus
    decays only like (log 1/u)^{1-2b}: with b near 1 this is the
    log-regular regime in which the weighted modulus integrals genuinely
    diverge.
    """
    from scipy.special import zeta

    if not 1.0 < b <= 2.0:
        raise ValueError("lacunary needs b in (1, 2] (uniform convergence)")

    def _kmax(smallest: float) -> int:
        return min(1200, 54 - np.frexp(smallest)[1])

    def lac(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        pos = x[x > 0.0]
        kmax = _kmax(float(pos.min())) if pos.size else 1
        acc = np.zeros_like(x)
        for k in range(1, kmax + 1):
            fr = np.mod(np.ldexp(x, k), 1.0)
            acc += np.where(fr > 0.0, k ** -b * np.cos(2.0 * np.pi * fr), 0.0)
        return acc

    def modulus_sq(u: float) -> float:
        if u <= 0.0:
            return 0.0
        total = 0.0
        k = 1
        kmax = _kmax(u)
        while k <= kmax:
            fr = math.ldexp(u, k) % 1.0
            if fr == 0.0:
                break
            total += k ** (-2.0 * b) * (1.0 - math.cos(2.0 * math.pi * fr))
            k += 1
        total += float(zeta(2.0 * b, k))  # wrapped frequencies at mean value 1
        return 2.0 * total

    # sup of the projection: at most sum_{k <= 120} k^{-b}
    sup_proj = 1.5 + (120.0 ** (1.0 - b) - 1.0) / (1.0 - b)
    return FunctionOnUnitInterval(
        f"lacunary(b={b})", lac, sup_bound=sup_proj, circle_modulus_sq=modulus_sq,
    )


#: The named families and the parameters each one takes.
_FAMILY_PARAMS = {
    "affine": (),
    "cosine": ("k",),
    "indicator_step": ("c",),
    "weierstrass": ("a", "b", "terms"),
    "log_power": ("s",),
    "lacunary": ("b",),
}
FUNCTION_FAMILIES = tuple(_FAMILY_PARAMS)


def make_function(family: str, **params: float) -> FunctionOnUnitInterval:
    """Build one of the named families (all centered by construction).

    affine            x - 1/2
    cosine(k=1)       cos(2 pi k x)
    indicator_step(c) 1[x <= c] - c, one jump at c
    weierstrass(a, b, terms)  sum_{m<terms} a^m cos(2 pi b^m x)
    log_power(s)      (log(e/x))^{-s} minus its mean
    lacunary(b)       sum_k k^{-b} cos(2 pi 2^k x) - zeta(b), b in (1, 2]

    Raises ValueError for an unknown family or a parameter it does not take.
    """
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown function family {family!r}; known: {sorted(FUNCTION_FAMILIES)}")
    for name in params:
        if name not in _FAMILY_PARAMS[family]:
            raise ValueError(f"{family} takes no parameter {name!r}; "
                             f"it takes: {', '.join(_FAMILY_PARAMS[family]) or 'none'}")
    if family == "affine":
        return FunctionOnUnitInterval("affine", lambda x: x - 0.5)
    if family == "cosine":
        k = int(params.get("k", 1))
        if k < 1:
            raise ValueError("cosine needs k >= 1")
        return FunctionOnUnitInterval(
            f"cosine(k={k})", lambda x: np.cos(2.0 * np.pi * k * x)
        )
    if family == "indicator_step":
        c = float(params.get("c", 0.5))
        if not 0.0 < c < 1.0:
            raise ValueError("indicator_step needs c in (0, 1)")
        return FunctionOnUnitInterval(
            f"indicator_step(c={c})",
            lambda x: (x <= c).astype(np.float64) - c,
            breakpoints=(c,),
        )
    if family == "weierstrass":
        a = float(params.get("a", 0.5))
        b = int(params.get("b", 2))
        terms = int(params.get("terms", 8))
        if not (0.0 < a < 1.0 and b >= 2 and terms >= 1):
            raise ValueError("weierstrass needs 0 < a < 1, b >= 2, terms >= 1")

        def wf(x: np.ndarray) -> np.ndarray:
            acc = np.zeros_like(x)
            for m in range(terms):
                acc += a ** m * np.cos(2.0 * np.pi * b ** m * x)
            return acc

        return FunctionOnUnitInterval(f"weierstrass(a={a},b={b},terms={terms})", wf)
    if family == "log_power":
        return _build_log_power(float(params.get("s", 0.4)))
    return _build_lacunary(float(params.get("b", 1.02)))


def validate_centering(f: FunctionOnUnitInterval, tol: float = 1e-8) -> float:
    """|int f|, which must vanish for every FunctionOnUnitInterval; raises beyond tol."""
    value = adaptive_integral(f, 0.0, 1.0, tol=tol / 10, breakpoints=f.breakpoints).value
    if abs(value) > tol:
        raise ValueError(f"{f.label} is not centered: int f = {value:.3e}")
    return abs(value)


# ---------------------------------------------------------------------------
# the averaging operator and ftilde
# ---------------------------------------------------------------------------

def doubling_average(f: FunctionOnUnitInterval) -> FunctionOnUnitInterval:
    """A(f)(x) = (f(x/2) + f((x+1)/2)) / 2, the transfer step of the shift."""

    def av(x: np.ndarray) -> np.ndarray:
        return 0.5 * (f(x / 2.0) + f((x + 1.0) / 2.0))

    pts = sorted({p for b in f.breakpoints for p in (2.0 * b, 2.0 * b - 1.0) if 0.0 < p < 1.0})
    return FunctionOnUnitInterval(
        label=f"A({f.label})", evaluator=av, breakpoints=tuple(pts),
    )


def ftilde(f: FunctionOnUnitInterval) -> FunctionOnUnitInterval:
    """ftilde = f - A(f); always centered (A preserves the mean).

    Constants are annihilated: A(c) = c.
    """
    av = doubling_average(f)

    def tf(x: np.ndarray) -> np.ndarray:
        return f(x) - av(x)

    pts = sorted({*f.breakpoints, *av.breakpoints})
    return FunctionOnUnitInterval(
        label=f"tilde({f.label})", evaluator=tf, breakpoints=tuple(pts),
    )


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------

_MAX_COND_N = 30
# Summands per block of the 2^n-term sum, fixed so that E_n f(x) keeps its
# bits however many points arrive in one call: 2^22 evaluations for the 15
# nodes of one Gauss-Legendre rule.
_COND_CHUNK = (1 << 22) // 15


def conditional_expectation(f: FunctionOnUnitInterval, n: int, x) -> np.ndarray:
    """E[f.T^n | past](x) = 2^-n sum_j f((x+j)/2^n) for centered f.

    Cost grows like 2^n function evaluations per point, hence the resource
    guard.
    """
    if not 1 <= n <= _MAX_COND_N:
        raise ValueError(f"resource guard: need 1 <= n <= {_MAX_COND_N} (2^n summands)")
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    shape = xs.shape
    xs = np.atleast_1d(xs).reshape(-1)  # flat: the block sum must broadcast 1-D
    total = np.zeros_like(xs)
    count = 1 << n
    scale = 1.0 / count
    chunk = min(count, _COND_CHUNK)
    rows = (1 << 22) // chunk  # points per block: at most 2^22 evaluations at once
    for r0 in range(0, xs.size, rows):
        block = xs[r0:r0 + rows, None]
        for j0 in range(0, count, chunk):
            js = np.arange(j0, min(count, j0 + chunk), dtype=np.float64)
            total[r0:r0 + rows] += f((block + js[None, :]) * scale).sum(axis=1)
    out = total * scale
    return float(out[0]) if scalar else out.reshape(shape)


def conditional_expectation_function(f: FunctionOnUnitInterval, n: int) -> FunctionOnUnitInterval:
    """E_n f packaged with its (single-per-jump) breakpoints."""
    pts = sorted({((1 << n) * b) % 1.0 for b in f.breakpoints} - {0.0})

    def en(x: np.ndarray) -> np.ndarray:
        return np.asarray(conditional_expectation(f, n, x))

    return FunctionOnUnitInterval(
        label=f"E_{n}({f.label})", evaluator=en, breakpoints=tuple(pts),
    )


# ---------------------------------------------------------------------------
# diagonal-strip integrals
# ---------------------------------------------------------------------------

def _translate_integrals(
    f: FunctionOnUnitInterval, q: float, tol: float, max_evals: int
) -> Tuple[Callable[[np.ndarray], np.ndarray], Dict[str, float]]:
    """The outer integrand us -> J(u) = int_0^{1-u} |f(x+u) - f(x)|^q dx.

    Each J(u) is an inner adaptive integral at (tol, max_evals); one call
    of the integrand refines the inner integrals of all its nodes u in
    lockstep.  The returned record keeps the worst inner error estimate
    ("error") and the inner evaluations spent ("evals") across every call
    of the integrand.
    """
    record = {"error": 0.0, "evals": 0}
    circle = q == 2.0 and f.circle_modulus_sq is not None and f.sup_bound is not None

    def circle_result(u: float) -> QuadratureResult:
        # interval and circle translation differ only on the wrap-around
        # strip of length u: bracket the circle modulus, take the midpoint
        modulus = f.circle_modulus_sq(u)
        width = min(modulus, u * (2.0 * f.sup_bound) ** 2)
        return QuadratureResult(modulus - 0.5 * width, 0.5 * width, 0, 1)

    def inner_problem(u: float) -> Tuple[float, float, List[float]]:
        top = 1.0 - u
        pts = {b for b in f.breakpoints if 0.0 < b < top}
        pts |= {b - u for b in f.breakpoints if 0.0 < b - u < top}
        return 0.0, top, sorted(pts)

    def J(us: np.ndarray) -> np.ndarray:
        out = np.zeros_like(us)
        nodes = [(i, u) for i, u in enumerate(us.tolist()) if 1.0 - u > 0.0]
        if circle:
            results = [circle_result(u) for _, u in nodes]
        else:
            shifts = np.array([u for _, u in nodes], dtype=np.float64)
            results = _lockstep_integrals(
                lambda xs, owner: np.abs(f(xs + shifts[owner]) - f(xs)) ** q,
                [inner_problem(u) for _, u in nodes], tol, max_evals)
        for (i, _), res in zip(nodes, results):
            record["error"] = max(record["error"], res.error)
            record["evals"] += res.evals
            out[i] = res.value
        return out

    return J, record


def _projection_power(f: FunctionOnUnitInterval, n: int, q: float, tol: float) -> QuadratureResult:
    """||E_n f||_q^q = int_0^1 |E_n f|^q."""
    en = conditional_expectation_function(f, n)
    return adaptive_integral(lambda x: np.abs(en(x)) ** q, 0.0, 1.0, tol=tol,
                             breakpoints=en.breakpoints)


# ---------------------------------------------------------------------------
# smoothing-inequality check
# ---------------------------------------------------------------------------

def lemma32_check(f: FunctionOnUnitInterval, n: int, q: float) -> CriteriaReport:
    """Verify both smoothing inequalities for E_n at exponent q.

        lhs_direct   = ||E_n f||_q^q
        lhs_one_step = ||E_n ftilde(f)||_q^q
        rhs_*        = 2^{n+1} int_0^{2^-n} J_*(u) du

    (each double integral over the strip |x-y| <= 2^-n folds onto
    u = x - y >= 0, turning the prefactor 2^n into 2^{n+1}).  The 2^n
    prefactor is forced in *both* inequalities: writing E_n h through the
    block representation 2^-n sum_j [h((x+j)/2^n) - h((y+j)/2^n)] and
    applying Jensen blockwise rescales each block [j 2^-n, (j+1) 2^-n]^2 by
    4^n against its 4^-n area — an n-free constant is impossible (for
    affine f the one-step left side decays like 4^-n while the strip
    integral decays like 8^-n).  Each check passes when
    lhs <= rhs + combined quadrature error; a combined error estimate above
    1e-6 raises QuadratureError with the achieved errors.
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    if not 1 <= n <= 20:
        raise ValueError("resource guard: need 1 <= n <= 20")
    report = CriteriaReport(title=f"smoothing inequalities n={n} q={q}")
    report.context.update({"n": n, "q": q, "f": f.label})
    budget = 1e-6
    delta_u = 2.0 ** -n
    total_err = 0.0
    prefactor = 2.0 ** (n + 1)
    for tag, fn in (("direct", f), ("one_step", ftilde(f))):
        lhs = _projection_power(fn, n, q, tol=1e-9)
        J, inner = _translate_integrals(fn, q, tol=1e-9 / 64.0, max_evals=20_000)
        strip = adaptive_integral(J, 0.0, delta_u, tol=1e-9 / 2.0, max_evals=200_000)
        rhs = prefactor * strip.value
        rhs_err = prefactor * (strip.error + inner["error"] * delta_u)
        err = lhs.error + rhs_err
        total_err += err
        report.context[tag] = {
            "lhs": lhs.value, "rhs": rhs,
            "lhs_error": lhs.error, "rhs_error": rhs_err,
            "evals": lhs.evals + inner["evals"] + strip.evals,
        }
        report.add(
            f"{tag} smoothing bound (n={n})",
            lhs.value <= rhs + err,
            margin=rhs - lhs.value,
            detail=f"lhs={lhs.value:.6e} rhs={rhs:.6e} err<={err:.2e}",
        )
    report.context["combined_error"] = total_err
    if total_err > budget:
        raise QuadratureError(
            f"quadrature did not certify the bounds: achieved error {total_err:.3e} "
            f"> budget {budget:.1e}"
        )
    return report


# ---------------------------------------------------------------------------
# log-weighted modulus integral
# ---------------------------------------------------------------------------

def criterion_integral(
    f: FunctionOnUnitInterval,
    q: float,
    weight_power: float,
    delta: float,
    u_max: float = 1.0,
) -> QuadratureResult:
    """iint |f(x)-f(y)|^q |x-y|^{-1} (log 1/|x-y|)^{weight_power+delta}.

    Folded to 2 int_0^{u_max} J(u) u^{-1} (log 1/u)^P du and integrated over
    dyadic shells u in [2^{-m-1}, 2^{-m}] to tolerance 1e-8, stopping after
    shell 120 or 2e6 inner evaluations.  The partial sums over shells are
    subjected to a Cauchy test on 10-shell blocks: when two successive
    blocks each fail to decay below 0.9x the block before them, the partial
    integrals are not Cauchy and the result is flagged divergent (a
    legitimate outcome for these criteria, not an error).  Block aggregation
    makes the test robust to the oscillation of lacunary moduli within a
    shell; genuinely divergent integrals whose shell values still decay
    (harmonic-rate divergence) are beyond any finite probe and come back
    unflagged with a large tail estimate.  For convergent integrals the
    error field combines per-shell quadrature errors with a geometric tail
    estimate.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < u_max <= 1.0:
        raise ValueError("u_max must lie in (0, 1]")
    tol, max_evals = 1e-8, 2 * 10 ** 6  # overall tolerance, inner-evaluation budget
    power = weight_power + delta
    # per-call caps keep the cost of one shell bounded (~45 outer nodes), so
    # the 20-shell divergence window always fits inside the overall budget
    J, inner = _translate_integrals(f, q, tol=1e-11, max_evals=900)

    def shell_integrand(us: np.ndarray) -> np.ndarray:
        out = J(us)
        for i, u in enumerate(us.tolist()):
            logw = math.log(1.0 / u) ** power if u < 1.0 else 0.0
            out[i] = out[i] / u * logw
        return out

    shells: List[float] = []
    total = 0.0
    err = 0.0
    subdivisions = 0
    m = 0
    while True:
        hi = min(u_max, 2.0 ** -m)
        lo = max(2.0 ** -(m + 1), 1e-90)
        if hi > lo:
            res = adaptive_integral(shell_integrand, lo, hi, tol=tol / 16.0,
                                    max_evals=225)
            shells.append(res.value)
            total += res.value
            err += res.error
            subdivisions += res.subdivisions
            if len(shells) >= 30:
                w0 = math.fsum(shells[-30:-20])
                w1 = math.fsum(shells[-20:-10])
                w2 = math.fsum(shells[-10:])
                if w2 > 0 and w2 >= 0.9 * w1 and w1 >= 0.9 * w0:
                    return QuadratureResult(
                        value=2.0 * total, error=0.0, subdivisions=subdivisions,
                        evals=inner["evals"], divergent=True,
                    )
        if len(shells) >= 3 and shells[-1] < max(tol / 8.0, 1e-16 * abs(total)):
            ratio = shells[-1] / shells[-2] if shells[-2] > 0 else 0.0
            tail = shells[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else shells[-1]
            err += tail
            break
        if m >= 120 or inner["evals"] > max_evals:
            err += shells[-1] if shells else 0.0
            break
        m += 1
    return QuadratureResult(
        value=2.0 * total, error=2.0 * (err + inner["error"]),
        subdivisions=subdivisions, evals=inner["evals"],
    )

# ---------------------------------------------------------------------------
# projective series and the criterion checkers
# ---------------------------------------------------------------------------

def projective_series_report(
    f: FunctionOnUnitInterval,
    q: float,
    N: int,
    delta: float = 0.1,
    q_one_step: Optional[float] = None,
) -> CriteriaReport:
    """Tables of ||E_n f||_q and ||E_n ftilde(f)||_{q_one_step} for n <= N.

    Partial sums approximate the projective-criterion series; since a finite
    table cannot prove summability, the verdict uses a geometric-decay
    diagnostic: with rho = max of the last three successive norm ratios, the
    extrapolated tail a_N * rho/(1-rho) is finite iff rho < 1, and the check
    passes when rho <= 0.9 (comfortably geometric).  The one-step column
    (the (I-U) direction) is computed at `q_one_step` (default: q), matching
    the summability pairs the invariance-principle and iterated-logarithm
    corollaries ask for.  `delta` is echoed for provenance with the
    log-weighted integral criteria that justify the extrapolation.
    """
    if not 1 <= N <= 20:
        raise ValueError("resource guard: need 1 <= N <= 20")
    if q <= 1:
        raise ValueError("q must exceed 1")
    q2 = q if q_one_step is None else float(q_one_step)
    report = CriteriaReport(title=f"projective series q={q} q_one_step={q2} N={N}")
    tf = ftilde(f)
    rows = []
    for n in range(1, N + 1):
        row = {"n": n}
        for tag, fn, expo in (("proj", f, q), ("one_step", tf, q2)):
            res = _projection_power(fn, n, expo, tol=1e-10)
            row[tag] = max(res.value, 0.0) ** (1.0 / expo)
            row[f"{tag}_error"] = res.error
            # A norm whose expo-th power sits within the quadrature error of
            # zero is numerically indistinguishable from an exact zero; the
            # absolute 1e-13 term covers round-off inside the 2^n-term
            # conditional-expectation averages, which the quadrature error
            # estimate cannot see.
            row[f"{tag}_floor"] = max(max(res.error, 0.0) ** (1.0 / expo), 1e-13)
        rows.append(row)
    for tag in ("proj", "one_step"):
        norms = [r[tag] for r in rows]
        partials = list(np.cumsum(norms))
        # Ratios of noise-level norms carry no decay information (functions
        # annihilated by the projections land here), so only pairs with both
        # entries above the noise floor enter the decay diagnostic.
        significant = [n > 4.0 * r[f"{tag}_floor"] for n, r in zip(norms, rows)]
        ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)
                  if significant[i] and significant[i + 1]]
        rho = max(ratios[-3:]) if ratios else 0.0
        tail = norms[-1] * rho / (1.0 - rho) if rho < 1.0 else math.inf
        if not any(significant):
            tail = 0.0
        report.context[f"{tag}_norms"] = norms
        report.context[f"{tag}_partial_sums"] = partials
        report.context[f"{tag}_decay_ratio"] = rho
        report.context[f"{tag}_extrapolated_tail"] = tail
        if any(significant):
            detail = f"rho={rho:.4f}, partial={partials[-1]:.6g}, tail<={tail:.3g}"
        else:
            detail = (f"all norms at quadrature noise level (partial={partials[-1]:.3g}); "
                      f"the projections annihilate this function")
        report.add(
            f"{tag} series summable (geometric diagnostic)",
            rho <= 0.9,
            margin=0.9 - rho,
            detail=detail,
        )
    report.context["rows"] = rows
    report.context["delta"] = delta
    return report


def _weak_tail_check(f: FunctionOnUnitInterval, exponent: float, report: CriteriaReport) -> None:
    """t^exponent * lambda{|f| > t} -> 0, estimated on a midpoint grid.

    For the bounded named families the tail vanishes identically beyond
    sup|f|, which settles the limit.  Otherwise the scaled tail is compared
    between two high quantiles (decreasing -> pass).
    """
    grid = (np.arange(1 << 16, dtype=np.float64) + 0.5) / (1 << 16)
    vals = np.abs(f(grid))
    sup = float(vals.max())
    t1, t2 = np.quantile(vals, [0.99, 0.9999])
    s1 = float(t1 ** exponent * np.mean(vals > t1))
    s2 = float(t2 ** exponent * np.mean(vals > t2))
    bounded = sup < 1e6
    report.context["sup_estimate"] = sup
    report.context["scaled_tail_pair"] = [s1, s2]
    report.add(
        f"weak tail t^{exponent:.4g} lambda(|f|>t) -> 0",
        bounded or s2 <= s1 / 2,
        margin=(s1 - s2),
        detail="bounded function: tail vanishes beyond sup|f|" if bounded
        else f"scaled tail {s1:.3e} -> {s2:.3e}",
    )


def _modulus_checks(report: CriteriaReport, f: FunctionOnUnitInterval,
                    direct: Tuple[float, float], one_step: Tuple[float, float],
                    delta: float, direct_prefix: str = "") -> None:
    """Finiteness of the modulus integrals of f and ftilde(f), each at its (q, weight)."""
    for key, label, fn, (q, weight), prefix in (
        ("direct_integral", "f", f, direct, direct_prefix),
        ("one_step_integral", "ftilde", ftilde(f), one_step, ""),
    ):
        res = criterion_integral(fn, q, weight, delta)
        report.context[key] = res
        report.add(f"modulus integral of {label} finite", not res.divergent,
                   margin=0.0 if res.divergent else 1.0,
                   detail=f"{prefix}value={res.value:.6g} err<={res.error:.2e}")


def _with_verdict(report: CriteriaReport) -> CriteriaReport:
    report.context["verdict"] = (
        "hypotheses verified numerically" if report.all_passed else "hypotheses not verified"
    )
    return report


def prop212_check(
    f: FunctionOnUnitInterval, p: float, delta: float = 0.1
) -> CriteriaReport:
    """Invariance-principle + iterated-logarithm criterion at exponent p.

    Hypotheses checked numerically: the weak-tail condition at exponent
    p/(p-1) (read as a t -> oo limit), the modulus integral of f at
    (q, weight) = (p, p-1+delta), and the modulus integral of ftilde(f) at
    (p/(p-1), 1/(p-1)+delta).  Verdict "hypotheses verified numerically"
    when all three pass.
    """
    if not 1 < p < 2:
        raise ValueError("p must lie in (1, 2)")
    report = CriteriaReport(title=f"invariance-principle criterion p={p} delta={delta}")
    report.context.update({"p": p, "delta": delta, "f": f.label})
    _weak_tail_check(f, p / (p - 1.0), report)
    _modulus_checks(report, f, (p, p - 1.0), (p / (p - 1.0), 1.0 / (p - 1.0)), delta)
    return _with_verdict(report)


def prop213_check(
    f: FunctionOnUnitInterval,
    p: float,
    r: float,
    delta: float = 0.1,
) -> CriteriaReport:
    """Strong-law criterion at exponents (p, r).

    The stated range for r is contradictory: read literally it is r in
    (p, 1), which is empty for p > 1.  This check uses the corrected reading
    r in (p, 2), the range under which the underlying series argument goes
    through, and records it as "mode": "corrected" in the context.
    """
    if not 1 < p < 2:
        raise ValueError("p must lie in (1, 2)")
    if not p < r < 2:
        raise ValueError(f"corrected reading needs r in (p, 2) = ({p}, 2), got {r}")
    q = max(1.0, (p - 1.0) * r / (r - 1.0))
    report = CriteriaReport(title=f"strong-law criterion p={p} r={r} delta={delta}")
    report.context.update({"p": p, "r": r, "q": q, "delta": delta, "f": f.label,
                           "mode": "corrected"})

    grid = (np.arange(1 << 16, dtype=np.float64) + 0.5) / (1 << 16)
    moment = float(np.mean(np.abs(f(grid)) ** r))
    report.context["moment_r"] = moment
    report.add("f in L^r (grid moment finite)", math.isfinite(moment), margin=1.0,
               detail=f"E|f|^r ~= {moment:.6g}")
    _modulus_checks(report, f, (q, q - 1.0), (r, r - 1.0), delta, direct_prefix=f"q={q:.4g} ")
    return _with_verdict(report)


_COROLLARY_EXPONENTS = {
    # corollary id -> (series exponent for E_n f, series exponent for (I-U) E_n f)
    "2.2": lambda p, r: (p, p / (p - 1.0)),
    "2.5": lambda p, r: (p, p / (p - 1.0)),
    "2.8": lambda p, r: (max(1.0 + 1e-9, (p - 1.0) * r / (r - 1.0)), r),
}


def corollary_check(
    f: FunctionOnUnitInterval,
    which: str,
    p: float,
    r: Optional[float] = None,
    N: int = 8,
    delta: float = 0.1,
) -> CriteriaReport:
    """Projective conditions of the three corollaries, via the series tables.

    Convergence of (E[S_n(f)|past])_n in the required space is implied by
    summability of ||E_n f|| in the matching norm (E[S_n|past] telescopes
    into sum_{j<=n} E_j f since f is measurable with respect to the past);
    the weak-norm variants are dominated by the strong norms computed here.
    """
    if which not in _COROLLARY_EXPONENTS:
        raise ValueError(f"unknown corollary {which!r}; known: {sorted(_COROLLARY_EXPONENTS)}")
    if which == "2.8" and r is None:
        raise ValueError("corollary 2.8 needs r")
    q_proj, q_one = _COROLLARY_EXPONENTS[which](p, r if r is not None else 2.0)
    rep = projective_series_report(f, q_proj, N, delta=delta, q_one_step=q_one)
    rep.title = f"corollary {which} projective conditions (p={p}" + \
        (f", r={r})" if r is not None else ")")
    rep.context["corollary"] = which
    return _with_verdict(rep)
