"""Tests for the dyadic-projection criteria on the unit interval."""

import math
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblim.bernoulli_criteria import (
    FunctionOnUnitInterval,
    QuadratureError,
    QuadratureResult,
    _GL_NODES,
    _GL_WEIGHTS,
    _lockstep_integrals,
    _translate_integrals,
    adaptive_integral,
    conditional_expectation,
    conditional_expectation_function,
    corollary_check,
    criterion_integral,
    doubling_average,
    ftilde,
    lemma32_check,
    make_function,
    projective_series_report,
    prop212_check,
    prop213_check,
    validate_centering,
)

AFFINE = make_function("affine")


def en_norm_affine(n: int, q: float) -> float:
    """Closed form ||E_n(x - 1/2)||_q = 2^-n * (1/2) * (q+1)^{-1/q}."""
    return 2.0 ** -n * 0.5 * (q + 1.0) ** (-1.0 / q)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_adaptive_integral_polynomial():
    res = adaptive_integral(lambda x: x ** 2, 0.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error <= 1e-10


def test_adaptive_integral_kink_with_breakpoint():
    res = adaptive_integral(np.abs, -1.0, 1.0, tol=1e-12, breakpoints=(0.0,))
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_adaptive_integral_oscillatory():
    res = adaptive_integral(lambda x: np.cos(2 * np.pi * 8 * x), 0.0, 1.0, tol=1e-11)
    assert abs(res.value) < 1e-10


def reference_adaptive_integral(func, a, b, tol, max_evals, breakpoints=()):
    """The per-panel loop: three 15-point rules, each in its own func call."""
    def gl15(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        return half * float(np.dot(_GL_WEIGHTS, func(mid + half * _GL_NODES)))

    if not b > a:
        return QuadratureResult(0.0, 0.0, 0, 0)
    cuts = sorted({a, b, *(c for c in breakpoints if a < c < b)})
    heap, evals = [], 0

    def push(lo, hi):
        nonlocal evals
        whole = gl15(lo, hi)
        mid = 0.5 * (lo + hi)
        halves = gl15(lo, mid) + gl15(mid, hi)
        evals += 45
        heappush(heap, (-abs(whole - halves), lo, hi, halves))

    for lo, hi in zip(cuts[:-1], cuts[1:]):
        push(lo, hi)
    subdivisions = len(cuts) - 1
    while True:
        total_err = -math.fsum(item[0] for item in heap)
        if total_err <= tol or evals + 90 > max_evals:
            return QuadratureResult(math.fsum(item[3] for item in heap), total_err,
                                    subdivisions, evals)
        neg_err, lo, hi, _ = heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heappush(heap, (-0.0, lo, hi, -neg_err * 0.0))
            continue
        push(lo, mid)
        push(mid, hi)
        subdivisions += 1


def test_lockstep_batch_matches_one_problem_calls():
    # Each problem of a lockstep batch refines on its own heap, so its result
    # must equal, bit for bit, a one-problem call at the same tol and budget,
    # and that call must equal the per-panel loop.
    third = 1.0 / 3.0
    ulp = float(np.spacing(third))
    tol, max_evals = 1e-13, 2000
    cases = [
        (np.exp, 0.0, 1.0, ()),                                     # smooth
        (np.abs, -1.0, 1.0, (0.0,)),                                # kink at a breakpoint
        (lambda x: np.sqrt(np.abs(x - third)), 0.0, 1.0, ()),       # stops on max_evals
        (np.cos, 1.0, 0.5, ()),                                     # b <= a
        # a jump inside an 8-ulp interval: bisection reaches 1-ulp panels,
        # which the float-resolution branch accepts as they are
        (lambda x: 1e6 * (x > third + 3 * ulp), third, third + 8 * ulp, ()),
    ]

    def batch_integrand(xs, owner):
        ys = np.empty_like(xs)
        for j, (fn, _, _, _) in enumerate(cases):
            mask = owner == j
            ys[mask] = fn(xs[mask])
        return ys

    batch = _lockstep_integrals(batch_integrand, [(a, b, bps) for _, a, b, bps in cases],
                                tol, max_evals)
    singles = [adaptive_integral(fn, a, b, tol=tol, max_evals=max_evals, breakpoints=bps)
               for fn, a, b, bps in cases]
    assert batch == singles
    assert singles == [reference_adaptive_integral(fn, a, b, tol, max_evals, bps)
                       for fn, a, b, bps in cases]
    assert singles[2].error > tol and singles[2].evals + 90 > max_evals
    assert singles[3] == QuadratureResult(0.0, 0.0, 0, 0)
    assert singles[4].error <= tol and singles[4].subdivisions > 3


@pytest.mark.parametrize("family,params", [
    ("indicator_step", {"c": 0.3}),            # breakpoints at c and c - u
    ("weierstrass", {"a": 0.5, "b": 2, "terms": 4}),  # refines up to the budget
])
def test_translate_integrals_match_per_node_adaptive_integrals(family, params):
    f = make_function(family, **params)
    q, tol, max_evals = 1.5, 1e-11, 900
    us = np.linspace(0.0, 1.0, 45)
    J, record = _translate_integrals(f, q, tol, max_evals)
    values = J(us)
    expected = []
    for u in us.tolist():
        top = 1.0 - u
        if top <= 0.0:
            expected.append(None)
            continue
        pts = {b for b in f.breakpoints if 0.0 < b < top}
        pts |= {b - u for b in f.breakpoints if 0.0 < b - u < top}
        expected.append(adaptive_integral(lambda x: np.abs(f(x + u) - f(x)) ** q, 0.0, top,
                                          tol=tol, max_evals=max_evals, breakpoints=sorted(pts)))
    assert values.tolist() == [0.0 if r is None else r.value for r in expected]
    done = [r for r in expected if r is not None]
    assert record == {"error": max(r.error for r in done), "evals": sum(r.evals for r in done)}


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------

def test_families_are_centered():
    for family, params in (
        ("affine", {}),
        ("cosine", {"k": 3}),
        ("indicator_step", {"c": 0.3}),
        ("weierstrass", {"a": 0.5, "b": 2, "terms": 5}),
        ("log_power", {"s": 0.4}),
    ):
        f = make_function(family, **params)
        assert validate_centering(f) < 1e-8


def test_validate_centering_rejects_uncentered_function():
    # every FunctionOnUnitInterval is assumed centered, so a nonzero mean is an error
    with pytest.raises(ValueError, match="not centered"):
        validate_centering(FunctionOnUnitInterval("x", lambda x: x))


def test_make_function_validation():
    with pytest.raises(ValueError, match="unknown function family"):
        make_function("triangle")
    with pytest.raises(ValueError, match="c in"):
        make_function("indicator_step", c=1.5)
    with pytest.raises(ValueError, match="b in"):
        make_function("lacunary", b=3.0)


def test_indicator_step_values():
    f = make_function("indicator_step", c=0.3)
    x = np.array([0.1, 0.3, 0.9])
    assert np.allclose(f(x), [0.7, 0.7, -0.3])


# ---------------------------------------------------------------------------
# averaging operator and ftilde
# ---------------------------------------------------------------------------

def test_doubling_average_of_affine():
    # A(x - 1/2)(x) = ((x/2 - 1/2) + ((x+1)/2 - 1/2)) / 2 = x/2 - 1/4
    af = doubling_average(AFFINE)
    x = np.linspace(0.0, 1.0, 9)
    assert np.allclose(af(x), x / 2 - 0.25, atol=1e-14)


def test_ftilde_of_affine_is_half_slope():
    tf = ftilde(AFFINE)
    x = np.linspace(0.0, 1.0, 9)
    assert np.allclose(tf(x), x / 2 - 0.25, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["affine", "cosine", "indicator_step"]))
def test_averaging_operator_is_linear_over_ftilde(family):
    # A(ftilde f) = A f - A(A f) pointwise (linearity of the transfer step)
    f = make_function(family)
    lhs = doubling_average(ftilde(f))
    af = doubling_average(f)
    rhs_minus = doubling_average(af)
    x = np.linspace(0.0, 1.0, 33)
    assert np.allclose(lhs(x), af(x) - rhs_minus(x), atol=1e-12)


def test_cosine_is_annihilated_by_the_average():
    # the doubling average of cos(2 pi x) vanishes identically
    f = make_function("cosine")
    af = doubling_average(f)
    x = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(af(x))) < 1e-14


# ---------------------------------------------------------------------------
# conditional expectations onto dyadic blocks
# ---------------------------------------------------------------------------

def test_conditional_expectation_affine_level_one():
    x = np.linspace(0.0, 1.0, 101)
    vals = conditional_expectation(AFFINE, 1, x)
    assert np.max(np.abs(vals - (x / 2 - 0.25))) < 1e-10


@given(st.integers(min_value=1, max_value=8))
def test_conditional_expectation_affine_scales(n):
    # E_n(x - 1/2) = 2^-n (x - 1/2): sup norm 2^-n / 2
    x = np.linspace(0.0, 1.0, 65)
    vals = conditional_expectation(AFFINE, n, x)
    assert np.allclose(vals, 2.0 ** -n * (x - 0.5), atol=1e-12)
    assert np.max(np.abs(vals)) <= 2.0 ** -n / 2 + 1e-12


def test_en_norm_affine_closed_form():
    for n in (1, 3, 5):
        for q in (1.5, 2.0):
            en = conditional_expectation_function(AFFINE, n)
            res = adaptive_integral(lambda x: np.abs(en(x)) ** q, 0.0, 1.0, tol=1e-12)
            assert res.value ** (1.0 / q) == pytest.approx(en_norm_affine(n, q), rel=1e-9)


def test_en_norm_affine_frozen_value():
    # q = 1.5: 2^-n * 0.5 * 2.5^(-2/3)
    assert en_norm_affine(1, 1.5) == pytest.approx(0.5 * 0.271442, rel=1e-4)


def test_conditional_expectation_annihilates_cosine():
    x = np.linspace(0.0, 1.0, 129)
    for n in (1, 2, 4):
        vals = conditional_expectation(make_function("cosine"), n, x)
        assert np.max(np.abs(vals)) < 1e-12


def test_conditional_expectation_does_not_depend_on_batch_size():
    # at n = 17 the 2^17-term sum spans more than one block for 45 points
    f = make_function("cosine", k=3)
    x = np.linspace(0.01, 0.99, 45)
    assert conditional_expectation(f, 17, x)[:15].tolist() == \
        conditional_expectation(f, 17, x[:15]).tolist()


def test_conditional_expectation_semigroup():
    # the n-step averages compose: applying the 2-step average twice equals
    # the 4-step average (the norms match the true projections onto the
    # shifted coordinate fields)
    f = make_function("indicator_step", c=0.3)
    e2 = conditional_expectation_function(f, 2)
    x = np.linspace(0.0, 1.0, 33)
    assert np.allclose(
        conditional_expectation(e2, 2, x),
        conditional_expectation(f, 4, x),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# smoothing inequalities
# ---------------------------------------------------------------------------

def test_lemma32_affine_closed_forms():
    # q = 2: lhs_direct = 4^-n / 12, strip rhs = 2^{n+1} (d^3/3 - d^4/4),
    # one-step halves the slope so lhs/4 and rhs/4
    for n in (1, 2, 3):
        rep = lemma32_check(AFFINE, n=n, q=2.0)
        assert rep.all_passed
        d = 2.0 ** -n
        direct = rep.context["direct"]
        one = rep.context["one_step"]
        rhs_expected = 2.0 ** (n + 1) * (d ** 3 / 3 - d ** 4 / 4)
        assert direct["lhs"] == pytest.approx(4.0 ** -n / 12, rel=1e-8)
        assert direct["rhs"] == pytest.approx(rhs_expected, rel=1e-8)
        assert one["lhs"] == pytest.approx(4.0 ** -n / 48, rel=1e-8)
        assert one["rhs"] == pytest.approx(rhs_expected / 4, rel=1e-8)


def test_lemma32_rhs_decreases_with_n():
    rhs = []
    for n in (1, 2, 3, 4):
        rep = lemma32_check(AFFINE, n=n, q=2.0)
        rhs.append(rep.context["direct"]["rhs"])
    assert all(b < a for a, b in zip(rhs, rhs[1:]))


def test_lemma32_holds_across_functions_and_exponents():
    step = make_function("indicator_step", c=0.5)
    for q in (1.5, 2.0):
        rep = lemma32_check(step, n=2, q=q)
        assert rep.all_passed, rep.summary_lines()
    # a few oscillations are enough to exercise the strip integral; high
    # top frequencies only slow the quadrature down
    rough = make_function("weierstrass", a=0.5, b=2, terms=4)
    rep = lemma32_check(rough, n=2, q=2.0)
    assert rep.all_passed, rep.summary_lines()


def test_lemma32_guards():
    with pytest.raises(ValueError, match="q must exceed 1"):
        lemma32_check(AFFINE, n=2, q=1.0)
    with pytest.raises(ValueError, match="resource guard"):
        lemma32_check(AFFINE, n=21, q=2.0)


# ---------------------------------------------------------------------------
# log-weighted modulus integrals
# ---------------------------------------------------------------------------

def test_criterion_integral_affine_frozen_value():
    res = criterion_integral(AFFINE, q=1.5, weight_power=0.5, delta=0.1)
    assert not res.divergent
    assert res.value == pytest.approx(0.52158030, rel=1e-5)


def test_criterion_integral_step_frozen_value():
    f = make_function("indicator_step", c=0.3)
    res = criterion_integral(f, q=2.0, weight_power=1.0, delta=0.1)
    assert not res.divergent
    assert res.value == pytest.approx(1.85732, rel=1e-4)


def test_criterion_integral_monotone_in_weight():
    # on u <= u_max = 1/e the log factor exceeds 1, so a larger power
    # can only increase the integral
    f = make_function("indicator_step", c=0.5)
    small = criterion_integral(f, q=2.0, weight_power=0.5, delta=0.1, u_max=1 / math.e)
    large = criterion_integral(f, q=2.0, weight_power=1.5, delta=0.1, u_max=1 / math.e)
    assert small.value < large.value


def test_criterion_integral_lacunary_divergence_flag():
    # b = 1.02 concentrates too much high-frequency mass: the shell partial
    # sums stop decaying and the Cauchy probe flags divergence
    f = make_function("lacunary", b=1.02)
    res = criterion_integral(f, q=2.0, weight_power=1.0, delta=0.1)
    assert res.divergent


def test_criterion_integral_parameter_guards():
    with pytest.raises(ValueError, match="delta"):
        criterion_integral(AFFINE, q=1.5, weight_power=0.5, delta=0.0)
    with pytest.raises(ValueError, match="u_max"):
        criterion_integral(AFFINE, q=1.5, weight_power=0.5, delta=0.1, u_max=1.5)


# ---------------------------------------------------------------------------
# projective series tables
# ---------------------------------------------------------------------------

def test_projective_series_affine_exact_halving():
    rep = projective_series_report(AFFINE, q=2.0, N=6)
    assert rep.all_passed
    norms = rep.context["proj_norms"]
    for n in range(6):
        assert norms[n] == pytest.approx(en_norm_affine(n + 1, 2.0), rel=1e-8)
    assert rep.context["proj_decay_ratio"] == pytest.approx(0.5, abs=1e-6)


def test_projective_series_annihilated_function():
    rep = projective_series_report(make_function("cosine"), q=2.0, N=4)
    assert rep.all_passed
    assert rep.context["proj_extrapolated_tail"] == 0.0
    assert any("annihilate" in c.detail for c in rep.checks)


def test_projective_series_resource_guard():
    with pytest.raises(ValueError, match="resource guard"):
        projective_series_report(AFFINE, q=2.0, N=25)


# ---------------------------------------------------------------------------
# the composite criteria
# ---------------------------------------------------------------------------

def test_prop212_affine_verified():
    rep = prop212_check(AFFINE, p=1.5)
    assert rep.all_passed
    assert rep.context["verdict"] == "hypotheses verified numerically"


def test_prop213_corrected_mode_runs():
    rep = prop213_check(AFFINE, p=1.5, r=1.8)
    assert rep.all_passed
    assert rep.context["q"] == pytest.approx(max(1.0, 0.5 * 1.8 / 0.8))


def test_prop213_range_guard():
    with pytest.raises(ValueError, match="corrected reading needs r"):
        prop213_check(AFFINE, p=1.5, r=2.5)


def test_corollary_checks_run_and_label():
    rep22 = corollary_check(AFFINE, "2.2", p=1.5, N=4)
    assert rep22.all_passed
    assert rep22.context["corollary"] == "2.2"
    rep28 = corollary_check(AFFINE, "2.8", p=1.5, r=1.8, N=4)
    assert rep28.all_passed
    with pytest.raises(ValueError, match="needs r"):
        corollary_check(AFFINE, "2.8", p=1.5)
    with pytest.raises(ValueError, match="unknown corollary"):
        corollary_check(AFFINE, "3.9", p=1.5)
