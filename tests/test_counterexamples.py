"""Tests for the tower transfer-function counterexamples on the odometer."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coblim.counterexamples import (
    TowerCounterexample,
    TowerLevelMap,
    build_tower_counterexample,
    exact_norms,
    exact_violation_probability,
    feasibility_checks,
    g_rank_dtype,
    g_residue_table,
    norm_decay_ratios,
    orbit_truncation_bound,
    truncation_tail_bound,
)
from coblim.mc_harness import validate_hypotheses
from oracles import eval_g, g_table_per_level, tower_value, violation_probability_bruteforce


def small_iplil(i_max=10, bits=12):
    return build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=i_max, bits=bits)


def small_slln(i_max=10, bits=12):
    return build_tower_counterexample("slln", p=1.8, r=3.0, q=1.1, i_max=i_max, bits=bits)


# ---------------------------------------------------------------------------
# construction and feasibility
# ---------------------------------------------------------------------------

def test_feasibility_rejects_empty_window_iplil():
    # p < r/(r-1) is required; r = 2 makes the cutoff 2, so p = 1.9 passes
    # and the boundary geometry p >= r/(r-1) fails for r = 4, p = 1.5
    with pytest.raises(ValueError, match="feasibility"):
        build_tower_counterexample("ip_lil", p=1.5, r=4.0)


def test_feasibility_rejects_empty_window_slln():
    # needs q < (p-1)r/(r-1) = 0.5*1.8/0.8 at p=1.5, r=1.8
    with pytest.raises(ValueError, match="feasibility"):
        build_tower_counterexample("slln", p=1.5, r=1.8, q=1.2)


def _builds(kind, p, r, q):
    """Whether the construction accepts the exponents; a refusal must be a
    feasibility failure."""
    try:
        build_tower_counterexample(kind, p, r, q=q, i_max=12, bits=12)
    except ValueError as exc:
        assert str(exc).startswith("feasibility fails: ")
        return False
    return True


@settings(deadline=None, max_examples=150)
@given(st.integers(100, 250), st.integers(101, 600), st.integers(100, 250))
@example(130, 140, 105)  # slln: q = (p-1)r/(r-1) = 21/20 exactly
@example(150, 300, 100)  # ip_lil: p = r/(r-1) = 3/2 exactly
def test_construction_accepts_exactly_the_validated_exponents(a, b, c):
    # two-decimal exponents: the construction and validate decide each kind
    # by one exact rule, so they agree on and beside every boundary
    p, r, q = a / 100, b / 100, c / 100
    assert _builds("ip_lil", p, r, None) == validate_hypotheses(
        {"p": p, "r": r}, "2.10").all_passed
    assert _builds("slln", p, r, q) == validate_hypotheses(
        {"q": q, "p": p, "r": r}, "2.11").all_passed


def test_kind_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        build_tower_counterexample("bogus", p=1.2, r=4.0)
    with pytest.raises(ValueError, match="slln kind requires q"):
        build_tower_counterexample("slln", p=1.8, r=3.0)
    with pytest.raises(ValueError, match="only a parameter of the slln"):
        build_tower_counterexample("ip_lil", p=1.2, r=4.0, q=1.1)


def test_window_exponent_must_be_interior():
    with pytest.raises(ValueError, match="outside the open window"):
        build_tower_counterexample("ip_lil", p=1.2, r=4.0, window_exp=0.9)


def test_tower_shape_postconditions():
    cex = small_iplil()
    for m in cex.maps:
        assert m.n == 1 << m.i
        assert 2 * m.k < m.n
        assert m.k == math.ceil(2 ** (m.i * cex.window_exp))
        assert m.amplitude > 0


def test_default_start_index_respects_constraints():
    cex = small_iplil()
    i0 = cex.i0
    assert 2 * cex.map_for(i0).k < (1 << i0)
    assert (1 << i0) > math.e ** math.e


def test_explicit_start_index_obeys_the_default_rule():
    # one predicate decides the searched start index and an explicit one
    cex = small_iplil()
    assert build_tower_counterexample("ip_lil", p=1.2, r=4.0, i0=cex.i0, i_max=10,
                                      bits=12) == cex
    with pytest.raises(ValueError, match=f"i0={cex.i0 - 1} violates 2k_i < n_i or n_i > e"):
        build_tower_counterexample("ip_lil", p=1.2, r=4.0, i0=cex.i0 - 1, i_max=10, bits=12)


# ---------------------------------------------------------------------------
# level maps and evaluation
# ---------------------------------------------------------------------------

def test_level_map_profile_is_triangular():
    m = TowerLevelMap(i=6, n=64, k=5, amplitude=2.0)
    levels, vals = m.profile()
    assert len(vals) == 2 * m.k - 1
    assert vals.max() == m.peak == 10.0
    # symmetric rise and fall: value at j equals value at 2k - j
    for j in range(1, 2 * m.k):
        assert tower_value(m, m.n - j) == tower_value(m, m.n - (2 * m.k - j))
    assert tower_value(m, 0) == 0.0
    assert tower_value(m, m.n - 2 * m.k) == 0.0
    # the oracle's closed form is the profile the residue table adds
    assert [tower_value(m, lev) for lev in levels] == vals.tolist()


def test_level_map_rep_total_mass():
    m = TowerLevelMap(i=6, n=64, k=5, amplitude=1.0)
    rep = m.rep()
    assert rep.n == m.n
    assert sum(c for _, c in rep.pairs) == 2 * m.k - 1


def test_diff_rep_matches_direct_one_step_difference():
    # enumerate |g_i(T w) - g_i(w)| over all residues and compare distributions
    m = TowerLevelMap(i=5, n=32, k=3, amplitude=1.5)
    diffs = {}
    for lev in range(m.n):
        d = abs(tower_value(m, (lev + 1) % m.n) - tower_value(m, lev))
        if d > 0:
            diffs[d] = diffs.get(d, 0) + 1
    rep = m.diff_rep()
    assert rep.n == m.n
    assert dict(rep.pairs) == diffs


def test_eval_g_sums_tower_levels():
    # the point 517 of the 10-bit odometer sits at level 517 mod 2^i of tower
    # i; the oracle sums the library's profiles read at those levels
    cex = small_iplil(i_max=8, bits=10)
    expected = 0.0
    for m in cex.maps:
        levels, vals = m.profile()
        expected += vals[levels == 517 % m.n].sum()
    assert eval_g(cex, 517) == pytest.approx(expected)


def residue_table(cex):
    """(ranks, values) of g_residue_table on a fresh table."""
    ranks = np.empty(1 << cex.i_max, dtype=g_rank_dtype(cex))
    return ranks, g_residue_table(cex, ranks)


def test_g_residue_table_matches_eval():
    cex = small_iplil(i_max=6, bits=8)
    ranks, values = residue_table(cex)
    assert ranks.shape == (1 << cex.i_max,)
    for v in (0, 17, 63, 255):
        assert values[ranks[v & ((1 << cex.i_max) - 1)]] == pytest.approx(eval_g(cex, v))


def assert_ranks_give_per_level_table(cex):
    """values[ranks] equals the per-level float table bit for bit, and the
    values strictly increase.  Each value occurs in the table unless the
    band of some tower i > i0 is longer than n_{i-1}: it then reaches the
    first copy of the table mod n_{i-1} and may cover every copy of a prior
    band cell."""
    ranks, values = residue_table(cex)
    expected = g_table_per_level(cex)
    assert np.array_equal(values[ranks].view(np.int64), expected.view(np.int64))
    assert np.all(values[1:] > values[:-1])
    assert (np.bincount(ranks, minlength=values.size).all()
            or any(2 * m.k - 1 > m.n // 2 for m in cex.maps[1:]))


def test_g_residue_table_equals_per_level_additions():
    # the band cells get the same additions in the same tower order as one
    # strided addition per level, so the values the ranks select equal that
    # table bit for bit; the last tower's period n_{i_max} is the table size.
    # The ranks are written into `out` only
    for cex in (small_iplil(i_max=12, bits=14), small_slln(i_max=12, bits=14)):
        assert cex.maps[-1].n == 1 << cex.i_max
        assert_ranks_give_per_level_table(cex)
        dtype = g_rank_dtype(cex)
        out = np.full((1 << cex.i_max) + 5, np.iinfo(dtype).max, dtype=dtype)
        values = g_residue_table(cex, out=out[: 1 << cex.i_max])
        assert np.array_equal(values[out[: 1 << cex.i_max]], g_table_per_level(cex))
        assert (out[1 << cex.i_max:] == np.iinfo(dtype).max).all()
        with pytest.raises(ValueError, match=f"{dtype} array of 4096 entries"):
            g_residue_table(cex, out=out)
        with pytest.raises(ValueError, match=f"{dtype} array of 4096 entries"):
            g_residue_table(cex, out=np.empty(1 << cex.i_max))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=6),
       st.data())
def test_g_residue_table_equals_per_level_additions_on_random_towers(i0, extra, data):
    # consecutive towers i0..i_max with any 0 < 2k_i < n_i and amplitudes
    # that make equal sums along different tower sets (0.5, 1, 1.5) and sums
    # that round (0.1, 0.2, 0.3), or arbitrary ones
    i_max = i0 + extra
    amplitude = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 1.5]),
                          st.floats(min_value=1e-3, max_value=1e3))
    maps = tuple(
        TowerLevelMap(i=i, n=1 << i, k=data.draw(st.integers(1, (1 << (i - 1)) - 1)),
                      amplitude=data.draw(amplitude))
        for i in range(i0, i_max + 1))
    cex = TowerCounterexample(kind="ip_lil", p=1.2, r=4.0, q=None, window_exp=0.5,
                              i0=i0, i_max=i_max, bits=i_max, maps=maps)
    assert_ranks_give_per_level_table(cex)


def test_g_rank_dtype_widens_exactly_past_two_to_the_sixteen_values():
    # g takes at most 1 + sum_i (2k_i - 1) values; the ranks, below that
    # bound, fit uint16 up to a bound of 2^16 and take uint32 from 2^16 + 1.
    # The stubs hold only the k_i (and a 4-cell table size), so no table of
    # that many cells is built
    def stub(*ks):
        return SimpleNamespace(i_max=2, maps=[SimpleNamespace(k=k) for k in ks])

    assert g_rank_dtype(stub(1 << 7)) == np.uint8           # bound 2^8
    assert g_rank_dtype(stub(1, 1 << 7)) == np.uint16       # bound 2^8 + 1
    assert g_rank_dtype(stub(1 << 15)) == np.uint16         # bound 2^16
    assert g_rank_dtype(stub(1, 1 << 15)) == np.uint32      # bound 2^16 + 1
    with pytest.raises(ValueError, match="uint32 array of 4 entries"):
        g_residue_table(stub(1, 1 << 15), out=np.empty(4, dtype=np.uint16))
    assert g_rank_dtype(small_iplil(i_max=16, bits=18)) == np.uint16


# ---------------------------------------------------------------------------
# exact norms against the closed forms
# ---------------------------------------------------------------------------

def test_exact_norms_respect_closed_form_bounds():
    for cex in (small_iplil(), small_slln()):
        rows = exact_norms(cex)
        assert len(rows) == cex.i_max - cex.i0 + 1
        for row in rows:
            assert row.norm_p_exact <= row.bound_355  # zero tolerance
            # the difference norm IS its closed form (same quantity, two
            # float computation paths)
            assert row.norm_r_exact == pytest.approx(row.bound_358, rel=1e-12)


def test_exact_norms_against_independent_moment():
    cex = small_iplil(i_max=8, bits=10)
    row = exact_norms(cex, i_range=[7])[0]
    m = cex.map_for(7)
    # recompute E|g_7|^p by direct summation over the tower levels
    p = cex.g_exponent
    direct = math.fsum(
        (tower_value(m, lev) ** p) / m.n for lev in range(m.n)
    )
    assert row.norm_p_exact == pytest.approx(direct ** (1.0 / p))


def test_diff_norm_closed_form_value():
    cex = small_slln(i_max=8, bits=10)
    m = cex.map_for(6)
    row = exact_norms(cex, i_range=[6])[0]
    assert row.norm_r_exact == pytest.approx(
        m.amplitude * (2 * m.k / m.n) ** (1 / cex.r)
    )


def test_norm_decay_ratios_track_the_geometric_rate():
    # successive norms contract at 2^{(w - 1 + p/2)/p} up to the slowly
    # varying log log factor and the integer rounding of k_i
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=16, bits=18)
    rows = exact_norms(cex)
    ratios = norm_decay_ratios(rows)
    assert len(ratios) == len(rows) - 1
    rate = 2.0 ** ((cex.window_exp - 1.0 + cex.p / 2.0) / cex.p)
    for r in ratios[-6:]:
        assert abs(r - rate) < 0.1 * rate


# ---------------------------------------------------------------------------
# exact violation probabilities vs brute force
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=5, max_value=9),
    st.fractions(min_value=0, max_value=1),
    st.data(),
)
def test_violation_probability_matches_bruteforce(i, frac, data):
    cex = small_iplil(i_max=10, bits=12)
    m = cex.map_for(i)
    threshold = float(frac) * m.peak
    lo = data.draw(st.integers(min_value=0, max_value=2 * m.n))
    length = data.draw(st.integers(min_value=0, max_value=2 * m.n))
    window = (lo, lo + length)
    exact = exact_violation_probability(cex, i, threshold, window)
    brute = violation_probability_bruteforce(cex, i, threshold, window)
    assert exact == brute


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=5, max_value=9), st.floats(min_value=0.0, max_value=30.0))
def test_threshold_on_dyadic_window_matches_bruteforce(i, value):
    cex = small_slln(i_max=10, bits=12)
    window = (1 << i, 1 << (i + 1))
    assert exact_violation_probability(cex, i, value, window) == \
        violation_probability_bruteforce(cex, i, value, window)


def test_violation_probability_window_endpoints():
    cex = small_iplil(i_max=8, bits=10)
    m = cex.map_for(6)
    threshold = 0.5 * m.peak
    # a single-shift window hits each qualifying level from one residue
    assert exact_violation_probability(cex, 6, threshold, (0, 0)) == Fraction(
        len(m.qualifying_j(threshold)), m.n
    )
    # a window at least one full cycle long passes through every level
    assert exact_violation_probability(cex, 6, threshold, (0, m.n - 1)) == Fraction(1)
    assert exact_violation_probability(cex, 6, threshold, (5, 5 + 10 * m.n)) == Fraction(1)


def test_threshold_above_peak_is_empty():
    m = TowerLevelMap(i=6, n=64, k=5, amplitude=1.0)
    assert len(m.qualifying_j(1.5 * m.peak)) == 0
    assert m.qualifying_j(m.peak) == range(m.k, m.k + 1)  # peak only


@settings(max_examples=300, deadline=None)
@given(data=st.data(), i=st.integers(2, 14),
       amplitude=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
       where=st.sampled_from(["below", "at", "above", "nonpositive", "over-peak"]))
def test_qualifying_j_are_the_levels_that_meet_the_threshold(data, i, amplitude, where):
    # the qualifying j are exactly those whose profile value is >= the
    # threshold, compared as floats, for thresholds at u * a, its float
    # neighbours, <= 0 and above the peak
    n = 1 << i
    k = data.draw(st.integers(1, n // 2 - 1))
    m = TowerLevelMap(i=i, n=n, k=k, amplitude=amplitude)
    u = data.draw(st.integers(1, k))
    value = {
        "below": math.nextafter(u * amplitude, -math.inf),
        "at": u * amplitude,
        "above": math.nextafter(u * amplitude, math.inf),
        "nonpositive": -data.draw(st.floats(0.0, 1e6)),
        "over-peak": math.nextafter(k * amplitude, math.inf) * data.draw(st.floats(1.0, 4.0)),
    }[where]
    levels, values = m.profile()
    expected = [j for j, v in zip(n - levels, values.tolist()) if v >= value]
    assert list(m.qualifying_j(value)) == expected


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(["ip_lil", "slln"]), st.integers(100, 199), st.integers(200, 600),
       st.integers(100, 198), st.floats(0.01, 0.99))
def test_peak_threshold_qualifies_the_peak_level_alone(kind, a, b, c, t):
    # the slln event's threshold is the float peak: on every tower it must
    # select the peak level and no other
    p, r, q = a / 100, b / 100, c / 100 if kind == "slln" else None
    context = {}
    assume(all(passed for _, passed, _, _ in feasibility_checks(kind, p, r, q, context)))
    lo, hi = context["window"]
    cex = build_tower_counterexample(kind, p, r, q=q, window_exp=float(lo + (hi - lo) * t),
                                     i_max=24, bits=24)
    for m in cex.maps:
        assert m.qualifying_j(m.peak) == range(m.k, m.k + 1)


def test_violation_probability_exact_type():
    cex = small_iplil(i_max=8, bits=10)
    m = cex.map_for(7)
    prob = exact_violation_probability(cex, 7, m.peak / 3, (1 << 7, 1 << 8))
    assert isinstance(prob, Fraction)
    assert 0 <= prob <= 1


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncation_tail_bound_decreases_in_imax():
    full = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=16, bits=18)
    short = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=12, bits=18)
    assert 0 < truncation_tail_bound(full) < truncation_tail_bound(short) < 1


def test_orbit_truncation_bound_scales_with_horizon():
    cex = small_iplil(i_max=10, bits=14)
    b1 = orbit_truncation_bound(cex, 16)
    b2 = orbit_truncation_bound(cex, 64)
    assert 0 < b1 <= b2
