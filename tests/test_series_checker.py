"""Tests for the summability trend checker and its geometric family."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coblim import series_checker
from coblim.series_checker import (
    _CHUNK,
    _PIECE,
    DEFAULT_CHECKPOINTS,
    SequenceFamily,
    geometric_family,
    prop23_report,
)


# ---------------------------------------------------------------------------
# the geometric family
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(ValueError, match="p"):
        geometric_family(2.5)
    fam = geometric_family(1.5)
    assert fam.p == 1.5
    assert fam.k_start == 2


def test_main_term_identity_beyond_ceiling():
    # once the block count is past its integer-rounding regime, the main
    # term theta_k^p N_k^{p/2} rho_k collapses to 1 / (k log^2 k) exactly
    fam = geometric_family(1.5)
    ks = np.array([500.0, 5000.0, 50000.0])
    lt = fam.log2_theta(ks)
    lc = fam.log2_count(ks)
    lr = fam.log2_rho(ks)
    term = np.exp2(fam.p * lt + (fam.p / 2.0) * lc + lr)
    expected = 1.0 / (ks * np.log(ks) ** 2)
    assert np.allclose(term, expected, rtol=1e-12)


def test_count_is_exactly_ceiled_when_small():
    fam = geometric_family(1.8)
    ks = np.arange(2.0, 40.0)
    raw = 2.0 ** (2.0 * ks * (2.0 - fam.p) / fam.p) / ks ** (2.0 / fam.p)
    counts = np.exp2(fam.log2_count(ks))
    small = raw <= 50.0
    assert np.allclose(counts[small], np.ceil(raw[small]), rtol=1e-12)
    assert np.all(counts >= 1.0 - 1e-12)


def test_rho_tail_closed_form():
    fam = geometric_family(1.2)
    # sum_{j >= k} 2^-j = 2^{1-k}
    assert fam.rho_tail_log2(10.0) == pytest.approx(1.0 - 10.0)


# ---------------------------------------------------------------------------
# report verdicts at the calibrated operating points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,main_sum,growth",
    [
        (1.2, 2.37140, 1.0060),
        (1.5, 2.11716, 1.1515),
        (1.8, 3.49071, 1.8528),
    ],
)
def test_geometric_family_calibration(p, main_sum, growth):
    rep = prop23_report(geometric_family(p), K_max=10**6)
    main = rep.context["main"]
    quad = rep.context["quadratic"]
    assert main["partial_sums"][-1] == pytest.approx(main_sum, rel=1e-4)
    assert main["verdict"] == "converges"
    # each extra decade of k contributes ~ 1/(k log^2 k) mass: ratio ~ 0.4
    ratio = main["increments"][-1] / main["increments"][1]
    assert ratio == pytest.approx(0.4001, abs=0.01)
    assert quad["growth_factor"] == pytest.approx(growth, rel=1e-3)
    assert quad["verdict"] == "inconclusive at this range"
    assert rep.context["tail_product"]["verdict"] == "tends to 0"


def test_tail_product_calibration_values():
    rep = prop23_report(geometric_family(1.5), K_max=10**6)
    vals = rep.context["tail_product"]["values"]
    cps = rep.context["tail_product"]["checkpoints"]
    assert cps == [1000, 10000, 100000, 1000000]
    assert vals[0] == pytest.approx(0.001756, rel=1e-2)
    assert vals[-1] / vals[0] == pytest.approx(0.0625, rel=1e-2)


def test_rho_partial_sum_is_half():
    rep = prop23_report(geometric_family(1.5), K_max=10**4)
    assert rep.context["rho_partial_sum"] == pytest.approx(0.5, abs=1e-3)


def _reference_increments(family, K_max):
    # the loop the checker's piecewise one replaced: whole 2^19-index chunks,
    # math.fsum over a list per (chunk, segment) group, then math.fsum per
    # segment; returns the main, quadratic and rho increments
    cps = [c for c in DEFAULT_CHECKPOINTS if c < K_max] + [K_max]
    p = family.p
    parts = [[[] for _ in cps] for _ in range(3)]
    for lo in range(family.k_start, K_max + 1, _CHUNK):
        ks = np.arange(lo, min(lo + _CHUNK, K_max + 1), dtype=np.float64)
        lt = family.log2_theta(ks)
        lc = family.log2_count(ks)
        lr = family.log2_rho(ks)
        terms = (np.exp2(p * lt + (p / 2.0) * lc + lr),
                 np.exp2(2.0 * lt + 0.5 * lc + lr),
                 np.exp2(lr))
        cuts = [0, *np.searchsorted(ks, cps, side="right").tolist()]
        for row, t in zip(parts, terms):
            for seg, a, b in zip(row, cuts, cuts[1:]):
                if a < b:
                    seg.append(math.fsum(t[a:b].tolist()))
    return [[math.fsum(seg) for seg in row] for row in parts]


def _numbers(report):
    return report.context, [(c.name, c.passed, c.margin, c.detail) for c in report.checks]


@pytest.mark.parametrize("K_max", [10**3, 2 + _CHUNK, 10**6],
                         ids=["1e3", "one-full-chunk", "1e6"])
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_sums_are_bit_identical_to_whole_chunk_lists(p, K_max):
    rep = prop23_report(geometric_family(p), K_max=K_max)
    inc_main, inc_quad, inc_rho = _reference_increments(geometric_family(p), K_max)
    main, quad = rep.context["main"], rep.context["quadratic"]
    assert main["increments"] == inc_main
    assert quad["increments"] == inc_quad
    assert main["partial_sums"] == list(np.cumsum(inc_main))
    assert quad["partial_sums"] == list(np.cumsum(inc_quad))
    assert rep.context["rho_partial_sum"] == np.cumsum(inc_rho)[-1]
    assert quad["growth_factor"] == quad["partial_sums"][-1] / quad["partial_sums"][0]


@pytest.mark.parametrize("piece", [1 << 10, (1 << 14) + 3, 1 << 19])
def test_report_does_not_depend_on_piece_size(monkeypatch, piece):
    # an odd piece size shifts every ufunc call off the default lengths and
    # alignments; the fsum groups, and so every number, must not move
    fam = geometric_family(1.5)
    expected = [_numbers(prop23_report(fam, K_max=k)) for k in (2 + _CHUNK, 10**6)]
    monkeypatch.setattr(series_checker, "_PIECE", piece)
    assert [_numbers(prop23_report(fam, K_max=k)) for k in (2 + _CHUNK, 10**6)] == expected


def test_report_holds_one_chunk_of_term_rows():
    # tracemalloc sees numpy's buffers: the three term rows of one chunk plus
    # piece-sized temporaries, where whole-chunk evaluation and list fsums
    # held about a dozen chunk-sized arrays and a 16 MiB list
    tracemalloc.start()
    try:
        prop23_report(geometric_family(1.5), K_max=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * _CHUNK * 8 + (2 << 20)


def test_checks_and_exit_semantics():
    rep = prop23_report(geometric_family(1.5), K_max=10**6)
    names = [c.name for c in rep.checks]
    assert names == [
        "main series partial-sum increments decay",
        "tail product decreases toward zero",
        "quadratic series shows unbounded growth trend",
    ]
    # the quadratic trend never reaches the 5x bar at this range
    assert not rep.checks[2].passed


def test_short_range_is_inconclusive():
    rep = prop23_report(geometric_family(1.5), K_max=2000)
    main = rep.context["main"]
    assert main["verdict"] == "inconclusive at this range"
    assert "fewer than two full decades" in main["rule"]


def test_parameter_guards():
    with pytest.raises(ValueError, match="K_max"):
        prop23_report(geometric_family(1.5), K_max=500)
    with pytest.raises(ValueError, match="dr_threshold"):
        prop23_report(geometric_family(1.5), K_max=10**4, dr_threshold=1.0)


# ---------------------------------------------------------------------------
# invariant validation on synthetic families
# ---------------------------------------------------------------------------

def flat_family(**overrides):
    base = dict(
        label="flat",
        p=1.5,
        log2_theta=lambda k: np.zeros_like(k),
        log2_count=lambda k: np.zeros_like(k),
        log2_rho=lambda k: -k,
        k_start=2,
        burn_in=2,
    )
    base.update(overrides)
    return SequenceFamily(**base)


def test_flat_family_is_valid():
    rep = prop23_report(flat_family(), K_max=10**4)
    # only one full decade past the opening segment: no trend call yet,
    # but the invariants all hold and the rho mass stays below 1
    assert rep.context["main"]["verdict"] == "inconclusive at this range"
    assert rep.context["rho_partial_sum"] < 1.0


def test_inverse_square_family_converges():
    # rho_k = 1/(4k^2) with flat theta and unit counts: every series is a
    # constant multiple of sum k^-2, whose decade increments decay ~10x
    fam = flat_family(
        label="inverse-square",
        log2_rho=lambda k: -2.0 * np.log2(k) - 2.0,
    )
    rep = prop23_report(fam, K_max=10**5)
    assert rep.context["main"]["verdict"] == "converges"
    assert rep.context["tail_product"]["verdict"] == "tends to 0"
    inc = rep.context["main"]["increments"]
    assert inc[-1] / inc[1] == pytest.approx(0.1, rel=0.05)


def test_increasing_rho_rejected():
    fam = flat_family(label="rho-up", log2_rho=lambda k: k * 0.0 - 60.0 + np.log2(k))
    with pytest.raises(ValueError, match="violates invariant"):
        prop23_report(fam, K_max=10**4)


def test_rho_mass_overflow_rejected():
    fam = flat_family(label="rho-heavy", log2_rho=lambda k: np.full_like(k, -3.0))
    with pytest.raises(ValueError, match="violates invariant"):
        prop23_report(fam, K_max=10**4)


def test_decreasing_theta_rejected():
    fam = flat_family(label="theta-down", log2_theta=lambda k: -k)
    with pytest.raises(ValueError, match="violates invariant"):
        prop23_report(fam, K_max=10**4)


def test_fractional_count_rejected():
    fam = flat_family(label="thin-count", log2_count=lambda k: np.full_like(k, -1.0))
    with pytest.raises(ValueError, match="violates invariant"):
        prop23_report(fam, K_max=10**4)


# k = 2 + _CHUNK opens the second chunk and k = 2 + _PIECE the second piece,
# so a drop there is only seen against the previous piece's last value
_B = 2 + _CHUNK
_P = 2 + _PIECE


@pytest.mark.parametrize("overrides,message", [
    (dict(log2_theta=lambda k: np.where(k >= _B, -1.0, 0.0)),
     f"theta_k non-decreasing fails at k={_B}"),
    (dict(log2_count=lambda k: np.where(k >= _B, 1.0, 2.0)),
     f"count_k non-decreasing fails at k={_B}"),
    (dict(log2_theta=lambda k: np.where(k >= _P, -1.0, 0.0)),
     f"theta_k non-decreasing fails at k={_P}"),
    (dict(log2_count=lambda k: np.where(k >= _P, 1.0, 2.0)),
     f"count_k non-decreasing fails at k={_P}"),
    (dict(log2_rho=lambda k: np.where(k >= _B + 7, -20.0, -40.0)),
     f"rho_k decreasing fails at k={_B + 7}"),
    (dict(log2_count=lambda k: np.where(k == 12345, np.inf, 0.0)),
     "log2 count is not finite at k=12345"),
    (dict(log2_count=lambda k: np.where(k >= 99, -1.0, 0.0)),
     "count_k must be a positive integer (>= 1) but log2 count < 0 at k=99"),
    (dict(log2_rho=lambda k: np.where(k == 3000, 0.0, -k)),
     "rho_k must lie in (0, 1) but rho >= 1 at k=3000"),
], ids=["theta-boundary", "count-boundary", "theta-piece-boundary",
        "count-piece-boundary", "rho-second-chunk", "count-inf",
        "count-negative", "rho-one"])
def test_invariant_violation_names_first_offending_k(overrides, message):
    fam = flat_family(label="bad", **overrides)
    with pytest.raises(ValueError) as info:
        prop23_report(fam, K_max=_B + 100)
    assert str(info.value) == f"family 'bad' violates invariant: {message}"


def test_family_constructor_guards():
    with pytest.raises(ValueError):
        flat_family(p=2.0)
    with pytest.raises(ValueError):
        flat_family(k_start=1)


# ---------------------------------------------------------------------------
# scale invariance of the trend verdicts
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=10)
@given(st.floats(min_value=-6.0, max_value=6.0))
def test_verdicts_invariant_under_theta_scaling(log2_c):
    base = geometric_family(1.5)
    scaled = SequenceFamily(
        label="scaled",
        p=base.p,
        log2_theta=lambda k: base.log2_theta(k) + log2_c,
        log2_count=base.log2_count,
        log2_rho=base.log2_rho,
        k_start=base.k_start,
        burn_in=base.burn_in,
        rho_tail_log2=base.rho_tail_log2,
    )
    a = prop23_report(base, K_max=10**4)
    b = prop23_report(scaled, K_max=10**4)
    for key in ("main", "quadratic"):
        assert a.context[key]["verdict"] == b.context[key]["verdict"]
    # partial sums scale by exactly c^p
    factor = 2.0 ** (log2_c * base.p)
    assert b.context["main"]["partial_sums"][-1] == pytest.approx(
        a.context["main"]["partial_sums"][-1] * factor, rel=1e-9
    )


def test_default_checkpoints_frozen():
    assert DEFAULT_CHECKPOINTS == (10**3, 10**4, 10**5)
