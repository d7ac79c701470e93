"""Tests for the exact maximal-function enumeration and its inequalities."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coblim.maximal as maximal
from coblim.cli import main
from coblim.dynamics import OdometerPoint
from coblim.maximal import (
    MAX_ENUMERATION_BITS,
    LevelFunction,
    ThresholdRow,
    default_threshold_grid,
    enumerate_mstar,
    maximal_inequality_report,
    random_level_function,
    truncated_mstar,
)
from coblim.reports import canonical_json
from coblim.weak_tails import SimpleFunctionRep, weak_norm


def tiny_function():
    return LevelFunction(i=3, numerators=(3, -1, 0, 2, -5, 0, 1, 4), scale_bits=2)


# ---------------------------------------------------------------------------
# level functions
# ---------------------------------------------------------------------------

def test_level_function_values_and_max():
    h = tiny_function()
    assert h.denominator == 4
    assert h.value_at_level(0) == 0.75
    assert h.value_at_level(4) == -1.25
    assert h.max_abs() == Fraction(5, 4)
    pt = OdometerPoint(12, 6)  # level = 12 mod 8 = 4
    assert h(pt) == -1.25


def test_random_level_function_is_seeded():
    a = random_level_function(77, 0, i=6)
    b = random_level_function(77, 0, i=6)
    c = random_level_function(77, 1, i=6)
    assert a.numerators == b.numerators
    assert a.numerators != c.numerators


def test_random_level_function_refuses_level_before_drawing(monkeypatch):
    # i = 20 passes the guard (the stub shows the draw starts), 0, -1 and 21
    # are refused before any stream exists, so nothing is allocated at 2^21
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(maximal, "stream_generator", drawn)
    with pytest.raises(Drawn):
        random_level_function(1, 0, i=MAX_ENUMERATION_BITS)
    for i in (0, -1, MAX_ENUMERATION_BITS + 1):
        with pytest.raises(ValueError, match=rf"level i = {i} invalid: need 1 <= i <= 20"):
            random_level_function(1, 0, i=i)
    monkeypatch.undo()
    assert len(random_level_function(1, 0, i=1).numerators) == 2


def test_level_function_abs_rep_mass():
    h = tiny_function()
    rep = h.abs_rep()
    nonzero = sum(1 for v in h.numerators if v != 0)
    assert rep.n == 8
    assert sum(c for _, c in rep.pairs) == nonzero


# ---------------------------------------------------------------------------
# exact enumeration vs the float scan
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=40))
def test_enumerate_matches_truncated_scan(seed, n_max):
    h = replace(random_level_function(seed, 0, i=4), scale_bits=4)
    best_num, best_den = enumerate_mstar(h, n_max)
    for residue in range(1 << h.i):
        pt = OdometerPoint(residue, h.i)
        exact = best_num[residue] / (best_den[residue] * h.denominator)
        scan = truncated_mstar(h, pt, n_max)
        assert scan == pytest.approx(exact, abs=1e-12)


def test_mstar_monotone_in_horizon():
    h = random_level_function(5, 2, i=5)
    prev = np.zeros(1 << h.i)
    for n_max in (1, 2, 4, 8, 16, 32):
        num, den = enumerate_mstar(h, n_max)
        cur = num / (den * h.denominator)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_mstar_wraps_the_cyclic_orbit():
    # after n = 2^i steps every partial sum advances by the (zero) total,
    # so M* over one full cycle already attains the supremum for mean-zero h
    nums = (1, -1, 2, -2, 3, -3, 0, 0)
    h = LevelFunction(i=3, numerators=nums, scale_bits=0)
    num8, den8 = enumerate_mstar(h, 8)
    num64, den64 = enumerate_mstar(h, 64)
    assert np.array_equal(num8 * den64, num64 * den8)  # equal as fractions


# ---------------------------------------------------------------------------
# the two inequalities
# ---------------------------------------------------------------------------

def test_report_has_no_violations_across_seeds():
    for seed in (0, 1, 2, 3):
        h = random_level_function(seed, 0, i=6)
        rep = maximal_inequality_report(h, bits=10, n_max=128)
        assert rep.level_bound_violations == 0
        assert rep.weak_bound_violations == 0
        assert rep.min_slack_weak >= 0.0


def _rows_by_full_scan(h, n_max, q):
    # one pass over all residues per threshold, as the report once did
    best_num, best_den = enumerate_mstar(h, n_max)
    m, scale = 1 << h.i, h.denominator
    rows = []
    for t in default_threshold_grid(h):
        hit = [r for r in range(m)
               if int(best_num[r]) * t.denominator >= t.numerator * int(best_den[r]) * scale]
        mu = Fraction(len(hit), m)
        expectation = Fraction(sum(abs(h.numerators[r]) for r in hit), m * scale)
        restricted = SimpleFunctionRep.from_uniform([abs(h.numerators[r]) / scale for r in hit], m)
        lhs = float(t) * float(mu) ** (1.0 / q)
        rhs = q / (q - 1.0) * weak_norm(restricted, q)
        rows.append(ThresholdRow(t=t, mu=mu, expectation=expectation,
                                 slack_level_bound=expectation - t * mu,
                                 lhs_weak=lhs, rhs_weak=rhs, slack_weak=rhs - lhs))
    return rows


@pytest.mark.parametrize("h", [
    tiny_function(),
    LevelFunction(i=2, numerators=(0, 0, 0, 0), scale_bits=1),
    LevelFunction(i=3, numerators=(1, -1, 1, -1, 1, -1, 1, -1), scale_bits=0),
    random_level_function(0, 0, i=6),
    random_level_function(5, 2, i=8),
])
def test_threshold_suffix_scan_matches_full_scan(h):
    for q in (1.5, 2.0):
        rep = maximal_inequality_report(h, bits=max(h.i, 8), n_max=96, q=q)
        assert rep.rows == _rows_by_full_scan(h, 96, q)


def test_report_rows_carry_exact_measures():
    h = random_level_function(9, 1, i=5)
    rep = maximal_inequality_report(h, bits=8, n_max=64, q=2.0)
    assert len(rep.rows) == 64  # default grid size
    for row in rep.rows:
        assert isinstance(row.mu, Fraction)
        assert 0 <= row.mu <= 1
        assert isinstance(row.t, Fraction)
        assert row.slack_level_bound >= 0


def test_grid_includes_the_maximum_threshold():
    h = tiny_function()
    grid = default_threshold_grid(h, points=16)
    assert grid[-1] == h.max_abs()
    assert len(grid) == 16
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_zero_function_gets_fallback_grid():
    h = LevelFunction(i=2, numerators=(0, 0, 0, 0), scale_bits=1)
    grid = default_threshold_grid(h, points=4)
    assert grid[-1] == Fraction(1)


def test_report_resource_guard_message():
    h = random_level_function(1, 0, i=8)
    with pytest.raises(ValueError, match="resource guard: B=21 exceeds 20"):
        maximal_inequality_report(h, bits=21, n_max=16)
    assert MAX_ENUMERATION_BITS == 20


def test_report_rejects_mismatched_resolution():
    h = random_level_function(1, 0, i=12)
    with pytest.raises(ValueError, match="exceeds precision"):
        maximal_inequality_report(h, bits=10, n_max=16)


def test_report_serialization_roundtrip(tmp_path):
    h = random_level_function(4, 4, i=5)
    rep = maximal_inequality_report(h, bits=8, n_max=32)
    assert rep.level_bound_violations == 0
    assert json.loads(canonical_json(rep))["rows"]
    # the CLI writes the threshold table of stream 0 from the same rows
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"preset": "maximal-smoke", "seed": 4,
                                  "system": {"bits": 8, "level": 5},
                                  "horizons": {"n_max": 32}, "paths": {"count": 1}}))
    out = tmp_path / "run"
    assert main(["maximal", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "report.json").stat().st_size > 0
    header = (out / "thresholds_stream0.csv").read_text().splitlines()[0]
    assert header.startswith("t,mu,expectation")


# ---------------------------------------------------------------------------
# sharpness: the level bound is attained
# ---------------------------------------------------------------------------

def test_level_bound_tight_for_an_indicator():
    # h = height-1 indicator of a single level: M* >= t exactly on the
    # residues whose orbit average reaches t, giving equality at t = 1/n
    h = LevelFunction(i=3, numerators=(8, 0, 0, 0, 0, 0, 0, 0), scale_bits=3)
    rep = maximal_inequality_report(
        h, bits=6, n_max=32, t_grid=[Fraction(1, 8), Fraction(1, 2), Fraction(1)]
    )
    by_threshold = {row.t: row for row in rep.rows}
    assert by_threshold[Fraction(1)].mu == Fraction(1, 8)
    # every point reaches average 1/8 within 8 steps (one visit per cycle)
    assert by_threshold[Fraction(1, 8)].mu == Fraction(1)
