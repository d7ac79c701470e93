"""Tests for exponent-window validation and the Monte Carlo reports."""

import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import coblim.dynamics as dynamics
import coblim.mc_harness as mc_harness
from coblim.counterexamples import build_tower_counterexample, eval_g
from coblim.dynamics import OdometerPoint, ShiftTrajectory, odometer_advance, stream_generator
from coblim.mc_harness import (
    SHIFT_FUNCTIONS,
    THEOREM_IDS,
    _MAXLOG,
    OdometerConfig,
    ShiftConfig,
    _horizon_accumulate,
    _normal_cdf,
    _window_hit_count,
    clt_lil_report,
    condition16_report,
    condition17_report,
    ks_statistic,
    slln_report,
    validate_hypotheses,
)
from coblim.reports import canonical_json


# ---------------------------------------------------------------------------
# exponent windows (exact rational arithmetic)
# ---------------------------------------------------------------------------

def test_theorem_ids_frozen():
    assert THEOREM_IDS == ("2.1", "2.4i", "2.4ii", "2.7", "2.10", "2.11")


def test_window_210_at_reference_exponents():
    rep = validate_hypotheses({"p": 1.2, "r": 4}, "2.10")
    assert rep.all_passed
    lo, hi = rep.context["window"]
    assert float(lo) == pytest.approx(1.0 / 3.0)
    assert float(hi) == pytest.approx(0.4)
    # margins are exact: feasibility gap = (r/(r-1) - p)/2
    assert rep.context["feasibility_gap"] == Fraction(1, 15)


def test_window_211_at_reference_exponents():
    rep = validate_hypotheses({"q": 1.1, "p": 1.8, "r": 3}, "2.11")
    assert rep.all_passed
    lo, hi = rep.context["window"]
    assert float(lo) == pytest.approx(1.0 / 3.0)
    assert float(hi) == pytest.approx(0.38888888888888888)


def test_window_210_infeasible_exponents():
    rep = validate_hypotheses({"p": 1.5, "r": 4}, "2.10")
    assert not rep.all_passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert "p < r/(r-1)" in failed
    assert "window nonempty" in failed


def test_window_24i_open_iff_p_large():
    # p > r/(r-1) makes (2/p - 1, 1 - 2/r) nonempty; below it, empty
    good = validate_hypotheses({"p": 1.5, "r": 4}, "2.4i")
    assert good.all_passed
    bad = validate_hypotheses({"p": 1.2, "r": 4}, "2.4i")
    assert not bad.all_passed


def test_window_24ii_boundary_case():
    rep = validate_hypotheses({"p": Fraction(4, 3), "r": 4}, "2.4ii")
    assert rep.all_passed  # 4/3 = r/(r-1) exactly, caught in rationals
    off = validate_hypotheses({"p": 1.34, "r": 4}, "2.4ii")
    assert not off.all_passed


def test_window_27_needs_q_at_least_bound():
    ok = validate_hypotheses({"q": 1.5, "p": 1.8, "r": 1.9}, "2.7")
    bound = (Fraction(18, 10) - 1) * Fraction(19, 10) / (Fraction(19, 10) - 1)
    assert ok.context["(p-1)r/(r-1)"] == pytest.approx(float(bound))
    low_q = validate_hypotheses({"q": 1.0, "p": 1.8, "r": 1.9}, "2.7")
    failed = {c.name for c in low_q.checks if not c.passed}
    assert "q >= (p-1)r/(r-1)" in failed


def test_window_21_alpha_interval():
    rep = validate_hypotheses({"p": 1.5}, "2.1")
    lo, hi = rep.context["alpha_window"]
    assert float(lo) == pytest.approx(0.25)  # 1 - p/2
    # default r = p/(p-1) = 3 makes the window degenerate: hi = lo
    assert float(hi) == pytest.approx(0.25)
    assert rep.all_passed


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="unknown theorem id"):
        validate_hypotheses({"p": 1.5}, "9.9")


def test_missing_exponent_message():
    with pytest.raises(ValueError, match="r"):
        validate_hypotheses({"p": 1.2}, "2.10")


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def odometer_config(**kw):
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=12, bits=14)
    base = dict(cex=cex, horizons=(64, 256), paths=600, seed=3, epsilons=(0.5, 2.0))
    base.update(kw)
    return OdometerConfig(**base)


def cex_with_bits(bits):
    """A tower counterexample whose precision is set to any B, even one the
    builder refuses: enough for configs whose g_table is never built."""
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=8, bits=12)
    return dataclasses.replace(cex, bits=bits)


def test_config_rejects_unsorted_horizons():
    for make in (odometer_config, ShiftConfig):
        with pytest.raises(ValueError, match="strictly increasing"):
            make(horizons=(64, 64), paths=200, seed=1)


def test_config_rejects_thin_sampling():
    for make in (odometer_config, ShiftConfig):
        with pytest.raises(ValueError, match="at least 100 paths"):
            make(horizons=(64,), paths=50, seed=1)


def test_config_odometer_horizon_guard():
    with pytest.raises(ValueError, match="too long"):
        odometer_config(cex=cex_with_bits(12), horizons=(4096,), paths=200)
    assert odometer_config(cex=cex_with_bits(12), horizons=(2048,)).horizons == (2048,)


def test_config_window_edges():
    for window in (1, 53):
        assert ShiftConfig(horizons=(64,), paths=200, seed=1, window=window).window == window
    for window in (0, 54):
        with pytest.raises(ValueError, match=r"coordinate window in \[1, 53\]"):
            ShiftConfig(horizons=(64,), paths=200, seed=1, window=window)


def test_config_resolves_named_shift_functions():
    assert ShiftConfig(horizons=(64,), paths=200, seed=1).function is SHIFT_FUNCTIONS["zero"]
    cfg = ShiftConfig(horizons=(64,), paths=200, seed=1, function="cosine")
    assert cfg.function is SHIFT_FUNCTIONS["cosine"]
    with pytest.raises(ValueError, match="unknown shift function"):
        ShiftConfig(horizons=(64,), paths=200, seed=1, function="sine")


def test_config_alpha_defaults_to_reciprocal_p():
    # p comes from the counterexample: 1.2 here
    assert odometer_config().resolved_alpha() == pytest.approx(1 / 1.2)
    with pytest.raises(ValueError, match="outside"):
        odometer_config(alpha=0.5).resolved_alpha()


def test_each_system_echoes_its_fields_and_the_pinned_constants():
    # the recorded artifact digests pin the keys of the other system as
    # constants: martingale and window on the odometer; bits, block_exp,
    # epsilons and all-null exponents on the shift
    odo = odometer_config(alpha=0.9).echo()
    assert odo == {
        "system": "odometer", "horizons": [64, 256], "paths": 600, "seed": 3,
        "epsilons": [0.5, 2.0], "exponents": {"p": 1.2, "q": None, "r": 4.0, "alpha": 0.9},
        "block_exp": 0.5, "transfer": odometer_config().cex.describe(), "bits": 14,
        "martingale": "rademacher", "window": 53,
    }
    shift = ShiftConfig(horizons=(64,), paths=200, seed=1, function="cosine",
                        martingale="zero", window=20).echo()
    assert shift == {
        "system": "shift", "horizons": [64], "paths": 200, "seed": 1,
        "martingale": "zero", "transfer": {"shift_function": "cosine"}, "window": 20,
        "bits": 24, "block_exp": 0.5, "epsilons": [0.1, 0.5, 1.0],
        "exponents": {"p": None, "q": None, "r": None, "alpha": None},
    }
    assert OdometerConfig.system == "odometer" and ShiftConfig.system == "shift"


# ---------------------------------------------------------------------------
# condition16: Monte Carlo against the exact residue count
# ---------------------------------------------------------------------------


def test_condition16_estimates_within_three_sigma_of_exact():
    report = condition16_report(odometer_config())
    assert len(report.rows) == len(report.exact_rows) == 4
    for row, ex in zip(report.rows, report.exact_rows):
        exact = float(ex["exact_prob"])
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / row["paths"])
        assert abs(row["estimate"] - exact) <= 3 * se + 1e-12
        assert isinstance(ex["exact_prob"], Fraction)


def test_window_hit_count_matches_brute_force():
    # the count of residues whose window res+1..res+n (mod M) meets a value
    # >= thr; n >= M covers the whole table
    rng = np.random.default_rng(7)
    for m in range(1, 65):
        tables = [rng.standard_normal(m), rng.integers(0, 3, m).astype(np.float64),
                  np.zeros(m)]
        for table in tables:
            vals = np.unique(table)
            mids = (vals[:-1] + vals[1:]) / 2.0
            thresholds = [vals[0] - 1.0, vals[-1] + 1.0, vals[0], vals[-1],
                          *vals[::5], *mids[::5]]
            for n in range(1, m + 3 + 1):
                idx = (np.arange(m)[:, None] + np.arange(1, n + 1)[None, :]) % m
                wmax = table[idx].max(axis=1)
                for thr in thresholds:
                    expected = int(np.count_nonzero(wmax >= thr))
                    assert _window_hit_count(table, thr, n) == expected, (m, n, thr, table)


@pytest.mark.parametrize("piece", [3, 4, 5])
def test_window_hit_count_carries_across_pieces(monkeypatch, piece):
    # the table is scanned in pieces: a hit's gap reaches back into earlier
    # pieces and the cyclic gap closes at the end, so pieces of 3-5 entries
    # over tables of several pieces must give the brute-force count
    monkeypatch.setattr(mc_harness, "_HIT_PIECE", piece)
    m = 23
    cases = [[], [0, 2], [21, 22], [11], [piece - 1, piece],
             [piece - 1, piece, 2 * piece - 1, 2 * piece], list(range(m))]
    rng = np.random.default_rng(3)
    cases += [np.flatnonzero(rng.random(m) < 0.2).tolist() for _ in range(5)]
    for hits in cases:
        table = np.zeros(m)
        table[hits] = 1.0
        for n in (1, 2, piece, 7, m - 1, m, m + 4):
            idx = (np.arange(m)[:, None] + np.arange(1, n + 1)[None, :]) % m
            expected = int(np.count_nonzero(table[idx].max(axis=1) >= 0.5))
            assert _window_hit_count(table, 0.5, n) == expected, (hits, n)


def test_odometer_pass_holds_one_table_and_chunk_sized_temporaries():
    # tracemalloc sees numpy's buffers.  Building g_table and the orbit view
    # holds the one buffer of M + n_top entries plus numpy's fixed-size ufunc
    # iteration buffers (about 192 KiB), where a wrapped copy of the table
    # would hold two or three tables; the pass and condition16 add
    # temporaries of a few 2 MiB chunks of orbit rows and pieces of the table
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=16, bits=18)
    cfg = odometer_config(cex=cex, horizons=(256, 1024, 4096), paths=1000)
    buffer_bytes = ((1 << 16) + 4096) * 8
    chunk_bytes = (1 << 18) * 8
    tracemalloc.start()
    try:
        assert np.shares_memory(cfg.g_table, cfg.orbits)
        _, peak_tables = tracemalloc.get_traced_memory()
        cfg.orbit_pass
        condition16_report(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_tables < buffer_bytes + (1 << 18)
    assert peak < buffer_bytes + 3 * chunk_bytes


@pytest.mark.parametrize("i_max, horizons", [(12, (64, 256)), (4, (4, 16, 40))],
                         ids=["M-above-top-horizon", "top-horizon-above-M"])
def test_orbits_and_window_extrema_match_modular_gather(i_max, horizons):
    # a random table without zeros, written into the config's one buffer of g
    # before the orbit view exists, makes both window ends matter; i_max = 4
    # (M = 16) wraps the orbit rows around the table more than once
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=i_max, bits=14)
    n_top, m = horizons[-1], 1 << i_max
    extrema = []
    for workers in (1, 3):
        cfg = odometer_config(cex=cex, horizons=horizons, workers=workers)
        assert len(cfg.g_table) == m
        table = np.random.default_rng(5).standard_normal(m)
        cfg.g_table[:] = table
        full = table[(np.arange(m)[:, None] + np.arange(n_top + 1)[None, :]) % m]
        assert np.shares_memory(cfg.g_table, cfg.orbits)
        assert not cfg.orbits.flags.writeable
        assert np.array_equal(cfg.orbits, full)
        res = cfg.start_residues
        assert np.array_equal(cfg.orbits[res], full[res])
        wmax, wmin = cfg.orbit_pass.wmax, cfg.orbit_pass.wmin
        assert wmax.shape == wmin.shape == (cfg.paths, len(horizons))
        for gi, n in enumerate(horizons):
            assert np.array_equal(wmax[:, gi], full[res, 1: n + 1].max(axis=1))
            assert np.array_equal(wmin[:, gi], full[res, 1: n + 1].min(axis=1))
        extrema.append((wmax, wmin))
    assert all(np.array_equal(a, b) for a, b in zip(*extrema))


def test_odometer_state_derived_once_per_config(monkeypatch):
    # the residue table of g, the per-path start residues, the orbit view and
    # the one pass over the orbit rows are shared by the three odometer
    # reports of one config; the start residues build no Generator
    calls = {"g_residue_table": 0, "first_draws": 0, "sliding_window_view": 0,
             "OrbitPass": 0, "stream_generator": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("g_residue_table", "first_draws", "sliding_window_view", "OrbitPass"):
        counted(mc_harness, name)
    counted(dynamics, "stream_generator")
    cfg = odometer_config()
    condition16_report(cfg)
    condition17_report(cfg)
    slln_report(cfg)
    assert calls == {"g_residue_table": 1, "first_draws": 1, "sliding_window_view": 1,
                     "OrbitPass": 1, "stream_generator": 0}


@pytest.mark.parametrize("seed", [0, 20260814, (1 << 64) - 1])
@pytest.mark.parametrize("bits", [2, 22, 24, 32, 33, 40])
def test_start_residues_equal_generator_draws(seed, bits):
    # 32/33 straddle the switch from the 32-bit to the 64-bit Lemire draw
    cfg = OdometerConfig(cex=cex_with_bits(bits), horizons=(1,), paths=100, seed=seed)
    m = 1 << min(bits, 12)
    cfg.__dict__["g_table"] = np.zeros(m)
    expected = [int(stream_generator(seed, j).integers(0, 1 << bits, dtype=np.uint64)) % m
                for j in range(cfg.paths)]
    assert cfg.start_residues.dtype == np.int64
    assert cfg.start_residues.tolist() == expected


def test_config_odometer_bits_edges():
    # building a config derives nothing: tables and draws come on first use
    for bits in (1, 64):
        cfg = OdometerConfig(cex=cex_with_bits(bits), horizons=(1,), paths=100, seed=1)
        assert cfg.cex.bits == bits
        assert not {"g_table", "start_residues", "orbits", "orbit_pass"} & set(cfg.__dict__)
    for bits in (0, 65):
        with pytest.raises(ValueError, match=rf"bits = {bits} invalid: odometer precision "
                                             r"in \[1, 64\]"):
            OdometerConfig(cex=cex_with_bits(bits), horizons=(1,), paths=100, seed=1)


def test_reports_do_not_depend_on_chunking(monkeypatch):
    # every per-path result is assembled in path order, so the chunk size
    # (1 path, 7 paths, the default) changes no byte of any report
    default = mc_harness._paths_per_chunk
    texts = []
    for per_chunk in (lambda n: 1, lambda n: 7, default):
        monkeypatch.setattr(mc_harness, "_paths_per_chunk", per_chunk)
        cfg = odometer_config(paths=300)
        shift = ShiftConfig(horizons=(16, 64, 256), paths=150, seed=12, function="cosine")
        texts.append([canonical_json(r) for r in (
            condition16_report(cfg), condition17_report(cfg), slln_report(cfg),
            clt_lil_report(shift))])
    assert texts[0] == texts[1] == texts[2]


def test_condition16_and_slln_run_where_condition17_has_no_blocks():
    # a first horizon below 16 has no condition17 probe; the shared pass
    # still serves the other two reports
    cfg = odometer_config(horizons=(8, 64))
    with pytest.raises(ValueError, match="first horizon must be >= 16"):
        condition17_report(cfg)
    assert cfg.orbit_pass.probe is None
    assert len(condition16_report(cfg).rows) == len(slln_report(cfg).rows) == 4


def test_condition16_tower_bound_is_a_lower_bound():
    # g >= g_i >= 0 pointwise, so the single-tower probability cannot exceed
    # the full-g probability
    report = condition16_report(odometer_config())
    for ex in report.exact_rows:
        assert ex["tower_bound"] <= ex["exact_prob"]


def test_condition16_deterministic_across_workers():
    a = canonical_json(condition16_report(odometer_config(workers=1)))
    b = canonical_json(condition16_report(odometer_config(workers=3)))
    assert a == b  # the config echo never includes the worker count


@pytest.mark.parametrize("report_fn", [condition16_report, condition17_report, slln_report],
                         ids=["condition16", "condition17", "slln"])
def test_condition_reports_refuse_shift_config(report_fn):
    # the condition reports run on the odometer only, whatever the shift
    # config holds; the refusal is a ValueError naming the system, raised
    # before a field the shift lacks (cex, g_table) is read.  A first horizon
    # below 16 would otherwise be condition17's first complaint.
    for function, horizons in (("cosine", (64, 256)), ("zero", (8, 64))):
        cfg = ShiftConfig(horizons=horizons, paths=200, seed=1, function=function)
        with pytest.raises(ValueError, match="runs on the odometer system and needs "
                                             "OdometerConfig, not ShiftConfig"):
            report_fn(cfg)


# On the odometer, condition17 gathers g.T^k from the residue table of g, and
# condition16 and slln read window extrema of that table at the start
# residues; the reference walks each path point by point with odometer_advance
# and eval_g.

def odometer_reference(cfg):
    """Per path j: g(T^k w_j) for k = 0..n at n = top horizon."""
    cex, bits, n = cfg.cex, cfg.cex.bits, cfg.horizons[-1]
    g = functools.lru_cache(maxsize=None)(lambda v: eval_g(cex, OdometerPoint(v, bits)))
    for j in range(cfg.paths):
        start = int(stream_generator(cfg.seed, j).integers(0, 1 << bits, dtype=np.uint64))
        w = OdometerPoint(start, bits)
        yield np.array([g(odometer_advance(w, k).value) for k in range(n + 1)])


def test_condition17_odometer_matches_per_path_reference():
    cfg = odometer_config(workers=3)
    report = condition17_report(cfg)
    gs = list(odometer_reference(cfg))
    for row in report.rows:
        mj, end = row["m_j"], row["m_j"] + row["block_len"]
        hits = sum(g[mj: end + 1].max() > row["threshold"] for g in gs)
        assert row["estimate"] == hits / cfg.paths
    assert any(0 < row["estimate"] < 1 for row in report.rows)
    for ex in report.exact_rows:
        lo, hi = ex["window"]
        hits = sum(g[lo: hi + 1].max() >= ex["threshold"] for g in gs)
        assert ex["estimate"] == hits / cfg.paths
    assert any(0 < ex["estimate"] < 1 for ex in report.exact_rows)


def test_condition17_and_slln_reports_run():
    cfg = odometer_config(horizons=(64, 256), alpha=1.0)
    r17 = condition17_report(cfg)
    assert r17.rows and r17.verdicts
    cex = build_tower_counterexample("slln", p=1.8, r=3.0, q=1.1, i_max=12, bits=14)
    cfg_s = OdometerConfig(cex=cex, horizons=(64, 256), paths=300, seed=4, workers=3,
                           epsilons=(1.0, 2.0))
    rs = slln_report(cfg_s)
    assert rs.rows and rs.verdicts
    alpha = cfg_s.resolved_alpha()
    sup_abs = []
    for g in odometer_reference(cfg_s):
        s = g[0] - g
        sup_abs.append({n: np.max(np.abs(s[1: n + 1])) for n in cfg_s.horizons})
    for row in rs.rows:
        hits = sum(sup[row["n"]] >= row["epsilon"] * row["n"] ** alpha for sup in sup_abs)
        assert row["estimate"] == hits / cfg_s.paths
    assert any(0 < row["estimate"] < 1 for row in rs.rows)


def test_slln_window_extrema_match_brute_force_on_table_without_zeros():
    # On the tower tables g vanishes on most residues, so most window minima
    # are 0 and a window that misses one end goes unseen.  A random table
    # without zeros and short horizons make both window ends matter.
    cfg = odometer_config(horizons=(4, 16), epsilons=(0.25, 0.4))
    m = 1 << cfg.cex.i_max
    assert len(cfg.g_table) == m
    table = np.random.default_rng(11).standard_normal(m)
    assert np.all(table != 0.0)
    cfg.g_table[:] = table
    assert np.shares_memory(cfg.g_table, cfg.orbits)
    res = cfg.start_residues
    alpha = cfg.resolved_alpha()
    report = slln_report(cfg)
    assert len(report.rows) == 4
    for row in report.rows:
        n = row["n"]
        window = table[(res[:, None] + np.arange(1, n + 1)) % m]
        sup = np.max(np.abs(table[res][:, None] - window), axis=1)
        expected = float(np.mean(sup >= row["epsilon"] * n ** alpha))
        assert 0.0 < expected < 1.0
        assert row["estimate"] == expected


def test_unknown_martingale_rejected():
    with pytest.raises(ValueError, match="unknown martingale part 'gaussian'"):
        ShiftConfig(horizons=(64,), paths=200, seed=1, martingale="gaussian",
                    function="identity")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance and the CLT/LIL diagnostics
# ---------------------------------------------------------------------------

def _ndtr_test_points():
    edges = []
    # branch edges of the port: |x| = sqrt(1/2), 1 and 8 with x = a/sqrt(2),
    # and the underflow edge x^2 = MAXLOG (|a| about 37.68)
    for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG), 37.7):
        for a in (edge, -edge):
            edges += [np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)]
    edges += [0.0, -0.0, np.inf, -np.inf]
    return np.concatenate([
        4.0 * np.random.default_rng(2024).standard_normal(1_000_000),
        np.linspace(-40.0, 40.0, 800_001),
        np.array(edges),
    ])


def test_normal_cdf_is_bit_identical_to_scipy_ndtr():
    # scipy.special stays installed as the oracle; the package never imports it
    from scipy.special import ndtr

    a = _ndtr_test_points()
    got, want = _normal_cdf(a), ndtr(a)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
        f"{np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))} points differ")
    assert _normal_cdf(np.array([-0.0, np.inf, -np.inf])).tolist() == [0.5, 1.0, 0.0]
    assert np.isnan(_normal_cdf(np.array([np.nan]))[0])


def test_ks_statistic_single_point():
    # one sample at 0: empirical CDF jumps 0 -> 1 there, Phi(0) = 1/2
    assert ks_statistic(np.array([0.0])) == pytest.approx(0.5)


def test_ks_statistic_large_normal_sample_small():
    z = np.random.default_rng(0).standard_normal(20000)
    assert ks_statistic(z) < 0.02


def test_ks_statistic_detects_wrong_scale():
    z = 3.0 * np.random.default_rng(1).standard_normal(5000)
    assert ks_statistic(z) > 0.2


def test_clt_report_pure_martingale():
    cfg = ShiftConfig(horizons=(128, 512), paths=400, seed=9)
    report = clt_lil_report(cfg)
    assert report.sigma == 1.0
    assert [row["n"] for row in report.rows] == [128, 512]
    for row in report.rows:
        assert 0 <= row["ks_distance"] <= 1
        assert row["sup_q50"] <= row["sup_q90"] <= row["sup_q99"]
    assert report.limsup["tail_window"][1] == 512


def test_clt_report_zero_martingale_estimates_sigma():
    cfg = ShiftConfig(horizons=(256,), paths=300, seed=2, martingale="zero",
                      function="identity")
    report = clt_lil_report(cfg)
    assert report.sigma > 0


def test_clt_report_degenerate_f_raises():
    cfg = ShiftConfig(horizons=(128,), paths=200, seed=2, martingale="zero", function="zero")
    with pytest.raises(ValueError, match="degenerate"):
        clt_lil_report(cfg)


def test_clt_bounded_transfer_moves_sums_at_most_two_sup():
    # f = m + g - g.T changes S_n by g(w) - g(T^n w): bounded by 2 sup|g|
    base = ShiftConfig(horizons=(256,), paths=300, seed=14)
    with_g = ShiftConfig(horizons=(256,), paths=300, seed=14, function="cosine")
    r0 = clt_lil_report(base)
    r1 = clt_lil_report(with_g)
    sup_g = SHIFT_FUNCTIONS["cosine"].sup_bound
    n = 256
    # same seed, same martingale bits: scaled means differ by <= 2 sup|g|/sqrt(n)
    assert abs(r1.rows[0]["mean"] - r0.rows[0]["mean"]) <= 2 * sup_g / math.sqrt(n)


# With g the identity, S_k(f) is exact dyadic arithmetic, so the chunked
# shift sums must equal a per-path reference built from the scalar coordinate
# recurrence of ShiftTrajectory.

def shift_reference(cfg):
    """Per path j: (x_0..x_n, Rademacher partial sums S_0..S_n(m)) at n = top horizon."""
    n = cfg.horizons[-1]
    for j in range(cfg.paths):
        traj = ShiftTrajectory.generate(cfg.seed, j, n, cfg.window)
        steps = 2 * traj.eps[cfg.window: cfg.window + n].astype(np.int64) - 1
        yield traj.coordinates(), np.concatenate([[0], np.cumsum(steps)])


@pytest.mark.parametrize("martingale", ["rademacher", "zero"])
def test_clt_matches_per_path_reference(martingale):
    cfg = ShiftConfig(horizons=(16, 64, 256), paths=150, seed=12, martingale=martingale,
                      function="identity", workers=3)
    report = clt_lil_report(cfg)
    sums = [(x[0] - x) + (sm if martingale == "rademacher" else 0)
            for x, sm in shift_reference(cfg)]
    n_top = cfg.horizons[-1]
    finals = np.asarray([[s[n] for n in cfg.horizons] for s in sums])
    sups = np.asarray([[np.max(np.abs(s[1: n + 1])) for n in cfg.horizons] for s in sums])
    sigma = 1.0 if martingale == "rademacher" else float(np.std(finals[:, -1]) / math.sqrt(n_top))
    assert report.sigma == sigma
    qs = (0.5, 0.9, 0.99)
    for gi, (row, n) in enumerate(zip(report.rows, cfg.horizons)):
        z = finals[:, gi] / (sigma * math.sqrt(n))
        sup_scaled = sups[:, gi] / (sigma * math.sqrt(n))
        assert row == {
            "n": n, "ks_distance": ks_statistic(z), "mean": float(np.mean(z)),
            "sup_mean": float(np.mean(sup_scaled)),
            **{f"sup_q{int(q * 100)}": float(np.quantile(sup_scaled, q)) for q in qs},
        }
    k0 = max(16, n_top // 8)
    ks = np.arange(k0, n_top + 1, dtype=np.float64)
    lil_norm = np.sqrt(2.0 * ks * np.log(np.log(ks)))
    ratio = np.asarray([np.max(np.abs(s[k0:]) / lil_norm) for s in sums]) / sigma
    assert report.limsup == {
        "tail_window": [k0, n_top],
        "normalization": "sqrt(2 sigma^2 k loglog k)",
        "mean": float(np.mean(ratio)),
        "quantiles": {str(q): float(np.quantile(ratio, q)) for q in qs},
    }


@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum])
@pytest.mark.parametrize("horizons", [(1,), (7, 9), (17, 40, 41)])
def test_horizon_accumulate_equals_full_accumulate(ufunc, horizons):
    x = np.random.default_rng(len(horizons)).standard_normal((5, horizons[-1] + 1))
    h_idx = np.asarray(horizons, dtype=np.int64)
    expected = ufunc.accumulate(x[:, 1:], axis=1)[:, h_idx - 1]
    assert np.array_equal(_horizon_accumulate(ufunc, x, h_idx), expected)


@pytest.mark.parametrize("horizons", [(8,), (4, 12)])
def test_clt_rejects_short_top_horizon_before_drawing(monkeypatch, horizons):
    def no_draws(*args):
        raise AssertionError("bits drawn before the horizon check")

    monkeypatch.setattr(mc_harness, "fair_bits", no_draws)
    cfg = ShiftConfig(horizons=horizons, paths=100, seed=1)
    with pytest.raises(ValueError, match=r"top horizon must be >= 16"):
        clt_lil_report(cfg)


def test_clt_accepts_top_horizon_16():
    report = clt_lil_report(ShiftConfig(horizons=(16,), paths=100, seed=1))
    assert report.limsup["tail_window"] == [16, 16]


def test_clt_requires_shift_system(monkeypatch):
    # refused before a field the odometer lacks (window, function) is read,
    # and before any bit is drawn, even where the top horizon is below 16
    def no_draws(*args):
        raise AssertionError("bits drawn before the system check")

    monkeypatch.setattr(mc_harness, "fair_bits", no_draws)
    for horizons in ((64,), (8,)):
        cfg = odometer_config(horizons=horizons, paths=200)
        with pytest.raises(ValueError, match="runs on the shift system and needs "
                                             "ShiftConfig, not OdometerConfig"):
            clt_lil_report(cfg)
