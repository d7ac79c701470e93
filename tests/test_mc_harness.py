"""Tests for exponent-window validation and the Monte Carlo reports."""

import functools
import math
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
    ExperimentConfig,
    _horizon_accumulate,
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

def test_config_rejects_bad_system():
    with pytest.raises(ValueError, match="unknown system"):
        ExperimentConfig(system="torus", horizons=(64,), paths=200, seed=1)


def test_config_rejects_unsorted_horizons():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(system="shift", horizons=(64, 64), paths=200, seed=1)


def test_config_rejects_thin_sampling():
    with pytest.raises(ValueError, match="at least 100 paths"):
        ExperimentConfig(system="shift", horizons=(64,), paths=50, seed=1)


def test_config_odometer_horizon_guard():
    with pytest.raises(ValueError, match="too long"):
        ExperimentConfig(system="odometer", horizons=(4096,), paths=200, seed=1, bits=12)


def test_config_window_edges():
    for window in (1, 53):
        assert ExperimentConfig(system="shift", horizons=(64,), paths=200, seed=1,
                                window=window).window == window
    for window in (0, 54):
        with pytest.raises(ValueError, match=r"coordinate window in \[1, 53\]"):
            ExperimentConfig(system="shift", horizons=(64,), paths=200, seed=1, window=window)


def test_config_resolves_named_shift_functions():
    cfg = ExperimentConfig(
        system="shift", horizons=(64,), paths=200, seed=1, transfer="cosine"
    )
    assert cfg.transfer is SHIFT_FUNCTIONS["cosine"]
    with pytest.raises(ValueError, match="unknown shift function"):
        ExperimentConfig(
            system="shift", horizons=(64,), paths=200, seed=1, transfer="sine"
        )


def test_config_alpha_defaults_to_reciprocal_p():
    cfg = ExperimentConfig(
        system="shift", horizons=(64,), paths=200, seed=1, p=1.6
    )
    assert cfg.resolved_alpha() == pytest.approx(1 / 1.6)
    cfg_bad = ExperimentConfig(
        system="shift", horizons=(64,), paths=200, seed=1, p=1.6, alpha=0.5
    )
    with pytest.raises(ValueError, match="outside"):
        cfg_bad.resolved_alpha()


# ---------------------------------------------------------------------------
# condition16: Monte Carlo against the exact residue count
# ---------------------------------------------------------------------------

def odometer_config(**kw):
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=12, bits=14)
    base = dict(
        system="odometer", horizons=(64, 256), paths=600, seed=3,
        epsilons=(0.5, 2.0), p=1.2, r=4.0, transfer=cex, bits=14,
    )
    base.update(kw)
    return ExperimentConfig(**base)


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


@pytest.mark.parametrize("i_max, horizons", [(12, (64, 256)), (4, (4, 16, 40))],
                         ids=["M-above-top-horizon", "top-horizon-above-M"])
def test_orbits_and_window_extrema_match_modular_gather(i_max, horizons):
    # a random table without zeros makes both window ends matter; i_max = 4
    # (M = 16) wraps the orbit rows around the table more than once
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=i_max, bits=14)
    n_top = horizons[-1]
    extrema = []
    for workers in (1, 3):
        cfg = odometer_config(transfer=cex, horizons=horizons, workers=workers)
        m = len(cfg.g_table)
        table = np.random.default_rng(5).standard_normal(m)
        cfg.__dict__["g_table"] = table
        full = table[(np.arange(m)[:, None] + np.arange(n_top + 1)[None, :]) % m]
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
    cfg = ExperimentConfig(system="odometer", horizons=(1,), paths=100, seed=seed, bits=bits)
    m = 1 << min(bits, 12)
    cfg.__dict__["g_table"] = np.zeros(m)
    expected = [int(stream_generator(seed, j).integers(0, 1 << bits, dtype=np.uint64)) % m
                for j in range(cfg.paths)]
    assert cfg.start_residues.dtype == np.int64
    assert cfg.start_residues.tolist() == expected


def test_config_odometer_bits_edges():
    # building a config derives nothing: tables and draws come on first use
    for bits in (1, 64):
        cfg = ExperimentConfig(system="odometer", horizons=(1,), paths=100, seed=1, bits=bits)
        assert cfg.bits == bits
        assert not {"g_table", "start_residues", "orbits", "orbit_pass"} & set(cfg.__dict__)
    for bits in (0, 65):
        with pytest.raises(ValueError, match=rf"bits = {bits} invalid: odometer precision "
                                             r"in \[1, 64\]"):
            ExperimentConfig(system="odometer", horizons=(1,), paths=100, seed=1, bits=bits)


def test_reports_do_not_depend_on_chunking(monkeypatch):
    # every per-path result is assembled in path order, so the chunk size
    # (1 path, 7 paths, the default) changes no byte of any report
    default = mc_harness._paths_per_chunk
    texts = []
    for per_chunk in (lambda n: 1, lambda n: 7, default):
        monkeypatch.setattr(mc_harness, "_paths_per_chunk", per_chunk)
        cfg = odometer_config(paths=300)
        shift = ExperimentConfig(system="shift", horizons=(16, 64, 256), paths=150, seed=12,
                                 transfer="cosine")
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
    # the condition reports run on the odometer only, whatever the transfer
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=12, bits=14)
    for transfer in ("cosine", cex):
        cfg = ExperimentConfig(system="shift", horizons=(64, 256), paths=200, seed=1,
                               p=1.5, transfer=transfer, bits=14)
        with pytest.raises(ValueError, match="TowerCounterexample"):
            report_fn(cfg)


# On the odometer, condition17 gathers g.T^k from the residue table of g, and
# condition16 and slln read window extrema of that table at the start
# residues; the reference walks each path point by point with odometer_advance
# and eval_g.

def odometer_reference(cfg):
    """Per path j: g(T^k w_j) for k = 0..n at n = top horizon."""
    cex, bits, n = cfg.transfer, cfg.bits, cfg.horizons[-1]
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
    cfg = odometer_config(horizons=(64, 256), alpha=1.0, q=None)
    r17 = condition17_report(cfg)
    assert r17.rows and r17.verdicts
    cex = build_tower_counterexample("slln", p=1.8, r=3.0, q=1.1, i_max=12, bits=14)
    cfg_s = ExperimentConfig(
        system="odometer", horizons=(64, 256), paths=300, seed=4, epsilons=(1.0, 2.0),
        p=1.8, q=1.1, r=3.0, transfer=cex, bits=14, workers=3,
    )
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
    m = len(cfg.g_table)
    table = np.random.default_rng(11).standard_normal(m)
    assert np.all(table != 0.0)
    cfg.__dict__["g_table"] = table
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
        ExperimentConfig(system="shift", horizons=(64,), paths=200, seed=1,
                         martingale="gaussian", transfer="identity")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance and the CLT/LIL diagnostics
# ---------------------------------------------------------------------------

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
    cfg = ExperimentConfig(
        system="shift", horizons=(128, 512), paths=400, seed=9,
    )
    report = clt_lil_report(cfg)
    assert report.sigma == 1.0
    assert [row["n"] for row in report.rows] == [128, 512]
    for row in report.rows:
        assert 0 <= row["ks_distance"] <= 1
        assert row["sup_q50"] <= row["sup_q90"] <= row["sup_q99"]
    assert report.limsup["tail_window"][1] == 512


def test_clt_report_zero_martingale_estimates_sigma():
    cfg = ExperimentConfig(
        system="shift", horizons=(256,), paths=300, seed=2,
        martingale="zero", transfer="identity",
    )
    report = clt_lil_report(cfg)
    assert report.sigma > 0


def test_clt_report_degenerate_f_raises():
    cfg = ExperimentConfig(
        system="shift", horizons=(128,), paths=200, seed=2,
        martingale="zero", transfer="zero",
    )
    with pytest.raises(ValueError, match="degenerate"):
        clt_lil_report(cfg)


def test_clt_bounded_transfer_moves_sums_at_most_two_sup():
    # f = m + g - g.T changes S_n by g(w) - g(T^n w): bounded by 2 sup|g|
    base = ExperimentConfig(system="shift", horizons=(256,), paths=300, seed=14)
    with_g = ExperimentConfig(
        system="shift", horizons=(256,), paths=300, seed=14, transfer="cosine",
    )
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
    cfg = ExperimentConfig(system="shift", horizons=(16, 64, 256), paths=150, seed=12,
                           martingale=martingale, transfer="identity", workers=3)
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
    cfg = ExperimentConfig(system="shift", horizons=horizons, paths=100, seed=1)
    with pytest.raises(ValueError, match=r"top horizon must be >= 16"):
        clt_lil_report(cfg)


def test_clt_accepts_top_horizon_16():
    report = clt_lil_report(ExperimentConfig(system="shift", horizons=(16,), paths=100, seed=1))
    assert report.limsup["tail_window"] == [16, 16]


def test_clt_requires_shift_system():
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=10, bits=12)
    cfg = ExperimentConfig(
        system="odometer", horizons=(64,), paths=200, seed=1, transfer=cex, bits=12
    )
    with pytest.raises(ValueError, match="shift system"):
        clt_lil_report(cfg)
