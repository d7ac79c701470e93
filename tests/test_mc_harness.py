"""Tests for exponent-window validation and the Monte Carlo reports."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import coblim.counterexamples as counterexamples
import coblim.dynamics as dynamics
import coblim.mc_harness as mc_harness
from coblim import __version__
from coblim.cli import DEFAULT_SEED, PRESETS
from coblim.counterexamples import _window_hit_counts, blocks_for_range, build_tower_counterexample
from coblim.dynamics import stream_generator
from coblim.mc_harness import (
    SHIFT_FUNCTIONS,
    THEOREM_IDS,
    _MAXLOG,
    OdometerConfig,
    ShiftConfig,
    _normal_cdf,
    _RangeLookups,
    clt_lil_report,
    condition16_report,
    condition17_report,
    ks_statistic,
    slln_report,
    validate_hypotheses,
)
from coblim.reports import canonical_json, config_hash
from oracles import coordinates, eval_g, horizon_accumulate, orbit


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


def write_g(cfg, table):
    """Make `table` the config's g: its sorted distinct values as g_values,
    and their ranks in one buffer of the smallest unsigned type that holds
    them, g_table and the cyclic tail that the orbit rows of the last
    residues read."""
    m = table.shape[0]
    values, ranks = np.unique(table, return_inverse=True)
    buffer = ranks.astype(np.min_scalar_type(values.size - 1))[
        np.arange(m + cfg.horizons[-1]) % m]
    cfg.__dict__.update(g_table=buffer[:m], g_values=values)


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


@pytest.mark.parametrize("i_max", [24, 25])
def test_config_odometer_table_guard(i_max):
    # the residue table of g holds 2^i_max entries: 2^24 are accepted, 2^25
    # refused when the config is made, before the table is built
    cex = dataclasses.replace(cex_with_bits(30), i_max=i_max)
    if i_max == 24:
        assert odometer_config(cex=cex).cex.i_max == 24
        return
    with pytest.raises(ValueError, match="resource guard: i_max=25 exceeds 24"):
        odometer_config(cex=cex)


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


def window_hits(table, pairs):
    """Per (thr, n): the residues whose window res+1..res+n (mod M) meets a
    value >= thr, by brute force."""
    m, wmax = table.shape[0], {}
    for _, n in pairs:
        if n not in wmax:
            idx = (np.arange(m)[:, None] + np.arange(1, n + 1)[None, :]) % m
            wmax[n] = table[idx].max(axis=1)
    return [int(np.count_nonzero(wmax[n] >= thr)) for thr, n in pairs]


def test_condition16_counts_maxima_that_meet_the_threshold():
    # a table that takes the thresholds eps sqrt(n) themselves on a twentieth
    # of its cells and 0 elsewhere, so that window maxima meet them exactly:
    # the exact counts (read on ranks) and the estimates both count a max
    # equal to its threshold, as brute force over the table does
    cfg = odometer_config(horizons=(16, 64))
    m, n_top = 1 << cfg.cex.i_max, cfg.horizons[-1]
    rng = np.random.default_rng(29)
    thresholds = [eps * math.sqrt(n) for n in cfg.horizons for eps in cfg.epsilons]
    table = np.where(rng.random(m) < 0.05, rng.choice(thresholds, m), 0.0)
    write_g(cfg, table)
    report = condition16_report(cfg)
    pairs = [(row["threshold"], row["n"]) for row in report.rows]
    assert [ex["exact_prob"] * m for ex in report.exact_rows] == window_hits(table, pairs)
    full = table[(cfg.start_residues[:, None] + np.arange(1, n_top + 1)) % m]
    for row in report.rows:
        wmax = full[:, : row["n"]].max(axis=1)
        assert np.any(wmax == row["threshold"])
        assert row["estimate"] == np.mean(wmax >= row["threshold"])


def rank_hit_counts(table, pairs):
    """_window_hit_counts on the uint16 ranks of `table` into its sorted
    distinct values, each threshold thr replaced by the least rank of a value
    >= thr, as condition16 calls it."""
    values, ranks = np.unique(table, return_inverse=True)
    thresholds = np.searchsorted(values, [thr for thr, _ in pairs], "left").tolist()
    return _window_hit_counts(ranks.astype(np.uint16),
                              [(thr, n) for thr, (_, n) in zip(thresholds, pairs)])


def test_window_hit_count_matches_brute_force():
    # the count of residues whose window res+1..res+n (mod M) meets a value
    # >= thr, for all pairs of a table in one call; n >= M covers the table.
    # The same counts from the table's uint16 ranks at integer thresholds
    rng = np.random.default_rng(7)
    for m in range(1, 65):
        tables = [rng.standard_normal(m), rng.integers(0, 3, m).astype(np.float64),
                  np.zeros(m)]
        for table in tables:
            vals = np.unique(table)
            mids = (vals[:-1] + vals[1:]) / 2.0
            thresholds = [vals[0] - 1.0, vals[-1] + 1.0, vals[0], vals[-1],
                          *vals[::5], *mids[::5]]
            pairs = [(thr, n) for n in range(1, m + 3 + 1) for thr in thresholds]
            expected = window_hits(table, pairs)
            assert _window_hit_counts(table, pairs) == expected, (m, table)
            assert rank_hit_counts(table, pairs) == expected, (m, table)


@pytest.mark.parametrize("cap, piece", [(1, 50), (2, 1 << 17), (4, 20), (64, 5), (64, 1 << 17)])
def test_window_hit_count_block_summary_edges(monkeypatch, cap, piece):
    # the count is read off block maxima of up to `cap` cells, scanning
    # `piece` blocks or cells at a time: table sizes that the block size of
    # n does not divide (the block then shrinks to one that does), miss runs
    # across the cyclic end, tables of all hits, no hit and one hit, and
    # windows of n = 2b - 1 and 2b cells around each block size b, against
    # brute force, on the table and on its uint16 ranks
    monkeypatch.setattr(counterexamples, "_HIT_BLOCK", cap)
    monkeypatch.setattr(counterexamples, "_HIT_PIECE", piece)
    rng = np.random.default_rng(cap + piece)
    for m in (1, 2, 3, 5, 7, 9, 16, 23, 64, 100, 130, 384):
        cases = [[], list(range(m)), [0], [m - 1], [m // 2], [0, m - 1],
                 list(range(2, m - 2)), list(range(m // 3, m // 3 + 3))]
        cases += [np.flatnonzero(rng.random(m) < share).tolist() for share in (0.05, 0.3, 0.9)]
        ns = sorted({1, 2, 3, 4, 5, m - 1, m, m + 1, 2 * m}
                    | {k for b in (1, 2, 4, 8, 16, 32, 64) for k in (2 * b - 1, 2 * b)})
        for hits in cases:
            hits = sorted({h for h in hits if 0 <= h < m})
            table = rng.standard_normal(m) - 3.0
            table[hits] = 1.0 + rng.random(len(hits))
            pairs = [(thr, n) for n in ns if n >= 1 for thr in (1.0, 1.5, -10.0, 5.0)]
            expected = window_hits(table, pairs)
            assert _window_hit_counts(table, pairs) == expected, (m, hits)
            assert rank_hit_counts(table, pairs) == expected, (m, hits)


def test_odometer_pass_holds_one_table_and_chunk_sized_temporaries():
    # tracemalloc sees numpy's buffers.  Building g_table holds the one uint16
    # rank buffer of M + n_top entries plus numpy's fixed-size ufunc iteration
    # buffers (about 192 KiB), where a wrapped copy of the table would hold
    # two or three tables, and a float64 table four times the bytes; the pass
    # and condition16 add the levels and lookups of one region of the table
    # and pieces of the table
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=16, bits=18)
    cfg = odometer_config(cex=cex, horizons=(256, 1024, 4096), paths=1000)
    buffer_bytes = ((1 << 16) + 4096) * 2
    chunk_bytes = (1 << 18) * 8
    tracemalloc.start()
    try:
        assert cfg.g_table.base.shape == ((1 << 16) + 4096,)
        assert cfg.g_table.dtype == np.uint16
        _, peak_tables = tracemalloc.get_traced_memory()
        cfg.orbit_pass
        condition16_report(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_tables < buffer_bytes + (1 << 18)
    assert peak < buffer_bytes + 3 * chunk_bytes


def test_tower_iplil_pass_holds_one_uint16_table_and_chunk_sized_temporaries():
    # the conditions tower-iplil preset: g takes 2,374 values on its 2^22
    # residues, so its table is one buffer of uint16 ranks, and the table and
    # the orbit pass stay within that buffer plus the chunk allowance above,
    # where a float64 table alone would take 32 MiB
    preset = PRESETS["tower-iplil"]
    system, exponents = preset["system"], preset["exponents"]
    cex = build_tower_counterexample(system["kind"], exponents["p"], exponents["r"],
                                     window_exp=exponents["alpha"], i0=system["i0"],
                                     i_max=system["i_max"], bits=system["bits"])
    cfg = OdometerConfig(cex=cex, horizons=tuple(preset["horizons"]["n"]),
                         paths=preset["paths"]["count"], seed=DEFAULT_SEED,
                         epsilons=tuple(preset["epsilons"]["values"]))
    tracemalloc.start()
    try:
        cfg.orbit_pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cfg.g_table.dtype == np.uint16 and cfg.g_values.size == 2374
    assert cfg.g_table.base.shape == ((1 << 22) + cfg.horizons[-1],)
    assert peak < ((1 << 22) + cfg.horizons[-1]) * 2 + 3 * (1 << 18) * 8


@pytest.mark.parametrize("i_max, horizons", [(12, (64, 256)), (4, (4, 16, 40))],
                         ids=["M-above-top-horizon", "top-horizon-above-M"])
def test_orbits_and_window_extrema_match_modular_gather(i_max, horizons):
    # the buffer of g holds the orbit row of every residue r at r; a random
    # nonnegative table without zeros, written into that buffer before the
    # pass, makes both window ends matter; i_max = 4 (M = 16) wraps the orbit
    # rows around the table more than once
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=i_max, bits=14)
    n_top, m = horizons[-1], 1 << i_max
    extrema = []
    for workers in (1, 3):
        cfg = odometer_config(cex=cex, horizons=horizons, workers=workers)
        assert len(cfg.g_table) == m
        buffer = cfg.g_table.base
        assert buffer.shape == (m + n_top,)
        cyclic = (np.arange(m)[:, None] + np.arange(n_top + 1)[None, :]) % m
        rows = sliding_window_view(buffer, n_top + 1)[:m]
        assert np.array_equal(rows, cfg.g_table[cyclic])
        table = np.abs(np.random.default_rng(5).standard_normal(m))
        write_g(cfg, table)
        full = table[cyclic]
        rows = sliding_window_view(cfg.g_table.base, n_top + 1)[:m]
        assert np.array_equal(cfg.g_values[rows], full)
        res = cfg.start_residues
        wmax, wmin = cfg.orbit_pass.wmax, cfg.orbit_pass.wmin
        assert wmax.shape == wmin.shape == (cfg.paths, len(horizons))
        for gi, n in enumerate(horizons):
            assert np.array_equal(wmax[:, gi], full[res, 1: n + 1].max(axis=1))
            assert np.array_equal(wmin[:, gi], full[res, 1: n + 1].min(axis=1))
        extrema.append((wmax, wmin))
    assert all(np.array_equal(a, b) for a, b in zip(*extrema))


def test_odometer_state_derived_once_per_config(monkeypatch):
    # the residue table of g, the per-path start residues and the one pass
    # over the orbit rows are shared by the three odometer reports of one
    # config; the start residues build no Generator
    calls = {"g_residue_table": 0, "first_draws": 0, "OrbitPass": 0, "stream_generator": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("g_residue_table", "first_draws", "OrbitPass"):
        counted(mc_harness, name)
    counted(dynamics, "stream_generator")
    cfg = odometer_config()
    condition16_report(cfg)
    condition17_report(cfg)
    slln_report(cfg)
    assert calls == {"g_residue_table": 1, "first_draws": 1, "OrbitPass": 1,
                     "stream_generator": 0}


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
        assert not {"g_table", "start_residues", "orbit_pass"} & set(cfg.__dict__)
    for bits in (0, 65):
        with pytest.raises(ValueError, match=rf"bits = {bits} invalid: odometer precision "
                                             r"in \[1, 64\]"):
            OdometerConfig(cex=cex_with_bits(bits), horizons=(1,), paths=100, seed=1)


def test_reports_do_not_depend_on_chunking(monkeypatch):
    # every per-path result is written at its path's index, so neither the
    # shift chunk size (1 path, 7 paths, the default), nor the odometer
    # regions (1 cell and 1 path, the smallest caps, which put one path in
    # each chunk, or the defaults), nor the worker count changes a byte of
    # any report
    defaults = (mc_harness._paths_per_chunk, mc_harness._REGION_CELLS,
                mc_harness._REGION_PATHS)
    texts = []
    for (per_chunk, cells, paths), workers in (
            ((lambda n: 1, 1, 1), 1), ((lambda n: 7, 1, 1), 3), (defaults, 1), (defaults, 3)):
        monkeypatch.setattr(mc_harness, "_paths_per_chunk", per_chunk)
        monkeypatch.setattr(mc_harness, "_REGION_CELLS", cells)
        monkeypatch.setattr(mc_harness, "_REGION_PATHS", paths)
        cfg = odometer_config(paths=300, workers=workers)
        shift = ShiftConfig(horizons=(16, 64, 256), paths=150, seed=12, function="cosine",
                            workers=workers)
        texts.append([canonical_json(r) for r in (
            condition16_report(cfg), condition17_report(cfg), slln_report(cfg),
            clt_lil_report(shift))])
    assert all(text == texts[0] for text in texts[1:])


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
# residues; the reference walks each path point by point with the oracles
# orbit and eval_g.

def odometer_reference(cfg):
    """Per path j: g(T^k w_j) for k = 0..n at n = top horizon."""
    cex, bits, n = cfg.cex, cfg.cex.bits, cfg.horizons[-1]
    g = functools.lru_cache(maxsize=None)(lambda v: eval_g(cex, v))
    for j in range(cfg.paths):
        start = int(stream_generator(cfg.seed, j).integers(0, 1 << bits, dtype=np.uint64))
        yield np.array([g(v) for v in orbit(start, bits, range(n + 1))])


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
    # are 0 and a window that misses one end goes unseen.  A random
    # nonnegative table without zeros and short horizons make both window
    # ends matter; its scale puts every estimate strictly inside (0, 1).
    cfg = odometer_config(horizons=(4, 16), epsilons=(0.25, 0.4))
    m = 1 << cfg.cex.i_max
    assert len(cfg.g_table) == m
    table = 2.0 * np.abs(np.random.default_rng(11).standard_normal(m))
    assert np.all(table > 0.0)
    write_g(cfg, table)
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


@pytest.mark.parametrize("i_max, horizons, block_exp", [
    (10, (16, 40, 100), 0.3), (10, (16, 40, 100), 0.5), (10, (16, 40, 100), 0.9),
    (12, (64, 1024), 0.9), (10, (8, 64), 0.5), (10, (1, 2, 40), 0.5), (4, (16, 40), 0.5),
], ids=["b0.3", "b0.5", "b0.9", "long-blocks", "no-probe", "one-cell-segments",
        "top-horizon-above-M"])
def test_orbit_pass_matches_brute_force_over_full_rows(monkeypatch, i_max, horizons,
                                                       block_exp):
    # every output of the pass against maxima, minima and ratios over whole
    # orbit rows, on a table of squared normals (its spread over several
    # orders of magnitude keeps some but not all block maxima above every
    # threshold) and on their integer parts, mostly zeros and ties, where the
    # tail sup is often 0 inside a block and its bracket is a single value,
    # and, with a probe, on one that takes the probe's thresholds on a tenth
    # of its cells and 0 elsewhere, so that window maxima meet thresholds
    # exactly (> and >= differ there);
    # horizons off the 16-cell grid, blocks longer than 32 cells
    # (long-blocks), no condition17 probe (no-probe), windows of one cell
    # (one-cell-segments) and orbit rows that wrap around M = 16.  The caps
    # of 1 cell and 2 paths split runs of equal residues across chunks
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=i_max, bits=14)
    n0, n_top, m = horizons[0], horizons[-1], 1 << i_max
    rng = np.random.default_rng(i_max + n_top)
    squares = rng.standard_normal(m) ** 2
    floors = np.floor(squares)
    assert np.any(floors == 0.0) and np.any(floors > 0.0)
    tables = [squares, floors]
    probe = odometer_config(cex=cex, horizons=horizons, block_exp=block_exp,
                            epsilons=(0.1, 0.3)).orbit_pass.probe
    if probe is not None:
        thresholds = np.concatenate([*probe.thresholds.values(),
                                     *probe.dyadic_thresholds.values()])
        tables.append(np.where(rng.random(m) < 0.1, rng.choice(thresholds, m), 0.0))
    for table, (cells, paths) in itertools.product(
            tables,
            ((1, 2), (n_top + 9, 3), (mc_harness._REGION_CELLS, mc_harness._REGION_PATHS))):
        monkeypatch.setattr(mc_harness, "_REGION_CELLS", cells)
        monkeypatch.setattr(mc_harness, "_REGION_PATHS", paths)
        cfg = odometer_config(cex=cex, horizons=horizons, block_exp=block_exp,
                              epsilons=(0.1, 0.3))
        write_g(cfg, table)
        full = table[(cfg.start_residues[:, None] + np.arange(n_top + 1)) % m]
        run = cfg.orbit_pass
        for gi, n in enumerate(horizons):
            assert run.wmax[:, gi].tobytes() == full[:, 1: n + 1].max(axis=1).tobytes()
            assert run.wmin[:, gi].tobytes() == full[:, 1: n + 1].min(axis=1).tobytes()
        probe = run.probe
        if n0 < 16:
            assert probe is None
            continue
        ns = np.arange(n0, n_top + 1, dtype=np.float64)
        ratios = full[:, n0:] / np.sqrt(ns * np.log(np.log(ns)))
        assert probe.tail_sup.tobytes() == ratios.max(axis=1).tobytes()
        assert probe.blocks == [b for b in blocks_for_range(block_exp, n_top)
                                if b[1] >= n0 and b[1] + b[2] <= n_top]
        assert probe.blocks
        ties = 0
        for eps in cfg.epsilons:
            maxima = [full[:, mj: mj + ln + 1].max(axis=1) for _, mj, ln in probe.blocks]
            hits = [np.count_nonzero(w > thr) for w, thr in zip(maxima, probe.thresholds[eps])]
            assert probe.block_hits[eps].tolist() == hits
            assert table is not squares or 0 < sum(hits) < cfg.paths * len(hits)
            ties += sum(np.count_nonzero(w == thr)
                        for w, thr in zip(maxima, probe.thresholds[eps]))
        dyadic = [i for i in range(cex.i0, i_max + 1)
                  if (1 << i) >= n0 and (1 << (i + 1)) <= n_top]
        assert probe.dyadic == dyadic
        for eps in cfg.epsilons:
            maxima = [full[:, 1 << i: (1 << (i + 1)) + 1].max(axis=1) for i in dyadic]
            thresholds = probe.dyadic_thresholds[eps]
            hits = [np.count_nonzero(w >= thr) for w, thr in zip(maxima, thresholds)]
            assert probe.dyadic_hits[eps].tolist() == hits
            ties += sum(np.count_nonzero(w == thr) for w, thr in zip(maxima, thresholds))
        assert table is not tables[-1] or ties > 0


def test_orbit_pass_refuses_negative_g():
    # the odometer reports read |g| as g, which holds for every tower
    # counterexample (g >= 0); a table with a negative value is refused
    # before any window is read, one with a least value of 0 is not
    cfg = odometer_config(horizons=(16, 64))
    table = np.abs(np.random.default_rng(31).standard_normal(1 << cfg.cex.i_max))
    table[7] = -table[7]
    write_g(cfg, table)
    with pytest.raises(ValueError, match=r"read \|g\| as g, so g must be >= 0"):
        cfg.orbit_pass
    table[7] = 0.0
    write_g(cfg, table)
    assert cfg.g_values[0] == 0.0 and cfg.orbit_pass.wmin.min() == 0.0


@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum], ids=["max", "min"])
def test_range_lookups_match_window_reductions_at_every_offset(ufunc):
    # windows of 1-64 cells, with 31, 32, 33, 47 and 48 about the edges where
    # a window is read through whole 16-cell blocks and through one or two
    # of them, and longer ones, at every row offset mod 16 of the region,
    # with rows that start and end the region; the buffers are reused by a
    # second, shorter region; on values and on the uint16 ranks OrbitPass reads
    lengths = list(range(1, 65)) + [31, 32, 33, 47, 48, 95, 96, 97, 255, 256, 257, 1000]
    windows = [(a, a + n - 1) for n in lengths for a in (0, 1, 7, 16, 17)]
    n_top = max(b for _, b in windows)
    rng = np.random.default_rng(17)
    for dtype in (np.float64, np.uint16):
        lookups = _RangeLookups(ufunc, windows, stride=n_top + 48, rows=48, dtype=dtype)
        for cells in (n_top + 48, n_top + 20):
            region = (rng.standard_normal(cells) if dtype is np.float64
                      else rng.integers(0, 1 << 16, cells).astype(dtype))
            offsets = np.arange(cells - n_top)
            got = lookups(region, offsets)
            expected = [[ufunc.reduce(region[o + a: o + b + 1]) for a, b in windows]
                        for o in offsets]
            assert got.dtype == dtype
            assert got.tobytes() == np.asarray(expected, dtype=dtype).tobytes()


@pytest.mark.parametrize("cells, paths", [(1, 2), (300, 7), (None, None)],
                         ids=["one-row-regions", "small-regions", "preset-regions"])
def test_orbit_pass_long_windows_match_modular_gather(monkeypatch, cells, paths):
    # prefix windows of 31, 32, 33, 47, 48 and 191 cells and dyadic windows of
    # 33 and 65 cells; 1500 paths on M = 2^10 put rows at every offset mod 16
    # of their regions, first rows that start a region and last rows that end it
    if cells is not None:
        monkeypatch.setattr(mc_harness, "_REGION_CELLS", cells)
        monkeypatch.setattr(mc_harness, "_REGION_PATHS", paths)
    cex = build_tower_counterexample("ip_lil", p=1.2, r=4.0, i_max=10, bits=14)
    horizons = (31, 32, 33, 47, 48, 191)
    n_top, m = horizons[-1], 1 << 10
    table = np.abs(np.random.default_rng(23).standard_normal(m))
    cfg = odometer_config(cex=cex, horizons=horizons, paths=1500, epsilons=(0.2, 0.25))
    write_g(cfg, table)
    full = table[(cfg.start_residues[:, None] + np.arange(n_top + 1)) % m]
    run = cfg.orbit_pass
    for gi, n in enumerate(horizons):
        assert run.wmax[:, gi].tobytes() == full[:, 1: n + 1].max(axis=1).tobytes()
        assert run.wmin[:, gi].tobytes() == full[:, 1: n + 1].min(axis=1).tobytes()
    assert run.probe.dyadic == [5, 6]
    for eps in cfg.epsilons:
        hits = [np.count_nonzero(full[:, 1 << i: (1 << (i + 1)) + 1].max(axis=1) >= thr)
                for i, thr in zip(run.probe.dyadic, run.probe.dyadic_thresholds[eps])]
        assert run.probe.dyadic_hits[eps].tolist() == hits
        assert 0 < sum(hits) < cfg.paths * len(hits)


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
# recurrence of the oracle coordinates.

def shift_reference(cfg):
    """Per path j: (x_0..x_n, Rademacher partial sums S_0..S_n(m)) at n = top horizon."""
    n, w = cfg.horizons[-1], cfg.window
    for j in range(cfg.paths):
        eps = dynamics.fair_bits(cfg.seed, j, n + 2 * w + 1)
        steps = 2 * eps[w: w + n].astype(np.int64) - 1
        yield coordinates(eps, n, w), np.concatenate([[0], np.cumsum(steps)])


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


# The whole-matrix loop: g on every cell of every path.  clt_lil_report
# evaluates g only where the coboundary sandwich leaves a maximum open, and
# must give the same report bit for bit.

def whole_matrix_sums(cfg):
    """(S_k(f), S_k(m)) for k = 0..n_top on every path, g on all cells."""
    n_top, w = cfg.horizons[-1], cfg.window
    eps_bits = mc_harness._shift_bits_chunk(cfg, 0, cfg.paths, n_top)
    sm = np.zeros((cfg.paths, n_top + 1), dtype=np.float64)
    if cfg.martingale == "rademacher":
        sm[:, 1:] = np.cumsum(2 * eps_bits[:, w: w + n_top].astype(np.int32) - 1, axis=1)
    s = sm.copy()
    if cfg.function.sup_bound != 0.0:
        gx = cfg.function(dynamics.coordinate_matrix(eps_bits, n_top, w))
        s += gx[:, :1] - gx
    return s, sm


def clt_whole_matrix_reference(cfg):
    n_top = cfg.horizons[-1]
    k0 = max(16, n_top // 8)
    ks = np.arange(k0, n_top + 1, dtype=np.float64)
    lil_norm = np.sqrt(2.0 * ks * np.log(np.log(ks)))
    h_idx = np.asarray(cfg.horizons, dtype=np.int64)
    s, _ = whole_matrix_sums(cfg)
    finals = s[:, h_idx]
    s = np.abs(s)
    sups = np.maximum.accumulate(s[:, 1:], axis=1)[:, h_idx - 1]
    tail_ratio = np.max(s[:, k0:] / lil_norm[None, :], axis=1)
    sigma = 1.0 if cfg.martingale == "rademacher" else None
    if sigma is None:
        sigma = float(np.std(finals[:, -1]) / math.sqrt(n_top))
        if sigma < 1e-9:
            raise ValueError("degenerate f: sigma estimate below 1e-9")
    report = mc_harness.CltReport(config=cfg.echo(), config_sha256=config_hash(cfg.echo()),
                                  version=__version__, sigma=sigma)
    qs = [0.5, 0.9, 0.99]
    for gi, n in enumerate(cfg.horizons):
        z = finals[:, gi] / (sigma * math.sqrt(n))
        sup_scaled = sups[:, gi] / (sigma * math.sqrt(n))
        row = {"n": n, "ks_distance": ks_statistic(z), "mean": float(np.mean(z)),
               "sup_mean": float(np.mean(sup_scaled))}
        for q in qs:
            row[f"sup_q{int(q * 100)}"] = float(np.quantile(sup_scaled, q))
        report.rows.append(row)
    report.limsup = {
        "tail_window": [k0, n_top],
        "normalization": "sqrt(2 sigma^2 k loglog k)",
        "mean": float(np.mean(tail_ratio / sigma)),
        "quantiles": {str(q): float(np.quantile(tail_ratio / sigma, q)) for q in qs},
    }
    return report


# (100, 700, 1000) puts k0 = 125 and the segment edges mid-block, and
# n_top + 1 = 1001 is a multiple of no block width tried; (16, 77, 333) puts
# k0 = 41, both horizons and n_top + 1 off the bytes of the walk.  Window 3
# is shorter than every block, so the last block reads past the bits
@pytest.mark.parametrize("horizons", [(16,), (16, 64, 256), (100, 700, 1000), (16, 77, 333)])
@pytest.mark.parametrize("martingale", ["rademacher", "zero"])
@pytest.mark.parametrize("function", ["zero", "identity", "cosine", "inverse_cuberoot"])
def test_clt_equals_whole_matrix_reference(monkeypatch, function, martingale, horizons):
    for window in (53, 3):
        base = ShiftConfig(horizons=horizons, paths=100, seed=31, function=function,
                           martingale=martingale, window=window)
        try:
            expected = clt_whole_matrix_reference(base)
        except ValueError as exc:  # g = 0 and m = 0: f = 0
            assert function == martingale == "zero"
            with pytest.raises(ValueError, match=str(exc)):
                clt_lil_report(base)
            continue
        for block in (8, 32, 64):
            monkeypatch.setattr(mc_harness, "_G_BLOCK", block)
            for workers in (1, 3):
                assert clt_lil_report(dataclasses.replace(base, workers=workers)) == expected


def test_blocks_must_be_whole_bytes(monkeypatch):
    monkeypatch.setattr(mc_harness, "_G_BLOCK", 12)
    with pytest.raises(AssertionError, match="whole bytes"):
        clt_lil_report(ShiftConfig(horizons=(64,), paths=100, seed=1))


def test_walk_tables_equal_a_direct_walk():
    # byte b packs the steps 2 bit_i - 1 of k = 8j + i + 1, bit i the i-th least significant
    for b in range(256):
        steps = [2 * ((b >> i) & 1) - 1 for i in range(8)]
        values = [sum(steps[:i]) for i in range(8)]
        assert mc_harness._WALK_PREFIX[b].tolist() == values
        assert mc_harness._WALK_TOTAL[b] == sum(steps)
        assert (mc_harness._WALK_MAX[b], mc_harness._WALK_MIN[b]) == (max(values), min(values))


@settings(deadline=None, max_examples=60)
@given(st.integers(16, 300), st.sets(st.integers(1, 299), max_size=4), st.integers(1, 5),
       st.integers(1, 53), st.sampled_from(["rademacher", "zero"]),
       st.sampled_from(["zero", "cosine"]), st.sampled_from([8, 32, 64]),
       st.integers(0, 2 ** 32))
def test_shift_walk_equals_per_step_sums(n_top, lower, rows, window, martingale, function,
                                         block, seed):
    # the byte-table walk against S_k(f) formed step by step on every k
    mc_harness._G_BLOCK, saved = block, mc_harness._G_BLOCK
    try:
        horizons = tuple(sorted({h for h in lower if h < n_top} | {n_top}))
        cfg = ShiftConfig(horizons=horizons, paths=100, seed=0, window=window,
                          martingale=martingale, function=function)
        bits = np.random.default_rng(seed).integers(0, 2, (rows, n_top + 2 * window + 1),
                                                    dtype=np.uint8)
        finals, sups, tail = mc_harness._ShiftWalk(cfg)(bits)
    finally:
        mc_harness._G_BLOCK = saved
    s = np.zeros((rows, n_top + 1))
    if martingale == "rademacher":
        s[:, 1:] = np.cumsum(2 * bits[:, window: window + n_top].astype(np.int64) - 1, axis=1)
    if function != "zero":
        gx = cfg.function(dynamics.coordinate_matrix(bits, n_top, window))
        s += gx[:, :1] - gx
    h_idx = np.asarray(horizons)
    k0 = max(16, n_top // 8)
    ks = np.arange(k0, n_top + 1, dtype=np.float64)
    assert np.array_equal(finals, s[:, h_idx])
    assert np.array_equal(sups, horizon_accumulate(np.maximum, np.abs(s), h_idx))
    assert np.array_equal(tail, np.max(np.abs(s[:, k0:]) / np.sqrt(2.0 * ks * np.log(np.log(ks))),
                                       axis=1))


@pytest.mark.parametrize("block", [8, 32])
def test_open_blocks_keep_every_maximum_under_extreme_transfers(monkeypatch, block):
    # g at its extremes +-1 on random sign-changing sums: the cells outside the
    # open blocks, holding S_k(m), must leave every maximum the report reads
    # where S_k(f) on all cells puts it
    monkeypatch.setattr(mc_harness, "_G_BLOCK", block)
    rng = np.random.default_rng(7)
    n, k0, h_idx = 300, 37, np.array([40, 130, 300])
    ks = np.arange(k0, n + 1, dtype=np.float64)
    lil_norm = np.sqrt(2.0 * ks * np.log(np.log(ks)))
    sm = np.zeros((4000, n + 1))
    sm[:, 1:] = np.cumsum(rng.integers(-2, 3, (4000, n)), axis=1)
    gx = rng.choice([-1.0, 1.0], size=sm.shape)
    s = sm + (gx[:, :1] - gx)
    # the rule reads the max of |S_k(m)| on each block, k = 0..n and 0 past n
    n_blocks = n // block + 1
    top = np.pad(np.abs(sm), ((0, 0), (0, n_blocks * block - n - 1)))
    walk = mc_harness._ShiftWalk(ShiftConfig(horizons=tuple(h_idx), paths=100, seed=0))
    assert walk.k0 == k0
    blocks = mc_harness._open_blocks(top.reshape(4000, n_blocks, block).max(axis=2), h_idx,
                                     k0, walk.norm_range, 2.0)
    mixed = np.where(np.repeat(blocks, block, axis=1)[:, : n + 1], s, sm)
    assert 0 < blocks.mean() < 1
    for x in (s, mixed):
        x[:] = np.abs(x)
    assert np.array_equal(mixed[:, h_idx], s[:, h_idx])
    assert np.array_equal(horizon_accumulate(np.maximum, mixed, h_idx),
                          horizon_accumulate(np.maximum, s, h_idx))
    assert np.array_equal(np.max(mixed[:, k0:] / lil_norm, axis=1),
                          np.max(s[:, k0:] / lil_norm, axis=1))


@pytest.mark.parametrize("function", ["cosine", "identity"])
def test_coboundary_sandwich_holds_at_every_step(function):
    # |S_k(f) - S_k(m)| = |g(x_0) - g(x_k)| <= 2 ||g||_oo in float64, at every
    # k <= n on every path: the bound that lets clt_lil_report skip g
    cfg = ShiftConfig(horizons=(64, 1000), paths=200, seed=8, function=function)
    s, sm = whole_matrix_sums(cfg)
    assert np.all(np.abs(s - sm) <= 2.0 * cfg.function.sup_bound)


def test_clt_bounded_transfer_evaluates_g_on_few_cells_in_bounded_memory():
    # the clt-bounded-transfer preset: g on at most a quarter of the cells (a
    # deterministic count), and a peak of at most 3 MiB (2.0 MiB measured),
    # where the whole-matrix loop evaluated g on every cell and peaked at
    # 6.5 MiB, and a float64 matrix of S_k per chunk peaked at 4.6 MiB
    preset = PRESETS["clt-bounded-transfer"]
    cosine = SHIFT_FUNCTIONS[preset["function"]["transfer"]]
    cells = []

    def counting(x):
        cells.append(x.size)
        return cosine(x)

    cfg = ShiftConfig(horizons=tuple(preset["horizons"]["n"]), paths=preset["paths"]["count"],
                      seed=DEFAULT_SEED, martingale=preset["function"]["martingale"],
                      function=mc_harness.ShiftFunction("cosine", counting, cosine.sup_bound))
    tracemalloc.start()
    try:
        clt_lil_report(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(cells) <= 0.25 * cfg.paths * (cfg.horizons[-1] + 1)
    assert peak <= 3 << 20


@pytest.mark.parametrize("bound", [-1.0, -1e-300, math.nan])
def test_shift_function_refuses_negative_or_nan_bound(bound):
    with pytest.raises(ValueError, match="sup_bound"):
        mc_harness.ShiftFunction("bad", np.sin, sup_bound=bound)
    assert mc_harness.ShiftFunction("unbounded", np.sin).sup_bound is None


def test_shift_functions_stay_within_their_bounds():
    x = np.concatenate((np.linspace(0.0, 0.5, 1 << 16, endpoint=False), [0.5 - 2.0 ** -54]))
    for name, g in SHIFT_FUNCTIONS.items():
        if g.sup_bound is not None:
            assert np.all(np.abs(g(x)) <= g.sup_bound), name


@pytest.mark.parametrize("ufunc", [np.maximum, np.minimum])
@pytest.mark.parametrize("horizons", [(1,), (7, 9), (17, 40, 41)])
def test_horizon_accumulate_equals_full_accumulate(ufunc, horizons):
    x = np.random.default_rng(len(horizons)).standard_normal((5, horizons[-1] + 1))
    h_idx = np.asarray(horizons, dtype=np.int64)
    expected = ufunc.accumulate(x[:, 1:], axis=1)[:, h_idx - 1]
    assert np.array_equal(horizon_accumulate(ufunc, x, h_idx), expected)


@pytest.mark.parametrize("horizons", [(8,), (4, 12)])
def test_clt_rejects_short_top_horizon_before_drawing(monkeypatch, horizons):
    def no_draws(*args):
        raise AssertionError("bits drawn before the horizon check")

    monkeypatch.setattr(mc_harness, "fair_bits", no_draws)
    with pytest.raises(ValueError, match=r"top horizon must be >= 16"):
        clt_lil_report(ShiftConfig(horizons=horizons, paths=100, seed=1))


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
