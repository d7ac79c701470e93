"""Acceptance gate: nine end-to-end checks, one [PASS]/[FAIL] line each.

Every test pins its configuration, tolerances, and runtime budget and
prints a single summary line with the measured numbers.  The tolerances
are frozen deliberately: loosening one is a behaviour change for the
package, not a test fix.  Criterion 7 checks the series diagnostics of
the geometric family against its closed forms at K_max = 10^6: the tail
product at checkpoint k is exactly 4 (ln(k+1))^(-2/(p-1)), and past
k = 10^3 the quadratic-series term is exactly k^(-1/p) (ln k)^(-4/p),
whose partial sums grow like K^(1-1/p) / ((1-1/p) (ln K)^(4/p)) --
divergent, but by less than the factor-5 trend bar over 10^3..10^6.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np

from coblim.bernoulli_criteria import conditional_expectation, lemma32_check, make_function
from coblim.cli import main as cli_main
from coblim.counterexamples import (
    build_tower_counterexample,
    exact_norms,
    exact_violation_probability,
)
from coblim.dynamics import coordinate_matrix
from coblim.maximal import maximal_inequality_report, random_level_function
from coblim.mc_harness import (
    SHIFT_FUNCTIONS,
    OdometerConfig,
    ShiftConfig,
    _chunk_ranges,
    _paths_per_chunk,
    _shift_bits_chunk,
    clt_lil_report,
    condition16_report,
    validate_hypotheses,
)
from coblim.series_checker import geometric_family, prop23_report

SEED = 20260814


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _check_passed(report, name: str) -> bool:
    return next(c.passed for c in report.checks if c.name == name)


def _iplil_tower(bits: int = 24):
    return build_tower_counterexample(
        "ip_lil", p=1.2, r=4.0, window_exp=0.3667, i0=4, i_max=22, bits=bits
    )


def test_criterion_1_tower_norms_and_violation_floor():
    """Exact norm bounds, norm increment-ratio band, violation floor 0.3."""
    t0 = time.monotonic()
    cex = _iplil_tower()
    rows = exact_norms(cex)
    assert [row.i for row in rows] == list(range(4, 23))

    # (a) every exact p-norm sits under its closed-form bound, no slack term
    bounded = all(row.norm_p_exact <= row.bound_355 for row in rows)

    # (b) partial sums of the norms: increment ratios track the geometric
    # rate 2^{(alpha-1+p/2)/p} times the iterated-logarithm drift, within 10%
    rate = 2.0 ** ((0.3667 - 1.0 + 0.6) / 1.2)
    devs = []
    for a, b in zip(rows, rows[1:]):
        drift = math.sqrt(math.log(math.log(b.n)) / math.log(math.log(a.n)))
        devs.append(abs((b.norm_p_exact / a.norm_p_exact) / (rate * drift) - 1.0))
    max_dev = max(devs)

    # (c) the eps = 0.1 scaled-maximum event keeps measure >= 3/10 on every
    # tower from i = 10 up -- exact rational counting, zero tolerance
    floor = Fraction(3, 10)
    probs = {}
    for row in rows:
        if row.i < 10:
            continue
        probs[row.i] = exact_violation_probability(cex, row.i, 0.1 * math.sqrt(row.n),
                                                   (1, row.n))
        assert probs[row.i] == row.violation_prob  # the rows bake in this event
    min_prob = min(probs.values())

    elapsed = time.monotonic() - t0
    ok = bounded and max_dev <= 0.10 and min_prob >= floor and elapsed < 120.0
    _emit(
        1,
        ok,
        f"norms bounded for i in [4, 22], ratio dev {max_dev:.4f} <= 0.10, "
        f"violation floor {float(min_prob):.3f} >= 0.30, {elapsed:.1f}s",
    )
    assert bounded
    assert max_dev <= 0.10
    assert min_prob >= floor
    assert elapsed < 120.0


def test_criterion_2_slln_tower_event_measure():
    """Peak-visit event on each dyadic window keeps measure >= 1/2, exactly."""
    t0 = time.monotonic()
    cex = build_tower_counterexample(
        "slln", p=1.8, r=3.0, q=1.1, window_exp=0.3611, i_max=20, bits=22
    )
    assert cex.i0 <= 8
    measures = {
        i: exact_violation_probability(cex, i, cex.map_for(i).peak, (1 << i, 1 << (i + 1)))
        for i in range(8, 21)
    }
    min_measure = min(measures.values())
    elapsed = time.monotonic() - t0
    ok = min_measure >= Fraction(1, 2) and elapsed < 60.0
    _emit(
        2,
        ok,
        f"event measure >= {float(min_measure):.3f} for i in [8, 20] "
        f"(exact counting), {elapsed:.1f}s",
    )
    assert min_measure >= Fraction(1, 2)
    assert elapsed < 60.0


def test_criterion_3_maximal_inequalities_hold():
    """50 seeded level functions, 64 thresholds each: zero violations."""
    t0 = time.monotonic()
    level_viol = 0
    weak_viol = 0
    for stream in range(50):
        h = random_level_function(seed=SEED, stream=stream, i=8)
        rep = maximal_inequality_report(h, bits=14, n_max=1024)
        assert len(rep.rows) == 64
        level_viol += rep.level_bound_violations
        weak_viol += rep.weak_bound_violations
    elapsed = time.monotonic() - t0
    ok = level_viol == 0 and weak_viol == 0 and elapsed < 120.0
    _emit(
        3,
        ok,
        f"{level_viol} level-bound and {weak_viol} weak-bound violations over "
        f"50 functions x 64 thresholds, {elapsed:.1f}s",
    )
    assert level_viol == 0
    assert weak_viol == 0
    assert elapsed < 120.0


def test_criterion_4_monte_carlo_matches_exact_counts():
    """condition16 estimates sit within 3 binomial sigma of exact counts."""
    t0 = time.monotonic()
    cex = _iplil_tower()
    cfg = OdometerConfig(
        cex=cex,
        horizons=(256, 1024, 4096),
        paths=10_000,
        seed=SEED,
        epsilons=(0.1, 1.0, 4.0, 8.0),
        alpha=0.3667,
    )
    rep = condition16_report(cfg)
    exact = {(e["n"], e["epsilon"]): e for e in rep.exact_rows}
    assert any(row["n"] == 4096 for row in rep.rows)

    worst_sigma = 0.0
    for row in rep.rows:
        ref = exact[(row["n"], row["epsilon"])]
        assert row["threshold"] == ref["threshold"]
        prob = float(ref["exact_prob"])
        sigma = math.sqrt(prob * (1.0 - prob) / row["paths"])
        gap = abs(row["estimate"] - prob)
        if sigma == 0.0:
            assert gap == 0.0  # degenerate rows must match exactly
        else:
            worst_sigma = max(worst_sigma, gap / sigma)
            assert gap <= 3.0 * sigma
    elapsed = time.monotonic() - t0
    ok = worst_sigma <= 3.0 and elapsed < 60.0
    _emit(
        4,
        ok,
        f"{len(rep.rows)} (n, eps) cells, worst |estimate - exact| = "
        f"{worst_sigma:.2f} sigma <= 3, {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_5_clt_sanity_and_transfer_perturbation():
    """KS distance of scaled sums, and the exact transfer telescoping bound."""
    t0 = time.monotonic()
    n = 4096
    cfg_pure = ShiftConfig(
        horizons=(n,), paths=4000, seed=SEED, martingale="rademacher", function="zero",
    )
    cfg_g = ShiftConfig(
        horizons=(n,), paths=4000, seed=SEED, martingale="rademacher", function="cosine",
    )
    rep_pure = clt_lil_report(cfg_pure)
    rep_g = clt_lil_report(cfg_g)
    ks = rep_pure.rows[-1]["ks_distance"]

    # shared seeds mean both runs see the same bits, so the sums differ by
    # exactly g(x_0) - g(x_n) on every path; |g|_sup = 1 caps that at 2
    g = SHIFT_FUNCTIONS["cosine"]
    deltas = []
    for lo, hi in _chunk_ranges(cfg_g.paths, 1, _paths_per_chunk(n)):
        eps_bits = _shift_bits_chunk(cfg_g, lo, hi, n)
        gx = g(coordinate_matrix(eps_bits, n, cfg_g.window))
        deltas.append(gx[:, 0] - gx[:, -1])
    delta = np.concatenate(deltas)
    assert delta.shape == (cfg_g.paths,)
    max_step = float(np.max(np.abs(delta)))
    scaled_step = max_step / math.sqrt(n)

    # the same perturbation is what the reports saw: their scaled means
    # differ by mean(delta)/sqrt(n) up to one rounding per path
    mean_gap = rep_g.rows[-1]["mean"] - rep_pure.rows[-1]["mean"]
    tie = abs(mean_gap - float(np.mean(delta)) / math.sqrt(n))

    elapsed = time.monotonic() - t0
    bound = 2.0 * g.sup_bound
    ok = (
        ks <= 0.035
        and max_step <= bound + 1e-12
        and tie <= 1e-12
        and elapsed < 60.0
    )
    _emit(
        5,
        ok,
        f"KS {ks:.4f} <= 0.035, pathwise |dS_n|/sqrt(n) {scaled_step:.5f} <= "
        f"{bound / math.sqrt(n):.5f}, report tie-out {tie:.1e}, {elapsed:.1f}s",
    )
    assert ks <= 0.035
    assert max_step <= bound + 1e-12
    assert tie <= 1e-12
    assert elapsed < 60.0


def test_criterion_6_smoothing_inequalities_with_error_budget():
    """Both smoothing inequalities for affine/cosine, q in {1.5, 2}, n <= 8."""
    t0 = time.monotonic()
    worst_err = 0.0
    all_ok = True
    for family in ("affine", "cosine"):
        f = make_function(family)
        for q in (1.5, 2.0):
            for n in range(1, 9):
                rep = lemma32_check(f, n=n, q=q)
                all_ok = all_ok and rep.all_passed
                worst_err = max(worst_err, rep.context["combined_error"])

    xs = np.linspace(0.0, 1.0, 1001)
    e1_dev = float(
        np.max(np.abs(conditional_expectation(make_function("affine"), 1, xs) - (xs / 2 - 0.25)))
    )
    elapsed = time.monotonic() - t0
    ok = all_ok and worst_err <= 1e-6 and e1_dev <= 1e-10
    _emit(
        6,
        ok,
        f"32 inequality checks passed, worst quadrature error {worst_err:.1e} "
        f"<= 1e-6, one-step average of x - 1/2 off by {e1_dev:.1e} <= 1e-10, "
        f"{elapsed:.1f}s",
    )
    assert all_ok
    assert worst_err <= 1e-6
    assert e1_dev <= 1e-10


def test_criterion_7_series_decay_and_growth_targets():
    """Series diagnostics of the geometric family against its closed forms.

    theta_k = 2^(k(p-1)/p) / (ln k)^(2/p) and the rho tail is 2^(1-k), so
    the tail product theta_(k+1)^(p/(p-1)) 2^(1-k) at checkpoint k is
    exactly 4 (ln(k+1))^(-2/(p-1)): it decays to 0, like a power of
    1/ln k.  Past k = 10^3 the raw count exceeds 2^50 for every p here,
    the ceiling is dropped, and the quadratic term theta_k^2 N_k^(1/2)
    rho_k is exactly k^(-1/p) (ln k)^(-4/p).  That series diverges, but
    its partial sums grow only like K^(1-1/p) / ((1-1/p) (ln K)^(4/p)),
    below the dr_threshold growth factor over 10^3..10^6; the report must
    then say "inconclusive at this range", never "diverges".  The
    main-series increments stay within a factor 2 of 1/(k log^2 k).
    """
    t0 = time.monotonic()
    rel_tol = 1e-8
    dr_threshold = 5.0

    def model_sum(a: int, b: int) -> float:
        k = np.arange(a, b + 1, dtype=np.float64)
        return float(np.sum(1.0 / (k * np.log(k) ** 2)))

    def tail_closed_form(k: int, p: float) -> float:
        return 4.0 * math.log(k + 1) ** (-2.0 / (p - 1.0))

    def quad_closed_sum(a: int, b: int, p: float) -> float:
        k = np.arange(a, b + 1, dtype=np.float64)
        return math.fsum((k ** (-1.0 / p) * np.log(k) ** (-4.0 / p)).tolist())

    failures = []
    details = []
    for p in (1.2, 1.5, 1.8):
        fam = geometric_family(p)
        rep = prop23_report(fam, K_max=10**6, dr_threshold=dr_threshold)
        main = rep.context["main"]
        cps = main["checkpoints"]
        assert cps == [1000, 10_000, 100_000, 1_000_000]
        segments = [(fam.k_start, cps[0])] + [
            (cps[j - 1] + 1, cps[j]) for j in range(1, len(cps))
        ]
        ratios = [
            inc / model_sum(a, b) for inc, (a, b) in zip(main["increments"], segments)
        ]
        if not all(0.5 <= r <= 2.0 for r in ratios):
            failures.append(f"p={p}: increment/model ratio outside [0.5, 2]")

        tail = rep.context["tail_product"]
        tail_dev = max(
            abs(v / tail_closed_form(k, p) - 1.0) for v, k in zip(tail["values"], cps)
        )
        if not tail_dev <= rel_tol:
            failures.append(f"p={p}: tail product off its closed form by {tail_dev:.2e}")
        if not all(b < a for a, b in zip(tail["values"], tail["values"][1:])):
            failures.append(f"p={p}: tail product values not strictly decreasing")
        if tail["verdict"] != "tends to 0":
            failures.append(f"p={p}: tail verdict {tail['verdict']!r}")

        quad = rep.context["quadratic"]
        quad_dev = max(
            abs(inc / quad_closed_sum(a, b, p) - 1.0)
            for inc, (a, b) in zip(quad["increments"][1:], segments[1:])
        )
        if not quad_dev <= rel_tol:
            failures.append(f"p={p}: quadratic increments off closed form by {quad_dev:.2e}")
        sums = quad["partial_sums"]
        if not all(b > a for a, b in zip(sums, sums[1:])):
            failures.append(f"p={p}: quadratic partial sums not strictly increasing")
        growth = quad["growth_factor"]
        if not growth < dr_threshold:
            failures.append(f"p={p}: quadratic growth {growth:.4f} reaches the trend bar")
        if quad["verdict"] != "inconclusive at this range":
            failures.append(f"p={p}: quadratic verdict {quad['verdict']!r}")
        if _check_passed(rep, "quadratic series shows unbounded growth trend"):
            failures.append(f"p={p}: divergence claimed that the range does not show")

        details.append(
            f"p={p}: inc/model in [{min(ratios):.3f}, {max(ratios):.3f}], "
            f"closed-form rel dev tail {tail_dev:.1e} quad {quad_dev:.1e}, "
            f"growth {growth:.4f}"
        )

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _emit(7, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 30.0
    assert not failures, "; ".join(failures)


def test_criterion_8_exact_feasibility_boundaries():
    """Window nonemptiness reproduces the exponent boundaries exactly."""
    t0 = time.monotonic()

    # scaling-window length is positive iff p < r/(r-1), over 100 points
    feasible_a = 0
    points_a = 0
    for jp in range(1, 11):
        p = 1 + Fraction(jp, 11)
        for jr in range(10):
            r = 2 + Fraction(jr, 2)
            rep = validate_hypotheses({"p": p, "r": r}, "2.10")
            expected = p < r / (r - 1)
            assert _check_passed(rep, "window nonempty") == expected
            assert _check_passed(rep, "p < r/(r-1)") == expected
            points_a += 1
            feasible_a += bool(expected)
    assert points_a == 100
    assert 0 < feasible_a < 100  # the grid straddles the boundary

    # block-exponent window is positive iff q < (p-1)r/(r-1), over 100 points
    p = Fraction(9, 5)
    feasible_b = 0
    points_b = 0
    for jq in range(10):
        q = 1 + Fraction(jq, 20)
        for jr in range(10):
            r = 2 + Fraction(jr, 2)
            rep = validate_hypotheses({"q": q, "p": p, "r": r}, "2.11")
            expected = q < (p - 1) * r / (r - 1)
            assert _check_passed(rep, "window nonempty") == expected
            assert _check_passed(rep, "q < (p-1)r/(r-1)") == expected
            points_b += 1
            feasible_b += bool(expected)
    assert points_b == 100
    assert 0 < feasible_b < 100

    elapsed = time.monotonic() - t0
    _emit(
        8,
        True,
        f"window positivity matches the exact boundary on 100 + 100 rational "
        f"grid points ({feasible_a} and {feasible_b} feasible), {elapsed:.1f}s",
    )


def test_criterion_9_worker_count_never_changes_bytes(tmp_path):
    """Repeated runs are byte-identical at any worker count."""
    t0 = time.monotonic()
    runs = (("conditions", "tower-iplil", (1, 4)), ("clt", "clt-bounded-transfer", (1, 3)))
    compared = 0
    for subcommand, preset, workers in runs:
        payloads = []
        hashes = []
        for w in workers:
            out = tmp_path / f"{preset}-w{w}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(
                    [
                        subcommand,
                        "--preset",
                        preset,
                        "--seed",
                        str(SEED),
                        "--workers",
                        str(w),
                        "--out",
                        str(out),
                    ]
                )
            assert rc == 0
            payloads.append(
                {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            )
            hashes.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
        assert payloads[0], f"{subcommand} produced no artifacts"
        assert payloads[0] == payloads[1]
        assert hashes[0] == hashes[1]
        compared += len(payloads[0])
    elapsed = time.monotonic() - t0
    _emit(
        9,
        True,
        f"{compared} artifacts byte-identical across worker counts for "
        f"2 subcommands, {elapsed:.1f}s",
    )
