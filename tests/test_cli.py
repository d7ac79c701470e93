"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import coblim.maximal as maximal
from coblim.cli import DEFAULT_SEED, PRESETS, SECTION_KEYS, SUBCOMMANDS, main
from coblim.reports import csv_text, plot_text

# sha256 of every artifact of the benchmark operations, recorded by the
# benchmark (see perfbench/record_refs.py); read here, never copied.
REFS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "refs"
# The second entry of the benchmark's seed pool (perfbench/workloads.py).
SECOND_SEED = 5820497035323295070


def run_cli(*args):
    return main(list(args))


def read_json(path: Path):
    return json.loads(path.read_text())


def preset_digests(tmp_path: Path, subcommand: str, preset: str, *args: str):
    """sha256 of every artifact but the manifest of one preset run."""
    out = tmp_path / "run"
    run_cli(subcommand, "--preset", preset, "--out", str(out), *args)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# exit codes on the documented examples
# ---------------------------------------------------------------------------

def test_validate_preset_exits_zero(tmp_path, capsys):
    code = run_cli("validate", "--preset", "windows-iplil", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "0.333333" in out and "0.4" in out
    report = read_json(tmp_path / "report.json")
    assert report["all_passed"] is True


def test_maximal_resource_guard_exits_two(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"system": {"bits": 21}, "preset": "maximal-smoke"}))
    code = run_cli("maximal", "--config", str(config), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert "resource guard: B=21 exceeds 20" in err


@pytest.mark.parametrize("level", [0, -1, 21])
def test_maximal_level_guard_anchored_before_drawing(tmp_path, capsys, monkeypatch, level):
    # the level is refused at its own line before a single numerator is drawn
    def no_draws(*args):
        raise AssertionError("level function drawn before the level check")

    monkeypatch.setattr(maximal, "stream_generator", no_draws)
    config = tmp_path / "level.json"
    config.write_text(json.dumps({"preset": "maximal-smoke", "system": {"level": level}},
                                 indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"level"' in text)
    out = tmp_path / "run"
    code = run_cli("maximal", "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"level.json:{line}: level i = {level} invalid: need 1 <= i <= 20" in err
    assert not out.exists()


@pytest.mark.parametrize("bits,message", [
    (21, "resource guard: B=21 exceeds 20"),
    (6, "level resolution i=8 exceeds precision B=6"),
])
def test_maximal_bits_errors_anchored_at_bits_line(tmp_path, capsys, bits, message):
    config = tmp_path / "bits.json"
    config.write_text(json.dumps({"preset": "maximal-smoke",
                                  "system": {"level": 8, "bits": bits}}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"bits"' in text)
    assert line > 1
    out = tmp_path / "run"
    code = run_cli("maximal", "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"bits.json:{line}: {message}" in err
    assert not out.exists()


class _Drawn(Exception):
    """Raised by the stubbed level function: the run got past every guard."""


@pytest.mark.parametrize("bits", [20, 21])
def test_maximal_bits_guard_edges_checked_before_drawing(tmp_path, capsys, monkeypatch, bits):
    # at level 20 one draw holds 2^20 numerators, so bits 21 must be refused
    # before the first draw; the stub fails the test if it is reached there,
    # and at bits 20 it stops the accepted run before it allocates anything
    def drawn(*args, **kwargs):
        raise _Drawn

    monkeypatch.setattr("coblim.cli.random_level_function", drawn)
    config = tmp_path / "bits.json"
    config.write_text(json.dumps({"preset": "maximal-smoke",
                                  "system": {"level": 20, "bits": bits}}, indent=1))
    out = tmp_path / "run"
    if bits == 20:
        with pytest.raises(_Drawn):
            run_cli("maximal", "--config", str(config), "--out", str(out))
        return
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"bits"' in text)
    code = run_cli("maximal", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"bits.json:{line}: resource guard: B=21 exceeds 20" in capsys.readouterr().err
    assert not out.exists()


def test_maximal_n_max_overflow_anchored_at_its_line(tmp_path, capsys):
    # the int64 guard of the enumeration refuses n_max at the horizons line
    config = tmp_path / "nmax.json"
    config.write_text(json.dumps({"preset": "maximal-smoke",
                                  "horizons": {"n_max": 5_000_000}}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"n_max"' in text)
    assert line > 1
    out = tmp_path / "run"
    code = run_cli("maximal", "--config", str(config), "--out", str(out))
    assert code == 2
    assert (f"nmax.json:{line}: n_max too large for exact int64 streaming"
            in capsys.readouterr().err)
    assert not out.exists()


class _Built(Exception):
    """Raised by the stubbed residue table: the run got past every guard."""


def _no_table(*args, **kwargs):
    raise _Built


@pytest.mark.parametrize("i_max", [24, 25])
def test_conditions_table_guard_edges_checked_before_building(tmp_path, capsys, monkeypatch,
                                                               i_max):
    # the residue table of g holds 2^i_max entries, so i_max 25 must be
    # refused before it is built; the stub fails the test if it is reached
    # there, and at i_max 24 it stops the accepted run before the table is
    # filled
    monkeypatch.setattr("coblim.mc_harness.g_residue_table", _no_table)
    config = tmp_path / "imax.json"
    config.write_text(json.dumps({"preset": "tower-iplil",
                                  "system": {"bits": 26, "i_max": i_max}}, indent=1))
    out = tmp_path / "run"
    if i_max == 24:
        with pytest.raises(_Built):
            run_cli("conditions", "--config", str(config), "--out", str(out))
        return
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"i_max"' in text)
    code = run_cli("conditions", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"imax.json:{line}: resource guard: i_max=25 exceeds 24" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizons, message", [
    ([8, 64], "first horizon must be >= 16"),
    ([17, 18], "no complete blocks inside the horizon range"),
], ids=["first-below-16", "no-block"])
def test_conditions_horizon_preconditions_checked_before_the_table(tmp_path, capsys,
                                                                   monkeypatch, horizons,
                                                                   message):
    # condition17's preconditions are refused at the horizons line before the
    # table of g is built and condition16's pass runs
    monkeypatch.setattr("coblim.mc_harness.g_residue_table", _no_table)
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"preset": "tower-iplil", "horizons": {"n": horizons}},
                                 indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"n"' in text)
    assert line > 1
    out = tmp_path / "run"
    code = run_cli("conditions", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"short.json:{line}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_conditions_alpha_refused_at_its_line_before_the_table(tmp_path, capsys, monkeypatch):
    # slln_report reads alpha last; an alpha outside [1/p, 1] is refused at
    # its own line before the table of g is built and any report runs
    monkeypatch.setattr("coblim.mc_harness.g_residue_table", _no_table)
    config = tmp_path / "alpha.json"
    config.write_text(json.dumps({"preset": "tower-slln", "exponents": {"slln_alpha": 0.1}},
                                 indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"slln_alpha"' in text)
    assert line > 1
    out = tmp_path / "run"
    code = run_cli("conditions", "--config", str(config), "--out", str(out))
    assert code == 2
    assert (f"alpha.json:{line}: alpha=0.1 outside [1/p, 1] = [0.555556, 1]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_series_preset_exits_zero_with_three_verdicts(tmp_path, capsys):
    code = run_cli("series", "--preset", "series-327", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "converges" in out
    assert "tends to 0" in out
    assert "inconclusive at this range" in out


def test_validate_failing_window_exits_one(tmp_path):
    config = tmp_path / "w.json"
    config.write_text(json.dumps({
        "preset": "windows-iplil",
        "system": {"theorems": ["2.1", "2.10"]},
    }))
    code = run_cli("validate", "--config", str(config), "--out", str(tmp_path / "run"))
    assert code == 1  # the 2.1 window is degenerate-empty at (1.2, 4)


def test_validate_reads_decimal_string_exponents(tmp_path):
    config = tmp_path / "frac.json"
    config.write_text(json.dumps({"system": {"theorems": ["2.10"]},
                                  "exponents": {"p": "6/5", "r": 4.0}}))
    out = tmp_path / "run"
    assert run_cli("validate", "--config", str(config), "--out", str(out)) == 0
    assert "p = 6/5, r = 4" in (out / "windows.csv").read_text()


def test_validate_refuses_boolean_exponent_at_its_line(tmp_path, capsys):
    # JSON true is not the exponent 1
    config = tmp_path / "bool.json"
    config.write_text(json.dumps({"exponents": {"p": True, "r": 4.0}}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"p"' in text)
    out = tmp_path / "run"
    code = run_cli("validate", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"bool.json:{line}: exponents.p must be int/float/str, got a boolean" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("theorem, exponents", [
    ("2.10", {"p": 1.2, "r": 1}),
    ("2.11", {"q": 1.1, "p": 1.2, "r": 1}),
    ("2.11", {"q": 1.1, "p": 0, "r": 3.0}),
], ids=["iplil-r1", "slln-r1", "slln-p0"])
def test_validate_refuses_exponents_on_a_pole_at_their_line(tmp_path, capsys, theorem,
                                                            exponents):
    # r = 1 or p = 0 puts a boundary formula of the shared rule on a pole
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({"system": {"theorems": [theorem]},
                                  "exponents": exponents}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"exponents"' in text)
    out = tmp_path / "run"
    code = run_cli("validate", "--config", str(config), "--out", str(out))
    assert code == 2
    assert f"pole.json:{line}: window {theorem}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["counterexample", "conditions"])
def test_boundary_exponents_refused_at_system_line(tmp_path, capsys, subcommand):
    # q = (p-1)r/(r-1) = 21/20 exactly: the window of the slln kind is empty
    config = tmp_path / "edge.json"
    config.write_text(json.dumps({
        "system": {"name": "odometer", "kind": "slln", "bits": 16, "i0": 4, "i_max": 12},
        "exponents": {"q": 1.05, "p": 1.3, "r": 1.4},
    }, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"system"' in text)
    out = tmp_path / "run"
    code = run_cli(subcommand, "--config", str(config), "--out", str(out))
    assert code == 2
    assert (f"edge.json:{line}: counterexample construction rejected: "
            f"feasibility fails: q < (p-1)r/(r-1)") in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config loading and line-anchored errors
# ---------------------------------------------------------------------------

def test_malformed_json_reports_line(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{\n  "system": {\n  "oops"\n}\n')
    code = run_cli("series", "--config", str(config), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err
    assert "bad.json:4:" in err or "bad.json:3:" in err


def test_unknown_top_level_key_anchored(tmp_path, capsys):
    config = tmp_path / "extra.json"
    config.write_text('{\n  "preset": "series-327",\n  "horizon": 12\n}\n')
    code = run_cli("series", "--config", str(config), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 2
    assert "horizon" in err
    assert "extra.json:3:" in err


def test_wrong_type_anchored(tmp_path, capsys):
    config = tmp_path / "type.json"
    config.write_text(json.dumps({
        "preset": "series-327",
        "exponents": {"p": "one-point-five"},
    }, indent=1))
    code = run_cli("series", "--config", str(config), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 2
    assert '"p"' in err or "exponents.p" in err


def test_unknown_preset_rejected(tmp_path, capsys):
    code = run_cli("series", "--preset", "mystery", "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "preset" in err


def test_bad_seed_rejected(tmp_path, capsys):
    code = run_cli("series", "--preset", "series-327", "--seed", "-3",
                   "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "seed" in err


def test_every_subcommand_has_a_default_preset():
    assert set(SUBCOMMANDS) == {
        "counterexample", "conditions", "clt", "maximal", "criteria",
        "series", "validate",
    }
    for name, preset in PRESETS.items():
        assert isinstance(preset, dict), name


# ---------------------------------------------------------------------------
# artifacts and the run manifest
# ---------------------------------------------------------------------------

def test_maximal_run_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli("maximal", "--preset", "maximal-smoke", "--out", str(out))
    assert code == 0
    manifest = read_json(out / "manifest.json")
    for name in manifest["outputs"]:
        assert (out / name).exists(), f"manifest lists missing file {name}"
    assert "manifest.json" in manifest["outputs"]
    assert manifest["config_sha256"]
    report = read_json(out / "report.json")
    assert report["config_sha256"] == manifest["config_sha256"]
    # plain two-column plot data
    lines = (out / "mstar_tail_stream0.dat").read_text().strip().splitlines()
    rows = [ln.split() for ln in lines if not ln.startswith("#")]
    assert all(len(r) == 2 for r in rows)


def test_series_csv_shape(tmp_path):
    out = tmp_path / "run"
    assert run_cli("series", "--preset", "series-327", "--out", str(out)) == 0
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert lines[0] == "condition,K,value"
    assert len(lines) > 4


@pytest.mark.parametrize("subcommand,preset", [
    ("counterexample", "tower-iplil"),
    ("counterexample", "tower-slln"),
    ("series", "series-327"),
    ("validate", "windows-iplil"),
    ("validate", "windows-slln"),
    ("criteria", "criteria-affine"),
    ("criteria", "criteria-cosine"),
    ("criteria", "criteria-step"),
])
def test_seedless_artifacts_match_recorded_digests(tmp_path, subcommand, preset):
    refs = read_json(REFS_DIR / "exact-quad.json")["ops"][f"{subcommand}.{preset}"]
    assert preset_digests(tmp_path, subcommand, preset) == refs["seedless"]["digests"]


# criteria-weierstrass is not a benchmark operation, so perfbench/refs holds
# no digests for it; these were recorded from the per-panel quadrature that
# evaluated each 15-point rule in its own call.
WEIERSTRASS_DIGESTS = {
    "report.json": "10e18068f8de8234f3637627515d78edcdc3a6509e4fb57944a3248a2da49447",
    "projective_norms.csv": "ba491ac010d8bd67f41731fc49ed447a8c6353919f8b8248a263a7dc1cab016c",
    "projective_decay.dat": "df758eb632bdd62f077220e5625bfdc4f06ae11c0d514ec562afdd9919c34159",
}


def test_weierstrass_artifacts_match_recorded_digests(tmp_path):
    assert preset_digests(tmp_path, "criteria", "criteria-weierstrass") == WEIERSTRASS_DIGESTS


@pytest.mark.parametrize("workload,subcommand,preset", [
    ("odometer-mc", "conditions", "tower-iplil"),
    ("odometer-mc", "conditions", "tower-slln"),
    ("shift-clt", "clt", "clt-rademacher"),
    ("shift-clt", "clt", "clt-bounded-transfer"),
    ("exact-quad", "maximal", "maximal-smoke"),
])
def test_seeded_artifacts_match_recorded_digests(tmp_path, workload, subcommand, preset):
    # run at the CLI's default seed, one of the seeds the references cover;
    # the conditions and clt presets also at a second recorded seed
    refs = read_json(REFS_DIR / f"{workload}.json")["ops"][f"{subcommand}.{preset}"]
    assert preset_digests(tmp_path, subcommand, preset) == refs[str(DEFAULT_SEED)]["digests"]
    if subcommand in ("conditions", "clt"):
        digests = preset_digests(tmp_path / "second", subcommand, preset,
                                 "--seed", str(SECOND_SEED))
        assert digests == refs[str(SECOND_SEED)]["digests"]


def test_config_error_leaves_no_partial_output(tmp_path, capsys):
    # tail_start is rejected only after the norm table has been computed
    config = tmp_path / "late.json"
    config.write_text(json.dumps({"preset": "tower-iplil", "epsilons": {"tail_start": 99}}))
    out = tmp_path / "run"
    code = run_cli("counterexample", "--config", str(config), "--out", str(out))
    assert code == 2
    assert "tail_start 99 beyond last level" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("subcommand,preset,name", [
    ("conditions", "tower-iplil", "shift"),
    ("counterexample", "tower-slln", "shift"),
    ("maximal", "maximal-smoke", "shift"),
    ("clt", "clt-rademacher", "odometer"),
])
def test_system_name_must_match_subcommand(tmp_path, capsys, subcommand, preset, name):
    config = tmp_path / "system.json"
    config.write_text(json.dumps({"preset": preset, "system": {"name": name}}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"name"' in text)
    out = tmp_path / "run"
    code = run_cli(subcommand, "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"system.json:{line}: system.name = {name!r} invalid" in err
    assert not out.exists()


@pytest.mark.parametrize("values", [[True, 4.0], ["x"]], ids=["bool", "string"])
def test_malformed_epsilons_rejected_at_values_line(tmp_path, capsys, values):
    config = tmp_path / "eps.json"
    config.write_text(json.dumps({"preset": "tower-iplil", "epsilons": {"values": values}},
                                 indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"values"' in text)
    out = tmp_path / "run"
    code = run_cli("conditions", "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"eps.json:{line}: epsilons.values must be a nonempty list of positive numbers" in err
    assert not out.exists()


def test_presets_use_only_known_section_keys():
    for name, preset in PRESETS.items():
        for section, keys in preset.items():
            assert set(keys) <= set(SECTION_KEYS[section]), name


@pytest.mark.parametrize("section,key", [("paths", "cout"), ("function", "transfr"),
                                         ("paths", "n")])
def test_unknown_section_key_anchored(tmp_path, capsys, section, key):
    # horizons.n comes first, so paths.n must anchor at its own line
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"preset": "clt-rademacher", "horizons": {"n": [512]},
                                  section: {key: 500}}, indent=1))
    lines = config.read_text().splitlines()
    start = lines.index(f' "{section}": {{')
    line = next(i for i, text in enumerate(lines[start:], start=start + 1) if f'"{key}"' in text)
    out = tmp_path / "run"
    code = run_cli("clt", "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert f"typo.json:{line}: unknown config key {section}.{key}; allowed in" in err
    assert not out.exists()


def test_unknown_function_param_anchored(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"preset": "criteria-cosine",
                                  "function": {"family": "cosine", "params": {"kk": 3}}},
                                 indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"params"' in text)
    out = tmp_path / "run"
    code = run_cli("criteria", "--config", str(config), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert (f"params.json:{line}: function construction rejected: "
            f"cosine takes no parameter 'kk'") in err
    assert not out.exists()


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # importing scipy.ndimage takes about 0.2 s; neither the CLI nor the
    # odometer reports need it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, coblim.cli\n"
        "from coblim.counterexamples import build_tower_counterexample\n"
        "from coblim.mc_harness import (OdometerConfig, condition16_report,\n"
        "                               condition17_report, slln_report)\n"
        "cex = build_tower_counterexample('ip_lil', p=1.2, r=4.0, i_max=8, bits=12)\n"
        "cfg = OdometerConfig(cex=cex, horizons=(16, 64), paths=100, seed=1)\n"
        "for report in (condition16_report, condition17_report, slln_report):\n"
        "    report(cfg)\n"
        "print('scipy.ndimage' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded_and_out_of_the_manifest(tmp_path):
    # scipy is imported only by the lacunary family; the manifest names its
    # version once a run has imported it, and leaves it out before
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import json, sys, coblim.cli\n"
        "from coblim.bernoulli_criteria import make_function\n"
        "print('#', 'scipy' in sys.modules)\n"
        "for n in range(2):\n"
        f"    out = {str(tmp_path)!r} + f'/{{n}}'\n"
        "    assert coblim.cli.main(['validate', '--out', out]) == 0\n"
        "    print('#', sorted(json.load(open(out + '/manifest.json'))['versions']))\n"
        "    make_function('lacunary')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert [line for line in result.stdout.splitlines() if line.startswith("# ")] == [
        "# False", "# ['numpy', 'package', 'python']",
        "# ['numpy', 'package', 'python', 'scipy']"]


def test_cli_and_monte_carlo_reports_leave_scipy_special_unloaded():
    # importing scipy.special takes about 0.3 s; ks_statistic ports its ndtr
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, coblim.cli\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        "from coblim.counterexamples import build_tower_counterexample\n"
        "from coblim.mc_harness import (OdometerConfig, ShiftConfig, clt_lil_report,\n"
        "                               condition16_report, condition17_report, slln_report)\n"
        "cex = build_tower_counterexample('ip_lil', p=1.2, r=4.0, i_max=8, bits=12)\n"
        "cfg = OdometerConfig(cex=cex, horizons=(16, 64), paths=100, seed=1)\n"
        "for report in (condition16_report, condition17_report, slln_report):\n"
        "    report(cfg)\n"
        "clt_lil_report(ShiftConfig(horizons=(16, 64), paths=100, seed=1, function='cosine'))\n"
        "loaded.append('scipy.special' in sys.modules)\n"
        "print(loaded)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[False, False]"


def test_presets_leave_numpy_ma_and_scipy_special_unloaded(tmp_path):
    # numpy.ma (which np.quantile imports on first use) and scipy.special cost
    # 15-300 ms each; an odometer and a criteria preset must load neither
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, coblim.cli\n"
        f"for n, args in enumerate(({['conditions', '--preset', 'tower-slln']!r},\n"
        f"                          {['criteria', '--preset', 'criteria-affine']!r})):\n"
        f"    assert coblim.cli.main(args + ['--out', {str(tmp_path)!r} + f'/{{n}}']) == 0\n"
        "print([name in sys.modules for name in ('numpy.ma', 'scipy.special')])"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "[False, False]"


def test_csv_and_plot_cell_formats():
    row = [Fraction(3, 8), 0.1, np.float64(0.25), None, 7, "a b"]
    header = ["f", "x", "np", "none", "int", "s"]
    assert csv_text(header, [row], "\n") == "f,x,np,none,int,s\n3/8,0.1,np.float64(0.25),,7,a b\n"
    assert csv_text(header, [row], "\r\n") == (
        "f,x,np,none,int,s\r\n3/8,0.1,np.float64(0.25),,7,a b\r\n")
    assert csv_text(["a"], [], "\r\n") == "a\r\n"
    assert plot_text([1, Fraction(1, 3)], [Fraction(1, 2), 0.1]) == (
        "1 0.5\n" + repr(1 / 3) + " 0.1\n")


def test_default_outdir_is_hash_stamped(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_cli("validate", "--preset", "windows-slln")
    assert code == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    name = runs[0].name
    manifest = read_json(runs[0] / "manifest.json")
    assert name == f"validate-{manifest['config_sha256'][:12]}"


# ---------------------------------------------------------------------------
# determinism across worker counts and repeat runs
# ---------------------------------------------------------------------------

def artifact_bytes(out: Path):
    blobs = {}
    for p in sorted(out.iterdir()):
        if p.name == "manifest.json":
            continue  # wall-clock stamps live only here
        blobs[p.name] = p.read_bytes()
    return blobs


def test_counterexample_byte_identical_across_workers(tmp_path):
    config = tmp_path / "cex.json"
    config.write_text(json.dumps({
        "preset": "tower-iplil",
        "system": {"i_max": 14, "bits": 16},
        "horizons": {"n": [64, 256]},
    }))
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    assert run_cli("counterexample", "--config", str(config), "--out", str(out1),
                   "--workers", "1") == 0
    assert run_cli("counterexample", "--config", str(config), "--out", str(out2),
                   "--workers", "4") == 0
    a, b = artifact_bytes(out1), artifact_bytes(out2)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between worker counts"


def test_conditions_repeat_runs_identical(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "preset": "tower-iplil",
        "system": {"i_max": 12, "bits": 14},
        "horizons": {"n": [64, 256]},
        "paths": {"count": 400},
        "epsilons": {"values": [0.5, 2.0]},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("conditions", "--config", str(config), "--out", str(out1)) == 0
    assert run_cli("conditions", "--config", str(config), "--out", str(out2)) == 0
    assert artifact_bytes(out1) == artifact_bytes(out2)
    # the three probe reports share one experiment-config hash; the
    # cross-check report carries the CLI-level hash from the manifest
    shas = {
        read_json(out1 / name)["config_sha256"]
        for name in ("condition16.json", "condition17.json", "strong_law.json")
    }
    assert len(shas) == 1
    manifest_sha = read_json(out1 / "manifest.json")["config_sha256"]
    assert read_json(out1 / "mc_vs_exact.json")["config_sha256"] == manifest_sha


def test_seed_flag_changes_estimates_but_not_exact_values(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "preset": "tower-iplil",
        "system": {"i_max": 12, "bits": 14},
        "horizons": {"n": [64, 256]},
        "paths": {"count": 400},
        "epsilons": {"values": [4.0]},
    }))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("conditions", "--config", str(config), "--out", str(out1),
                   "--seed", "1") == 0
    assert run_cli("conditions", "--config", str(config), "--out", str(out2),
                   "--seed", "2") == 0
    r1 = read_json(out1 / "condition16.json")
    r2 = read_json(out2 / "condition16.json")
    exact_fields = ("n", "epsilon", "threshold", "exact_prob", "tower_bound")
    for a, b in zip(r1["exact_rows"], r2["exact_rows"]):
        for key in exact_fields:
            assert a[key] == b[key]
    assert r1["rows"] != r2["rows"]


# ---------------------------------------------------------------------------
# the remaining subcommands smoke through their presets
# ---------------------------------------------------------------------------

def test_clt_preset_runs(tmp_path, capsys):
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({
        "preset": "clt-rademacher",
        "horizons": {"n": [128, 512]},
        "paths": {"count": 400},
    }))
    code = run_cli("clt", "--config", str(config), "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert "ks" in out.lower()
    rows = read_json(tmp_path / "run" / "clt.json")["rows"]
    assert [r["n"] for r in rows] == [128, 512]


def test_clt_ignores_keys_only_the_odometer_reads(tmp_path):
    # the shift echo writes epsilons, block_exp and the exponents as
    # constants, so setting them changes no byte of clt.json
    config = tmp_path / "clt.json"
    config.write_text(json.dumps({"preset": "clt-rademacher",
                                  "epsilons": {"values": [0.2, 3.0]},
                                  "paths": {"block_exp": 0.25},
                                  "exponents": {"p": 1.5}}))
    out = tmp_path / "run"
    assert run_cli("clt", "--config", str(config), "--out", str(out)) == 0
    refs = read_json(REFS_DIR / "shift-clt.json")["ops"]["clt.clt-rademacher"]
    digest = hashlib.sha256((out / "clt.json").read_bytes()).hexdigest()
    assert digest == refs[str(DEFAULT_SEED)]["digests"]["clt.json"]


@pytest.mark.parametrize("horizons", [[8], [4, 12]])
def test_clt_short_top_horizon_exits_two(tmp_path, capsys, horizons):
    # a top horizon of 16 runs: tests/test_mc_harness.py::test_clt_accepts_top_horizon_16
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"preset": "clt-rademacher", "paths": {"count": 100},
                                  "horizons": {"n": horizons}}, indent=1))
    line = next(i for i, text in enumerate(config.read_text().splitlines(), start=1)
                if '"n"' in text)
    out = tmp_path / "run"
    code = run_cli("clt", "--config", str(config), "--out", str(out))
    assert code == 2
    assert (f"short.json:{line}: horizons {horizons}: the top horizon must be >= 16"
            in capsys.readouterr().err)
    assert not out.exists()


def test_criteria_preset_runs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("criteria", "--preset", "criteria-affine", "--out", str(out))
    assert code == 0
    report = read_json(out / "report.json")
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("[moment_integral]") for name in names)
    assert any(name.startswith("[corollary_2_2]") for name in names)
