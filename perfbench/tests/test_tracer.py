"""Self-tests of the benchmark's tracer, output check and metric lists.

    python3 -m pytest perfbench/tests

The repository's own suite collects only ``tests/``, so these do not add to
its run time.
"""

from __future__ import annotations

import copy
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import coblim  # noqa: E402
import coblim.cli as cli  # noqa: E402
import check  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = ("_calls", "_drawn", "_steps", "_updates", "_jumps", "_evals", "_points",
                  "orbit_cells", "orbit_bytes_computed", ".terms")

# Small versions of every workload's operations, so that each counter moves.
SMALL_OPS = (
    ("conditions", "tower-slln", {"paths": {"count": 1000}}),
    ("clt", "clt-bounded-transfer", {"paths": {"count": 200}}),
    ("maximal", "maximal-smoke", {"paths": {"count": 1}}),
    ("series", "series-327", {}),
    ("counterexample", "tower-slln", {}),
    ("validate", "windows-slln", {}),
    ("criteria", "criteria-affine", {}),
)


def _coblim_modules():
    for info in pkgutil.iter_modules(coblim.__path__):
        importlib.import_module(f"coblim.{info.name}")
    return [m for name, m in sys.modules.items() if name == "coblim" or name.startswith("coblim.")]


def _snapshot():
    return {m.__name__: dict(vars(m)) for m in _coblim_modules()}


def _traced_run(tmp_path: Path, tag: str) -> dict:
    tracer = Tracer()
    with tracer:
        for index, (sub, preset, override) in enumerate(SMALL_OPS):
            config = tmp_path / f"{tag}-{index}.json"
            config.write_text(json.dumps({"preset": preset, **override}))
            code = tracer.call(f"{OP_SPAN}{sub}.{preset}", cli.run, sub,
                               config_path=str(config), out_dir=str(tmp_path / f"{tag}-{index}"),
                               workers=1)
            assert code == 0
    return tracer.metrics(f"{sub}.{preset}" for sub, preset, _ in SMALL_OPS)


def _assert_restored(before: dict) -> None:
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert not changed, f"{name}: not restored: {changed}"


def test_every_patched_attribute_is_restored(tmp_path, capsys):
    before = _snapshot()
    tracer = Tracer().install()
    try:
        assert cli.exact_norms is not before["coblim.cli"]["exact_norms"]
        assert cli.make_function is not before["coblim.cli"]["make_function"]
        assert coblim.weak_norm is not before["coblim"]["weak_norm"]
        maximal = sys.modules["coblim.maximal"]
        assert maximal.weak_norm is coblim.weak_norm
    finally:
        tracer.uninstall()
    _assert_restored(before)

    _traced_run(tmp_path, "run")
    _assert_restored(before)

    with pytest.raises(RuntimeError, match="boom"):
        with Tracer():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_counts_repeat_exactly(tmp_path, capsys):
    first = _traced_run(tmp_path, "a")
    second = _traced_run(tmp_path, "b")
    counts = {k: v for k, v in first.items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second[k] for k in counts}
    for name in ("dynamics.stream_generator_calls", "dynamics.fair_bits_drawn",
                 "dynamics.coordinate_matrix_steps", "mc_harness.orbit_cells",
                 "maximal.mstar_updates", "weak_tails.weak_norm_jumps", "series_checker.terms",
                 "bernoulli_criteria.criterion_integral_evals",
                 "bernoulli_criteria.evaluator_points"):
        assert counts[name] > 0, name
    assert first["mc_harness.orbit_bytes_computed"] == 8 * first["mc_harness.orbit_cells"]


def test_benchmark_lists_agree_with_the_tracer_and_predictions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH / "predictions.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: v["unit"] for k, v in predictions["per_layer"].items()}
    assert [w["name"] for w in spec["workloads"]] == list(predictions["workloads"])
    emitted = Tracer().metrics(op.key for ops in WORKLOADS.values() for op in ops)
    assert set(per_layer) - set(emitted) == {"trace.overhead_s"}


def test_quadrature_check_uses_the_reported_error():
    refs = json.loads((BENCH / "refs" / "exact-quad.json").read_text())
    ref = refs["ops"]["criteria.criteria-affine"]["seedless"]["report"]
    assert check._compare_report(copy.deepcopy(ref), ref) == []

    integral = ref["context"]["moment_integral"]["context"]["direct_integral"]
    within = copy.deepcopy(ref)
    within["context"]["moment_integral"]["context"]["direct_integral"]["value"] += \
        1.5 * integral["error"]
    assert check._compare_report(within, ref) == []
    beyond = copy.deepcopy(ref)
    beyond["context"]["moment_integral"]["context"]["direct_integral"]["value"] += \
        3 * integral["error"]
    assert check._compare_report(beyond, ref)

    flipped = copy.deepcopy(ref)
    flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
    assert check._compare_report(flipped, ref)
