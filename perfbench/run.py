"""Benchmark of the coblim command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats passes over the workload's
CLI operations (see ``workloads.py``) for about S seconds.  Each pass is a
fresh interpreter (``child.py``), started one at a time, that imports
``coblim.cli`` from ``src``, runs every operation with ``workers=1`` and
writes its artifacts under a temporary directory inside ``.perfbench_work``,
which is removed again.  Every operation is checked against the reference
recorded for its seed (``check.py``, ``refs/``).  The seeded operations get
seeds from ``SEED_POOL``, chosen by N (see ``program_seed``).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, each the median over the run:

* ``wall_s``       wall time of one pass, measured in the child after import
* ``setup_s``      a fresh interpreter importing ``coblim.cli`` and resolving
                   the workload's presets, timed from start to exit
* ``peak_rss_mb``  peak resident memory of the child over one pass
* ``ok_ratio``     CLI runs that passed the check over CLI runs attempted,
                   i.e. ``1 - failed_ratio``

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``; ``trace.overhead_s`` is the traced minus
the untraced median pass time.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
machine and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

import check
from workloads import SEED_POOL, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# A run stops its children once this many seconds have passed, so that it
# always ends inside three minutes.
RUN_LIMIT_S = 160
# One child runs at a time; single-threaded BLAS/OpenMP keeps it on one of
# the machine's CPUs and at or below nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory under ``.perfbench_work``, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["TMPDIR"] = str(tmp)
    return env


def run_child(workload: str, seed: int, out_dir: Path, env: Dict[str, str],
              timeout: float, *flags: str) -> subprocess.CompletedProcess:
    """Run ``child.py`` to completion; on timeout it is killed and reaped."""
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out_dir), *flags],
        env=env, capture_output=True, text=True, timeout=timeout, check=False,
    )


def run_pass(workload: str, seed: int, out_dir: Path, env: Dict[str, str],
             traced: bool, timeout: float = CHILD_TIMEOUT_S) -> Optional[Dict[str, Any]]:
    """One pass; its parsed result, or None (with the reason on stderr)."""
    try:
        proc = run_child(workload, seed, out_dir, env, timeout,
                         *(["--trace"] if traced else []))
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def program_seed(seed: int, index: int, trace: int) -> int:
    """Seed of the seeded operations in pass ``index`` of a run with ``--seed``.

    Untraced passes step through the pool, so that the run's median pass
    covers several inputs whose cost differs (``maximal`` does more exact
    work on some seeds than on others).  Traced passes keep one seed, so that
    their counts must repeat exactly.
    """
    return SEED_POOL[(seed + (0 if trace else index)) % len(SEED_POOL)]


def reference(refs: Dict[str, Any], op: Op, seed: int) -> Dict[str, Any]:
    return refs["ops"][op.key][str(seed) if op.seeded else "seedless"]


def failed_ops(workload: str, refs: Dict[str, Any], seed: int,
               result: Dict[str, Any], out_dir: Path) -> int:
    """Check each operation of a pass; print what differs and count failures."""
    failed = 0
    for index, (op, rec) in enumerate(zip(WORKLOADS[workload], result["ops"])):
        op_dir = out_dir / str(index)
        seen = check.observe(rec["exit"], rec["stdout"], op_dir)
        problems, notes = check.check_op(op.byte_identical, reference(refs, op, seed),
                                         seen, op_dir)
        for note in notes:
            print(f"note: {op.key}: {note}")
        if problems:
            failed += 1
            for problem in problems[:10]:
                print(f"FAILED {op.key}: {problem}", file=sys.stderr)
    return failed


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: Sequence[float]) -> str:
    text = f"n={len(values)} [" + " ".join(f"{v:.4g}" for v in values) + "]"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" median {median(values):.6g}, quartiles {q1:.6g} .. {q3:.6g}"
    return text


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coblim" / "cli.py").is_file():
        print(f"no coblim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text(encoding="utf-8"))
    n_ops = len(WORKLOADS[args.workload])

    setup: List[float] = []
    walls = {False: [], True: []}
    rss: List[float] = []
    layers: List[Dict[str, float]] = []
    seeds: List[int] = []
    versions: Dict[str, str] = {}
    attempted = failed = 0
    with work_dir() as tmp:
        env = child_env(tmp)
        start = perf_counter()

        def time_left() -> float:
            return max(1.0, start + RUN_LIMIT_S - perf_counter())

        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                t0 = perf_counter()
                try:
                    proc = run_child(args.workload, SEED_POOL[0], tmp / "setup", env,
                                     time_left(), "--setup-only")
                except subprocess.TimeoutExpired:
                    print("set-up timed out", file=sys.stderr)
                    return 1
                if proc.returncode != 0:
                    print(proc.stderr[-3000:], file=sys.stderr)
                    return 1
                setup.append(perf_counter() - t0)
        while True:
            index = len(seeds)
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            seed = program_seed(args.seed, index, args.trace)
            seeds.append(seed)
            out_dir = tmp / f"pass{index}"
            t0 = perf_counter()
            result = run_pass(args.workload, seed, out_dir, env, traced, time_left())
            attempted += n_ops
            if result is None:
                failed += n_ops
            else:
                failed += failed_ops(args.workload, refs, seed, result, out_dir)
                walls[traced].append(result["wall_s"])
                rss.append(result["peak_rss_mb"])
                versions = result["versions"]
                if traced:
                    layers.append(result["layers"])
            shutil.rmtree(out_dir, ignore_errors=True)
            last = perf_counter() - t0
            enough = walls[False] and (layers or not args.trace)
            if result is None or (enough and perf_counter() - start + last > args.seconds):
                break

    correct = failed == 0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values: Dict[str, float] = {}
        for name, unit in units.items():
            if name == "trace.overhead_s":
                values[name] = median(walls[True]) - median(walls[False])
            elif unit == "s":
                values[name] = median([pass_layers[name] for pass_layers in layers])
            else:
                counts = {pass_layers[name] for pass_layers in layers}
                if len(counts) > 1:
                    print(f"FAILED {name}: counts differ between traced passes: {sorted(counts)}",
                          file=sys.stderr)
                    correct = False
                values[name] = min(counts) if counts else 0
        samples = {"wall_s": walls[False], "traced_wall_s": walls[True]}
    else:
        values = {
            "wall_s": median(walls[False]),
            "setup_s": median(setup),
            "peak_rss_mb": median(rss),
            "ok_ratio": (attempted - failed) / attempted,
        }
        samples = {"wall_s": walls[False], "setup_s": setup, "peak_rss_mb": rss}

    print(f"machine: cpu={cpu_model()!r} nproc={len(os.sched_getaffinity(0))} "
          f"blas_threads={THREADS} " + " ".join(f"{k}={v}" for k, v in sorted(versions.items())))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} program_seeds={','.join(map(str, seeds))}")
    for name, vals in samples.items():
        print(f"  {name}: {describe(vals)}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} CLI runs failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
