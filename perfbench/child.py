"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR [--trace] [--setup-only]

Imports ``coblim.cli`` from the checkout's ``src``, resolves the preset of
every operation of WORKLOAD, and (unless ``--setup-only``) runs each
operation through ``coblim.cli.run`` with ``workers=1`` and its artifacts
in ``OUT_DIR/<index>``.  SEED goes only to the seeded subcommands.  The
last line of standard output is a JSON object: per operation the exit
code and captured standard output; the wall time of the whole pass after
import; the peak resident memory of this process; and, with
``--trace``, the per-layer figures of ``tracer.Tracer``.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import coblim.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"coblim imported from {cli.__file__}, not from {SRC}")
    ops = WORKLOADS[args.workload]
    for op in ops:
        cli.resolve_config(op.subcommand, None, op.preset, args.seed if op.seeded else None, 1)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import OP_SPAN, Tracer

        tracer = Tracer()
    results = []
    t_pass = perf_counter()
    with tracer if tracer is not None else nullcontext():
        for index, op in enumerate(ops):
            kwargs = dict(out_dir=str(Path(args.out_dir) / str(index)), preset=op.preset,
                          seed=args.seed if op.seeded else None, workers=1)
            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    if tracer is None:
                        code = cli.run(op.subcommand, **kwargs)
                    else:
                        code = tracer.call(OP_SPAN + op.key, cli.run, op.subcommand, **kwargs)
                except cli.ConfigError as exc:  # what cli.main reports as exit code 2
                    print(f"config error: {exc}")
                    code = 2
            results.append({"exit": code, "stdout": buf.getvalue()})
    wall = perf_counter() - t_pass

    import numpy
    import scipy

    out = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(op.key for ops_ in WORKLOADS.values() for op in ops_)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
