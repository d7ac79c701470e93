"""Record the references that ``run.py`` checks every operation against.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  For each workload (all by default) it runs one pass per seed of
``SEED_POOL`` (one pass in all for a seedless workload) and writes
``refs/<workload>.json``: per operation and seed, or once under
``"seedless"``, the exit code, the verdict lines and the artifact digests,
plus the full ``report.json`` of operations that are not byte-identical.
A seedless operation whose outputs differ between passes is reported as
nondeterministic and nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Any, Dict

import check
from run import HERE, child_env, run_pass, work_dir
from workloads import SEED_POOL, WORKLOADS


def record(workload: str, tmp: Path) -> Dict[str, Any]:
    ops = WORKLOADS[workload]
    seeds = SEED_POOL if any(op.seeded for op in ops) else SEED_POOL[:1]
    refs: Dict[str, Any] = {"workload": workload, "ops": {op.key: {} for op in ops}}
    for seed in seeds:
        out_dir = tmp / str(seed)
        result = run_pass(workload, seed, out_dir, child_env(tmp), traced=False)
        if result is None:
            raise SystemExit(f"{workload}: pass with seed {seed} failed")
        for index, (op, rec) in enumerate(zip(ops, result["ops"])):
            seen = check.observe(rec["exit"], rec["stdout"], out_dir / str(index))
            if not op.byte_identical:
                seen["report"] = json.loads((out_dir / str(index) / "report.json").read_text())
            slot = str(seed) if op.seeded else "seedless"
            if refs["ops"][op.key].setdefault(slot, seen) != seen:
                raise SystemExit(f"{workload}: {op.key} is nondeterministic")
        shutil.rmtree(out_dir)
        print(f"{workload}: seed {seed} recorded", flush=True)
    return refs


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    with work_dir() as tmp:
        for name in names:
            refs = record(name, tmp)
            path = HERE / "refs" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
