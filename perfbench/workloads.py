"""The benchmark's workloads: which CLI operations each one runs.

An operation is one ``coblim.cli.run`` call with a preset.  Only the
seeded subcommands (``conditions``, ``clt``, ``maximal``) receive the
workload seed.  ``counterexample``, ``series``, ``validate`` and
``criteria`` are seedless: their outputs are the same for every benchmark
seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Op(NamedTuple):
    subcommand: str
    preset: str

    @property
    def key(self) -> str:
        return f"{self.subcommand}.{self.preset}"

    @property
    def seeded(self) -> bool:
        return self.subcommand in SEEDED_SUBCOMMANDS

    @property
    def byte_identical(self) -> bool:
        """Whether the artifacts must match the reference byte for byte.

        The quadrature criteria are checked on exit code, verdicts and values
        within their reported quadrature error instead (see check.py).
        """
        return self.subcommand != "criteria"


SEEDED_SUBCOMMANDS = frozenset({"conditions", "clt", "maximal"})

# Program seeds with recorded references.  Benchmark seed s runs the seeded
# operations with seeds from this pool (see run.program_seed), so every run
# can be checked byte for byte; the first entry is the CLI's default seed.
SEED_POOL = (
    20260814,
    5820497035323295070,
    8682561957280888477,
    5443664500891265017,
    390070061541184897,
    9145010299966173494,
    6174688800210184872,
    3146266297491272527,
)

# Three workloads, so that each run can measure for 40 s: the exact
# enumeration and the quadrature presets share one workload because, run
# apart, the short quadrature workload's run-to-run spread exceeded its
# bound.  criteria-weierstrass is left out: it takes the same quadrature path
# as the presets kept, but one pass costs about a minute.
WORKLOADS: Dict[str, List[Op]] = {
    "odometer-mc": [
        Op("conditions", "tower-iplil"),
        Op("conditions", "tower-slln"),
    ],
    "shift-clt": [
        Op("clt", "clt-rademacher"),
        Op("clt", "clt-bounded-transfer"),
    ],
    "exact-quad": [
        Op("maximal", "maximal-smoke"),
        Op("counterexample", "tower-iplil"),
        Op("counterexample", "tower-slln"),
        Op("series", "series-327"),
        Op("validate", "windows-iplil"),
        Op("validate", "windows-slln"),
        Op("criteria", "criteria-affine"),
        Op("criteria", "criteria-cosine"),
        Op("criteria", "criteria-step"),
    ],
}
