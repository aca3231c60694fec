"""The benchmark's workloads and the inputs each seed selects.

Every workload is an exhaustive, deterministic enumeration; the seed only
chooses among inputs of the same size:

- both suite workloads run the default grid (max_n 3, max_k 4); the seed
  shuffles the cell order, and seed 0 keeps ``suite_cells()``'s own order,
  which is exactly ``graphdet suite``;
- ``minors-n5`` picks the ``kirchhoff-codim1`` index pair i != j at n = 7,
  and seed 0 gives 1/2;
- ``theta-n4`` has no free input and ignores the seed.

BENCHMARK.json gates ``suite-parallel`` and ``theta-n4`` only.  On a shared
2-CPU host a run needs about a minute of passes before its fastest pass
stops moving with other tenants' load, and the gate's run budget pays for
that on two workloads; ``suite-serial`` and ``minors-n5`` run the same way
by name, for the comparisons they were built for (pool gain against
``suite-serial``, determinant and class-sum work on ``minors-n5``).

This module imports nothing from graphdet, so the harness can use it
without paying the program's import cost.
"""

from __future__ import annotations

import json
import os
import random

KIRCHHOFF_N = 7
KIRCHHOFF_PAIRS = [
    (i, j)
    for i in range(1, KIRCHHOFF_N + 1)
    for j in range(1, KIRCHHOFF_N + 1)
    if i != j
]

NAMES = ("suite-serial", "suite-parallel", "theta-n4", "minors-n5")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def jobs(workload: str) -> int:
    """Worker count the workload passes to every check."""
    return nproc() if workload == "suite-parallel" else 1


def minors_pair(seed: int) -> tuple[int, int]:
    return KIRCHHOFF_PAIRS[seed % len(KIRCHHOFF_PAIRS)]


def cells(workload: str, seed: int, suite_cells) -> list[tuple[str, dict]]:
    """The (check, params) cells of one pass, in run order.

    ``suite_cells`` is the program's own grid, already listed; only the suite
    workloads use it.
    """
    if workload in ("suite-serial", "suite-parallel"):
        out = list(suite_cells)
        if seed:
            random.Random(seed).shuffle(out)
        return out
    if workload == "theta-n4":
        return [("theta", {"n": 4})]
    if workload == "minors-n5":
        i, j = minors_pair(seed)
        return [
            ("minor_pairing", {"n": 5}),
            ("kirchhoff_codim1", {"n": KIRCHHOFF_N, "i": i, "j": j}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cell_key(check: str, params: dict) -> str:
    """Order-free identity of a cell, as used in the reference file."""
    return json.dumps([check, params], sort_keys=True, separators=(",", ":"))
