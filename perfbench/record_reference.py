"""Record the reference verdicts that run.py checks every pass against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs, with jobs=1, every cell any workload can select under any seed: the
default suite grid, ``theta`` at n = 4, ``minor_pairing`` at n = 5 and
``kirchhoff_codim1`` at n = 7 for every index pair.  A verdict is the
report's status, sign and failure list; ``total_cases``, ``notes`` and
``elapsed_ms`` are left out on purpose.  Writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    from graphdet import verify

    suite = verify.suite_cells(verify.SuiteConfig())
    extra = workloads.cells("theta-n4", 0, ()) + [
        ("minor_pairing", {"n": 5})
    ] + [
        ("kirchhoff_codim1", {"n": workloads.KIRCHHOFF_N, "i": i, "j": j})
        for i, j in workloads.KIRCHHOFF_PAIRS
    ]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    lines = []
    for in_suite, cells in ((True, suite), (False, extra)):
        for name, params in cells:
            r = verify.run_check(name, params)
            entry = {
                "check": name, "params": params, "suite": in_suite,
                "status": r.status, "sign": r.sign, "failures": r.failures,
            }
            lines.append(json.dumps(entry, separators=(",", ":")))
            print(f"{r.status:15s} {name} {params}", file=sys.stderr)
    head = json.dumps({"commit": commit, "python": platform.python_version()})
    text = head[:-1] + ',\n"cells": [\n' + ",\n".join(lines) + "\n]}\n"
    (HERE / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
