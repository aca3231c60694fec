"""What the benchmark harness in ``perfbench/`` needs from graphdet.

``perfbench/child.py`` runs one pass of a workload, and in a traced pass
``perfbench/layers.py`` wraps or reads graphdet's names by their spelling.
A rename would break every pass or quietly drop a layer from the traced
numbers, so one traced pass runs here, and the names are checked directly.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from graphdet import graphs, verify
from graphdet.algebra import GradedElement, theta

ROOT = Path(__file__).resolve().parent.parent


def test_traced_theta_pass():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src, PERFBENCH_SRC=src)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", "theta-n4", "--seed", "0", "--jobs", "1", "--trace"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    reports = [line["report"] for line in lines if "report" in line]
    marks = [line["marks"] for line in lines if "marks" in line]
    assert [r["status"] for r in reports] == ["fail"]
    assert len(reports[0]["failures"]) == 1284
    assert len(marks) == 1 and "layers" in marks[0]


def test_names_the_tracer_wraps_or_reads():
    assert callable(verify._classify_key)
    assert isinstance(graphs._DIR_CACHE, dict)
    th = theta(2)
    assert isinstance(th, GradedElement) and isinstance(th.parts, dict)
    assert "jobs" in inspect.signature(verify.run_check).parameters
