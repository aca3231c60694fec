"""Cold-process verdict benchmark for graphdet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Every pass runs the workload in a fresh
interpreter (perfbench/child.py with PYTHONPATH=src), so graphdet's module
caches start empty, as they do for a CLI user.  Every verdict of every pass
is checked against perfbench/reference.json; on ``suite-parallel`` each
report must also equal, byte for byte apart from ``elapsed_ms``, the report
of a ``jobs=1`` pass over the same cells.  A cell that crashes, times out,
hits the enumeration cap or is missing counts as wrong.

Load model: a closed loop with one caller.  Passes run one at a time with
nothing else running; ``suite-parallel`` uses nproc workers.

With ``--trace 0`` the run makes as many passes as fit in ``--seconds`` (at
least MIN_PASSES).  ``verdict_s`` and ``cpu_s`` are the fastest pass: on a
shared host, contention from other tenants only ever adds time and comes
and goes within seconds, so the fastest of a run's passes is steadier than
their median.  ``peak_rss_mb`` is the median pass, and ``setup_s`` the
median over the passes plus SETUP_PROBES launches before each pass that
stop where the first cell would start.

With ``--trace 1`` an untraced pass is followed by two or more traced ones
(perfbench/layers.py); the per-layer metrics are medians over the traced
passes, every count must repeat exactly across them, and
``trace_overhead_s`` is the fastest traced minus the fastest untraced
verdict time.

The last line of stdout is one JSON object with the keys correct,
attempted (cells run), failed (wrong verdicts) and metrics.  The exit code
is 0 when that line is printed, whatever the verdicts, and 2 without it,
when the tree holds no graphdet sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 165  # no pass may run past this many seconds into the run
SETUP_PROBES = 2  # per pass, so that set-up is sampled across the whole run
MIN_PASSES = 2

END_TO_END = {
    "verdict_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

CHECKS = (
    "direct", "direct_prime", "mobius", "diag", "codim1", "expansion",
    "derivative", "minor_pairing", "kirchhoff_diag", "kirchhoff_codim1",
    "specval", "lapl_tutte", "theta", "operator_laws",
)


def _per_layer_units() -> dict[str, str]:
    import layers

    units = {"cli.import_s": "s"}
    for layer in layers.LAYERS:
        calls = "verify.cells" if layer == "verify.cell" else layers.metric_name(layer, "calls")
        units[calls] = "count"
        units[layers.metric_name(layer, "s")] = "s"
        units[layers.metric_name(layer, "self_s")] = "s"
    units["graphs.classify_cache_hit_ratio"] = "ratio"
    for name in layers.COUNTERS:
        if name != "graphs.classify_misses":
            units[name] = "s" if name.endswith("_s") else "count"
    for check in CHECKS:
        units[f"verify.check_s.{check}"] = "s"
    units["trace_overhead_s"] = "s"
    return units


@dataclass
class Pass:
    traced: bool
    wall_s: float
    setup_s: float | None = None
    verdict_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    import_s: float | None = None
    cells: list[tuple[str, dict]] = field(default_factory=list)
    layers: dict | None = None
    error: str | None = None


def launch(workload: str, seed: int, jobs: int, timeout: float,
           traced: bool = False, setup_only: bool = False) -> Pass:
    """Run child.py once and collect its verdicts and marks."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # Fixed hashing; bytecode cached beside the sources, as an installed
    # package has it; no cap override from the caller's environment.
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "GRAPHDET_CAP"):
        env.pop(name, None)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timeout = max(timeout, 1.0)
    try:
        out, _ = proc.communicate(timeout=timeout)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        out, _ = proc.communicate()
        error = f"timed out after {timeout:.0f} s"
    p = Pass(traced=traced, wall_s=time.monotonic() - t0, error=error)
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "report" in rec:
            p.cells.append((workloads.cell_key(rec["check"], rec["params"]), rec["report"]))
        elif "marks" in rec:
            m = rec["marks"]
            p.setup_s = m["first_cell"] - t0
            p.import_s = m["import_s"]
            if "verdicts_written" in m:
                p.verdict_s = m["verdicts_written"] - t0
                p.cpu_s = m["cpu_s"]
                p.peak_rss_mb = m["peak_rss_kb"] / 1024
                p.layers = m.get("layers")
    if p.setup_s is None and p.error is None:
        p.error = "no marks line"
    return p


def load_reference() -> tuple[dict, set]:
    data = json.loads((HERE / "reference.json").read_text())
    ref, suite = {}, set()
    for c in data["cells"]:
        key = workloads.cell_key(c["check"], c["params"])
        ref[key] = (c["status"], c["sign"], c["failures"])
        if c["suite"]:
            suite.add(key)
    return ref, suite


def _without_elapsed(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "elapsed_ms"})


def wrong_cells(p: Pass, expected: set, ref: dict, serial: dict | None) -> set:
    """Cells of one pass whose verdict is wrong, missing, repeated or, on
    suite-parallel, differs from the jobs=1 report."""
    wrong, seen = set(), set()
    for key, report in p.cells:
        verdict = (report["status"], report["sign"], report["failures"])
        if key in seen or key not in expected or ref.get(key) != verdict:
            wrong.add(key)
        elif serial is not None and serial.get(key) != _without_elapsed(report):
            wrong.add(key)
        seen.add(key)
    return wrong | (expected - seen)


def median(xs):
    return statistics.median(xs) if xs else 0.0



class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.jobs = workloads.jobs(workload)
        t0 = time.monotonic()
        self.deadline = t0 + seconds
        self.hard = t0 + HARD_LIMIT_S
        self.probes: list[Pass] = []
        self.passes: list[Pass] = []

    def remaining(self) -> float:
        return self.hard - time.monotonic()

    def _launch(self, **kw) -> Pass:
        return launch(self.workload, self.seed, self.jobs, self.remaining(), **kw)

    def _fits(self, traced: bool) -> bool:
        """Whether another pass of this kind is likely to end by the deadline,
        leaving time for the jobs=1 comparison pass."""
        same = [p.wall_s for p in self.passes if p.traced == traced]
        probes = 0.0 if traced else SETUP_PROBES * median([p.wall_s for p in self.probes])
        end = time.monotonic() + probes + median(same)
        return end <= self.deadline and end <= self.hard - 30

    def measure(self) -> None:
        # Traced runs go untraced, traced, traced, then alternate.
        minimum = 3 if self.trace else MIN_PASSES
        while True:
            n = len(self.passes)
            traced = self.trace and (n in (1, 2) or (n > 2 and not self.passes[-1].traced))
            if n >= minimum and not self._fits(traced):
                return
            if not self.trace:
                for _ in range(SETUP_PROBES):
                    self.probes.append(self._launch(setup_only=True))
            p = self._launch(traced=traced)
            self.passes.append(p)
            if p.error:
                print(f"pass {n + 1} failed: {p.error}", file=sys.stderr)
                return

    def serial_reports(self) -> dict | None:
        """Report payloads of one jobs=1 pass over the same cells, for the
        jobs-invariance check of suite-parallel; untimed."""
        if self.workload != "suite-parallel":
            return None
        p = launch(self.workload, self.seed, 1, self.remaining())
        if p.error:
            print(f"jobs=1 comparison pass failed: {p.error}", file=sys.stderr)
        return {key: _without_elapsed(report) for key, report in p.cells}


def expected_cells(workload: str, seed: int, suite: set) -> set:
    if workload.startswith("suite-"):
        return suite
    return {workloads.cell_key(c, p) for c, p in workloads.cells(workload, seed, ())}


def layer_metrics(run: Run) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced passes, and the counts that did not
    repeat exactly."""
    units = _per_layer_units()
    traced = [p for p in run.passes if p.traced and p.layers]
    untraced = [p for p in run.passes if not p.traced and p.verdict_s is not None]
    samples: dict[str, list] = {name: [] for name in units}
    for p in traced:
        samples["cli.import_s"].append(p.import_s)
        for name, value in p.layers["metrics"].items():
            if name in samples:
                samples[name].append(value)
        per_check = dict.fromkeys(CHECKS, 0.0)
        for _, report in p.cells:
            if report["check"] in per_check:
                per_check[report["check"]] += report["elapsed_ms"] / 1000
        for check, s in per_check.items():
            samples[f"verify.check_s.{check}"].append(s)
    samples["trace_overhead_s"] = [
        min(p.verdict_s for p in traced) - min(p.verdict_s for p in untraced)
    ] if traced and untraced else []
    unsteady = [
        name for name, unit in units.items()
        if (unit in ("count", "ratio")) and len(set(samples[name])) > 1
    ]
    return {name: (median(v), units[name], f"median of {len(v)}")
            for name, v in samples.items()}, unsteady


def end_to_end_metrics(run: Run) -> dict:
    """Each metric as (value, unit, how it was taken)."""
    done = [p for p in run.passes if p.verdict_s is not None]
    setups = [p.setup_s for p in run.probes + run.passes if p.setup_s is not None]
    values = {
        "verdict_s": (min, [p.verdict_s for p in done]),
        "setup_s": (median, setups),
        "cpu_s": (min, [p.cpu_s for p in done]),
        "peak_rss_mb": (median, [p.peak_rss_mb for p in done]),
    }
    return {
        name: (stat(v) if v else 0.0, END_TO_END[name], f"{stat.__name__} of {len(v)}")
        for name, (stat, v) in values.items()
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "graphdet" / "verify.py").is_file():
        print(f"no graphdet sources under {SRC}; run from a full source tree",
              file=sys.stderr)
        return 2

    ref, suite = load_reference()
    expected = expected_cells(args.workload, args.seed, suite)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  jobs {run.jobs}  "
          f"nproc {workloads.nproc()}  python {platform.python_version()}")
    run.measure()
    serial = run.serial_reports()

    attempted = failed = 0
    for i, p in enumerate(run.passes, 1):
        wrong = wrong_cells(p, expected, ref, serial)
        attempted += len(expected)
        failed += len(wrong)
        kind = "traced" if p.traced else "pass"
        timing = f"verdict {p.verdict_s:.3f} s" if p.verdict_s is not None else p.error
        print(f"{kind} {i}: {timing}  wall {p.wall_s:.3f} s  "
              f"cells {len(p.cells)}/{len(expected)}  wrong {len(wrong)}")
        for key in sorted(wrong)[:5]:
            print(f"    wrong: {key}")

    correct = failed == 0 and all(p.error is None for p in run.passes)
    if args.trace:
        metrics, unsteady = layer_metrics(run)
        for name in unsteady:
            print(f"count {name} differs between traced passes", file=sys.stderr)
        correct = correct and not unsteady
        first = next((p for p in run.passes if p.traced and p.layers), None)
        if first is not None:
            print("call tree of the first traced pass: path, calls, inclusive s, self s")
            for path, calls, incl, self_s in first.layers["tree"]:
                print(f"    {path}  {calls}  {incl:.4f}  {self_s:.4f}")
    else:
        metrics = end_to_end_metrics(run)

    for name, (value, unit, how) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit:6s} {how}")
    share = failed / attempted if attempted else 0.0
    print(f"wrong_verdicts {failed} of {attempted} cells ({share:.3%})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
