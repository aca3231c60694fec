"""One cold pass of a workload, in the fresh interpreter that run.py starts.

Output on stdout, one JSON object per line: one line per verdict, written as
each cell finishes, then one line of marks.  Times are ``time.monotonic()``
readings; that clock is system-wide on Linux, so run.py subtracts its own
reading taken just before the launch.  CPU and peak RSS are taken when the
last verdict has been written and cover this process and every worker it
has reaped by then.

``--trace`` installs the span wrappers of ``layers.py`` after the import has
been timed; without it that module is never loaded.  ``--setup-only`` stops
where the first cell would start.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads


def main() -> int:
    t_import = time.monotonic()
    import graphdet.cli  # noqa: F401  (what a CLI user loads)
    from graphdet import verify
    from graphdet.graphs import CapExceeded

    import_s = time.monotonic() - t_import

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(graphdet.cli.__file__).startswith(src + os.sep):
        print(f"graphdet was imported from {graphdet.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    grid = ()
    if args.workload.startswith("suite-"):
        grid = verify.suite_cells(verify.SuiteConfig(jobs=args.jobs))
    cells = workloads.cells(args.workload, args.seed, grid)

    marks = {"first_cell": time.monotonic(), "import_s": import_s}
    if not args.setup_only:
        out = sys.stdout
        for name, params in cells:
            if tracer is None:
                payload = _run_cell(verify, CapExceeded, name, params, args.jobs)
            else:
                with tracer.span("verify.cell"):
                    payload = _run_cell(verify, CapExceeded, name, params, args.jobs)
            out.write(json.dumps({"check": name, "params": params, "report": payload}) + "\n")
        out.flush()
        marks["verdicts_written"] = time.monotonic()
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        marks["cpu_s"] = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
        marks["peak_rss_kb"] = max(me.ru_maxrss, kids.ru_maxrss)
        if tracer is not None:
            marks["layers"] = tracer.summary()
    print(json.dumps({"marks": marks}), flush=True)
    return 0


def _run_cell(verify, CapExceeded, name: str, params: dict, jobs: int) -> dict:
    """The cell's report payload, with run_suite's cap -> skipped rule; any
    other exception becomes status "error" and is counted wrong by run.py."""
    try:
        return verify.run_check(name, params, jobs=jobs).to_json_dict()
    except CapExceeded:
        status = "skipped"
    except Exception:
        traceback.print_exc()
        status = "error"
    return verify.VerificationReport(
        check=name, params=params, status=status, sign=None,
        total_cases=0, failures=[], elapsed_ms=0,
    ).to_json_dict()


if __name__ == "__main__":
    sys.exit(main())
