"""Command-line front end.

Exit codes: 0 success, 1 identity failure, 2 usage, parse or file error,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

from .algebra import (
    enumerate_class,
    format_formal_sum,
    pairing,
    parse_formal_sum,
    theta,
    universal_codim1,
    universal_det,
)
from .graphs import (
    CapExceeded,
    DirectedGraph,
    UndirectedGraph,
    _read_number,
    check_cap,
    classify,
    enumerate_graphs,
    forget,
    parse_graph,
)
from .laplace import laplace
from .poly import Q, V, MultiPoly, w
from .potts import potts, tutte
from .verify import (
    CHECK_FUNCTIONS,
    SuiteConfig,
    VerificationReport,
    run_check,
    run_suite,
)


def _parse_vertex_set(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(sorted({_read_number(tok) for tok in text.replace(",", " ").split()}))
    except ValueError:
        raise ValueError(f"bad vertex set {text!r}; expected e.g. '1,3'")


def _parse_minor(text: str) -> tuple[int, int]:
    try:
        i, _, j = text.partition("/")
        return _read_number(i), _read_number(j)
    except ValueError:
        raise ValueError(f"bad minor argument {text!r}; expected 'i/j'")


def _parse_rational(flag: str, text: str) -> Fraction:
    try:
        return _read_number(text, rational=True)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {flag} value {text!r}; expected a rational, e.g. -1/2")


def _integer(text: str) -> int:
    """An integer flag value, read in the strict grammar of the files."""
    try:
        return _read_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _jobs(text: str) -> int:
    """A --jobs value: an integer of at least 1, though it has no effect."""
    if (jobs := _integer(text)) < 1:
        raise argparse.ArgumentTypeError(f"need jobs >= 1, got {text!r}")
    return jobs


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


@contextmanager
def _output(path: str | None):
    """The file at path, or stdout for None and "-".  Commands open it
    before their work, as a shell redirect does, so that an unusable path
    fails at once."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh


def _fmt_set(vs) -> str:
    return "{" + ",".join(str(v) for v in sorted(vs)) + "}"


def cmd_classify(args) -> int:
    g = parse_graph(_read_text(args.input))
    if isinstance(g, UndirectedGraph):
        raise ValueError("classify needs a directed graph file (header 'D n k')")
    c = classify(g)
    print(f"n = {g.n}")
    print(f"k = {g.k}")
    print(f"beta0 = {c.beta0}")
    print(f"beta1 = {c.beta1}")
    print(f"strongly_connected = {'yes' if c.strongly_connected else 'no'}")
    print(f"strongly_semiconnected = {'yes' if c.strongly_semiconnected else 'no'}")
    print(f"acyclic = {'yes' if c.acyclic else 'no'}")
    print(f"sinks = {_fmt_set(c.sinks)}")
    print(f"isolated = {_fmt_set(c.isolated)}")
    print(f"loops = {c.loop_count}")
    return 0


def cmd_enumerate(args) -> int:
    # --isolated sets the vertex set of the SSC class, --sinks that of AC.
    cls = (args.cls or "").upper()
    for flag, value, owner in (("--isolated", args.isolated, "SSC"),
                               ("--sinks", args.sinks, "AC")):
        if value is not None and cls != owner:
            raise ValueError(f"{flag} needs --class {owner.lower()}")
    if cls:
        given = args.isolated if cls == "SSC" else args.sinks
        I = None if given is None else _parse_vertex_set(given)
        stream = enumerate_class(args.n, args.k, cls, I, cap=args.cap)
    else:
        stream = enumerate_graphs(args.n, args.k, cap=args.cap)
    count = 0
    for g in stream:
        count += 1
        if not args.count:
            print(" ; ".join(f"{a} {b}" for a, b in g.edges))
    if args.count:
        print(count)
    return 0


def cmd_det(args) -> int:
    # Every numbered graph is printed, so the cap counts edge sequences,
    # unless the determinant element is zero by degree.
    sequences = (args.n * args.n) ** args.k
    with _output(args.output) as fh:
        if args.minor:
            i, j = _parse_minor(args.minor)
            check_cap(sequences, args.cap)
            s = universal_codim1(args.n, args.k, i, j, cap=args.cap)
        else:
            I = _parse_vertex_set(args.sinks or args.isolated)
            if args.k >= args.n - len(I):
                check_cap(sequences, args.cap)
            s = universal_det(args.n, args.k, I, cap=args.cap)
        fh.write(format_formal_sum(s.expand(args.cap)))
    return 0


def cmd_laplace(args) -> int:
    # The input is read first, so that it may also be the output.
    s = parse_formal_sum(_read_text(args.input))
    with _output(args.output) as fh:
        fh.write(format_formal_sum(laplace(s)))
    return 0


def cmd_pair(args) -> int:
    s = parse_formal_sum(_read_text(args.input))
    if s.kind is UndirectedGraph:
        raise ValueError("pairing is defined for directed sums (header 'FS')")
    # pairing reads the size and the entries on the sum's edges, so the
    # generic matrix builds entry (i, j) = w[i,j] only when asked for it.
    generic = SimpleNamespace(n=s.n, entry=lambda i, j: MultiPoly.variable(w(i, j)))
    print(pairing(generic, s))
    return 0


def cmd_potts(args) -> int:
    u = parse_graph(_read_text(args.input))
    if isinstance(u, DirectedGraph):
        u = forget(u)
    z = potts(u, cap=args.cap)
    if args.q is not None or args.v is not None:
        subs = {}
        if args.q is not None:
            subs[Q] = _parse_rational("--q", args.q)
        if args.v is not None:
            subs[V] = _parse_rational("--v", args.v)
        print(z.evaluate(subs))
    else:
        print(z)
    return 0


def cmd_tutte(args) -> int:
    u = parse_graph(_read_text(args.input))
    if isinstance(u, DirectedGraph):
        u = forget(u)
    print(tutte(u, cap=args.cap))
    return 0


def cmd_theta(args) -> int:
    # Every numbered graph is printed, so the cap counts edge sequences here.
    with _output(args.output) as fh:
        check_cap((args.n * args.n) ** (args.n + 1), args.cap)
        th = theta(args.n, cap=args.cap)
        blocks = [format_formal_sum(th.part(k).expand(args.cap)) for k in th.degrees()]
        fh.write("\n".join(blocks))
    return 0


def _report_out(reports: list[VerificationReport], args, fh) -> None:
    """The JSON array of the reports with --json, else their human form."""
    if args.json:
        # Streamed, so the report is never held as one string.
        json.dump([r.to_json_dict() for r in reports], fh, indent=2)
        fh.write("\n")
    else:
        for r in reports:
            print(r.human(), file=fh)


# The verify flag that sets each parameter a check can take.
_CHECK_FLAGS = {"n": "--n", "k": "--k", "I": "--sinks", "m": "--m",
                "i": "--minor i/j", "j": "--minor i/j"}


def cmd_verify(args) -> int:
    name = args.check.replace("-", "_")
    if name not in CHECK_FUNCTIONS:
        raise ValueError(
            f"unknown check {args.check!r}; known: {', '.join(sorted(CHECK_FUNCTIONS))}"
        )
    # The check's signature says what it takes: a parameter without a
    # default must be given, and a flag setting no parameter is refused.
    sig = inspect.signature(CHECK_FUNCTIONS[name]).parameters
    diagonal = "i" in sig and "j" not in sig  # the check takes an entry i/i
    flags = dict(_CHECK_FLAGS, i="--minor i/i") if diagonal else _CHECK_FLAGS
    given = {"n": args.n, "k": args.k, "m": args.m}
    if args.sinks or args.isolated:
        given["I"] = _parse_vertex_set(args.sinks or args.isolated)
    if args.minor:
        given["i"], given["j"] = _parse_minor(args.minor)
        if diagonal and given["i"] != given["j"]:
            raise ValueError(f"check {args.check!r} needs a diagonal --minor i/i")
    unused = [flags[p] for p, v in given.items()
              if v is not None and p not in sig and not (diagonal and p == "j")]
    if unused:
        extra = ", ".join(dict.fromkeys(unused))
        raise ValueError(f"check {args.check!r} takes no {extra}")
    params = {p: given[p] for p in sig if given.get(p) is not None}
    missing = [flags[p] for p, spec in sig.items()
               if p in flags and p not in params and spec.default is spec.empty]
    if missing:
        need = " and ".join(dict.fromkeys(missing))
        raise ValueError(f"check {args.check!r} needs {need}")
    with _output(args.json) as fh:
        report = run_check(name, params, cap=args.cap)
        _report_out([report], args, fh)
    return 0 if report.ok else 1


def cmd_suite(args) -> int:
    config = SuiteConfig(max_n=args.n, max_k=args.k, cap=args.cap)
    with _output(args.json) as fh:
        reports = run_suite(config)
        _report_out(reports, args, fh)
    bad = [r for r in reports if r.status != "skipped" and not r.ok]
    npass = sum(1 for r in reports if r.status != "skipped" and r.ok)
    nskip = sum(1 for r in reports if r.status == "skipped")
    nvacuous = sum(1 for r in reports if r.vacuous)
    if not args.json:
        print(f"suite: {npass} ok, {len(bad)} failed, {nskip} skipped,"
              f" {nvacuous} compared nothing")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphdet",
        description="Exact graph-algebra determinants and identity verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cap", type=_integer, default=None, help="enumeration case cap")

    p = sub.add_parser("classify", help="classify a directed graph file")
    p.add_argument("input", help="graph file path, or - for stdin")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate graphs or a graph class")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--class", dest="cls", choices=["ssc", "ac", "SSC", "AC"])
    p.add_argument("--isolated", help="exact isolated-vertex set for SSC, e.g. '1,3'")
    p.add_argument("--sinks", help="exact sink set for AC")
    p.add_argument("--count", action="store_true", help="print only the count")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("det", help="write a universal determinant/minor element")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--sinks", help="vertex set I of the diagonal minor")
    which.add_argument("--isolated", help="synonym for --sinks")
    which.add_argument("--minor", help="i/j for the codimension-1 minor element")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    common(p)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("laplace", help="apply the Laplace operator to a formal-sum file")
    p.add_argument("input", help="formal-sum file path, or - for stdin")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_laplace)

    p = sub.add_parser("pair", help="pair a formal-sum file with the symbolic matrix")
    p.add_argument("input")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("potts", help="partition function of an undirected graph file")
    p.add_argument("input")
    p.add_argument("--q", help="evaluate at q (exact rational, e.g. -1)")
    p.add_argument("--v", help="evaluate at v")
    common(p)
    p.set_defaults(fn=cmd_potts)

    p = sub.add_parser("tutte", help="Tutte polynomial of an undirected graph file")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_tutte)

    p = sub.add_parser("theta", help="write the mixed-degree element for n vertices")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("verify", help="run a single identity check")
    p.add_argument("check", help="check name, e.g. diag, expansion, theta")
    p.add_argument("--n", type=_integer)
    p.add_argument("--k", type=_integer)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--sinks", help="vertex set I where applicable")
    which.add_argument("--isolated", help="synonym for --sinks")
    p.add_argument("--minor", help="i/j where applicable")
    p.add_argument("--m", type=_integer, help="derivative order")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted; has no effect")
    p.add_argument("--json", help="write the JSON report to this path")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("suite", help="run the whole desk-scale check grid")
    p.add_argument("--n", type=_integer, default=SuiteConfig.max_n,
                   help="maximum vertex count (default %(default)s)")
    p.add_argument("--k", type=_integer, default=SuiteConfig.max_k,
                   help="maximum edge count (default %(default)s)")
    p.add_argument("--jobs", type=_jobs, default=1, help="accepted; has no effect")
    p.add_argument("--json", help="write the JSON report array to this path")
    common(p)
    p.set_defaults(fn=cmd_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # A usage error is a ValueError, as is GraphFormatError;
        # FileNotFoundError is an OSError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
