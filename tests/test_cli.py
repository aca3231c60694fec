"""Command-line behaviour: outputs, round trips, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphdet
from graphdet import parse_formal_sum, universal_det
from graphdet.cli import main
from graphdet.verify import CHECK_FUNCTIONS, SuiteConfig, run_check, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("D 2 2\n1 2\n2 1\n")
    code, out, _ = run(capsys, "classify", str(p))
    assert code == 0
    assert "strongly_semiconnected = yes" in out
    assert "beta1 = 1" in out


def test_classify_acyclic(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("D 2 1\n1 2\n")
    code, out, _ = run(capsys, "classify", str(p))
    assert code == 0
    assert "acyclic = yes" in out and "sinks = {2}" in out


def test_classify_malformed_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("D two 1\n1 2\n")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 2 and "line 1" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["1 1", "1 2", "2 1", "2 2"]
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--k", "2", "--count")
    assert code == 0 and out.strip() == "81"
    code, out, _ = run(
        capsys, "enumerate", "--n", "2", "--k", "2", "--class", "ssc",
        "--isolated", "", "--count",
    )
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize("argv, flag", [
    (["det", "--n", "2", "--k", "2", "--minor", "1/2", "--sinks", "1"], "--sinks"),
    (["det", "--n", "2", "--k", "2", "--sinks", "1", "--isolated", "2"], "--isolated"),
    (["verify", "diag", "--n", "2", "--k", "2", "--sinks", "1", "--isolated", "2"],
     "--isolated"),
    (["enumerate", "--n", "2", "--k", "1", "--class", "ssc", "--sinks", "1"], "--sinks"),
    (["enumerate", "--n", "2", "--k", "1", "--class", "ac", "--isolated", ""],
     "--isolated"),
    (["enumerate", "--n", "2", "--k", "1", "--isolated", "1"], "--isolated"),
    (["enumerate", "--n", "2", "--k", "1", "--sinks", "1"], "--sinks"),
], ids=["det-minor-sinks", "det-sinks-isolated", "verify-sinks-isolated",
        "enumerate-ssc-sinks", "enumerate-ac-isolated", "enumerate-isolated",
        "enumerate-sinks"])
def test_ignored_vertex_set_flag_exits_2(capsys, argv, flag):
    # a vertex-set flag the command would drop is refused, by argparse where
    # two flags exclude each other
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and flag in out.err


def test_det_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "d.fs"
    code, _, _ = run(capsys, "det", "--n", "2", "--k", "2", "-o", str(out_path))
    assert code == 0
    assert parse_formal_sum(out_path.read_text()) == universal_det(2, 2, ())


def test_det_empty_and_minor(capsys):
    code, out, _ = run(capsys, "det", "--n", "2", "--k", "1")
    assert code == 0 and out == "FS 2 1\n"
    code, out, _ = run(capsys, "det", "--n", "2", "--k", "1", "--minor", "1/2")
    assert code == 0 and out == "FS 2 1\n1/1 | 2 1\n"


def test_det_cap_exits_3(capsys):
    code, _, err = run(capsys, "det", "--n", "9", "--k", "9")
    assert code == 3 and "cap" in err
    # det and theta print every numbered graph, so they count edge sequences
    # (16^8 and 25^6), although the walks are 490,314 and 593,775 multisets
    code, _, err = run(capsys, "det", "--n", "4", "--k", "8")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, "theta", "--n", "5")
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "det", "--n", "6", "--k", "5")  # zero by degree
    assert code == 0 and out == "FS 6 5\n"
    code, _, err = run(capsys, "det", "--n", "4", "--k", "6", "--minor", "1/2")
    assert code == 3 and "cap" in err


def test_laplace_pipe(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FS 2 2\n1/1 | 1 1 ; 2 2\n")
    code, out, _ = run(capsys, "laplace", str(src))
    assert code == 0 and out == "FS 2 2\n1/1 | 1 2 ; 2 1\n"


def test_pair(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FS 2 1\n1/1 | 2 2\n")
    code, out, _ = run(capsys, "pair", str(src))
    assert code == 0 and out.strip() == "1/1 * w[2,2]"


def test_pair_builds_only_the_entries_on_the_edges(tmp_path, capsys, monkeypatch):
    # the output is that of the full symbolic matrix, which is never built
    text = "FS 300 2\n1/2 | 1 300 ; 7 7\n-3/1 | 7 7 ; 300 1\n"
    want = str(graphdet.pairing(graphdet.WeightMatrix.symbolic(300), parse_formal_sum(text)))
    src = tmp_path / "s.fs"
    src.write_text(text)

    def not_built(n):
        raise AssertionError("the symbolic matrix was built")

    asked = []
    real_w = graphdet.cli.w
    monkeypatch.setattr(graphdet.WeightMatrix, "symbolic", not_built)
    monkeypatch.setattr(graphdet.cli, "w", lambda i, j: asked.append((i, j)) or real_w(i, j))
    code, out, _ = run(capsys, "pair", str(src))
    assert code == 0 and out == want + "\n"
    assert set(asked) == {(1, 300), (7, 7), (300, 1)}


def test_pair_rejects_undirected(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FSU 2 1\n1/1 | 1 2\n")
    code, _, err = run(capsys, "pair", str(src))
    assert code == 2 and "directed" in err


def test_laplace_undirected_sum(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FSU 2 2\n1/1 | 1 1 ; 2 2\n")
    code, out, _ = run(capsys, "laplace", str(src))
    assert code == 0 and out == "FSU 2 2\n1/1 | 1 2 ; 1 2\n"


def test_potts_accepts_directed_file(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("D 2 1\n2 1\n")
    code, out, _ = run(capsys, "potts", str(p))
    assert code == 0 and out.strip() == "1/1 * q * v + 1/1 * q^2"


def test_potts_and_tutte(tmp_path, capsys):
    p = tmp_path / "u.txt"
    p.write_text("U 2 1\n1 2\n")
    code, out, _ = run(capsys, "potts", str(p))
    assert code == 0 and out.strip() == "1/1 * q * v + 1/1 * q^2"
    code, out, _ = run(capsys, "potts", str(p), "--q", "-1", "--v", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "tutte", str(p))
    assert code == 0 and out.strip() == "1/1 * x"


def test_theta_output(capsys):
    code, out, _ = run(capsys, "theta", "--n", "2")
    assert code == 0
    assert out.startswith("FS 2 1\n")
    assert "FS 2 3" in out


def test_verify_pass_and_sign(capsys):
    code, out, _ = run(capsys, "verify", "diag", "--n", "3", "--k", "3", "--sinks", "1")
    assert code == 0 and "[pass]" in out
    code, out, _ = run(capsys, "verify", "expansion", "--n", "2", "--k", "2")
    assert code == 0 and "sign=-1" in out


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run(capsys, "verify", "no-such-check", "--n", "2", "--k", "1")
    assert code == 2 and "unknown check" in err


def test_verify_cap_exits_3(capsys):
    code, _, _ = run(capsys, "verify", "diag", "--n", "9", "--k", "9")
    assert code == 3
    # expansion compares numbered graphs: 16^6 edge sequences
    code, _, _ = run(capsys, "verify", "expansion", "--n", "4", "--k", "6")
    assert code == 3


def test_verify_failing_identity_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "theta", "--n", "3")
    assert code == 1 and "[fail]" in out


def test_verify_json_report(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "verify", "direct", "--n", "2", "--k", "2", "--json", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload[0]["check"] == "direct" and payload[0]["status"] == "pass"
    assert_streamed_report(capsys, out_path, "verify", "direct", "--n", "2", "--k", "2")


def assert_streamed_report(capsys, out_path, *argv):
    """The written report is the indented dump of its own payload, and
    ``--json -`` prints the same text, up to the elapsed times."""
    text = out_path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    _, out, _ = run(capsys, *argv, "--json", "-")
    assert without_elapsed(out) == without_elapsed(text)


def without_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


# One cell of every check: the verify flags, and the parameters they set.
VERIFY_CELLS = [
    ("direct", ["--n", "2", "--k", "2"], {"n": 2, "k": 2}),
    ("direct-prime", ["--n", "2", "--k", "3"], {"n": 2, "k": 3}),
    ("mobius", ["--n", "2", "--k", "2"], {"n": 2, "k": 2}),
    # --jobs and --cap are accepted by every check
    ("diag", ["--n", "2", "--k", "2", "--sinks", "1", "--jobs", "2", "--cap", "100"],
     {"n": 2, "k": 2, "I": [1]}),
    ("codim1", ["--n", "3", "--k", "2", "--minor", "1/2"],
     {"n": 3, "k": 2, "i": 1, "j": 2}),
    ("expansion", ["--n", "2", "--k", "2"], {"n": 2, "k": 2}),
    ("derivative", ["--n", "2", "--k", "2", "--minor", "2/2", "--m", "1"],
     {"n": 2, "k": 2, "i": 2, "m": 1}),
    ("minor-pairing", ["--n", "2"], {"n": 2}),
    ("kirchhoff-diag", ["--n", "3", "--isolated", "1,3"], {"n": 3, "I": [1, 3]}),
    ("kirchhoff-codim1", ["--n", "3", "--minor", "1/2"], {"n": 3, "i": 1, "j": 2}),
    ("specval", ["--n", "2", "--k", "2"], {"n": 2, "k": 2}),
    ("lapl-tutte", ["--n", "2", "--k", "2"], {"n": 2, "k": 2}),
    ("theta", ["--n", "3"], {"n": 3}),
    ("operator-laws", ["--n", "2", "--k", "2", "--jobs", "2"], {"n": 2, "k": 2}),
]


def test_verify_cells_cover_every_check():
    assert {c.replace("-", "_") for c, _, _ in VERIFY_CELLS} == set(CHECK_FUNCTIONS)


@pytest.mark.parametrize(
    "check, flags, params", VERIFY_CELLS, ids=[c for c, _, _ in VERIFY_CELLS]
)
def test_verify_flags_match_run_check(tmp_path, capsys, check, flags, params):
    out_path = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", check, *flags, "--json", str(out_path))
    [got] = json.loads(out_path.read_text())
    want = run_check(check.replace("-", "_"), params).to_json_dict()
    got.pop("elapsed_ms")
    want.pop("elapsed_ms")
    assert got == want
    assert code == (0 if want["status"] != "fail" else 1)


@pytest.mark.parametrize("argv, flag", [
    (["theta"], "--n"),
    (["direct", "--n", "2"], "--k"),
    (["codim1", "--n", "2", "--k", "1"], "--minor i/j"),
    (["kirchhoff-diag", "--n", "3"], "--sinks"),
    (["derivative", "--n", "2", "--k", "2", "--m", "1"], "--minor i/i"),
    (["derivative", "--n", "2", "--k", "2", "--minor", "1/1"], "--m"),
    (["derivative", "--n", "2", "--k", "2", "--minor", "1/2", "--m", "1"],
     "a diagonal --minor i/i"),
], ids=["theta", "direct", "codim1", "kirchhoff-diag", "derivative-minor", "derivative-m",
        "derivative-off-diagonal"])
def test_verify_missing_flag_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.rstrip().endswith(f"needs {flag}")


@pytest.mark.parametrize("argv, flags", [
    (["theta", "--n", "2", "--k", "9"], "--k"),
    (["theta", "--n", "2", "--k", "9", "--sinks", "1", "--m", "4"], "--k, --m, --sinks"),
    (["diag", "--n", "2", "--k", "2", "--minor", "1/2", "--m", "3"], "--m, --minor i/j"),
    (["direct", "--n", "2", "--k", "2", "--isolated", "1"], "--sinks"),
], ids=["theta", "theta-three", "diag", "direct"])
def test_verify_unused_flag_exits_2(capsys, argv, flags):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.rstrip().endswith(f"takes no {flags}")


def test_verify_kirchhoff_codim1_cap_exits_3(capsys):
    code, _, _ = run(capsys, "verify", "kirchhoff-codim1", "--n", "6", "--minor", "1/2",
                     "--cap", "5")
    assert code == 3


def test_suite_json_and_exit(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code, _, _ = run(
        capsys, "suite", "--n", "2", "--k", "1", "--json", str(out_path)
    )
    payload = json.loads(out_path.read_text())
    assert isinstance(payload, list) and payload
    names = {r["check"] for r in payload}
    assert {"direct", "diag", "specval", "minor_pairing", "theta"} <= names
    # theta n=2 passes, so the small grid is green
    assert code == 0
    assert_streamed_report(capsys, out_path, "suite", "--n", "2", "--k", "1")


def test_cells_that_compare_nothing_are_flagged(capsys):
    code, out, _ = run(capsys, "verify", "diag", "--n", "3", "--k", "1")
    assert code == 0 and " cases=0 (nothing compared) " in out
    code, out, _ = run(capsys, "verify", "diag", "--n", "2", "--k", "1", "--sinks", "2")
    assert code == 0 and "nothing compared" not in out
    reports = run_suite(SuiteConfig(max_n=2, max_k=1))
    vacuous = sum(r.vacuous for r in reports)
    code, out, _ = run(capsys, "suite", "--n", "2", "--k", "1")
    assert code == 0 and vacuous == 16 == out.count("(nothing compared)")
    assert out.rstrip().endswith(", 0 skipped, 16 compared nothing")


def test_pair_rejects_undirected_zero_sum(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FSU 2 1\n")
    code, out, err = run(capsys, "pair", str(src))
    assert code == 2 and "directed" in err and out == ""


def test_laplace_keeps_kind_of_zero_sum(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FSU 2 1\n")
    code, out, _ = run(capsys, "laplace", str(src))
    assert code == 0 and out == "FSU 2 1\n"
    src.write_text("FSU 1 1\n1/1 | 1 1\n")
    code, out, _ = run(capsys, "laplace", str(src))
    assert code == 0 and out == "FSU 1 1\n"


SHAPE = "need n >= 1 and k >= 0"


@pytest.mark.parametrize("argv, message", [
    (["verify", "direct", "--n", "0", "--k", "2"], SHAPE),
    (["verify", "direct-prime", "--n", "0", "--k", "2"], SHAPE),
    (["verify", "mobius", "--n", "0", "--k", "2"], SHAPE),
    (["verify", "specval", "--n", "0", "--k", "2"], SHAPE),
    (["verify", "operator-laws", "--n", "0", "--k", "2"], SHAPE),
    (["verify", "operator-laws", "--n", "2", "--k", "-1"], SHAPE),
    (["det", "--n", "0", "--k", "0"], SHAPE),
    (["verify", "kirchhoff-codim1", "--n", "0", "--minor", "1/2"],
     "vertex out of range"),
    (["verify", "derivative", "--n", "2", "--k", "2", "--minor", "3/3", "--m", "1"],
     "vertex out of range"),
], ids=["direct", "direct-prime", "mobius", "specval", "operator-laws-n0",
        "operator-laws-k-1", "det", "kirchhoff-codim1", "derivative"])
def test_out_of_range_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("env, flags, source", [
    ("abc", [], "GRAPHDET_CAP"),
    ("-1", [], "GRAPHDET_CAP"),
    ("100", ["--cap", "-1"], "cap argument"),
    (" 1_0 ", [], "GRAPHDET_CAP"),
    ("+10", [], "GRAPHDET_CAP"),
    ("\u0661\u0660", [], "GRAPHDET_CAP"),
], ids=["env-text", "env-negative", "flag-negative", "env-underscore", "env-plus",
        "env-non-ascii"])
def test_bad_cap_exits_2(monkeypatch, capsys, env, flags, source):
    monkeypatch.setenv("GRAPHDET_CAP", env)
    code, out, err = run(capsys, "verify", "diag", "--n", "2", "--k", "1", *flags)
    assert code == 2 and out == "" and source in err


@pytest.mark.parametrize("argv, message", [
    (["det", "--n", "2", "--k", "1", "--minor", "\u0661/+2"], "bad minor argument"),
    (["det", "--n", "2", "--k", "1", "--minor", "1/ 2"], "bad minor argument"),
    (["det", "--n", "2", "--k", "1", "--sinks", "0_1"], "bad vertex set"),
    (["enumerate", "--n", "2", "--k", "1", "--class", "ac", "--sinks", "+1"],
     "bad vertex set"),
    (["verify", "diag", "--n", "2", "--k", "1", "--sinks", "\u0661"], "bad vertex set"),
], ids=["minor-non-ascii-plus", "minor-space", "sinks-underscore", "enumerate-plus",
        "verify-non-ascii"])
def test_vertex_arguments_outside_the_integer_grammar_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv, value", [
    (["verify", "diag", "--n", "\u0661", "--k", "2"], "\u0661"),
    (["verify", "diag", "--n", "2", "--k", "1", "--cap", "1_000"], "1_000"),
    (["verify", "derivative", "--n", "2", "--k", "2", "--minor", "1/1", "--m", "+1"], "+1"),
    (["verify", "diag", "--n", "2", "--k", "1", "--jobs", " 1"], " 1"),
    (["suite", "--n", " 2", "--k", "0"], " 2"),
    (["suite", "--n", "1", "--k", "0", "--jobs", "\u0662"], "\u0662"),
    (["enumerate", "--n", "2", "--k", "+1", "--count"], "+1"),
    (["det", "--n", "2", "--k", "0_1"], "0_1"),
    (["theta", "--n", "\u0662"], "\u0662"),
], ids=["verify-n", "verify-cap", "verify-m", "verify-jobs", "suite-n", "suite-jobs",
        "enumerate-k", "det-k", "theta-n"])
def test_integer_flags_outside_the_grammar_exit_2(capsys, argv, value):
    # the flags read the strict grammar of the files, with argparse's message
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"invalid int value: {value!r}" in out.err


@pytest.mark.parametrize("command", ["classify", "laplace", "pair"])
def test_cap_is_refused_where_nothing_reads_it(tmp_path, capsys, command):
    # argparse refuses the unknown flag rather than letting --cap 0 pass unread
    src = tmp_path / "in.txt"
    src.write_text("FS 2 1\n1/1 | 1 2\n" if command != "classify" else "D 2 1\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main([command, str(src), "--cap", "0"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "--cap" in out.err


def test_cap_zero_is_a_cap(capsys):
    code, _, err = run(capsys, "verify", "diag", "--n", "2", "--k", "1", "--cap", "0")
    assert code == 3 and "exceeds the cap of 0" in err
    code, out, _ = run(capsys, "det", "--n", "6", "--k", "5", "--cap", "0")  # zero by degree
    assert code == 0 and out == "FS 6 5\n"


@pytest.mark.parametrize("argv", [
    ["classify", "DIR"],
    ["det", "--n", "2", "--k", "2", "-o", "DIR"],
    ["verify", "diag", "--n", "2", "--k", "2", "--json", "DIR"],
    ["potts", "FILE", "--q", "1/0"],
    ["potts", "FILE", "--v", "1/0"],
    ["potts", "FILE", "--q", "1.5"],
    ["potts", "FILE", "--v", "1e2"],
    ["potts", "FILE", "--q", "1_0"],
    ["potts", "FILE", "--q", "2 / 3"],
    ["potts", "FILE", "--q", "+1"],
    ["potts", "FILE", "--v", "\u0662"],
], ids=["classify-dir", "det-output-dir", "verify-json-dir", "potts-q-over-0",
        "potts-v-over-0", "potts-q-decimal", "potts-v-exponent", "potts-q-underscore",
        "potts-q-spaced", "potts-q-plus", "potts-v-non-ascii"])
def test_unusable_path_or_rational_exits_2(tmp_path, capsys, argv):
    # exit 1 would read as a failed identity
    graph = tmp_path / "u.txt"
    graph.write_text("U 2 1\n1 2\n")
    paths = {"DIR": str(tmp_path), "FILE": str(graph)}
    code, _, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 2 and err.startswith("error:")


def _not_reached(*args, **kwargs):
    raise AssertionError("the work ran before the output was opened")


@pytest.mark.parametrize("argv, work", [
    (["det", "--n", "2", "--k", "2", "-o", "DIR"], "universal_det"),
    (["det", "--n", "2", "--k", "1", "--minor", "1/2", "-o", "DIR"], "universal_codim1"),
    (["theta", "--n", "2", "-o", "DIR"], "theta"),
    (["laplace", "SUM", "-o", "DIR"], "laplace"),
    (["verify", "diag", "--n", "2", "--k", "2", "--json", "DIR"], "run_check"),
    (["suite", "--json", "DIR"], "run_suite"),
], ids=["det", "det-minor", "theta", "laplace", "verify", "suite"])
def test_unusable_output_exits_2_before_the_work(tmp_path, monkeypatch, capsys, argv, work):
    # as with a shell redirect, the destination is opened first
    monkeypatch.setattr(f"graphdet.cli.{work}", _not_reached)
    src = tmp_path / "s.fs"
    src.write_text("FS 2 1\n1/1 | 1 1\n")
    paths = {"DIR": str(tmp_path), "SUM": str(src)}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 2 and out == "" and err.startswith("error:")


def test_laplace_may_write_over_its_input(tmp_path, capsys):
    src = tmp_path / "s.fs"
    src.write_text("FS 2 2\n1/1 | 1 1 ; 2 2\n")
    code, out, _ = run(capsys, "laplace", str(src), "-o", str(src))
    assert code == 0 and out == ""
    assert src.read_text() == "FS 2 2\n1/1 | 1 2 ; 2 1\n"


def test_python_m_graphdet_runs_the_cli(tmp_path, capsys):
    src = str(Path(graphdet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "graphdet", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    argv = ["det", "--n", "2", "--k", "2", "--sinks", "1"]
    proc = run_module(*argv)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert code == 0 and out.startswith("FS 2 2\n")
    bad = run_module("verify", "theta", "--n", "1")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")
