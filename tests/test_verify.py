"""The identity checks: small-case outcomes, report shape, determinism."""

import dataclasses
import inspect
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import graphdet.potts as potts_module
from graphdet import graphs, verify
from graphdet.algebra import (
    FormalSum,
    SymmetricSum,
    class_sum,
    universal_codim1,
    universal_det,
)
from graphdet.graphs import (
    CapExceeded,
    DirectedGraph,
    directed_edge_types,
    undirected_edge_types,
)
from graphdet.laplace import b_op
from graphdet.potts import universal_potts
from graphdet.verify import (
    CHECK_FUNCTIONS,
    SuiteConfig,
    _direct_case,
    _direct_prime_case,
    _failure,
    _mobius_case,
    _multiset_laws,
    _position_laws,
    _specval_case,
    _sum_diff,
    rooted_forest_poly,
    run_check,
    run_suite,
    suite_cells,
    verify_codim1,
    verify_derivative,
    verify_diag,
    verify_direct,
    verify_direct_prime,
    verify_expansion,
    verify_kirchhoff_codim1,
    verify_kirchhoff_diag,
    verify_lapl_tutte,
    verify_minor_pairing,
    verify_mobius_equiv,
    verify_operator_laws,
    verify_specval,
    verify_theta,
)
from graphdet.poly import MultiPoly, w

var = MultiPoly.variable


@pytest.mark.parametrize("check, params", [
    ("direct", {"n": 0, "k": 2}),
    ("specval", {"n": 0, "k": 2}),
    ("operator_laws", {"n": 0, "k": 2}),
    ("operator_laws", {"n": 2, "k": -1}),
    ("minor_pairing", {"n": 0}),
    ("minor_pairing", {"n": 2.0}),
    ("kirchhoff_diag", {"n": 0, "I": [1]}),
    ("kirchhoff_diag", {"n": 3.0, "I": [1]}),
    ("kirchhoff_codim1", {"n": 3.0, "i": 1, "j": 2}),
], ids=["direct-0-2", "specval-0-2", "operator_laws-0-2", "operator_laws-2--1",
        "minor_pairing-0", "minor_pairing-float-n", "kirchhoff_diag-0", "kirchhoff_diag-float-n", "kirchhoff_codim1-float-n"])
def test_checks_refuse_bad_shape(check, params):
    # the shape is checked before the symbolic matrices are built from n;
    # kirchhoff_codim1 checks its vertices first, so its n = 0 is a vertex
    # error (tests/test_cli.py)
    with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
        run_check(check, params)


@pytest.mark.parametrize("check", [
    lambda: verify_diag(2, 1, (1.0,)),
    lambda: verify_diag(2, 1, (True,)),
    lambda: verify_kirchhoff_diag(2, (1.0,)),
    lambda: verify_kirchhoff_codim1(3, 1.0, 2),
    lambda: verify_derivative(2, 2, True, 1),
], ids=["diag-float", "diag-bool", "kirchhoff_diag-float", "kirchhoff_codim1-float",
        "derivative-bool"])
def test_checks_refuse_non_integer_vertices(check):
    # 1.0 and True equal the vertex 1, but would reach the report's params.
    with pytest.raises(ValueError, match="vertices must be integers"):
        check()


@pytest.mark.parametrize("check, message", [
    (lambda: verify_diag(True, 1), "need n >= 1 and k >= 0"),
    (lambda: verify_minor_pairing(True), "need n >= 1 and k >= 0"),
    (lambda: verify_derivative(2, 2, 1, True), "need 1 <= m <= k"),
    (lambda: SuiteConfig(max_n=True, max_k=False), "need max_n >= 1"),
    (lambda: SuiteConfig(max_k=0.5), "need max_n >= 1"),
    (lambda: verify_theta(1), "need n >= 2"),
], ids=["diag-bool-n", "minor_pairing-bool-n", "derivative-bool-m", "suite-bools",
        "suite-float-k", "theta-1"])
def test_sizes_must_be_integers(check, message):
    # True and 1.0 equal a valid size, but would reach the report's params
    # or the grid's ranges.  verify_theta leaves n < 2 to theta's own check.
    with pytest.raises(ValueError, match=message):
        check()


def test_direct_small_cells():
    for n, k in [(1, 0), (1, 1), (2, 0), (2, 2), (3, 2)]:
        assert verify_direct(n, k).ok
        assert verify_direct_prime(n, k).ok


def test_mobius_small_cells():
    for n, k in [(1, 1), (2, 2), (3, 1)]:
        r = verify_mobius_equiv(n, k)
        assert r.ok and r.total_cases == (n * n) ** k


def test_diag_and_codim1():
    assert verify_diag(2, 1, (2,)).ok
    assert verify_diag(2, 2, ()).ok
    assert verify_diag(3, 3, (1,)).ok
    assert verify_codim1(2, 1, 1, 2).ok
    assert verify_codim1(3, 2, 1, 3).ok
    assert verify_codim1(2, 2, 1, 1).ok  # diagonal case


def test_expansion_sign():
    r = verify_expansion(2, 2)
    assert r.status == "pass_with_sign" and r.sign == -1
    r0 = verify_expansion(2, 1)  # both sides vanish
    assert r0.status == "pass_with_sign" and r0.sign is None and r0.ok


def test_derivative_sign():
    r = verify_derivative(2, 2, 1, 1)
    assert r.status == "pass_with_sign" and r.sign == -1
    # even order cannot separate the signs
    r2 = verify_derivative(2, 2, 1, 2)
    assert r2.ok and r2.sign is None
    with pytest.raises(ValueError):
        verify_derivative(2, 2, 1, 3)


def test_minor_pairing():
    for n in (1, 2, 3):
        r = verify_minor_pairing(n)
        assert r.ok
        assert r.total_cases == 2 ** n + n * n


def test_forest_oracle():
    # trees on two vertices into root 1: the single edge 2->1
    assert rooted_forest_poly(2, {1}) == var(w(2, 1))
    # n=3 root {1}: three trees
    expected = (
        var(w(2, 1)) * var(w(3, 1))
        + var(w(2, 1)) * var(w(3, 2))
        + var(w(2, 3)) * var(w(3, 1))
    )
    assert rooted_forest_poly(3, {1}) == expected
    assert rooted_forest_poly(2, {1, 2}) == 1  # empty product
    # one monomial per forest, coefficient 1: |R| n^(n-|R|-1) forests rooted
    # in R, and the empty forest when R holds every vertex
    for n in range(1, 6):
        for size in range(n + 1):
            for R in combinations(range(1, n + 1), size):
                terms = rooted_forest_poly(n, R).terms()
                assert all(c == 1 for _, c in terms)
                assert len(terms) == (size * n ** (n - size - 1) if size < n else 1)


def test_kirchhoff_checks():
    assert verify_kirchhoff_diag(2, (1,)).ok
    assert verify_kirchhoff_diag(3, (1, 3)).ok
    assert verify_kirchhoff_diag(4, (1, 2, 3, 4)).ok
    assert verify_kirchhoff_codim1(2, 1, 2).ok
    assert verify_kirchhoff_codim1(3, 2, 3).ok
    with pytest.raises(ValueError):
        verify_kirchhoff_diag(3, ())
    with pytest.raises(ValueError):
        verify_kirchhoff_codim1(3, 2, 2)


def test_subset_signs_keep_one_entry_per_multiset():
    # the sign table is keyed by the sorted multiset, whatever its numbering
    assert _direct_case(2, 2, ((1, 2), (1, 1))) == _direct_case(2, 2, ((1, 1), (1, 2)))
    assert verify._subset_signs.cache_info().currsize == 1


def test_specval_and_lapl_tutte():
    assert verify_specval(2, 2).ok
    assert verify_specval(3, 1).ok
    assert verify_lapl_tutte(2, 2).ok
    assert verify_lapl_tutte(3, 2).ok


def test_specval_counts_subsets_once_per_graph(monkeypatch):
    # one subset-count table per multiset serves both Potts points; the
    # shaved copy is counted only when the multiset has a loop: 126
    # multisets at (3, 4), 15 of them loop-free
    real = verify._subset_table
    calls = []
    monkeypatch.setattr(
        verify, "_subset_table", lambda n, key: calls.append(key) or real(n, key)
    )
    assert verify_specval(3, 4).ok
    assert len(calls) == 126 + (126 - 15)


def test_specval_classifies_each_orientation_once(monkeypatch):
    # both orientation counts come from one pass: the 126 multisets at
    # (3, 4) have 699 orientations in all, each classified once
    real = potts_module._classify_key
    calls = []
    monkeypatch.setattr(potts_module, "_classify_key",
                        lambda n, key: calls.append(key) or real(n, key))
    assert verify_specval(3, 4).ok
    assert len(calls) == 699


def test_lapl_tutte_lists_every_looped_graph_in_order(monkeypatch):
    # with the Laplace operator skipped the left side keeps its loops; the
    # report must list the coefficient mismatches and then, side by side,
    # every looped graph of the expansion in edge-sequence order
    monkeypatch.setattr(verify, "laplace", lambda s: s)
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        lhs = universal_potts(n, k, -1, 1, shaved=True)
        rhs = Fraction((-1) ** k) * universal_potts(n, k, -1, -1)
        want = _sum_diff(lhs, rhs)[0]
        looped = 0
        for side in (lhs, rhs):
            for g in side.support():
                if any(a == b for a, b in g.edges):
                    looped += 1
                    want.append(_failure(g.edges, 0, side.coeff(g)))
        assert looped
        assert run_check("lapl_tutte", {"n": n, "k": k}).failures == want


def test_operator_laws():
    for n, k in [(1, 2), (2, 0), (2, 2), (3, 2)]:
        assert verify_operator_laws(n, k).ok


def test_theta_outcomes():
    r2 = verify_theta(2)
    assert r2.ok
    # the stated right-hand side is unreachable beyond n=2; the check fails
    # honestly while the derived identities in the notes hold
    r3 = verify_theta(3)
    assert r3.status == "fail" and r3.failures
    assert any("derived componentwise image holds: True" in n for n in r3.notes)
    assert any("pairing law holds: True" in n for n in r3.notes)


def test_report_json_schema():
    r = verify_direct(2, 1)
    d = r.to_json_dict()
    assert list(d) == [
        "check", "params", "status", "sign", "total_cases", "failures", "elapsed_ms",
    ]
    assert d["status"] in ("pass", "fail", "pass_with_sign")
    assert d["sign"] in (1, -1, None)
    assert isinstance(d["total_cases"], int)
    assert isinstance(d["failures"], list)
    json.dumps(d)  # serializable


def test_failure_payload_shape():
    r = verify_theta(3)
    f = r.failures[0]
    assert set(f) == {"graph", "expected", "actual"}
    assert all(len(e) == 2 for e in f["graph"])
    assert "/" in f["expected"] and "/" in f["actual"]


def test_jobs_do_not_change_payload():
    a = run_check("operator_laws", {"n": 2, "k": 5}, jobs=1).to_json_dict()
    b = run_check("operator_laws", {"n": 2, "k": 5}, jobs=8).to_json_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


MULTISET_CASES = {
    "direct": _direct_case,
    "direct_prime": _direct_prime_case,
    "mobius": _mobius_case,
}


def test_cases_depend_only_on_the_edge_multiset():
    # the multiset walk runs each case once, on the sorted edge tuple
    for case in MULTISET_CASES.values():
        for n, k in [(2, 3), (3, 2)]:
            for seq in product(directed_edge_types(n), repeat=k):
                assert case(n, k, seq) == case(n, k, tuple(sorted(seq)))
    for n, k in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        for seq in product(directed_edge_types(n), repeat=k):
            assert _multiset_laws(n, k, seq) == _multiset_laws(n, k, tuple(sorted(seq)))
    for seq in product(undirected_edge_types(3), repeat=3):
        assert _specval_case(3, 3, seq) == _specval_case(3, 3, tuple(sorted(seq)))


def test_multiset_walk_lists_every_failing_sequence_in_order(monkeypatch):
    # flip strong semiconnectivity on one-loop graphs, and miscount the
    # semiconnected orientations of one-loop undirected graphs, so the
    # identities fail on many multisets; the report must list every
    # ordering of each, in the order of a sequence-by-sequence walk
    classify_key = verify._classify_key
    orientation_counts = verify._orientation_counts

    def flipped(n, key):
        c = classify_key(n, key)
        if c.loop_count != 1:
            return c
        return dataclasses.replace(c, strongly_semiconnected=not c.strongly_semiconnected)

    def miscounted(n, key):
        ssc, ac = orientation_counts(n, key)
        return ssc + (sum(a == b for a, b in key) == 1), ac

    monkeypatch.setattr(verify, "_classify_key", flipped)
    monkeypatch.setattr(verify, "_orientation_counts", miscounted)
    for name, case in dict(MULTISET_CASES, specval=_specval_case).items():
        edge_types = undirected_edge_types if name == "specval" else directed_edge_types
        for n, k in [(2, 3), (3, 2), (2, 4)]:
            want = []
            for seq in product(edge_types(n), repeat=k):
                bad = case(n, k, seq)
                if bad is not None:
                    want.append(_failure(seq, *bad))
            assert want
            assert run_check(name, {"n": n, "k": k}).failures == want


def _numbering_fault(p, s):
    """b_1 doubles sums with a graph whose first edge is (1, 2): a position
    fault that depends on the edge numbering."""
    out = b_op(p, s)
    if p == 1 and any(g.edges[0] == (1, 2) for g in s.support()):
        return 2 * out
    return out


def _commute_fault(p, s):
    """b_1 doubles any result with more than n - 1 terms: it resolves loops
    at position 1 and at another position of the same sequence, so only
    b_1 b_q != b_q b_1 breaks, and only for n >= 3."""
    out = b_op(p, s)
    return 2 * out if p == 1 and len(out) > s.n - 1 else out


def _sign_flip(p, s):
    """b_op with the sign of every loop's replacement image flipped: b_p(s)
    is the terms of s with no loop at p (kept) plus the image R of the
    others, so the flipped result is kept - R = 2 kept - b_p(s).  Each b_p
    stays idempotent and every two of them commute."""
    out = b_op(p, s)
    if out is s:
        return out
    s = s.expand()
    kept = {e: c for e, c in s._terms.items() if e[p - 1][0] != e[p - 1][1]}
    return 2 * FormalSum._wrap(s.n, s.k, kept, s.kind) - out


def _copying(p, s):
    """b_op, returning an equal new sum where b_op returns its argument."""
    out = b_op(p, s)
    return out.scale(1) if out is s else out


def _all_call_position_laws(n, k, edges):
    """The position laws with no call skipped: k singles, k idempotence and
    k(k - 1) commutation calls of ``verify.b_op`` per sequence."""
    s = FormalSum.single(DirectedGraph(n, edges))
    singles = [verify.b_op(p, s) for p in range(1, k + 1)]
    for p in range(1, k + 1):
        if verify.b_op(p, singles[p - 1]) != singles[p - 1]:
            return "law:idempotent", "violated"
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            if verify.b_op(q, singles[p - 1]) != verify.b_op(p, singles[q - 1]):
                return "law:commute", "violated"
    return None


def test_operator_laws_list_every_failing_sequence_in_order(monkeypatch):
    # a support fault that depends only on the multiset (graphs with one
    # loop at vertex 2 gain a sink) and a position fault that depends on the
    # numbering; the report must equal a walk that runs both halves on
    # every sequence, the position law winning where both fail
    classify_key = verify._classify_key

    def loop_gains_sink(n, key):
        c = classify_key(n, key)
        if key.count((2, 2)) != 1:
            return c
        return dataclasses.replace(c, sinks=c.sinks | {0})

    monkeypatch.setattr(verify, "_classify_key", loop_gains_sink)
    monkeypatch.setattr(verify, "b_op", _numbering_fault)
    for n, k in [(2, 3), (3, 2), (2, 4)]:
        want = []
        names = set()
        both = 0
        for seq in product(directed_edge_types(n), repeat=k):
            position = _position_laws(n, k, seq)
            multiset = _multiset_laws(n, k, tuple(sorted(seq)))
            both += position is not None and multiset is not None
            bad = position or multiset
            if bad is not None:
                names.add(bad[0])
                want.append(_failure(seq, *bad))
        assert both and {"law:idempotent", "law:support"} <= names
        assert run_check("operator_laws", {"n": n, "k": k}).failures == want


def test_operator_laws_catch_a_fault_only_commute_sees(monkeypatch):
    monkeypatch.setattr(verify, "b_op", _commute_fault)
    for n, k, count in [(3, 2, 9), (3, 3, 135)]:
        want = []
        for seq in product(directed_edge_types(n), repeat=k):
            bad = _position_laws(n, k, seq) or _multiset_laws(n, k, seq)
            if bad is not None:
                assert bad == ("law:commute", "violated")
                want.append(_failure(seq, *bad))
        assert len(want) == count
        assert run_check("operator_laws", {"n": n, "k": k}).failures == want


def test_operator_laws_catch_a_sign_flip_only_compose_sees(monkeypatch):
    # flipped replacement signs keep every position law and leave laplace,
    # which does not call b_op, as it was; only law:compose sees the fault,
    # on each multiset with an odd number of loops
    assert verify_operator_laws(2, 1).ok
    monkeypatch.setattr(verify, "b_op", _sign_flip)
    r = verify_operator_laws(2, 1)
    assert r.status == "fail"
    assert r.failures == [_failure(((a, a),), "law:compose", "violated") for a in (1, 2)]


def test_operator_laws_call_b_op_on_every_sequence_and_position(monkeypatch):
    # k singles per sequence, then k calls for each position whose image
    # b_op changed (an image it returned as it is needs none):
    # k(1 + |moved|) per sequence, k n^(2k - 1) (n + k) in all; then k
    # calls per multiset, composing b_1, ..., b_k for law:compose.  Every
    # position still sees every sequence's own one-term sum exactly once
    # from the position laws, besides the sums the compose walk passes it
    calls = []

    def counted(p, s):
        calls.append((p, s))
        return b_op(p, s)

    def own(pairs):
        out = Counter()
        for p, s in pairs:
            terms = s.terms()
            if len(terms) == 1 and terms[0][1] == 1:
                out[p, terms[0][0].edges] += 1
        return out

    monkeypatch.setattr(verify, "b_op", counted)
    for n, k, want in [(3, 2, 360), (2, 3, 540)]:
        multisets = list(combinations_with_replacement(directed_edge_types(n), k))
        calls.clear()
        assert verify_operator_laws(n, k).ok
        assert len(calls) == want == k * n ** (2 * k - 1) * (n + k) + k * len(multisets)
        composed = []
        for ms in multisets:
            s = FormalSum.single(DirectedGraph(n, ms))
            for p in range(1, k + 1):
                composed.append((p, s))
                s = b_op(p, s)
        assert own(calls) == own(composed) + Counter({
            (p, seq): 1
            for seq in product(directed_edge_types(n), repeat=k)
            for p in range(1, k + 1)
        })


def test_operator_laws_build_no_graphs(monkeypatch):
    # the laws run on edge tuples: no graph object is built, for a sequence
    # or a multiset or an image; nor does any cell of the default grid, the
    # Potts side included
    built = []
    post = graphs._Graph.__post_init__
    monkeypatch.setattr(graphs._Graph, "__post_init__",
                        lambda self: built.append(self) or post(self))
    assert verify_operator_laws(3, 3).ok
    assert all(r.ok for r in run_suite(SuiteConfig()) if r.check != "theta")
    assert built == []
    DirectedGraph(3, ((1, 1),))
    assert len(built) == 1


@pytest.mark.parametrize("fault", [None, _numbering_fault, _commute_fault, _copying],
                         ids=["none", "numbering", "commute", "copying"])
def test_position_laws_skip_only_calls_that_cannot_fail(monkeypatch, fault):
    # the check passes b_op only the images it changed; under no fault,
    # under each position fault, and under a b_op that never returns its
    # argument, its report equals a walk that makes every call
    calls = []

    def counted(p, s):
        calls.append(p)
        return (fault or b_op)(p, s)

    monkeypatch.setattr(verify, "b_op", counted)
    failing = 0
    names = set()
    for n, k in [(3, 2), (2, 3), (3, 3)]:
        want = []
        for seq in product(directed_edge_types(n), repeat=k):
            bad = (_all_call_position_laws(n, k, seq)
                   or _multiset_laws(n, k, tuple(sorted(seq))))
            if bad is not None:
                names.add(bad[0])
                want.append(_failure(seq, *bad))
        calls.clear()
        assert run_check("operator_laws", {"n": n, "k": k}).failures == want
        if fault is _copying:
            multisets = len(list(combinations_with_replacement(directed_edge_types(n), k)))
            assert len(calls) == n ** (2 * k) * k * (k + 1) + k * multisets
        failing += len(want)
    assert bool(failing) == (fault in (_numbering_fault, _commute_fault))
    # b_1 doubling a sum whose first edge is (1, 2) also breaks the
    # composition for the multisets that sort that edge first
    assert ("law:compose" in names) == (fault is _numbering_fault)


# ---------------------------------------------------------------------------
# Tables shared across cells.


def _payloads(cells):
    out = {}
    for name, params in cells:
        r = run_check(name, params)
        out[json.dumps([name, params], sort_keys=True)] = (
            {f: v for f, v in r.to_json_dict().items() if f != "elapsed_ms"}, r.notes,
        )
    return out


def test_payloads_do_not_depend_on_cell_order():
    # whichever cell fills a shared table, every cell reads the same value
    cells = suite_cells(SuiteConfig())
    assert len(cells) == 326
    for table in verify.SHARED_TABLES:
        table.cache_clear()
    forward = _payloads(cells)
    for table in verify.SHARED_TABLES:
        table.cache_clear()
    assert _payloads(cells[::-1]) == forward


def test_sign_cells_read_the_table_direct_filled(monkeypatch):
    classify_key = verify._classify_key
    calls = []
    monkeypatch.setattr(
        verify, "_classify_key", lambda n, key: calls.append(key) or classify_key(n, key)
    )
    assert verify_direct(3, 3).ok
    assert calls
    calls.clear()
    assert verify_direct_prime(3, 3).ok
    assert verify_mobius_equiv(3, 3).ok
    assert calls == []


def test_derivative_cells_pair_each_determinant_once(monkeypatch):
    pairing = verify.pairing
    calls = []
    monkeypatch.setattr(verify, "pairing", lambda m, s: calls.append(s) or pairing(m, s))
    n, k = 2, 3
    wanted = {(k, ())}
    for i in range(1, n + 1):
        for m in range(1, k + 1):
            assert verify_derivative(n, k, i, m).ok
            wanted |= {(k - m, ()), (k - m, (i,))}
    assert len(calls) == len(wanted) == 10


# ---------------------------------------------------------------------------
# Failure branches: each fault is injected by patching one name in verify.


def _has_loop(s):
    return any(a == b for key in s._terms for a, b in key)


def test_minor_pairing_reports_both_kinds_of_case(monkeypatch):
    pairing = verify.pairing
    monkeypatch.setattr(verify, "pairing", lambda m, s: -pairing(m, s))
    r = verify_minor_pairing(1)
    assert (r.status, r.total_cases) == ("fail", 3)
    assert r.failures == [
        {"graph": [], "expected": "I=[]: 1/1 * w[1,1]", "actual": "-1/1 * w[1,1]"},
        {"graph": [], "expected": "I=[1]: -1/1", "actual": "1/1"},
        {"graph": [], "expected": "i/j=1/1: -1/1", "actual": "1/1"},
    ]
    assert r.notes == ("literal unsigned phrasing holds in every case: False",)


def test_kirchhoff_diag_reports_law_oracle_and_count(monkeypatch):
    # one extra graph, a loop, among the trees directed to vertex 1
    class_sum = verify.class_sum
    extra = SymmetricSum(2, 1, {((2, 2),): 1})
    monkeypatch.setattr(verify, "class_sum", lambda *a, **kw: class_sum(*a, **kw) + extra)
    r = verify_kirchhoff_diag(2, (1,))
    assert (r.status, r.total_cases) == ("fail", 3)
    assert r.failures == [
        {"graph": [], "expected": "minor-law: -1/1 * w[2,1] + -1/1 * w[2,2]",
         "actual": "-1/1 * w[2,1]"},
        {"graph": [], "expected": "forest-oracle: 1/1 * w[2,1]",
         "actual": "1/1 * w[2,1] + 1/1 * w[2,2]"},
        {"graph": [], "expected": "1/1", "actual": "2/1"},
    ]
    assert r.notes == ("tree count 2 vs Cayley 1",)


def test_kirchhoff_codim1_reports_the_minor(monkeypatch):
    forests = verify.rooted_forest_poly
    monkeypatch.setattr(verify, "rooted_forest_poly", lambda n, roots: -forests(n, roots))
    r = verify_kirchhoff_codim1(2, 1, 2)
    assert (r.status, r.total_cases) == ("fail", 1)
    assert r.failures == [
        {"graph": [], "expected": "-1/1 * w[2,1]", "actual": "1/1 * w[2,1]"},
    ]


def test_derivative_reports_a_sign_probe_that_fails(monkeypatch):
    # doubling the element with I = {i} breaks the law for both signs
    universal_det = verify.universal_det

    def doubled(n, k, I=(), cap=None):
        out = universal_det(n, k, I, cap=cap)
        return 2 * out if I else out

    monkeypatch.setattr(verify, "universal_det", doubled)
    r = verify_derivative(1, 1, 1, 1)
    assert (r.status, r.sign, r.total_cases) == ("fail", None, 2)
    assert r.failures == [{"graph": [], "expected": "2/1", "actual": "1/1"}]
    assert r.notes == ("literal (+1) phrasing holds: False",)


@pytest.mark.parametrize("factor, status, sign, failures, literal", [
    (-1, "pass_with_sign", 1, [], True),
    (2, "fail", None, [{"graph": [[1, 1]], "expected": "2/1", "actual": "1/1"}], False),
])
def test_expansion_probe_outcomes(monkeypatch, factor, status, sign, failures, literal):
    # a negated minor element makes the literal +1 phrasing hold; a doubled
    # one matches neither sign, and the failures compare with the -1 side
    universal_codim1 = verify.universal_codim1
    monkeypatch.setattr(
        verify, "universal_codim1", lambda *a, **kw: factor * universal_codim1(*a, **kw)
    )
    r = verify_expansion(1, 1)
    assert (r.status, r.sign, r.total_cases, r.failures) == (status, sign, 1, failures)
    assert r.notes == (f"literal (+1) phrasing holds: {literal}",)
    assert not r.ok


def test_theta_reports_a_nonzero_top_part(monkeypatch):
    # with the top part left unresolved, every graph of it is a failure
    laplace = verify.laplace
    monkeypatch.setattr(verify, "laplace", lambda s: s if s.k == 3 else laplace(s))
    r = verify_theta(2)
    top = universal_det(2, 3)
    assert top
    assert r.status == "fail"
    assert r.failures == [_failure(g.edges, 0, c) for g, c in top.terms()]
    assert r.notes == (
        "top-degree part vanishes: False",
        "derived componentwise image holds: True",
        "diagonal minor-sum pairing law holds: True",
    )


@pytest.mark.parametrize("name, law", [
    ("laplace", "laplace-idempotent"), ("pairing", "pairing"),
])
def test_operator_laws_report_the_numbering_free_laws(monkeypatch, name, law):
    # each fault adds to, or doubles, what the operator gives on a sum with
    # a loop, so only the two looped graphs at (2, 1) break a law
    real = getattr(verify, name)
    faults = {
        "laplace": lambda s: real(s) + s if _has_loop(s) else real(s),
        "pairing": lambda m, s: 2 * real(m, s) if _has_loop(s) else real(m, s),
    }
    monkeypatch.setattr(verify, name, faults[name])
    r = verify_operator_laws(2, 1)
    assert (r.status, r.total_cases) == ("fail", 4)
    assert r.failures == [
        {"graph": [[v, v]], "expected": f"law:{law}", "actual": "violated"}
        for v in (1, 2)
    ]


@st.composite
def n4_sequences(draw):
    """An edge sequence of 3 or 4 edges on 4 vertices, beyond the grid."""
    edge = st.tuples(st.integers(1, 4), st.integers(1, 4))
    k = draw(st.sampled_from([3, 4]))
    return k, tuple(draw(st.lists(edge, min_size=k, max_size=k)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(n4_sequences())
def test_operator_laws_hold_on_random_n4_sequences(case):
    k, seq = case
    assert _position_laws(4, k, seq) is None
    assert _multiset_laws(4, k, seq) is None
    # the walk runs the multiset laws on the sorted edge tuple
    assert _multiset_laws(4, k, tuple(sorted(seq))) is None


def test_cap_guard_raises():
    with pytest.raises(CapExceeded):
        verify_direct(9, 9)
    with pytest.raises(CapExceeded):
        verify_diag(3, 3, (), cap=10)
    # class sums and universal elements count the multisets they walk:
    # C(3^2 + 4 - 1, 4) = 495 at degree 4, and C(3^2 + 3, 4) = 495 for the
    # codim-1 element of degree 3, which reads degree 4
    class_sum(3, 4, "AC", cap=495)
    with pytest.raises(CapExceeded):
        class_sum(3, 4, "AC", cap=494)
    universal_codim1(3, 3, 1, 2, cap=495)
    with pytest.raises(CapExceeded):
        universal_codim1(3, 3, 1, 2, cap=494)
    # at k <= 2 that walk is longer than the 9^k edge sequences: C(3^2 + 1, 2)
    # = 45 for the codim-1 element of degree 1
    universal_codim1(3, 1, 1, 2, cap=45)
    with pytest.raises(CapExceeded):
        universal_codim1(3, 1, 1, 2, cap=44)
    # expanding counts the numbered graphs it builds, and checks that compare
    # numbered graphs count edge sequences
    s = universal_det(3, 4)
    with pytest.raises(CapExceeded):
        s.expand(cap=len(s) - 1)
    assert s.expand(cap=len(s)) == s
    with pytest.raises(CapExceeded):
        universal_det(3, 8).terms()  # 19,973,520 numbered graphs
    with pytest.raises(CapExceeded):
        verify_expansion(3, 4, cap=9 ** 4 - 1)


def test_run_check_dispatch():
    r = run_check("diag", {"n": 2, "k": 1, "I": (2,)})
    assert r.check == "diag" and r.ok
    with pytest.raises(KeyError):
        run_check("nonsense", {})


def test_reports_name_their_cell():
    for name, params in suite_cells(SuiteConfig(max_n=2, max_k=2)):
        r = run_check(name, params)
        assert (r.check, r.params) == (name, params)


def test_vertex_set_is_read_once_before_the_check_runs():
    r = verify_diag(2, 1, iter([2]))
    assert (r.params["I"], r.status, r.total_cases) == ([2], "pass", 1)
    r = verify_kirchhoff_diag(3, iter([3, 1]))
    assert r.ok and r.params["I"] == [1, 3]


def test_bad_vertex_is_refused_before_params_are_built():
    with pytest.raises(ValueError, match="vertices must be integers"):
        verify_diag(2, 1, (1, "a"))
    with pytest.raises(ValueError, match="vertices must be integers"):
        verify_kirchhoff_diag(3, (1, "a"))


def test_params_are_the_arguments_but_cap():
    r = verify_codim1(3, 2, i=1, j=2)
    assert r.params == {"n": 3, "k": 2, "i": 1, "j": 2}


def test_run_check_passes_jobs_only_to_chunking_checks():
    # every check runs serially; run_check accepts jobs and ignores it
    r = run_check("diag", {"n": 2, "k": 1, "I": (2,)}, jobs=2)
    assert r.check == "diag" and r.ok
    chunking = {
        name for name, fn in CHECK_FUNCTIONS.items()
        if "jobs" in inspect.signature(fn).parameters
    }
    assert chunking == set()


def test_suite_small_grid():
    cfg = SuiteConfig(max_n=2, max_k=1)
    reports = run_suite(cfg)
    assert len(reports) == len(suite_cells(cfg))
    assert all(r.ok for r in reports if r.status != "skipped")


def test_suite_marks_capped_cells_skipped():
    cfg = SuiteConfig(max_n=2, max_k=2, cap=5)
    reports = run_suite(cfg)
    assert any(r.status == "skipped" for r in reports)
    for (name, params), r in zip(suite_cells(cfg), reports):
        if r.status == "skipped":
            assert r.to_json_dict() == {
                "check": name, "params": params, "status": "skipped", "sign": None,
                "total_cases": 0, "failures": [], "elapsed_ms": 0,
            }
            assert r.notes == () and not r.vacuous


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_n=0)
    with pytest.raises(ValueError):
        SuiteConfig(jobs=0)
