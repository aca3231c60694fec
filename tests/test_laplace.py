"""The loop-resolving operators and the Laplace operator."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from graphdet import (
    DirectedGraph,
    FormalSum,
    UndirectedGraph,
    b_op,
    classify,
    enumerate_graphs,
    enumerate_undirected,
    forget_sum,
    laplace,
    laplace_matrix,
    pairing,
    theta,
    universal_det,
    WeightMatrix,
)
from graphdet.laplace import _replacements

D = DirectedGraph
U = UndirectedGraph


def basis(n, k):
    return [FormalSum.single(g) for g in enumerate_graphs(n, k)]


def test_b_op_examples():
    s = FormalSum.single(D(2, ((1, 2), (1, 1))))
    assert b_op(1, s) is s  # first edge not a loop: the sum itself
    assert b_op(2, s) == FormalSum.single(D(2, ((1, 2), (1, 2))), -1)
    s3 = FormalSum.single(D(3, ((1, 2), (1, 1))))
    assert b_op(2, s3) == FormalSum(3, 2, {
        D(3, ((1, 2), (1, 2))): -1,
        D(3, ((1, 2), (1, 3))): -1,
    })
    assert b_op(1, FormalSum.single(D(1, ((1, 1),)))).is_zero
    with pytest.raises(ValueError):
        b_op(3, s)
    # the position is checked before the sum is expanded: this one has
    # 19,973,520 numbered graphs, past the default cap
    with pytest.raises(ValueError, match=r"edge position 9 out of range 1\.\.8"):
        b_op(9, universal_det(3, 8))
    # a position is an int: 1.0 and True equal 1 but are refused, on a sum
    # with terms and on a zero sum alike
    for p in (1.0, True, "1"):
        for t in (s, FormalSum.zero(2, 2)):
            with pytest.raises(ValueError, match="out of range 1..2"):
                b_op(p, t)


def test_replacements_table():
    # the n-1 edges from a, in order of the other endpoint, undirected ones
    # stored as (min, max); a tuple, so no caller can change the shared value
    for kind in (D, U):
        for n in range(1, 5):
            for a in range(1, n + 1):
                table = _replacements(kind, n, a)
                assert type(table) is tuple
                expected = [(a, b) for b in range(1, n + 1) if b != a]
                if kind is U:
                    expected = [(min(e), max(e)) for e in expected]
                assert list(table) == expected
                assert _replacements(kind, n, a) is table


def _b_op_reference(p, s):
    """b_op without its shortcuts: every sum is rebuilt through the
    validating constructor, loop or not."""
    s = s.expand()
    if not (1 <= p <= s.k):
        raise ValueError(f"edge position {p} out of range 1..{s.k}")
    terms: dict = {}
    for g, c in s.terms():
        a, b = g.edges[p - 1]
        if a != b:
            terms[g] = terms.get(g, 0) + c
            continue
        if s.n == 1:
            continue
        for e in _replacements(type(g), s.n, a):
            h = type(g)(s.n, g.edges[: p - 1] + (e,) + g.edges[p:])
            terms[h] = terms.get(h, 0) - c
    return FormalSum(s.n, s.k, terms, s.kind)


def _check_b_op(p, s):
    out = b_op(p, s)
    assert out == _b_op_reference(p, s)
    assert out.kind is s.kind
    assert all(type(c) is Fraction and c for _, c in out.terms())
    has_loop = any(g.edges[p - 1][0] == g.edges[p - 1][1] for g in s.support())
    assert (out is s) == (not has_loop)


def test_b_op_matches_reference_on_single_graphs():
    for n, k in product(range(1, 4), range(1, 4)):
        for g in [*enumerate_graphs(n, k), *enumerate_undirected(n, k)]:
            for p in range(1, k + 1):
                _check_b_op(p, FormalSum.single(g))


def test_b_op_matches_reference_on_sums():
    for n, k in [(2, 2), (3, 1)]:
        for graphs in [list(enumerate_graphs(n, k)), list(enumerate_undirected(n, k))]:
            for r in (2, 3):
                for combo in combinations(graphs, r):
                    for signs in product((1, -1), repeat=r):
                        s = FormalSum(n, k, dict(zip(combo, signs)))
                        for p in range(1, k + 1):
                            _check_b_op(p, s)
    # a loop resolved onto a term already present cancels it
    for kind in (D, U):
        s = FormalSum(2, 1, {kind(2, ((1, 1),)): 1, kind(2, ((1, 2),)): 1})
        z = b_op(1, s)
        assert z.is_zero and z == FormalSum.zero(2, 1, kind) and z.kind is kind


def test_laplace_examples():
    assert laplace(FormalSum.single(D(2, ((1, 2),)))) == FormalSum.single(D(2, ((1, 2),)))
    assert laplace(FormalSum.single(D(2, ((1, 1), (2, 2))))) == FormalSum.single(
        D(2, ((1, 2), (2, 1)))
    )
    assert laplace(universal_det(2, 2, ())).is_zero
    # degree 0 fixed
    s0 = FormalSum.single(D(3, ()))
    assert laplace(s0) == s0


def test_laplace_equals_composed_b_ops():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for s in basis(n, k):
            composed = s
            for p in range(1, k + 1):
                composed = b_op(p, composed)
            assert laplace(s) == composed


def test_laplace_closed_form():
    # a graph with L loops goes to the (n-1)^L ways of moving every loop's
    # other end off its vertex, each with coefficient (-1)^L
    for n, k in product(range(1, 4), range(4)):
        for g in [*enumerate_graphs(n, k), *enumerate_undirected(n, k)]:
            kind = type(g)
            loops = [p for p, (a, b) in enumerate(g.edges) if a == b]
            image = laplace(FormalSum.single(g))
            assert image.kind is kind
            if n == 1 and loops:
                assert image == FormalSum.zero(n, k, kind)
                continue
            assert len(image) == (n - 1) ** len(loops)
            for h, c in image.terms():
                assert c == (-1) ** len(loops)
                assert all(a != b for a, b in h.edges)
                for p, (e, f) in enumerate(zip(g.edges, h.edges)):
                    if p not in loops:
                        assert f == e
                    elif kind is D:
                        assert f[0] == e[0]
                    else:
                        assert e[0] in f


def test_b_ops_commuting_idempotents():
    for n, k in [(2, 2), (3, 2)]:
        for s in basis(n, k):
            for p in range(1, k + 1):
                bp = b_op(p, s)
                assert b_op(p, bp) == bp
                for q in range(p + 1, k + 1):
                    assert b_op(q, bp) == b_op(p, b_op(q, s))


def test_laplace_idempotent_loopfree_sink_preserving():
    for n, k in [(2, 3), (3, 2)]:
        for g in enumerate_graphs(n, k):
            s = FormalSum.single(g)
            ds = laplace(s)
            assert laplace(ds) == ds
            for h in ds.support():
                c = classify(h)
                assert c.loop_count == 0
                assert c.sinks == classify(g).sinks


def test_pairing_identity():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        W = WeightMatrix.symbolic(n)
        Wh = laplace_matrix(W)
        for s in basis(n, k):
            assert pairing(Wh, s) == pairing(W, laplace(s))


def test_laplace_commutes_with_forget():
    for n, k in [(2, 2), (3, 2)]:
        for g in enumerate_graphs(n, k):
            s = FormalSum.single(g)
            assert forget_sum(laplace(s)) == laplace(forget_sum(s))


def test_laplace_undirected():
    s = FormalSum.single(U(2, ((1, 1), (2, 2))))
    assert laplace(s) == FormalSum.single(U(2, ((1, 2), (1, 2))))
    one_loop = FormalSum.single(U(3, ((2, 2),)))
    assert laplace(one_loop) == FormalSum(3, 1, {
        U(3, ((1, 2),)): -1,
        U(3, ((2, 3),)): -1,
    })


def test_laplace_graded():
    # laplace takes homogeneous sums only: a graded element goes part by part
    th = theta(2)
    images = {k: laplace(th.part(k)) for k in th.degrees()}
    assert {k for k, image in images.items() if image} <= {1, 3}
    with pytest.raises(TypeError):
        laplace(th)
