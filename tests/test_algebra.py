"""Formal sums, the concatenation product, and the determinant elements."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest

from graphdet import (
    DirectedGraph,
    FormalSum,
    GradedElement,
    SymmetricSum,
    UndirectedGraph,
    WeightMatrix,
    b_op,
    classify,
    concat_product,
    enumerate_class,
    enumerate_graphs,
    format_formal_sum,
    laplace,
    pairing,
    theta,
    u_sum,
    universal_codim1,
    universal_det,
    x_sum,
)
from graphdet import algebra, graphs
from graphdet.algebra import _alpha_sigma, class_sum, distinct_permutations
from graphdet.graphs import directed_edge_types

D = DirectedGraph
half = Fraction(1, 2)


def test_formal_sum_basics():
    g = D(2, ((1, 2),))
    s = FormalSum.single(g)
    assert s + FormalSum.zero(2, 1) == s
    assert (0 * s).is_zero
    assert (s - s).is_zero
    assert s.coeff(g) == 1
    assert Fraction(2, 3) * s == FormalSum(2, 1, {g: Fraction(2, 3)})
    with pytest.raises(ValueError):
        s + FormalSum.zero(2, 2)
    with pytest.raises(ValueError):
        FormalSum(2, 1, {D(2, ((1, 2), (2, 1))): 1})


def test_zero_coefficients_are_dropped():
    g, h = D(2, ((1, 2),)), D(2, ((2, 1),))
    s = FormalSum(2, 1, {g: 1, h: 0})
    assert len(s) == 1 and s.coeff(h) == 0
    assert (FormalSum.single(g) + FormalSum.single(g, -1)).is_zero


def test_concat_product():
    a = FormalSum.single(D(2, ((1, 2),)))
    b = FormalSum.single(D(2, ((2, 1),)))
    assert concat_product(a, b) == FormalSum.single(D(2, ((1, 2), (2, 1))))
    assert concat_product(a, b) != concat_product(b, a)
    unit = FormalSum.single(D(2, ()))
    assert concat_product(unit, a) == a
    assert concat_product(a, unit) == a
    with pytest.raises(ValueError):
        concat_product(a, FormalSum.single(D(3, ((1, 2),))))


def test_concat_product_associative():
    gs = [FormalSum.single(g) for g in enumerate_graphs(2, 1)]
    s1 = gs[0] + 2 * gs[1]
    s2 = gs[2] - gs[3]
    s3 = gs[1] + gs[2]
    assert concat_product(concat_product(s1, s2), s3) == concat_product(
        s1, concat_product(s2, s3)
    )


def test_u_and_x_sums():
    quad = list(enumerate_class(2, 2, "SSC", ()))
    x = x_sum(quad)
    assert x == FormalSum(2, 2, {
        D(2, ((1, 1), (2, 2))): 1,
        D(2, ((2, 2), (1, 1))): 1,
        D(2, ((1, 2), (2, 1))): -1,
        D(2, ((2, 1), (1, 2))): -1,
    })
    assert u_sum([], n=2, k=1).is_zero
    with pytest.raises(ValueError):
        u_sum([])
    edgeless = D(2, ())
    assert x_sum([edgeless]) == FormalSum.single(edgeless, 1)  # beta0 = 2


def test_alpha_sigma():
    def signs(g):
        return _alpha_sigma(classify(g), g.k)

    assert signs(D(2, ((1, 2), (2, 1)))) == (0, -1)
    assert signs(D(2, ())) == (1, 1)
    assert signs(D(2, ((1, 2),)))[0] == -1
    assert signs(D(1, ((1, 1),)))[1] == -1


def test_universal_det_small():
    assert universal_det(2, 1, ()).is_zero  # k < n - |I|
    assert universal_det(3, 1, ()).is_zero
    assert universal_det(1, 1, ()) == FormalSum.single(D(1, ((1, 1),)))
    assert universal_det(2, 2, ()) == FormalSum(2, 2, {
        D(2, ((1, 1), (2, 2))): half,
        D(2, ((2, 2), (1, 1))): half,
        D(2, ((1, 2), (2, 1))): -half,
        D(2, ((2, 1), (1, 2))): -half,
    })
    assert universal_det(2, 1, (1,)) == FormalSum.single(D(2, ((2, 2),)), -1)
    with pytest.raises(ValueError):
        universal_det(2, 1, (3,))


def test_universal_det_support_shape():
    for n, k, I in [(2, 2, ()), (3, 2, (1,)), (3, 3, ()), (2, 3, (2,))]:
        s = universal_det(n, k, I)
        for g, c in s.terms():
            cl = classify(g)
            assert cl.strongly_semiconnected
            assert cl.isolated == frozenset(I)
            # k! * coefficient is a unit
            scaled = c * Fraction(
                [1, 1, 2, 6, 24][k]
            )
            assert scaled.denominator == 1 and abs(scaled) == 1


def test_universal_codim1():
    assert universal_codim1(2, 1, 1, 2) == FormalSum.single(D(2, ((2, 1),)), 1)
    # diagonal case decomposes
    for n, k, i in [(2, 2, 1), (3, 2, 2), (2, 1, 1)]:
        assert universal_codim1(n, k, i, i) == universal_det(n, k, ()) + universal_det(
            n, k, (i,)
        )
    s = universal_codim1(3, 2, 1, 3)
    assert s == FormalSum(3, 2, {
        D(3, ((3, 1), (2, 2))): half,
        D(3, ((2, 2), (3, 1))): half,
        D(3, ((3, 2), (2, 1))): -half,
        D(3, ((2, 1), (3, 2))): -half,
    })
    # every (i,j): the graphs G with (i,j)+G strongly semiconnected and
    # without isolated vertices, each (-1)^k/k! times (-1)^beta0((i,j)+G)
    for n in (1, 2, 3):
        for k in range(4):
            scale = Fraction((-1) ** k, factorial(k))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    terms = {}
                    for g in enumerate_graphs(n, k):
                        c = classify(D(n, ((i, j),) + g.edges))
                        if c.strongly_semiconnected and not c.isolated:
                            terms[g] = scale * (-1) ** c.beta0
                    assert universal_codim1(n, k, i, j) == FormalSum(n, k, terms)


def test_theta_structure():
    th = theta(2)
    assert th.degrees() == [1, 3]
    assert th.part(1) == FormalSum(2, 1, {
        D(2, ((1, 2),)): -1,
        D(2, ((2, 1),)): -1,
        D(2, ((1, 1),)): 1,
        D(2, ((2, 2),)): 1,
    })
    th3 = theta(3)
    assert th3.degrees() == [2, 4]
    with pytest.raises(ValueError):
        theta(1)


def test_graded_element():
    th = theta(2)
    assert th.part(5).is_zero and th.part(5).kind is DirectedGraph
    assert th.degrees() == [1, 3]
    assert GradedElement(2).degrees() == []
    assert GradedElement(2, {1: FormalSum.zero(2, 1)}).parts == {}
    with pytest.raises(ValueError):
        GradedElement(2, {2: th.part(1)})  # k disagrees with its key
    with pytest.raises(ValueError):
        GradedElement(3, {1: th.part(1)})  # so does n
    with pytest.raises(ValueError):
        GradedElement(2, {1: FormalSum.single(UndirectedGraph(2, ((1, 2),)))})


def test_distinct_permutations():
    assert sorted(distinct_permutations((1, 1, 2))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(distinct_permutations(())) == [()]
    items = ((1, 2), (1, 2), (2, 1))
    perms = list(distinct_permutations(items))
    assert len(perms) == 3 and len(set(perms)) == 3
    # Lexicographic order, for every multiset of up to five edges on two vertices.
    for k in range(6):
        for m in combinations_with_replacement(directed_edge_types(2), k):
            assert list(distinct_permutations(m)) == sorted(set(permutations(m)))


def test_class_sum_matches_stream_filter():
    for n in (1, 2, 3):
        vertex_sets = [None] + [
            I for size in range(n + 1) for I in combinations(range(1, n + 1), size)
        ]
        for k in range(5):
            for cls in ("SSC", "AC"):
                for I in vertex_sets:
                    stream = list(enumerate_class(n, k, cls, I))
                    assert class_sum(n, k, cls, I) == u_sum(stream, n=n, k=k)
                    assert class_sum(n, k, cls, I, signed=True) == x_sum(stream, n=n, k=k)


@pytest.mark.parametrize("build", [
    lambda: class_sum(2, 1, "AC", (5,)),
    lambda: class_sum(2, 2, "SSC", (0, 1), signed=True),
    lambda: universal_det(2, 1, (3,)),
    lambda: list(enumerate_class(2, 1, "AC", (5,))),
], ids=["class_sum-AC", "class_sum-SSC", "universal_det", "enumerate_class"])
def test_vertex_set_out_of_range_raises(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: class_sum(0, 1, "AC"),
    lambda: universal_det(0, 1),
    lambda: class_sum(0, 0, "AC"),
    lambda: class_sum(2, -1, "AC"),
], ids=["class_sum-n0", "universal_det-n0", "class_sum-n0-k0", "class_sum-k-1"])
def test_walk_refuses_bad_shape(build):
    with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
        build()


def test_one_classified_walk_per_degree(monkeypatch):
    # theta(3) reads the walks at k = 4, 2 and 1 and classifies each
    # multiset once: C(12,4) + C(10,2) + C(9,1) calls.  The walk keeps the
    # results in its buckets only, so the classification cache stays as it is.
    calls = []
    classify_multiset = algebra._classify

    def counted(n, key):
        calls.append(key)
        return classify_multiset(n, key)

    monkeypatch.setattr(algebra, "_classify", counted)
    algebra._class_walk.cache_clear()
    cached = len(graphs._DIR_CACHE)
    theta(3)
    assert len(calls) == len(set(calls)) == 495 + 45 + 9
    assert len(graphs._DIR_CACHE) == cached


def test_internal_paths_build_no_graphs(monkeypatch):
    # terms are stored under edge tuples; graph objects are built only by
    # the public constructor and by terms()/support()/map_graphs/str()
    U = UndirectedGraph
    directed = FormalSum(2, 2, {D(2, ((1, 1), (1, 2))): 1, D(2, ((2, 1), (2, 2))): -2})
    undirected = FormalSum(3, 2, {U(3, ((2, 2), (1, 3))): 1, U(3, ((1, 2), (2, 3))): 3})
    sym = universal_det(2, 3)
    sym_u = SymmetricSum(3, 2, {((1, 1), (1, 2)): Fraction(1)}, U)
    W = WeightMatrix.symbolic(2)
    built = []
    for cls in (D, U):
        def counted(self, post=cls.__post_init__):
            built.append(self)
            post(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    for s in (directed, undirected):
        b_op(1, s)
        laplace(s)
        concat_product(s, s)
        s.diff(laplace(s))
        format_formal_sum(s)
    for s in (sym, sym_u):
        s.expand()
        concat_product(s, s)
        s.diff(laplace(s))
        s.expand().diff(s)
        format_formal_sum(s)
    pairing(W, directed)
    pairing(W, sym)
    assert built == []
    directed.support()
    assert len(built) == 2
