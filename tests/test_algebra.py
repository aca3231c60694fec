"""Formal sums, the concatenation product, and the determinant elements."""

import tracemalloc
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
from graphdet.algebra import class_sum, numbered
from graphdet.graphs import directed_edge_types
from graphdet.verify import _alpha_sigma, verify_expansion

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


def test_numbered():
    assert list(numbered({(1, 1, 2): "v"})) == [
        ((1, 1, 2), "v"), ((1, 2, 1), "v"), ((2, 1, 1), "v"),
    ]
    assert list(numbered({})) == []
    assert list(numbered({(): "v"})) == [((), "v")]
    # Lexicographic order, for every multiset of up to five edges on two
    # vertices alone, and for all multisets of one degree at once, each
    # ordering paired with its own multiset's value.
    for k in range(6):
        multisets = list(combinations_with_replacement(directed_edge_types(2), k))
        for m in multisets:
            assert list(numbered({m: 1})) == [(p, 1) for p in sorted(set(permutations(m)))]
        values = {m: i for i, m in enumerate(multisets)}
        union = sorted((p, values[m]) for m in multisets for p in set(permutations(m)))
        assert list(numbered(values)) == union


def _stream_filter(n, k, cls, I):
    """The class the slow way: classify every numbered graph, in order."""
    for g in enumerate_graphs(n, k):
        c = classify(g)
        member = c.strongly_semiconnected if cls == "SSC" else c.acyclic
        vs = c.isolated if cls == "SSC" else c.sinks
        if member and (I is None or vs == frozenset(I)):
            yield g


def test_class_sum_matches_stream_filter():
    # the walk against an independent per-sequence filter, which also
    # fixes the order enumerate_class lists the graphs in
    for n in (1, 2, 3):
        vertex_sets = [None] + [
            I for size in range(n + 1) for I in combinations(range(1, n + 1), size)
        ]
        for k in range(5):
            for cls in ("SSC", "AC"):
                for I in vertex_sets:
                    stream = list(_stream_filter(n, k, cls, I))
                    assert class_sum(n, k, cls, I) == u_sum(stream, n=n, k=k)
                    assert class_sum(n, k, cls, I, signed=True) == x_sum(stream, n=n, k=k)
                    assert list(enumerate_class(n, k, cls, I)) == stream


@pytest.mark.parametrize("build", [
    lambda: class_sum(2, 1, "AC", (5,)),
    lambda: class_sum(2, 2, "SSC", (0, 1), signed=True),
    lambda: universal_det(2, 1, (3,)),
    lambda: list(enumerate_class(2, 1, "AC", (5,))),
    lambda: class_sum(2, 1, "AC", (2.0,)),
    lambda: class_sum(2, 1, "SSC", (True,)),
    lambda: universal_det(2, 1, (1, 2.0)),
    lambda: list(enumerate_class(2, 1, "AC", (1.0,))),
    lambda: universal_codim1(2, 1, 1.0, 2),
    lambda: universal_codim1(2, 1, 1, True),
    lambda: universal_codim1(2, 1, 3, 1),
], ids=["class_sum-AC", "class_sum-SSC", "universal_det", "enumerate_class",
        "class_sum-float", "class_sum-bool", "universal_det-float", "enumerate_class-float",
        "universal_codim1-float", "universal_codim1-bool", "universal_codim1-range"])
def test_vertex_set_out_of_range_raises(build):
    # A float or bool vertex equal to one in 1..n is refused too.
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


@pytest.mark.parametrize("build", [
    lambda: universal_det(2, 1.0),
    lambda: FormalSum(2, 1.0),
    lambda: SymmetricSum.zero(2, True),
], ids=["universal_det-float-k", "FormalSum-float-k", "zero-bool-k"])
def test_sizes_must_be_integers(build):
    # 1.0 and True equal a valid size, but would reach the sum's n or k.
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


def test_enumerate_class_classifies_each_multiset_once(monkeypatch):
    # listing a class reads the walk: at most C(12,4) classifications for
    # (3, 4), not one per each of the 9^4 numbered graphs, and the
    # classification cache stays as it is
    calls = []
    for module, name in ((algebra, "_classify"), (graphs, "classify")):
        def counted(*args, original=getattr(module, name)):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    algebra._class_walk.cache_clear()
    cached = len(graphs._DIR_CACHE)
    assert len(list(enumerate_class(3, 4, "AC"))) > 0
    assert len(calls) <= 495
    assert len(graphs._DIR_CACHE) == cached


def test_enumerate_class_lists_in_little_memory():
    # the listing keeps one table per level of the walk, not a generator
    # per member multiset: about 0.25 MB is traced for AC(4, 4)
    class_sum(4, 4, "AC")
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_class(4, 4, "AC"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 10_788
    assert peak < 1_000_000


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
    theta(3)
    verify_expansion(2, 2)
    assert built == []
    directed.support()
    assert len(built) == 2
