"""Structural graph operations against independent oracles and small-case
exhaustion."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from graphdet import (
    DirectedGraph,
    FormalSum,
    UndirectedGraph,
    beta0,
    beta1,
    classify,
    enumerate_class,
    enumerate_graphs,
    enumerate_undirected,
    forget,
    orientations,
)
from graphdet.graphs import CapExceeded, _merge_vertices, is_ssc_by_edges

D = DirectedGraph
U = UndirectedGraph


def beta0_unionfind(n, edges):
    """Independent component counter."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(1, n + 1)})


def all_small_graphs():
    for n in (1, 2, 3):
        for k in range(0, 4):
            yield from enumerate_graphs(n, k)


def test_graph_validation():
    with pytest.raises(ValueError):
        D(0, ())
    with pytest.raises(ValueError):
        D(2, ((1, 3),))
    with pytest.raises(ValueError):
        U(2, ((0, 1),))


def test_equality_is_sequence_identity():
    assert D(2, ((1, 2), (2, 1))) != D(2, ((2, 1), (1, 2)))
    assert D(2, ((1, 2),)) != U(2, ((1, 2),))
    assert U(3, ((2, 1),)) == U(3, ((1, 2),))  # canonical storage


def test_edges_are_stored_as_int_tuples():
    # a list edge is stored as a tuple, so the graph hashes, classifies and
    # compares like the tuple-built one
    g = D(2, ([1, 2],))
    assert g == D(2, ((1, 2),)) and g.edges == ((1, 2),)
    assert hash(g) == hash(D(2, ((1, 2),)))
    assert classify(g) == classify(D(2, ((1, 2),)))
    assert FormalSum.single(g) == FormalSum.single(D(2, ((1, 2),)))
    assert D(2, [[1, 2], (2, 2)]).edges == ((1, 2), (2, 2))
    assert U(2, ([2, 1],)).edges == ((1, 2),)
    # a vertex count or endpoint that is not an int is refused, bools too
    for bad in [
        lambda: D(2, ((1.0, 2),)),
        lambda: D(2, ((1, 2.0),)),
        lambda: D(2.0, ()),
        lambda: D(True, ()),
        lambda: D(2, ((True, 2),)),
        lambda: U(2, ((True, 2),)),
        lambda: U(2, ((1, 2.0),)),
    ]:
        with pytest.raises(ValueError):
            bad()


def test_merge_vertices():
    # vertex hi merges into lo, the vertices above hi shift down by one, and
    # each edge keeps its orientation and its place
    assert _merge_vertices(((2, 3),), 1, 2) == ((1, 2),)
    assert _merge_vertices(((2, 1),), 1, 2) == ((1, 1),)
    assert _merge_vertices(((2, 2),), 1, 3) == ((2, 2),)
    assert _merge_vertices(((3, 1), (2, 4), (4, 4)), 2, 3) == ((2, 1), (2, 3), (3, 3))
    assert _merge_vertices((), 1, 2) == ()


def test_beta0_against_unionfind():
    assert beta0(D(3, ())) == 3
    assert beta0(D(2, ((1, 1),))) == 2
    assert beta0(D(2, ((1, 2), (2, 1)))) == 1
    for g in all_small_graphs():
        assert beta0(g) == beta0_unionfind(g.n, g.edges)


def test_beta1_examples_and_euler():
    assert beta1(D(1, ((1, 1),))) == 1
    assert beta1(D(2, ((1, 2), (2, 1)))) == 1
    assert beta1(D(4, ((1, 2), (2, 3), (1, 4)))) == 0  # a forest
    for g in all_small_graphs():
        assert beta0(g) - beta1(g) == g.n - g.k


def test_classify_examples():
    c = classify(D(2, ((1, 2), (2, 1))))
    assert c.strongly_connected and c.strongly_semiconnected
    assert not c.acyclic and c.sinks == frozenset() and c.beta0 == 1 and c.beta1 == 1
    c = classify(D(2, ((1, 1), (2, 2))))
    assert not c.strongly_connected and c.strongly_semiconnected
    assert c.beta0 == 2 and c.sinks == frozenset()
    c = classify(D(2, ((1, 2),)))
    assert c.acyclic and c.sinks == frozenset({2})
    assert not c.strongly_semiconnected
    # a vertex with a loop is not a sink; an isolated vertex is
    c = classify(D(2, ((1, 1),)))
    assert c.sinks == frozenset({2}) and c.isolated == frozenset({2})
    assert c.strongly_semiconnected and not c.acyclic


def test_isolated_subset_of_sinks_and_acyclic_laws():
    for g in all_small_graphs():
        c = classify(g)
        assert c.isolated <= c.sinks
        if c.acyclic:
            assert c.loop_count == 0
            assert c.sinks
        assert c.beta0 - c.beta1 == g.n - g.k


def test_ssc_two_implementations_agree():
    for g in all_small_graphs():
        assert classify(g).strongly_semiconnected == is_ssc_by_edges(g)


@st.composite
def larger_graphs(draw):
    """Up to 8 edges on 5..8 vertices: closed walks, which alone give a
    strongly semiconnected graph, plus a few stray edges, shuffled."""
    n = draw(st.integers(5, 8))
    vertex = st.integers(1, n)
    edges = []
    for walk in draw(st.lists(st.lists(vertex, min_size=1, max_size=4), max_size=3)):
        edges.extend(zip(walk, walk[1:] + walk[:1]))
    edges.extend(draw(st.lists(st.tuples(vertex, vertex), max_size=2)))
    return D(n, tuple(draw(st.permutations(edges[:8]))))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(larger_graphs())
def test_ssc_two_implementations_agree_on_larger_graphs(g):
    assert classify(g).strongly_semiconnected == is_ssc_by_edges(g)


def test_enumerate_counts_and_distinctness():
    gs = list(enumerate_graphs(2, 1))
    assert [g.edges for g in gs] == [((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),)]
    assert len(list(enumerate_graphs(3, 2))) == 81
    assert list(enumerate_graphs(1, 3)) == [D(1, ((1, 1), (1, 1), (1, 1)))]
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        gs = list(enumerate_graphs(n, k))
        assert len(gs) == (n * n) ** k
        assert len(set(gs)) == len(gs)


def test_enumerate_cap_guard():
    with pytest.raises(CapExceeded):
        list(enumerate_graphs(5, 8))
    with pytest.raises(CapExceeded):
        list(enumerate_graphs(2, 3, cap=10))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("GRAPHDET_CAP", "10")
    with pytest.raises(CapExceeded):
        list(enumerate_graphs(2, 2))
    monkeypatch.setenv("GRAPHDET_CAP", "100")
    assert len(list(enumerate_graphs(2, 2))) == 16


def test_enumerate_class_examples():
    ssc = list(enumerate_class(2, 2, "SSC", ()))
    assert {g.edges for g in ssc} == {
        ((1, 1), (2, 2)), ((2, 2), (1, 1)), ((1, 2), (2, 1)), ((2, 1), (1, 2))
    }
    assert len(list(enumerate_class(3, 2, "AC", (1,)))) == 3 ** 1 * 2  # Cayley
    for n, k in [(1, 0), (2, 2), (3, 1)]:
        assert list(enumerate_class(n, k, "AC", ())) == []


def test_enumerate_class_union_and_exactness():
    # I=None unions the per-set classes
    union = list(enumerate_class(2, 2, "AC"))
    by_sets = []
    for size in range(3):
        for I in itertools.combinations((1, 2), size):
            by_sets.extend(enumerate_class(2, 2, "AC", I))
    assert sorted(g.edges for g in union) == sorted(g.edges for g in by_sets)
    for g in enumerate_class(3, 2, "SSC", (2,)):
        assert classify(g).isolated == frozenset({2})


def test_cycle_cover_shape_of_tight_ssc():
    # with k = n - |I| every member is a disjoint union of cycles covering
    # the non-isolated vertices: out- and in-degree exactly 1 there
    for n, I in [(3, ()), (3, (2,)), (4, (1, 4))]:
        k = n - len(I)
        for g in enumerate_class(n, k, "SSC", I):
            outs = [a for a, _ in g.edges]
            ins = [b for _, b in g.edges]
            live = [v for v in range(1, n + 1) if v not in I]
            assert sorted(outs) == live
            assert sorted(ins) == live


def test_forget_and_orientations():
    assert forget(D(2, ((1, 2), (2, 1)))) == U(2, ((1, 2), (1, 2)))
    assert forget(D(1, ((1, 1),))) == U(1, ((1, 1),))
    g = D(3, ((2, 1), (1, 3)))
    assert forget(D(3, ((1, 2), (1, 3)))) == forget(g)  # edge 1 reversed
    assert len(list(orientations(U(2, ((1, 2),))))) == 2
    assert list(orientations(U(1, ((1, 1),)))) == [D(1, ((1, 1),))]
    two = U(2, ((1, 2), (1, 2)))
    ors = list(orientations(two))
    assert len(ors) == 4
    for o in ors:
        assert forget(o) == two


def test_orientation_count_matches_loop_rule():
    for u in enumerate_undirected(2, 3):
        nonloops = sum(1 for a, b in u.edges if a != b)
        ors = list(orientations(u))
        assert len(ors) == 2 ** nonloops
        assert all(forget(o) == u for o in ors)
