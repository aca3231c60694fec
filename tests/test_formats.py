"""Text formats: graphs, formal sums, and their round trips."""

from fractions import Fraction

import pytest

from graphdet import (
    DirectedGraph,
    FormalSum,
    GradedElement,
    GraphFormatError,
    UndirectedGraph,
    b_op,
    forget_sum,
    format_formal_sum,
    format_graph,
    parse_formal_sum,
    laplace,
    parse_graph,
    universal_codim1,
    universal_det,
    u_sum,
    x_sum,
)

D = DirectedGraph
U = UndirectedGraph


def test_graph_format():
    g = D(2, ((1, 2), (2, 1)))
    text = format_graph(g)
    assert text == "D 2 2\n1 2\n2 1\n"
    assert parse_graph(text) == g
    u = U(3, ((2, 1), (3, 3)))
    assert format_graph(u) == "U 3 2\n1 2\n3 3\n"
    assert parse_graph(format_graph(u)) == u
    assert parse_graph("D 2 0\n") == D(2, ())


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("X 2 1\n1 2\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("D 2 1\n1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("D 2 1\n1 5\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("D 2 2\n1 2\n")  # edge count mismatch


def test_formal_sum_format_sorted_and_exact():
    s = universal_det(2, 2, ())
    text = format_formal_sum(s)
    assert text == (
        "FS 2 2\n"
        "1/2 | 1 1 ; 2 2\n"
        "-1/2 | 1 2 ; 2 1\n"
        "-1/2 | 2 1 ; 1 2\n"
        "1/2 | 2 2 ; 1 1\n"
    )
    assert parse_formal_sum(text) == s


def test_formal_sum_zero_and_degree_zero():
    assert format_formal_sum(FormalSum.zero(2, 1)) == "FS 2 1\n"
    assert parse_formal_sum("FS 2 1\n").is_zero
    s = FormalSum.single(D(3, ()), Fraction(-2, 3))
    text = format_formal_sum(s)
    assert text == "FS 3 0\n-2/3 |\n"
    assert parse_formal_sum(text) == s


def test_formal_sum_roundtrip_various():
    for s in [
        universal_det(3, 3, ()),
        universal_codim1(3, 2, 1, 3),
        universal_det(2, 3, (1,)),
    ]:
        assert parse_formal_sum(format_formal_sum(s)) == s


def test_undirected_formal_sum_format():
    s = FormalSum.single(U(2, ((2, 1),)), Fraction(5))
    text = format_formal_sum(s)
    assert text == "FSU 2 1\n5/1 | 1 2\n"
    parsed = parse_formal_sum(text)
    assert parsed == s
    assert isinstance(parsed.support()[0], U)


def test_formal_sum_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_formal_sum("")
    with pytest.raises(GraphFormatError) as exc:
        parse_formal_sum("FS 2\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_formal_sum("FS 2 1\n1/2 ; 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_formal_sum("FS 2 1\none | 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_formal_sum("FS 2 1\n1/1 | 1 2 ; 2 1\n")  # wrong degree


def test_parse_merges_duplicate_terms():
    s = parse_formal_sum("FS 2 1\n1/2 | 1 2\n1/2 | 1 2\n")
    assert s == FormalSum.single(D(2, ((1, 2),)), 1)


def test_zero_sum_keeps_its_kind():
    assert format_formal_sum(parse_formal_sum("FSU 2 1\n")) == "FSU 2 1\n"
    assert format_formal_sum(parse_formal_sum("FS 2 1\n")) == "FS 2 1\n"
    zu = FormalSum.zero(2, 1, UndirectedGraph)
    assert zu != FormalSum.zero(2, 1)
    assert parse_formal_sum(format_formal_sum(zu)) == zu
    # cancellation, scaling by zero and the operators keep the kind too
    s = FormalSum.single(U(2, ((1, 1),)))
    for z in (s - s, 0 * s, laplace(s - s), b_op(1, s - s)):
        assert z.is_zero and z.kind is UndirectedGraph
    assert format_formal_sum(forget_sum(FormalSum.zero(2, 1))) == "FSU 2 1\n"
    assert forget_sum(universal_det(2, 1, ())).kind is UndirectedGraph
    # so do the stream sums and a graded element's missing parts
    assert u_sum([], n=2, k=1, kind=U) == forget_sum(FormalSum.zero(2, 1))
    assert x_sum([], n=2, k=1, kind=UndirectedGraph).kind is UndirectedGraph
    assert u_sum([U(2, ((1, 2),))]).kind is UndirectedGraph
    graded = GradedElement(2, {1: forget_sum(FormalSum.zero(2, 1))})
    assert graded.kind is UndirectedGraph and not graded.parts
    assert graded.part(3) == FormalSum.zero(2, 3, UndirectedGraph)
    assert (2 * graded).kind is UndirectedGraph
    assert laplace(graded.part(1)).kind is UndirectedGraph
    assert GradedElement(2).part(1).kind is DirectedGraph
