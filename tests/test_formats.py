"""Text formats: graphs, formal sums, and their round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    # so do the stream sums; a graded element's missing parts are directed
    assert u_sum([], n=2, k=1, kind=U) == forget_sum(FormalSum.zero(2, 1))
    assert x_sum([], n=2, k=1, kind=UndirectedGraph).kind is UndirectedGraph
    assert u_sum([U(2, ((1, 2),))]).kind is UndirectedGraph
    assert GradedElement(2).part(1).kind is DirectedGraph


# Seeded round trips of both text formats, and every class of malformed line.

seeded = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def _edges(n, min_size=0, max_size=5):
    # few vertices, so that loops and repeated edges are common
    edge = st.tuples(st.integers(1, n), st.integers(1, n))
    return st.lists(edge, min_size=min_size, max_size=max_size).map(tuple)


@st.composite
def graphs(draw, min_edges=0):
    kind = draw(st.sampled_from([D, U]))
    n = draw(st.integers(1, 4))
    return kind(n, draw(_edges(n, min_size=min_edges)))


@st.composite
def formal_sums(draw):
    """Directed and undirected sums with nonzero rational coefficients; a
    third of them cancelled to the zero of their kind."""
    kind = draw(st.sampled_from([D, U]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    graph = _edges(n, k, k).map(lambda edges: kind(n, edges))
    coeff = st.fractions(max_denominator=12).filter(bool)
    s = FormalSum(n, k, draw(st.dictionaries(graph, coeff, max_size=4)), kind)
    return s - s if draw(st.integers(0, 2)) == 0 else s


@seeded
@given(graphs())
def test_graph_text_round_trip(g):
    text = format_graph(g)
    back = parse_graph(text)
    assert back == g and type(back) is type(g)
    assert format_graph(back) == text


@seeded
@given(formal_sums())
def test_formal_sum_text_round_trip(s):
    text = format_formal_sum(s)
    back = parse_formal_sum(text)
    assert back == s and back.kind is s.kind
    assert format_formal_sum(back) == text
    # the terms of -s cancel those of s to the zero of the header's kind
    minus = format_formal_sum(-s).split("\n", 1)[1]
    zero = parse_formal_sum(text + minus)
    assert zero.is_zero and zero.kind is s.kind


@st.composite
def _spread(draw, lines):
    """The lines joined, each after a run of blank lines; returns the text
    and the 1-based number of each line."""
    out, numbers = [], []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2)))
        out.append(line)
        numbers.append(len(out))
    return "\n".join(out) + "\n", numbers


def _arabic(number: int) -> str:
    """number in Arabic-Indic digits, which int() and Fraction() also read."""
    return "".join(chr(0x660 + int(d)) for d in str(number))


# Each malformed-header class: the header that replaces "TAG n k".
HEADER_FAULTS = {
    "tag": lambda tag, n, k: f"X {n} {k}",
    "field-count": lambda tag, n, k: f"{tag} {n}",
    "non-integer-field": lambda tag, n, k: f"{tag} {n} k",
    "vertex-count": lambda tag, n, k: f"{tag} 0 {k}",
    "negative-edge-count": lambda tag, n, k: f"{tag} {n} -1",
    "plus-sign": lambda tag, n, k: f"{tag} +{n} {k}",
    "underscore": lambda tag, n, k: f"{tag} {n}_0 {k}",
    "non-ascii-digit": lambda tag, n, k: f"{tag} {_arabic(n)} {k}",
}
# Each malformed-edge class, as the text of one "a b" edge.
EDGE_FAULTS = {
    "field-count": lambda n: "1 1 1",
    "non-integer-endpoint": lambda n: "1 x",
    "endpoint-below-range": lambda n: "0 1",
    "endpoint-above-range": lambda n: f"1 {n + 1}",
    "plus-sign": lambda n: "+1 1",
    "underscore": lambda n: "0_1 1",
    "non-ascii-digit": lambda n: f"{_arabic(1)} 1",
}


@seeded
@given(graphs(min_edges=1), st.sampled_from(
    [("header", f) for f in HEADER_FAULTS] + [("edge", f) for f in EDGE_FAULTS]
    + [("edge-count", None)]
), st.data())
def test_every_malformed_graph_line_is_named(g, fault, data):
    lines = format_graph(g).splitlines()
    where, name = fault
    if where == "header":
        at, lines[0] = 0, HEADER_FAULTS[name](lines[0][0], g.n, g.k)
    elif where == "edge":
        at = data.draw(st.integers(1, g.k))
        lines[at] = EDGE_FAULTS[name](g.n)
    else:
        at = 0
        del lines[data.draw(st.integers(1, g.k))]
    text, numbers = data.draw(_spread(lines))
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == numbers[at]


# Each malformed-term class, as the text of one term line of degree k.
TERM_FAULTS = {
    "no-bar": lambda k: "1/1 " + " ; ".join(["1 1"] * k),
    "non-rational-coefficient": lambda k: "x | " + " ; ".join(["1 1"] * k),
    "zero-denominator": lambda k: "1/0 | " + " ; ".join(["1 1"] * k),
    "decimal-point": lambda k: "1.5 | " + " ; ".join(["1 1"] * k),
    "exponent": lambda k: "1e2 | " + " ; ".join(["1 1"] * k),
    "underscore": lambda k: "1_0 | " + " ; ".join(["1 1"] * k),
    "spaced-slash": lambda k: "2 / 3 | " + " ; ".join(["1 1"] * k),
    "plus-sign": lambda k: "+1/2 | " + " ; ".join(["1 1"] * k),
    "non-ascii-digit": lambda k: f"{_arabic(2)} | " + " ; ".join(["1 1"] * k),
    "degree": lambda k: "1/1 | " + " ; ".join(["1 1"] * (k + 1)),
    "empty-edge": lambda k: "1/1 | 1 1 ; ",
}


@seeded
@given(formal_sums(), st.sampled_from(
    [("header", f) for f in HEADER_FAULTS] + [("term", f) for f in TERM_FAULTS]
    + [("edge", f) for f in EDGE_FAULTS]
), st.data())
def test_every_malformed_sum_line_is_named(s, fault, data):
    lines = format_formal_sum(s).splitlines()
    where, name = fault
    if where == "header":
        at = 0
        lines[0] = HEADER_FAULTS[name](lines[0].split()[0], s.n, s.k)
    else:
        at = data.draw(st.integers(1, len(lines)))
        if where == "term":
            term = TERM_FAULTS[name](s.k)
        else:
            term = "1/1 | " + " ; ".join([EDGE_FAULTS[name](s.n)] + ["1 1"] * (s.k - 1))
        lines.insert(at, term)
    text, numbers = data.draw(_spread(lines))
    with pytest.raises(GraphFormatError) as exc:
        parse_formal_sum(text)
    assert exc.value.line == numbers[at]


# The two tests above draw their fault classes at random, and 150 draws
# need not reach every class; these two take each class once.
@pytest.mark.parametrize("where, name", [("header", f) for f in HEADER_FAULTS]
                         + [("edge", f) for f in EDGE_FAULTS])
def test_each_graph_fault_is_refused(where, name):
    lines = ["D 2 2", "1 2", "2 1"]
    if where == "header":
        lines[0] = HEADER_FAULTS[name]("D", 2, 2)
    else:
        lines[2] = EDGE_FAULTS[name](2)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("\n".join(lines) + "\n")
    assert exc.value.line == (1 if where == "header" else 3)


@pytest.mark.parametrize("where, name", [("header", f) for f in HEADER_FAULTS]
                         + [("term", f) for f in TERM_FAULTS]
                         + [("edge", f) for f in EDGE_FAULTS])
def test_each_sum_fault_is_refused(where, name):
    lines = ["FS 2 2", "1/2 | 1 2 ; 2 1"]
    if where == "header":
        lines[0] = HEADER_FAULTS[name]("FS", 2, 2)
    elif where == "term":
        lines.append(TERM_FAULTS[name](2))
    else:
        lines.append("1/1 | " + EDGE_FAULTS[name](2) + " ; 1 1")
    with pytest.raises(GraphFormatError) as exc:
        parse_formal_sum("\n".join(lines) + "\n")
    assert exc.value.line == (1 if where == "header" else 3)
