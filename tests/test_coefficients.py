"""Exact coefficients: ints inside, Fractions at the boundary.

Sums and polynomials keep integer coefficients as ints and make a Fraction
only where a division happens; every accessor still hands out Fractions.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from graphdet import (
    DirectedGraph,
    FormalSum,
    MultiPoly,
    SymmetricSum,
    UndirectedGraph,
    WeightMatrix,
    b_op,
    laplace,
    pairing,
    parse_formal_sum,
    u_sum,
    w,
    x_sum,
)
from graphdet.algebra import class_sum
from graphdet.graphs import directed_edge_types, undirected_edge_types
from graphdet.poly import Q, V, _accumulate

D = DirectedGraph


def _is_fraction(x) -> bool:
    return type(x) is Fraction


def _stored(s) -> set:
    return {type(c) for c in s._terms.values()}


def _composed_b_ops(s):
    """b_k(...b_1(s.expand())): laplace by its definition, position by position."""
    for p in range(1, s.k + 1):
        s = b_op(p, s)
    return s.expand()


def test_integer_sums_store_ints():
    g = D(2, ((1, 1), (1, 2)))
    assert _stored(FormalSum.single(g)) == {int}
    assert _stored(FormalSum.single(g, True)) == {int}
    assert _stored(b_op(1, FormalSum.single(g))) == {int}
    assert _stored(laplace(FormalSum.single(g))) == {int}
    assert _stored(class_sum(3, 3, "SSC")) == {int}
    assert _stored(class_sum(3, 3, "AC", signed=True)) == {int}
    gs = [g, D(2, ((2, 1), (1, 2)))]
    assert _stored(u_sum(gs)) == _stored(x_sum(gs)) == {int}
    assert _stored(MultiPoly.variable(w(1, 2))) == {int}


@pytest.mark.parametrize("value", [0.5, 1.0, "1", None])
def test_inexact_coefficients_raise(value):
    g = D(2, ((1, 2),))
    for build in (
        lambda: FormalSum.single(g, value),
        lambda: SymmetricSum(2, 1, {((1, 2),): value}),
        lambda: FormalSum.single(g).scale(value),
        lambda: MultiPoly.const(value),
        lambda: MultiPoly({((Q, 1),): value}),
    ):
        with pytest.raises(TypeError):
            build()


def test_sum_accessors_return_fractions():
    g, h = D(2, ((1, 1), (1, 2))), D(2, ((1, 2), (1, 1)))
    f = FormalSum(2, 2, {g: 3, h: -1})
    s = SymmetricSum(2, 2, {((1, 1), (1, 2)): 2})
    for x in (f, s):
        assert _stored(x) == {int}
        assert _is_fraction(x.coeff(g))
        assert _is_fraction(x.coeff(D(2, ((2, 2), (2, 2)))))
        assert x.terms() and all(_is_fraction(c) for _, c in x.terms())
    assert f.coeff(g) == 3 and s.coeff(h) == 2
    mismatches, compared = f.diff(s.expand())
    assert compared == 2
    assert mismatches == [
        (g.edges, Fraction(3), Fraction(2)),
        (h.edges, Fraction(-1), Fraction(2)),
    ]
    assert all(_is_fraction(a) and _is_fraction(b) for _, a, b in mismatches)
    sym_mismatches, _ = s.diff(SymmetricSum.zero(2, 2))
    assert all(_is_fraction(a) and _is_fraction(b) for _, a, b in sym_mismatches)


def test_poly_accessors_return_fractions():
    p = 3 * MultiPoly.variable(Q) * MultiPoly.variable(V) - 2
    assert _stored(p) == {int}
    assert all(_is_fraction(c) for _, c in p.terms())
    assert p.terms() == [((), Fraction(-2)), (((Q, 1), (V, 1)), Fraction(3))]
    value = p.evaluate({Q: 2, V: 5})
    assert _is_fraction(value) and value == 28
    assert _is_fraction(MultiPoly.const(7).constant_value())
    assert _is_fraction(MultiPoly.zero().constant_value())
    det = pairing(WeightMatrix.symbolic(2), SymmetricSum(2, 2, {((1, 1), (2, 2)): 1}))
    assert _stored(det) == {int}
    assert det.terms() == [(((w(1, 1), 1), (w(2, 2), 1)), Fraction(2))]
    assert str(det) == "2/1 * w[1,1] * w[2,2]"


def test_int_and_fraction_coefficients_agree():
    g = D(2, ((1, 2), (2, 1)))
    a, b = FormalSum.single(g, 1), FormalSum.single(g, Fraction(1))
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    key = ((1, 2), (2, 1))
    c, d = SymmetricSum(2, 2, {key: -2}), SymmetricSum(2, 2, {key: Fraction(-2)})
    assert c == d and hash(c) == hash(d)
    assert c == d.expand() and hash(c) == hash(d.expand())
    assert MultiPoly({((Q, 1),): 1}) == MultiPoly({((Q, 1),): Fraction(1)})
    assert hash(MultiPoly.const(4)) == hash(MultiPoly.const(Fraction(8, 2)))


def test_symmetric_laplace_with_int_coefficients_is_exact():
    # Loops, repeated edges and repeated loops, with int coefficients.
    s = SymmetricSum(3, 3, {
        ((1, 1), (1, 1), (1, 2)): 1,
        ((1, 1), (2, 2), (2, 3)): -2,
        ((1, 2), (1, 2), (3, 3)): 3,
        ((1, 2), (2, 3), (3, 1)): 5,
    })
    assert _stored(s) == {int}
    image, numbered = laplace(s), _composed_b_ops(s)
    assert _stored(image) == {int}
    assert image == numbered
    assert image.terms() == numbered.terms()
    assert all(_is_fraction(c) and c.denominator == 1 for _, c in image.terms())
    # ((1,2),(1,2),(1,2)) comes from the three orderings of the first
    # multiset, each resolving both loops to (1,2) with sign +1.
    assert image.coeff(D(3, ((1, 2), (1, 2), (1, 2)))) == 3
    assert image.coeff(D(3, ((1, 2), (2, 3), (3, 1)))) == 5


@pytest.mark.parametrize("kind, edge_types", [
    (DirectedGraph, directed_edge_types),
    (UndirectedGraph, undirected_edge_types),
], ids=["directed", "undirected"])
def test_symmetric_laplace_ratio_is_an_exact_integer(kind, edge_types):
    # Each multiset alone, with coefficient 1: the multiplicity ratio the
    # image takes with // must give the numbered image's integers.
    for n in (1, 2, 3):
        for k in range(6):
            for multiset in combinations_with_replacement(edge_types(n), k):
                s = SymmetricSum(n, k, {multiset: 1}, kind)
                image = laplace(s)
                assert image == _composed_b_ops(s), multiset
                assert _stored(image) <= {int}, multiset


def test_integral_fractions_are_stored_as_ints():
    g = D(2, ((1, 2),))
    key = ((1, 1), (1, 2))
    built = [
        FormalSum.single(g, Fraction(3)),
        SymmetricSum(2, 2, {key: Fraction(-2)}),
        FormalSum.single(g).scale(Fraction(4, 2)),
        SymmetricSum(2, 2, {key: 1}).scale(Fraction(4, 2)),
        parse_formal_sum("FS 2 1\n3/1 | 1 2\n"),
    ]
    for s in built:
        assert _stored(s) == {int}
        assert all(_is_fraction(c) for _, c in s.terms())
    assert [s.terms()[0][1] for s in built] == [3, -2, 2, 2, 3]
    p = MultiPoly.const(Fraction(6, 3))
    assert _stored(p) == {int}
    assert _is_fraction(p.constant_value()) and p.constant_value() == 2
    assert _stored(FormalSum.single(g, Fraction(1, 2))) == {Fraction}


def test_accumulate_stores_a_new_value_as_given():
    c = Fraction(1, 3)
    assert _accumulate({}, [("a", c)])["a"] is c
    # A key that cancels is dropped, and comes back with the next value.
    terms = _accumulate({}, [("a", 2), ("b", c), ("a", -2)])
    assert terms == {"b": c}
    d = Fraction(5, 7)
    assert _accumulate(terms, [("a", d)])["a"] is d
    assert _accumulate(terms, [("a", 0), ("c", 0)]) == {"b": c, "a": d}
