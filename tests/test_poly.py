"""Exact polynomial arithmetic, weight matrices, and the minor oracle."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from graphdet import (
    DirectedGraph,
    FormalSum,
    MultiPoly,
    SymmetricSum,
    UndirectedGraph,
    WeightMatrix,
    determinant,
    laplace_matrix,
    minor,
    pairing,
    tutte,
    universal_det,
    w,
)
from graphdet.graphs import directed_edge_types
from graphdet.poly import Q, V, X, Y, Variable, _accumulate
from graphdet.potts import potts

var = MultiPoly.variable


def test_arithmetic_and_equality():
    p = var(w(1, 1)) * var(w(2, 2)) - var(w(1, 2)) * var(w(2, 1))
    assert p == p + MultiPoly.zero()
    assert p - p == 0
    assert (p * MultiPoly.const(Fraction(1, 2))) * 2 == p
    assert var(Q) * var(V) == var(V) * var(Q)
    assert (var(Q) + 1) * (var(Q) - 1) == var(Q) ** 2 - 1


def test_derivative_examples():
    p = var(w(1, 1)) * var(w(2, 2))
    assert p.derivative(w(1, 1)) == var(w(2, 2))
    p2 = var(w(1, 1)) ** 2 * var(w(2, 2))
    assert p2.derivative(w(1, 1), 2) == 2 * var(w(2, 2))
    assert (var(w(1, 2)) * var(w(2, 1))).derivative(w(1, 1)).is_zero


def test_leibniz_on_random_pairs():
    rng = random.Random(20240817)
    vars_ = [w(1, 1), w(1, 2), w(2, 1), Q]

    def rand_poly():
        p = MultiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            t = MultiPoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                t = t * var(rng.choice(vars_))
            p = p + t
        return p

    for _ in range(25):
        p, r = rand_poly(), rand_poly()
        v = rng.choice(vars_)
        lhs = (p * r).derivative(v)
        rhs = p.derivative(v) * r + p * r.derivative(v)
        assert lhs == rhs


def test_evaluate_and_substitute():
    p = var(Q) ** 2 + var(Q) * var(V)
    assert p.evaluate({Q: -1, V: 1}) == 0
    assert p.evaluate({}) == p
    assert (var(Q) ** 3).evaluate({Q: -1}) == -1
    partial = p.evaluate({V: 1})
    assert partial == var(Q) ** 2 + var(Q)
    # polynomial substitution
    assert p.substitute({Q: var(V) + 1}) == (var(V) + 1) ** 2 + (var(V) + 1) * var(V)


def test_constant_value():
    assert MultiPoly.zero().constant_value() == 0
    assert MultiPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        var(Q).constant_value()


def test_constructor_canonicalizes_monomials():
    # repeated variables merge, zero exponents drop, and monomials that
    # become equal add their coefficients
    assert MultiPoly({((Q, 1), (Q, 1)): 1}) == var(Q, 2)
    assert MultiPoly({((Q, 0),): 1}) == 1 and MultiPoly({((Q, 0),): 1}).is_constant
    assert MultiPoly({((V, 1), (Q, 0)): 2}) == 2 * var(V)
    assert MultiPoly({((Q, 2),): 1, ((Q, 1), (Q, 1)): 2, ((V, 1), (Q, 2)): 1}) == (
        3 * var(Q, 2) + var(Q, 2) * var(V)
    )
    assert MultiPoly({((Q, 2),): 1, ((Q, 1), (Q, 1)): -1}).is_zero
    assert MultiPoly({(): 0}).is_zero and MultiPoly.const(0).is_zero
    for exp in (-1, 1.5, 2.0, True, Fraction(2)):
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            MultiPoly({((V, 1), (Q, exp)): 1})


@pytest.mark.parametrize("order", [True, False, 2.0, Fraction(2), -1, "2"])
def test_power_and_derivative_refuse_orders_that_are_not_ints(order):
    # as the constructor and MultiPoly.variable refuse such an exponent
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        var(X) ** order
    with pytest.raises(ValueError, match="derivative order must be an int"):
        var(X).derivative(X, order)
    assert var(X) ** 0 == 1 and (var(X) ** 2).derivative(X, 2) == 2


def test_determinant_small():
    W = WeightMatrix.symbolic(2)
    assert determinant(W) == var(w(1, 1)) * var(w(2, 2)) - var(w(1, 2)) * var(w(2, 1))
    assert determinant(WeightMatrix.from_rows([[2]])) == 2
    assert determinant(WeightMatrix.from_rows([])) == 1
    W3 = WeightMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert determinant(W3) == -3


def test_laplace_matrix():
    W = WeightMatrix.symbolic(2)
    Wh = laplace_matrix(W)
    assert Wh.entry(1, 1) == -var(w(1, 2))
    assert Wh.entry(1, 2) == var(w(1, 2))
    for n in (2, 3, 4):
        Whn = laplace_matrix(WeightMatrix.symbolic(n))
        for i in range(1, n + 1):
            total = MultiPoly.zero()
            for j in range(1, n + 1):
                total = total + Whn.entry(i, j)
            assert total.is_zero


def test_minor():
    Wh = laplace_matrix(WeightMatrix.symbolic(2))
    assert minor(Wh, {1}, {1}) == -var(w(2, 1))
    assert minor(Wh, {1}, {2}) == var(w(2, 1))
    assert minor(Wh, {1, 2}, {1, 2}) == 1
    with pytest.raises(ValueError):
        minor(Wh, {1}, {1, 2})
    with pytest.raises(ValueError):
        minor(Wh, {3}, {1})


@pytest.mark.parametrize("rows, cols", [
    ({1.5}, {1.5}), ({1.0}, {1}), ([True], [1]), ([1, True], [1, 1]), ({2}, ("1",)),
], ids=["float", "integral-float", "bool", "bool-beside-its-int", "string"])
def test_minor_refuses_indices_that_are_not_ints(rows, cols):
    # 1.5 matches no row: without the check it would delete nothing, and
    # the minor would be the whole determinant.
    W = WeightMatrix.symbolic(2)
    with pytest.raises(ValueError, match="row/column index out of range"):
        minor(W, rows, cols)


@pytest.mark.parametrize("i, j", [(True, 2), (1, 2.0), (1.5, 1), ("1", 1)],
                         ids=["bool", "integral-float", "float", "string"])
def test_entry_refuses_indices_that_are_not_ints(i, j):
    with pytest.raises(ValueError, match="matrix index out of range"):
        WeightMatrix.symbolic(2).entry(i, j)


def test_pairing_examples():
    W = WeightMatrix.symbolic(2)
    assert pairing(W, universal_det(2, 1, (1,))) == -var(w(2, 2))
    g1 = FormalSum.single(DirectedGraph(2, ((1, 2),)))
    g2 = FormalSum.single(DirectedGraph(2, ((2, 1),)))
    assert pairing(W, g1 * g2 - g2 * g1).is_zero
    with pytest.raises(ValueError):
        pairing(W, FormalSum.single(DirectedGraph(3, ())))


def _grouped(s):
    """Each multiset's coefficient, times the numbered graphs it stands for."""
    return _accumulate({}, (
        (tuple(sorted(key)), c * s._count((key,))) for key, c in s._terms.items()
    ))


def _pairing_by_multipoly(m, s):
    """The pairing as a product of MultiPolys: each multiset's coefficient
    as a constant, multiplied by the matrix entry of each edge in turn."""
    total = MultiPoly.zero()
    for ms, c in _grouped(s).items():
        prod = MultiPoly.const(c)
        for a, b in ms:
            prod = prod * m.entry(a, b)
        total = total + prod
    return total


def _by_pairs(p):
    """A MultiPoly's stored terms keyed by sorted (variable, exponent)
    pairs, each coefficient in its stored type."""
    return {tuple(sorted(Counter(mono).items())): c for mono, c in p._terms.items()}


def _pairing_by_exponents(m, s):
    """The pairing with its own product, on (variable, exponent) pairs: each
    product of two monomials merges their exponent dicts."""
    total = {}
    for ms, c in _grouped(s).items():
        prod = _by_pairs(MultiPoly.const(c))
        for a, b in ms:
            out = {}
            for m1, c1 in prod.items():
                for m2, c2 in _by_pairs(m.entry(a, b)).items():
                    exps = dict(m1)
                    for v, e in m2:
                        exps[v] = exps.get(v, 0) + e
                    _accumulate(out, [(tuple(sorted(exps.items())), c1 * c2)])
            prod = out
        _accumulate(total, prod.items())
    return total


def test_pairing_matches_the_product_of_multipolys():
    x, y = var(X), var(Y)
    # zero, constant and Fraction entries, a squared variable, and x + y
    # against x - y, whose cross terms cancel
    M = WeightMatrix.from_rows([
        [0, 3, x + y],
        [Fraction(-1, 2), var(X, 2), x - y],
        [var(w(3, 1)), Fraction(2, 3) * y + 1, var(Q) * x],
    ])
    edges = directed_edge_types(3)
    coeffs = [1, -2, Fraction(1, 2), Fraction(-3, 4), 5]
    numbered_sum = FormalSum(3, 2, {
        DirectedGraph(3, seq): coeffs[i % len(coeffs)]
        for i, seq in enumerate(product(edges, repeat=2))
    })
    multiset_sum = SymmetricSum(3, 3, {
        ms: coeffs[i % len(coeffs)]
        for i, ms in enumerate(combinations_with_replacement(edges, 3))
    })
    for s in (numbered_sum, multiset_sum):
        want = _pairing_by_exponents(M, s)
        assert want
        for got in (pairing(M, s), _pairing_by_multipoly(M, s)):
            assert _by_pairs(got) == want
            assert {m: type(c) for m, c in _by_pairs(got).items()} == {
                m: type(c) for m, c in want.items()
            }
    # two numberings of one multiset at 1/2 each: the grouped coefficient
    # is the integer 1, stored as an int
    g, h = DirectedGraph(2, ((1, 2), (2, 1))), DirectedGraph(2, ((2, 1), (1, 2)))
    half_each = FormalSum(2, 2, {g: Fraction(1, 2), h: Fraction(1, 2)})
    got = pairing(WeightMatrix.symbolic(2), half_each)
    assert got.terms() == [(((w(1, 2), 1), (w(2, 1), 1)), 1)]
    assert [type(c) for c in got._terms.values()] == [int]


def test_pairing_invariant_under_renumbering():
    W = WeightMatrix.symbolic(3)
    g = DirectedGraph(3, ((1, 2), (2, 3), (1, 1)))
    import itertools

    base = pairing(W, FormalSum.single(g))
    for perm in itertools.permutations(g.edges):
        assert pairing(W, FormalSum.single(DirectedGraph(3, perm))) == base


def test_determinant_matches_pairing_route():
    for n in (1, 2, 3, 4):
        W = WeightMatrix.symbolic(n)
        assert determinant(W) == pairing(W, universal_det(n, n, ()))


def test_paired_degree3_determinant_frozen():
    # hand-expanded from the six admissible edge multisets on two vertices:
    # {11,12,21} and {22,12,21} give 6 numberings each at sign -1 (beta0 = 1),
    # {12,12,21} and {12,21,21} give 3 at sign -1, {11,11,22} and {11,22,22}
    # give 3 at sign +1 (beta0 = 2); prefactor (-1)^3/3!
    W = WeightMatrix.symbolic(2)
    w11, w12, w21, w22 = (var(w(i, j)) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    expected = (
        w11 * w12 * w21
        + w22 * w12 * w21
        + Fraction(1, 2) * w12 ** 2 * w21
        + Fraction(1, 2) * w12 * w21 ** 2
        - Fraction(1, 2) * w11 ** 2 * w22
        - Fraction(1, 2) * w11 * w22 ** 2
    )
    paired = pairing(W, universal_det(2, 3, ()))
    assert paired == expected
    # the diagonal-derivative law at order 1 with the derived -1 factor
    bracket = pairing(W, universal_det(2, 2, ()) + universal_det(2, 2, (1,)))
    assert paired.derivative(w(1, 1)) == -1 * bracket
    assert paired.derivative(w(1, 1)) == w12 * w21 - w11 * w22 - Fraction(1, 2) * w22 ** 2


def test_variable_ordering_is_stable():
    p = var(w(1, 2)) + var(Q) + var(V)
    assert str(p) == "1/1 * q + 1/1 * v + 1/1 * w[1,2]"
    assert str(MultiPoly.zero()) == "0/1"
    assert Variable("q") < Variable("v") < w(1, 1) < w(1, 2)


def test_printed_polynomials_are_pinned():
    # text output lists monomials in (variable, exponent) pair order, where
    # x * y comes before x^2, whatever order they are stored in
    u = UndirectedGraph(3, ((1, 1), (1, 2), (1, 2), (2, 3), (1, 3)))
    x, y, q, v = (var(t) for t in (X, Y, Q, V))
    p = (x ** 2 * y + 3 * x * y ** 2 - x * y + 2) * (q + v)
    assert [
        str(determinant(WeightMatrix.symbolic(3))),
        str(tutte(u)),
        str(potts(u)),
        str(p.derivative(Y)),
        str(p.substitute({Y: 2, Q: x + 1})),
    ] == [
        "1/1 * w[1,1] * w[2,2] * w[3,3] + -1/1 * w[1,1] * w[2,3] * w[3,2]"
        " + -1/1 * w[1,2] * w[2,1] * w[3,3] + 1/1 * w[1,2] * w[2,3] * w[3,1]"
        " + 1/1 * w[1,3] * w[2,1] * w[3,2] + -1/1 * w[1,3] * w[2,2] * w[3,1]",
        "1/1 * x * y + 1/1 * x * y^2 + 1/1 * x^2 * y + 1/1 * y^2 + 1/1 * y^3",
        "5/1 * q * v^2 + 9/1 * q * v^3 + 5/1 * q * v^4 + 1/1 * q * v^5"
        " + 4/1 * q^2 * v + 5/1 * q^2 * v^2 + 1/1 * q^2 * v^3 + 1/1 * q^3"
        " + 1/1 * q^3 * v",
        "-1/1 * q * x + 6/1 * q * x * y + 1/1 * q * x^2 + -1/1 * v * x"
        " + 6/1 * v * x * y + 1/1 * v * x^2",
        "2/1 + 2/1 * v + 10/1 * v * x + 2/1 * v * x^2 + 12/1 * x + 12/1 * x^2"
        " + 2/1 * x^3",
    ]


def test_accumulate_drops_cancelled_keys():
    terms = {"a": 1, "b": 2}
    items = [("a", -1), ("c", Fraction(1, 2)), ("b", 1), ("d", 0)]
    assert _accumulate(terms, items) is terms
    assert terms == {"b": 3, "c": Fraction(1, 2)}


def test_pairing_drops_orderings_that_cancel():
    g, h = DirectedGraph(2, ((1, 2), (2, 1))), DirectedGraph(2, ((2, 1), (1, 2)))
    assert pairing(WeightMatrix.symbolic(2), FormalSum(2, 2, {g: 1, h: -1})).is_zero
    assert pairing(WeightMatrix.symbolic(2), FormalSum(2, 2, {g: 1, h: 1})) == (
        2 * var(w(1, 2)) * var(w(2, 1))
    )
