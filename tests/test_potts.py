"""Partition function, Tutte polynomial, and orientation counting."""

from fractions import Fraction
from types import ModuleType

import pytest

import graphdet.potts as potts_module
from graphdet import (
    CapExceeded,
    DirectedGraph,
    MultiPoly,
    UndirectedGraph,
    beta0,
    count_orientations,
    enumerate_undirected,
    forget_sum,
    graphs,
    laplace,
    orientations,
    shave,
    tutte,
    universal_det,
    universal_potts,
)
from graphdet.algebra import FormalSum
from graphdet.poly import Q, V, X, Y
from graphdet.potts import potts
from graphdet.verify import verify_lapl_tutte, verify_specval

U = UndirectedGraph
var = MultiPoly.variable


def test_subset_count_tables_are_shared_and_read_only():
    # specval, universal_potts and potts() read one cached table per
    # multiset; no caller can change it for the next
    u = U(2, ((1, 2), (1, 1), (2, 2)))
    first = potts_module._subset_table(2, tuple(sorted(u.edges)))
    want = dict(first)
    with pytest.raises(TypeError):
        first[(1, 0)] = 0
    potts(u)
    universal_potts(2, 3, -1, 1, shaved=False)
    assert verify_specval(2, 3).ok and verify_lapl_tutte(2, 3).ok
    second = potts_module._subset_table(2, tuple(sorted(U(2, ((2, 2), (1, 2), (1, 1))).edges)))
    assert second is first and dict(second) == want


def test_potts_module_is_not_shadowed():
    import graphdet.potts as m

    assert isinstance(m, ModuleType) and m.potts is potts


def test_potts_examples():
    assert potts(U(3, ())) == var(Q) ** 3
    assert potts(U(2, ((1, 2),))) == var(Q) ** 2 + var(Q) * var(V)
    # loops factor out as (v+1) each
    for u in [U(2, ((1, 1), (1, 2))), U(1, ((1, 1), (1, 1))), U(3, ((2, 2), (1, 3), (3, 3)))]:
        loops = sum(1 for a, b in u.edges if a == b)
        assert potts(u) == (var(V) + 1) ** loops * potts(shave(u))


def test_shave():
    assert shave(U(2, ((1, 1), (2, 2)))) == U(2, ())
    g = U(2, ((1, 2),))
    assert shave(g) == g
    assert shave(U(2, ((1, 1), (1, 2)))) == U(2, ((1, 2),))


def test_tutte_base_cases():
    assert tutte(U(2, ((1, 2),))) == var(X)
    assert tutte(U(1, ((1, 1),))) == var(Y)
    tri = U(3, ((1, 2), (1, 3), (2, 3)))
    assert tutte(tri) == var(X) ** 2 + var(X) + var(Y)
    # numbering invariance
    assert tutte(U(3, ((2, 3), (1, 2), (1, 3)))) == tutte(tri)
    # multiplicative over disjoint parts: two bridges
    assert tutte(U(4, ((1, 2), (3, 4)))) == var(X) ** 2


def test_tutte_relation_multiplied_out():
    x, y = var(X), var(Y)
    for k in range(0, 4):
        for u in enumerate_undirected(2, k):
            lhs = (x - 1) ** beta0(u) * (y - 1) ** u.n * tutte(u)
            rhs = potts(u).substitute({Q: (x - 1) * (y - 1), V: y - 1})
            assert lhs == rhs, u


def test_count_orientations():
    two = U(2, ((1, 2), (1, 2)))
    assert count_orientations(two, "SSC") == 2
    assert count_orientations(two, "AC") == 2
    assert count_orientations(U(2, ((1, 1), (1, 2))), "AC") == 0
    assert count_orientations(U(2, ((1, 2),)), "SSC") == 0
    assert count_orientations(U(3, ()), "SSC") == 1  # the edgeless orientation


def test_universal_potts_edgeless_coefficient():
    s = universal_potts(2, 0, Fraction(1, 3), 5)
    assert s.coeff(U(2, ())) == Fraction(1, 9)


def test_universal_potts_specval_coefficients():
    # at (-1,-1) the coefficient of each graph counts acyclic orientations
    for n, k in [(2, 2), (3, 2)]:
        s = universal_potts(n, k, -1, -1)
        for u in enumerate_undirected(n, k):
            assert s.coeff(u) == (-1) ** n * count_orientations(u, "AC")


@pytest.mark.parametrize("shaved", [False, True], ids=["plain", "shaved"])
@pytest.mark.parametrize("q0, v0", [(-1, 1), (-1, -1)])
def test_universal_potts_weighs_every_sequence(shaved, q0, v0):
    # one value per edge multiset, given to all its orderings, equals the
    # value of each numbered graph taken on its own
    for n in (1, 2, 3):
        for k in range(4):
            want = FormalSum(n, k, {
                u: potts(shave(u) if shaved else u).evaluate({Q: q0, V: v0})
                for u in enumerate_undirected(n, k)
            }, U)
            assert universal_potts(n, k, q0, v0, shaved=shaved) == want, (n, k)


def test_shaved_element_is_forgetful_det_sum():
    # at (-1,1) the shaved element assembles the forgetful images of all
    # diagonal-minor elements, scaled by (-1)^k k!
    from itertools import combinations
    from math import factorial

    for n, k in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        lhs = universal_potts(n, k, -1, 1, shaved=True)
        rhs = FormalSum.zero(n, k)
        for size in range(n + 1):
            for I in combinations(range(1, n + 1), size):
                rhs = rhs + forget_sum(universal_det(n, k, I))
        rhs = Fraction((-1) ** k * factorial(k)) * rhs
        assert lhs == rhs, (n, k)


def test_lapl_tutte_small():
    for n, k in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        lhs = laplace(universal_potts(n, k, -1, 1, shaved=True))
        rhs = Fraction((-1) ** k) * universal_potts(n, k, -1, -1)
        assert lhs == rhs
        for g in lhs.support():
            assert all(a != b for a, b in g.edges)


def test_universal_potts_caps_the_multisets_it_walks():
    # C(6 + 4 - 1, 4) = 126 multisets at (3, 4), not the 6^4 = 1296
    # sequences; the 2^k subsets of one multiset count too, shaved or not
    assert universal_potts(3, 4, -1, 1, cap=200) == universal_potts(3, 4, -1, 1)
    with pytest.raises(CapExceeded):
        universal_potts(3, 4, -1, 1, cap=125)
    universal_potts(1, 4, -1, 1, shaved=True, cap=16)
    with pytest.raises(CapExceeded):
        universal_potts(1, 4, -1, 1, shaved=True, cap=15)


def test_potts_side_reads_the_cap_once_per_call(monkeypatch):
    reads = []
    real = graphs.effective_cap
    monkeypatch.setattr(graphs, "effective_cap",
                        lambda cap=None: reads.append(cap) or real(cap))
    u = U(3, ((1, 2), (2, 3), (1, 3), (2, 2)))
    potts(u)
    tutte(u)
    count_orientations(u, "AC")
    list(orientations(u))
    universal_potts(3, 4, -1, 1, shaved=True)
    assert len(reads) == 5
    reads.clear()
    # the walk's read, and one per side of lapl-tutte; none per multiset
    assert verify_specval(3, 4).ok and verify_lapl_tutte(3, 4).ok
    assert len(reads) == 3


@pytest.mark.parametrize("q0, v0", [(0.1, 1), (1, 0.5), (-1.0, -1)])
def test_potts_values_refuse_floats(q0, v0):
    # Fraction(0.1) is the binary value of 0.1, not 1/10
    with pytest.raises(TypeError):
        universal_potts(2, 1, q0, v0)


def test_universal_potts_keeps_ints_at_integer_points():
    s = universal_potts(3, 3, -1, -1)
    assert s._terms and {type(c) for c in s._terms.values()} == {int}
    assert {type(c) for _, c in s.terms()} == {Fraction}
    half = universal_potts(2, 2, Fraction(1, 2), 1)
    assert Fraction in {type(c) for c in half._terms.values()}
