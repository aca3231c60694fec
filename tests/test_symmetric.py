"""Symmetric sums: the native multiset paths against the numbered expansion.

Every class sum and universal element is a SymmetricSum, one coefficient
per edge multiset; the universal partition-function elements are
undirected ones.  ``laplace`` and ``pairing`` run on the multisets
directly; here each is checked against ``expand()``, the FormalSum over
every numbering, which the composed ``b_op``s resolve position by position
and which ``_pair_numbered`` pairs graph by graph.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphdet import (
    DirectedGraph,
    FormalSum,
    MultiPoly,
    SymmetricSum,
    UndirectedGraph,
    WeightMatrix,
    b_op,
    format_formal_sum,
    laplace,
    laplace_matrix,
    pairing,
    theta,
    universal_codim1,
    universal_det,
    universal_potts,
)
from graphdet.algebra import class_sum, multiplicity_factor, orderings
from graphdet.graphs import directed_edge_types
from graphdet.verify import _sum_diff, verify_codim1, verify_diag

D = DirectedGraph


def _composed_b_ops(s):
    """b_k(...b_1(s.expand())): laplace by its definition, position by position."""
    for p in range(1, s.k + 1):
        s = b_op(p, s)
    return s.expand()


def _pair_numbered(m: WeightMatrix, s: FormalSum) -> MultiPoly:
    """Reference pairing: one product of entries per numbered graph."""
    total = MultiPoly.zero()
    for g, c in s.terms():
        prod = MultiPoly.const(c)
        for a, b in g.edges:
            prod = prod * m.entry(a, b)
        total = total + prod
    return total


def _sym(n, k, terms) -> SymmetricSum:
    """A SymmetricSum from loose terms: keys sorted, repeats merged, zeros
    dropped."""
    clean: dict = {}
    for multiset, c in terms.items():
        multiset = tuple(sorted(multiset))
        clean[multiset] = clean.get(multiset, 0) + Fraction(c)
    return SymmetricSum(n, k, {m: c for m, c in clean.items() if c})


def _subsets(n):
    for size in range(n + 1):
        yield from combinations(range(1, n + 1), size)


def _universal_elements(n, k):
    """Every universal element and class sum at (n, k)."""
    for I in _subsets(n):
        yield universal_det(n, k, I)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            yield universal_codim1(n, k, i, j)
    for cls in ("SSC", "AC"):
        for signed in (False, True):
            yield class_sum(n, k, cls, None, signed)
            for I in _subsets(n):
                yield class_sum(n, k, cls, I, signed)


def _potts_elements(n, k):
    """The universal partition-function elements at (-1, 1) and (-1, -1),
    plain and shaved: undirected symmetric sums."""
    for q0, v0 in ((-1, 1), (-1, -1)):
        for shaved in (False, True):
            yield universal_potts(n, k, q0, v0, shaved)


def _check_against_expansion(s: SymmetricSum, matrices, numbered_pairing=True):
    e = s.expand()
    assert isinstance(e, FormalSum) and e.kind is s.kind
    assert len(s) == len(e)
    assert s == e and e == s
    for g, c in e.terms():
        assert s.coeff(g) == c
    assert format_formal_sum(s) == format_formal_sum(e)
    image = laplace(s)
    assert isinstance(image, SymmetricSum)
    assert image == _composed_b_ops(s)
    for m in matrices:
        assert pairing(m, s) == pairing(m, e)
        if numbered_pairing:
            assert pairing(m, s) == _pair_numbered(m, e)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_native_paths_match_expansion_exhaustively(n):
    W = WeightMatrix.symbolic(n)
    matrices = (W, laplace_matrix(W))
    seen = 0
    for k in range(5):
        for s in _universal_elements(n, k):
            _check_against_expansion(s, matrices)
            seen += not s.is_zero
        for s in _potts_elements(n, k):
            # pairing is defined for directed sums only
            assert isinstance(s, SymmetricSum) and s.kind is UndirectedGraph
            _check_against_expansion(s, ())
            seen += not s.is_zero
    assert seen > 0


def test_theta_high_part_matches_expansion():
    high = theta(4).part(5)
    assert isinstance(high, SymmetricSum)
    assert len(high._terms) == 288 and len(high) == 28800
    W = WeightMatrix.symbolic(4)
    _check_against_expansion(high, (W, laplace_matrix(W)), numbered_pairing=False)


def test_multiset_counts():
    assert multiplicity_factor(()) == 1
    assert multiplicity_factor(((1, 1), (1, 1), (1, 2), (2, 2), (2, 2), (2, 2))) == 12
    assert orderings(((1, 1), (1, 1), (1, 2))) == 3
    s = _sym(2, 2, {((2, 1), (1, 2)): 1, ((1, 1), (1, 1)): Fraction(1, 2)})
    assert len(s) == 3 and s.coeff(D(2, ((2, 1), (1, 2)))) == 1
    assert s.coeff(UndirectedGraph(2, ((1, 2), (1, 2)))) == 0
    assert (s - s).is_zero and s + SymmetricSum.zero(2, 2) == s
    assert s.kind is D and (s - s).kind is D and laplace(s).kind is D
    with pytest.raises(ValueError):
        s + SymmetricSum.zero(2, 1)


def test_undirected_kind_is_kept():
    z = SymmetricSum.zero(2, 1, UndirectedGraph)
    for s in (z, z - z, z.scale(3), laplace(z)):
        assert s.kind is UndirectedGraph and format_formal_sum(s) == "FSU 2 1\n"
    u = universal_potts(2, 2, -1, -1)
    with pytest.raises(TypeError):
        pairing(WeightMatrix.symbolic(2), u)
    d = universal_det(2, 2)
    assert u and d
    with pytest.raises(ValueError):
        d + u
    with pytest.raises(ValueError):
        u + d


def test_mixed_arithmetic_expands():
    s = universal_det(2, 2, ())
    f = FormalSum.single(D(2, ((1, 1), (2, 2))))
    assert isinstance(s + f, FormalSum) and isinstance(f + s, FormalSum)
    assert (s + f) == (f + s) == s.expand() + f
    assert (f - s) + s == f
    assert s * f == s.expand() * f


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_payloads_equal_numbered_comparison(n):
    for k in range(5):
        scale = Fraction((-1) ** n, factorial(k))
        cells = [(verify_diag(n, k, I), universal_det(n, k, I), I) for I in _subsets(n)]
        cells += [
            (verify_codim1(n, k, i, j), universal_codim1(n, k, i, j), (i,))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        for r, element, sinks in cells:
            lhs = laplace(element).expand()
            rhs = (scale * class_sum(n, k, "AC", sinks)).expand()
            assert r.failures == _sum_diff(lhs, rhs)[0]
            assert r.total_cases == len(set(lhs.support()) | set(rhs.support()))


@pytest.mark.parametrize("n", [2, 3])
def test_sum_diff_per_multiset_matches_numbered(n):
    # Mismatching pairs, so that the per-multiset path reports failures.
    for k in range(1, 5):
        sums = [s for s in _universal_elements(n, k) if not s.is_zero][:12]
        for a, b in zip(sums, sums[1:] + sums[:1]):
            for x, y in ((a, b), (a, 2 * a), (a, SymmetricSum.zero(n, k))):
                got = _sum_diff(x, y)
                assert got == _sum_diff(x.expand(), y.expand())
                assert bool(got[0]) == (x != y)


# Random multiset sums beyond exhaustive reach: n = 4..5, k <= 5.

@st.composite
def symmetric_sums(draw):
    n = draw(st.integers(4, 5))
    k = draw(st.integers(0, 5))
    edge = st.sampled_from(directed_edge_types(n))
    multiset = st.lists(edge, min_size=k, max_size=k).map(lambda es: tuple(sorted(es)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    terms = draw(st.dictionaries(multiset, coeff, max_size=3))
    return _sym(n, k, terms)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(symmetric_sums())
def test_native_paths_match_expansion_random(s):
    W = WeightMatrix.symbolic(s.n)
    _check_against_expansion(s, (W, laplace_matrix(W)))


def _one_term(cls, n, k, kind):
    """A one-term sum of the given class and shape: k loops at vertex 1."""
    edges = ((1, 1),) * k
    if cls is SymmetricSum:
        return SymmetricSum(n, k, {edges: Fraction(1)}, kind)
    return FormalSum(n, k, {kind(n, edges): 1}, kind)


@pytest.mark.parametrize("left, right", [
    (FormalSum, FormalSum),
    (SymmetricSum, SymmetricSum),
    (FormalSum, SymmetricSum),
    (SymmetricSum, FormalSum),
])
@pytest.mark.parametrize("shape", [
    (2, 2, UndirectedGraph),  # kind
    (3, 2, DirectedGraph),  # n
    (2, 3, DirectedGraph),  # k
])
def test_diff_refuses_a_sum_of_another_shape(left, right, shape):
    # a check built on diff would otherwise report "pass" for two sums that
    # == tells apart
    s, t = _one_term(left, 2, 2, DirectedGraph), _one_term(right, *shape)
    assert s != t
    with pytest.raises(ValueError, match="shape"):
        s.diff(t)
    with pytest.raises(ValueError, match="shape"):
        t.diff(s)
    assert s.diff(_one_term(right, 2, 2, DirectedGraph)) == ([], 1)


@pytest.mark.parametrize("n, k, terms, kind", [
    (2, 2, {((2, 1), (1, 1)): 1}, DirectedGraph),
    (2, 1, {((2, 1),): 1}, UndirectedGraph),
    (2, 1, {((1, 5),): 1}, DirectedGraph),
    (2, 1, {((0, 1),): 1}, UndirectedGraph),
    (2, 3, {((1, 1),): 2}, DirectedGraph),
    (2, 1, {((1, 1), (1, 2)): 1}, DirectedGraph),
], ids=["unsorted", "non-canonical", "out-of-range", "out-of-range-undirected",
        "too-short", "too-long"])
def test_symmetric_sum_refuses_a_bad_key(n, k, terms, kind):
    # an unsorted key reads coefficient 0 for every ordering, yet terms()
    # lists them all
    with pytest.raises(ValueError):
        SymmetricSum(n, k, terms, kind)


def test_symmetric_sum_makes_fractions_and_drops_zeros():
    s = SymmetricSum(2, 2, {((1, 1), (1, 2)): 2, ((2, 2), (2, 2)): 0})
    assert s._terms == {((1, 1), (1, 2)): Fraction(2)}
    assert [type(c) for _, c in s.terms()] == [Fraction, Fraction]
    assert s == FormalSum(2, 2, {D(2, ((1, 1), (1, 2))): 2, D(2, ((1, 2), (1, 1))): 2})
    assert SymmetricSum(2, 1, {((1, 2),): Fraction(0)}).is_zero
