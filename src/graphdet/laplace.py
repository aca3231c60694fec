"""Loop-resolving operators and the graph Laplace operator.

The position-p operator fixes any graph whose p-th edge is not a loop; a
loop at vertex a in position p is traded for minus the sum of the n-1 edges
(a,b), b != a, in the same position.  The Laplace operator on a FormalSum
is the composition of these over all positions, so a graph with L loops
goes to (n-1)^L loop-free terms of sign (-1)^L.

The Laplace operator treats every position alike, so it commutes with
renumbering the edges and maps a SymmetricSum to a SymmetricSum; it is
applied there once per edge multiset.  The position operators do not, and
expand a SymmetricSum first.  Both take homogeneous sums only; apply
``laplace`` to each part of a graded element.

The same definition works verbatim for undirected sums; replacement edges
are then stored canonically.
"""

from __future__ import annotations

import itertools

from .graphs import DirectedGraph
from .algebra import FormalSum, SymmetricSum, multiplicity_factor
from .poly import _accumulate


def _replacements(kind, n: int, a: int):
    if kind is DirectedGraph:
        return [(a, b) for b in range(1, n + 1) if b != a]
    return [(min(a, b), max(a, b)) for b in range(1, n + 1) if b != a]


def b_op(p: int, s: FormalSum) -> FormalSum:
    """Resolve a loop in position p, linearly over the sum.  A sum with no
    loop in position p is fixed, and is returned as it is."""
    if not (1 <= p <= s.k):
        raise ValueError(f"edge position {p} out of range 1..{s.k}")
    s = s.expand()
    i = p - 1
    if not any(e[i][0] == e[i][1] for e in s._terms):
        return s
    terms: dict = {}
    for e, c in s._terms.items():
        a, b = e[i]
        if a != b:
            terms[e] = terms[e] + c if e in terms else c
            continue
        if s.n == 1:
            continue  # the operator vanishes on single-vertex loops
        for r in _replacements(s.kind, s.n, a):
            h = e[:i] + (r,) + e[p:]
            terms[h] = terms[h] - c if h in terms else -c
    return FormalSum._wrap(s.n, s.k, {h: c for h, c in terms.items() if c}, s.kind)


def laplace(s: FormalSum | SymmetricSum) -> FormalSum | SymmetricSum:
    """The composition of the position operators b_1, ..., b_k; a
    SymmetricSum gets the same image, one edge multiset at a time.

    Identity in degree 0; zero on any term with a loop when n = 1.  The
    output is supported on loop-free graphs only.
    """
    if isinstance(s, SymmetricSum):
        return _laplace_multisets(s)
    if not isinstance(s, FormalSum):
        raise TypeError("laplace expects a FormalSum or SymmetricSum")
    for p in range(1, s.k + 1):
        s = b_op(p, s)
    return s


def _laplace_multisets(s: SymmetricSum) -> SymmetricSum:
    """Laplace image of a symmetric sum, one edge multiset at a time.

    A multiset M with coefficient c stands for k!/m(M) numbered graphs,
    m(M) being the product of its multiplicity factorials.  Resolving the
    loops of one fixed ordering of M reaches each image multiset M' some
    number of times t; over all orderings of M that is t * k!/m(M) numbered
    images, spread evenly over the k!/m(M') orderings of M'.  So each
    ordering of M' is reached t * m(M') / m(M) times, an integer, and M adds
    sign * c times that count to the coefficient of M'.
    """
    n, kind = s.n, s.kind
    terms: dict = {}
    for multiset, c in s._terms.items():
        loops = [a for a, b in multiset if a == b]
        if loops and n == 1:
            continue
        fixed = tuple(e for e in multiset if e[0] != e[1])
        images: dict = {}
        for combo in itertools.product(*[_replacements(kind, n, a) for a in loops]):
            image = tuple(sorted(fixed + combo))
            images[image] = images.get(image, 0) + 1
        c, m0 = (-1) ** len(loops) * c, multiplicity_factor(multiset)
        ratios = ((m, t * multiplicity_factor(m) // m0) for m, t in images.items())
        _accumulate(terms, ((m, c * r) for m, r in ratios))
    return SymmetricSum._wrap(s.n, s.k, terms, kind)
