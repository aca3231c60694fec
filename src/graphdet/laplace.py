"""Loop-resolving operators and the graph Laplace operator.

The position-p operator fixes any graph whose p-th edge is not a loop; a
loop at vertex a in position p is traded for minus the sum of the n-1 edges
(a,b), b != a, in the same position, and for nothing when n = 1.  The
Laplace operator is the composition of these over all positions, so a
graph with L loops goes to (n-1)^L loop-free terms of sign (-1)^L.

The Laplace operator treats every position alike, so it commutes with
renumbering the edges and maps a SymmetricSum to a SymmetricSum.  It is
computed one key at a time for both kinds of sum, each key weighed by the
numbered graphs it stands for, as ``pairing`` does.  The position operators
do not commute with renumbering, and expand a SymmetricSum first.  Both
take homogeneous sums only; apply ``laplace`` to each part of a graded
element.

The same definition works verbatim for undirected sums; replacement edges
are then stored canonically.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .graphs import DirectedGraph
from .algebra import FormalSum, SymmetricSum
from .poly import _accumulate


@lru_cache(maxsize=None)
def _replacements(kind, n: int, a: int) -> tuple:
    """The n-1 edges that replace a loop at a, in order of the other
    endpoint; built once per (kind, n, a) and shared, hence a tuple."""
    if kind is DirectedGraph:
        return tuple((a, b) for b in range(1, n + 1) if b != a)
    return tuple((min(a, b), max(a, b)) for b in range(1, n + 1) if b != a)


def b_op(p: int, s: FormalSum) -> FormalSum:
    """Resolve a loop in position p, an int in 1..k (a bool is refused),
    linearly over the sum.  A sum with no loop in position p is fixed: a
    plain scan stops at the first loop it meets, and a FormalSum with none
    there is returned as it is, the same object, which
    ``verify._position_laws`` relies on."""
    if type(p) is not int or not (1 <= p <= s.k):
        raise ValueError(f"edge position {p!r} out of range 1..{s.k}")
    s = s.expand()
    i = p - 1
    for e in s._terms:
        if e[i][0] == e[i][1]:
            break
    else:
        return s
    terms: dict = {}  # filled as ``_accumulate`` fills, inline
    for e, c in s._terms.items():
        a, b = edge = e[i]
        if a == b:
            edges, c = _replacements(s.kind, s.n, a), -c
        else:
            edges = (edge,)
        head, tail = e[:i], e[p:]
        for r in edges:
            key = head + (r,) + tail
            x = terms.get(key)
            x = c if x is None else x + c
            if x:
                terms[key] = x
            else:
                del terms[key]
    return FormalSum._wrap(s.n, s.k, terms, s.kind)


def laplace(s: FormalSum | SymmetricSum) -> FormalSum | SymmetricSum:
    """The composition of the position operators b_1, ..., b_k, one key at a
    time for either kind of sum.

    A key with L loops goes, with sign (-1)^L, to every image that trades
    each loop (a,a) for one of its replacements, the other edges staying in
    place.  The key stands for count(key) = ``s._count((key,))`` numbered
    graphs; an image key M' that its own numbering reaches t times is
    reached t * count(key) times in all, evenly over the count(M')
    numberings of M'.  So M' gains (-1)^L * c times the integer
    t * count(key) // count(M').  Loop-free keys are fixed.
    """
    if not isinstance(s, (FormalSum, SymmetricSum)):
        raise TypeError("laplace expects a FormalSum or SymmetricSum")

    def images():
        for key, c in s._terms.items():
            loops = [a for a, b in key if a == b]
            if not loops:
                yield key, c
                continue
            c = -c if len(loops) % 2 else c
            count = s._count((key,))
            options = [_replacements(s.kind, s.n, a) if a == b else ((a, b),) for a, b in key]
            for m, t in Counter(map(s._key, itertools.product(*options))).items():
                yield m, c * (t * count // s._count((m,)))

    return s._like(_accumulate({}, images()), s.kind)
