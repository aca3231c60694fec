"""Potts partition function, Tutte polynomial, and orientation counts.

The partition function of an undirected graph is the subgraph expansion
sum of q^(components) * v^(edges) over all edge subsets, with all vertices
retained.  Specializing (q,v) at (-1,1) and (-1,-1) counts strongly
semiconnected and acyclic orientations respectively, which is what ties
these polynomials to the directed graph algebra.

Every value here depends only on the edge multiset, so the engine reads
sorted undirected edge tuples and takes no cap; graph objects are met only
at the API boundary, and each public function checks the cap once per call.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from types import MappingProxyType

from .algebra import SymmetricSum
from .graphs import (
    UndirectedGraph,
    _beta0,
    _class_name,
    _classify_key,
    _merge_vertices,
    _orientation_count,
    _orientations,
    check_cap,
    check_shape,
    subset_positions,
    undirected_edge_types,
)
from .poly import MultiPoly, Q, V, X, Y, _accumulate, _exact


@lru_cache(maxsize=None)
def _subset_table(n: int, edges: tuple) -> Mapping[tuple[int, int], int]:
    """How many edge subsets of a sorted edge multiset have each (components,
    size) pair; shared by every caller for the process, hence read-only."""
    return MappingProxyType(_accumulate({}, (
        ((_beta0(n, tuple(edges[p] for p in pos)), len(pos)), 1)
        for pos in subset_positions(len(edges))
    )))


def potts(u: UndirectedGraph, cap: int | None = None) -> MultiPoly:
    """Subgraph-expansion polynomial in q and v."""
    check_cap(2 ** u.k, cap)
    return MultiPoly({
        ((Q, b0), (V, size)): count
        for (b0, size), count in _subset_table(u.n, tuple(sorted(u.edges))).items()
    })


def _potts_sum(counts: dict, q0, v0):
    """The partition function at (q0, v0) from a ``_subset_table``.
    q0 and v0 must be ints or Fractions; ``_exact`` makes an integral
    Fraction an int, so the sum is an int at integer points."""
    q0, v0 = _exact(q0), _exact(v0)
    return sum(c * q0 ** b0 * v0 ** size for (b0, size), c in counts.items())


def _shaved(edges: tuple) -> tuple:
    """The edges without their loops, in order: a sorted key stays sorted."""
    return tuple(e for e in edges if e[0] != e[1])


def shave(u: UndirectedGraph) -> UndirectedGraph:
    """Delete all loops (with the usual renumbering of later edges)."""
    return UndirectedGraph(u.n, _shaved(u.edges))


def tutte(u: UndirectedGraph, cap: int | None = None) -> MultiPoly:
    """Tutte polynomial in x and y by deletion-contraction.

    Loops contribute a factor y, bridges a factor x; an ordinary edge splits
    into deletion plus contraction; the edgeless graph gives 1.
    """
    check_cap(2 ** u.k, cap)
    return _tutte(u.n, tuple(sorted(u.edges)))


@lru_cache(maxsize=None)
def _tutte(n: int, edges: tuple) -> MultiPoly:
    if not edges:
        return MultiPoly.const(1)
    a, b = edges[-1]
    rest = edges[:-1]
    if a == b:
        return MultiPoly.variable(Y) * _tutte(n, rest)
    merged = tuple(sorted(UndirectedGraph._canonical(_merge_vertices(rest, a, b))))
    if _beta0(n, rest) > _beta0(n, edges):  # removing it disconnects: bridge
        return MultiPoly.variable(X) * _tutte(n - 1, merged)
    return _tutte(n, rest) + _tutte(n - 1, merged)


def count_orientations(u: UndirectedGraph, cls: str, cap: int | None = None) -> int:
    """Number of orientations of u that are strongly semiconnected ("SSC")
    or acyclic ("AC"), by brute enumeration."""
    cls = _class_name(cls)
    check_cap(_orientation_count(u.edges), cap)
    ssc, ac = _orientation_counts(u.n, u.edges)
    return ssc if cls == "SSC" else ac


def _orientation_counts(n: int, edges: tuple) -> tuple[int, int]:
    """How many orientations of the undirected edges are strongly
    semiconnected and how many acyclic, classifying each once, sorted."""
    cs = [_classify_key(n, tuple(sorted(o))) for o in _orientations(edges)]
    return sum(c.strongly_semiconnected for c in cs), sum(c.acyclic for c in cs)


def universal_potts(
    n: int,
    k: int,
    q0,
    v0,
    shaved: bool = False,
    cap: int | None = None,
) -> SymmetricSum:
    """Sum of every undirected (n,k) graph weighted by its partition-function
    value at (q0, v0); with shaved=True the weight is taken after deleting
    the graph's loops.  The value depends only on the edge multiset, so the
    sum is an undirected SymmetricSum with one value per multiset.  The cap
    counts the C(m+k-1, k) multisets, m = n(n+1)/2, and the 2^k subsets."""
    check_shape(n, k)
    check_cap(max(comb(n * (n + 1) // 2 + k - 1, k), 2 ** k), cap)
    terms: dict = {}
    for multiset in combinations_with_replacement(undirected_edge_types(n), k):
        val = _potts_sum(_subset_table(n, _shaved(multiset) if shaved else multiset), q0, v0)
        if val:
            terms[multiset] = val
    return SymmetricSum._wrap(n, k, terms, UndirectedGraph)
