"""Potts partition function, Tutte polynomial, and orientation counts.

The partition function of an undirected graph is the subgraph expansion
sum of q^(components) * v^(edges) over all edge subsets, with all vertices
retained.  Specializing (q,v) at (-1,1) and (-1,-1) counts strongly
semiconnected and acyclic orientations respectively, which is what ties
these polynomials to the directed graph algebra.

The Tutte polynomial is computed by the usual deletion-contraction
recursion, memoized on the canonical edge multiset: it does not depend on
the edge numbering.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .algebra import SymmetricSum
from .graphs import (
    UndirectedGraph,
    _beta0,
    _class_test,
    _merge_vertices,
    check_cap,
    check_shape,
    classify,
    orientations,
    subset_positions,
    undirected_edge_types,
)
from .poly import MultiPoly, Q, V, X, Y, _exact


def _subset_counts(u: UndirectedGraph, cap: int | None) -> dict[tuple[int, int], int]:
    """How many edge subsets of u have each (components, size) pair."""
    check_cap(2 ** u.k, cap)
    counts: dict = {}
    for pos in subset_positions(u.k):
        key = (_beta0(u.n, tuple(u.edges[p] for p in pos)), len(pos))
        counts[key] = counts.get(key, 0) + 1
    return counts


def potts(u: UndirectedGraph, cap: int | None = None) -> MultiPoly:
    """Subgraph-expansion polynomial in q and v."""
    return MultiPoly({
        ((Q, b0),) if size == 0 else ((Q, b0), (V, size)): count
        for (b0, size), count in _subset_counts(u, cap).items()
    })


def _potts_sum(counts: dict, q0, v0):
    """The partition function at (q0, v0) from a ``_subset_counts`` table.
    q0 and v0 must be ints or Fractions; ``_exact`` makes an integral
    Fraction an int, so the sum is an int at integer points."""
    q0, v0 = _exact(q0), _exact(v0)
    return sum(c * q0 ** b0 * v0 ** size for (b0, size), c in counts.items())


def shave(u: UndirectedGraph) -> UndirectedGraph:
    """Delete all loops (with the usual renumbering of later edges)."""
    return UndirectedGraph(u.n, tuple(e for e in u.edges if e[0] != e[1]))


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
    cls, _ = _class_test(cls)
    ssc, ac = _orientation_counts(u, cap)
    return ssc if cls == "SSC" else ac


def _orientation_counts(u: UndirectedGraph, cap: int | None) -> tuple[int, int]:
    """How many orientations of u are strongly semiconnected and how many
    acyclic, classifying each orientation once."""
    cs = [classify(g) for g in orientations(u, cap=cap)]
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
    sum is an undirected SymmetricSum with one value per multiset."""
    check_shape(n, k)
    check_cap((n * (n + 1) // 2) ** k, cap)
    terms: dict = {}
    for multiset in combinations_with_replacement(undirected_edge_types(n), k):
        u = UndirectedGraph(n, multiset)
        val = _potts_sum(_subset_counts(shave(u) if shaved else u, cap), q0, v0)
        if val:
            terms[multiset] = val
    return SymmetricSum._wrap(n, k, terms, UndirectedGraph)
