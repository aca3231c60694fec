"""Brute-force oracles that the checks in ``verify`` compare the engine with.

Each recomputes from its definition what the engine also computes, and
reads only the graph types and ``MultiPoly``: never classification, the
class walk, the class sums, ``laplace`` or ``pairing``, so a fault in the
engine cannot hide on both sides of a comparison.
"""

from __future__ import annotations

from itertools import product

from .graphs import DirectedGraph
from .poly import MultiPoly, w


def edge_on_directed_cycle(g: DirectedGraph, p: int) -> bool:
    """Whether edge number p lies on a directed cycle (a loop always does),
    by a fresh search from the head back to the tail."""
    a, b = g.edges[p - 1]
    if a == b:
        return True
    frontier = {b}
    seen = {b}
    heads: dict[int, set[int]] = {}
    for x, y in g.edges:
        heads.setdefault(x, set()).add(y)
    while frontier:
        nxt = set()
        for u in frontier:
            for v in heads.get(u, ()):
                if v == a:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return False


def is_ssc_by_edges(g: DirectedGraph) -> bool:
    """Independent semiconnectivity test: every edge on a directed cycle."""
    return all(edge_on_directed_cycle(g, p) for p in range(1, g.k + 1))


def rooted_forest_poly(n: int, roots) -> MultiPoly:
    """Independent oracle: sum of monomials over functions sending each
    non-root vertex to its out-neighbour, whose iteration always lands in the
    root set.  These are exactly the forests of trees directed towards the
    roots, one root per component; each forest's monomial is distinct, with
    coefficient 1."""
    rootset = frozenset(roots)
    others = [v for v in range(1, n + 1) if v not in rootset]
    terms = {}
    for heads in product(range(1, n + 1), repeat=len(others)):
        f = dict(zip(others, heads))
        ok = True
        for v in others:
            seen = set()
            u = v
            while u not in rootset:
                if u in seen:
                    ok = False
                    break
                seen.add(u)
                u = f[u]
            if not ok:
                break
        if ok:
            terms[tuple((w(v, f[v]), 1) for v in others)] = 1
    return MultiPoly(terms)
