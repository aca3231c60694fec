"""Edge-numbered directed and undirected multigraphs.

A graph on vertices 1..n with k edges is the ordered sequence of its edges;
the position of an edge in the sequence (1-based) is its number.  Two graphs
are equal only if vertex count and the exact edge sequences coincide, so the
same multigraph with two different edge numberings gives two different
objects.  Loops and repeated edges are allowed everywhere.

Vertex counts stay tiny (desk scale), which the classification code exploits
by keeping reachability as per-vertex bit masks and caching results per
sorted edge multiset: every structural predicate computed here is invariant
under renumbering of the edges.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

DEFAULT_CAP = 10_000_000
CAP_ENV_VAR = "GRAPHDET_CAP"

Edge = tuple[int, int]


class CapExceeded(Exception):
    """An enumeration would exceed the configured case cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"enumeration of {size} cases exceeds the cap of {cap}")
        self.size = size
        self.cap = cap


class GraphFormatError(ValueError):
    """Malformed graph or formal-sum text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def effective_cap(cap: int | None = None) -> int:
    """The enumeration cap: explicit argument, else $GRAPHDET_CAP, else default.

    It bounds the cases an enumeration walks: the edge multisets for the
    class sums and universal elements, and the numbered graphs a sum of
    them expands into; elsewhere the edge sequences, edge subsets or head
    functions enumerated, times any work per case.  A cap that is not a
    non-negative integer is refused under the name it came from."""
    if cap is not None:
        if type(cap) is not int or cap < 0:
            raise ValueError(
                f"the cap argument must be a non-negative integer, got {cap!r}"
            )
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_CAP
    try:
        limit = _read_number(env)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a non-negative integer, got {env!r}")
    return limit


def check_shape(n: int, k: int) -> None:
    """Refuse a vertex count below 1 or a negative edge count."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")


def check_cap(size: int, cap: int | None = None) -> None:
    """Raise CapExceeded if ``size`` cases exceed the effective cap."""
    limit = effective_cap(cap)
    if size > limit:
        raise CapExceeded(size, limit)


def _check_edge(n: int, a: int, b: int) -> None:
    """Refuse an edge (a, b) with an endpoint that is not an int in 1..n; a
    bool is not an int here."""
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"edge endpoints must be integers, got ({a!r},{b!r})")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"edge ({a},{b}) out of range for n={n}")


@dataclass(frozen=True)
class _Graph:
    """What both kinds of graph share: n vertices, k = len(edges) numbered
    edges with int endpoints in 1..n, stored as the tuple of tuples that
    ``_canonical`` gives."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"vertex count must be an integer of at least 1, got {self.n!r}")
        object.__setattr__(self, "edges", self._canonical(self.edges))
        for a, b in self.edges:
            _check_edge(self.n, a, b)

    @staticmethod
    def _canonical(edges) -> tuple[Edge, ...]:
        return tuple(map(tuple, edges))

    @property
    def k(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DirectedGraph(_Graph):
    """A directed multigraph given as an ordered sequence of (tail, head) edges."""

    def __str__(self):
        inner = ",".join(f"[{a}{b}]" if self.n < 10 else f"[{a},{b}]" for a, b in self.edges)
        return f"D(n={self.n}; {inner})"


@dataclass(frozen=True)
class UndirectedGraph(_Graph):
    """An undirected multigraph; each edge is stored canonically as (min, max)."""

    @staticmethod
    def _canonical(edges) -> tuple[Edge, ...]:
        return tuple((min(a, b), max(a, b)) for a, b in edges)

    def __str__(self):
        inner = ",".join(f"{{{a},{b}}}" for a, b in self.edges)
        return f"U(n={self.n}; {inner})"


Graph = DirectedGraph | UndirectedGraph


def _merge_vertices(edges: Iterable[Edge], lo: int, hi: int) -> tuple[Edge, ...]:
    """The edges with vertex hi merged into lo (lo < hi) and the vertices
    above hi shifted down by one; each edge keeps its orientation and its
    place."""
    def remap(v: int) -> int:
        if v == hi:
            return lo
        return v - 1 if v > hi else v

    return tuple((remap(x), remap(y)) for x, y in edges)


@dataclass(frozen=True)
class GraphClassification:
    """Structural facts about a directed graph, all numbering-invariant."""

    beta0: int
    beta1: int
    strongly_connected: bool
    strongly_semiconnected: bool
    acyclic: bool
    sinks: frozenset[int]
    isolated: frozenset[int]
    loop_count: int


# Classification cache, keyed by (n, sorted edge tuple).  Predicates are
# invariant under edge renumbering, so sorting the sequence loses nothing.
_DIR_CACHE: dict[tuple[int, tuple[Edge, ...]], GraphClassification] = {}


def _reach(adj: list[int], v: int) -> int:
    """Bit mask of the vertices reachable from v, v included, where bit w of
    adj[u] is set when there is an edge from u to w."""
    mask = 1 << v
    stack = [v]
    while stack:
        new = adj[stack.pop()] & ~mask
        mask |= new
        while new:
            w = (new & -new).bit_length() - 1
            stack.append(w)
            new &= new - 1
    return mask


def _components(n: int, edges: Iterable[Edge]) -> list[int]:
    """Vertex bit masks of the connected components of the underlying graph."""
    und = [0] * (n + 1)
    for a, b in edges:
        und[a] |= 1 << b
        und[b] |= 1 << a
    comps = []
    seen = 0
    for v in range(1, n + 1):
        if not seen >> v & 1:
            comps.append(_reach(und, v))
            seen |= comps[-1]
    return comps


def _beta0(n: int, edges: Iterable[Edge]) -> int:
    return len(_components(n, edges))


def beta0(g: Graph) -> int:
    """Number of connected components of the underlying graph (isolated
    vertices count as components)."""
    return _beta0(g.n, g.edges)


def beta1(g: Graph) -> int:
    """First Betti number of the graph as a 1-complex: k - n + beta0."""
    return g.k - g.n + beta0(g)


def _classify_key(n: int, sorted_edges: tuple[Edge, ...]) -> GraphClassification:
    """The classification of one sorted edge multiset, through the cache."""
    hit = _DIR_CACHE.get((n, sorted_edges))
    if hit is None:
        hit = _DIR_CACHE[(n, sorted_edges)] = _classify(n, sorted_edges)
    return hit


def _classify(n: int, sorted_edges: tuple[Edge, ...]) -> GraphClassification:
    """Classify one sorted edge multiset, uncached: for callers that keep
    the result themselves."""
    k = len(sorted_edges)
    outdeg = [0] * (n + 1)
    incident = [False] * (n + 1)
    adj = [0] * (n + 1)
    loop_count = 0
    for a, b in sorted_edges:
        outdeg[a] += 1
        incident[a] = incident[b] = True
        adj[a] |= 1 << b
        if a == b:
            loop_count += 1

    # reach[v] has bit w set when w is reachable from v
    reach = [0] + [_reach(adj, v) for v in range(1, n + 1)]
    comps = _components(n, sorted_edges)
    b0 = len(comps)
    full = ((1 << (n + 1)) - 2)  # bits 1..n
    strongly_connected = all(reach[v] == full for v in range(1, n + 1))
    # Each vertex reaches its whole component: reach[v] holds v and lies in
    # v's component, so it is that component iff it is a component at all.
    strongly_semiconnected = set(reach[1:]) <= set(comps)
    acyclic = all(not (reach[b] >> a & 1) for a, b in sorted_edges)
    sinks = frozenset(v for v in range(1, n + 1) if outdeg[v] == 0)
    isolated = frozenset(v for v in range(1, n + 1) if not incident[v])

    return GraphClassification(
        beta0=b0,
        beta1=k - n + b0,
        strongly_connected=strongly_connected,
        strongly_semiconnected=strongly_semiconnected,
        acyclic=acyclic,
        sinks=sinks,
        isolated=isolated,
        loop_count=loop_count,
    )


def classify(g: DirectedGraph) -> GraphClassification:
    if not isinstance(g, DirectedGraph):
        raise TypeError("classification is defined for directed graphs")
    return _classify_key(g.n, tuple(sorted(g.edges)))


def edge_on_directed_cycle(g: DirectedGraph, p: int) -> bool:
    """Whether edge number p lies on a directed cycle (a loop always does).

    Runs a fresh search from the head back to the tail; deliberately does not
    share code with classify() so the two can cross-check each other.
    """
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
            for w in heads.get(u, ()):
                if w == a:
                    return True
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
    return False


def is_ssc_by_edges(g: DirectedGraph) -> bool:
    """Independent semiconnectivity test: every edge on a directed cycle."""
    return all(edge_on_directed_cycle(g, p) for p in range(1, g.k + 1))


# ---------------------------------------------------------------------------
# Enumeration


def directed_edge_types(n: int) -> list[Edge]:
    """All n^2 possible directed edges in lexicographic order."""
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]


def undirected_edge_types(n: int) -> list[Edge]:
    """All n(n+1)/2 canonical undirected edges in lexicographic order."""
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def enumerate_graphs(n: int, k: int, cap: int | None = None) -> Iterator[DirectedGraph]:
    """All directed graphs with n vertices and k numbered edges, in
    lexicographic order of the edge sequence; n^(2k) of them."""
    check_shape(n, k)
    check_cap((n * n) ** k, cap)
    for edges in itertools.product(directed_edge_types(n), repeat=k):
        yield DirectedGraph(n, edges)


def enumerate_undirected(n: int, k: int, cap: int | None = None) -> Iterator[UndirectedGraph]:
    """All undirected graphs with n vertices and k numbered edges."""
    check_shape(n, k)
    check_cap((n * (n + 1) // 2) ** k, cap)
    for edges in itertools.product(undirected_edge_types(n), repeat=k):
        yield UndirectedGraph(n, edges)


def _vertex(n: int, v: int) -> int:
    """The vertex v, refused unless it is an int in 1..n; a bool is not an
    int here."""
    if type(v) is not int:
        raise ValueError(f"vertices must be integers, got {v!r}")
    if not 1 <= v <= n:
        raise ValueError("vertex out of range")
    return v


def _vertex_set(n: int, I: Iterable[int]) -> frozenset[int]:
    """The vertex set I, each vertex refused as ``_vertex`` refuses it."""
    return frozenset(_vertex(n, v) for v in I)


def _class_test(cls: str):
    """The class named "SSC" or "AC", in either case: its upper-case name
    and its membership test, which maps a classification to the vertex set
    that files a member (its isolated vertices if strongly semiconnected,
    its sinks if acyclic) and a non-member to None."""
    cls = cls.upper()
    if cls == "SSC":
        return cls, lambda c: c.isolated if c.strongly_semiconnected else None
    if cls == "AC":
        return cls, lambda c: c.sinks if c.acyclic else None
    raise ValueError(f"unknown graph class {cls!r}")


def enumerate_class(
    n: int,
    k: int,
    cls: str,
    I: Iterable[int] | None = None,
    cap: int | None = None,
) -> Iterator[DirectedGraph]:
    """Filtered enumeration of the strongly-semiconnected or acyclic graphs.

    For cls="SSC", I is the exact isolated-vertex set; for cls="AC" the exact
    sink set.  I=None takes the union over all vertex sets.
    """
    _, member = _class_test(cls)
    target = None if I is None else _vertex_set(n, I)
    for g in enumerate_graphs(n, k, cap=cap):
        vs = member(classify(g))
        if vs is not None and (target is None or vs == target):
            yield g


@lru_cache(maxsize=None)
def subset_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """The 0-based edge positions kept by each of the 2^k bit masks, in mask
    order; the last mask keeps all k."""
    return tuple(tuple(p for p in range(k) if m >> p & 1) for m in range(2 ** k))


def forget(g: DirectedGraph) -> UndirectedGraph:
    """Erase edge orientations, keeping the numbering."""
    return UndirectedGraph(g.n, g.edges)


def orientations(u: UndirectedGraph, cap: int | None = None) -> Iterator[DirectedGraph]:
    """All directed graphs whose unoriented image is u.

    There are 2^(non-loop edge count): a loop has a single orientation.
    """
    choices: list[tuple[Edge, ...]] = []
    size = 1
    for a, b in u.edges:
        choices.append(((a, a),) if a == b else ((a, b), (b, a)))
        if a != b:
            size *= 2
    check_cap(size, cap)
    for edges in itertools.product(*choices):
        yield DirectedGraph(u.n, edges)


# ---------------------------------------------------------------------------
# Text formats.  A graph file is the header "D n k" or "U n k", then one
# "a b" line per edge, in numbering order.  ASCII, LF endings; blank lines
# are skipped but counted, so every error names the line it is on.


_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _read_number(text: str, rational: bool = False) -> int | Fraction:
    """The number that text spells in ASCII: an integer -?[0-9]+, or, when
    rational, a Fraction -?[0-9]+ with an optional /[0-9]+.  No sign but a
    leading minus, no spaces, underscores, decimal points, exponents or
    non-ASCII digits; anything else raises ValueError, and a zero
    denominator ZeroDivisionError."""
    match = _NUMBER.fullmatch(text)
    if match is None or (match[1] and not rational):
        raise ValueError(f"not {'a rational' if rational else 'an integer'}: {text!r}")
    return Fraction(text) if rational else int(text)


def _read_header(text: str, tags: tuple[str, ...], what: str):
    """Read the first nonblank line of text as the header "TAG n k".

    Returns the tag, n, k, the header's line number and the (line number,
    stripped line) pairs of the nonblank lines after it."""
    lines = [
        (no, raw.strip())
        for no, raw in enumerate(text.split("\n"), start=1)
        if raw.strip()
    ]
    if not lines:
        raise GraphFormatError(f"empty {what} file")
    (head_no, head), body = lines[0], lines[1:]
    parts = head.split()
    if len(parts) != 3 or parts[0] not in tags:
        want = " or ".join(f"'{tag} n k'" for tag in tags)
        raise GraphFormatError(f"expected header {want}, got {head!r}", head_no)
    try:
        n, k = _read_number(parts[1]), _read_number(parts[2])
    except ValueError:
        raise GraphFormatError(f"non-integer header fields in {head!r}", head_no)
    try:
        check_shape(n, k)
    except ValueError as exc:
        raise GraphFormatError(str(exc), head_no)
    return parts[0], n, k, head_no, body


def _read_edge(n: int, text: str, no: int) -> Edge:
    """The edge of a graph on 1..n that the stripped text "a b" on line
    no gives."""
    toks = text.split()
    if len(toks) != 2:
        raise GraphFormatError(f"expected 'a b', got {text!r}", no)
    try:
        a, b = _read_number(toks[0]), _read_number(toks[1])
    except ValueError:
        raise GraphFormatError(f"non-integer endpoint in {text!r}", no)
    try:
        _check_edge(n, a, b)
    except ValueError as exc:
        raise GraphFormatError(str(exc), no)
    return a, b


def format_graph(g: Graph) -> str:
    tag = "D" if isinstance(g, DirectedGraph) else "U"
    lines = [f"{tag} {g.n} {g.k}"]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    tag, n, k, head_no, body = _read_header(text, ("D", "U"), "graph")
    if len(body) != k:
        raise GraphFormatError(
            f"header announces {k} edges but file has {len(body)}", head_no
        )
    edges = tuple(_read_edge(n, line, no) for no, line in body)
    return (DirectedGraph if tag == "D" else UndirectedGraph)(n, edges)
