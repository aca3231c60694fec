"""Formal rational linear combinations of edge-numbered graphs.

The algebra of graphs on a fixed vertex set is graded by edge count; a
FormalSum is one homogeneous component: a finite map from graphs to exact
rational coefficients.  The product concatenates edge sequences (renumbering
the right factor's edges after the left's) and is deliberately
non-commutative: the same edges with different numbers are different graphs.

A numbered graph with n vertices and k edges is just its sequence of k
edges, so both kinds of sum store each term under a plain edge tuple and
keep n, k and the graph kind on the sum.  Graph objects are built only at
the boundary: the public FormalSum constructor validates the graphs it is
given, and ``terms()``, ``support()``, ``map_graphs`` and ``str()`` build
the graphs they return.

On top of the vector-space plumbing this module builds the signed class sums
over strongly semiconnected graphs that behave like determinants and minors
of a generic matrix, and the mixed-degree element whose Laplace image counts
acyclic graphs.  Membership in every class used here is invariant under
renumbering the edges, so these sums are built as SymmetricSums: one
coefficient per sorted edge multiset, standing for every distinct ordering
of it.  ``laplace`` and ``pairing``, the product of a weight matrix's
entries along each graph's edges, work on the multisets directly.  A
SymmetricSum is expanded into the FormalSum over its numberings only where
edge order matters: ``concat_product``, ``b_op``, ``map_graphs`` and
``forget_sum``, text output, ``terms()``/``support()``, and comparison or
addition with a FormalSum.  ``numbered`` lists the numberings of many
multisets in one lexicographic walk, for ``expand``, ``diff`` and
``enumerate_class``, and nothing sorts or merges what it yields.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from .graphs import (
    DirectedGraph,
    GraphFormatError,
    UndirectedGraph,
    _class_name,
    _classify,
    _read_edge,
    _read_header,
    _read_number,
    _vertex,
    _vertex_set,
    beta0,
    check_cap,
    check_shape,
    directed_edge_types,
    forget,
)
from .poly import MultiPoly, _accumulate, _exact, _product


class _LinearSum:
    """The vector-space structure that FormalSum and SymmetricSum share.

    ``_terms`` maps plain edge tuples to nonzero coefficients: ints while
    they are integers, Fractions once a division makes them so.  ``coeff``,
    ``terms()`` and ``diff`` return Fractions.  n, k and the graph kind live
    on the sum alone.  A subclass supplies ``_key(edges)``, the key of a
    graph's edges, ``_count(keys)``, the numbered graphs those keys stand
    for, ``_numbered(terms)``, the (edge sequence, value) pairs of a dict
    from keys to values, in lexicographic order, and ``expand()``.  Graph
    objects are built from keys only on the way out.
    """

    __slots__ = ("n", "k", "kind", "_terms")

    def __init__(self, n: int, k: int, terms: dict, kind=DirectedGraph):
        """Wrap clean terms as they are: keys of k edges of the given kind
        (canonical (min, max) pairs when undirected) mapped to nonzero
        ints or Fractions.  The dict is kept, not copied."""
        self.n = n
        self.k = k
        self.kind = kind
        self._terms = terms

    @classmethod
    def _wrap(cls, n: int, k: int, terms: dict, kind=DirectedGraph):
        """The trusted constructor, past any validating ``__init__``."""
        s = cls.__new__(cls)
        s.n, s.k, s.kind, s._terms = n, k, kind, terms
        return s

    def _like(self, terms: dict, kind):
        return self._wrap(self.n, self.k, terms, kind)

    @classmethod
    def zero(cls, n: int, k: int, kind=DirectedGraph):
        check_shape(n, k)
        return cls._wrap(n, k, {}, kind)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return self._count(self._terms)

    def coeff(self, g) -> Fraction:
        if type(g) is not self.kind or (g.n, g.k) != (self.n, self.k):
            return Fraction(0)
        return Fraction(self._terms.get(self._key(g.edges), 0))

    def _items(self) -> list[tuple]:
        """(edge sequence, coefficient) pairs of the expansion, sorted."""
        return sorted(self.expand()._terms.items())

    def terms(self) -> list[tuple]:
        """(graph, coefficient) pairs of the expansion, sorted by edge sequence."""
        return [(self.kind(self.n, edges), Fraction(c)) for edges, c in self._items()]

    def support(self) -> list:
        return [g for g, _ in self.terms()]

    def diff(self, other) -> tuple[list[tuple], int]:
        """Graph-by-graph mismatches against another sum of the same n, k and
        kind; a sum of another shape raises ValueError.

        Returns the (edge sequence, own coefficient, other's coefficient)
        triple of every numbered graph whose two coefficients differ, sorted
        by edge sequence, and the number of numbered graphs in the union of
        the two supports.  Two SymmetricSums are compared per edge multiset,
        and only the multisets whose coefficients differ are expanded."""
        mine, theirs = [(s.n, s.k, s.kind.__name__) for s in (self, other)]
        if mine != theirs:
            raise ValueError(f"cannot compare sums of shapes {mine} and {theirs}")
        if type(other) is not type(self):
            return self.expand().diff(other.expand())
        keys = set(self._terms) | set(other._terms)
        differ = {}
        for key in keys:
            a, b = self._terms.get(key, 0), other._terms.get(key, 0)
            if a != b:
                differ[key] = (Fraction(a), Fraction(b))
        out = [(seq, a, b) for seq, (a, b) in self._numbered(differ)]
        return out, self._count(keys)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _LinearSum):
            return NotImplemented
        if type(other) is not type(self):
            return self.expand() == other.expand()
        return (self.n, self.k, self.kind) == (other.n, other.k, other.kind) and (
            self._terms == other._terms
        )

    def __hash__(self):
        s = self.expand()
        return hash((s.n, s.k, s.kind, frozenset(s._terms.items())))

    def __add__(self, other):
        if not isinstance(other, _LinearSum):
            return NotImplemented
        if type(other) is not type(self):
            return self.expand() + other.expand()
        kind = _common_kind(self, other)
        return self._like(_accumulate(dict(self._terms), other._terms.items()), kind)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def scale(self, c):
        c = _exact(c)
        terms = {key: c * x for key, x in self._terms.items()} if c else {}
        return self._like(terms, self.kind)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, _LinearSum):
            return concat_product(self, other)
        return NotImplemented

    def map_graphs(self, fn: Callable, kind=None) -> "FormalSum":
        """Linear extension of a degree-preserving map on basis graphs;
        coefficients of colliding images merge.  ``kind`` is the kind of the
        images, needed when the sum is zero; it defaults to this sum's."""
        terms = _accumulate({}, ((fn(g), c) for g, c in self.terms()))
        h = next(iter(terms), self)
        return FormalSum(h.n, h.k, terms, kind or self.kind)

    def __str__(self):
        if self.is_zero:
            return f"0 (n={self.n}, k={self.k})"
        return " + ".join(f"({c})*{g}" for g, c in self.terms())


class FormalSum(_LinearSum):
    """Homogeneous formal sum: finite map graph -> nonzero rational coefficient.

    Each term is stored under its edge sequence.  All terms share the
    vertex count n, degree k and graph kind (``DirectedGraph`` or
    ``UndirectedGraph``) stored on the sum, so a zero sum keeps its kind.
    The constructor takes graph keys and validates every term; the kind is
    inferred from the terms when not given, and defaults to directed.
    Instances are immutable by convention; all operations return new sums.
    """

    __slots__ = ()

    def __init__(self, n: int, k: int, terms=None, kind=None):
        check_shape(n, k)
        clean: dict = {}
        for g, c in (terms or {}).items():
            c = _exact(c)
            if c == 0:
                continue
            if kind is None:
                kind = type(g)
            elif type(g) is not kind:
                raise ValueError("cannot mix directed and undirected terms")
            if g.n != n or g.k != k:
                raise ValueError(
                    f"term {g} breaks homogeneity: expected n={n}, k={k}"
                )
            clean[g.edges] = c
        super().__init__(n, k, clean, kind or DirectedGraph)

    @classmethod
    def single(cls, g, c=1) -> "FormalSum":
        return cls(g.n, g.k, {g: c}, type(g))

    def expand(self, cap: int | None = None) -> "FormalSum":
        """The sum over numbered graphs: this sum itself."""
        return self

    @staticmethod
    def _key(edges: tuple) -> tuple:
        return edges

    @staticmethod
    def _count(keys) -> int:
        return len(keys)

    @staticmethod
    def _numbered(terms: dict) -> list[tuple]:
        return sorted(terms.items())


def _common_kind(s1, s2):
    """The kind of a sum of s1 and s2; a zero summand takes the other's."""
    if (s1.n, s1.k) != (s2.n, s2.k):
        raise ValueError(
            f"degree mismatch: ({s1.n},{s1.k}) vs ({s2.n},{s2.k})"
        )
    if s1.kind is s2.kind or not s2:
        return s1.kind
    if not s1:
        return s2.kind
    raise ValueError("cannot mix directed and undirected terms")


def multiplicity_factor(multiset: tuple) -> int:
    """Product of the factorials of the multiplicities in a sorted tuple."""
    out = run = 1
    for prev, cur in zip(multiset, multiset[1:]):
        run = run + 1 if prev == cur else 1
        out *= run
    return out


def orderings(multiset: tuple) -> int:
    """Number of distinct orderings of a sorted tuple: k! / m(multiset)."""
    return factorial(len(multiset)) // multiplicity_factor(multiset)


def numbered(terms: dict) -> Iterator[tuple]:
    """(edge sequence, value) for every distinct ordering of every key of
    terms, sorted edge tuples of one length, in lexicographic order: the
    sequences that start with edge e are e followed by the numberings of
    {key less one copy of e : key holds e}."""
    if len(next(iter(terms), ())) <= 1:  # each key is its only ordering
        yield from sorted(terms.items())
        return
    rests: dict = {}
    for key, value in terms.items():
        for i, e in enumerate(key):
            if i == 0 or e != key[i - 1]:
                rests.setdefault(e, {})[key[:i] + key[i + 1:]] = value
    for e in sorted(rests):
        for seq, value in numbered(rests[e]):
            yield (e,) + seq, value


class SymmetricSum(_LinearSum):
    """Homogeneous sum invariant under renumbering of the edges.

    ``_terms`` maps each sorted edge tuple (edge multiset) to the nonzero
    coefficient that every distinct ordering of it carries.  The
    constructor refuses a key that is not a sorted tuple of k edges of the
    kind on vertices 1..n (undirected edges as (min, max) pairs), refuses a
    coefficient that is not an int or a Fraction and drops the zeros.  As
    a vector the sum equals ``expand()``, the FormalSum over all those
    numbered graphs, and it answers the same queries: ``len()`` counts
    numbered graphs, ``coeff(g)`` looks up ``sorted(g.edges)``, ``terms()``
    and ``support()`` list the expansion, and ``==`` against a FormalSum
    compares expansions.
    The internal builders, whose keys are clean by construction, go past
    the checks through ``_wrap``.  The kind defaults
    to directed, as every class sum is; ``universal_potts`` builds
    undirected ones.
    """

    __slots__ = ()

    def __init__(self, n: int, k: int, terms=None, kind=DirectedGraph):
        check_shape(n, k)
        clean: dict = {}
        for key, c in (terms or {}).items():
            c = _exact(c)
            if c == 0:
                continue
            if len(key) != k or key != self._key(kind(n, key).edges):
                raise ValueError(
                    f"term key {key!r} is not a sorted multiset of {k} edges"
                    f" of a {kind.__name__} on n={n}"
                )
            clean[key] = c
        super().__init__(n, k, clean, kind)

    def expand(self, cap: int | None = None) -> FormalSum:
        """The FormalSum over every numbering of every multiset, built anew
        on each call.  The cap counts the numbered graphs it lists,
        ``len(self)``; the queries that expand implicitly use the default
        cap."""
        check_cap(len(self), cap)
        return FormalSum._wrap(self.n, self.k, dict(numbered(self._terms)), self.kind)

    @staticmethod
    def _key(edges: tuple) -> tuple:
        return tuple(sorted(edges))

    @staticmethod
    def _count(keys) -> int:
        return sum(orderings(m) for m in keys)

    _numbered = staticmethod(numbered)


def concat_product(s1, s2) -> FormalSum:
    """Bilinear edge-sequence concatenation; degree adds, order matters.
    Distinct pairs of edge sequences concatenate to distinct sequences, so
    no two products merge."""
    s1, s2 = s1.expand(), s2.expand()
    if s1.n != s2.n:
        raise ValueError(f"vertex-count mismatch: {s1.n} vs {s2.n}")
    if s1.kind is not s2.kind:
        raise ValueError("cannot multiply directed by undirected sums")
    terms = {
        e1 + e2: c1 * c2
        for e1, c1 in s1._terms.items()
        for e2, c2 in s2._terms.items()
    }
    return FormalSum._wrap(s1.n, s1.k + s2.k, terms, s1.kind)


def pairing(m, s):
    """The MultiPoly product of the entries of the WeightMatrix m along each
    graph's edges, extended linearly.  The product does not depend on the
    edge numbering, so each key's coefficient, times the numbered graphs it
    stands for, is added under its sorted edge tuple; nothing is expanded.

    Each multiset's product starts from its coefficient, as
    ``MultiPoly.const`` stores it, and folds in one edge's entry at a time
    through ``poly._product``, the loop of ``MultiPoly.__mul__``, so like
    monomials merge after each edge and no ``MultiPoly`` is built per edge.
    Each entry is read once per call, through ``m.entry``."""
    if not isinstance(s, _LinearSum):
        raise TypeError("pairing expects a FormalSum or SymmetricSum")
    if s.n != m.n:
        raise ValueError(f"dimension mismatch: matrix {m.n}, sum over n={s.n}")
    if s.kind is not DirectedGraph:
        raise TypeError("pairing is defined for directed sums")
    grouped = _accumulate({}, (
        (tuple(sorted(key)), c * s._count((key,))) for key, c in s._terms.items()
    ))
    factors: dict = {}  # edge -> its entry's stored terms
    total: dict = {}
    for ms, c in grouped.items():
        prod = MultiPoly.const(c)._terms
        for e in ms:
            factor = factors.get(e)
            if factor is None:
                factor = factors[e] = list(m.entry(*e)._terms.items())
            prod = _product(prod, factor)
        _accumulate(total, prod.items())
    return MultiPoly._wrap(total)


class GradedElement:
    """A finite sum of directed homogeneous components of different degrees.

    ``parts`` maps each degree to its nonzero component, and ``part`` gives
    a directed zero for a missing degree.  A component whose n or k
    disagrees with its key, or an undirected one, is refused."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: dict[int, FormalSum] | None = None):
        self.n = n
        self.parts: dict[int, FormalSum] = {}
        for k, s in (parts or {}).items():
            if s.n != n or s.k != k:
                raise ValueError("component degree disagrees with its key")
            if s.kind is not DirectedGraph:
                raise ValueError("graded components must be directed")
            if not s.is_zero:
                self.parts[k] = s

    def part(self, k: int) -> FormalSum:
        return self.parts.get(k, FormalSum.zero(self.n, k))

    def degrees(self) -> list[int]:
        return sorted(self.parts)


# ---------------------------------------------------------------------------
# Sums over graph streams


def u_sum(
    graphs: Iterable, n: int | None = None, k: int | None = None, kind=None
) -> FormalSum:
    """Plain sum of a homogeneous stream of graphs, coefficient +1 each.

    n and k are only needed when the stream may be empty; so is kind, the
    graph kind of an empty sum, which is otherwise taken from the graphs
    and defaults to directed.
    """
    return _stream_sum(graphs, n, k, kind, signed=False)


def x_sum(
    graphs: Iterable, n: int | None = None, k: int | None = None, kind=None
) -> FormalSum:
    """Sum of a stream with each graph weighted by (-1)^beta0."""
    return _stream_sum(graphs, n, k, kind, signed=True)


def _stream_sum(graphs, n, k, kind, signed: bool) -> FormalSum:
    # A graph always carries the same sign, so no key cancels: the terms
    # are empty only for an empty stream.
    terms = _accumulate({}, ((g, (-1) ** beta0(g) if signed else 1) for g in graphs))
    if n is None:
        if not terms:
            raise ValueError("empty stream: pass n and k explicitly")
        g = next(iter(terms))
        n, k = g.n, g.k
    return FormalSum(n, k, terms, kind)


# ---------------------------------------------------------------------------
# Class sums via edge multisets.
#
# Whether a graph is strongly semiconnected / acyclic, and its isolated or
# sink set, depend only on the multiset of its edges.  So instead of walking
# all n^(2k) sequences we walk the C(n^2+k-1, k) multisets once per (n, k),
# classify each once and file it by class and vertex set; every class sum
# takes its terms from those files, and ``enumerate_class`` walks them once.


@lru_cache(maxsize=None)
def _class_walk(n: int, k: int) -> dict:
    """Every k-edge multiset, classified once and filed with its sign
    (-1)^beta0 under (class, vertex set) for each class whose test it
    passes: ("SSC", isolated set) and ("AC", sink set)."""
    buckets: dict = {}
    for multiset in itertools.combinations_with_replacement(directed_edge_types(n), k):
        c = _classify(n, multiset)
        sign = -1 if c.beta0 % 2 else 1
        if c.strongly_semiconnected:
            buckets.setdefault(("SSC", c.isolated), {})[multiset] = sign
        if c.acyclic:
            buckets.setdefault(("AC", c.sinks), {})[multiset] = sign
    return buckets


def class_sum(
    n: int,
    k: int,
    cls: str,
    I: Iterable[int] | None = None,
    signed: bool = False,
    cap: int | None = None,
) -> SymmetricSum:
    """U- or X-style sum over a semiconnectivity/acyclicity class, read
    from the walk at (n, k) once its C(n^2+k-1, k) multisets are within
    the cap."""
    cls = _class_name(cls)
    key = None if I is None else (cls, _vertex_set(n, I))
    check_shape(n, k)
    check_cap(comb(n * n + k - 1, k), cap)
    buckets = _class_walk(n, k)
    keys = [b for b in buckets if b[0] == cls] if key is None else [key]
    signs = {m: c for b in keys for m, c in buckets.get(b, {}).items()}
    terms = signs if signed else dict.fromkeys(signs, 1)
    return SymmetricSum._wrap(n, k, terms)


def enumerate_class(
    n: int,
    k: int,
    cls: str,
    I: Iterable[int] | None = None,
    cap: int | None = None,
) -> Iterator[DirectedGraph]:
    """The strongly semiconnected (cls="SSC") or acyclic ("AC") graphs, in
    lexicographic order of the edge sequence: the ``numbered`` walk over
    the multisets that ``class_sum`` reads.  For SSC, I is the exact
    isolated-vertex set; for AC the exact sink set; None takes every set.
    The cap counts the n^(2k) sequences and is checked before the walk."""
    _class_name(cls)
    I = None if I is None else _vertex_set(n, I)
    check_shape(n, k)
    check_cap((n * n) ** k, cap)
    members = class_sum(n, k, cls, I, cap=cap)._terms
    for edges, _ in numbered(members):
        yield DirectedGraph(n, edges)


def universal_det(
    n: int, k: int, I: Iterable[int] = (), cap: int | None = None
) -> SymmetricSum:
    """The degree-k diagonal minor element for the vertex set I.

    ((-1)^k / k!) times the beta0-signed sum of all strongly semiconnected
    graphs whose isolated vertices are exactly I.  Zero whenever k < n - |I|.
    """
    iso = _vertex_set(n, I)
    check_shape(n, k)
    if k < n - len(iso):
        return SymmetricSum.zero(n, k)
    ssc = class_sum(n, k, "SSC", iso, signed=True, cap=cap)
    return Fraction((-1) ** k, factorial(k)) * ssc


def universal_codim1(
    n: int, k: int, i: int, j: int, cap: int | None = None
) -> SymmetricSum:
    """The degree-k (i,j)-minor element: signed sum over graphs G such that
    prepending the edge (i,j) makes G strongly semiconnected with no
    isolated vertex: a degree-(k+1) multiset of that class holding (i,j),
    less one copy of it.  Its sign is the bigger multiset's, which agrees
    with G's own, as an edge joining two components lies on no cycle."""
    _vertex(n, i)
    _vertex(n, j)
    check_shape(n, k)
    terms = {}
    for big, c in class_sum(n, k + 1, "SSC", (), signed=True, cap=cap)._terms.items():
        if (i, j) in big:
            at = big.index((i, j))
            terms[big[:at] + big[at + 1:]] = c
    return Fraction((-1) ** k, factorial(k)) * SymmetricSum._wrap(n, k, terms)


def theta(n: int, cap: int | None = None) -> GradedElement:
    """The mixed-degree element in degrees n+1 and n-1 built from the
    degree-(n+1) determinant, edge-augmented two-vertex minors, and
    single-vertex minors."""
    if n < 2:
        raise ValueError("need n >= 2")
    high = universal_det(n, n + 1, (), cap=cap)
    low = _theta_low(n, lambda k, I: universal_det(n, k, I, cap=cap))
    return GradedElement(n, {n + 1: high, n - 1: low})


def _theta_low(n: int, element: Callable) -> FormalSum:
    """Theta's degree-(n-1) part with ``element(k, I)`` in place of each
    diagonal minor element: minus the sum over i != j of the edge (i,j)
    followed by element(n-2, {i,j}), minus the sum of element(n-1, {i})."""
    vertices = range(1, n + 1)
    edges = [(i, j) for i in vertices for j in vertices if i != j]
    return _prefixed(n, n - 1, [(-1, (e,), element(n - 2, e)) for e in edges]
                     + [(-1, (), element(n - 1, (i,))) for i in vertices])


def _prefixed(n: int, k: int, parts) -> FormalSum:
    """The directed degree-k sum, over each (c, prefix, s) of parts, of c
    times the edge sequence prefix followed by s: every numbered graph seq
    of s, with coefficient x, adds c * x under prefix + seq.  No graph
    object is built."""
    terms: dict = {}
    for c, prefix, s in parts:
        _accumulate(terms, ((prefix + seq, c * x) for seq, x in s._numbered(s._terms)))
    return FormalSum._wrap(n, k, terms)


def forget_sum(s: FormalSum) -> FormalSum:
    """Linear extension of orientation-forgetting; distinct directed graphs
    may merge onto one undirected graph."""
    return s.map_graphs(forget, UndirectedGraph)


# ---------------------------------------------------------------------------
# Text format: header "FS n k" (directed) or "FSU n k" (undirected), then one
# term per line as "p/q | a1 b1 ; a2 b2 ; ... ; ak bk", sorted by edge
# sequence.  A zero sum is just the header.


def format_formal_sum(s) -> str:
    kind = "FSU" if s.kind is UndirectedGraph else "FS"
    lines = [f"{kind} {s.n} {s.k}"]
    for seq, c in s._items():
        edges = " ; ".join(f"{a} {b}" for a, b in seq)
        line = f"{c.numerator}/{c.denominator} |"
        lines.append(f"{line} {edges}" if edges else line)
    return "\n".join(lines) + "\n"


def parse_formal_sum(text: str) -> FormalSum:
    tag, n, k, _, body = _read_header(text, ("FS", "FSU"), "formal-sum")
    cls = DirectedGraph if tag == "FS" else UndirectedGraph
    terms = []
    for no, line in body:
        if "|" not in line:
            raise GraphFormatError(f"expected 'p/q | edges', got {line!r}", no)
        coeff_part, _, edges_part = line.partition("|")
        try:
            c = _read_number(coeff_part.strip(), rational=True)
        except (ValueError, ZeroDivisionError):
            raise GraphFormatError(f"bad coefficient {coeff_part.strip()!r}", no)
        chunks = edges_part.split(";") if edges_part.strip() else []
        edges = tuple(_read_edge(n, chunk.strip(), no) for chunk in chunks)
        if len(edges) != k:
            raise GraphFormatError(f"term has {len(edges)} edges, expected {k}", no)
        terms.append((cls(n, edges), c))
    return FormalSum(n, k, _accumulate({}, terms), cls)
