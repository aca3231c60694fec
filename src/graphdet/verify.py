"""Executable checks of the graph-algebra identities, exhaustive at desk scale.

Every check enumerates its whole domain (all graphs of the given size, all
vertex subsets, fully symbolic weight matrices) and compares exact rational
data; there is no sampling and no tolerance.  A handful of statements come
out of the desk derivations with a sign opposite to their classical
phrasing; those checks probe for the uniform sign instead of failing, report
it, and also record whether the literal phrasing happens to hold.

Reports are deterministic: every check runs serially in one process, and
the failure lists are ordered by enumeration index, so two runs differ in no
payload field except the elapsed time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial

from .algebra import (
    FormalSum,
    SymmetricSum,
    _alpha_sigma,
    _theta_low,
    class_sum,
    concat_product,
    pairing,
    theta,
    universal_codim1,
    universal_det,
)
from .graphs import (
    CapExceeded,
    DirectedGraph,
    UndirectedGraph,
    _beta0,
    _classify_key,
    _vertex,
    check_cap,
    check_shape,
    classify,
    directed_edge_types,
    subset_positions,
    undirected_edge_types,
)
from .laplace import b_op, laplace
from .poly import MultiPoly, WeightMatrix, laplace_matrix, minor, w
from .potts import _orientation_counts, _potts_sum, _subset_counts, shave, universal_potts

EXPECTED_SIGNS = {"expansion": -1, "derivative": -1}


@dataclass
class VerificationReport:
    check: str
    params: dict
    status: str  # "pass" | "fail" | "pass_with_sign" | "skipped"
    sign: int | None
    total_cases: int
    failures: list[dict]
    elapsed_ms: int
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Pass, or pass with the derived expected sign (an all-zero probe
        reports sign None and counts as compatible)."""
        if self.status == "pass":
            return True
        if self.status == "pass_with_sign":
            want = EXPECTED_SIGNS.get(self.check)
            return self.sign is None or want is None or self.sign == want
        return False

    @property
    def vacuous(self) -> bool:
        """The check ran but compared nothing: not skipped, and no case."""
        return self.status != "skipped" and self.total_cases == 0

    def to_json_dict(self) -> dict:
        """Every field but the notes, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "notes"}

    def human(self, max_failures: int = 20) -> str:
        ptxt = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"[{self.status}] {self.check} {ptxt} cases={self.total_cases}"
        if self.vacuous:
            head += " (nothing compared)"
        if self.sign is not None:
            head += f" sign={self.sign:+d}"
        head += f" elapsed={self.elapsed_ms}ms"
        lines = [head]
        lines.extend(f"    note: {n}" for n in self.notes)
        for f in self.failures[:max_failures]:
            lines.append(
                f"    FAIL graph={f['graph']} expected={f['expected']}"
                f" actual={f['actual']}"
            )
        if len(self.failures) > max_failures:
            lines.append(f"    ... and {len(self.failures) - max_failures} more")
        return "\n".join(lines)


def _frac_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return str(x)


def _failure(edges, expected, actual) -> dict:
    return {
        "graph": [list(e) for e in edges],
        "expected": _frac_str(expected),
        "actual": _frac_str(actual),
    }


def _sum_diff(actual, expected) -> tuple[list[dict], int]:
    """Per-graph coefficient mismatches, ordered by edge sequence, and the
    number of numbered graphs in the union of the two supports."""
    mismatches, compared = actual.diff(expected)
    return [_failure(edges, e, a) for edges, a, e in mismatches], compared


def _poly_failure(expected: MultiPoly, actual: MultiPoly, label="") -> dict:
    return {
        "graph": [],
        "expected": (f"{label}: " if label else "") + str(expected),
        "actual": str(actual),
    }


def _report(check, params, failures, total, t0, sign=None, notes=(), status=None):
    if status is None:
        status = "pass" if not failures else "fail"
    return VerificationReport(
        check=check,
        params=params,
        status=status,
        sign=sign,
        total_cases=total,
        failures=failures,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Whole-domain enumeration.  The identities depend on a graph only through
# its edge multiset, so their case functions run once per multiset and a
# mismatch is reported for every ordering of it; only the position-operator
# laws, which act on edge numbers, run on every sequence.


def _enumerate(
    check, case, n, k, per_case, cap, edge_types=directed_edge_types, numbered=None
) -> VerificationReport:
    """Run ``case(n, k, multiset)``, which returns None or the (expected,
    actual) pair of a mismatch, once on every k-edge multiset over
    ``edge_types(n)``, and the per-sequence law ``numbered``, if given, on
    every edge sequence.  Failures are listed per edge sequence in
    lexicographic order, a sequence's own law first; the cap counts
    ``per_case`` units per sequence."""
    check_shape(n, k)
    t0 = time.perf_counter()
    etypes = edge_types(n)
    total = len(etypes) ** k
    check_cap(total * per_case, cap)
    by_multiset = {m: case(n, k, m) for m in combinations_with_replacement(etypes, k)}
    failures = []
    if numbered is not None or any(by_multiset.values()):
        for seq in product(etypes, repeat=k):
            bad = (numbered and numbered(n, k, seq)) or by_multiset[tuple(sorted(seq))]
            if bad is not None:
                failures.append(_failure(seq, *bad))
    return _report(check, {"n": n, "k": k}, failures, total, t0)


@lru_cache(maxsize=None)
def _matrices(n: int) -> tuple[WeightMatrix, WeightMatrix]:
    """The symbolic weight matrix and its zero-row-sum companion."""
    W = WeightMatrix.symbolic(n)
    return W, laplace_matrix(W)


def _subset_signs(n: int, k: int, edges: tuple) -> tuple[tuple, tuple]:
    """The acyclicity sign alpha and the semiconnectivity sign sigma of the
    subgraph each of the 2^k position subsets keeps, in bit-mask order; the
    last entry is the whole graph."""
    alpha, sigma = zip(*(
        _alpha_sigma(_classify_key(n, tuple(sorted(edges[p] for p in pos))), len(pos))
        for pos in subset_positions(k)
    ))
    return alpha, sigma


def _first_mismatch(checks):
    return next(((want, got) for want, got in checks if want != got), None)


def _direct_case(n, k, edges):
    alpha, sigma = _subset_signs(n, k, edges)
    return _first_mismatch([((-1) ** k * sigma[-1], sum(alpha))])


def _direct_prime_case(n, k, edges):
    alpha, sigma = _subset_signs(n, k, edges)
    return _first_mismatch([((-1) ** k * alpha[-1], sum(sigma))])


def verify_direct(n: int, k: int, cap=None) -> VerificationReport:
    """Sum of the acyclicity sign over all subgraphs against the
    semiconnectivity sign of the whole graph, for every (n,k) graph."""
    return _enumerate("direct", _direct_case, n, k, 2 ** k, cap)


def verify_direct_prime(n: int, k: int, cap=None) -> VerificationReport:
    """The companion identity with the two graph signs exchanged."""
    return _enumerate("direct_prime", _direct_prime_case, n, k, 2 ** k, cap)


def _mobius_case(n, k, edges):
    alpha, sigma = _subset_signs(n, k, edges)
    return _first_mismatch([
        (sigma[-1], (-1) ** k * sum(alpha)),
        (alpha[-1], (-1) ** k * sum(sigma)),
    ])


def verify_mobius_equiv(n: int, k: int, cap=None) -> VerificationReport:
    """Both subgraph-sum identities read off one sign table per graph: each
    whole-graph sign is (-1)^k times the subgraph sum of the other."""
    return _enumerate("mobius", _mobius_case, n, k, 2 ** k, cap)


def _acyclic_image(n: int, k: int, I, cap) -> SymmetricSum:
    """The theorem's right side: (-1)^n / k! times the plain sum of the
    acyclic graphs with sink set I, the Laplace image of a minor element."""
    return Fraction((-1) ** n, factorial(k)) * class_sum(n, k, "AC", I, cap=cap)


def _image_report(check, params, element, I, cap, t0) -> VerificationReport:
    """Laplace image of a minor element against the acyclic graphs with
    sink set I, as exact formal sums."""
    lhs = laplace(element)
    failures, total = _sum_diff(lhs, _acyclic_image(element.n, element.k, I, cap))
    return _report(check, params, failures, total, t0)


def verify_diag(n: int, k: int, I=(), cap=None) -> VerificationReport:
    """Laplace image of the diagonal minor element against the plain sum of
    acyclic graphs with sink set I."""
    t0 = time.perf_counter()
    iso = frozenset(I)
    element = universal_det(n, k, iso, cap=cap)
    return _image_report("diag", {"n": n, "k": k, "I": sorted(iso)}, element, iso, cap, t0)


def verify_codim1(n: int, k: int, i: int, j: int, cap=None) -> VerificationReport:
    """Laplace image of the (i,j)-minor element against the acyclic graphs
    whose only sink is i."""
    t0 = time.perf_counter()
    element = universal_codim1(n, k, i, j, cap=cap)
    return _image_report("codim1", {"n": n, "k": k, "i": i, "j": j}, element, (i,), cap, t0)


def _probe_sign(lhs, rhs_of_sign) -> dict:
    """Find s in {+1,-1} with lhs == rhs(s): the status, sign and notes of
    the report, the note recording the s=+1 outcome.  Both signs matching
    means both sides vanish and any s is compatible (sign None)."""
    plus = lhs == rhs_of_sign(1)
    minus = lhs == rhs_of_sign(-1)
    return {
        "status": "pass_with_sign" if plus or minus else "fail",
        "sign": None if plus == minus else 1 if plus else -1,
        "notes": (f"literal (+1) phrasing holds: {plus}",),
    }


def verify_expansion(n: int, k: int, cap=None) -> VerificationReport:
    """Sign-probed row/column expansion: the degree-k determinant element
    against (1/k) times the sum of edge-augmented degree-(k-1) minors."""
    if k < 1:
        raise ValueError("need k >= 1")
    t0 = time.perf_counter()
    check_cap((n * n) ** k, cap)  # both sides are compared as numbered graphs
    lhs = universal_det(n, k, (), cap=cap).expand(cap)
    total_sum = FormalSum.zero(n, k)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            edge = FormalSum.single(DirectedGraph(n, ((i, j),)))
            total_sum = total_sum + concat_product(
                edge, universal_codim1(n, k - 1, i, j, cap=cap).expand(cap)
            )
    rhs_base = Fraction(1, k) * total_sum
    probe = _probe_sign(lhs, lambda s: s * rhs_base)
    failures, total = _sum_diff(lhs, -rhs_base)
    if probe["status"] != "fail":
        failures = []
    return _report("expansion", {"n": n, "k": k}, failures, total, t0, **probe)


def verify_derivative(n: int, k: int, i: int, m: int, cap=None) -> VerificationReport:
    """Sign-probed diagonal-derivative law: the m-fold partial derivative of
    the paired determinant in w[i,i] against s^m times the paired sum of the
    two smaller determinant elements."""
    _vertex(n, i)
    if not (1 <= m <= k):
        raise ValueError("need 1 <= m <= k")
    t0 = time.perf_counter()
    W = WeightMatrix.symbolic(n)
    lhs = pairing(W, universal_det(n, k, (), cap=cap)).derivative(w(i, i), m)
    bracket = pairing(
        W, universal_det(n, k - m, (), cap=cap) + universal_det(n, k - m, (i,), cap=cap)
    )
    probe = _probe_sign(lhs, lambda s: s ** m * bracket)
    failures = []
    if probe["status"] == "fail":
        failures = [_poly_failure((-1) ** m * bracket, lhs)]
    total = len(lhs.terms()) + len(bracket.terms())
    params = {"n": n, "k": k, "i": i, "m": m}
    return _report("derivative", params, failures, total, t0, **probe)


def _minor_cases(n: int, cap):
    """(label, element, rows, cols, sign) for every diagonal I-minor and
    every (i,j) minor: the pairing law says pairing(W, element) equals sign
    times the minor of W without those rows and columns."""
    for size in range(n + 1):
        for I in combinations(range(1, n + 1), size):
            yield (f"I={sorted(I)}", universal_det(n, n - size, I, cap=cap),
                   I, I, (-1) ** size)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            yield (f"i/j={i}/{j}", universal_codim1(n, n - 1, i, j, cap=cap),
                   {i}, {j}, (-1) ** (i + j + 1))


def verify_minor_pairing(n: int, cap=None) -> VerificationReport:
    """Signed pairing laws: the paired diagonal I-minor element equals
    (-1)^|I| times the matrix minor, and the paired (i,j) element equals
    (-1)^(i+j+1) times the (i,j) matrix minor, fully symbolically."""
    t0 = time.perf_counter()
    W = WeightMatrix.symbolic(n)
    failures = []
    literal_all = True
    cases = 0
    for label, element, rows, cols, sign in _minor_cases(n, cap):
        cases += 1
        lhs = pairing(W, element)
        mnr = minor(W, rows, cols)
        rhs = sign * mnr
        if lhs != rhs:
            failures.append(_poly_failure(rhs, lhs, label=label))
        if lhs != mnr:
            literal_all = False
    notes = (f"literal unsigned phrasing holds in every case: {literal_all}",)
    return _report("minor_pairing", {"n": n}, failures, cases, t0, notes=notes)


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


def verify_kirchhoff_diag(n: int, I, cap=None) -> VerificationReport:
    """Classical diagonal-minor law for the zero-row-sum matrix, against the
    forest sum produced both by the graph-class enumeration and by the
    independent functional forest oracle."""
    iso = frozenset(I)
    if not iso:
        raise ValueError("need a nonempty vertex set")
    t0 = time.perf_counter()
    s = len(iso)
    k = n - s
    W, Wh = _matrices(n)
    ac = class_sum(n, k, "AC", iso, cap=cap)
    forests = Fraction(1, factorial(k)) * pairing(W, ac)
    failures = []
    lhs = minor(Wh, iso, iso)
    rhs = (-1) ** k * forests
    if lhs != rhs:
        failures.append(_poly_failure(rhs, lhs, label="minor-law"))
    oracle = rooted_forest_poly(n, iso)
    if forests != oracle:
        failures.append(_poly_failure(oracle, forests, label="forest-oracle"))
    notes = []
    if s == 1:
        expected_count = n ** (n - 2) * factorial(n - 1) if n >= 2 else 1
        got = len(ac)
        notes.append(f"tree count {got} vs Cayley {expected_count}")
        if got != expected_count:
            failures.append(_failure((), expected_count, got))
    return _report(
        "kirchhoff_diag", {"n": n, "I": sorted(iso)}, failures, 2 + (s == 1), t0,
        notes=notes,
    )


def verify_kirchhoff_codim1(n: int, i: int, j: int, cap=None) -> VerificationReport:
    """Off-diagonal minor of the zero-row-sum matrix against the sum over
    trees directed towards vertex i, with the derived sign (-1)^(i+j+n-1);
    also records whether the classical (-1)^(n-1) phrasing holds."""
    _vertex(n, i)
    _vertex(n, j)
    if i == j:
        raise ValueError("need i != j")
    t0 = time.perf_counter()
    check_cap(n ** (n - 1), cap)  # the oracle's head functions
    W, Wh = _matrices(n)
    trees = rooted_forest_poly(n, {i})
    lhs = minor(Wh, {i}, {j})
    rhs = (-1) ** (i + j + n - 1) * trees
    failures = []
    if lhs != rhs:
        failures.append(_poly_failure(rhs, lhs))
    literal = lhs == (-1) ** (n - 1) * trees
    notes = (
        f"literal (-1)^(n-1) phrasing holds: {literal} (expected iff i+j even)",
    )
    return _report(
        "kirchhoff_codim1", {"n": n, "i": i, "j": j}, failures, 1, t0, notes=notes
    )


def _specval_case(n, k, edges):
    u = UndirectedGraph(n, edges)
    sign = (-1) ** _beta0(n, edges)
    loops = sum(1 for a, b in edges if a == b)
    ssc_count, ac_count = _orientation_counts(u, None)
    counts = _subset_counts(u, None)
    z_m1_1 = _potts_sum(counts, -1, 1)
    shaved = _potts_sum(_subset_counts(shave(u), None), -1, 1) if loops else z_m1_1
    return _first_mismatch([
        (sign * 2 ** loops * ssc_count, z_m1_1),
        ((-1) ** n * ac_count, _potts_sum(counts, -1, -1)),
        (ssc_count, sign * shaved),
    ])


def verify_specval(n: int, k: int, cap=None) -> VerificationReport:
    """Partition-function special values against brute-force orientation
    counts, plus the loop-shaving corollary, over every undirected graph."""
    return _enumerate(
        "specval", _specval_case, n, k, 2 ** k * 2, cap, undirected_edge_types
    )


def verify_lapl_tutte(n: int, k: int, cap=None) -> VerificationReport:
    """Laplace image of the shaved universal partition-function element at
    (-1,1) against (-1)^k times the plain element at (-1,-1), and loop-free
    support of both sides."""
    t0 = time.perf_counter()
    lhs = laplace(universal_potts(n, k, -1, 1, shaved=True, cap=cap))
    rhs = (-1) ** k * universal_potts(n, k, -1, -1, shaved=False, cap=cap)
    failures, _ = _sum_diff(lhs, rhs)
    for side in (lhs, rhs):
        looped = side._like({
            key: c for key, c in side._terms.items() if any(a == b for a, b in key)
        }, side.kind)
        failures.extend(_sum_diff(looped, looped.scale(0))[0])
    total = (n * (n + 1) // 2) ** k
    return _report("lapl_tutte", {"n": n, "k": k}, failures, total, t0)


def verify_theta(n: int, cap=None) -> VerificationReport:
    """The asserted graded identity: Laplace image of the mixed-degree
    element equals -2 times the sum of ALL (n-1)-edge acyclic graphs, with a
    vanishing top part.

    The top part always vanishes, and the identity holds at n=2; for n >= 3
    every right-hand-side graph mismatches and the check reports ``fail``.
    By the diagonal-minor theorem the coefficient of an (n-1)-edge graph G
    in the image is 0 unless G is acyclic with exactly one sink s (a
    spanning tree directed to s), and then it is
    -(-1)^n * (1/(n-1)! + [head of edge 1 is s] / (n-2)!), never -2 for
    n >= 3.  The notes record two derived identities that do hold: the
    componentwise Laplace image implied by the diagonal-minor theorem, and
    the symbolic minor-sum law for the pairing with the zero-row-sum matrix.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t0 = time.perf_counter()
    th = theta(n, cap=cap)
    hi, lo = laplace(th.part(n + 1)), laplace(th.part(n - 1))
    failures = []
    if not hi.is_zero:
        failures.extend(_sum_diff(hi, SymmetricSum.zero(n, n + 1))[0])
    expected_low = -2 * class_sum(n, n - 1, "AC", None, cap=cap)
    low_failures, total = _sum_diff(lo, expected_low)
    failures.extend(low_failures)

    notes = [f"top-degree part vanishes: {hi.is_zero}"]

    # Derived identity actually satisfied by the Laplace image: theta's low
    # part with each diagonal minor element replaced by its Laplace image.
    derived = _theta_low(n, lambda k, I: _acyclic_image(n, k, I, cap))
    notes.append(f"derived componentwise image holds: {lo == derived}")

    # Pairing consequence with the symbolic zero-row-sum matrix.
    W, Wh = _matrices(n)
    paired = MultiPoly.zero()
    for deg in th.degrees():
        paired = paired + pairing(Wh, th.part(deg))
    law = MultiPoly.zero()
    for i in range(1, n + 1):
        law = law + minor(Wh, {i}, {i})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                law = law - MultiPoly.variable(w(i, j)) * minor(Wh, {i, j}, {i, j})
    notes.append(f"diagonal minor-sum pairing law holds: {paired == law}")

    return _report("theta", {"n": n}, failures, total, t0, notes=notes)


# ---------------------------------------------------------------------------
# The operator laws.  The position operators act on edge numbers, so their
# laws run on every numbered graph; the Laplace, support and pairing laws
# ignore the numbering and run once per edge multiset.


def _position_laws(n, k, edges):
    """The first position-operator law the numbered graph violates, as the
    (expected, actual) pair of its failure, or None: each b_p is idempotent,
    and every two of them commute."""
    s = FormalSum.single(DirectedGraph(n, edges))
    singles = [b_op(p, s) for p in range(1, k + 1)]
    for p in range(1, k + 1):
        if b_op(p, singles[p - 1]) != singles[p - 1]:
            return "law:idempotent", "violated"
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            if b_op(q, singles[p - 1]) != b_op(p, singles[q - 1]):
                return "law:commute", "violated"
    return None


def _multiset_laws(n, k, multiset):
    """The first numbering-free law the graph violates, as the (expected,
    actual) pair of its failure, or None: the Laplace operator is
    idempotent, its image is loop-free with the graph's sinks, and pairing
    with the zero-row-sum matrix factors through it."""
    W, Wh = _matrices(n)
    g = DirectedGraph(n, multiset)
    s = FormalSum.single(g)
    ds = laplace(s)
    if laplace(ds) != ds:
        return "law:laplace-idempotent", "violated"
    gsinks = classify(g).sinks
    for h in ds.support():
        ch = classify(h)
        if ch.loop_count or ch.sinks != gsinks:
            return "law:support", "violated"
    if pairing(Wh, s) != pairing(W, ds):
        return "law:pairing", "violated"
    return None


def verify_operator_laws(n: int, k: int, cap=None) -> VerificationReport:
    """Position operators are commuting idempotents, the Laplace operator is
    idempotent with loop-free sink-preserving output, and pairing with the
    zero-row-sum matrix factors through it; on the full graph basis.  A graph
    violating a position law is reported under that law's name."""
    return _enumerate(
        "operator_laws", _multiset_laws, n, k, k * k + 2, cap, numbered=_position_laws
    )


# ---------------------------------------------------------------------------
# The whole desk-scale grid.

CHECK_FUNCTIONS = {
    "direct": verify_direct,
    "direct_prime": verify_direct_prime,
    "mobius": verify_mobius_equiv,
    "diag": verify_diag,
    "codim1": verify_codim1,
    "expansion": verify_expansion,
    "derivative": verify_derivative,
    "minor_pairing": verify_minor_pairing,
    "kirchhoff_diag": verify_kirchhoff_diag,
    "kirchhoff_codim1": verify_kirchhoff_codim1,
    "specval": verify_specval,
    "lapl_tutte": verify_lapl_tutte,
    "theta": verify_theta,
    "operator_laws": verify_operator_laws,
}


@dataclass
class SuiteConfig:
    max_n: int = 3
    max_k: int = 4
    jobs: int = 1  # validated, but every cell runs serially
    cap: int | None = None

    def __post_init__(self):
        if self.max_n < 1 or self.max_k < 0 or self.jobs < 1:
            raise ValueError("need max_n >= 1, max_k >= 0, jobs >= 1")


def suite_cells(config: SuiteConfig) -> list[tuple[str, dict]]:
    """The deterministic list of (check, params) cells the suite runs."""
    cells: list[tuple[str, dict]] = []
    for n in range(1, config.max_n + 1):
        for k in range(config.max_k + 1):
            cells.append(("direct", {"n": n, "k": k}))
            cells.append(("direct_prime", {"n": n, "k": k}))
            cells.append(("mobius", {"n": n, "k": k}))
            cells.append(("operator_laws", {"n": n, "k": k}))
            for size in range(n + 1):
                for I in combinations(range(1, n + 1), size):
                    cells.append(("diag", {"n": n, "k": k, "I": list(I)}))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    cells.append(("codim1", {"n": n, "k": k, "i": i, "j": j}))
            if k >= 1:
                cells.append(("expansion", {"n": n, "k": k}))
                for i in range(1, n + 1):
                    for m in range(1, k + 1):
                        cells.append(("derivative", {"n": n, "k": k, "i": i, "m": m}))
            cells.append(("specval", {"n": n, "k": k}))
            cells.append(("lapl_tutte", {"n": n, "k": k}))
        if n <= 4:
            cells.append(("minor_pairing", {"n": n}))
        if n <= 5:
            for size in range(1, n + 1):
                for I in combinations(range(1, n + 1), size):
                    cells.append(("kirchhoff_diag", {"n": n, "I": list(I)}))
        if n <= 4:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        cells.append(("kirchhoff_codim1", {"n": n, "i": i, "j": j}))
        if 2 <= n <= 4:
            cells.append(("theta", {"n": n}))
    return cells


def run_check(name: str, params: dict, cap=None, jobs: int = 1) -> VerificationReport:
    """Run one check.  Every check runs serially in this process; ``jobs``
    is accepted for callers that pass a worker count and has no effect."""
    fn = CHECK_FUNCTIONS.get(name)
    if fn is None:
        raise KeyError(f"unknown check {name!r}")
    return fn(**params, cap=cap)


def run_suite(config: SuiteConfig) -> list[VerificationReport]:
    """Run every grid cell; cells whose enumeration exceeds the cap are
    reported as skipped rather than failed."""
    reports = []
    for name, params in suite_cells(config):
        try:
            reports.append(run_check(name, params, cap=config.cap))
        except CapExceeded:
            reports.append(
                _report(name, params, [], 0, time.perf_counter(), status="skipped")
            )
    return reports
