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

import inspect
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, combinations_with_replacement, product
from math import factorial

from .algebra import (
    FormalSum,
    SymmetricSum,
    _prefixed,
    _theta_low,
    class_sum,
    numbered,
    pairing,
    theta,
    universal_codim1,
    universal_det,
)
from .graphs import (
    CapExceeded,
    GraphClassification,
    _beta0,
    _classify_key,
    _vertex,
    check_cap,
    check_shape,
    directed_edge_types,
    subset_positions,
    undirected_edge_types,
)
from .laplace import b_op, laplace
from .oracles import rooted_forest_poly
from .poly import MultiPoly, WeightMatrix, laplace_matrix, minor, w
from .potts import _orientation_counts, _potts_sum, _shaved, _subset_table, universal_potts

EXPECTED_SIGNS = {"expansion": -1, "derivative": -1}
_FAILURES_SHOWN = 20


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

    def human(self) -> str:
        ptxt = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"[{self.status}] {self.check} {ptxt} cases={self.total_cases}"
        if self.vacuous:
            head += " (nothing compared)"
        if self.sign is not None:
            head += f" sign={self.sign:+d}"
        head += f" elapsed={self.elapsed_ms}ms"
        lines = [head]
        lines.extend(f"    note: {n}" for n in self.notes)
        for f in self.failures[:_FAILURES_SHOWN]:
            lines.append(
                f"    FAIL graph={f['graph']} expected={f['expected']}"
                f" actual={f['actual']}"
            )
        if len(self.failures) > _FAILURES_SHOWN:
            lines.append(f"    ... and {len(self.failures) - _FAILURES_SHOWN} more")
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


CHECK_FUNCTIONS: dict = {}  # check name -> check, filled by @_check


def _check(name: str):
    """Register the decorated body as the check ``name``.  The body returns
    (failures, total_cases), and may add a dict with any of status, sign and
    notes.  The wrapper reads a vertex set I into a tuple, so an iterator
    reaches the body whole, times the body alone and builds the report: its
    params are the call's arguments but ``cap``, with I as a sorted list, and
    its status is "fail" if anything failed, else "pass", unless given."""

    def register(body):
        sig = inspect.signature(body)

        @wraps(body)
        def check(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            given = call.arguments
            if "I" in given:
                given["I"] = tuple(given["I"])
            t0 = time.perf_counter()
            failures, total, *more = body(*call.args, **call.kwargs)
            elapsed_ms = int((time.perf_counter() - t0) * 1000)
            info = more[0] if more else {}
            params = {p: sorted(set(v)) if p == "I" else v
                      for p, v in given.items() if p != "cap"}
            return VerificationReport(
                name, params, info.get("status", "fail" if failures else "pass"),
                info.get("sign"), total, failures, elapsed_ms, tuple(info.get("notes", ())),
            )

        check.__signature__ = sig.replace(return_annotation="VerificationReport")
        CHECK_FUNCTIONS[name] = check
        return check

    return register


# ---------------------------------------------------------------------------
# Whole-domain enumeration.  The identities depend on a graph only through
# its edge multiset, so their case functions run once per multiset and a
# mismatch is reported for every ordering of it; only the position-operator
# laws, which act on edge numbers, run on every sequence.


def _enumerate(case, n, k, per_case, cap, edge_types=directed_edge_types,
               per_sequence=None):
    """Run ``case(n, k, multiset)``, which returns None or the (expected,
    actual) pair of a mismatch, once on every k-edge multiset over
    ``edge_types(n)``, and the law ``per_sequence``, if given, on every edge
    sequence.  Failures are listed per edge sequence in lexicographic order,
    a sequence's own law first.  With that law every sequence is walked,
    through ``itertools.product``; without it ``numbered`` lists the
    numberings of the failing multisets only.  The cap counts ``per_case``
    units per sequence.  Returns the failures and the number of sequences."""
    check_shape(n, k)
    etypes = edge_types(n)
    total = len(etypes) ** k
    check_cap(total * per_case, cap)
    by_multiset = {m: case(n, k, m) for m in combinations_with_replacement(etypes, k)}
    if per_sequence is None:
        walk = numbered({m: bad for m, bad in by_multiset.items() if bad is not None})
    else:
        walk = ((seq, per_sequence(n, k, seq) or by_multiset[tuple(sorted(seq))])
                for seq in product(etypes, repeat=k))
    return [_failure(seq, *bad) for seq, bad in walk if bad is not None], total


@lru_cache(maxsize=None)
def _matrices(n: int) -> tuple[WeightMatrix, WeightMatrix]:
    """The symbolic weight matrix and its zero-row-sum companion."""
    W = WeightMatrix.symbolic(n)
    return W, laplace_matrix(W)


def _alpha_sigma(c: GraphClassification, k: int) -> tuple[int, int]:
    """The acyclicity sign alpha, (-1)^k on acyclic graphs and 0 otherwise,
    and the semiconnectivity sign sigma, (-1)^beta1 on strongly
    semiconnected graphs and 0 otherwise, of a graph with k edges and
    classification c."""
    return (
        (-1) ** k if c.acyclic else 0,
        (-1) ** c.beta1 if c.strongly_semiconnected else 0,
    )


@lru_cache(maxsize=None)
def _subset_signs(n: int, edges: tuple) -> tuple[tuple, tuple]:
    """The acyclicity sign alpha and the semiconnectivity sign sigma of the
    subgraph each of the 2^k bit masks keeps of the sorted edges, in mask
    order, as ``graphs.subset_positions`` lists them; the last entry is the
    whole graph.  Callers sort, so a multiset has one entry, and each key
    comes sorted."""
    keys = (tuple(edges[p] for p in pos) for pos in subset_positions(len(edges)))
    alpha, sigma = zip(*(_alpha_sigma(_classify_key(n, key), len(key)) for key in keys))
    return alpha, sigma


def _first_mismatch(checks):
    return next(((want, got) for want, got in checks if want != got), None)


def _direct_case(n, k, edges):
    alpha, sigma = _subset_signs(n, tuple(sorted(edges)))
    return _first_mismatch([((-1) ** k * sigma[-1], sum(alpha))])


def _direct_prime_case(n, k, edges):
    alpha, sigma = _subset_signs(n, tuple(sorted(edges)))
    return _first_mismatch([((-1) ** k * alpha[-1], sum(sigma))])


@_check("direct")
def verify_direct(n: int, k: int, cap=None):
    """Sum of the acyclicity sign over all subgraphs against the
    semiconnectivity sign of the whole graph, for every (n,k) graph."""
    return _enumerate(_direct_case, n, k, 2 ** k, cap)


@_check("direct_prime")
def verify_direct_prime(n: int, k: int, cap=None):
    """The companion identity with the two graph signs exchanged."""
    return _enumerate(_direct_prime_case, n, k, 2 ** k, cap)


def _mobius_case(n, k, edges):
    alpha, sigma = _subset_signs(n, tuple(sorted(edges)))
    return _first_mismatch([
        (sigma[-1], (-1) ** k * sum(alpha)),
        (alpha[-1], (-1) ** k * sum(sigma)),
    ])


@_check("mobius")
def verify_mobius_equiv(n: int, k: int, cap=None):
    """Both subgraph-sum identities read off one sign table per graph: each
    whole-graph sign is (-1)^k times the subgraph sum of the other."""
    return _enumerate(_mobius_case, n, k, 2 ** k, cap)


def _acyclic_image(n: int, k: int, I, cap) -> SymmetricSum:
    """The theorem's right side: (-1)^n / k! times the plain sum of the
    acyclic graphs with sink set I, the Laplace image of a minor element."""
    return Fraction((-1) ** n, factorial(k)) * class_sum(n, k, "AC", I, cap=cap)


@_check("diag")
def verify_diag(n: int, k: int, I=(), cap=None):
    """Laplace image of the diagonal minor element against the plain sum of
    acyclic graphs with sink set I."""
    return _sum_diff(laplace(universal_det(n, k, I, cap=cap)), _acyclic_image(n, k, I, cap))


@_check("codim1")
def verify_codim1(n: int, k: int, i: int, j: int, cap=None):
    """Laplace image of the (i,j)-minor element against the acyclic graphs
    whose only sink is i."""
    element = universal_codim1(n, k, i, j, cap=cap)
    return _sum_diff(laplace(element), _acyclic_image(n, k, (i,), cap))


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


@_check("expansion")
def verify_expansion(n: int, k: int, cap=None):
    """Sign-probed row/column expansion: the degree-k determinant element
    against (1/k) times the sum of edge-augmented degree-(k-1) minors."""
    if k < 1:
        raise ValueError("need k >= 1")
    check_cap((n * n) ** k, cap)  # both sides are compared as numbered graphs
    lhs = universal_det(n, k, (), cap=cap).expand(cap)
    rhs_base = _prefixed(n, k, [
        (Fraction(1, k), ((i, j),), universal_codim1(n, k - 1, i, j, cap=cap))
        for i in range(1, n + 1) for j in range(1, n + 1)
    ])
    probe = _probe_sign(lhs, lambda s: s * rhs_base)
    failures, total = _sum_diff(lhs, -rhs_base)
    if probe["status"] != "fail":
        failures = []
    return failures, total, probe


@lru_cache(maxsize=None)
def _paired_det(n: int, k: int, I: tuple, cap) -> MultiPoly:
    """The determinant element paired with the symbolic matrix; pairing is
    linear, so a sum of elements pairs to the sum of these."""
    W, _ = _matrices(n)
    return pairing(W, universal_det(n, k, I, cap=cap))


@_check("derivative")
def verify_derivative(n: int, k: int, i: int, m: int, cap=None):
    """Sign-probed diagonal-derivative law: the m-fold partial derivative of
    the paired determinant in w[i,i] against s^m times the paired sum of the
    two smaller determinant elements."""
    _vertex(n, i)
    if type(m) is not int or not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    lhs = _paired_det(n, k, (), cap).derivative(w(i, i), m)
    bracket = _paired_det(n, k - m, (), cap) + _paired_det(n, k - m, (i,), cap)
    probe = _probe_sign(lhs, lambda s: s ** m * bracket)
    failures = []
    if probe["status"] == "fail":
        failures = [_poly_failure((-1) ** m * bracket, lhs)]
    return failures, len(lhs.terms()) + len(bracket.terms()), probe


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


@_check("minor_pairing")
def verify_minor_pairing(n: int, cap=None):
    """Signed pairing laws: the paired diagonal I-minor element equals
    (-1)^|I| times the matrix minor, and the paired (i,j) element equals
    (-1)^(i+j+1) times the (i,j) matrix minor, fully symbolically."""
    check_shape(n, 0)
    W, _ = _matrices(n)
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
    return failures, cases, {"notes": notes}


@_check("kirchhoff_diag")
def verify_kirchhoff_diag(n: int, I, cap=None):
    """Classical diagonal-minor law for the zero-row-sum matrix, against the
    forest sum produced both by the graph-class enumeration and by the
    independent functional forest oracle."""
    iso = frozenset(I)
    if not iso:
        raise ValueError("need a nonempty vertex set")
    check_shape(n, 0)
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
    return failures, 2 + (s == 1), {"notes": notes}


@_check("kirchhoff_codim1")
def verify_kirchhoff_codim1(n: int, i: int, j: int, cap=None):
    """Off-diagonal minor of the zero-row-sum matrix against the sum over
    trees directed towards vertex i, with the derived sign (-1)^(i+j+n-1);
    also records whether the classical (-1)^(n-1) phrasing holds."""
    _vertex(n, i)
    _vertex(n, j)
    if i == j:
        raise ValueError("need i != j")
    check_shape(n, 0)
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
    return failures, 1, {"notes": notes}


def _specval_case(n, k, edges):
    """Both special values of an undirected multiset, sorted here, against
    its orientation counts; no graph is built, and the walk checks the cap."""
    edges = tuple(sorted(edges))
    sign = (-1) ** _beta0(n, edges)
    loop_free = _shaved(edges)
    loops = k - len(loop_free)
    ssc_count, ac_count = _orientation_counts(n, edges)
    counts = _subset_table(n, edges)
    z_m1_1 = _potts_sum(counts, -1, 1)
    shaved = _potts_sum(_subset_table(n, loop_free), -1, 1) if loops else z_m1_1
    return _first_mismatch([
        (sign * 2 ** loops * ssc_count, z_m1_1),
        ((-1) ** n * ac_count, _potts_sum(counts, -1, -1)),
        (ssc_count, sign * shaved),
    ])


@_check("specval")
def verify_specval(n: int, k: int, cap=None):
    """Partition-function special values against brute-force orientation
    counts, plus the loop-shaving corollary, over every undirected graph."""
    return _enumerate(_specval_case, n, k, 2 ** k * 2, cap, undirected_edge_types)


@_check("lapl_tutte")
def verify_lapl_tutte(n: int, k: int, cap=None):
    """Laplace image of the shaved universal partition-function element at
    (-1,1) against (-1)^k times the plain element at (-1,-1), and loop-free
    support of both sides."""
    lhs = laplace(universal_potts(n, k, -1, 1, shaved=True, cap=cap))
    rhs = (-1) ** k * universal_potts(n, k, -1, -1, shaved=False, cap=cap)
    failures, _ = _sum_diff(lhs, rhs)
    for side in (lhs, rhs):
        looped = side._like({
            key: c for key, c in side._terms.items() if any(a == b for a, b in key)
        }, side.kind)
        failures.extend(_sum_diff(looped, looped.scale(0))[0])
    return failures, (n * (n + 1) // 2) ** k


@_check("theta")
def verify_theta(n: int, cap=None):
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

    return failures, total, {"notes": notes}


# ---------------------------------------------------------------------------
# The operator laws.  The position operators act on edge numbers, so their
# laws run on every numbered graph; the Laplace, support and pairing laws
# ignore the numbering and run once per edge multiset.


def _position_laws(n, k, edges):
    """The first position-operator law the numbered graph violates, as the
    (expected, actual) pair of its failure, or None: each b_p is idempotent,
    and every two of them commute.  Where b_p returned the sum itself, b_p
    of that image is b_p(s) again and b_q of it is b_q(s), so only the
    images b_op changed, at the positions ``moved``, are passed back to it:
    k(1 + |moved|) calls."""
    s = FormalSum._wrap(n, k, {edges: 1})  # the walk gives valid edges
    singles = [b_op(p, s) for p in range(1, k + 1)]
    moved = [(p, sp) for p, sp in enumerate(singles, 1) if sp is not s]
    for p, sp in moved:
        if b_op(p, sp) != sp:
            return "law:idempotent", "violated"
    for p, sp in moved:
        for q, sq in enumerate(singles, 1):
            if sq is s:  # b_q fixes s: b_q b_p(s) must be b_p(s)
                if b_op(q, sp) != sp:
                    return "law:commute", "violated"
            elif p < q and b_op(q, sp) != b_op(p, sq):
                return "law:commute", "violated"
    return None


def _multiset_laws(n, k, multiset):
    """The first numbering-free law the graph violates, as the (expected,
    actual) pair of its failure, or None: the Laplace operator is
    idempotent, its image is loop-free with the graph's sinks, pairing with
    the zero-row-sum matrix factors through it, and it equals b_k ... b_1,
    the position operators composed on the multiset's one-term sum.  No
    graph is built: each edge tuple is classified sorted, so the multiset
    may come in any order."""
    W, Wh = _matrices(n)
    s = FormalSum._wrap(n, k, {multiset: 1})
    ds = laplace(s)
    if laplace(ds) != ds:
        return "law:laplace-idempotent", "violated"
    sinks = _classify_key(n, tuple(sorted(multiset))).sinks
    for key in ds._terms:
        c = _classify_key(n, tuple(sorted(key)))
        if c.loop_count or c.sinks != sinks:
            return "law:support", "violated"
    if pairing(Wh, s) != pairing(W, ds):
        return "law:pairing", "violated"
    for p in range(1, k + 1):
        s = b_op(p, s)
    if s != ds:
        return "law:compose", "violated"
    return None


@_check("operator_laws")
def verify_operator_laws(n: int, k: int, cap=None):
    """Position operators are commuting idempotents, the Laplace operator is
    idempotent with loop-free sink-preserving output, pairing with the
    zero-row-sum matrix factors through it, and it is the composition of the
    position operators (``law:compose``); on the full graph basis.  A graph
    violating a position law is reported under that law's name."""
    return _enumerate(_multiset_laws, n, k, k * k + 2, cap, per_sequence=_position_laws)


# ---------------------------------------------------------------------------
# The whole desk-scale grid.

# Numbering-free tables that cells share for the life of the process.  Each
# value is a function of its key alone, so no report depends on which cell,
# in which order, filled it.
SHARED_TABLES = (_subset_signs, _subset_table, _paired_det)


@dataclass
class SuiteConfig:
    max_n: int = 3
    max_k: int = 4
    jobs: int = 1  # validated, but every cell runs serially
    cap: int | None = None

    def __post_init__(self):
        ints = all(type(v) is int for v in (self.max_n, self.max_k, self.jobs))
        if not ints or self.max_n < 1 or self.max_k < 0 or self.jobs < 1:
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
            reports.append(VerificationReport(name, params, "skipped", None, 0, [], 0))
    return reports
