"""Exact multivariate polynomials over the rationals, and weight matrices.

Variables are either matrix entries w[i,j] or named scalars (q, v, x, y).
A polynomial is a map from monomials (sorted variable-exponent tuples) to
nonzero exact coefficients, kept as ints while they are integers and as
Fractions once a division makes them so; its accessors return Fractions.
Everything is exact; there is no floating point anywhere.  The
determinant is computed by cofactor expansion, which is division-free and
perfectly adequate for the matrix sizes used here, and "minor" always means
the plain sub-determinant with no cofactor sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple


class Variable(NamedTuple):
    name: str
    i: int = 0
    j: int = 0

    def __str__(self):
        if self.name == "w":
            return f"w[{self.i},{self.j}]"
        return self.name


Q = Variable("q")
V = Variable("v")
X = Variable("x")
Y = Variable("y")


def w(i: int, j: int) -> Variable:
    return Variable("w", i, j)


Monomial = tuple[tuple[Variable, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[Variable, int] = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


def _exact(value) -> int | Fraction:
    """An exact coefficient in its stored form: an integer is an int,
    whether given as an int, a bool or a Fraction with denominator 1, and
    any other Fraction stays a Fraction.  Sums and polynomials store
    integers as ints and build a Fraction only where a division happens or
    a caller reads a coefficient.  Anything else, a float included, raises
    TypeError."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _accumulate(terms: dict, items) -> dict:
    """Add each (key, coefficient) pair of items into terms, dropping the
    keys whose coefficients cancel to zero; returns terms."""
    for key, c in items:
        c2 = terms.get(key, 0) + c
        if c2:
            terms[key] = c2
        else:
            terms.pop(key, None)
    return terms


class MultiPoly:
    """A finite rational linear combination of monomials.

    ``_terms`` maps each monomial to a nonzero int or Fraction;
    ``terms()``, ``constant_value`` and ``evaluate`` return Fractions."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        """Take monomials as (variable, exponent) pairs in any order: a
        repeated variable's exponents add, a zero exponent drops out, and
        the coefficients of monomials that become equal add.  A negative
        exponent raises ValueError."""
        items = []
        for mono, c in (terms or {}).items():
            exps: dict[Variable, int] = {}
            for var, e in mono:
                if e < 0:
                    raise ValueError("negative exponents are not supported")
                exps[var] = exps.get(var, 0) + e
            items.append((tuple(sorted((v, e) for v, e in exps.items() if e)), _exact(c)))
        self._terms = _accumulate({}, items)

    @staticmethod
    def _wrap(terms: dict) -> "MultiPoly":
        """The trusted constructor: terms already map sorted monomials to
        nonzero ints or Fractions.  The dict is kept, not copied."""
        out = MultiPoly.__new__(MultiPoly)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        c = _exact(c)
        return cls._wrap({(): c} if c else {})

    @classmethod
    def variable(cls, var: Variable, exp: int = 1) -> "MultiPoly":
        return cls({((var, exp),): 1})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(mono, Fraction(c)) for mono, c in sorted(self._terms.items())]

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._wrap(_accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly._wrap({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._wrap(_accumulate({}, (
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative exponents are not supported")
        result = MultiPoly.const(1)
        for _ in range(exp):
            result = result * self
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented

    def derivative(self, var: Variable, m: int = 1) -> "MultiPoly":
        """m-fold formal partial derivative."""
        if m < 1:
            raise ValueError("derivative order must be at least 1")
        cur = self
        for _ in range(m):
            items = []
            for mono, c in cur._terms.items():
                exps = dict(mono)
                e = exps.pop(var, 0)
                if e:
                    if e > 1:
                        exps[var] = e - 1
                    items.append((tuple(sorted(exps.items())), c * e))
            cur = MultiPoly._wrap(_accumulate({}, items))
        return cur

    def substitute(self, assignment: dict) -> "MultiPoly":
        """Replace variables by rationals or polynomials; others stay."""
        values = {
            var: val if isinstance(val, MultiPoly) else MultiPoly.const(val)
            for var, val in assignment.items()
        }
        total = MultiPoly.zero()
        for mono, c in self._terms.items():
            term = MultiPoly.const(c)
            residue: dict[Variable, int] = {}
            for var, e in mono:
                if var in values:
                    term = term * values[var] ** e
                else:
                    residue[var] = e
            if residue:
                term = term * MultiPoly({tuple(sorted(residue.items())): 1})
            total = total + term
        return total

    def evaluate(self, assignment: dict):
        """Substitute and collapse: a Fraction if nothing is left symbolic."""
        result = self.substitute(assignment)
        if result.is_constant:
            return result.constant_value()
        return result

    @property
    def is_constant(self) -> bool:
        return all(not mono for mono in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self._terms[()])

    def __str__(self):
        if not self._terms:
            return "0/1"
        parts = []
        for mono, c in self.terms():
            factors = [f"{c.numerator}/{c.denominator}"]
            for var, e in mono:
                factors.append(str(var) if e == 1 else f"{var}^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class WeightMatrix:
    """A square matrix of polynomials; the generic instance has entry (i,j)
    equal to the single variable w[i,j]."""

    n: int
    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("matrix size must be nonnegative")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n x n array")

    @classmethod
    def symbolic(cls, n: int) -> "WeightMatrix":
        return cls(
            n,
            tuple(
                tuple(MultiPoly.variable(w(i, j)) for j in range(1, n + 1))
                for i in range(1, n + 1)
            ),
        )

    @classmethod
    def from_rows(cls, rows) -> "WeightMatrix":
        conv = tuple(
            tuple(e if isinstance(e, MultiPoly) else MultiPoly.const(e) for e in row)
            for row in rows
        )
        return cls(len(conv), conv)

    def entry(self, i: int, j: int) -> MultiPoly:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("matrix index out of range")
        return self.entries[i - 1][j - 1]


def laplace_matrix(m: WeightMatrix) -> WeightMatrix:
    """Copy the off-diagonal entries, set each diagonal entry to minus the
    sum of the rest of its row; all row sums become zero."""
    rows = []
    for i in range(1, m.n + 1):
        row = []
        for j in range(1, m.n + 1):
            if i == j:
                total = MultiPoly.zero()
                for jj in range(1, m.n + 1):
                    if jj != i:
                        total = total + m.entry(i, jj)
                row.append(-total)
            else:
                row.append(m.entry(i, j))
        rows.append(tuple(row))
    return WeightMatrix(m.n, tuple(rows))


def determinant(m: WeightMatrix) -> MultiPoly:
    """Exact determinant by cofactor expansion along the first row."""
    return _det(m.entries)


def _det(rows) -> MultiPoly:
    size = len(rows)
    if size == 0:
        return MultiPoly.const(1)
    if size == 1:
        return rows[0][0]
    total = MultiPoly.zero()
    for col in range(size):
        sub = tuple(
            tuple(r[c] for c in range(size) if c != col) for r in rows[1:]
        )
        term = rows[0][col] * _det(sub)
        total = total + term if col % 2 == 0 else total - term
    return total


def minor(m: WeightMatrix, rows: Iterable[int], cols: Iterable[int]) -> MultiPoly:
    """Determinant after deleting the listed rows and columns (1-based).

    No cofactor sign is applied; callers that need (-1)^(i+j) say so
    explicitly.
    """
    rset, cset = set(rows), set(cols)
    if len(rset) != len(cset):
        raise ValueError("must delete equally many rows and columns")
    for idx in rset | cset:
        if not (1 <= idx <= m.n):
            raise ValueError("row/column index out of range")
    kept_r = [i for i in range(1, m.n + 1) if i not in rset]
    kept_c = [j for j in range(1, m.n + 1) if j not in cset]
    sub = tuple(tuple(m.entry(i, j) for j in kept_c) for i in kept_r)
    return _det(sub)
