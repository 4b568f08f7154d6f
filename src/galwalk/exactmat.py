"""Exact rational linear algebra: matrices, characteristic polynomials,
determinants, inverses, and coefficientwise reduction mod p.

Everything here is arbitrary-precision and exact.  A matrix is integer rows
over one common denominator, so products, characteristic polynomials,
determinants and inverses all run on integers.  A walk's product is
formed by column updates instead (right_action, product_of): each letter
rewrites only the columns where it differs from I.  A characteristic
polynomial is a monic integer coefficient list (see char_poly).  Matrices
are immutable, and all operations are pure functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


@dataclass(frozen=True, slots=True, init=False)
class RationalMatrix:
    """Square matrix over Q, stored as integer rows over one denominator.

    The entries are num[i][j] / den, where den is the least common
    denominator of the entries: den >= 1 and gcd(den, every num entry) = 1.
    The form is canonical, so equality and hashing compare integers.
    """

    n: int
    den: int
    num: tuple[tuple[int, ...], ...]

    def __new__(cls, rows: Iterable[Iterable]):
        rows = [[e if isinstance(e, Fraction) else Fraction(e) for e in row] for row in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        den = lcm(*(e.denominator for row in rows for e in row))
        return _from_int(
            [[e.numerator * (den // e.denominator) for e in row] for row in rows], den
        )

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions; a read-only view, rebuilt on each access."""
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return _from_int([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def diagonal(entries: Sequence) -> "RationalMatrix":
        es = list(entries)
        return RationalMatrix(
            [[es[i] if i == j else 0 for j in range(len(es))] for i in range(len(es))]
        )

    def transpose(self) -> "RationalMatrix":
        return _from_int(tuple(zip(*self.num)), self.den)


def _from_int(num: Sequence[Sequence[int]], den: int) -> RationalMatrix:
    """The matrix num / den (den nonzero), divided by one gcd, den made positive."""
    g = gcd(den, *chain.from_iterable(num))
    if den < 0:
        g = -g
    m = object.__new__(RationalMatrix)
    object.__setattr__(m, "n", len(num))
    if g == 1:  # already in lowest terms: most products and walk samples
        object.__setattr__(m, "den", den)
        object.__setattr__(m, "num", tuple(map(tuple, num)))
    else:
        object.__setattr__(m, "den", den // g)
        object.__setattr__(m, "num", tuple(tuple(map(g.__rfloordiv__, row)) for row in num))
    return m


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product: the integer product over a.den * b.den, in lowest terms."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    cols = tuple(zip(*b.num))
    return _from_int(
        [[sum(map(mul, row, col)) for col in cols] for row in a.num], a.den * b.den
    )


def right_action(g: RationalMatrix) -> tuple:
    """Right multiplication by g as column updates: (g.den, changes).

    changes holds (j, terms) for each column j of g.num other than the unit
    column e_j, terms being its nonzero (r, value) entries: column j of
    x * g is the sum of value * (column r of x), divided by g.den.  With
    g.den > 1 every column changes, since each is scaled.
    """
    changes = []
    for j, col in enumerate(zip(*g.num)):
        if g.den > 1 or any(v != (r == j) for r, v in enumerate(col)):
            changes.append((j, tuple((r, v) for r, v in enumerate(col) if v)))
    return g.den, tuple(changes)


def product_of(actions: Iterable[tuple], n: int) -> RationalMatrix:
    """The n x n product of the right_action letters, left to right.

    The product is integer columns over one denominator.  A letter
    rebuilds only the columns it changes, and every other column object
    is kept, so an identity letter does nothing; the result is put in
    lowest terms once, at the end.
    """
    cols = list(RationalMatrix.identity(n).num)
    den = 1
    for d, changes in actions:
        den *= d
        new = [(j, _combine(cols, terms)) for j, terms in changes]
        for j, col in new:
            cols[j] = col
    return _from_int(tuple(zip(*cols)), den)


def _combine(cols: list, terms: tuple) -> tuple:
    """The column sum of value * cols[row] over the (row, value) terms;
    one term of value 1 returns that column object itself."""
    acc = None
    for r, v in terms:
        col = cols[r] if v == 1 else map(mul, repeat(v), cols[r])
        acc = col if acc is None else map(add, acc, col)
    return (0,) * len(cols) if acc is None else tuple(acc)


def is_rational_square(x: int) -> bool:
    """Exact test: the integer x is the square of a rational, so of an integer."""
    return x >= 0 and isqrt(x) ** 2 == x


def int_char_poly(rows) -> list[int]:
    """Coefficients of det(T*I - a) for a square integer matrix, degree-indexed.

    Faddeev-LeVerrier recurrence over Z: every intermediate matrix is
    integral and the division by the step index is exact (Cohen, GTM 138,
    section 2.2).  Reducing the result mod p gives the characteristic
    polynomial over F_p at every prime.  Validated against cofactor
    expansion in the test suite.
    """
    return _faddeev_leverrier(rows)[0]


def _faddeev_leverrier(rows) -> tuple[list[int], list]:
    """int_char_poly's coefficients c and a M_(n-1), where M_0 = 0 and
    M_k = a M_(k-1) + c_(n-k+1) I: the recurrence's last matrix."""
    n = len(rows)
    coeffs = [0] * n + [1]
    m = rows
    for k in range(1, n):
        if k > 1:
            # m <- a (m + c I) = a m + c a
            c = coeffs[n - k + 1]
            cols = list(zip(*m))
            m = [
                [sum(map(mul, row, col)) + c * e for col, e in zip(cols, row)]
                for row in rows
            ]
        coeffs[n - k] = -(sum(m[i][i] for i in range(n)) // k)
    # k = n reads only tr(a (m + c I)) = sum_ij a_ij m_ji + c tr(a)
    trace_a = sum(rows[i][i] for i in range(n))
    if n == 1:
        coeffs[0], m = -trace_a, [[0]]  # a M_0
    else:
        trace_am = sum(sum(map(mul, row, col)) for row, col in zip(rows, zip(*m)))
        coeffs[0] = -((trace_am + coeffs[1] * trace_a) // n)
    return coeffs, m


def char_poly(a: RationalMatrix) -> list[int]:
    """det(T*I - num) for a = num / d: monic integer coefficients of degree
    n, degree-indexed.

    This is d^n * chi_a(T / d), so its roots are d times a's eigenvalues.
    Scaling every root by the same nonzero rational d keeps the splitting
    field, so the Galois group, the factor degrees over Q and the shape
    q^e with q squarefree are chi_a's, and the discriminant differs from
    chi_a's by d^(n(n-1)), a square: all that the verdict reads.
    """
    return int_char_poly(a.num)


def det(a: RationalMatrix) -> Fraction:
    """Exact determinant (-1)^n * chi_a(0), from the integer kernel."""
    return Fraction((-1) ** a.n * int_char_poly(a.num)[0], a.den ** a.n)


def mat_inverse(a: RationalMatrix) -> RationalMatrix:
    """Exact inverse from the Faddeev-LeVerrier pass; raises SingularMatrix.

    With a = b / d, b integral, c = int_char_poly(b) and m = b M_(n-1) the
    pass's last matrix, M_n = m + c_1 I is the adjugate up to sign:
    b M_n + c_0 I = 0 by Cayley-Hamilton, so b^-1 = -M_n / c_0 and
    a^-1 = -d M_n / c_0.  c_0 = 0 iff a is singular.
    """
    c, m = _faddeev_leverrier(a.num)
    if c[0] == 0:
        raise SingularMatrix("matrix is singular")
    adj = [[e + c[1] * (i == j) for j, e in enumerate(row)] for i, row in enumerate(m)]
    return _from_int([[-a.den * e for e in row] for row in adj], c[0])


@dataclass(frozen=True)
class PrimeFieldPolynomial:
    """Polynomial over F_p: reduced residues, degree-indexed, leading nonzero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and (self.coeffs[-1] % self.p == 0):
            raise ValueError("leading coefficient vanishes mod p")
        if any(not (0 <= c < self.p) for c in self.coeffs):
            raise ValueError("coefficients must be reduced residues")


def reduce_poly_mod_p(f: Sequence[int], p: int) -> PrimeFieldPolynomial:
    """Coefficientwise reduction of a monic integer f mod p.

    Monic, so the degree survives at every prime.  Where the reduction is
    squarefree, p does not divide disc(f), so p is unramified in f's
    splitting field and the factor degrees mod p are a Frobenius cycle type
    (Dedekind).
    """
    if not f or f[-1] != 1:
        raise ValueError("expected a monic polynomial")
    return PrimeFieldPolynomial(p, tuple(c % p for c in f))
