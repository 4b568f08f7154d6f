"""Exact rational linear algebra: matrices, characteristic polynomials,
univariate polynomials over Q, and coefficientwise reduction mod p.

Everything here is arbitrary-precision and exact.  A matrix is integer rows
over one common denominator, so products, characteristic polynomials,
determinants and inverses all run on integers.  Matrices and polynomials
are immutable; all operations are pure functions, safe to share across
workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RationalMatrix:
    """Square matrix over Q, stored as integer rows over one denominator.

    The entries are num[i][j] / den, where den is the least common
    denominator of the entries: den >= 1 and gcd(den, every num entry) = 1.
    The form is canonical, so equality and hashing compare integers.
    """

    __slots__ = ("n", "den", "num")

    def __new__(cls, rows: Iterable[Iterable]):
        rows = [[_frac(e) for e in row] for row in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        den = lcm(*(e.denominator for row in rows for e in row))
        return _from_int(
            [[e.numerator * (den // e.denominator) for e in row] for row in rows], den
        )

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]})"

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return mat_mul(self, other)

    def transpose(self) -> "RationalMatrix":
        return _from_int(tuple(zip(*self.num)), self.den)


def _from_int(num: Sequence[Sequence[int]], den: int) -> RationalMatrix:
    """The matrix num / den (den nonzero), divided by one gcd, den made positive."""
    g = gcd(den, *chain.from_iterable(num))
    if den < 0:
        g = -g
    m = object.__new__(RationalMatrix)
    object.__setattr__(m, "n", len(num))
    object.__setattr__(m, "den", den // g)
    object.__setattr__(m, "num", tuple(tuple(e // g for e in row) for row in num))
    return m


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product: the integer product over a.den * b.den, in lowest terms."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    cols = tuple(zip(*b.num))
    return _from_int(
        [[sum(map(mul, row, col)) for col in cols] for row in a.num], a.den * b.den
    )


class RationalPolynomial:
    """Univariate polynomial over Q.

    Coefficients are degree-indexed (coeffs[i] multiplies T^i) with a nonzero
    leading coefficient; the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*T^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RationalPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + RationalPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RationalPolynomial(out)

    def scale(self, c) -> "RationalPolynomial":
        c = _frac(c)
        return RationalPolynomial(tuple(x * c for x in self.coeffs))

    def monic(self) -> "RationalPolynomial":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(1 / self.leading())

    def evaluate(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            tuple(i * c for i, c in enumerate(self.coeffs))[1:]
        )

    def shift(self, a) -> "RationalPolynomial":
        """Compose with T -> T + a (exact Horner on polynomial arguments)."""
        a = _frac(a)
        x = RationalPolynomial((a, Fraction(1)))
        acc = RationalPolynomial(())
        for c in reversed(self.coeffs):
            acc = acc * x + RationalPolynomial((c,))
        return acc


def poly_divmod(
    f: RationalPolynomial, g: RationalPolynomial
) -> tuple[RationalPolynomial, RationalPolynomial]:
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    quo = [Fraction(0)] * max(0, len(rem) - len(g.coeffs) + 1)
    glead = g.leading()
    gdeg = g.degree
    while len(rem) - 1 >= gdeg and rem:
        c = rem[-1] / glead
        k = len(rem) - 1 - gdeg
        quo[k] = c
        for i, gc in enumerate(g.coeffs):
            rem[k + i] -= c * gc
        while rem and rem[-1] == 0:
            rem.pop()
    return RationalPolynomial(quo), RationalPolynomial(rem)


def poly_gcd(f: RationalPolynomial, g: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd over Q (Euclid; degrees here are tiny)."""
    a, b = f, g
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def exact_poly_root(f: RationalPolynomial, e: int) -> RationalPolynomial | None:
    """If monic f = q**e with q monic squarefree, return q; otherwise None.

    Used to recognize characteristic polynomials whose eigenvalues all carry
    the same multiplicity e.
    """
    if f.is_zero() or not f.is_monic() or f.degree % e != 0:
        return None
    rad = radical(f)
    if rad.degree * e != f.degree:
        return None
    power = rad
    for _ in range(e - 1):
        power = power * rad
    return rad if power == f else None


def radical(f: RationalPolynomial) -> RationalPolynomial:
    """Squarefree part f / gcd(f, f'), monic."""
    if f.is_zero():
        return f
    g = poly_gcd(f, f.derivative())
    if g.degree <= 0:
        return f.monic()
    q, r = poly_divmod(f, g)
    assert r.is_zero()
    return q.monic()


def resultant(f: RationalPolynomial, g: RationalPolynomial) -> Fraction:
    """Resultant via the Sylvester matrix (exact)."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    return det(RationalMatrix(rows))


def discriminant(f: RationalPolynomial) -> Fraction:
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading()


def is_rational_square(x: Fraction) -> bool:
    """Exact test: x = (a/b)^2 for some rational a/b."""
    x = _frac(x)
    if x < 0:
        return False
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def int_char_poly(rows) -> list[int]:
    """Coefficients of det(T*I - a) for a square integer matrix, degree-indexed.

    Faddeev-LeVerrier recurrence over Z: every intermediate matrix is
    integral and the division by the step index is exact (Cohen, GTM 138,
    section 2.2).  Reducing the result mod p gives the characteristic
    polynomial over F_p at every prime.  Validated against cofactor
    expansion in the test suite.
    """
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
        coeffs[0] = -trace_a
    else:
        trace_am = sum(sum(map(mul, row, col)) for row, col in zip(rows, zip(*m)))
        coeffs[0] = -((trace_am + coeffs[1] * trace_a) // n)
    return coeffs


def char_poly(a: RationalMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(T*I - a), monic of degree n.

    With a = num / d, the integer kernel gives det(T*I - num) = d^n *
    det((T/d)*I - a), so the coefficient of T^i over Q is the integer one
    divided by d^(n-i).
    """
    d = a.den
    return RationalPolynomial(
        Fraction(c, d ** (a.n - i)) for i, c in enumerate(int_char_poly(a.num))
    )


def det(a: RationalMatrix) -> Fraction:
    """Exact determinant (-1)^n * chi_a(0), from the integer kernel."""
    return Fraction((-1) ** a.n * int_char_poly(a.num)[0], a.den ** a.n)


def mat_inverse(a: RationalMatrix) -> RationalMatrix:
    """Exact inverse by Cayley-Hamilton; raises SingularMatrix.

    With a = b / d, b integral and c = int_char_poly(b), b^n + c_(n-1) b^(n-1)
    + ... + c_0 I = 0, so b^-1 = -(b^(n-1) + c_(n-1) b^(n-2) + ... + c_1 I) / c_0
    (evaluated by Horner) and a^-1 = d * b^-1.  c_0 = 0 iff a is singular.
    """
    b = a.num
    c = int_char_poly(b)
    if c[0] == 0:
        raise SingularMatrix("matrix is singular")
    cols = list(zip(*b))
    acc = [[int(i == j) for j in range(a.n)] for i in range(a.n)]
    for ci in reversed(c[1:a.n]):
        acc = [
            [sum(map(mul, row, col)) + ci * (i == j) for j, col in enumerate(cols)]
            for i, row in enumerate(acc)
        ]
    return _from_int([[-a.den * e for e in row] for row in acc], c[0])


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def reduce_poly_mod_p(f: RationalPolynomial, p: int) -> PrimeFieldPolynomial | None:
    """Coefficientwise reduction of f mod p.

    None marks a bad prime (zero polynomial, a denominator divisible by p,
    or a leading coefficient that vanishes mod p); Frobenius sampling skips
    such primes.
    """
    if f.is_zero():
        return None
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    if out[-1] % p == 0:
        return None
    return PrimeFieldPolynomial(p, tuple(out))
