"""Polynomial arithmetic over prime fields and Frobenius cycle types.

The observable extracted from a matrix at a prime p is the multiset of
degrees of the irreducible factors of its characteristic polynomial mod p
(a partition of the degree).  Distinct-degree factorization is enough for
that: we never need the factors themselves, only their degree pattern.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactmat import (
    PrimeFieldPolynomial,
    RationalPolynomial,
    poly_gcd,
    reduce_poly_mod_p,
)

# A cycle type is a weakly decreasing tuple of positive parts.
CycleType = tuple[int, ...]


def make_cycle_type(parts) -> CycleType:
    ct = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x <= 0 for x in ct):
        raise ValueError("cycle type parts must be positive")
    return ct


def repeat_parts(ct: CycleType, e: int) -> CycleType:
    """Each part repeated e times (observable for eigenvalue multiplicity e)."""
    if e == 1:
        return ct
    return make_cycle_type(tuple(p for p in ct for _ in range(e)))


@dataclass(frozen=True)
class FrobeniusSample:
    p: int
    cycle_type: CycleType | None
    status: str  # "good" | "bad_prime" | "not_squarefree"

    def __post_init__(self):
        if (self.status == "good") != (self.cycle_type is not None):
            raise ValueError("cycle_type present iff status is good")


# ---------------------------------------------------------------------------
# low-level F_p[x] helpers; coefficient tuples are degree-indexed and reduced
# ---------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _conv(a: list[int], b: list[int]) -> list[int]:
    """Integer product of two coefficient lists, nothing reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([x % p for x in _conv(a, b)])


def _pf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv_lead % p
        k = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        _trim(a)
    return a


def _pf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pf_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pf_monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a[:]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pf_deriv(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _reduce_monic(c: list[int], f: list[int], p: int) -> list[int]:
    """c mod f over F_p for a monic f; c may hold unreduced integers.

    Each coefficient is reduced mod p once, as it becomes the leading one or
    at the end, instead of after every product.  c is overwritten.
    """
    n = len(f) - 1
    for k in range(len(c) - 1, n - 1, -1):
        q = c[k] % p
        if q:
            base = k - n
            for i in range(n):
                c[base + i] -= q * f[i]
    return _trim([x % p for x in c[:n]])


def _x_pow_mod(e: int, f: list[int], p: int) -> list[int]:
    """x^e mod a monic f over F_p, by left-to-right square-and-shift."""
    h = [1]
    for bit in bin(e)[2:]:
        sq = _conv(h, h)
        h = _reduce_monic([0] + sq if bit == "1" else sq, f, p)
    return h


def _compose_mod(h: list[int], g: list[int], f: list[int], p: int) -> list[int]:
    """h(g) mod a monic f over F_p, by Horner in g."""
    out = [h[-1]]
    for c in reversed(h[:-1]):
        out = _conv(out, g) or [0]
        out[0] += c
        out = _reduce_monic(out, f, p)
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def squarefree_over_q(f: RationalPolynomial) -> bool:
    """True iff gcd(f, f') is constant, computed exactly over Q."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return poly_gcd(f, f.derivative()).degree <= 0


def distinct_degree_pattern(g: PrimeFieldPolynomial) -> CycleType | None:
    """Multiset of degrees of the irreducible factors of g over F_p.

    Returns None when g has a repeated factor (those primes are excluded
    from statistics); otherwise reads the pattern off _ddf.
    """
    p = g.p
    f = _pf_monic(list(g.coeffs), p)
    if len(f) - 1 < 1:
        raise ValueError("need degree >= 1")
    if len(_pf_gcd(f, _pf_deriv(f, p), p)) - 1 > 0:
        return None
    return make_cycle_type(
        d for d, g_d in _ddf(f, p) for _ in range((len(g_d) - 1) // d)
    )


def _ddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree f over F_p.

    Pairs (d, product of f's irreducible factors of degree d), d ascending.
    Standard: strip gcd(rem, x^(p^d) - x) for d = 1, 2, ...; stop early once
    the remaining cofactor must be irreducible.  x^p mod rem is computed
    once; each next x^(p^d) is the previous one composed with x^p (von zur
    Gathen-Shoup), a few products at low degree instead of a fresh power.
    """
    out = []
    rem = f
    h = xp = None  # x^(p^d) and x^p, both mod rem
    d = 0
    while len(rem) - 1 > 0:
        d += 1
        if 2 * d > len(rem) - 1:
            out.append((len(rem) - 1, rem))
            break
        if xp is None:
            h = xp = _x_pow_mod(p, rem, p)
        else:
            # Frobenius fixes F_p, so x^(p^d) = (x^(p^(d-1)))^p = h(x^p)
            h = _compose_mod(h, xp, rem, p)
        diff = h + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g_d = _pf_gcd(rem, _trim(diff), p)
        if len(g_d) > 1:
            out.append((d, g_d))
            rem = _pf_fulldiv(rem, g_d, p)
            h = _pf_rem(h, rem, p)
            xp = _pf_rem(xp, rem, p)
    return out


def _pf_fulldiv(a: list[int], b: list[int], p: int) -> list[int]:
    """Exact quotient a / b over F_p (remainder known to vanish)."""
    a = a[:]
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * (len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv_lead % p
        k = len(a) - 1 - db
        quo[k] = c
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        _trim(a)
    assert not a, "division was not exact"
    return quo


def frobenius_cycle_type(f: RationalPolynomial, p: int) -> FrobeniusSample:
    """Factorization degree pattern of f mod p, with bad primes flagged."""
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    reduced = reduce_poly_mod_p(f, p)
    if reduced is None:
        return FrobeniusSample(p, None, "bad_prime")
    pattern = distinct_degree_pattern(reduced)
    if pattern is None:
        return FrobeniusSample(p, None, "not_squarefree")
    return FrobeniusSample(p, pattern, "good")


@lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(flags[i * i:: i])
    return tuple(i for i in range(limit + 1) if flags[i])


@lru_cache(maxsize=8)
def primes_in_window(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p with lo <= p <= hi, ascending (simple sieve)."""
    if hi < 2:
        return ()
    ps = _sieve(hi)
    from bisect import bisect_left

    return ps[bisect_left(ps, lo):]
