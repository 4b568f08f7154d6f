"""Coefficient-list polynomials over Z and F_p, "chi = q^e", and Frobenius
cycle types.

A polynomial is a degree-indexed list of ints with a nonzero leading entry
(the zero polynomial is []).  The arithmetic below is the one home of that
representation: over Z, over Z/m and over F_p, each operation written once.
A walk sample's chi is exactmat.char_poly's monic integer list, and chi and
q stay such lists from the walk to the verdict.

Over Z and over F_p it proves "chi = q^e with q squarefree" (power_root),
and over Z it computes discriminants.  Over F_p, the observable extracted
from a matrix at a prime p is the multiset of degrees of the irreducible
factors of its characteristic polynomial mod p (a partition of the degree);
for chi = q^e it is q's pattern with every part repeated e times
(distinct_degree_pattern).  Distinct-degree factorization is enough for
that: we never need the factors themselves, only their degree pattern.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import Sequence

from .exactmat import PrimeFieldPolynomial, int_char_poly, reduce_poly_mod_p

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
    status: str  # "good" | "not_squarefree" (a monic f reduces at every p)

    def __post_init__(self):
        if (self.status == "good") != (self.cycle_type is not None):
            raise ValueError("cycle_type present iff status is good")


# ---------------------------------------------------------------------------
# coefficient lists over Z, Z/m and F_p
# ---------------------------------------------------------------------------

def trim(c: list[int]) -> list[int]:
    """c without its zero leading entries; c is shortened in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def mod(c: Sequence[int], m: int) -> list[int]:
    """c with every coefficient reduced mod m."""
    return trim([x % m for x in c])


def add(*polys: Sequence[int]) -> list[int]:
    """Sum over Z, nothing reduced or trimmed."""
    out = [0] * max(map(len, polys))
    for a in polys:
        for i, c in enumerate(a):
            out[i] += c
    return out


def neg(a: Sequence[int]) -> list[int]:
    return [-c for c in a]


def mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product over Z, nothing reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def derivative(c: Sequence[int]) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


def evaluate(c: Sequence[int], x: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def divmod_poly(a: Sequence[int], h: Sequence[int], m: int = 0):
    """Quotient and remainder of a by h: over Z for a monic h (m = 0), over
    Z/m for an h whose leading coefficient is a unit mod m."""
    a = list(a)
    rem = _divide_in_place(a, h, m)
    return trim(a[len(h) - 1:]), rem


def _divide_in_place(a: list[int], h: Sequence[int], m: int) -> list[int]:
    """The remainder of a by h, as for divmod_poly; a is overwritten, its
    quotient digits replacing the coefficients they eliminate.

    Over Z/m, a may hold unreduced integers, and each coefficient is
    reduced once, as it becomes the leading one or at the end, instead of
    after every product.  The remainder-only callers below pass a product
    they own, so the hot paths copy nothing.
    """
    n = len(h) - 1
    inv = 1 if h[-1] == 1 else pow(h[-1], -1, m)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] = a[k] * inv % m if m else a[k]
        if c:
            base = k - n
            for i in range(n):
                a[base + i] -= c * h[i]
    return trim([x % m for x in a[:n]] if m else a[:n])


def exact_quotient(g: Sequence[int], v: Sequence[int]) -> list[int] | None:
    """g / v over Z for a monic v, or None when v does not divide g."""
    if v[0] and g[0] % v[0]:
        return None
    quo, rem = divmod_poly(g, v)
    return None if rem else quo


def pf_monic(a: Sequence[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def pf_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p of reduced a and b (Euclid)."""
    while b:
        a, b = b, divmod_poly(a, b, p)[1]
    return pf_monic(a, p)


def pow_mod(a: list[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e mod a monic f over F_p, by left-to-right square-and-multiply.

    Multiplying by a = x is a shift, so x^e takes one reduction per bit.
    """
    shift = a == [0, 1]
    h = [1]
    for bit in bin(e)[2:]:
        h = mul(h, h)
        if bit == "1":
            h = [0] + h if shift else mul(_divide_in_place(h, f, p), a)
        h = _divide_in_place(h, f, p)
    return h


def _compose_mod(h: list[int], g: list[int], f: list[int], p: int) -> list[int]:
    """h(g) mod a monic f over F_p, by Horner in g."""
    out = [h[-1]]
    for c in reversed(h[:-1]):
        out = mul(out, g) or [0]
        out[0] += c
        out = _divide_in_place(out, f, p)
    return out


def ddf(f: list[int], p: int) -> list[tuple[int, list[int]]]:
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
            h = xp = pow_mod([0, 1], p, rem, p)
        else:
            # Frobenius fixes F_p, so x^(p^d) = (x^(p^(d-1)))^p = h(x^p)
            h = _compose_mod(h, xp, rem, p)
        diff = h + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g_d = pf_gcd(rem, trim(diff), p)
        if len(g_d) > 1:
            out.append((d, g_d))
            rem = divmod_poly(rem, g_d, p)[0]
            h = divmod_poly(h, rem, p)[1]
            xp = divmod_poly(xp, rem, p)[1]
    return out


# ---------------------------------------------------------------------------
# chi = q^e with q squarefree (over Z and F_p); the discriminant over Z
# ---------------------------------------------------------------------------

def _primitive(c: Sequence[int]) -> list[int]:
    """A nonzero c divided by its content, leading coefficient made positive."""
    g = gcd(*c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def prs_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd over Z of a nonzero a and any b, primitive with positive leading
    coefficient: the primitive polynomial remainder sequence (Knuth, TAOCP
    vol. 2, section 4.6.1), each pseudo-remainder divided by its content."""
    a = _primitive(a)
    b = _primitive(b) if b else []
    if len(a) < len(b):
        a, b = b, a
    while b:
        n, lead = len(b) - 1, b[-1]
        r = a
        for k in range(len(r) - 1, n - 1, -1):
            c = r[k]
            r = [x * lead for x in r[:k]]
            for i in range(n):
                r[k - n + i] -= c * b[i]
        r = trim(r)
        a, b = b, _primitive(r) if r else []
    return a


def power_root(f: Sequence[int], e: int, m: int = 0) -> list[int] | None:
    """q with f = q^e and q squarefree, for a monic f over Z (m = 0) or a
    reduced monic f over F_m (m prime); otherwise None.

    Over Z at e = 1 and degree 1 to 4, f is squarefree iff its
    discriminant, a closed form there, is nonzero.  Otherwise q = f /
    gcd(f, f') is squarefree over Z and over F_m alike.  Over Z the gcd is
    primitive and divides the monic f, so by Gauss's lemma the division is
    exact.  Then q^e = f is checked.
    """
    n = len(f) - 1
    if n % e:
        return None
    if not m and e == 1 and 1 <= n <= 4:
        return list(f) if discriminant(f) else None
    if m:
        q = divmod_poly(f, pf_gcd(f, mod(derivative(f), m), m), m)[0]
    else:
        q = exact_quotient(f, prs_gcd(f, derivative(f)))
    if (len(q) - 1) * e != n:
        return None
    power = q
    for _ in range(e - 1):
        power = mod(mul(power, q), m) if m else mul(power, q)
    return q if power == list(f) else None


def squarefree_over_q(f: Sequence[int]) -> bool:
    """True iff the monic integer f has no repeated root: power_root at e = 1."""
    return power_root(f, 1) is not None


def resolvent_cubic(f: Sequence[int]) -> list[int]:
    """y^3 - b y^2 + (a c - 4 d) y - (a^2 d - 4 b d + c^2), whose roots are
    x1 x2 + x3 x4 and its conjugates, for f = x^4 + a x^3 + b x^2 + c x + d.
    Its discriminant is f's."""
    d, c, b, a = f[:4]
    return [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]


def discriminant(f: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial of degree >= 1.

    Closed forms to degree 3, the resolvent cubic's at degree 4, and above
    that (-1)^(n(n-1)/2) Res(f, f'), the determinant of the integer
    Sylvester matrix.
    """
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    if n == 2:
        return f[1] ** 2 - 4 * f[0]
    if n == 3:
        c, b, a = f[:3]
        return a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c
    if n == 4:
        return discriminant(resolvent_cubic(f))
    rf, rg = list(reversed(f)), list(reversed(derivative(f)))
    size = 2 * n - 1
    rows = [[0] * i + rf + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + rg + [0] * (n - 1 - i) for i in range(n)]
    res = (-1) ** size * int_char_poly(rows)[0]
    return -res if n * (n - 1) // 2 % 2 else res


# ---------------------------------------------------------------------------
# Frobenius cycle types
# ---------------------------------------------------------------------------

def distinct_degree_pattern(g: PrimeFieldPolynomial, e: int = 1) -> CycleType | None:
    """Pattern of g = q**e over F_p with q squarefree: the degrees of q's
    irreducible factors, each repeated e times.

    Returns None unless g has that shape (at e = 1: unless g is
    squarefree; those primes are excluded from statistics); otherwise
    reads q's pattern off ddf.
    """
    p = g.p
    f = pf_monic(g.coeffs, p)
    if len(f) - 1 < 1:
        raise ValueError("need degree >= 1")
    q = power_root(f, e, p)
    if q is None:
        return None
    return repeat_parts(make_cycle_type(
        d for d, g_d in ddf(q, p) for _ in range((len(g_d) - 1) // d)
    ), e)


def frobenius_cycle_type(f: Sequence[int], p: int) -> FrobeniusSample:
    """Factorization degree pattern of the monic integer f mod p; a
    reduction that is not squarefree is flagged, not classified."""
    pattern = distinct_degree_pattern(reduce_poly_mod_p(f, p))
    if pattern is None:
        return FrobeniusSample(p, None, "not_squarefree")
    return FrobeniusSample(p, pattern, "good")


# largest prime window top (experiment.ExperimentConfig): the sieve takes a
# byte per integer up to it, about 0.4 s and 50 MB at 10**7, 5 s at 10**8,
# paid only by a run with a sample that reads the window's primes
SIEVE_MAX = 10_000_000


def first_prime(lo: int) -> int:
    """The least prime >= lo, by trial division: no sieve."""
    p = max(lo, 2)
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


@lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(flags[i * i:: i])
    return tuple(compress(range(limit + 1), flags))


@lru_cache(maxsize=8)
def primes_in_window(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p with lo <= p <= hi, ascending (simple sieve)."""
    if hi < 2:
        return ()
    ps = _sieve(hi)
    return ps[bisect_left(ps, lo):]
