"""Factor degrees over Q, by exact arithmetic over Z.

The degrees of the irreducible factors of a walk sample's characteristic
polynomial are the orbit lengths of its Galois group.  They are found
exactly, by the degree of what is left once the integer roots are
divided out: tested one by one under a tiny root bound, ruled out by a
prime with no root mod p, and only otherwise found by bisection.  A
cofactor of degree <= 3 is then irreducible.  A quartic one is a product
of two quadratics or nothing, and the integer roots of its resolvent
cubic decide which, with no prime.
From degree 5 on, Musser's filter over Frobenius cycle types comes
first, then Zassenhaus's algorithm (Cohen, GTM 138, section 3.5): Hensel
lifting of the factorization at one prime and recombination, each factor
confirmed by exact division over Z.  The coefficient-list arithmetic over
Z and F_p is modpoly's.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Sequence

from .modpoly import (
    CycleType,
    add,
    ddf,
    derivative,
    divmod_poly,
    evaluate,
    exact_quotient,
    frobenius_cycle_type,
    make_cycle_type,
    mod,
    mul,
    neg,
    pf_gcd,
    pow_mod,
    resolvent_cubic,
    trim,
)


# primes at which integer_roots looks for a residue class with no root, and
# the root bound up to which it tests every candidate instead
RESIDUE_PRIMES = (2, 3, 5, 7, 11, 13)
DIRECT_BOUND = 8


def integer_roots(c: Sequence[int]) -> list[int]:
    """Integer roots, ascending, of a nonzero integer polynomial (degree-indexed).

    Every root r satisfies |r| <= 1 + max|c_i| (Cauchy) and, when c_0 != 0,
    |r| <= |c_0|.  Under a bound of at most DIRECT_BOUND, as for every chi
    of an SL_n walk (c_0 = +-1), each integer in range is tested.  Above
    it, a prime p in RESIDUE_PRIMES at which c has no root mod p proves
    there is no integer root, since r mod p would be one.  Only when
    neither applies does integer bisection between critical points run:
    the floors of the real roots of c' cut the range into segments on which
    c is monotone, and bisection finds the one root a segment can hold.
    The work is polynomial in the coefficients' bit size, unlike a search
    over the divisors of c_0.
    """
    c = trim(list(c))
    if not c:
        raise ValueError("zero polynomial")
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c[0] == 0:
            c.pop(0)
    bound = min(1 + max(map(abs, c)), abs(c[0]))
    if bound <= DIRECT_BOUND:
        candidates = range(-bound, bound + 1)
    elif any(_rootless_mod(c, p) for p in RESIDUE_PRIMES):
        candidates = ()
    else:
        candidates = _root_floors(c, -bound, bound)
    roots += (m for m in candidates if evaluate(c, m) == 0)
    return sorted(roots)


def _rootless_mod(c: list[int], p: int) -> bool:
    """Whether c has no root mod the prime p: c(r) is nonzero mod p for
    every residue r."""
    reduced = [x % p for x in c]
    return all(evaluate(reduced, r) % p for r in range(p))


def _root_floors(c: list[int], lo: int, hi: int) -> list[int]:
    """Ascending integers in [lo, hi] among which lies floor(r) for every real
    root r of c with lo <= r <= hi (a superset: the caller tests them)."""
    if len(c) < 2:
        return []
    crit = _root_floors(derivative(c), lo, hi)
    out = set(crit)
    # c' has no root in [m + 1, m'), so c is monotone on [m + 1, m']
    for a, b in zip([lo] + [m + 1 for m in crit], crit + [hi]):
        if a > b:
            continue
        fa, fb = evaluate(c, a), evaluate(c, b)
        if fa == 0:
            out.add(a)
            continue
        if fb != 0 and (fb > 0) == (fa > 0):
            continue
        while b - a > 1:  # sign(c(a)) = sign(fa), c(b) opposite or zero
            mid = (a + b) // 2
            fm = evaluate(c, mid)
            if fm != 0 and (fm > 0) == (fa > 0):
                a = mid
            else:
                b = mid
        out.add(b if evaluate(c, b) == 0 else a)
    return sorted(out)


# ---------------------------------------------------------------------------
# factor degrees: integer roots, the resolvent cubic, Musser, Zassenhaus
# ---------------------------------------------------------------------------

# good primes whose patterns Musser's filter intersects before lifting
MUSSER_PRIMES = 5


@dataclass(frozen=True)
class FactorDegrees:
    """Degrees of f's irreducible factors over Q (a partition of deg f), the
    Frobenius cycle types of f seen at the primes used to find them, and
    the integer roots, ascending, of the resolvent cubic of f's quartic
    cofactor when f has one (f over its linear factors, of degree 4)."""

    degrees: CycleType
    types: frozenset
    resolvent_roots: tuple[int, ...] = ()


def factor_degrees(f: Sequence[int], primes) -> FactorDegrees | None:
    """Exact factor degrees over Q of a monic squarefree integer f.

    Integer roots come first, found exactly; the cofactor g left once they
    are divided out decides the rest by its degree.  Of degree <= 3 it is
    irreducible.  Of degree 4 it splits into two quadratics or is
    irreducible, and its resolvent cubic's integer roots decide which
    (_splits_into_quadratics), with no prime.  From degree 5 on, the cycle
    types at the first MUSSER_PRIMES good odd primes among `primes` bound
    the possible factor degrees to the subset sums common to all of them
    (Musser); when no proper degree survives, g is irreducible.  Otherwise
    the factorization at the prime with the fewest factors is lifted
    p-adically (Hensel) and recombined, each factor confirmed by exact
    division over Z, so the result never depends on chance.  None only
    when g has degree >= 5 and `primes` holds no good odd prime.
    """
    roots = integer_roots(f)
    g = list(f)
    for r in roots:
        g = exact_quotient(g, [-r, 1])
    degrees = [1] * len(roots)
    types: set[CycleType] = set()
    resolvent_roots = ()
    m = len(g) - 1
    if m == 4:
        resolvent_roots = tuple(integer_roots(resolvent_cubic(g)))
        if _splits_into_quadratics(g, resolvent_roots):
            degrees += [2, 2]
            m = 0
    elif m >= 5:
        sums = None
        best = None  # (factor count, prime)
        good = 0
        for p in primes:
            if p == 2:
                continue
            sample = frobenius_cycle_type(f, p)
            if sample.status != "good":
                continue
            good += 1
            types.add(sample.cycle_type)
            parts = list(sample.cycle_type)[: len(sample.cycle_type) - len(roots)]
            reach = {0}
            for part in parts:
                reach |= {s + part for s in reach}
            sums = reach if sums is None else sums & reach
            if best is None or len(parts) < best[0]:
                best = (len(parts), p)
            proper = any(2 <= d <= m - 2 for d in sums)
            if not proper or good == MUSSER_PRIMES:
                break
        if best is None:
            return None
        if proper:
            degrees += _zassenhaus(g, best[1], sums)
            m = 0
    if m > 0:
        degrees.append(m)
    return FactorDegrees(make_cycle_type(degrees), frozenset(types), resolvent_roots)


def _splits_into_quadratics(g: list[int], thetas) -> bool:
    """Whether the monic rootless integer quartic g = x^4 + a x^3 + b x^2 +
    c x + d is a product of two integer quadratics, given the integer roots
    thetas of its resolvent cubic.

    If g = (x^2 + p1 x + q1)(x^2 + p2 x + q2), which Gauss's lemma allows,
    then theta = q1 + q2 (x1 x2 + x3 x4) is one of them; q1 and q2 are the
    roots of z^2 - theta z + d, and p1 and p2 those of z^2 - a z + (b - theta).
    Each candidate, in both pairings, is confirmed only by exact
    multiplication, which also rejects the candidate a non-square
    discriminant gives.
    """
    d, _, b, a = g[:4]
    for theta in thetas:
        dq = theta * theta - 4 * d
        dp = a * a - 4 * (b - theta)
        if dq < 0 or dp < 0:
            continue
        rq, rp = isqrt(dq), isqrt(dp)
        q1, q2 = (theta - rq) // 2, (theta + rq) // 2
        p1, p2 = (a - rp) // 2, (a + rp) // 2
        if g in (mul([q1, p1, 1], [q2, p2, 1]), mul([q2, p1, 1], [q1, p2, 1])):
            return True
    return False


def _zassenhaus(g: list[int], p: int, sums: set[int]) -> list[int]:
    """Factor degrees of a monic squarefree integer g, squarefree mod the odd
    prime p, whose factor degrees all lie in sums."""
    local = [
        u
        for d, g_d in ddf(mod(g, p), p)
        for u in _edf(g_d, d, p, random.Random(p))
    ]
    # Mignotte: a factor's coefficients are at most 2^m |g|_2 in size
    bound = 2 ** (len(g) - 1) * (isqrt(sum(c * c for c in g)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted = _hensel_lift(g, local, p, modulus)
    degrees = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            d = sum(len(lifted[i]) - 1 for i in subset)
            if d not in sums:
                continue
            v = [1]
            for i in subset:
                v = mod(mul(v, lifted[i]), modulus)
            v = [c - modulus if 2 * c > modulus else c for c in v]
            quo = exact_quotient(g, v)
            if quo is not None:
                degrees.append(d)
                g = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of a monic squarefree g over F_p (p odd) whose
    factors all have degree d (Cantor-Zassenhaus equal-degree splitting).

    A random a splits g through gcd(g, a^((p^d - 1) / 2) - 1); the seeded
    rng keeps runs reproducible, and the factors do not depend on it.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = pow_mod(a, e, g, p) or [0]
        b[0] = (b[0] - 1) % p
        u = pf_gcd(g, trim(b), p)
        if 1 < len(u) < len(g):
            return _edf(u, d, p, rng) + _edf(divmod_poly(g, u, p)[0], d, p, rng)


def _hensel_lift(f, factors, p: int, modulus: int) -> list[list[int]]:
    """Lift pairwise coprime monic factors of a monic integer f mod p to
    monic factors of f mod modulus = p^(2^j), one factor split off at a time."""
    lifted = []
    for i in range(len(factors) - 1):
        rest = [1]
        for u in factors[i + 1:]:
            rest = mod(mul(rest, u), p)
        g, f = _lift_pair(f, factors[i], rest, p, modulus)
        lifted.append(g)
    lifted.append(mod(f, modulus))
    return lifted


def _lift_pair(f, g, h, p: int, modulus: int):
    """Quadratic Hensel lifting of f = g h mod p to mod modulus, for monic f,
    g, h with g, h coprime mod p (von zur Gathen-Gerhard, Algorithm 15.10)."""
    s, t = _pf_bezout(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = mod(add(f, neg(mul(g, h))), m)
        q, r = divmod_poly(mul(s, e), h, m)
        g = mod(add(g, mul(t, e), mul(q, g)), m)
        h = mod(add(h, r), m)
        b = mod(add(mul(s, g), mul(t, h), [-1]), m)
        c, d = divmod_poly(mul(s, b), h, m)
        s = mod(add(s, neg(d)), m)
        t = mod(add(t, neg(mul(t, b)), neg(mul(c, g))), m)
    return g, h


def _pf_bezout(a: list[int], b: list[int], p: int):
    """s, t over F_p with s a + t b = 1, deg s < deg b, deg t < deg a, for
    coprime a and b (extended Euclid, each divisor made monic)."""
    r0, s0, t0 = a, [1], []
    r1, s1, t1 = b, [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1, t1 = ([c * inv % p for c in x] for x in (r1, s1, t1))
        q, r = divmod_poly(r0, r1, p)
        r0, s0, t0, r1, s1, t1 = (
            r1, s1, t1, r,
            mod(add(s0, neg(mul(q, s1))), p),
            mod(add(t0, neg(mul(q, t1))), p),
        )
    return s0, t0
