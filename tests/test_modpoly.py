import math
import random
from fractions import Fraction as F
from functools import reduce

import pytest
import sympy
from sympy import Poly, symbols

from galwalk.exactmat import PrimeFieldPolynomial, RationalMatrix, char_poly
from galwalk.modpoly import (
    derivative,
    discriminant,
    FrobeniusSample,
    distinct_degree_pattern,
    divmod_poly,
    frobenius_cycle_type,
    make_cycle_type,
    mod,
    mul,
    pf_gcd,
    pf_monic,
    power_root,
    primes_in_window,
    repeat_parts,
    squarefree_over_q,
    subresultant,
    trim,
)

from fp_brute import brute_force_pattern


def test_cycle_type_canonical():
    assert make_cycle_type([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        make_cycle_type([0, 1])
    assert repeat_parts((2, 1), 2) == (2, 2, 1, 1)
    assert repeat_parts((3,), 1) == (3,)


def test_squarefree_over_q():
    assert squarefree_over_q([6, -5, 1])
    assert not squarefree_over_q([1, -2, 1])
    assert squarefree_over_q([1, 0, 1])
    # diag(1/2, 1/2, -1/3), den 6: chi = (T - 1/2)^2 (T + 1/3) is decided on
    # its integral form (T - 3)^2 (T + 2)
    a = RationalMatrix.diagonal([F(1, 2), F(1, 2), F(-1, 3)])
    assert char_poly(a) == pprod([-3, 1], [-3, 1], [2, 1])
    assert not squarefree_over_q(char_poly(a))
    assert squarefree_over_q(char_poly(RationalMatrix.diagonal([F(1, 2), F(-1, 3)])))


def pprod(*factors):
    return reduce(mul, factors)


def test_power_root_of_integral_forms():
    q = [1, -3, 1]
    assert power_root(pprod(q, q), 2) == q
    assert power_root(pprod(q, q, q), 3) == q
    assert power_root(pprod(q, q, [-5, 1]), 2) is None
    line = [-1, 1]
    assert power_root(pprod(line, line, line, line), 2) is None  # radical^2 != f
    # the radical (T - 1)(T - 2) has the right degree, but its square is not f
    assert power_root(pprod(line, line, line, [-2, 1]), 2) is None
    assert power_root(q, 1) == q
    assert power_root([1, -2, 1], 1) is None  # (T-1)^2
    # diag(1/2, 1/2, -1/3, -1/3), den 6: chi = ((T - 1/2)(T + 1/3))^2, whose
    # integral form is ((T - 3)(T + 2))^2
    a = RationalMatrix.diagonal([F(1, 2), F(1, 2), F(-1, 3), F(-1, 3)])
    assert power_root(char_poly(a), 2) == [-6, -1, 1]
    assert power_root(char_poly(a), 1) is None


X = symbols("x")


def primitive(c):
    """c divided by its content, leading coefficient made positive; [1] for a
    nonzero constant."""
    g = reduce(math.gcd, c) * (1 if c[-1] > 0 else -1)
    return [x // g for x in c]


def sympy_gcd(a, b):
    """sympy's gcd over Z of two integer coefficient lists, made primitive."""
    g = sympy.gcd(Poly(list(reversed(a)), X), Poly(list(reversed(b)), X))
    return primitive([int(c) for c in reversed(g.all_coeffs())])


def test_power_root_and_subresultant_gcd():
    # the sequence's gcd is sympy's up to a constant factor
    for a, b, want in (
        ([1, -2, 1], [-2, 2], [-1, 1]),
        ([6, -5, 1], [-2, 1], [-2, 1]),
        ([2, 0, 2], [3, 3], [1]),  # contents 2 and 3 are dropped
    ):
        assert sympy_gcd(a, b) == want
        assert primitive(subresultant(a, b)[0]) == want
    # (T - 1)^2 (T + 2) and its derivative share T - 1
    f = mul(mul([-1, 1], [-1, 1]), [2, 1])
    assert sympy_gcd(f, derivative(f)) == [-1, 1]
    assert primitive(subresultant(f, derivative(f))[0]) == [-1, 1]
    assert power_root(f, 1) is None
    assert power_root(mul([2, 0, 1], [2, 0, 1]), 2) == [2, 0, 1]
    assert power_root(mul(f, f), 2) is None
    # over F_5: (T^2 + 2)^2 = T^4 + 4 T^2 + 4; T^2 is a square with a
    # repeated root; (T - 1)^5 has f' = 0, so f / gcd(f, f') is constant
    assert power_root([4, 0, 4, 0, 1], 2, 5) == [2, 0, 1]
    assert power_root([0, 0, 1], 2, 5) == [0, 1]
    assert power_root([0, 0, 1], 1, 5) is None
    assert power_root(mod(reduce(mul, [[-1, 1]] * 5), 5), 5, 5) is None
    assert power_root([1, 0, 0, 1], 1, 5) == [1, 0, 0, 1]


def test_subresultant_examples():
    # Res(x^2 - 1, x - 2) = (2 - 1)(2 + 1); coprime, so the gcd is a
    # constant; the pair order costs (-1)^(deg a deg b)
    assert subresultant([-1, 0, 1], [-2, 1]) == ([3], 3)
    assert subresultant([-2, 1], [-1, 0, 1]) == ([3], 3)
    assert subresultant([-2, 1], [-1, 0, 0, 1])[1] == 2 ** 3 - 1
    assert subresultant([-1, 0, 0, 1], [-2, 1])[1] == -(2 ** 3 - 1)
    assert subresultant([0, 1], [0, 0, 0, 1]) == ([0, 1], 0)
    # against a constant: Res(a, c) = c^deg a; two constants: 1
    assert subresultant([1, 2, 3], [5]) == ([5], 25)
    assert subresultant([5], [1, 2, 3]) == ([5], 25)
    assert subresultant([2], [3]) == ([3], 1)
    # against zero: the other polynomial is the gcd, and Res = 0
    assert subresultant([1, 2, 3], []) == ([1, 2, 3], 0)
    assert subresultant([], [1, 2, 3]) == ([1, 2, 3], 0)
    # a common factor x^2 + 1: the gcd is a multiple of it
    g, r = subresultant(mul([1, 0, 1], [3, -1, 2]), mul([1, 0, 1], [5, 0, 0, 7]))
    assert primitive(g) == [1, 0, 1] and r == 0


def test_divmod_poly():
    assert divmod_poly([6, -5, 1], [-2, 1]) == ([-3, 1], [])
    assert divmod_poly([7, -5, 1], [-2, 1]) == ([-3, 1], [1])
    # over Z/7 unreduced input gives reduced output
    assert divmod_poly([14, 9, 8], [5, 1], 7) == ([4, 1], [1])
    assert divmod_poly([1, 2], [0, 0, 1], 5) == ([], [1, 2])
    # over F_5 the divisor's leading coefficient need only be a unit
    assert divmod_poly([1, 0, 1], [1, 2], 5) == ([1, 3], [])
    assert divmod_poly([2, 0, 1], [1, 2], 5) == ([1, 3], [1])


def test_discriminant():
    # disc(x^2 + bx + c) = b^2 - 4c
    assert discriminant([3, -5, 1]) == 25 - 12
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    assert discriminant([2, -1, 0, 1]) == -4 * (-1) ** 3 - 27 * 4
    # a repeated root gives zero; degree 4 goes through the resolvent cubic
    assert discriminant(mul([-1, 1], [-1, 1])) == 0
    assert discriminant([-2, 0, 0, 0, 1]) == -2048
    assert discriminant(mul(mul([-1, 1], [-1, 1]), [2, 0, 0, 1])) == 0
    assert discriminant([5, 1]) == 1
    with pytest.raises(ValueError):
        discriminant([1])


def test_distinct_degree_pattern_examples():
    assert distinct_degree_pattern(PrimeFieldPolynomial(5, (1, 0, 1))) == (1, 1)
    assert distinct_degree_pattern(PrimeFieldPolynomial(3, (1, 0, 1))) == (2,)
    # T^2 - 1 mod 2 = (T - 1)^2
    assert distinct_degree_pattern(PrimeFieldPolynomial(2, (1, 0, 1))) is None


def test_pattern_against_brute_force_factorization():
    rng = random.Random(31)
    for _ in range(120):
        p = rng.choice([3, 5, 7, 11, 13])
        deg = rng.choice([2, 3, 4])
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        g = PrimeFieldPolynomial(p, tuple(coeffs))
        got = distinct_degree_pattern(g)
        if got is None:
            continue
        assert got == brute_force_pattern(coeffs, p)


def _pf_rem(a, f, p):
    return divmod_poly(a, f, p)[1]


def _pf_powmod(base, e, f, p):
    result = [1]
    base = _pf_rem(base, f, p)
    while e:
        if e & 1:
            result = _pf_rem(mod(mul(result, base), p), f, p)
        base = _pf_rem(mod(mul(base, base), p), f, p)
        e >>= 1
    return result


def ddf_by_powering(g):
    """Reference DDF: each x^(p^d) is the previous one raised to the p-th
    power by square-and-multiply, reduced mod p after every product."""
    p = g.p
    f = pf_monic(g.coeffs, p)
    if len(pf_gcd(f, mod(derivative(f), p), p)) - 1 > 0:
        return None
    parts = []
    rem = f
    h = _pf_rem([0, 1], rem, p)
    d = 0
    while len(rem) - 1 > 0:
        d += 1
        if 2 * d > len(rem) - 1:
            parts.append(len(rem) - 1)
            break
        h = _pf_powmod(h, p, rem, p)
        diff = h + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g_d = pf_gcd(rem, trim(diff), p)
        deg = len(g_d) - 1
        if deg > 0:
            parts.extend([d] * (deg // d))
            rem = divmod_poly(rem, g_d, p)[0]
            h = _pf_rem(h, rem, p)
    return make_cycle_type(parts)


def _composes_after_split(pattern):
    """True when DDF strips a factor and then still computes x^(p^(d+1))
    modulo the smaller remainder: the path where x^p is reduced again."""
    n = sum(pattern)
    for d in sorted(set(pattern))[:-1]:
        rest = n - sum(x for x in pattern if x <= d)
        if rest >= 2 * (d + 1):
            return True
    return False


def test_ddf_by_composition_against_powering():
    rng = random.Random(5)
    shrunk = brute_checked = 0
    for p in (3, 5, 7, 11, 13, 997, 1009, 99991, 100003):
        for _ in range(60):
            # a product of random monic factors, so splits are common
            coeffs = [1]
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, 4)
                coeffs = mod(mul(coeffs, [rng.randrange(p) for _ in range(k)] + [1]), p)
            if not 1 <= len(coeffs) - 1 <= 8:
                continue
            g = PrimeFieldPolynomial(p, tuple(coeffs))
            want = ddf_by_powering(g)
            assert distinct_degree_pattern(g) == want
            if want is None:
                continue
            shrunk += _composes_after_split(want)
            if p <= 13:
                brute_checked += 1
                assert want == brute_force_pattern(coeffs, p)
    assert shrunk >= 50 and brute_checked >= 100


def test_frobenius_cycle_type_examples():
    s = frobenius_cycle_type([6, -5, 1], 7)
    assert s.status == "good" and s.cycle_type == (1, 1)
    # T^3 - 2 at p=7: 2 is not a cube mod 7 (cubes are {0,1,6}), so the
    # cubic is irreducible and the pattern is (3)
    assert {x**3 % 7 for x in range(7)} == {0, 1, 6}
    s3 = frobenius_cycle_type([-2, 0, 0, 1], 7)
    assert s3.cycle_type == (3,)
    assert s3.cycle_type == brute_force_pattern([-2, 0, 0, 1], 7)
    # chi = T^2 - T/7 of diag(0, 1/7): at p = 7, which divides the
    # denominator, its integral form T^2 - T splits, the true type 1+1
    f = char_poly(RationalMatrix.diagonal([0, F(1, 7)]))
    assert f == [0, -1, 1]
    assert frobenius_cycle_type(f, 7) == FrobeniusSample(7, (1, 1), "good")
    square = frobenius_cycle_type([1, -2, 1], 7)
    assert square.status == "not_squarefree" and square.cycle_type is None


def test_sum_of_parts_equals_degree():
    rng = random.Random(9)
    f = char_poly(
        RationalMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
    )
    for p in primes_in_window(100, 200):
        s = frobenius_cycle_type(f, p)
        if s.status == "good":
            assert sum(s.cycle_type) == 4


def test_skipped_prime_density_small():
    # fixed random unimodular 3x3 element: at most 10% of primes in
    # [100, 1000] may be skipped
    rng = random.Random(2)
    from galwalk.scenarios import builtin_scenarios
    from galwalk.walker import sample_walk

    scen = builtin_scenarios()["sl3"]
    f = char_poly(sample_walk(scen.admissible(), 25, 71, 0).element)
    assert squarefree_over_q(f)
    ps = primes_in_window(100, 1000)
    skipped = sum(1 for p in ps if frobenius_cycle_type(f, p).status != "good")
    assert skipped <= len(ps) // 10


def test_equidistribution_t2_plus_1():
    # split vs inert for T^2+1 is p mod 4; direct count oracle over the
    # first 500 good odd primes
    f = [1, 0, 1]
    counts = {"split": 0, "inert": 0}
    direct = 0
    used = 0
    for p in primes_in_window(3, 100_000):
        if used >= 500:
            break
        s = frobenius_cycle_type(f, p)
        if s.status != "good":
            continue
        used += 1
        if s.cycle_type == (1, 1):
            counts["split"] += 1
        else:
            counts["inert"] += 1
        if p % 4 == 1:
            direct += 1
    assert used == 500
    assert counts["split"] == direct
    assert abs(counts["split"] / 500 - 0.5) <= 0.05
    assert abs(counts["inert"] / 500 - 0.5) <= 0.05


def test_primes_in_window():
    assert primes_in_window(1000, 1030) == (1009, 1013, 1019, 1021)
    assert primes_in_window(2, 13) == (2, 3, 5, 7, 11, 13)
    assert primes_in_window(20, 22) == ()


def test_primes_in_window_matches_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    windows = [(0, 1), (1, 1), (-5, 0), (2, 2), (4, 4), (97, 97), (0, 100),
               (1000, 1100), (3, 5000), (4900, 5000), (4999, 4999), (5000, 4000)]
    for lo, hi in windows:
        want = tuple(n for n in range(max(lo, 0), hi + 1) if is_prime(n))
        assert primes_in_window(lo, hi) == want, (lo, hi)
