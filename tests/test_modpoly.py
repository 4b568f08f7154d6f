import random
from fractions import Fraction as F

import pytest

from galwalk.exactmat import PrimeFieldPolynomial, RationalMatrix, RationalPolynomial, char_poly
from galwalk.modpoly import (
    _pf_deriv,
    _pf_fulldiv,
    _pf_gcd,
    _pf_monic,
    _pf_mul,
    _pf_rem,
    _trim,
    distinct_degree_pattern,
    frobenius_cycle_type,
    make_cycle_type,
    primes_in_window,
    repeat_parts,
    squarefree_over_q,
)

from fp_brute import brute_force_pattern


def test_cycle_type_canonical():
    assert make_cycle_type([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        make_cycle_type([0, 1])
    assert repeat_parts((2, 1), 2) == (2, 2, 1, 1)
    assert repeat_parts((3,), 1) == (3,)


def test_squarefree_over_q():
    assert squarefree_over_q(RationalPolynomial((6, -5, 1)))
    assert not squarefree_over_q(RationalPolynomial((1, -2, 1)))
    assert squarefree_over_q(RationalPolynomial((1, 0, 1)))


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


def _pf_powmod(base, e, mod, p):
    result = [1]
    base = _pf_rem(base, mod, p)
    while e:
        if e & 1:
            result = _pf_rem(_pf_mul(result, base, p), mod, p)
        base = _pf_rem(_pf_mul(base, base, p), mod, p)
        e >>= 1
    return result


def ddf_by_powering(g):
    """Reference DDF: each x^(p^d) is the previous one raised to the p-th
    power by square-and-multiply, reduced mod p after every product."""
    p = g.p
    f = _pf_monic(list(g.coeffs), p)
    if len(_pf_gcd(f, _pf_deriv(f, p), p)) - 1 > 0:
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
        g_d = _pf_gcd(rem, _trim(diff), p)
        deg = len(g_d) - 1
        if deg > 0:
            parts.extend([d] * (deg // d))
            rem = _pf_fulldiv(rem, g_d, p)
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
                coeffs = _pf_mul(coeffs, [rng.randrange(p) for _ in range(k)] + [1], p)
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
    f = RationalPolynomial((6, -5, 1))
    s = frobenius_cycle_type(f, 7)
    assert s.status == "good" and s.cycle_type == (1, 1)
    # T^3 - 2 at p=7: 2 is not a cube mod 7 (cubes are {0,1,6}), so the
    # cubic is irreducible and the pattern is (3)
    assert {x**3 % 7 for x in range(7)} == {0, 1, 6}
    s3 = frobenius_cycle_type(RationalPolynomial((-2, 0, 0, 1)), 7)
    assert s3.cycle_type == (3,)
    assert s3.cycle_type == brute_force_pattern([-2, 0, 0, 1], 7)
    bad = frobenius_cycle_type(RationalPolynomial((0, F(-1, 7), 1)), 7)
    assert bad.status == "bad_prime" and bad.cycle_type is None


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
    f = RationalPolynomial((1, 0, 1))
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
