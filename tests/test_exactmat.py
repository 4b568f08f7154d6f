import itertools
import math
import random
from fractions import Fraction as F

import pytest

from galwalk.exactmat import (
    DimensionMismatch,
    PrimeFieldPolynomial,
    RationalMatrix,
    RationalPolynomial,
    SingularMatrix,
    char_poly,
    det,
    is_rational_square,
    mat_inverse,
    mat_mul,
    reduce_poly_mod_p,
)
from galwalk.modpoly import add, mul, neg

I2 = RationalMatrix.identity(2)


def rand_matrix(rng, n, lo=-5, hi=5):
    return RationalMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rand_rational_matrix(rng, n, lo=-5, hi=5, max_den=6):
    return RationalMatrix(
        [[F(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(n)]
         for _ in range(n)]
    )


def det_leibniz(a: RationalMatrix) -> F:
    """Slow oracle: sum of sign(s) * a[0][s(0)] * ... over all permutations s."""
    total = F(0)
    for s in itertools.permutations(range(a.n)):
        inversions = sum(s[i] > s[j] for i, j in itertools.combinations(range(a.n), 2))
        total += (-1) ** inversions * math.prod(a.rows[i][s[i]] for i in range(a.n))
    return total


def char_poly_cofactor(a: RationalMatrix) -> RationalPolynomial:
    """Slow oracle: expand det(T*I - a) by cofactors over Q[T], on lists of
    Fraction coefficients."""

    def minor_det(rows_idx, cols_idx):
        if not rows_idx:
            return [F(1)]
        i = rows_idx[0]
        total = []
        for pos, j in enumerate(cols_idx):
            entry = [-a.rows[i][j], F(1)] if i == j else [-a.rows[i][j]]
            if not any(entry):
                continue
            sub = minor_det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1:])
            term = mul(entry, sub)
            total = add(total, neg(term) if pos % 2 else term)
        return total

    idx = tuple(range(a.n))
    return RationalPolynomial(minor_det(idx, idx))


def mat_mul_fractions(a: RationalMatrix, b: RationalMatrix) -> tuple:
    """Reference: the product on Fraction entries, as rows of Fractions."""
    cols = tuple(zip(*b.rows))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in cols)
        for row in a.rows
    )


def assert_canonical(m: RationalMatrix):
    assert m.den >= 1
    assert math.gcd(m.den, *itertools.chain.from_iterable(m.num)) == 1


def test_mat_mul_identity():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert mat_mul(I2, a) == a
    assert mat_mul(a, I2) == a


def test_mat_mul_inverse_pair():
    d = RationalMatrix.diagonal([2, 3])
    dinv = RationalMatrix.diagonal([F(1, 2), F(1, 3)])
    assert mat_mul(d, dinv) == I2


def test_mat_mul_involution():
    j = RationalMatrix([[0, 1], [1, 0]])
    assert mat_mul(j, j) == I2


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(I2, RationalMatrix.identity(3))


def test_mat_inverse_examples():
    assert mat_inverse(RationalMatrix.identity(4)) == RationalMatrix.identity(4)
    assert mat_inverse(RationalMatrix.diagonal([2, 3])) == RationalMatrix.diagonal(
        [F(1, 2), F(1, 3)]
    )
    assert mat_inverse(RationalMatrix([[1, 1], [0, 1]])) == RationalMatrix(
        [[1, -1], [0, 1]]
    )


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrix):
        mat_inverse(RationalMatrix([[1, 2], [2, 4]]))


def test_mat_inverse_involution_random():
    rng = random.Random(101)
    singular = 0
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        for m in (rand_matrix(rng, n), rand_rational_matrix(rng, n, -1, 1)):
            # SingularMatrix is raised exactly when the independent det is 0
            if det_leibniz(m) == 0:
                singular += 1
                with pytest.raises(SingularMatrix):
                    mat_inverse(m)
                continue
            assert mat_inverse(mat_inverse(m)) == m
            assert mat_mul(m, mat_inverse(m)) == RationalMatrix.identity(n)
    assert singular > 0


def test_mat_mul_matches_fraction_reference():
    rng = random.Random(8)
    for n in range(1, 6):
        for _ in range(12):
            a = rand_rational_matrix(rng, n, -6, 6)
            b = rand_rational_matrix(rng, n, -6, 6)
            ab = mat_mul(a, b)
            assert_canonical(ab)
            ref = mat_mul_fractions(a, b)
            assert ab.rows == ref
            assert ab == RationalMatrix(ref) and hash(ab) == hash(RationalMatrix(ref))


def test_equal_matrices_hash_equal():
    rng = random.Random(9)
    for n in range(1, 6):
        for _ in range(8):
            a = rand_rational_matrix(rng, n)
            b = rand_rational_matrix(rng, n)
            if det(a) == 0 or det(b) == 0:
                continue
            for m in (
                RationalMatrix(a.rows),
                mat_mul(mat_mul(a, b), mat_inverse(b)),
                mat_inverse(mat_inverse(a)),
            ):
                assert_canonical(m)
                assert m == a and hash(m) == hash(a)


def test_mat_inverse_canonical():
    rng = random.Random(10)
    negative = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4])
        a = rand_rational_matrix(rng, n)
        if det(a) == 0:
            continue
        negative += char_poly(a).coeffs[0] < 0
        inv = mat_inverse(a)
        assert_canonical(inv)
        assert inv == RationalMatrix(inv.rows)
        assert mat_mul(a, inv) == RationalMatrix.identity(n)
    assert negative > 0


def reduce_matrix_entrywise(m: RationalMatrix, p: int):
    """Reference: per-entry reduction mod p; None if p divides a denominator."""
    if any(e.denominator % p == 0 for row in m.rows for e in row):
        return None
    return tuple(
        tuple(e.numerator * pow(e.denominator, -1, p) % p for e in row)
        for row in m.rows
    )


def test_reduce_matrix_matches_entrywise_reference():
    from galwalk.finfield import BadPrimeError, reduce_matrix

    rng = random.Random(11)
    bad = 0
    for _ in range(60):
        m = rand_rational_matrix(rng, rng.randint(1, 5), -9, 9)
        for p in (2, 3, 5, 7, 13):
            ref = reduce_matrix_entrywise(m, p)
            if ref is None:
                bad += 1
                with pytest.raises(BadPrimeError):
                    reduce_matrix(m, p)
            else:
                assert reduce_matrix(m, p) == ref
    assert bad > 0


def test_char_poly_examples():
    assert char_poly(I2) == RationalPolynomial((1, -2, 1))
    assert char_poly(RationalMatrix.diagonal([2, 3])) == RationalPolynomial((6, -5, 1))
    companion = RationalMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert char_poly(companion) == RationalPolynomial((-2, 0, 0, 1))


def test_char_poly_monic_and_degree():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        p = char_poly(rand_matrix(rng, n))
        assert p.degree == n and p.is_monic()


def test_char_poly_against_cofactor_expansion():
    # validation oracle for the Faddeev-LeVerrier recurrence
    rng = random.Random(12345)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 5])
        m = rand_matrix(rng, n)
        assert char_poly(m) == char_poly_cofactor(m)
    # denominators 1..6 take the common-denominator path into the integer kernel
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 5])
        m = rand_rational_matrix(rng, n)
        assert char_poly(m) == char_poly_cofactor(m)


def test_char_poly_conjugation_invariance():
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 3, 4])
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        if det(a) == 0:
            continue
        conj = mat_mul(mat_mul(a, b), mat_inverse(a))
        assert char_poly(conj) == char_poly(b)
        checked += 1


def test_det_against_leibniz_expansion():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        for m in (
            rand_matrix(rng, n),
            rand_matrix(rng, n, -1, 1),  # often singular
            rand_rational_matrix(rng, n),
        ):
            assert det(m) == det_leibniz(m)


def test_reduce_poly_mod_p_examples():
    assert reduce_poly_mod_p(RationalPolynomial((6, -5, 1)), 7) == PrimeFieldPolynomial(
        7, (6, 2, 1)
    )
    assert reduce_poly_mod_p(RationalPolynomial((0, F(-1, 2), 1)), 2) is None
    assert reduce_poly_mod_p(RationalPolynomial((1, 0, 1)), 5) == PrimeFieldPolynomial(
        5, (1, 0, 1)
    )


def test_reduce_poly_mod_p_denominator():
    # T^2 / 2 + 1: the leading numerator is a unit mod 2, the denominator is not
    f = RationalPolynomial((1, 0, F(1, 2)))
    assert (f.den, f.num) == (2, (2, 0, 1))
    assert reduce_poly_mod_p(f, 2) is None
    assert reduce_poly_mod_p(f, 3) == PrimeFieldPolynomial(3, (1, 0, 2))


def test_polynomial_canonical_form():
    f = RationalPolynomial((F(1, 2), F(-2, 3), 1, 0))
    assert (f.den, f.num) == (6, (3, -4, 6)) and f.degree == 2 and f.is_monic()
    assert f.coeffs == (F(1, 2), F(-2, 3), F(1))
    assert f == RationalPolynomial.from_int((-6, 8, -12), -12)
    assert hash(f) == hash(RationalPolynomial.from_int((-6, 8, -12), -12))
    assert RationalPolynomial.from_int((4, 2)) != RationalPolynomial((2, 1))
    zero = RationalPolynomial((0, 0))
    assert (zero.den, zero.num, zero.degree, zero.is_monic()) == (1, (), -1, False)


def test_reduce_poly_leading_drop():
    f = RationalPolynomial((1, 1, 5))  # leading coefficient 5
    assert reduce_poly_mod_p(f, 5) is None


def test_is_rational_square():
    assert is_rational_square(4)
    assert is_rational_square(3 ** 40)
    assert not is_rational_square(6)
    assert not is_rational_square(3 ** 41)
    assert not is_rational_square(-4)
    assert is_rational_square(0)


def test_commutation_with_mod_p_reduction():
    # char_poly then reduce == reduce then char_poly (good primes)
    from galwalk.finfield import charpoly_mod_p, reduce_matrix

    rng = random.Random(2024)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        m = rand_matrix(rng, n)
        for p in (2, 3, 5, 13, 97):
            assert reduce_poly_mod_p(char_poly(m), p) == charpoly_mod_p(
                reduce_matrix(m, p), p
            )
