import itertools
import math
import random
from fractions import Fraction as F

import pytest

from galwalk.exactmat import (
    DimensionMismatch,
    PrimeFieldPolynomial,
    RationalMatrix,
    SingularMatrix,
    _from_int,
    char_poly,
    det,
    is_rational_square,
    mat_inverse,
    mat_mul,
    product_of,
    reduce_poly_mod_p,
    right_action,
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


def char_poly_cofactor(a: RationalMatrix) -> list:
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
    return minor_det(idx, idx)


def roots_scaled(f, d) -> list:
    """d^n f(T / d) for a monic f of degree n: the roots of f times d."""
    n = len(f) - 1
    return [c * d ** (n - i) for i, c in enumerate(f)]


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
    # the integer product 6 I over 6 comes out in lowest terms: I over 1
    product = mat_mul(d, dinv)
    assert product == I2 and hash(product) == hash(I2)
    assert (product.den, product.num) == (1, ((1, 0), (0, 1)))


def test_from_int_makes_a_negative_denominator_positive():
    # its sign moves to the numerators, with a gcd of 1 (nothing to divide
    # out) and of 2 alike
    for num, den, expected in (
        ([[1, 2], [3, 5]], -1, (1, ((-1, -2), (-3, -5)))),
        ([[1, 2], [3, 4]], -3, (3, ((-1, -2), (-3, -4)))),
        ([[2, 4], [6, 8]], -4, (2, ((-1, -2), (-3, -4)))),
    ):
        m = _from_int(num, den)
        assert (m.den, m.num) == expected
        assert m == RationalMatrix(m.rows) and hash(m) == hash(RationalMatrix(m.rows))


def test_mat_mul_involution():
    j = RationalMatrix([[0, 1], [1, 0]])
    assert mat_mul(j, j) == I2


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(I2, RationalMatrix.identity(3))


def test_mat_inverse_examples():
    assert mat_inverse(RationalMatrix.identity(4)) == RationalMatrix.identity(4)
    assert mat_inverse(RationalMatrix([[F(-2, 3)]])) == RationalMatrix([[F(-3, 2)]])
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
        n = rng.choice([1, 2, 3, 4, 5])
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


def test_column_action_products_match_mat_mul_on_dense_matrices():
    # dense rational letters, zero entries and zero columns included, so
    # every column changes and sums of several scaled columns are formed
    rng = random.Random(11)
    for n in range(1, 6):
        assert product_of([], n) == RationalMatrix.identity(n)
        for _ in range(10):
            letters = [rand_rational_matrix(rng, n, -3, 3) for _ in range(rng.randint(1, 4))]
            fold = RationalMatrix.identity(n)
            for m in letters:
                fold = mat_mul(fold, m)
            product = product_of([right_action(m) for m in letters], n)
            assert_canonical(product)
            assert product == fold and hash(product) == hash(fold)
        zero_column = RationalMatrix([[int(j != 0) * (i + j) for j in range(n)] for i in range(n)])
        assert product_of([right_action(zero_column)], n) == zero_column


def test_right_action_lists_only_the_columns_that_differ_from_the_identity():
    for n in range(1, 5):
        assert right_action(RationalMatrix.identity(n)) == (1, ())
    u = RationalMatrix([[1, 0, 0], [0, 1, 0], [-2, 5, 1]])
    assert right_action(u) == (1, ((0, ((0, 1), (2, -2))), (1, ((1, 1), (2, 5)))))
    # over a denominator every column is scaled, so every column changes
    half = RationalMatrix.diagonal([F(1, 2), 1])
    assert right_action(half) == (2, ((0, ((0, 1),)), (1, ((1, 2),))))


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


def test_matrices_are_immutable():
    m = RationalMatrix([[1, F(1, 2)], [0, 1]])
    for name, value in (("n", 3), ("den", 1), ("num", ((1, 0), (0, 1)))):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        with pytest.raises(AttributeError):
            delattr(m, name)
    # no new attribute either: Python 3.11 raises TypeError here (its frozen
    # slotted dataclass calls super() on the class from before the slots)
    with pytest.raises((AttributeError, TypeError)):
        m.extra = 0
    assert (m.n, m.den, m.num) == (2, 2, ((2, 1), (0, 2)))


def test_mat_inverse_canonical():
    rng = random.Random(10)
    negative = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4])
        a = rand_rational_matrix(rng, n)
        if det(a) == 0:
            continue
        negative += char_poly(a)[0] < 0  # chi_a(0) times a.den^n
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
    assert char_poly(I2) == [1, -2, 1]
    assert char_poly(RationalMatrix.diagonal([2, 3])) == [6, -5, 1]
    companion = RationalMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert char_poly(companion) == [-2, 0, 0, 1]
    # den 6: the roots 1/2 and 1/3, each times 6
    assert char_poly(RationalMatrix.diagonal([F(1, 2), F(1, 3)])) == [6, -5, 1]


def test_char_poly_monic_and_degree():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        for m in (rand_matrix(rng, n), rand_rational_matrix(rng, n)):
            p = char_poly(m)
            assert len(p) == n + 1 and p[-1] == 1
            assert all(type(c) is int for c in p)


def test_char_poly_against_cofactor_expansion():
    # validation oracle for the Faddeev-LeVerrier recurrence
    rng = random.Random(12345)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 5])
        m = rand_matrix(rng, n)
        assert char_poly(m) == char_poly_cofactor(m)
    # denominators 1..6: d^n det(T*I - a) at T/d, d the common denominator
    dens = set()
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 5])
        m = rand_rational_matrix(rng, n)
        dens.add(m.den)
        assert char_poly(m) == roots_scaled(char_poly_cofactor(m), m.den)
    assert max(dens) > 1


def test_char_poly_conjugation_invariance():
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 3, 4])
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        if det(a) == 0:
            continue
        conj = mat_mul(mat_mul(a, b), mat_inverse(a))
        assert char_poly(conj) == roots_scaled(char_poly(b), conj.den)
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
    assert reduce_poly_mod_p([6, -5, 1], 7) == PrimeFieldPolynomial(7, (6, 2, 1))
    assert reduce_poly_mod_p([0, -1, 1], 2) == PrimeFieldPolynomial(2, (0, 1, 1))
    assert reduce_poly_mod_p([1, 0, 1], 5) == PrimeFieldPolynomial(5, (1, 0, 1))


def test_reduce_poly_mod_p_denominator():
    # diag(1/2, 3/2): chi's integral form (T - 1)(T - 3) reduces at p = 2 too
    a = RationalMatrix.diagonal([F(1, 2), F(3, 2)])
    assert a.den == 2 and char_poly(a) == [3, -4, 1]
    assert reduce_poly_mod_p(char_poly(a), 2) == PrimeFieldPolynomial(2, (1, 0, 1))
    assert reduce_poly_mod_p(char_poly(a), 3) == PrimeFieldPolynomial(3, (0, 2, 1))


def test_reduce_poly_mod_p_needs_monic():
    for f in ([1, 1, 5], [1, 0, -1], []):  # leading 5 would vanish mod 5
        with pytest.raises(ValueError):
            reduce_poly_mod_p(f, 5)


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
