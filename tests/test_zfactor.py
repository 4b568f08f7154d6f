import random
from fractions import Fraction as F

from galwalk.exactmat import RationalMatrix, char_poly
from galwalk.zfactor import integer_roots


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_integer_roots_against_known_roots():
    rng = random.Random(4)
    for _ in range(400):
        roots = sorted({rng.choice((rng.randint(-9, 9), rng.randint(-10**40, 10**40)))
                        for _ in range(rng.randint(0, 3))})
        f = [rng.choice((1, 1, -2, 3))]
        for r in roots:
            f = _int_mul(f, [-r, 1])
        # a cofactor without integer roots: positive everywhere
        n = rng.randint(0, 2)
        cofactor = [rng.randint(1, 10**20)] + [0] * (2 * n - 1) + [1] if n else [1]
        f = _int_mul(f, cofactor)
        assert integer_roots(f) == roots, f
    assert integer_roots([0, 0, -4, 0, 1]) == [-2, 0, 2]
    assert integer_roots([1, 0, 1]) == []
    # the divisor bound keeps a unit constant term cheap at any height
    assert integer_roots([1, -10**60, 3 * 10**59, 7, 1]) == []


def test_char_poly_scales_roots_to_integers():
    # diag(1/2, -2/3), den 6: chi = (T - 1/2)(T + 2/3) -> (T - 3)(T + 4)
    a = RationalMatrix.diagonal([F(1, 2), F(-2, 3)])
    ints = char_poly(a)
    assert a.den == 6 and ints == _int_mul([-3, 1], [4, 1])
    assert integer_roots(ints) == [-4, 3]
