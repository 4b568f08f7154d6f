import random
from fractions import Fraction as F

import pytest

from galwalk.exactmat import RationalPolynomial
from galwalk.modpoly import integral_monic
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


def test_integral_monic_scales_roots():
    # (T - 1/2)(T + 2/3) = T^2 + T/6 - 1/3 -> (T - 3)(T + 4) with D = 6
    f = RationalPolynomial((F(-1, 3), F(1, 6), 1))
    assert (f.den, f.num) == (6, (-2, 1, 6))
    ints = integral_monic(f)
    assert ints == _int_mul([-3, 1], [4, 1])
    assert integer_roots(ints) == [-4, 3]
    with pytest.raises(ValueError):
        integral_monic(RationalPolynomial((1, 2)))
