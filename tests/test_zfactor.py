import random
from fractions import Fraction as F

from galwalk import zfactor
from galwalk.exactmat import RationalMatrix, char_poly
from galwalk.experiment import batch_seed
from galwalk.galois_id import PRIME_WINDOW
from galwalk.modpoly import evaluate, power_root, primes_in_window, resolvent_cubic
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from galwalk.zfactor import (
    DIRECT_BOUND,
    RESIDUE_PRIMES,
    _root_floors,
    _rootless_mod,
    factor_degrees,
    integer_roots,
)


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


def bisection_roots(c):
    """integer_roots by bisection alone, with neither shortcut."""
    c = list(c)
    roots = []
    if c[0] == 0:
        roots.append(0)
        while c[0] == 0:
            c.pop(0)
    bound = min(1 + max(map(abs, c)), abs(c[0]))
    return sorted(roots + [m for m in _root_floors(c, -bound, bound) if evaluate(c, m) == 0])


def residue_proof(c) -> bool:
    """Whether some prime in RESIDUE_PRIMES shows c has no integer root."""
    return any(_rootless_mod(c, p) for p in RESIDUE_PRIMES)


def test_integer_roots_agree_with_bisection_on_the_walk():
    # the walk_sl4 benchmark's samples: every chi, and the resolvent cubic
    # of each rootless quartic, as factor_degrees computes them
    gens = builtin_scenarios()["sl4"].admissible()
    chis, cubics = [], []
    for k in (20, 30):
        for sample in batch_sample(gens, k, 60, batch_seed(1, k)):
            chi = char_poly(sample.element)
            chis.append(chi)
            if power_root(chi, 1) is not None and not integer_roots(chi):
                cubics.append(resolvent_cubic(chi))
    assert all(abs(chi[0]) <= DIRECT_BOUND for chi in chis)
    proved = sum(map(residue_proof, cubics))
    with_roots = sum(bool(bisection_roots(c)) for c in cubics)
    # each route is taken: the direct test, the residue proof, bisection
    assert proved >= len(cubics) // 2 and with_roots >= 5, (proved, with_roots)
    for c in chis + cubics:
        assert integer_roots(c) == bisection_roots(c), c


def test_integer_roots_planted_in_every_residue_class():
    # (x - r) times a factor with no root mod p: r mod p is c's only root
    # mod p, so a residue test that misses it would drop r
    for p in RESIDUE_PRIMES:
        # x^2 + x + 1 mod 2, else x^2 - n for a non-residue n (Euler)
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1) if p > 2 else 0
        rootless = [1, 1, 1] if p == 2 else [-n, 0, 1]
        for residue in range(p):
            for r in (residue + 1000 * p, residue - 1000 * p):
                for c in ([-r, 1], _int_mul([-r, 1], rootless)):
                    assert abs(c[0]) > DIRECT_BOUND and not residue_proof(c)
                    assert integer_roots(c) == bisection_roots(c) == [r], c


def shifted_square_minus(n: int, s: int) -> list:
    """(x + s)^2 - n."""
    return [s * s - n, 2 * s, 1]


def test_integer_roots_with_a_root_mod_every_prime():
    # x^2 - 6 splits mod p wherever x^2 - 2 and x^2 - 3 do not, so the
    # product has a root mod every prime and no residue proof exists
    for s in (0, 5, -12):
        no_root = _int_mul(_int_mul(shifted_square_minus(2, s), shifted_square_minus(3, s)),
                           shifted_square_minus(6, s))
        assert abs(no_root[0]) > DIRECT_BOUND and not residue_proof(no_root)
        assert integer_roots(no_root) == bisection_roots(no_root) == [], no_root
        for r in range(-40, 41, 7):
            c = _int_mul(no_root, [-r, 1])
            assert not residue_proof(c)
            assert integer_roots(c) == bisection_roots(c) == [r], c


def test_musser_filter_reads_only_the_cofactor_parts(monkeypatch):
    # (x - 1)(x^5 - x - 1): the quintic is irreducible, and Musser's filter
    # proves it from the Frobenius patterns once the root's part 1 is left
    # out; counting that part too keeps proper subset sums alive, and
    # Zassenhaus runs for nothing
    def refuse(*args):
        raise AssertionError("Zassenhaus ran on an irreducible cofactor")

    monkeypatch.setattr(zfactor, "_zassenhaus", refuse)
    f = _int_mul([-1, 1], [-1, -1, 0, 0, 0, 1])
    assert factor_degrees(f, primes_in_window(*PRIME_WINDOW)).degrees == (5, 1)
