"""Independent oracles for the exact rules and the integer kernel: sympy's
factor_list, galois_group, sqf_list and discriminant.  Test only; the
package itself never imports sympy."""
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import sympy
from sympy import QQ, Poly, Rational, factor_list, symbols
from sympy.polys.numberfields.galoisgroups import galois_group

from galwalk.exactmat import RationalMatrix, char_poly
from galwalk.experiment import ExperimentConfig, batch_seed, identify_sample
from galwalk.galois_id import (
    KIND_CERTIFIED_EXACT,
    KIND_REJECTED,
    PRIME_WINDOW,
)
from galwalk.modpoly import (
    derivative,
    discriminant,
    mul,
    power_root,
    primes_in_window,
    prs_gcd,
    squarefree_over_q,
)
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from galwalk.zfactor import factor_degrees

X = symbols("x")
PRIMES = primes_in_window(*PRIME_WINDOW)
# sympy's names for the transitive groups of degree 2 to 4, as rule (c)
# names them
SYMPY_NAMES = {"S2": "C2", "S3": "S3", "A3": "C3", "S4": "S4", "A4": "A4",
               "D4": "D4", "C4": "C4", "V": "V4"}


def sympy_poly(f) -> Poly:
    """f's degree-indexed coefficients, ints or Fractions, as a sympy Poly."""
    return Poly([Rational(F(c).numerator, F(c).denominator) for c in reversed(f)], X)


def companion(f) -> RationalMatrix:
    """The companion matrix of a monic f over Q: its chi is f."""
    n = len(f) - 1
    return RationalMatrix(
        [[int(i == j + 1) for j in range(n - 1)] + [-f[i]] for i in range(n)]
    )


def sympy_degrees(f) -> tuple:
    _, factors = factor_list(sympy_poly(f).as_expr(), X)
    return tuple(sorted((Poly(g, X).degree() for g, e in factors for _ in range(e)),
                        reverse=True))


def sympy_galois_name(f) -> str | None:
    """sympy's Gal(f) for an irreducible f of degree 2 to 4, named as in
    SYMPY_NAMES; None for a reducible f (sympy names transitive groups
    only)."""
    if sympy_degrees(f) != (len(f) - 1,):
        return None
    group, _ = galois_group(sympy_poly(f), by_name=True)
    return SYMPY_NAMES[group.name]


def random_factor(rng: random.Random, d: int) -> list:
    size = 10 ** rng.randint(1, 8)
    coeffs = [rng.randint(-size, size) for _ in range(d)]
    if rng.random() < 0.2:  # a non-integral factor exercises the scaling
        coeffs[0] = F(coeffs[0], rng.choice((2, 3, 4, 9)))
    return coeffs + [1]


def test_factor_degrees_match_sympy_factor_list():
    rng = random.Random(11)
    splits = [(2, 2), (2, 4), (3, 3), (4, 4), (1, 3), (1, 1, 2), (2, 2, 2),
              (3, 5), (2, 3, 3), (8,), (6,), (4,), (1, 1, 1, 1)]
    checked = scaled = 0
    for trial in range(130):
        split = splits[trial % len(splits)]
        f = reduce(mul, (random_factor(rng, d) for d in split))
        if sympy_poly(f).sqf_part().degree() != len(f) - 1:
            continue
        checked += 1
        # sympy factors f over Q; factor_degrees sees f's integral form,
        # the chi of f's companion matrix
        a = companion(f)
        scaled += a.den > 1
        assert factor_degrees(char_poly(a), PRIMES).degrees == sympy_degrees(f), f
    assert checked >= 120 and scaled >= 20


# quartics whose factor degrees the resolvent cubic alone settles:
# (coefficients, sympy's degrees, the resolvent cubic's integer root count)
NAMED_QUARTICS = (
    ([1, 0, 0, 0, 1], (4,), 3),  # x^4 + 1
    ([1, 0, -10, 0, 1], (4,), 3),  # x^4 - 10x^2 + 1, sqrt2 + sqrt3
    ([-2, 0, 0, 0, 1], (4,), 1),  # x^4 - 2
    ([2, 0, 4, 0, 1], (4,), 1),  # x^4 + 4x^2 + 2
    ([4, 0, 0, 0, 1], (2, 2), 3),  # (x^2 + 2x + 2)(x^2 - 2x + 2)
    ([1, 0, 1, 0, 1], (2, 2), 3),  # (x^2 + x + 1)(x^2 - x + 1)
    # two rootless factors with constant terms near 10^9
    (mul([1_000_000_007, 31_623, 1], [999_999_937, -44_721, 1]), (2, 2), 1),
    # both pairings of q = 3, 5 with p = 1, 3: whichever pairing the split
    # tries first, one of these two needs the other; the second's theta = 8
    # is the last of its resolvent's three roots
    (mul([5, 1, 1], [3, 3, 1]), (2, 2), 1),
    (mul([3, 1, 1], [5, 3, 1]), (2, 2), 3),
)


def test_quartic_factor_degrees_need_no_prime():
    for f, degrees, root_count in NAMED_QUARTICS:
        assert sympy_degrees(f) == degrees, f
        found = factor_degrees(f, ())
        assert found.degrees == degrees and found.types == frozenset(), f
        assert len(found.resolvent_roots) == root_count, f
    rng = random.Random(31)

    def monic(d, size):
        return [rng.randint(-size, size) for _ in range(d)] + [1]

    seen = Counter()
    while sum(seen.values()) < 120:
        size = 10 ** rng.randint(1, 9)
        kind = rng.randrange(6)
        if kind == 0:  # a random quartic: almost always irreducible
            f = monic(4, size)
        elif kind == 1:  # a biquadratic x^4 + b x^2 + d
            f = [rng.randint(-size, size), 0, rng.randint(-size, size), 0, 1]
        else:  # a product: 2 + 2, a quartic cofactor beside a linear
            # factor, 1 + 3 or 1 + 1 + 2
            split = ((2, 2), (1, 4), (1, 3), (1, 1, 2))[kind - 2]
            f = reduce(mul, (monic(d, size) for d in split))
        if sympy_poly(f).sqf_part().degree() != len(f) - 1:
            continue
        degrees = sympy_degrees(f)
        assert factor_degrees(f, ()).degrees == degrees, f
        seen[degrees] += 1
    for degrees in ((4,), (2, 2), (4, 1), (3, 1), (2, 1, 1)):
        assert seen[degrees] >= 15, seen


def test_exact_verdicts_match_sympy_on_sl3_and_sl4_walks():
    # walk_sl4's config at seed 1, for both dimensions
    for name in ("sl3", "sl4"):
        scen = builtin_scenarios()[name]
        spec = scen.coset(0)
        cfg = ExperimentConfig(scenario=name, k_values=(20, 30), samples=60, seed=1)
        for k in cfg.k_values:
            for sample in batch_sample(scen.admissible(), k, 60, batch_seed(1, k)):
                q = power_root(char_poly(sample.element), 1)
                if q is None:
                    continue
                out = identify_sample(sample, spec, cfg)
                detail = out.detail
                degrees = sympy_degrees(q)
                if degrees != (len(q) - 1,):
                    assert out.kind == KIND_REJECTED and detail.startswith("rule (a)")
                    continue
                group, alternating = galois_group(sympy_poly(q), by_name=True)
                sym = SYMPY_NAMES[group.name]
                if sym == f"S{len(q) - 1}":
                    assert out.kind == KIND_CERTIFIED_EXACT, (q, detail)
                    continue
                assert out.kind == KIND_REJECTED, (q, sym, detail)
                if detail.startswith("rule (b)"):
                    assert alternating
                else:
                    assert detail.startswith(f"rule (c): exact group {sym} ")


def test_exact_verdicts_match_sympy_on_the_sltau2_identity_coset():
    # chi = q^2 there; Gal(chi) = Gal(q) acts on both copies of each root
    scen = builtin_scenarios()["sltau2"]
    spec = scen.coset(0)
    assert spec.multiplicity == 2
    cfg = ExperimentConfig(scenario="sltau2", k_values=(10, 20, 30), samples=20, seed=1)
    kinds = set()
    for k in cfg.k_values:
        for sample in batch_sample(scen.admissible(), k, 20, batch_seed(1, k)):
            if sample.label != 0:
                continue
            q = power_root(char_poly(sample.element), 2)
            if q is None:
                continue
            out = identify_sample(sample, spec, cfg)
            kinds.add(out.kind)
            if sympy_degrees(q) != (2,):
                assert out.kind == KIND_REJECTED and out.detail.startswith("rule (a)")
                continue
            group, _ = galois_group(sympy_poly(q), by_name=True)
            assert group.name == "S2"
            assert out.kind == KIND_CERTIFIED_EXACT, (q, out.detail)
    assert KIND_CERTIFIED_EXACT in kinds


def sympy_power_root(f, e: int) -> list | None:
    """q with f = q**e and q monic squarefree, read off sympy's sqf_list."""
    _, factors = Poly(sympy_poly(f), X, domain=QQ).sqf_list()
    if any(m != e for _, m in factors):
        return None
    q = reduce(lambda a, b: a * b, (g for g, _ in factors), Poly(1, X, domain=QQ))
    q = q.monic()
    return [F(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())]


def check_kernel(f: list, e: int) -> bool:
    """power_root and squarefree_over_q against sqf_list, for a monic
    integer f; True iff f = q**e."""
    want = sympy_power_root(f, e)
    assert power_root(f, e) == want, (f, e)
    assert squarefree_over_q(f) == (sympy_power_root(f, 1) is not None), f
    return want is not None


def test_kernel_matches_sympy_sqf_list_on_random_products():
    rng = random.Random(23)

    def monic(d):
        return [rng.randint(-4, 4) for _ in range(d)] + [1]

    powers = repeated = checked = 0
    while checked < 100:
        e = rng.choice((1, 2, 3))
        factors = [monic(rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        repeat = rng.random() < 0.2  # q with a repeated factor
        if repeat:
            factors.append(factors[0])
        q = reduce(mul, factors)
        r = [1] if rng.random() < 0.5 else monic(rng.randint(1, 2))
        f = reduce(mul, [q] * e + [r])
        if len(f) - 1 > 8:
            continue
        checked += 1
        repeated += repeat
        powers += check_kernel(f, e)
    assert powers >= 20 and repeated >= 10


def test_kernel_matches_sympy_sqf_list_on_walk_samples():
    # sltau2 has e = 2 on its identity coset; sltau4 has degree 8 and
    # slcyc2x3 degree 6
    powers = 0
    for name in ("sltau2", "sltau4", "slcyc2x3"):
        scen = builtin_scenarios()[name]
        for k in (10, 20):
            for sample in batch_sample(scen.admissible(), k, 20, batch_seed(1, k)):
                e = scen.coset(sample.label).multiplicity
                powers += check_kernel(char_poly(sample.element), e)
    assert powers >= 60


def test_squarefree_closed_form_matches_prs_and_sympy_to_degree_4():
    # power_root(f, 1) reads the discriminant at degree <= 4; the primitive
    # remainder sequence's gcd(f, f') and sympy's sqf_list must agree
    rng = random.Random(32)
    fixed = [
        mul(mul([-1, 1], [-1, 1]), [1, 0, 1]),  # (x - 1)^2 (x^2 + 1)
        mul([1, 0, 1], [1, 0, 1]),              # (x^2 + 1)^2
        [0, 0, 0, 0, 1],                        # x^4
        mul([-1, 1, 1], [-1, 1, 1]),            # (x^2 + x - 1)^2
        mul([-2, 0, 1], [-2, 0, 1]),            # (x^2 - 2)^2
        [0, 0, 1], [4, 4, 1], [0, 3, 0, 1], [2, -3, 0, 1],
    ]
    randoms = [[rng.randint(-3, 3) for _ in range(d)] + [1]
               for d in (2, 3, 4) for _ in range(150)]
    repeated = 0
    for f in fixed + randoms:
        prs = prs_gcd(f, derivative(f)) == [1]
        assert (power_root(f, 1) is not None) == prs == check_kernel(f, 1), f
        repeated += not prs
    assert all(power_root(f, 1) is None for f in fixed[:5]) and repeated >= 20


def test_kernel_matches_sympy_on_denominator_6():
    q = [F(-1, 6), F(-1, 6), 1]  # (T - 1/2)(T + 1/3)
    f = mul(q, q)
    # sympy on the rational f itself: a square, not squarefree
    assert sympy_power_root(f, 2) == q and sympy_power_root(f, 1) is None
    # the companion matrix has den 36, so chi's roots scale to 18 and -12
    a = companion(f)
    chi = char_poly(a)
    assert a.den == 36 and check_kernel(chi, 2) and not check_kernel(chi, 1)
    assert power_root(chi, 2) == [-216, -6, 1]


def test_discriminant_matches_sympy_above_degree_4():
    # degrees 5, 6 and 8 take the integer Sylvester determinant
    for f in ([3, -1, 0, 2, 0, 1], [-7, 2, 5, 0, -3, 1, 1], [1, 0, -9, 4, 0, 0, 2, 0, 1]):
        assert discriminant(f) == sympy.discriminant(Poly(list(reversed(f)), X)), f
