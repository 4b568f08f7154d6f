"""Independent oracles for the exact rules: sympy's factor_list and
galois_group.  Test only; the package itself never imports sympy."""
import random
from fractions import Fraction as F

from sympy import Poly, Rational, factor_list, symbols
from sympy.polys.numberfields.galoisgroups import galois_group

from galwalk.exactmat import RationalPolynomial as P
from galwalk.exactmat import char_poly, exact_poly_root
from galwalk.experiment import ExperimentConfig, batch_seed, identify_sample
from galwalk.galois_id import (
    KIND_CERTIFIED_EXACT,
    KIND_REJECTED,
    PRIME_WINDOW,
)
from galwalk.modpoly import primes_in_window
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from galwalk.zfactor import factor_degrees

X = symbols("x")
PRIMES = primes_in_window(*PRIME_WINDOW)
# sympy's names for the transitive groups of degree 3 and 4
SYMPY_NAMES = {"S3": "S3", "A3": "C3", "S4": "S4", "A4": "A4", "D4": "D4",
               "C4": "C4", "V": "V4"}


def sympy_poly(f: P) -> Poly:
    return Poly([Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], X)


def sympy_degrees(f: P) -> tuple:
    _, factors = factor_list(sympy_poly(f).as_expr(), X)
    return tuple(sorted((Poly(g, X).degree() for g, e in factors for _ in range(e)),
                        reverse=True))


def random_factor(rng: random.Random, d: int) -> P:
    size = 10 ** rng.randint(1, 8)
    coeffs = [rng.randint(-size, size) for _ in range(d)]
    if rng.random() < 0.2:  # a non-integral factor exercises the scaling
        coeffs[0] = F(coeffs[0], rng.choice((2, 3, 4, 9)))
    return P(coeffs + [1])


def test_factor_degrees_match_sympy_factor_list():
    rng = random.Random(11)
    splits = [(2, 2), (2, 4), (3, 3), (4, 4), (1, 3), (1, 1, 2), (2, 2, 2),
              (3, 5), (2, 3, 3), (8,), (6,), (4,), (1, 1, 1, 1)]
    checked = 0
    for trial in range(130):
        split = splits[trial % len(splits)]
        f = P((1,))
        for d in split:
            f = f * random_factor(rng, d)
        if sympy_poly(f).sqf_part().degree() != f.degree:
            continue
        checked += 1
        assert factor_degrees(f, PRIMES).degrees == sympy_degrees(f), f
    assert checked >= 120


def test_exact_verdicts_match_sympy_on_sl3_and_sl4_walks():
    # walk_sl4's config at seed 1, for both dimensions
    for name in ("sl3", "sl4"):
        scen = builtin_scenarios()[name]
        spec = scen.coset(0)
        cfg = ExperimentConfig(scenario=name, k_values=(20, 30), samples=60, seed=1)
        for k in cfg.k_values:
            for sample in batch_sample(scen.admissible(), k, 60, batch_seed(1, k)):
                q = exact_poly_root(char_poly(sample.element), 1)
                if q is None:
                    continue
                out = identify_sample(sample, spec, cfg)
                detail = out.verdict.detail
                degrees = sympy_degrees(q)
                if degrees != (q.degree,):
                    assert out.kind == KIND_REJECTED and detail.startswith("rule (a)")
                    continue
                group, alternating = galois_group(sympy_poly(q), by_name=True)
                sym = SYMPY_NAMES[group.name]
                if sym == f"S{q.degree}":
                    assert out.kind == KIND_CERTIFIED_EXACT, (q, detail)
                    continue
                assert out.kind == KIND_REJECTED, (q, sym, detail)
                if detail.startswith("rule (b)"):
                    assert alternating
                else:
                    assert detail.startswith(f"rule (c): exact group {sym} ")
