import random
import time
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest
from sympy.polys.numberfields.galoisgroups import galois_group

from galwalk import galois_id, zfactor
from galwalk.exactmat import (
    RationalMatrix,
    char_poly,
    is_rational_square,
    mat_inverse,
    mat_mul,
)
from galwalk.galois_id import (
    BUDGET,
    COVERAGE_MIN,
    KIND_CERTIFIED_EXACT,
    KIND_CONSISTENT,
    KIND_INCONCLUSIVE,
    KIND_REJECTED,
    PRIME_WINDOW,
    TV_MAX,
    SampleSummary,
    collect_samples,
    exact_verdict,
    expand_summary,
    identify,
    match_verdict,
    quadratic_galois,
    small_group_distribution,
    tv_distance,
)
from galwalk.modpoly import (
    discriminant,
    make_cycle_type,
    mul,
    power_root,
    primes_in_window,
)
from galwalk.experiment import ExperimentConfig, batch_seed, identify_sample
from galwalk.permkit import cyclic_group, enumerate_group, symmetric_group, wreath_product
from galwalk.picatalog import (
    pi_restriction_of_scalars,
    pi_sl_n,
    pi_sl_n_doubled,
    pi_sl_n_tau_reciprocal,
    pi_sl_power_cyclic,
    pi_sl_power_identity,
)
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from galwalk.zfactor import factor_degrees
from test_sympy_oracles import sympy_degrees, sympy_galois_name, sympy_poly
from fraction_rows import fraction_rows

PRIMES = primes_in_window(*PRIME_WINDOW)


def pprod(*factors):
    """The product of the given coefficient lists."""
    return reduce(mul, factors)


def rule_c_group(f):
    """Gal(f) for a monic squarefree integer f of degree 2 to 4 as rule (c)
    names it, with its orbit lengths (the factor degrees); the tests below
    pin that naming to known answers."""
    found = factor_degrees(f, PRIMES)
    name = galois_id._small_group_name(
        f, found.degrees, discriminant(f), found.resolvent_roots
    )
    return name, found.degrees


def group_name(f):
    return rule_c_group(f)[0]


def certify_sn(types, n: int) -> bool:
    """Transposition + long-cycle certificate for the full symmetric group:
    the test oracle for S_n.

    types is the set of observed cycle types.  Sound given that they are
    realized by actual Galois elements: an n-cycle forces transitivity, a
    transposition plus a prime-length cycle longer than n/2 leave only S_n
    itself.
    """
    types = set(types)
    if make_cycle_type((n,)) not in types:
        return False
    transposition = make_cycle_type([2] + [1] * (n - 2))
    if transposition not in types:
        return False
    for ct in types:
        for part in ct:
            if part > n / 2 and primes_in_window(part, part):
                return True
    return False


def summary_from(n, freqs):
    d = {tuple(sorted(t, reverse=True)): F(v) for t, v in freqs.items()}
    return SampleSummary(n, 500, 0, d)


def test_quadratic_galois():
    assert quadratic_galois([-6, 0, 1]) == "order2"  # T^2 - 6 = T^2 - 2*3
    assert quadratic_galois([-4, 0, 1]) == "trivial"
    assert quadratic_galois([6, -5, 1]) == "trivial"
    # a zero discriminant is a repeated root: no Galois verdict
    assert quadratic_galois([1, -2, 1]) is None
    # diag(1/2, 1/2): chi = (T - 1/2)^2, whose integral form is (T - 1)^2
    assert quadratic_galois(char_poly(RationalMatrix.diagonal([F(1, 2)] * 2))) is None
    # diag(1/2, 1/3): the roots 3 and 2, rational
    assert quadratic_galois(char_poly(RationalMatrix.diagonal([F(1, 2), F(1, 3)]))) == (
        "trivial"
    )


# classification table from Cohen's standard examples
QUARTIC_TABLE = [
    ((1, 1, 1, 1, 1), "C4"),
    ((1, 0, 0, 0, 1), "V4"),
    ((-2, 0, 0, 0, 1), "D4"),
    ((12, 8, 0, 0, 1), "A4"),
    ((1, 1, 0, 0, 1), "S4"),
    ((-1, -1, 0, 0, 1), "S4"),
]


def test_quartic_galois_exact_irreducible_table():
    for coeffs, want in QUARTIC_TABLE:
        assert group_name(list(coeffs)) == want
        assert sympy_galois_name(list(coeffs)) == want


def test_quartic_galois_exact_reducible():
    assert rule_c_group(pprod([-2, 0, 1], [-3, 0, 1])) == ("V4", (2, 2))
    assert rule_c_group(pprod([-2, 0, 1], [-8, 0, 1])) == ("C2", (2, 2))
    assert (
        group_name(pprod([-1, 1], [-2, 1], [-3, 1], [-5, 1])) == "1"
    )
    assert group_name(pprod([-2, 1], [2, 0, 0, 1])) == "S3"
    assert group_name(pprod([-1, 1], [1, -3, 0, 1])) == "C3"
    assert group_name(pprod([-7, 1], [-11, 1], [1, 1, 1])) == "C2"
    # a repeated root never reaches rule (c): chi = (x^2 - 2)^2 is not
    # squarefree, and at e = 2 rule (c) sees q = x^2 - 2
    square = pprod([-2, 0, 1], [-2, 0, 1])
    assert discriminant(square) == 0
    assert power_root(square, 1) is None
    assert power_root(square, 2) == [-2, 0, 1]


def test_quartic_reciprocal_family():
    # T^4 - t T^2 + 1: V4 whenever irreducible (constant term is a square),
    # C2 when it splits into two quadratics sharing a field
    for t in (3, 5, 12, 99, -3, 10**12 + 7):
        want = "C2" if (is_rational_square(t - 2) or is_rational_square(t + 2)) else "V4"
        assert group_name([1, 0, -t, 0, 1]) == want


def test_quartic_oracle_agrees_with_frobenius_statistics():
    # each named group's defining polynomial has empirical Frobenius types
    # TV-matching the group's exact distribution within 0.1 at 500 primes
    groups = {
        "C4": enumerate_group([(1, 2, 3, 0)]),
        "V4": enumerate_group([(1, 0, 3, 2), (2, 3, 0, 1)]),
        "D4": enumerate_group([(1, 2, 3, 0), (1, 0, 3, 2)]),
        "A4": enumerate_group([(1, 2, 0, 3), (0, 2, 3, 1)]),
        "S4": symmetric_group(4),
    }
    assert {name: g.order for name, g in groups.items()} == {
        "C4": 4, "V4": 4, "D4": 8, "A4": 12, "S4": 24,
    }
    for coeffs, name in QUARTIC_TABLE[:5]:
        f = list(coeffs)
        assert group_name(f) == name
        summary = collect_samples(f, (1_000, 200_000), 500)
        assert summary.good_count == 500
        tv = tv_distance(summary.empirical, groups[name].type_distribution)
        assert tv <= F(1, 10), (name, float(tv))


def test_collect_samples_examples():
    s = collect_samples([1, 0, 1], budget=500)
    assert s.good_count == 500 and s.degree == 2
    assert abs(s.empirical[(1, 1)] - F(1, 2)) <= F(5, 100)
    assert abs(s.empirical[(2,)] - F(1, 2)) <= F(5, 100)
    rational = collect_samples([2, -3, 1], budget=50)  # (T-1)(T-2)
    assert set(rational.empirical) == {(1, 1)}
    # a repeated root never reaches the scan (power_root proves q
    # squarefree first), and the scan classifies none of its reductions
    square = [1, -2, 1]
    assert power_root(square, 1) is None
    window = (1_000, 1_100)
    never = collect_samples(square, window, budget=50)
    assert never.good_count == 0 and never.empirical == {}
    assert never.bad_count == len(primes_in_window(*window))


def test_expand_summary():
    s = SampleSummary(2, 10, 0, {(2,): F(3, 5), (1, 1): F(2, 5)})
    e = expand_summary(s, 2)
    assert e.degree == 4
    assert e.empirical == {(2, 2): F(3, 5), (1, 1, 1, 1): F(2, 5)}
    assert expand_summary(s, 1) is s


def test_certify_sn():
    assert certify_sn({(3,), (2, 1), (1, 1, 1)}, 3)
    assert not certify_sn({(3,), (1, 1, 1)}, 3)
    assert certify_sn({(2,)}, 2)
    assert not certify_sn({(4,), (2, 1, 1)}, 4)
    assert certify_sn({(4,), (2, 1, 1), (3, 1)}, 4)


def trivial_of_degree(n):
    return enumerate_group([tuple(range(n))])


def test_collect_samples_stops_at_a_settled_kind():
    f = [1, 0, 1]  # split iff p = 1 mod 4
    full = collect_samples(f, budget=300)
    # only the identity type: the first inert prime settles "rejected"
    trivial = trivial_of_degree(2)
    early = collect_samples(f, budget=300, target=trivial)
    assert early.good_count < 5 and (2,) in early.empirical
    assert match_verdict(early, trivial).kind == match_verdict(full, trivial).kind
    assert match_verdict(early, trivial).kind == KIND_REJECTED
    # no type rejects S_2, so its scan runs the whole budget; the types
    # certify S_2 (certify_sn), and rule (c) proves it with no scan at all
    sym = collect_samples(f, budget=300, target=pi_sl_n(2))
    assert sym.good_count == 300 and certify_sn(sym.empirical, 2)
    assert match_verdict(sym, pi_sl_n(2)).kind == match_verdict(full, pi_sl_n(2)).kind
    assert exact_verdict(f, pi_sl_n(2), 1, PRIMES).kind == KIND_CERTIFIED_EXACT
    # multiplicity 2: judged on the doubled types (1,1,1,1) and (2,2)
    doubled = enumerate_group([(1, 0, 3, 2)])
    kept = collect_samples(f, budget=300, target=doubled, multiplicity=2)
    assert kept.good_count == 300
    cut = collect_samples(f, budget=300, target=trivial_of_degree(4), multiplicity=2)
    assert cut.good_count < 5


def test_match_verdict_consistent_and_certified():
    f = [1, 0, 1]
    s = collect_samples(f, budget=300)
    assert certify_sn(s.empirical, 2)
    # the scan's verdict is a threshold statement, for S_2 as for any
    # target of the same types
    assert match_verdict(s, pi_sl_n(2)).kind == KIND_CONSISTENT
    paired = enumerate_group([(1, 0)])
    v2 = match_verdict(s, paired)
    assert v2.kind == KIND_CONSISTENT
    # the certificate is rule (c)'s, proved before any prime is scanned
    verdict = identify(f, pi_sl_n(2))
    assert verdict.kind == KIND_CERTIFIED_EXACT and verdict.detail.startswith("rule (c)")


def test_match_verdict_degree_mismatch():
    s = summary_from(3, {(3,): F(1)})
    with pytest.raises(ValueError):
        match_verdict(s, pi_sl_n(2))


def test_match_verdict_hard_rejection():
    s = summary_from(2, {(2,): F(1, 2), (1, 1): F(1, 2)})
    target = enumerate_group([], degree=2)
    v = match_verdict(s, target)
    assert v.kind == KIND_REJECTED  # observed (2) impossible for the trivial group


def test_match_verdict_v4_against_d4():
    # V4 statistics against the dihedral target: all observed types possible,
    # but half the target's types are never seen, so the verdict is
    # inconclusive, with no distance reason
    v4_stats = summary_from(4, {(2, 2): F(3, 4), (1, 1, 1, 1): F(1, 4)})
    d4 = wreath_product(cyclic_group(2), cyclic_group(2))
    assert d4.order == 8
    assert len(d4.type_distribution) == 2 * len(v4_stats.empirical)
    v = match_verdict(v4_stats, d4)
    assert v.kind == KIND_INCONCLUSIVE and v.detail == ""
    # and against the reciprocal target it is consistent, at tv 0
    reciprocal = pi_sl_n_tau_reciprocal(2)
    assert tv_distance(v4_stats.empirical, reciprocal.type_distribution) == 0
    assert match_verdict(v4_stats, reciprocal).kind == KIND_CONSISTENT


def test_match_verdict_tv_mismatch_at_full_coverage_is_inconclusive():
    # a large distance proves nothing: the tv branch never rejects
    skewed = summary_from(4, {(2, 2): F(1, 2), (1, 1, 1, 1): F(1, 2)})
    target = pi_sl_n_tau_reciprocal(2)
    assert set(skewed.empirical) == set(target.type_distribution)
    assert tv_distance(skewed.empirical, target.type_distribution) == F(1, 4)
    v = match_verdict(skewed, target)
    assert v.kind == KIND_INCONCLUSIVE
    assert v.detail == "distribution mismatch at complete coverage"


def test_rejection_soundness_calibration():
    # synthetic data drawn from the target's own distribution must be
    # rejected with frequency < 1% at default thresholds
    rng = random.Random(8)
    # D4 and the order-128 sign-flip wreath C2 wr (C2 wr S_2)
    signflip = [
        wreath_product(cyclic_group(2), wreath_product(cyclic_group(2), symmetric_group(r)))
        for r in (1, 2)
    ]
    assert [g.order for g in signflip] == [8, 128]
    targets = [
        pi_sl_n(3),
        pi_sl_n(4),
        *signflip,
        pi_sl_n_tau_reciprocal(4),
    ]
    for target in targets:
        dist = list(target.type_distribution.items())
        types = [t for t, _ in dist]
        weights = [float(w) for _, w in dist]
        rejected = 0
        trials = 1000
        for _ in range(trials):
            counts = {}
            for ct in rng.choices(types, weights=weights, k=500):
                counts[ct] = counts.get(ct, 0) + 1
            emp = {ct: F(c, 500) for ct, c in counts.items()}
            summary = SampleSummary(target.degree, 500, 0, emp)
            if match_verdict(summary, target).kind == KIND_REJECTED:
                rejected += 1
        assert rejected < trials // 100, (target.name, target.order, rejected)


def test_thresholds_are_used():
    # the thresholds are fixed: tv at most 1/10, at full coverage
    assert (TV_MAX, COVERAGE_MIN) == (F(1, 10), 1)
    target = enumerate_group([(1, 0)])
    at_bound = summary_from(2, {(2,): F(3, 5), (1, 1): F(2, 5)})  # tv 1/10
    assert match_verdict(at_bound, target).kind == KIND_CONSISTENT
    beyond = summary_from(2, {(2,): F(2, 3), (1, 1): F(1, 3)})  # tv 1/6
    assert match_verdict(beyond, target).kind == KIND_INCONCLUSIVE
    # a distance far below 1/10 is not enough while a target type is unseen
    s4 = pi_sl_n(4).type_distribution
    most = {ct: freq for ct, freq in s4.items() if ct != (1, 1, 1, 1)}
    assert tv_distance(most, s4) == F(1, 48)
    v = match_verdict(SampleSummary(4, 500, 0, most), pi_sl_n(4))
    assert v.kind == KIND_INCONCLUSIVE and v.detail == ""


# hand-tabulated type distributions of the transitive degree-4 groups
QUARTIC_DISTRIBUTIONS = {
    "S4": {(1, 1, 1, 1): F(1, 24), (2, 1, 1): F(1, 4), (2, 2): F(1, 8),
           (3, 1): F(1, 3), (4,): F(1, 4)},
    "A4": {(1, 1, 1, 1): F(1, 12), (2, 2): F(1, 4), (3, 1): F(2, 3)},
    "D4": {(1, 1, 1, 1): F(1, 8), (2, 1, 1): F(1, 4), (2, 2): F(3, 8), (4,): F(1, 4)},
    "V4": {(1, 1, 1, 1): F(1, 4), (2, 2): F(3, 4)},
    "C4": {(1, 1, 1, 1): F(1, 4), (2, 2): F(1, 4), (4,): F(1, 2)},
}


def test_quartic_distribution_table_matches_enumeration():
    for name, dist in QUARTIC_DISTRIBUTIONS.items():
        assert small_group_distribution(name, (4,)) == dist
    # the intransitive groups by their orbits
    assert small_group_distribution("V4", (2, 2)) == {
        (1, 1, 1, 1): F(1, 4), (2, 1, 1): F(1, 2), (2, 2): F(1, 4)}
    assert small_group_distribution("C2", (2, 2)) == {(1, 1, 1, 1): F(1, 2), (2, 2): F(1, 2)}
    assert small_group_distribution("S3", (3, 1)) == {
        (1, 1, 1, 1): F(1, 6), (2, 1, 1): F(1, 2), (3, 1): F(1, 3)}


def transitive_v4():
    return enumerate_group([(1, 0, 3, 2), (2, 3, 0, 1)])


def test_exact_quartic_verdict():
    target = pi_sl_n_tau_reciprocal(2)  # transitive V4
    v = exact_verdict([1, 0, -5, 0, 1], target, 1, PRIMES)
    assert v.kind == KIND_CERTIFIED_EXACT
    assert v.detail == "rule (c): exact group V4 on orbits (4,)"
    v2 = exact_verdict([-2, 0, 0, 0, 1], target, 1, PRIMES)
    assert v2.kind == KIND_REJECTED and v2.detail.startswith("rule (c): exact group D4")
    # two quadratics: two orbits against a transitive target
    v3 = exact_verdict(pprod([-2, 0, 1], [-8, 0, 1]), target, 1, PRIMES)
    assert v3.kind == KIND_REJECTED and v3.detail.startswith("rule (a)")
    with pytest.raises(ValueError):
        exact_verdict([1, 0, -5, 0, 1], pi_sl_n(3), 1, PRIMES)


def test_reducible_quartic_is_never_certified_against_transitive_v4():
    # (x^2 - 2)(x^2 - 3) has Galois group V4 acting on two orbits of 2; the
    # old quartic oracle named it "V4" and certified it against the
    # transitive V4
    v = exact_verdict(pprod([-2, 0, 1], [-3, 0, 1]), transitive_v4(), 1, PRIMES)
    assert v.kind == KIND_REJECTED and v.detail.startswith("rule (a)")
    # the intransitive V4 target is certified
    s2xs2 = enumerate_group([(1, 0, 2, 3), (0, 1, 3, 2)])
    assert exact_verdict(pprod([-2, 0, 1], [-3, 0, 1]), s2xs2, 1, PRIMES).kind == (
        KIND_CERTIFIED_EXACT
    )


def test_huge_resolvent_constant_needs_no_trial_division():
    # x^4 + a x^3 + b x^2 + c x + d with the resolvent cubic's constant term
    # a^2 d - 4 b d + c^2 above 2^120: a divisor search would never end
    a, b, c, d = 3, 10**20 + 7, 10**31 + 3, 5 * 10**29 + 1
    assert a * a * d - 4 * b * d + c * c > 2**120
    f = [d, c, b, a, 1]
    start = time.perf_counter()
    name, orbits = rule_c_group(f)
    assert time.perf_counter() - start < 1
    assert (name, orbits) == ("S4", (4,))
    assert sympy_galois_name(f) == "S4"


def test_worst_res_sqrt2_sample_is_fast():
    # chi of res_sqrt2's slowest walk sample at k = 35 (seed 1, sample 23
    # of 40): the old quartic oracle's divisor search on its resolvent ran
    # for minutes
    chi = [1, 19316, 11228916, 19316, 1]
    target = pi_restriction_of_scalars(2, symmetric_group(2))
    start = time.perf_counter()
    v = exact_verdict(chi, target, 1, PRIMES)
    assert time.perf_counter() - start < 1
    assert v.kind == KIND_CERTIFIED_EXACT and "D4" in v.detail


def test_rule_b_rejects_square_discriminant_above_degree_4():
    # x^5 - 5x + 12 has Galois group D5 inside A5: irreducible, square
    # discriminant, so S5 is rejected by (b) and A5 is left open
    f = [12, -5, 0, 0, 0, 1]
    v = exact_verdict(f, pi_sl_n(5), 1, PRIMES)
    assert v.kind == KIND_REJECTED and v.detail.startswith("rule (b)")
    a5 = enumerate_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert exact_verdict(f, a5, 1, PRIMES) is None
    # x^6 + 24x - 20 has Galois group A6 (sympy's galois_group agrees), so
    # its discriminant, Res(f, f') from the subresultant sequence, is a
    # square and S6 is rejected by (b)
    f = [-20, 24, 0, 0, 0, 0, 1]
    assert galois_group(sympy_poly(f), by_name=True)[0].name == "A6"
    v = exact_verdict(f, pi_sl_n(6), 1, PRIMES)
    assert v.kind == KIND_REJECTED and v.detail.startswith("rule (b)")


def test_exact_verdict_at_multiplicity_2_by_rules_a_and_c():
    # q = x^2 - 2 with multiplicity 2: orbits (2, 2); its splitting field
    # is q's, so Gal is C2 acting on both orbits at once
    q = [-2, 0, 1]
    v = exact_verdict(q, pi_sl_n_doubled(2), 2, PRIMES)
    assert v.kind == KIND_CERTIFIED_EXACT
    assert v.detail == "rule (c): exact group C2 on orbits (2, 2)"
    v = exact_verdict(q, pi_sl_n_tau_reciprocal(2), 2, PRIMES)
    assert v.kind == KIND_REJECTED and v.detail.startswith("rule (a)")
    # a split q gives orbits (1, 1, 1, 1): rule (a)
    v = exact_verdict([2, -3, 1], pi_sl_n_doubled(2), 2, PRIMES)
    assert v.kind == KIND_REJECTED and v.detail.startswith("rule (a)")
    # degree-4 q against the doubled S4 on 8 points: S4 is certified, D4
    # and A4 are rejected by rule (c); no doubled type is odd, so rule (b)
    # cannot fire on the square discriminant of the A4 quartic
    doubled = pi_sl_n_doubled(4)
    assert exact_verdict([1, 1, 0, 0, 1], doubled, 2, PRIMES).kind == (
        KIND_CERTIFIED_EXACT
    )
    for coeffs, name in (((-2, 0, 0, 0, 1), "D4"), ((12, 8, 0, 0, 1), "A4")):
        v = exact_verdict(list(coeffs), doubled, 2, PRIMES)
        assert v.kind == KIND_REJECTED
        assert v.detail.startswith(f"rule (c): exact group {name} on orbits (4, 4)")


def test_identify_scans_only_what_the_rules_leave_open(monkeypatch):
    scans = []

    def counting(*args, **kwargs):
        summary = collect_samples(*args, **kwargs)
        scans.append(summary)
        return summary

    monkeypatch.setattr(galois_id, "collect_samples", counting)
    verdict = identify([-2, 0, 1], pi_sl_n_doubled(2), 2)
    assert verdict.kind == KIND_CERTIFIED_EXACT and scans == []
    verdict = identify([1, 1, 0, 0, 1], pi_sl_n(4))
    assert verdict.kind == KIND_CERTIFIED_EXACT and scans == []
    # x^5 - 5x + 12 (D5) against A5: the rules leave it open, and the scan
    # never sees A5's 3-cycles
    a5 = enumerate_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    verdict = identify([12, -5, 0, 0, 0, 1], a5)
    assert verdict.kind == KIND_INCONCLUSIVE and verdict.detail == ""
    (summary,) = scans
    assert summary.good_count == BUDGET and (3, 1, 1) not in summary.empirical


def test_identify_without_a_good_prime_is_inconclusive():
    # factor_degrees needs a good prime for a rootless quintic, and the
    # window (4, 4) holds none, so the rules and the scan both come up empty
    verdict = identify([-1, -1, 0, 0, 0, 1], pi_sl_n(5), prime_window=(4, 4))
    assert verdict.kind == KIND_INCONCLUSIVE
    assert verdict.detail == "no good prime in the window"


def test_identify_a_quartic_scans_no_prime(monkeypatch):
    # the resolvent cubic settles x^4 + x + 1's factor degrees, so S4 is
    # certified in a window with no prime at all, and no Frobenius type is
    # computed on the way
    def no_frobenius(*args):
        raise AssertionError("a Frobenius cycle type was computed")

    monkeypatch.setattr(galois_id, "frobenius_cycle_type", no_frobenius)
    monkeypatch.setattr(zfactor, "frobenius_cycle_type", no_frobenius)
    verdict = identify([1, 1, 0, 0, 1], pi_sl_n(4), prime_window=(4, 4))
    assert verdict.kind == KIND_CERTIFIED_EXACT
    assert verdict.detail == "rule (c): exact group S4 on orbits (4,)"


def random_squarefree(rng, n):
    """A random monic squarefree integer polynomial of degree n, reducible
    about as often as not: a product of random monic factors."""
    while True:
        parts = []
        left = n
        while left:
            d = rng.randint(1, left)
            parts.append([rng.randint(-6, 6) for _ in range(d)] + [1])
            left -= d
        f = pprod(*parts)
        if discriminant(f) != 0:
            return f


def test_degree_at_most_4_is_decided_before_any_scan():
    # rules (a)-(c) decide every degree <= 4 sample at e = 1 when the
    # window holds a good odd prime, against every catalog target and D4
    targets = {"d4": wreath_product(cyclic_group(2), cyclic_group(2))}
    for scen in builtin_scenarios().values():
        for spec in scen.cosets:
            group = spec.predicted
            if group is not None and group.degree <= 4:
                targets[group.name] = group
    assert {group.degree for group in targets.values()} == {2, 3, 4}
    rng = random.Random(13)
    reducible = 0
    for n in (2, 3, 4):
        for _ in range(60):
            f = random_squarefree(rng, n)
            reducible += sympy_degrees(f) != (n,)
            for group in targets.values():
                # e = 1, and e = 2 for the degree-4 targets at n = 2
                for e in (1, 2):
                    if group.degree == n * e:
                        assert exact_verdict(f, group, e, PRIMES) is not None, (f, group.name, e)
    assert reducible >= 30


def test_walk_samples_of_degree_at_most_4_scan_no_prime():
    # sltau2's identity coset has e = 2 (q of degree 2), its swap coset e = 1
    reg = builtin_scenarios()
    decided = Counter()
    for name in ("sl2", "sl3", "sl4", "res_sqrt2", "slcyc2x2", "sltau2"):
        scen = reg[name]
        for seed, k in ((1, 4), (2, 12), (3, 20)):
            for sample in batch_sample(scen.admissible(), k, 6, batch_seed(seed, k)):
                spec = scen.coset(sample.label)
                e = spec.multiplicity
                q = power_root(char_poly(sample.element), e)
                if q is None:
                    continue
                verdict = identify(q, spec.predicted, e)
                # only the exact rules' details start so: no prime was scanned
                assert verdict.detail.startswith("rule ("), (name, seed, k, verdict)
                assert verdict.kind in (KIND_CERTIFIED_EXACT, KIND_REJECTED)
                decided[e] += 1
    assert decided[1] >= 60 and decided[2] >= 5


def conjugate_by_scaling(m: RationalMatrix) -> RationalMatrix:
    """c^-1 m c for c = diag(1/2, ..., 1/(n+1)): m's chi, with denominators."""
    c = RationalMatrix.diagonal([F(1, i + 2) for i in range(m.n)])
    return mat_mul(mat_mul(mat_inverse(c), m), c)


def discriminant_class(m: RationalMatrix) -> str | None:
    """quadratic_galois's answer from the rational chi of a 2x2 m itself:
    disc = tr^2 - 4 det, a square iff its numerator times denominator is."""
    (a, b), (c, d) = fraction_rows(m)
    disc = (a + d) ** 2 - 4 * (a * d - b * c)
    if disc == 0:
        return None
    return "trivial" if is_rational_square(disc.numerator * disc.denominator) else "order2"


def test_rational_conjugate_keeps_its_verdict():
    # char_poly scales a non-integral chi's roots by the denominator, which
    # keeps the splitting field: c^-1 g c (den > 1) gets g's verdict.
    # sltau2's identity coset has e = 2; slcyc2x3 (degree 6) scans primes.
    reg = builtin_scenarios()
    scaled = Counter()
    for name in ("sl4", "sltau2", "slcyc2x3"):
        scen = reg[name]
        cfg = ExperimentConfig(scenario=name, k_values=(20,), samples=8, seed=1)
        for sample in batch_sample(scen.admissible(), 20, 8, batch_seed(1, 20)):
            spec = scen.coset(sample.label)
            conj = conjugate_by_scaling(sample.element)
            assert sample.element.den == 1 and conj.den > 1
            want = identify_sample(sample, spec, cfg)
            got = identify_sample(sample._replace(element=conj), spec, cfg)
            assert got == want, (name, sample.seed_path, want, got)
            scaled[name, spec.multiplicity, None if want is None else want.kind] += 1
    assert {(name, e) for name, e, kind in scaled if kind is not None} >= {
        ("sl4", 1), ("sltau2", 1), ("sltau2", 2), ("slcyc2x3", 1),
    }
    # diag_antidiag's samples are non-integral already (diag(2, 3)^-1 is a
    # letter); quadratic_galois on the integral form matches the rational
    # chi's discriminant class, and so does the conjugate's
    scen = reg["diag_antidiag"]
    non_integral = 0
    for sample in batch_sample(scen.admissible(), 9, 24, batch_seed(1, 9)):
        m = sample.element
        non_integral += m.den > 1
        want = discriminant_class(m)
        assert quadratic_galois(char_poly(m)) == want, m
        assert quadratic_galois(char_poly(conjugate_by_scaling(m))) == want, m
    assert non_integral >= 12


def test_catalog_orbit_lengths():
    assert pi_sl_n(4).orbit_lengths() == (4,)
    assert pi_sl_n_doubled(4).orbit_lengths() == (4, 4)
    assert pi_sl_n_tau_reciprocal(2).orbit_lengths() == (4,)
    assert pi_sl_power_identity(2, 2).orbit_lengths() == (2, 2)
    assert pi_sl_power_cyclic(2, 3).orbit_lengths() == (6,)
    assert pi_restriction_of_scalars(2, symmetric_group(2)).orbit_lengths() == (4,)
    assert enumerate_group([], degree=3).orbit_lengths() == (1, 1, 1)


def test_quadratic_galois_antidiagonal_example():
    # splitting field of antidiag(2, 3) is the quadratic field of sqrt(6)
    m = RationalMatrix([[0, 2], [3, 0]])
    chi = char_poly(m)
    assert chi == [-6, 0, 1]
    assert quadratic_galois(chi) == "order2"
