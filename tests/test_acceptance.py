"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with `pytest -s`, and in failure output).
Criterion 7 checks the census against the finite-field density law: zero
densities occur exactly where a brute-force count over closed-form
characteristic polynomials (tests/fp_brute.py) says a type is unattainable.
"""
import random
import time
from collections import Counter
from fractions import Fraction as F
from math import factorial, gcd

from galwalk.exactmat import (
    RationalMatrix,
    char_poly,
    reduce_poly_mod_p,
)
from galwalk.experiment import ExperimentConfig, batch_seed, run_convergence, run_oracle
from galwalk.finfield import (
    census,
    charpoly_mod_p,
    enumerate_mod_p,
    reduce_matrix,
)
from galwalk.galois_id import (
    KIND_CERTIFIED_EXACT,
    KIND_CONSISTENT,
    KIND_REJECTED,
    collect_samples,
    expand_summary,
    identify,
)
from galwalk.modpoly import power_root, primes_in_window, squarefree_over_q
from galwalk.output import render_csv
from galwalk.permkit import symmetric_group, cyclic_group, wreath_product
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

from fp_brute import CHI_FAMILIES, attainable_types
from test_sympy_oracles import sympy_galois_name

SEED = 1
WINDOW = (1_000, 100_000)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_arithmetic_commutation():
    """charpoly-then-reduce equals reduce-then-charpoly, 1000 matrices."""
    primes = primes_in_window(5, 97)
    rng = random.Random(SEED)
    start = time.perf_counter()
    failures = 0
    for i in range(1000):
        n = (2, 3, 4)[i % 3]
        m = RationalMatrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        chi = char_poly(m)
        for p in primes:
            if reduce_poly_mod_p(chi, p) != charpoly_mod_p(reduce_matrix(m, p), p):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10
    report(1, ok, f"{failures} failures over 1000 matrices x {len(primes)} primes "
                  f"in {elapsed:.1f}s (< 10s)")
    assert failures == 0
    assert elapsed < 10


def test_criterion_2_catalog_orders():
    """Wreath and catalog group orders match their closed forms (S_n has n!)."""
    start = time.perf_counter()
    assert wreath_product(cyclic_group(2), symmetric_group(2)).order == 8
    assert pi_sl_power_cyclic(2, 3).order == 12

    for n in (2, 3, 4, 5):
        assert pi_sl_n(n).order == factorial(n)
    for n in (2, 4):
        assert pi_sl_n_doubled(n).order == factorial(n)
        r = n // 2
        # a two-level wreath: 2^(2r) sign flips over the signed pair group
        signed_pairs = wreath_product(cyclic_group(2), symmetric_group(r))
        signflip = wreath_product(cyclic_group(2), signed_pairs)
        assert signflip.order == 2 ** (2 * r) * 2**r * factorial(r)
        assert pi_sl_n_tau_reciprocal(n).order == 2 ** (r + 1) * factorial(r)
    for n, d in ((2, 2), (2, 3)):
        assert pi_sl_power_identity(n, d).order == factorial(n) ** d
        phi = sum(1 for a in range(1, d) if gcd(a, d) == 1)
        assert pi_sl_power_cyclic(n, d).order == d ** (n - 1) * factorial(n) * phi
    assert pi_restriction_of_scalars(2, symmetric_group(2)).order == 8
    assert pi_restriction_of_scalars(2, cyclic_group(3)).order == 24
    elapsed = time.perf_counter() - start
    report(2, elapsed < 30, f"all catalog orders exact in {elapsed:.1f}s (< 30s)")
    assert elapsed < 30


def test_criterion_3_sl3_convergence():
    """Desk-scale convergence for the dimension-3 walk."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario="sl3", k_values=(5, 30), samples=200, budget=300, seed=SEED
    )
    rows, _, _ = run_convergence(cfg)
    elapsed = time.perf_counter() - start
    k5 = next(r for r in rows if r["k"] == 5)
    k30 = next(r for r in rows if r["k"] == 30)
    matched = F(k30["n_certified"] + k30["n_consistent"], k30["samples"])
    decreasing = k30["mismatch_fraction"] < k5["mismatch_fraction"]
    ok = matched >= F(85, 100) and decreasing and elapsed < 300
    report(3, ok,
           f"k=30 certified+consistent {float(matched):.3f} (>= 0.85), "
           f"mismatch {float(k5['mismatch_fraction']):.3f} -> "
           f"{float(k30['mismatch_fraction']):.3f} (strictly decreasing), "
           f"{elapsed:.0f}s (< 300s)")
    assert matched >= F(85, 100)
    assert decreasing
    assert elapsed < 300


def test_criterion_4_coset_dependence():
    """The two cosets of the involution scenario get different verdicts;
    sympy's quartic Galois group adjudicates which catalog group the swap
    coset actually realizes."""
    scen = builtin_scenarios()["sltau2"]
    gens = scen.admissible()
    id_spec, swap_spec = scen.coset(0), scen.coset(1)
    samples = batch_sample(gens, 30, 240, batch_seed(SEED, 30))

    id_verdicts = Counter()
    id_cross = Counter()
    id_rs = 0
    swap_verdicts = Counter()
    swap_cross = Counter()
    swap_rs = 0
    oracle_names = Counter()
    oracle_pool = 0

    for s in samples:
        chi = char_poly(s.element)
        if s.label == 0:
            q = power_root(chi, id_spec.multiplicity)
            if q is None or not squarefree_over_q(q):
                continue
            id_rs += 1
            e = id_spec.multiplicity
            id_verdicts[identify(q, id_spec.predicted, e, WINDOW).kind] += 1
            id_cross[identify(q, swap_spec.predicted, e, WINDOW).kind] += 1
        else:
            if oracle_pool < 100:
                oracle_pool += 1
                if squarefree_over_q(chi):
                    oracle_names[sympy_galois_name(chi) or "reducible"] += 1
            if not squarefree_over_q(chi):
                continue
            swap_rs += 1
            swap_verdicts[identify(chi, swap_spec.predicted, 1, WINDOW).kind] += 1
            swap_cross[identify(chi, id_spec.predicted, 1, WINDOW).kind] += 1

    assert id_rs >= 40 and swap_rs >= 40
    # the exact rules certify both cosets outright (rule (c); e = 2 on
    # the identity coset)
    id_ok = F(id_verdicts[KIND_CERTIFIED_EXACT], id_rs)
    swap_ok = F(swap_verdicts[KIND_CERTIFIED_EXACT] + swap_verdicts[KIND_CONSISTENT], swap_rs)
    swap_rej = F(swap_cross[KIND_REJECTED], swap_rs)
    id_rej = F(id_cross[KIND_REJECTED], id_rs)
    mode_name, mode_count = oracle_names.most_common(1)[0]
    oracle_rs = sum(oracle_names.values())
    mode_frac = F(mode_count, oracle_rs)

    print(
        "[criterion 4] adjudication table (swap-coset verdicts vs each target):\n"
        f"    vs identity prediction {id_spec.predicted.name}: {dict(swap_cross)}\n"
        f"    vs adjudicated target {swap_spec.predicted.name} "
        f"(order {swap_spec.predicted.order}): {dict(swap_verdicts)}\n"
        f"    sympy quartic oracle on {oracle_pool} swap samples "
        f"({oracle_rs} regular semisimple): {dict(oracle_names)}"
    )

    ok = (
        id_ok >= F(9, 10)
        and swap_ok >= F(9, 10)
        and swap_rej >= F(9, 10)
        and id_rej >= F(9, 10)
        and mode_frac >= F(9, 10)
    )
    report(4, ok,
           f"identity certified {float(id_ok):.2f}, swap certified or consistent "
           f"{float(swap_ok):.2f} (adjudicated target), swap rejected vs identity "
           f"prediction {float(swap_rej):.2f}, identity rejected vs swap prediction "
           f"{float(id_rej):.2f}, oracle names {mode_name} for {float(mode_frac):.2f}")
    assert id_ok >= F(9, 10)
    assert swap_ok >= F(9, 10)
    assert swap_rej >= F(9, 10)
    assert mode_frac >= F(9, 10)
    # the adjudicated group's exact distribution is the oracle group's
    assert mode_name == "V4"
    assert swap_spec.predicted.type_distribution == {
        (2, 2): F(3, 4),
        (1, 1, 1, 1): F(1, 4),
    }


def test_criterion_5_subquotient_invariant():
    """No good Frobenius sample falls outside its coset's predicted type set."""
    violations = []
    checked = 0
    for name, scen in builtin_scenarios().items():
        if not scen.has_predictions:
            continue
        gens = scen.admissible()
        for s in batch_sample(gens, 25, 200, batch_seed(SEED, 25)):
            spec = scen.coset(s.label)
            chi = char_poly(s.element)
            q = power_root(chi, spec.multiplicity)
            if q is None or len(q) == 1 or not squarefree_over_q(q):
                continue
            summary = expand_summary(
                collect_samples(q, WINDOW, 40), spec.multiplicity
            )
            allowed = set(spec.predicted.type_distribution)
            checked += 1
            for ct in summary.empirical:
                if ct not in allowed:
                    violations.append((name, s.label, ct))
    report(5, not violations,
           f"{len(violations)} violations over {checked} regular semisimple "
           f"samples across all scenarios")
    assert violations == []


def test_criterion_6_counterexample():
    """Monte Carlo matches 1/2 at k in {20, 21}; the exact word census
    reproduces the parity dichotomy with zero exceptions up to k = 10."""
    cfg = ExperimentConfig(
        scenario="diag_antidiag", k_values=(20, 21), samples=2000, seed=SEED
    )
    rows, _, _ = run_convergence(cfg)
    mc_ok = True
    details = []
    for k in (20, 21):
        row = next(r for r in rows if r["k"] == k and r["coset"] == 1)
        frac = row["trivial_fraction"]
        details.append(f"k={k}: {float(frac):.4f}")
        if abs(frac - F(1, 2)) > F(5, 100):
            mc_ok = False

    oracle_rows, _, _ = run_oracle(
        ExperimentConfig(
            scenario="diag_antidiag", k_values=tuple(range(1, 11)), samples=1
        )
    )
    parity_ok = all(r["parity_exact"] == 1 for r in oracle_rows)
    exact10 = next(r for r in oracle_rows if r["k"] == 10)["trivial_fraction"]
    mc10_rows, _, _ = run_convergence(
        ExperimentConfig(
            scenario="diag_antidiag", k_values=(10,), samples=4000, seed=SEED
        )
    )
    mc10 = next(r for r in mc10_rows if r["coset"] == 1)["trivial_fraction"]
    close = abs(mc10 - exact10) <= F(2, 100)

    ok = mc_ok and parity_ok and close
    report(6, ok,
           f"off-coset trivial frequency {', '.join(details)} (1/2 +- 0.05); "
           f"parity law exact for all k <= 10; |MC - exact| at k=10: "
           f"{abs(float(mc10 - exact10)):.4f} (<= 0.02)")
    assert mc_ok
    assert parity_ok
    assert close


def test_criterion_7_finite_field_densities():
    """Census densities at p in {5,7,11,13} follow the finite-field density
    law, and the regular semisimple fraction grows with p.

    A predicted type has positive Chebotarev density at p only when
    Frobenius fits the coset's constant-field extension, and only once p is
    large enough.  On the involution scenario's swap coset,
    chi = x^4 - (2 - s^2) x^2 + 1 with s = b - c, and its splitting field
    contains Q(i).  So the full split (1,1,1,1) is attainable exactly when
    -1 is a square mod p (p = 1 mod 4) and p > 5: at p = 5 no mu in F_5*
    has mu^2 outside {1, -1}, and the roots collide.

    The census's zero-density triples must equal the types that brute
    force over each coset's closed-form chi family cannot attain, and at
    p = 13, where Frobenius is trivial on Q(i), every predicted type must
    have positive density on every coset.
    """
    start = time.perf_counter()
    zero_density = set()
    unattainable = set()
    rs_fractions = {}
    for name in ("sl2", "sltau2"):
        scen = builtin_scenarios()[name]
        for p in (5, 7, 11, 13):
            cosets = enumerate_mod_p(scen, p)
            rs_total = 0
            total = 0
            for lab, spec in enumerate(scen.cosets):
                c = census(cosets[lab], p, lab, spec.multiplicity)
                rs_total += c.rs_count
                total += c.total
                family, multiplicity = CHI_FAMILIES[(name, spec.name)]
                assert multiplicity == spec.multiplicity
                attainable = attainable_types(family, multiplicity, p)
                for ct in spec.predicted.types():
                    if c.type_counts.get(ct, 0) == 0:
                        zero_density.add((name, spec.name, p, ct))
                    if ct not in attainable:
                        unattainable.add((name, spec.name, p, ct))
            rs_fractions[(name, p)] = F(rs_total, total)
    growth_ok = all(
        rs_fractions[(name, 13)] > rs_fractions[(name, 5)]
        for name in ("sl2", "sltau2")
    )
    zero_at_13 = sorted(t for t in zero_density if t[2] == 13)
    elapsed = time.perf_counter() - start
    ok = (zero_density == unattainable and not zero_at_13 and growth_ok
          and elapsed < 120)
    report(7, ok,
           f"census zero densities {sorted(zero_density) or 'none'} vs "
           f"unattainable by brute force {sorted(unattainable) or 'none'}; "
           f"rs fraction grows 5 -> 13: {growth_ok}; "
           f"{elapsed:.0f}s (< 120s)")
    assert growth_ok
    assert elapsed < 120
    assert zero_density == unattainable, (
        "census zeros differ from the closed-form obstruction: on the swap "
        "coset chi = x^4 - (2 - s^2) x^2 + 1 splits fully only when -1 is a "
        "square mod p and p > 5"
    )
    assert zero_at_13 == [], (
        "at p = 13 Frobenius is trivial on Q(i), so every predicted type "
        "must occur on every coset"
    )


def test_criterion_8_reproducibility():
    """A fixed config determines every output byte."""
    texts = []
    for _ in range(2):
        cfg = ExperimentConfig(
            scenario="sltau2", k_values=(8, 12), samples=25, budget=60, seed=SEED
        )
        texts.append(render_csv(*run_convergence(cfg)))
    run_equal = texts[0] == texts[1]

    from galwalk.experiment import run_finite_field

    ff = [
        render_csv(*run_finite_field(
            ExperimentConfig(scenario="sl2", k_values=(1,), samples=1,
                             prime_min=5, prime_max=13, seed=SEED)
        ))
        for _ in range(2)
    ]
    oracle = [
        render_csv(*run_oracle(
            ExperimentConfig(scenario="diag_antidiag", k_values=(6,), samples=1)
        ))
        for _ in range(2)
    ]
    ok = run_equal and ff[0] == ff[1] and oracle[0] == oracle[1]
    report(8, ok, "byte-identical CSV output across repeated runs "
                  "(convergence, finite-field, oracle)")
    assert ok
