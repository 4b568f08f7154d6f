import random
from array import array
from collections import deque
from fractions import Fraction as F

import pytest

from galwalk.exactmat import (
    PrimeFieldPolynomial,
    RationalMatrix,
    char_poly,
    mat_inverse,
    reduce_poly_mod_p,
)
from galwalk.finfield import (
    BadPrimeError,
    Coset,
    census,
    charpoly_mod_p,
    closure_mod_p,
    closure_order_bound,
    conjugacy_classes,
    density_report,
    enumerate_mod_p,
    reduce_generators,
    reduce_matrix,
)
from galwalk.modpoly import (
    ddf,
    derivative,
    distinct_degree_pattern,
    divmod_poly,
    frobenius_cycle_type,
    make_cycle_type,
    mod,
    mul,
    pf_gcd,
    pf_monic,
    power_root,
    primes_in_window,
    repeat_parts,
    squarefree_over_q,
)
from galwalk.permkit import GroupTooLarge
from galwalk.scenarios import CosetSpec, Scenario, builtin_scenarios, elementary
from galwalk.walker import ComponentGroup, batch_sample

from fp_brute import attainable_types, sltau2_identity_chi, sltau2_swap_chi

# per-prime closure bounds of the tests that enumerate every dimension <= 4
# scenario; sl3, slcyc2x2 and res_sqrt2 at 5 and 7 and the dimension-4
# scenarios at every prime overflow them
CLOSURE_BOUNDS = {3: 6000, 5: 6000, 7: 1000}


def sl2_order(p):
    return p * (p * p - 1)


def matrices(coset):
    """A coset's elements as matrices, in closure order."""
    return [coset.elements[i] for i in coset.members]


def test_enumerate_sl2_orders():
    scen = builtin_scenarios()["sl2"]
    assert len(enumerate_mod_p(scen, 3)[0]) == 24
    assert len(enumerate_mod_p(scen, 5)[0]) == 120
    cosets = enumerate_mod_p(scen, 13)
    assert len(cosets[0]) == sl2_order(13)


def test_enumerate_sltau2_equal_cosets():
    scen = builtin_scenarios()["sltau2"]
    for p in (3, 5):
        cosets = enumerate_mod_p(scen, p)
        assert len(cosets[0]) == len(cosets[1]) == sl2_order(p)


def test_enumerate_bad_and_too_large():
    scen = builtin_scenarios()["sl2"]
    with pytest.raises(BadPrimeError):
        enumerate_mod_p(scen, 2)
    with pytest.raises(GroupTooLarge):
        enumerate_mod_p(scen, 13, bound=100)
    counter = builtin_scenarios()["diag_antidiag"]
    with pytest.raises(BadPrimeError):
        enumerate_mod_p(counter, 3)  # 1/3 does not reduce


def closure_by_all_generators(scenario, p, bound):
    """Reference closure: breadth-first over every admissible generator
    (inverses and the identity included), one full product mod p per edge."""
    reduce_generators(scenario, p)
    gens = [(reduce_matrix(g, p), lab) for g, lab in scenario.admissible().generators]
    n = scenario.dimension
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    labels = {ident: 0}
    queue = deque([ident])
    group = scenario.component_group
    while queue:
        cur = queue.popleft()
        for g, lab in gens:
            cols = tuple(zip(*g))
            nxt = tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
                for row in cur
            )
            nxt_label = group.mul(labels[cur], lab)
            known = labels.get(nxt)
            if known is None:
                if len(labels) >= bound:
                    raise GroupTooLarge(f"closure at p={p} exceeds bound {bound}")
                labels[nxt] = nxt_label
                queue.append(nxt)
            elif known != nxt_label:
                raise BadPrimeError(f"label collision mod {p}")
    return labels


def test_enumerate_matches_closure_by_all_generators():
    # Closures above the bound must overflow on both sides alike.
    compared = 0
    for name, scen in builtin_scenarios().items():
        if scen.dimension > 4:
            continue
        for p, bound in CLOSURE_BOUNDS.items():
            try:
                want = closure_by_all_generators(scen, p, bound)
            except (BadPrimeError, GroupTooLarge) as exc:
                with pytest.raises(type(exc)):
                    enumerate_mod_p(scen, p, bound=bound)
                continue
            cosets = enumerate_mod_p(scen, p, bound=bound)
            got = {mat: lab for lab, mats in cosets.items() for mat in matrices(mats)}
            assert sum(map(len, cosets.values())) == len(got)
            assert got == want, (name, p)
            compared += 1
    # sl2, sltau2 at 3, 5, 7; sl3, slcyc2x2, res_sqrt2 at 3; diag_antidiag at 5, 7
    assert compared == 11


def test_enumerate_label_collision_is_a_bad_prime():
    # u = [[1,1],[0,1]] has order p mod p, so u^p = I is reached with label
    # p * 1 = 1 in C2 while the identity carries label 0.
    u = elementary(2, 0, 1)
    low = elementary(2, 1, 0)
    scen = Scenario(
        name="collide",
        dimension=2,
        raw_generators=((u, 1), (low, 0)),
        component_group=ComponentGroup(2),
        cosets=(CosetSpec(0, "even", None), CosetSpec(1, "odd", None)),
        description="u labelled 1 and l labelled 0 in C2",
    )
    for p in (3, 5, 7):
        with pytest.raises(BadPrimeError, match="label collision"):
            enumerate_mod_p(scen, p)


def test_closure_order_bound_below_enumerated_order():
    reg = builtin_scenarios()
    for p in (5, 7, 11, 13, 17):
        assert closure_order_bound(reg["sltau2"], p) == 2 * sl2_order(p)
    # res_sqrt2 at 3: 2 is no square mod 3, so the closure is SL_2(F_9)
    cases = [("sl2", (3, 5, 7, 11, 13)), ("sl3", (3,)), ("sltau2", (5, 7, 11, 13, 17)),
             ("slcyc2x2", (3,)), ("res_sqrt2", (3,)), ("diag_antidiag", (5, 7, 11))]
    for name, primes in cases:
        for p in primes:
            order = sum(len(c) for c in enumerate_mod_p(reg[name], p).values())
            assert closure_order_bound(reg[name], p) <= order, (name, p)


def test_census_identity_not_rs():
    scen = builtin_scenarios()["sl2"]
    elems = enumerate_mod_p(scen, 5)[0]
    c = census(conjugacy_classes(elems), 5, 0)
    ident = tuple(tuple(int(i == j) for j in range(2)) for i in range(2))
    assert ident in set(matrices(elems))
    # identity char poly (T-1)^2 is not squarefree, so rs_count < total
    assert c.rs_count < c.total
    assert sum(c.type_counts.values()) == c.rs_count
    assert c.type_counts[(1, 1)] > 0 and c.type_counts[(2,)] > 0


def test_census_rs_fraction_formula_sl2():
    # non-rs elements of SL_2(F_p) are exactly those with trace +-2
    scen = builtin_scenarios()["sl2"]
    for p in (5, 13):
        c = census(conjugacy_classes(enumerate_mod_p(scen, p)[0]), p, 0)
        assert F(c.rs_count, c.total) == 1 - F(2 * p, p * p - 1)


def test_census_diagonal_example():
    diag = tuple((tuple((2 if i == j == 0 else 3 if i == j == 1 else 0) for j in range(2))) for i in range(2))
    c = census([(diag, 1)], 7, 0)
    assert c.type_counts == {(1, 1): 1}


def test_census_multiplicity_profile():
    scen = builtin_scenarios()["sltau2"]
    cosets = enumerate_mod_p(scen, 5)
    c0 = census(conjugacy_classes(cosets[0]), 5, 0, multiplicity=2)
    # doubled patterns only
    assert set(c0.type_counts) <= {(1, 1, 1, 1), (2, 2)}
    assert c0.rs_count == 70  # same rs set as SL_2(F_5) itself
    # wrong multiplicity declaration finds nothing regular
    c_wrong = census(conjugacy_classes(cosets[0]), 5, 0, multiplicity=1)
    assert c_wrong.rs_count == 0


def census_per_element(elements, p, multiplicity):
    """Reference census: one pattern computation per element."""
    counts = {}
    rs = 0
    for m in elements:
        pattern = distinct_degree_pattern(charpoly_mod_p(m, p), multiplicity)
        if pattern is not None:
            rs += 1
            counts[pattern] = counts.get(pattern, 0) + 1
    return len(elements), rs, counts


def reference_root_fp(f, multiplicity, p):
    """The F_p "chi = q^e" body census used before it called power_root:
    gcd with f', exact division, then an e-fold product check (e > 1)."""
    g = pf_gcd(f, mod(derivative(f), p), p)
    if len(g) - 1 <= 0:
        return None  # squarefree, but we expected multiplicity > 1
    rad = divmod_poly(f, g, p)[0]
    if (len(rad) - 1) * multiplicity != len(f) - 1:
        return None
    power = [1]
    for _ in range(multiplicity):
        power = mod(mul(power, rad), p)
    if power != f:
        return None
    return rad


def reference_ddf_pattern(f, p):
    """Factor degrees of a monic f over F_p, or None when f has a repeated
    factor: gcd with f', then ddf."""
    if len(pf_gcd(f, mod(derivative(f), p), p)) > 1:
        return None
    return make_cycle_type(d for d, g_d in ddf(f, p) for _ in range((len(g_d) - 1) // d))


def reference_profile_pattern(chi, multiplicity):
    p = chi.p
    f = pf_monic(chi.coeffs, p)
    if multiplicity == 1:
        return reference_ddf_pattern(f, p)
    rad = reference_root_fp(f, multiplicity, p)
    if rad is None:
        return None
    base = reference_ddf_pattern(rad, p)
    if base is None:
        return None
    return repeat_parts(base, multiplicity)


def assert_root_matches_reference(f, e, p):
    f = pf_monic(mod(f, p), p)
    chi = PrimeFieldPolynomial(p, tuple(f))
    assert distinct_degree_pattern(chi, e) == reference_profile_pattern(chi, e), (f, e, p)
    q = power_root(f, e, p)
    if e > 1:
        assert q == reference_root_fp(f, e, p), (f, e, p)
    else:
        assert (q is not None) == (len(pf_gcd(f, mod(derivative(f), p), p)) == 1)
        assert q is None or q == f
    return q


def test_fp_power_root_matches_reference_on_sltau2_chis():
    # chi is a class function: the class representatives carry every chi
    scen = builtin_scenarios()["sltau2"]
    for p in primes_in_window(5, 17):
        chis = {
            charpoly_mod_p(rep, p).coeffs
            for coset in enumerate_mod_p(scen, p).values()
            for rep, _ in conjugacy_classes(coset)
        }
        found = 0
        for coeffs in chis:
            for e in (1, 2, 3):
                found += assert_root_matches_reference(list(coeffs), e, p) is not None
        assert found > 0, p


def test_fp_power_root_matches_reference_on_random_products():
    rng = random.Random(20260)
    found = {1: 0, 2: 0, 3: 0}
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 11, 13, 17, 101))
        e = rng.choice((1, 2, 3))
        q = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
        r = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        if rng.random() < 0.5:
            r = [1]
        f = r
        for _ in range(e):
            f = mul(f, q)
        found[e] += assert_root_matches_reference(f, e, p) is not None
    assert all(found.values()), found


def test_census_per_distinct_chi_matches_per_element():
    # per element and per conjugacy class, on every closure that
    # test_enumerate_matches_closure_by_all_generators compares, and sltau2 at 11
    reg = builtin_scenarios()
    cases = [(name, p, bound) for name in reg for p, bound in CLOSURE_BOUNDS.items()]
    cases.append(("sltau2", 11, 2 * sl2_order(11)))
    compared = set()
    for name, p, bound in cases:
        scen = reg[name]
        if scen.dimension > 4:
            continue
        try:
            cosets = enumerate_mod_p(scen, p, bound=bound)
        except (BadPrimeError, GroupTooLarge):
            continue
        for spec in scen.cosets:
            coset = cosets[spec.label]
            # multiplicity 1 on a doubled coset is a wrong input
            for mult in sorted({1, spec.multiplicity}):
                want = census_per_element(matrices(coset), p, mult)
                for classes in ([(m, 1) for m in matrices(coset)], conjugacy_classes(coset)):
                    c = census(classes, p, spec.label, mult)
                    assert (c.total, c.rs_count, c.type_counts) == want, (name, p, mult)
                    assert list(c.type_counts) == sorted(c.type_counts, reverse=True)
        compared.add((name, p))
    assert compared == {
        ("sl2", 3), ("sl2", 5), ("sl2", 7), ("sltau2", 3), ("sltau2", 5),
        ("sltau2", 7), ("sltau2", 11), ("sl3", 3), ("slcyc2x2", 3),
        ("res_sqrt2", 3), ("diag_antidiag", 5), ("diag_antidiag", 7),
    }


def sl2_class_sizes(p):
    """Class sizes of SL_2(F_p), p odd: the two central elements, four
    unipotent-times-central classes, (p - 3)/2 split semisimple classes
    and (p - 1)/2 non-split ones; p + 4 classes in all."""
    return sorted(
        [1] * 2 + [(p * p - 1) // 2] * 4
        + [p * (p + 1)] * ((p - 3) // 2) + [p * (p - 1)] * ((p - 1) // 2)
    )


def test_conjugacy_class_counts_follow_the_class_number():
    # conjugation by the raw generators alone reaches whole classes
    reg = builtin_scenarios()
    for p in (3, 5, 7, 11, 13):
        coset = enumerate_mod_p(reg["sl2"], p)[0]
        sizes = sorted(s for _, s in conjugacy_classes(coset))
        assert len(sizes) == p + 4, p
        assert sizes == sl2_class_sizes(p), p
    for p in primes_in_window(5, 17):
        classes = sum(
            len(list(conjugacy_classes(coset)))
            for coset in enumerate_mod_p(reg["sltau2"], p).values()
        )
        assert classes == 2 * (p + 4), p


def test_census_refuses_an_inconsistent_coset_list():
    scen = builtin_scenarios()["sl2"]
    coset = enumerate_mod_p(scen, 5)[0]
    unipotent = ((1, 1), (0, 1))
    u = coset.elements.index(unipotent)
    assert u in coset.members

    def census_of(bad):
        return census(conjugacy_classes(bad), 5, 0, 1)

    def with_members(members, conjugations=coset.conjugations):
        return Coset(coset.elements, conjugations, array("i", members))

    with pytest.raises(ValueError, match="outside the coset"):
        census_of(with_members(i for i in coset.members if i != u))
    with pytest.raises(ValueError, match="outside the coset"):
        census_of(with_members([u]))
    with pytest.raises(ValueError, match="not 121"):
        census_of(with_members([*coset.members, u]))
    # with no conjugation tables every member is its own class; a repeat still raises
    with pytest.raises(ValueError, match="not 121"):
        census_of(with_members([*coset.members, u], conjugations=()))
    # a conjugation table sending an identity-coset member into the swap coset
    cosets = enumerate_mod_p(builtin_scenarios()["sltau2"], 5)
    identity = cosets[0]
    corrupt = identity.conjugations[0][:]
    corrupt[identity.members[3]] = cosets[1].members[0]
    bad = Coset(identity.elements, (corrupt,) + identity.conjugations[1:], identity.members)
    with pytest.raises(ValueError, match="outside the coset"):
        census(conjugacy_classes(bad), 5, 0, 2)


def mat_mul_mod(a, b, p):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a
    )


def test_cayley_and_conjugation_tables_match_matrix_products():
    # x g and g^-1 x g for every element x and raw generator g, with g^-1
    # inverted over Q and reduced, against the index tables
    reg = builtin_scenarios()
    cases = [("sl2", 5), ("sl2", 7), ("sltau2", 5), ("diag_antidiag", 5),
             ("diag_antidiag", 7), ("slcyc2x2", 3), ("res_sqrt2", 3)]
    for name, p in cases:
        scen = reg[name]
        group = closure_mod_p(scen, p)
        cosets = enumerate_mod_p(scen, p)
        elements = group.elements
        assert all(c.elements == elements for c in cosets.values())
        conjugations = cosets[0].conjugations
        position = {x: i for i, x in enumerate(elements)}
        assert len(position) == len(elements)
        assert len(group.images) == len(conjugations) == len(scen.raw_generators)
        for j, (g, _) in enumerate(scen.raw_generators):
            right = reduce_matrix(g, p)
            inverse = reduce_matrix(mat_inverse(g), p)
            image, conj = group.images[j], conjugations[j]
            for i, x in enumerate(elements):
                assert image[i] == position[mat_mul_mod(x, right, p)], (name, p, j)
                assert conj[i] == position[mat_mul_mod(mat_mul_mod(inverse, x, p), right, p)], (name, p, j)


def test_cross_check_with_global_reduction():
    # census classification of a reduced walk element equals the
    # mod-p cycle type of its exact characteristic polynomial
    for name in ("sl2", "sltau2"):
        scen = builtin_scenarios()[name]
        gens = scen.admissible()
        for s in batch_sample(gens, 12, 50, 31415):
            spec = scen.coset(s.label)
            chi = char_poly(s.element)
            for p in (5, 7, 11, 13):
                reduced = reduce_matrix(s.element, p)
                c = census([(reduced, 1)], p, s.label, spec.multiplicity)
                q = power_root(chi, spec.multiplicity)
                if q is None or not squarefree_over_q(q):
                    continue
                fs = frobenius_cycle_type(q, p)
                if fs.status != "good":
                    assert c.rs_count == 0
                else:
                    expanded = repeat_parts(fs.cycle_type, spec.multiplicity)
                    if c.rs_count:
                        assert c.type_counts == {expanded: 1}


def test_charpoly_mod_p_at_small_primes():
    # the integer recurrence reduces correctly even when p <= n
    m = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert charpoly_mod_p(m, 3).coeffs == (1, 2, 0, 2, 1)  # (T - 1)^4 mod 3
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        a = RationalMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        expected = reduce_poly_mod_p(char_poly(a), 3)
        assert charpoly_mod_p(reduce_matrix(a, 3), 3) == expected


def test_density_report_rows_and_flags():
    scen = builtin_scenarios()["sl2"]
    censuses = [census(conjugacy_classes(enumerate_mod_p(scen, p)[0]), p, 0) for p in (5, 7)]
    types = scen.coset(0).predicted.group.types()
    rows, flagged = density_report(censuses, {0: types})
    assert not flagged
    assert {r["p"] for r in rows} == {5, 7}
    for r in rows:
        assert r["density_rs"] == F(r["count"], r["rs_count"])
    # a target type that never occurs gets flagged
    rows2, flagged2 = density_report(censuses, {0: ((3,),) + types})
    assert (5, 0, (3,)) in flagged2 and (7, 0, (3,)) in flagged2
    with pytest.raises(ValueError):
        density_report([], {})


def test_swap_coset_density_truth():
    """Frozen enumeration facts for the involution scenario's swap coset.

    The coset's chi is x^4 - (2 - s^2) x^2 + 1 with s = b - c, and its roots
    +-mu, +-1/mu satisfy mu - 1/mu = +-i s.  So the full split (1,1,1,1)
    needs -1 to be a square mod p (p = 1 mod 4), and p > 5 as well: at
    p = 5 no mu in F_5* has mu^2 outside {1, -1}.  It therefore has zero
    density at p in {5, 7, 11} and positive density at p = 13.  The
    identity coset realizes both of its types at all four primes.  The
    census's attained types are cross-checked against a brute-force count
    over each coset's closed-form chi family (tests/fp_brute.py).
    """
    scen = builtin_scenarios()["sltau2"]
    expected_swap = {
        5: {(2, 2): 40},
        7: {(2, 2): 196},
        11: {(2, 2): 968},
        13: {(2, 2): 936, (1, 1, 1, 1): 728},
    }
    for p, want in expected_swap.items():
        cosets = enumerate_mod_p(scen, p)
        c1 = census(conjugacy_classes(cosets[1]), p, 1, multiplicity=1)
        assert c1.type_counts == want, (p, dict(c1.type_counts))
        assert set(c1.type_counts) == attainable_types(sltau2_swap_chi, 1, p)
        c0 = census(conjugacy_classes(cosets[0]), p, 0, multiplicity=2)
        assert c0.type_counts[(1, 1, 1, 1)] > 0
        assert c0.type_counts[(2, 2)] > 0
        assert set(c0.type_counts) == attainable_types(sltau2_identity_chi, 2, p)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        split = (1, 1, 1, 1) in attainable_types(sltau2_swap_chi, 1, p)
        assert split == (p % 4 == 1 and p > 5), p


def test_rs_fraction_fit_reported():
    # rs_fraction(p) >= 1 - C/p with C fitted from the censuses themselves
    scen = builtin_scenarios()["sl2"]
    fractions = {}
    for p in (5, 7, 11, 13, 17):
        c = census(conjugacy_classes(enumerate_mod_p(scen, p)[0]), p, 0)
        fractions[p] = F(c.rs_count, c.total)
    cfit = max(p * (1 - frac) for p, frac in fractions.items())
    assert cfit > 0
    for p, frac in fractions.items():
        assert frac >= 1 - F(cfit) / p
    # monotone over the default list
    ordered = [fractions[p] for p in (5, 7, 11, 13, 17)]
    assert ordered == sorted(ordered)


def test_sl2_type_densities_at_small_primes():
    # both degree-2 types have coset-relative density >= 1/4 at every
    # default prime (frozen from the enumeration)
    scen = builtin_scenarios()["sl2"]
    for p in (5, 7, 11, 13):
        c = census(conjugacy_classes(enumerate_mod_p(scen, p)[0]), p, 0)
        for ct in ((1, 1), (2,)):
            assert c.density_coset(ct) >= F(1, 4), (p, ct, c.density_coset(ct))
