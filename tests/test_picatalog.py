from fractions import Fraction as F
from itertools import permutations, product
from math import gcd, isqrt, prod

import pytest

from galwalk.exactmat import RationalMatrix, char_poly, det, mat_inverse
from galwalk.experiment import batch_seed
from galwalk.modpoly import squarefree_over_q
from galwalk.permkit import cyclic_group, cycle_type, enumerate_group, symmetric_group
from galwalk.picatalog import (
    pi_restriction_of_scalars,
    pi_sl_n,
    pi_sl_n_doubled,
    pi_sl_n_tau_reciprocal,
    pi_sl_power_cyclic,
    pi_sl_power_identity,
)
from galwalk.scenarios import get_scenario
from galwalk.walker import batch_sample
from fraction_rows import fraction_rows

PARTITIONS = {2: 2, 3: 3, 4: 5, 5: 7}


def test_pi_sl_n():
    assert pi_sl_n(2).order == 2
    assert pi_sl_n(3).type_distribution == {
        (3,): F(1, 3),
        (2, 1): F(1, 2),
        (1, 1, 1): F(1, 6),
    }
    assert pi_sl_n(5).order == 120
    # the catalog name labels the group and does not enter equality
    assert pi_sl_n(3).name == "sym3" and pi_sl_n(3) == symmetric_group(3)
    with pytest.raises(ValueError):
        pi_sl_n(1)


def test_pi_sl_n_partition_count():
    for n, pn in PARTITIONS.items():
        assert len(pi_sl_n(n).type_distribution) == pn


def test_pi_sl_n_doubled():
    d = pi_sl_n_doubled(3)
    assert d.degree == 6 and d.order == 6
    assert set(d.type_distribution) == {(1,) * 6, (2, 2, 1, 1), (3, 3)}


def test_pi_sl_n_tau_reciprocal():
    r2 = pi_sl_n_tau_reciprocal(2)
    assert r2.order == 4
    assert r2.type_distribution == {
        (2, 2): F(3, 4),
        (1, 1, 1, 1): F(1, 4),
    }
    r4 = pi_sl_n_tau_reciprocal(4)
    assert r4.order == 16
    assert r4.type_distribution == {
        (4, 4): F(1, 4),
        (2, 2, 2, 2): F(9, 16),
        (2, 2, 1, 1, 1, 1): F(1, 8),
        (1,) * 8: F(1, 16),
    }
    for n in (1, 3, 6, 8):  # no container argument reaches these n
        with pytest.raises(ValueError, match=f"n = {n}: the Pfaffian argument"):
            pi_sl_n_tau_reciprocal(n)


def conjugate_in_sym(g, h) -> bool:
    """Whether some relabeling p of the points has p g p^-1 = h: the
    generators' conjugates lie in h, and the orders agree."""
    if g.order != h.order:
        return False
    inside = set(h.elements)

    def conjugate(p, gen):  # p(x) -> p(gen(x))
        image = [0] * len(p)
        for x, y in enumerate(gen):
            image[p[x]] = p[y]
        return tuple(image)

    return any(
        all(conjugate(p, gen) in inside for gen in g.generators)
        for p in permutations(range(g.degree))
    )


def swap_container(r, pfaffian):
    """Every sigma with sigma(s_j) = eps_j * s_pi(j)^dlt_j, on the roots
    (-1)^e * s_j^((-1)^l) at point 4j + 2l + e; with pfaffian, only those
    fixing prod (s_j - 1/s_j), which sigma multiplies by prod eps_j * dlt_j."""
    return [
        tuple(
            4 * pi[j] + 2 * (l ^ (dlt[j] < 0)) + (e ^ (eps[j] < 0))
            for j in range(r) for l in (0, 1) for e in (0, 1)
        )
        for pi in permutations(range(r))
        for eps, dlt in product(product((1, -1), repeat=r), repeat=2)
        if not pfaffian or prod(eps + dlt) == 1
    ]


def cyclic_shift_container(n, d):
    """Every sigma(zeta^i r_j) = zeta^(a*i + c_j) r_pi(j), a a unit mod d and
    sum c_j = 0 mod d, on the point d*j + i."""
    return [
        tuple(d * pi[j] + (a * i + c[j]) % d for j in range(n) for i in range(d))
        for pi in permutations(range(n))
        for a in range(1, d) if gcd(a, d) == 1
        for c in product(range(d), repeat=n) if sum(c) % d == 0
    ]


@pytest.mark.parametrize("container,catalog", [
    (lambda: swap_container(1, pfaffian=False), lambda: pi_sl_n_tau_reciprocal(2)),
    (lambda: swap_container(2, pfaffian=True), lambda: pi_sl_n_tau_reciprocal(4)),
    (lambda: cyclic_shift_container(2, 3), lambda: pi_sl_power_cyclic(2, 3)),
])
def test_catalog_group_is_its_container_argument(container, catalog):
    # the root relations alone list a group, conjugate to the catalog's
    elements = container()
    group = enumerate_group(elements, degree=len(elements[0]))
    assert group.order == len(elements)
    assert conjugate_in_sym(group, catalog())


@pytest.mark.parametrize("name", ["sltau2", "sltau4"])
def test_swap_samples_carry_the_pfaffian_square(name):
    # each regular semisimple swap sample is [[0, B], [B^-T, 0]]; chi is
    # h(x^2), and h(1) = det(I - B B^-T) = det(B^T - B) = Pf^2 != 0
    scen = get_scenario(name)
    n = scen.dimension // 2
    checked = 0
    for s in batch_sample(scen.admissible(), 20, 160, batch_seed(1, 20)):
        chi = char_poly(s.element)
        if s.label != 1 or not squarefree_over_q(chi):
            continue
        rows = fraction_rows(s.element)
        assert all(x == 0 for row in rows[:n] for x in row[:n])
        assert all(x == 0 for row in rows[n:] for x in row[n:])
        b = RationalMatrix([row[n:] for row in rows[:n]])
        assert RationalMatrix([row[:n] for row in rows[n:]]) == mat_inverse(b.transpose())
        assert det(b) == 1
        assert all(c == 0 for c in chi[1::2])
        h_at_1 = sum(chi[::2])
        skew = RationalMatrix(
            [[fraction_rows(b)[j][i] - fraction_rows(b)[i][j] for j in range(n)] for i in range(n)]
        )
        assert h_at_1 in (det(skew), -det(skew))
        assert h_at_1 != 0 and isqrt(abs(h_at_1)) ** 2 == abs(h_at_1)
        checked += 1
    assert checked >= 40


def test_pi_sl_power_cyclic():
    g22 = pi_sl_power_cyclic(2, 2)
    assert g22.degree == 4 and g22.order == 4  # trivial unit action at d=2
    g23 = pi_sl_power_cyclic(2, 3)
    assert g23.degree == 6 and g23.order == 12
    assert pi_sl_power_identity(2, 3).order == 8


def test_pi_restriction_of_scalars():
    rs = pi_restriction_of_scalars(2, symmetric_group(2))
    assert rs.degree == 4 and rs.order == 8
    rs3 = pi_restriction_of_scalars(2, cyclic_group(3))
    assert rs3.degree == 6 and rs3.order == 24
    assert pi_restriction_of_scalars(3, symmetric_group(1)).order == 6
    with pytest.raises(ValueError):
        pi_restriction_of_scalars(2, pi_sl_power_identity(2, 2))  # intransitive


def test_every_element_type_has_positive_frequency():
    for group in (
        pi_sl_n(4),
        pi_sl_n_doubled(4),
        pi_sl_n_tau_reciprocal(2),
        pi_sl_n_tau_reciprocal(4),
        pi_sl_power_identity(2, 3),
        pi_sl_power_cyclic(2, 3),
        pi_restriction_of_scalars(2, symmetric_group(2)),
    ):
        dist = group.type_distribution
        for g in group.elements:
            assert dist[cycle_type(g)] > 0
        assert group.name and all(len(g) == group.degree for g in group.elements)


# The constructors' generators as they were written before permkit.block_map,
# one hand-indexed loop per block action: the reference the block map must
# reproduce, element for element.
def doubled_by_hand(n):
    return [tuple(list(g) + [n + g[i] for i in range(n)]) for g in symmetric_group(n).generators]


def tau_reciprocal_by_hand(n):
    r = n // 2
    size = 4 * r

    def idx(j, letter, sign):
        return 4 * j + 2 * letter + sign

    gens = []
    flip_all = list(range(size))
    for j in range(r):
        for letter in range(2):
            a, b = idx(j, letter, 0), idx(j, letter, 1)
            flip_all[a], flip_all[b] = flip_all[b], flip_all[a]
    gens.append(tuple(flip_all))
    for j in range(r):
        g = list(range(size))
        for s in range(2):
            g[idx(j, 0, s)], g[idx(j, 1, s)] = g[idx(j, 1, s)], g[idx(j, 0, s)]
        gens.append(tuple(g))
    for j in range(r - 1):
        g = list(range(size))
        for off in range(4):
            g[4 * j + off], g[4 * (j + 1) + off] = g[4 * (j + 1) + off], g[4 * j + off]
        gens.append(tuple(g))
    return gens


def power_cyclic_by_hand(n, d):
    size = n * d
    gens = []
    for j in range(n - 1):
        g = list(range(size))
        for i in range(d):
            g[d * j + i] = d * j + (i + 1) % d
            g[d * (n - 1) + i] = d * (n - 1) + (i - 1) % d
        gens.append(tuple(g))
    for j in range(n - 1):
        g = list(range(size))
        for i in range(d):
            g[d * j + i], g[d * (j + 1) + i] = g[d * (j + 1) + i], g[d * j + i]
        gens.append(tuple(g))
    for a in range(2, d):
        if gcd(a, d) == 1:
            g = list(range(size))
            for j in range(n):
                for i in range(d):
                    g[d * j + i] = d * j + (a * i) % d
            gens.append(tuple(g))
    return gens


@pytest.mark.parametrize("build,by_hand,args", [
    *[(pi_sl_n_doubled, doubled_by_hand, (n,)) for n in (2, 3, 4)],
    *[(pi_sl_n_tau_reciprocal, tau_reciprocal_by_hand, (n,)) for n in (2, 4)],
    *[(pi_sl_power_cyclic, power_cyclic_by_hand, nd)
      for nd in ((2, 2), (2, 3), (3, 2), (2, 4), (2, 5))],
])
def test_block_map_constructors_match_the_hand_indexed_generators(build, by_hand, args):
    group = build(*args)
    reference = enumerate_group(by_hand(*args), degree=group.degree)
    assert group.elements == reference.elements
