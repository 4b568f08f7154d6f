from fractions import Fraction as F
from math import gcd

import pytest

from galwalk.permkit import cyclic_group, cycle_type, enumerate_group, symmetric_group
from galwalk.picatalog import (
    pi_restriction_of_scalars,
    pi_sl_n,
    pi_sl_n_doubled,
    pi_sl_n_tau,
    pi_sl_n_tau_reciprocal,
    pi_sl_power_cyclic,
    pi_sl_power_identity,
)

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


def test_pi_sl_n_tau():
    t2 = pi_sl_n_tau(2)
    assert t2.degree == 4 and t2.order == 8
    assert t2.type_distribution[(4,)] == F(1, 4)
    t4 = pi_sl_n_tau(4)
    assert t4.degree == 8 and t4.order == 128  # 2^(2r) * |signed pair group|
    for n in (3, 5):
        with pytest.raises(ValueError):
            pi_sl_n_tau(n)


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
    # proper containment inside the sign-flip wreath on identical points
    assert set(r2.elements) < set(pi_sl_n_tau(2).elements)
    assert set(r4.elements) < set(pi_sl_n_tau(4).elements)


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
        pi_sl_n_tau(2),
        pi_sl_n_tau_reciprocal(4),
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
