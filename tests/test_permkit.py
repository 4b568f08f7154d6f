import random
from fractions import Fraction as F

import pytest

from galwalk.permkit import (
    EnumeratedGroup,
    GroupTooLarge,
    compose,
    cycle_type,
    cyclic_group,
    enumerate_group,
    identity_perm,
    symmetric_group,
    trivial_group,
    wreath_product,
)


def inverse_perm(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2, 3)) == (1, 1, 1, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_compose_and_inverse():
    a = (1, 2, 0)
    assert compose(a, inverse_perm(a)) == identity_perm(3)
    assert compose(inverse_perm(a), a) == identity_perm(3)


def test_enumerate_order_two():
    g = enumerate_group([(1, 0)])
    assert g.order == 2
    assert g.type_distribution == {(2,): F(1, 2), (1, 1): F(1, 2)}


def test_enumerate_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert g.type_distribution == {
        (3,): F(1, 3),
        (2, 1): F(1, 2),
        (1, 1, 1): F(1, 6),
    }


def test_enumerate_trivial():
    g = enumerate_group([], degree=5)
    assert g.order == 1
    assert g.type_distribution == {(1, 1, 1, 1, 1): F(1)}


def test_enumerate_rejects_junk():
    with pytest.raises(ValueError):
        enumerate_group([(0, 0, 1)])
    with pytest.raises(ValueError):
        enumerate_group([(1, 0), (0, 1, 2)])
    with pytest.raises(GroupTooLarge):
        enumerate_group(
            [tuple([1, 0] + list(range(2, 8))), tuple(list(range(1, 8)) + [0])],
            bound=100,
        )


def test_distribution_sums_to_one():
    b2 = wreath_product(cyclic_group(2), symmetric_group(2))
    for g in (symmetric_group(4), cyclic_group(6), b2):
        assert sum(g.type_distribution.values()) == 1
        counts = {}
        for e in g.elements:
            counts[cycle_type(e)] = counts.get(cycle_type(e), 0) + 1
        assert {k: F(v, g.order) for k, v in counts.items()} == dict(g.type_distribution)


def test_wreath_examples():
    w = wreath_product(cyclic_group(2), trivial_group(1))
    assert w.order == 2 and w.degree == 2
    b2 = wreath_product(cyclic_group(2), symmetric_group(2))
    assert b2.order == 8 and b2.degree == 4
    top = symmetric_group(3)
    assert wreath_product(cyclic_group(1), top).order == top.order
    assert wreath_product(cyclic_group(3), symmetric_group(2)).order == 3**2 * 2


def test_wreath_order_formula():
    for d, top in [(2, symmetric_group(2)), (2, symmetric_group(3)), (3, cyclic_group(2))]:
        w = wreath_product(cyclic_group(d), top)
        assert w.order == d ** top.degree * top.order


def test_wreath_bound():
    with pytest.raises(GroupTooLarge):
        wreath_product(cyclic_group(10), symmetric_group(5), bound=1000)


def relabel(group: EnumeratedGroup, perm) -> EnumeratedGroup:
    """Conjugate the whole group by a fixed relabeling of the points."""
    inv = inverse_perm(perm)
    elements = tuple(sorted(compose(perm, compose(g, inv)) for g in group.elements))
    return enumerate_group(elements, degree=group.degree)


def test_conjugation_invariance_of_distribution():
    rng = random.Random(7)
    g = wreath_product(cyclic_group(2), symmetric_group(2))
    for _ in range(5):
        perm = list(range(g.degree))
        rng.shuffle(perm)
        assert relabel(g, tuple(perm)).type_distribution == g.type_distribution


def test_elements_closed_under_ops():
    g = symmetric_group(4)
    elems = set(g.elements)
    rng = random.Random(3)
    for _ in range(50):
        a, b = rng.choice(g.elements), rng.choice(g.elements)
        assert compose(a, b) in elems
        assert inverse_perm(a) in elems
    assert 24 % g.order == 0
