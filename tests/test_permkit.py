import random
from fractions import Fraction as F
from operator import add

import pytest

from galwalk import permkit
from galwalk.galois_id import SMALL_GROUPS
from galwalk.modpoly import make_cycle_type
from galwalk.permkit import (
    EnumeratedGroup,
    GroupTooLarge,
    LabelCollision,
    closure,
    compose,
    cycle_type,
    cyclic_group,
    enumerate_group,
    identity_perm,
    symmetric_group,
    trivial_group,
    wreath_product,
)
from galwalk.scenarios import builtin_scenarios


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


def test_enumerate_rejects_junk(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_group([(0, 0, 1)])
    with pytest.raises(ValueError):
        enumerate_group([(1, 0), (0, 1, 2)])
    # S_8 (order 40320) past an element bound of 100
    s8 = [tuple([1, 0] + list(range(2, 8))), tuple(list(range(1, 8)) + [0])]
    monkeypatch.setattr(permkit, "MAX_ORDER", 100)
    with pytest.raises(GroupTooLarge):
        enumerate_group(s8)


def z2_mul(a, b):
    return (a + b) % 2


# Z/12 under x -> x + 1 and x -> x + 5, every label 0
Z12_STEPS = [(lambda x: (x + 1) % 12, 0), (lambda x: (x + 5) % 12, 0)]


def test_closure_bound():
    assert len(closure(0, Z12_STEPS, add, 12).elements) == 12
    with pytest.raises(GroupTooLarge, match="closure exceeds bound 11"):
        closure(0, Z12_STEPS, add, 11)


def labelled(found):
    """A closure as element -> label."""
    return dict(zip(found.elements, found.labels))


def test_closure_all_labels_0():
    assert labelled(closure(0, Z12_STEPS, add, 100)) == {x: 0 for x in range(12)}
    # enumerate_group is this closure on permutations: S_3's elements
    gens = [(1, 0, 2), (1, 2, 0)]
    steps = [((lambda x, g=g: compose(x, g)), 0) for g in gens]
    labels = labelled(closure(identity_perm(3), steps, add, 100))
    assert set(labels.values()) == {0}
    assert tuple(sorted(labels)) == symmetric_group(3).elements


def test_closure_indices_images_and_spanning_tree():
    # elements are numbered in breadth-first order from the start
    found = closure(0, Z12_STEPS, add, 100)
    assert found.elements == [0, 1, 5, 2, 6, 10, 3, 7, 11, 4, 8, 9]
    position = {x: i for i, x in enumerate(found.elements)}
    assert len(set(position)) == len(found.elements) == 12
    for j, (times, _) in enumerate(Z12_STEPS):
        assert list(found.images[j]) == [position[times(x)] for x in found.elements]
    # each element after the start is its parent's image under its step
    assert (found.parent[0], found.via[0]) == (-1, -1)
    for i in range(1, len(found.elements)):
        assert found.parent[i] < i
        assert found.images[found.via[i]][found.parent[i]] == i


def test_closure_labels_and_collision():
    # x -> x + 1 labelled 1 in Z/2: consistent on Z/12 (label x mod 2) ...
    assert labelled(closure(0, [(lambda x: (x + 1) % 12, 1)], z2_mul, 100)) == {
        x: x % 2 for x in range(12)
    }
    # ... but on Z/9 the ninth step returns to 0 with label 1
    with pytest.raises(LabelCollision):
        closure(0, [(lambda x: (x + 1) % 9, 1)], z2_mul, 100)
    # the bound is checked on new elements only, so a collision found
    # after the last new element is still a collision
    with pytest.raises(LabelCollision):
        closure(0, [(lambda x: (x + 1) % 9, 1)], z2_mul, 9)


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


def wreath_lifts_by_hand(base, top):
    """wreath_product's generator lifts as hand-indexed loops, before
    permkit.block_map: the reference its lifts must reproduce."""
    n, d = base.degree, top.degree
    gens = []
    for b in range(d):
        for g in base.generators:
            lift = list(range(n * d))
            for i in range(n):
                lift[b * n + i] = b * n + g[i]
            gens.append(tuple(lift))
    for t in top.generators:
        gens.append(tuple(t[b] * n + i for b in range(d) for i in range(n)))
    return gens


@pytest.mark.parametrize("base,top", [
    (cyclic_group(2), trivial_group(1)),
    (cyclic_group(2), symmetric_group(2)),
    (cyclic_group(2), symmetric_group(3)),
    (cyclic_group(3), symmetric_group(2)),
    (symmetric_group(3), cyclic_group(2)),
    (symmetric_group(2), trivial_group(3)),
    (wreath_product(cyclic_group(2), symmetric_group(2)), cyclic_group(2)),
])
def test_wreath_lifts_match_the_hand_indexed_lifts(base, top):
    reference = enumerate_group(wreath_lifts_by_hand(base, top), degree=base.degree * top.degree)
    assert wreath_product(base, top).elements == reference.elements


def test_wreath_bound():
    # order 10^5 * 5! = 12,000,000, refused before any enumeration
    with pytest.raises(GroupTooLarge, match="wreath order 12000000 exceeds bound 2000000"):
        wreath_product(cyclic_group(10), symmetric_group(5))


def orbit_lengths_by_generators(group: EnumeratedGroup):
    """Reference orbits: a breadth-first search over the generators from
    each point not yet seen."""
    seen = [False] * group.degree
    sizes = []
    for start in range(group.degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # grows while it is read
            for g in group.generators:
                if not seen[g[x]]:
                    seen[g[x]] = True
                    orbit.append(g[x])
        sizes.append(len(orbit))
    return make_cycle_type(sizes)


def test_orbit_lengths_match_the_generator_search():
    groups = [
        pg.group
        for scen in builtin_scenarios().values()
        for spec in scen.cosets
        for pg in (spec.predicted, spec.upper)
        if pg is not None
    ]
    assert len(groups) == 15
    for group in groups:
        assert group.orbit_lengths() == orbit_lengths_by_generators(group)
    for (name, orbits), gens in SMALL_GROUPS.items():
        group = enumerate_group(gens, degree=sum(orbits))
        assert group.orbit_lengths() == orbit_lengths_by_generators(group) == orbits, name


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
