import random
from array import array
from fractions import Fraction as F

import pytest

from galwalk import permkit
from galwalk.exactmat import RationalMatrix, mat_mul
from galwalk.finfield import closure_mod_p, reduce_matrix
from galwalk.galois_id import SMALL_GROUPS
from galwalk.modpoly import make_cycle_type
from galwalk.permkit import (
    MAX_ORDER,
    EnumeratedGroup,
    GroupTooLarge,
    closure,
    compose,
    coset_labels,
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


def blockwise(step):
    """The block step of a one-element step."""
    return lambda block: [step(x) for x in block]


def plain_closure(start, steps, bound):
    """Reference closure: one element and one step at a time."""
    order = [start]
    seen = {start}
    for x in order:  # order grows as the search runs
        for step in steps:
            y = step(x)
            if y not in seen:
                if len(order) >= bound:
                    raise GroupTooLarge(f"closure exceeds bound {bound}")
                seen.add(y)
                order.append(y)
    return order


def word_lengths(found):
    """Each element's number of steps from the start, along its parents."""
    length = [0]
    for i in range(1, len(found.elements)):
        length.append(length[found.parent[i]] + 1)
    return length


def assert_closure_contract(found, elements, steps, run_closure):
    """found, a closure whose elements decode to elements, against the
    plain closure under steps (one element at a time); run_closure(bound)
    closes again under another bound."""
    want = plain_closure(elements[0], steps, len(elements))
    assert set(elements) == set(want) and len(elements) == len(want)
    position = {x: i for i, x in enumerate(elements)}
    for j, step in enumerate(steps):
        assert list(found.images[j]) == [position[step(x)] for x in elements]
    # the runs cover 1, 2, ... in order, each element's parent lying below
    # its run and reaching it by the run's step
    assert found.parent[0] == -1
    covered = 1
    for lo, hi, j in found.runs:
        assert lo == covered < hi
        covered = hi
        for k in range(lo, hi):
            assert found.parent[k] < lo
            assert found.images[j][found.parent[k]] == k
    assert covered == len(elements)
    # breadth-first: word length (depth along parent) never decreases
    length = word_lengths(found)
    assert length == sorted(length)
    # a bound of |G| holds; any lower bound is crossed, also inside a block
    assert len(run_closure(len(elements)).elements) == len(elements)
    for bound in {len(elements) - 1, min(permkit.BLOCK + 7, len(elements) - 1), 3}:
        with pytest.raises(GroupTooLarge, match=f"exceeds bound {bound}"):
            run_closure(bound)


def test_closure_contract_on_a_wreath_product():
    # S_3 wr S_3 (1,296 elements): several blocks of BLOCK elements
    gens = wreath_product(symmetric_group(3), symmetric_group(3)).generators
    steps = [(lambda x, g=g: compose(x, g)) for g in gens]
    start = identity_perm(9)
    found = closure(start, list(map(blockwise, steps)), MAX_ORDER)
    assert len(found.elements) == 1296 > 4 * permkit.BLOCK
    assert_closure_contract(found, found.elements, steps,
                            lambda bound: closure(start, list(map(blockwise, steps)), bound))


def test_closure_contract_on_sltau2_mod_7():
    # elements are row-id tuples; the plain closure multiplies matrices
    scen = builtin_scenarios()["sltau2"]
    found, rows = closure_mod_p(scen, 7)
    elements = [tuple(map(rows.__getitem__, x)) for x in found.elements]
    assert len(elements) == 2 * 7 * 48

    def times(g):
        cols = tuple(zip(*reduce_matrix(g, 7)))
        return lambda x: tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % 7 for col in cols) for row in x
        )

    steps = [times(g) for g, _ in scen.raw_generators]
    assert_closure_contract(found, elements, steps, lambda bound: closure_mod_p(scen, 7, bound)[0])


# Z/12 under x -> x + 1 and x -> x + 5, one element and a block at a time
Z12_ONE = [lambda x: (x + 1) % 12, lambda x: (x + 5) % 12]
Z12_STEPS = list(map(blockwise, Z12_ONE))


def test_closure_bound():
    assert len(closure(0, Z12_STEPS, 12).elements) == 12
    with pytest.raises(GroupTooLarge, match="closure exceeds bound 11"):
        closure(0, Z12_STEPS, 11)


def test_closure_elements():
    assert sorted(closure(0, Z12_STEPS, 100).elements) == list(range(12))
    # enumerate_group is this closure on permutations: S_3's elements
    gens = [(1, 0, 2), (1, 2, 0)]
    steps = [blockwise(lambda x, g=g: compose(x, g)) for g in gens]
    found = closure(identity_perm(3), steps, 100).elements
    assert len(found) == 6
    assert tuple(sorted(found)) == symmetric_group(3).elements


def test_closure_indices_images_and_spanning_tree():
    # elements are numbered in (block, step, position) order from the start
    found = closure(0, Z12_STEPS, 100)
    assert found.elements == [0, 1, 5, 2, 6, 10, 3, 7, 11, 4, 8, 9]
    position = {x: i for i, x in enumerate(found.elements)}
    assert len(set(position)) == len(found.elements) == 12
    for j, times in enumerate(Z12_ONE):
        assert list(found.images[j]) == [position[times(x)] for x in found.elements]
    # each element after the start is its parent's image under its run's step
    assert found.parent[0] == -1
    assert found.runs == ((1, 2, 0), (2, 3, 1), (3, 5, 0), (5, 6, 1), (6, 9, 0),
                          (9, 11, 0), (11, 12, 0))
    for lo, hi, j in found.runs:
        for i in range(lo, hi):
            assert found.parent[i] < lo
            assert found.images[j][found.parent[i]] == i


def test_closure_numbers_an_image_reached_twice_once():
    # the second block is [1, 2], and the third step sends both to 7
    steps = [lambda x: (x + 1) % 8, lambda x: (x + 2) % 8, lambda x: 7 if x in (1, 2) else x]
    found = closure(0, list(map(blockwise, steps)), 100)
    assert found.elements[:3] == [0, 1, 2]
    assert sorted(found.elements) == list(range(8))
    assert found.elements.index(7) == 5 and list(found.parent[5:6]) == [1]
    assert_closure_contract(found, found.elements, steps,
                            lambda bound: closure(0, list(map(blockwise, steps)), bound))


def test_depth_bounded_closure_holds_the_words_up_to_that_length():
    # diag_antidiag's group is infinite; its words of length <= d are the
    # products of d letters, and its identity letter adds no new product
    scen = builtin_scenarios()["diag_antidiag"]
    ident = RationalMatrix.identity(2)
    letters = [g for g, _ in scen.admissible().generators if g != ident]
    steps = [lambda block, g=g: [mat_mul(m, g) for m in block] for g in letters]
    products = [{ident}]
    for d in range(1, 8):
        products.append(products[-1] | {mat_mul(m, g) for m in products[-1] for g in letters})
    for d in range(8):
        found = closure(ident, steps, MAX_ORDER, d)
        assert len(found.elements) == len(products[d]) and set(found.elements) == products[d]
        expanded = len(found.images[0])
        assert all(len(image) == expanded for image in found.images)
        assert set(found.elements[:expanded]) == (products[d - 1] if d else set())
        length = word_lengths(found)
        assert length == sorted(length) and length[-1] == d
        for g, image in zip(letters, found.images):
            assert [found.elements[i] for i in image] == [
                mat_mul(m, g) for m in found.elements[:expanded]]
    # depth 0 is the start alone; the bound holds under a depth too
    assert closure(0, Z12_STEPS, 100, 0) == ([0], (array("i"), array("i")), array("i", [-1]), ())
    assert closure(0, Z12_STEPS, 100, 2).elements == [0, 1, 5, 2, 6, 10]
    assert len(closure(ident, steps, 300, 7).elements) == len(products[7]) <= 300
    with pytest.raises(GroupTooLarge, match="closure exceeds bound 100"):
        closure(ident, steps, 100, 7)
    with pytest.raises(GroupTooLarge, match="closure exceeds bound 11"):
        closure(0, Z12_STEPS, 11, 5)


def test_closure_carry_walks_the_spanning_tree():
    # on Z/12 the steps themselves carry the start to every element, from
    # 7 they carry x -> 7 + x, and labels x mod 3 add 1 and 2 along them
    found = closure(0, Z12_STEPS, 100)
    assert found.carry(0, Z12_ONE) == found.elements
    assert found.carry(7, Z12_ONE) == [(7 + x) % 12 for x in found.elements]
    mod3 = [lambda v: (v + 1) % 3, lambda v: (v + 2) % 3]
    assert found.carry(0, mod3) == [x % 3 for x in found.elements]
    # on S_3, right multiplications carry left multiplication by h, as
    # values and as element indices read off the Cayley table
    gens = [(1, 0, 2), (1, 2, 0)]
    steps = [(lambda x, g=g: compose(x, g)) for g in gens]
    found = closure(identity_perm(3), list(map(blockwise, steps)), 100)
    position = {x: i for i, x in enumerate(found.elements)}
    by_index = [image.__getitem__ for image in found.images]
    for h in found.elements:
        left = [compose(h, x) for x in found.elements]
        assert found.carry(h, steps) == left
        assert found.carry(position[h], by_index) == [position[y] for y in left]


def shift(a, n):
    """The block step x -> x + a on Z/n."""
    return lambda block: [(x + a) % n for x in block]


def test_coset_labels_and_collision():
    # x -> x + 1 labelled 1 in Z/2: consistent on Z/12 (label x mod 2) ...
    found = closure(0, [shift(1, 12)], 100)
    labels = coset_labels(found, [1], 2)
    assert dict(zip(found.elements, labels)) == {x: x % 2 for x in range(12)}
    # ... and mod 3 on x -> x + 1 labelled 2, x -> x + 5 labelled 1
    found = closure(0, [shift(1, 12), shift(5, 12)], 100)
    labels = coset_labels(found, [2, 1], 3)
    assert dict(zip(found.elements, labels)) == {x: 2 * x % 3 for x in range(12)}
    # ... but on Z/9 the ninth step returns to 0 with label 1
    with pytest.raises(ValueError, match="two coset labels"):
        coset_labels(closure(0, [shift(1, 9)], 100), [1], 2)
    # the bound is checked on new elements only, so a closure whose bound
    # is the group's order completes, and its collision is still found
    with pytest.raises(ValueError, match="two coset labels"):
        coset_labels(closure(0, [shift(1, 9)], 9), [1], 2)
    # one coset: every label is 0, with nothing to check
    assert set(coset_labels(closure(0, [shift(1, 9)], 9), [0], 1)) == {0}


def test_coset_labels_on_a_depth_bounded_closure_check_the_expanded_edges():
    # Z/9 under x -> x + 1 labelled 1 mod 2: the last layer is labelled but
    # not expanded, so the edge 8 -> 0 that collides is checked only once
    # element 8 is expanded
    found = closure(0, [shift(1, 9)], 100, 3)
    assert coset_labels(found, [1], 2) == [0, 1, 0, 1]
    assert len(found.images[0]) == 3
    assert coset_labels(closure(0, [shift(1, 9)], 100, 8), [1], 2) == [x % 2 for x in range(9)]
    for depth in (9, None):
        with pytest.raises(ValueError, match="two coset labels"):
            coset_labels(closure(0, [shift(1, 9)], 100, depth), [1], 2)


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
        spec.predicted
        for scen in builtin_scenarios().values()
        for spec in scen.cosets
        if spec.predicted is not None
    ]
    assert len(groups) == 13
    # and the two-level sign-flip wreaths, D4 and order 128
    groups += [
        wreath_product(cyclic_group(2), wreath_product(cyclic_group(2), symmetric_group(r)))
        for r in (1, 2)
    ]
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
