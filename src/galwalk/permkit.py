"""Permutation groups at desk scale: the one breadth-first group closure,
full enumeration from generators, exact cycle-type distributions, and
imprimitive product constructions.

Groups here are small enough (order <= MAX_ORDER) that breadth-first
closure beats anything clever, and it yields exact class data for free.
`closure` also enumerates the mod-p matrix groups of finfield.  Its steps
map blocks of up to BLOCK consecutive elements of one breadth-first
layer, so per block and step the images already numbered are found by
one C-level dict lookup pass and only new elements meet the interpreter.
It numbers the elements layer by layer (with a depth, it stops after that
many: the oracle's words in an infinite matrix group) and records, as
typed index arrays, each step's image of each element (a column of the
Cayley table) and each element's parent, with the runs of consecutive
elements first reached by one step.  `Closure.carry` takes a map down
that tree a run at a time: `coset_labels` labels any closure's elements
with their cosets, and finfield carries left multiplications (its
conjugacy classes are orbits of the resulting index permutations).
Orbits and cycle types of permutation groups are read off the elements.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, count, repeat
from operator import is_, ne
from typing import NamedTuple

from . import leading_eq, leading_hash
from .modpoly import CycleType, make_cycle_type

Permutation = tuple[int, ...]

# element bound of every closure; finfield's --bound defaults to it
MAX_ORDER = 2_000_000

# elements per closure step call; a block's new tuples must die young:
# much larger blocks keep them alive across young garbage collections,
# which then promote them and force slow full collections and more memory
BLOCK = 256


class GroupTooLarge(RuntimeError):
    """Closure exceeded the element bound; raise the bound to proceed."""


class Closure(NamedTuple):
    """A closure on element indices, numbered in breadth-first order.

    elements[i] is element i (0 is the start), its distance from the start
    never falling as i grows.  images[j][i] is the index of step j applied
    to each expanded element i, so each images[j] is one column of the
    Cayley table when the steps are right multiplications by generators.
    Element i > 0 was first reached from element parent[i] < i: a spanning
    tree, rooted at the start, along which any map that commutes with the
    steps can be carried from element 0 to every other element.  runs
    lists (start, stop, j) in order: elements start..stop-1 were first
    reached by step j, and every one of their parents lies below start.
    """

    elements: list
    images: tuple[array, ...]
    parent: array
    runs: tuple[tuple[int, int, int], ...]

    def carry(self, start, maps) -> list:
        """A value per element carried down the spanning tree: start at
        element 0, and maps[j] of the value at parent[k] at each k of a
        run of step j, one run at a time."""
        values = [start]
        extend, value = values.extend, values.__getitem__
        for lo, hi, j in self.runs:
            extend(map(maps[j], map(value, self.parent[lo:hi])))
        return values


def closure(start, steps, bound: int, depth: int | None = None) -> Closure:
    """Breadth-first closure of start under the block steps.

    steps[j](block) maps a list of consecutive elements to the list of
    their images under step j.  Each layer is taken BLOCK elements at a
    time, no block reaching into the next; per block and step the known
    images are looked up in one pass, and only the new ones are numbered
    one by one, in (block, step, position) order, the parent of each being
    its preimage in the block.  With a depth d only layers 0..d-1 are
    expanded (all elements are expanded without one), so the elements
    are layers 0..d and the images cover the expanded prefix.

    Steps by the raw generators are enough: in a finite group the monoid
    they generate is the whole group, so inverses and the identity would
    find no new element.  Raises GroupTooLarge past bound elements.
    """
    index = {start: 0}
    elements = [start]
    parent = array("i", [-1])
    images = tuple(array("i") for _ in steps)
    runs = []
    add, grow, new_parent = index.setdefault, elements.append, parent.append
    edges = list(enumerate(zip(steps, images)))
    frontier = 0  # the next layer to expand is elements[frontier:]
    for _ in count() if depth is None else range(depth):
        end = len(elements)
        if frontier == end:
            break
        for lo in range(frontier, end, BLOCK):
            block = elements[lo:min(lo + BLOCK, end)]
            for j, (step, image) in edges:
                found = step(block)
                known = list(map(index.get, found))
                if None in known:
                    first = len(elements)
                    for pos in list(compress(count(), map(is_, known, repeat(None)))):
                        nxt, k = found[pos], len(elements)
                        known[pos] = add(nxt, k)  # a step may reach one element twice
                        if known[pos] == k:
                            if k >= bound:
                                raise GroupTooLarge(f"closure exceeds bound {bound}")
                            grow(nxt)
                            new_parent(lo + pos)
                    if len(elements) > first:
                        runs.append((first, len(elements), j))
                image.extend(known)
        frontier = end
    return Closure(elements, images, parent, tuple(runs))


def coset_labels(group: Closure, steps: list[int], m: int) -> list[int]:
    """Each element's coset label mod m, for a closure from the identity
    under right multiplications by generators labelled steps[j].

    Labels add along the spanning tree, from 0 at the identity; then each
    Cayley edge x_i -> x_i g_j of the expanded elements (with a depth, all
    but the last layer) must add steps[j], or one element would carry two
    labels: ValueError.  At m = 1 every label is 0 and nothing is checked.
    """
    if m == 1:
        return [0] * len(group.elements)
    plus = [[(lab + step) % m for lab in range(m)] for step in steps]
    labels = group.carry(0, [plus_step.__getitem__ for plus_step in plus])
    for image, plus_step in zip(group.images, plus):
        # map stops at its shorter input, image: the expanded elements
        if any(map(ne, map(labels.__getitem__, image), map(plus_step.__getitem__, labels))):
            raise ValueError("an element carries two coset labels")
    return labels


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a after b: (a*b)(x) = a(b(x))."""
    return tuple(map(a.__getitem__, b))


def is_permutation(seq) -> bool:
    return sorted(seq) == list(range(len(seq)))


def cycle_type(g: Permutation) -> CycleType:
    """Partition of the degree by orbit sizes."""
    seen = [False] * len(g)
    parts = []
    for start in range(len(g)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = g[x]
            length += 1
        parts.append(length)
    return make_cycle_type(parts)


class EnumeratedGroup(NamedTuple):
    """A fully enumerated permutation group with its cycle-type distribution.

    The group is its degree and sorted elements: equality and hashing read
    those two fields only.  type_distribution maps each cycle type to its
    exact frequency (#elements of that type / order), a Fraction;
    frequencies sum to 1.  generators are the permutations the elements
    were closed from.  name is the catalog name of a scenario coset's
    predicted group (picatalog), empty otherwise.
    """

    degree: int
    elements: tuple[Permutation, ...]
    type_distribution: dict
    generators: tuple[Permutation, ...] = ()
    name: str = ""

    _compared = 2
    __eq__, __ne__, __hash__ = leading_eq, object.__ne__, leading_hash

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbit_lengths(self) -> CycleType:
        """Sizes of the group's orbits on its points, a partition of the
        degree; the orbit of x is {g[x] for g in elements}."""
        seen: set[int] = set()
        sizes = []
        for x in range(self.degree):
            if x not in seen:  # each orbit is read off the elements once
                orbit = {g[x] for g in self.elements}
                seen |= orbit
                sizes.append(len(orbit))
        return make_cycle_type(sizes)

    def types(self) -> tuple[CycleType, ...]:
        return tuple(self.type_distribution.keys())


def _distribution(elements) -> dict:
    counts: dict[CycleType, int] = {}
    for g in elements:
        ct = cycle_type(g)
        counts[ct] = counts.get(ct, 0) + 1
    total = len(elements)
    return {
        ct: Fraction(counts[ct], total)
        for ct in sorted(counts.keys(), reverse=True)
    }


def enumerate_group(generators, degree: int | None = None) -> EnumeratedGroup:
    """Closure of the generators under composition.

    The empty generator list yields the trivial group (degree must then be
    supplied).  Raises GroupTooLarge past MAX_ORDER elements.
    """
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must share one degree")
    if any(not is_permutation(g) for g in gens):
        raise ValueError("generator is not a bijection")
    steps = [lambda block, times=partial(compose, b=g): list(map(times, block)) for g in gens]
    elements = tuple(sorted(closure(identity_perm(degree), steps, MAX_ORDER).elements))
    return EnumeratedGroup(degree, elements, _distribution(elements), tuple(gens))


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> EnumeratedGroup:
    """S_n on n points, enumerated once per n."""
    if n == 1:
        return enumerate_group([], degree=1)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return enumerate_group(gens, degree=n)


def cyclic_group(n: int) -> EnumeratedGroup:
    """Cyclic group of order n in its regular action on n points."""
    if n == 1:
        return enumerate_group([], degree=1)
    return enumerate_group([tuple(list(range(1, n)) + [0])], degree=n)


def trivial_group(n: int) -> EnumeratedGroup:
    return enumerate_group([], degree=n)


def block_map(outer: Permutation, inner) -> Permutation:
    """The permutation of d blocks of n points sending point (b, i), index
    b*n + i, to (outer[b], inner[b][i]): inner[b] moves the points of block
    b and outer carries the block along."""
    n = len(inner[0])
    return tuple(outer[b] * n + x for b, perm in enumerate(inner) for x in perm)


@lru_cache(maxsize=None)
def wreath_product(base: EnumeratedGroup, top: EnumeratedGroup) -> EnumeratedGroup:
    """base wr top: one base copy per top point, top permuting blocks rigidly.

    Point (block b, slot i) has index b*base.degree + i.  Enumerated once
    per pair of groups: C2 and S2 are one group, so C2 wr S2 (sltau4's
    swap coset) is S2 wr S2 (res_sqrt2's).
    """
    n, d = base.degree, top.degree
    expected = base.order ** d * top.order
    if expected > MAX_ORDER:
        raise GroupTooLarge(f"wreath order {expected} exceeds bound {MAX_ORDER}")
    fixed = [identity_perm(n)] * d
    gens = [
        block_map(identity_perm(d), fixed[:b] + [g] + fixed[b + 1:])
        for b in range(d)
        for g in base.generators
    ]
    gens += [block_map(t, fixed) for t in top.generators]
    result = enumerate_group(gens, degree=n * d)
    assert result.order == expected, "wreath closure has unexpected order"
    return result
