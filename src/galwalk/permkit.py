"""Permutation groups at desk scale: the one breadth-first group closure,
full enumeration from generators, exact cycle-type distributions, and
imprimitive product constructions.

Groups here are small enough (order <= MAX_ORDER) that breadth-first
closure beats anything clever, and it yields exact class data for free.
`closure` also enumerates the mod-p matrix groups of finfield, with a coset
label carried along each element.  It numbers the elements in the order
found and records, as typed index arrays, each step's image of each
element (a column of the Cayley table) and the edge each element was
first reached by; finfield reads conjugation off these tables, and its
conjugacy classes are orbits of those index permutations.  Orbits and
cycle types of permutation groups are read off the enumerated elements.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add
from typing import NamedTuple

from .modpoly import CycleType, make_cycle_type

Permutation = tuple[int, ...]

# element bound of every closure; finfield's --bound defaults to it
MAX_ORDER = 2_000_000


class GroupTooLarge(RuntimeError):
    """Closure exceeded the element bound; raise the bound to proceed."""


class LabelCollision(ValueError):
    """Closure reached one element with two different labels."""


class Closure(NamedTuple):
    """A closure on element indices, numbered in the order found.

    elements[i] is element i (0 is the start) and labels[i] its label.
    images[j][i] is the index of step j applied to element i, so each
    images[j] is one column of the Cayley table when the steps are right
    multiplications by generators.  Element i > 0 was first reached as
    step via[i] applied to element parent[i] < i: a spanning tree, rooted
    at the start, along which any map that commutes with the steps can be
    carried from element 0 to every other element.
    """

    elements: list
    labels: array
    images: tuple[array, ...]
    parent: array
    via: array


def closure(start, steps, mul, bound: int) -> Closure:
    """Breadth-first closure from start, start labelled 0 (labels are ints).

    A step (times, label) maps an element x to times(x) and its label l to
    mul(l, label).  Steps by the raw generators are enough: in a finite
    group the monoid they generate is the whole group, and labels that
    agree on every g-edge agree on every g^-1-edge, since
    label(x g^-1) * label(g) = label(x).  So inverses and the identity
    would find no new element and no new label collision.

    Raises GroupTooLarge past bound elements, and LabelCollision when one
    element is reached with two different labels.
    """
    index = {start: 0}
    elements = [start]
    labels = array("i", [0])
    parent = array("i", [-1])
    via = array("i", [-1])
    images = tuple(array("i") for _ in steps)
    edges = [(j, times, lab, image.append)
             for j, ((times, lab), image) in enumerate(zip(steps, images))]
    for i, cur in enumerate(elements):  # elements grows as the search runs
        cur_label = labels[i]
        for j, times, lab, record in edges:
            nxt = times(cur)
            nxt_label = mul(cur_label, lab)
            k = index.get(nxt)
            if k is None:
                k = len(elements)
                if k >= bound:
                    raise GroupTooLarge(f"closure exceeds bound {bound}")
                index[nxt] = k
                elements.append(nxt)
                labels.append(nxt_label)
                parent.append(i)
                via.append(j)
            elif labels[k] != nxt_label:
                raise LabelCollision(f"one element has labels {labels[k]} and {nxt_label}")
            record(k)
    return Closure(elements, labels, images, parent, via)


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


@dataclass(frozen=True)
class EnumeratedGroup:
    """A fully enumerated permutation group with its cycle-type distribution.

    type_distribution maps each cycle type to its exact frequency
    (#elements of that type / order), a Fraction; frequencies sum to 1.
    generators are the permutations the elements were closed from.
    """

    degree: int
    elements: tuple[Permutation, ...]
    type_distribution: dict = field(compare=False)
    generators: tuple[Permutation, ...] = field(default=(), compare=False)

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
    """Closure of the generators under composition, every label 0.

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
    steps = [(partial(compose, b=g), 0) for g in gens]
    elements = tuple(sorted(closure(identity_perm(degree), steps, add, MAX_ORDER).elements))
    return EnumeratedGroup(degree, elements, _distribution(elements), tuple(gens))


def symmetric_group(n: int) -> EnumeratedGroup:
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


def wreath_product(base: EnumeratedGroup, top: EnumeratedGroup) -> EnumeratedGroup:
    """base wr top: one base copy per top point, top permuting blocks rigidly.

    Point (block b, slot i) has index b*base.degree + i.
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
