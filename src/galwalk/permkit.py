"""Permutation groups at desk scale: the one breadth-first group closure,
full enumeration from generators, exact cycle-type distributions, and
imprimitive product constructions.

Groups here are small enough (order <= MAX_ORDER) that breadth-first
closure beats anything clever, and it yields exact class data for free.
`closure` also enumerates the mod-p matrix groups of finfield, with a coset
label carried along each element, and their conjugacy classes; orbits and
cycle types are read off the enumerated elements.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add

from .modpoly import CycleType, make_cycle_type

Permutation = tuple[int, ...]

# element bound of every closure (the default of ExperimentConfig.bound)
MAX_ORDER = 2_000_000


class GroupTooLarge(RuntimeError):
    """Closure exceeded the element bound; raise the bound to proceed."""


class LabelCollision(ValueError):
    """Closure reached one element with two different labels."""


def closure(start, steps, mul, bound: int) -> dict:
    """Breadth-first closure from start: element -> label, start labelled 0.

    A step (times, label) maps an element x to times(x) and its label l to
    mul(l, label).  Steps by the raw generators are enough: in a finite
    group the monoid they generate is the whole group, and labels that
    agree on every g-edge agree on every g^-1-edge, since
    label(x g^-1) * label(g) = label(x).  So inverses and the identity
    would find no new element and no new label collision.

    start need not be the identity.  With one step x -> g^-1 x g per raw
    generator g (and every label 0) the closure from x is x's conjugacy
    class: the conjugations form a finite group, the image of the group in
    its inner automorphisms, so the monoid the raw ones generate is all of
    it and the orbit of x is {g^-1 x g : g in the group}.

    Raises GroupTooLarge past bound elements, and LabelCollision when one
    element is reached with two different labels.
    """
    labels = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        cur_label = labels[cur]
        for times, lab in steps:
            nxt = times(cur)
            nxt_label = mul(cur_label, lab)
            known = labels.get(nxt)
            if known is None:
                if len(labels) >= bound:
                    raise GroupTooLarge(f"closure exceeds bound {bound}")
                labels[nxt] = nxt_label
                queue.append(nxt)
            elif known != nxt_label:
                raise LabelCollision(f"one element has labels {known} and {nxt_label}")
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
    elements = tuple(sorted(closure(identity_perm(degree), steps, add, MAX_ORDER)))
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


def wreath_product(base: EnumeratedGroup, top: EnumeratedGroup) -> EnumeratedGroup:
    """base wr top: one base copy per top point, top permuting blocks rigidly.

    Point (block b, slot i) has index b*base.degree + i.
    """
    n, d = base.degree, top.degree
    expected = base.order ** d * top.order
    if expected > MAX_ORDER:
        raise GroupTooLarge(f"wreath order {expected} exceeds bound {MAX_ORDER}")
    size = n * d
    gens = []
    for b in range(d):
        for g in base.generators:
            lift = list(range(size))
            for i in range(n):
                lift[b * n + i] = b * n + g[i]
            gens.append(tuple(lift))
    for t in top.generators:
        lift = list(range(size))
        for b in range(d):
            for i in range(n):
                lift[b * n + i] = t[b] * n + i
        gens.append(tuple(lift))
    result = enumerate_group(gens, degree=size)
    assert result.order == expected, "wreath closure has unexpected order"
    return result
