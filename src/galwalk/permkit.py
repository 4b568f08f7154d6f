"""Permutation groups at desk scale: full enumeration from generators,
exact cycle-type distributions, and imprimitive product constructions.

Groups here are small enough (order <= ~10^6) that breadth-first closure
beats anything clever, and it yields exact class data for free.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .modpoly import CycleType, make_cycle_type

Permutation = tuple[int, ...]

# element bound of every permutation closure
MAX_ORDER = 2_000_000


class GroupTooLarge(RuntimeError):
    """Closure exceeded the element bound; raise the bound to proceed."""


def identity_perm(n: int) -> Permutation:
    return tuple(range(n))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a after b: (a*b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


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
        """Sizes of the group's orbits on its points, a partition of the degree."""
        seen = [False] * self.degree
        sizes = []
        for start in range(self.degree):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for x in orbit:  # grows while it is read
                for g in self.generators:
                    if not seen[g[x]]:
                        seen[g[x]] = True
                        orbit.append(g[x])
            sizes.append(len(orbit))
        return make_cycle_type(sizes)

    def types(self) -> tuple[CycleType, ...]:
        return tuple(self.type_distribution.keys())


def _distribution(degree: int, elements) -> dict:
    counts: dict[CycleType, int] = {}
    for g in elements:
        ct = cycle_type(g)
        counts[ct] = counts.get(ct, 0) + 1
    total = len(elements)
    return {
        ct: Fraction(counts[ct], total)
        for ct in sorted(counts.keys(), reverse=True)
    }


def enumerate_group(
    generators, degree: int | None = None, bound: int = MAX_ORDER
) -> EnumeratedGroup:
    """Breadth-first closure of the generators under composition.

    The empty generator list yields the trivial group (degree must then be
    supplied).  Raises GroupTooLarge if the closure exceeds bound.
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
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ident = identity_perm(degree)
    seen = {ident}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(seen) >= bound:
                    raise GroupTooLarge(f"group exceeds bound {bound}")
                seen.add(nxt)
                queue.append(nxt)
    elements = tuple(sorted(seen))
    return EnumeratedGroup(
        degree, elements, _distribution(degree, elements), tuple(gens)
    )


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


def wreath_product(
    base: EnumeratedGroup, top: EnumeratedGroup, bound: int = MAX_ORDER
) -> EnumeratedGroup:
    """base wr top: one base copy per top point, top permuting blocks rigidly.

    Point (block b, slot i) has index b*base.degree + i.
    """
    n, d = base.degree, top.degree
    expected = base.order ** d * top.order
    if expected > bound:
        raise GroupTooLarge(f"wreath order {expected} exceeds bound {bound}")
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
    result = enumerate_group(gens, degree=size, bound=bound)
    assert result.order == expected, "wreath closure has unexpected order"
    return result
