"""Brute-force verification over small prime fields.

Reduces a scenario's generators mod p, enumerates the finite group they
generate together with coset labels (permkit.closure, one row-product memo
per generator), and classifies every coset element by the factorization
pattern of its characteristic polynomial as q**e with q squarefree
(modpoly.distinct_degree_pattern).  The characteristic polynomial is a
class function, so the census splits each coset into conjugacy classes and
computes it once per class, weighted by the class size.  The classes are
orbits of index permutations read off the closure's Cayley table: the
closure numbers the elements and records each generator's column, and
conjugation by a generator is a column composed with left multiplication
by its inverse, carried down the closure's spanning tree, so no matrix is
multiplied after enumeration.  Elements with the same characteristic
polynomial share a pattern, so it factors once per distinct polynomial.
This is the ground-truth census that the per-class density claims are
checked against.
"""
from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .exactmat import det, int_char_poly, reduce_poly_mod_p
from .modpoly import CycleType, PrimeFieldPolynomial, distinct_degree_pattern
from .permkit import MAX_ORDER, Closure, GroupTooLarge, LabelCollision, closure

PFMatrix = tuple[tuple[int, ...], ...]


class BadPrimeError(ValueError):
    """The scenario does not reduce cleanly at this prime; skip it."""


def reduce_matrix(mat, p: int) -> PFMatrix:
    """Entrywise reduction mod p; BadPrimeError iff p divides the denominator."""
    if mat.den % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    inv = pow(mat.den, -1, p)
    return tuple(tuple(e * inv % p for e in row) for row in mat.num)


class _RowTimes(dict):
    """row -> row * g mod p for one fixed matrix g, each computed once.

    Right multiplication by g acts on each row separately, so a product
    a * g is tuple(map(memo.__getitem__, a)), and products share row tuples.
    """

    def __init__(self, g: PFMatrix, p: int):
        super().__init__()
        self.cols = tuple(zip(*g))
        self.p = p

    def __missing__(self, row):
        image = self[row] = tuple(
            sum(x * y for x, y in zip(row, col)) % self.p for col in self.cols
        )
        return image


def charpoly_mod_p(a: PFMatrix, p: int) -> PrimeFieldPolynomial:
    """Characteristic polynomial over F_p: the integer one, reduced."""
    return reduce_poly_mod_p(int_char_poly(a), p)


def _sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * (p^2 - 1)(p^3 - 1)...(p^n - 1)."""
    return p ** (n * (n - 1) // 2) * prod(p ** i - 1 for i in range(2, n + 1))


def closure_order_bound(scenario, p: int) -> int:
    """Closed-form lower bound on the order of the scenario's mod-p closure.

    Elementary matrices generate SL_n over a field, so the identity coset
    contains a copy of SL_n(F_p) for each entry of scenario.sl_factors, and
    the built-in generators reach every label of the component group, each
    by a coset of that size.  Holds at every prime enumerate_mod_p accepts.
    """
    order = scenario.component_group.order
    for n in scenario.sl_factors:
        order *= _sl_order(n, p)
    return order


def reduce_generators(scenario, p: int) -> list[tuple[PFMatrix, int]]:
    """The scenario's raw generators mod p, with their labels.

    Checks the whole admissible set first: raises BadPrimeError for p = 2,
    a denominator divisible by p, or a generator that degenerates mod p.
    """
    if p == 2:
        raise BadPrimeError("p = 2 is excluded")
    for mat, _ in scenario.admissible().generators:
        reduce_matrix(mat, p)
        if det(mat).numerator % p == 0:
            raise BadPrimeError(f"generator degenerates mod {p}")
    return [(reduce_matrix(mat, p), lab) for mat, lab in scenario.raw_generators]


def closure_mod_p(scenario, p: int, bound: int = MAX_ORDER) -> Closure:
    """Closure of the scenario's reduced raw generators from the identity.

    Step j is right multiplication by raw generator g_j through its row
    memo, so images[j] is g_j's column of the Cayley table.  Raises
    BadPrimeError when p is unusable for the scenario (see
    reduce_generators, or an element reached with two different labels)
    and GroupTooLarge past bound.
    """
    steps = [
        (lambda a, row_times=_RowTimes(g, p).__getitem__: tuple(map(row_times, a)), lab)
        for g, lab in reduce_generators(scenario, p)
    ]
    n = scenario.dimension
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    try:
        return closure(ident, steps, scenario.component_group.mul, bound)
    except LabelCollision:
        raise BadPrimeError(f"label collision mod {p}") from None
    except GroupTooLarge:
        raise GroupTooLarge(f"closure at p={p} exceeds bound {bound}") from None


def conjugation_tables(group: Closure) -> tuple[array, ...]:
    """Per step j, the index permutation i -> index of g_j^-1 x_i g_j.

    group is a closure from the identity under right multiplications by
    g_0, g_1, ...  Left multiplication by g_j^-1 commutes with them, so it
    is carried down the spanning tree: x_k = x_parent g_via gives
    L[k] = images[via][L[parent]], from L[0], the index of g_j^-1, which
    is the one element that g_j's column sends to the identity.  Then
    g_j^-1 x_i g_j has index images[j][L[i]]: no matrix is multiplied or
    inverted.
    """
    images, parent, via = group.images, group.parent, group.via
    tables = []
    for image in images:
        left = array("i", [image.index(0)]) * len(group.elements)
        for k in range(1, len(left)):
            left[k] = images[via[k]][left[parent[k]]]
        tables.append(array("i", map(image.__getitem__, left)))
    return tuple(tables)


class Coset:
    """One coset of an enumerated mod-p group: members are its element
    indices, and elements and conjugations (see conjugation_tables) are
    shared by the group's cosets."""

    __slots__ = ("elements", "conjugations", "members")

    def __init__(self, elements: list, conjugations: tuple, members: array):
        self.elements = elements
        self.conjugations = conjugations
        self.members = members

    def __len__(self) -> int:
        return len(self.members)


def enumerate_mod_p(scenario, p: int, bound: int = MAX_ORDER) -> dict[int, Coset]:
    """The mod-p closure (closure_mod_p, same errors) split by coset label."""
    group = closure_mod_p(scenario, p, bound)
    conjugations = conjugation_tables(group)
    members = {lab: array("i") for lab in range(scenario.component_group.order)}
    for i, lab in enumerate(group.labels):
        members[lab].append(i)
    return {lab: Coset(group.elements, conjugations, idx) for lab, idx in members.items()}


def conjugacy_classes(coset: Coset):
    """(representative, class size) for each conjugacy class in a coset.

    A class is an orbit of the coset's conjugation tables, one per raw
    generator.  The conjugations by raw generators generate the image of
    the group in its inner automorphisms, and each table permutes a finite
    set, so following the tables forward reaches whole classes.  Coset
    labels lie in the abelian Z/m, so conjugation keeps them and a class
    lies inside one coset.  Raises ValueError when a conjugate is not a
    member or the class sizes do not sum to len(coset) (a repeated member,
    say), so a wrong table is never miscounted.
    """
    state = bytearray(len(coset.elements))  # 1: unseen member, 2: seen member
    for i in coset.members:
        state[i] = 1
    total = 0
    for i in coset.members:
        if state[i] != 1:
            continue
        state[i] = 2
        orbit = [i]
        for x in orbit:  # orbit grows as the search runs
            for table in coset.conjugations:
                y = table[x]
                if state[y] == 1:
                    state[y] = 2
                    orbit.append(y)
                elif not state[y]:
                    raise ValueError("a conjugate lies outside the coset")
        total += len(orbit)
        yield coset.elements[i], len(orbit)
    if total != len(coset):
        raise ValueError(f"class sizes sum to {total}, not {len(coset)}")


@dataclass(frozen=True)
class CosetCensus:
    """Cycle-type counts over the regular semisimple part of one coset."""

    p: int
    coset: int
    total: int
    rs_count: int
    type_counts: dict = field(compare=False)
    classes: int = field(compare=False)  # conjugacy classes censused
    chi_counts: dict = field(compare=False)  # chi coefficients -> element count

    def density_rs(self, ct: CycleType) -> Fraction:
        if self.rs_count == 0:
            return Fraction(0)
        return Fraction(self.type_counts.get(ct, 0), self.rs_count)

    def density_coset(self, ct: CycleType) -> Fraction:
        return Fraction(self.type_counts.get(ct, 0), self.total)


def census(classes, p: int, coset: int, multiplicity: int = 1) -> CosetCensus:
    """Classify one coset by characteristic polynomial pattern.

    classes yields (representative, class size) pairs covering the coset,
    as conjugacy_classes does; the characteristic polynomial is a class
    function, so it is computed once per class and weighted by its size.
    An element counts as regular semisimple iff its characteristic
    polynomial mod p is q**multiplicity with q squarefree (the operational
    proxy; multiplicity is the coset's generic eigenvalue multiplicity).
    The pattern is computed once per distinct characteristic polynomial.
    """
    chis: Counter = Counter()
    n_classes = 0
    for rep, size in classes:
        chis[charpoly_mod_p(rep, p).coeffs] += size
        n_classes += 1
    counts: dict[CycleType, int] = {}
    rs = 0
    for coeffs, count in chis.items():
        pattern = distinct_degree_pattern(PrimeFieldPolynomial(p, coeffs), multiplicity)
        if pattern is None:
            continue
        rs += count
        counts[pattern] = counts.get(pattern, 0) + count
    ordered = {ct: counts[ct] for ct in sorted(counts, reverse=True)}
    return CosetCensus(p, coset, sum(chis.values()), rs, ordered, n_classes, chis)


def density_report(censuses, target_types: dict[int, tuple[CycleType, ...]]):
    """Per-(p, coset, type) densities plus zero-density flags.

    target_types maps coset label -> the cycle types its predicted group
    attains; a target type with zero census count is flagged.  That
    includes zeros the theory explains, such as a type that needs a
    constant-field extension (Q(i) on the sltau2 swap coset) to be split by
    Frobenius at p, so a flag alone does not mean the census is wrong; the
    acceptance test of the finite-field density law is what tells the two
    apart.  Returns (rows, flagged) where each row is a dict and flagged
    collects the flagged (p, coset, type) triples.
    """
    if not censuses:
        raise ValueError("no censuses supplied")
    rows = []
    flagged = []
    for c in censuses:
        targets = target_types.get(c.coset, ())
        seen = set(c.type_counts) | set(targets)
        for ct in sorted(seen, reverse=True):
            count = c.type_counts.get(ct, 0)
            is_target = ct in targets
            flag = 1 if (is_target and count == 0) else 0
            if flag:
                flagged.append((c.p, c.coset, ct))
            rows.append(
                {
                    "p": c.p,
                    "coset": c.coset,
                    "status": "ok",
                    "cycle_type": ct,
                    "count": count,
                    "rs_count": c.rs_count,
                    "total": c.total,
                    "density_rs": c.density_rs(ct),
                    "density_coset": c.density_coset(ct),
                    "flagged": flag,
                }
            )
    return rows, flagged
