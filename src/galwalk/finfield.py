"""Brute-force verification over small prime fields.

Reduces a scenario's generators mod p and enumerates the finite group
they generate with permkit.closure.  Each distinct row is interned once,
and an element is the tuple of its rows' ids; a generator acts on row ids
through its own memo, which on a miss rewrites only the entries at the
columns where the generator differs from I (exactmat.right_action's
change list, reduced mod p), so a block step is a few C-level maps over
the block's columns of row ids.  Each element is labelled with its coset,
an integer mod the coset count (permkit.coset_labels, a collision making
p a bad prime), and the group is split into conjugacy classes in one
orbit pass that files each class under its coset; each class
representative is decoded back to its matrix.  The classes are orbits of
index permutations read off the Cayley table: conjugation by a generator
is its column composed with left multiplication by its inverse, carried
down the closure's spanning tree, so no matrix is multiplied after
enumeration.  The census classifies a coset's elements by the
factorization pattern of the characteristic polynomial as q**e with q
squarefree (modpoly.distinct_degree_pattern), computed once per class (it
is a class function) and weighted by the class size; the pattern is
factored once per distinct polynomial.  This is the ground-truth census
that the per-class density claims are checked against.
"""
from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple

from . import leading_eq, leading_hash
from .exactmat import det, from_int, int_char_poly, reduce_poly_mod_p, right_action
from .modpoly import CycleType, PrimeFieldPolynomial, distinct_degree_pattern
from .permkit import MAX_ORDER, Closure, GroupTooLarge, closure, coset_labels

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
    """row id -> id of row * g mod p for one fixed matrix g, each computed
    once; rows[r] is the row with id r and ids the inverse map, shared by
    every generator's memo.

    Right multiplication by g acts on each row separately, and changes only
    the entries at the columns where g differs from I: each is the sum of
    value * row[r] over that column's (r, value) terms (right_action).
    """

    def __init__(self, g: PFMatrix, p: int, rows: list, ids: dict):
        super().__init__()
        self.changes = right_action(from_int(g, 1))[1]
        self.p, self.rows, self.ids = p, rows, ids

    def __missing__(self, r):
        row = self.rows[r]
        image = list(row)
        for j, terms in self.changes:
            image[j] = sum(row[k] * v for k, v in terms) % self.p
        image = tuple(image)
        image_id = self[r] = self.ids.setdefault(image, len(self.rows))
        if image_id == len(self.rows):
            self.rows.append(image)
        return image_id


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
    the built-in generators reach every coset label, each by a coset of
    that size.  Holds at every prime enumerate_mod_p accepts.
    """
    order = len(scenario.cosets)
    for n in scenario.sl_factors:
        order *= _sl_order(n, p)
    return order


def reduce_generators(scenario, p: int) -> list[PFMatrix]:
    """The scenario's raw generator matrices mod p.

    Raises BadPrimeError for p = 2, a denominator divisible by p, or a
    generator that degenerates mod p.  The rest of the admissible set needs
    no check: g^-1 = adj(g) / det(g) reduces whenever g does and p does not
    divide det g, and the identity always reduces.
    """
    if p == 2:
        raise BadPrimeError("p = 2 is excluded")
    reduced = [reduce_matrix(mat, p) for mat, _ in scenario.raw_generators]
    if any(det(mat).numerator % p == 0 for mat, _ in scenario.raw_generators):
        raise BadPrimeError(f"generator degenerates mod {p}")
    return reduced


def closure_mod_p(scenario, p: int, bound: int = MAX_ORDER) -> tuple[Closure, list]:
    """Closure of the scenario's reduced raw generators from the identity,
    and rows: an element is the tuple of its rows' ids, rows[r] the row
    with id r, so element x is the matrix tuple(map(rows.__getitem__, x)).

    Step j is right multiplication by raw generator g_j, a block at a time
    through g_j's row-id memo, so images[j] is g_j's column of the Cayley
    table.  Raises BadPrimeError when p is unusable for the scenario (see
    reduce_generators) and GroupTooLarge past bound.
    """
    n = scenario.dimension
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ids = {row: i for i, row in enumerate(rows)}
    steps = [
        lambda block, row_times=_RowTimes(g, p, rows, ids).__getitem__: list(
            zip(*[map(row_times, col) for col in zip(*block)])
        )
        for g in reduce_generators(scenario, p)
    ]
    try:
        return closure(tuple(range(n)), steps, bound), rows
    except GroupTooLarge:
        raise GroupTooLarge(f"closure at p={p} exceeds bound {bound}") from None


def conjugation_tables(group: Closure) -> tuple[array, ...]:
    """Per step j, the index permutation i -> index of g_j^-1 x_i g_j.

    group is a closure from the identity under right multiplications by
    g_0, g_1, ...  Left multiplication by g_j^-1 commutes with them, so it
    is carried down the spanning tree from the index of g_j^-1, the one
    element that g_j's column sends to the identity.  Then g_j^-1 x_i g_j
    has index images[j][L[i]]: no matrix is multiplied or inverted.
    """
    rights = [image.__getitem__ for image in group.images]
    return tuple(
        array("i", map(right, group.carry(image.index(0), rights)))
        for image, right in zip(group.images, rights)
    )


def conjugacy_classes(elements: list, tables, labels: list[int]):
    """Yield (label, representative, class size) for each conjugacy class.

    A class is an orbit of the conjugation tables (conjugation_tables), one
    per raw generator: these generate the group's inner automorphisms, and
    each permutes a finite set, so following them forward reaches whole
    classes.  Labels lie in the abelian Z/m, so conjugation keeps them; a
    conjugate labelled otherwise than its representative raises ValueError.
    """
    seen = bytearray(len(elements))
    for i, lab in enumerate(labels):
        if seen[i]:
            continue
        seen[i] = 1
        orbit = [i]
        for x in orbit:  # orbit grows as the search runs
            for table in tables:
                y = table[x]
                if labels[y] != lab:
                    raise ValueError(f"a conjugate leaves coset {lab} for {labels[y]}")
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        yield lab, elements[i], len(orbit)


def enumerate_mod_p(scenario, p: int, bound: int = MAX_ORDER) -> dict[int, list]:
    """The mod-p closure (closure_mod_p, same errors) split by coset label
    (coset_labels; a label collision is a BadPrimeError) into conjugacy
    classes (conjugacy_classes): label -> [(representative, class size),
    ...], each representative decoded from row ids back to its matrix."""
    group, rows = closure_mod_p(scenario, p, bound)
    m = len(scenario.cosets)
    try:
        labels = coset_labels(group, [lab for _, lab in scenario.raw_generators], m)
    except ValueError:
        raise BadPrimeError(f"label collision mod {p}") from None
    cosets = {lab: [] for lab in range(m)}
    for lab, rep, size in conjugacy_classes(group.elements, conjugation_tables(group), labels):
        cosets[lab].append((tuple(map(rows.__getitem__, rep)), size))
    return cosets


class CosetCensus(NamedTuple):
    """Cycle-type counts over the regular semisimple part of one coset;
    equality and hashing read the first four fields only."""

    p: int
    coset: int
    total: int
    rs_count: int
    type_counts: dict
    classes: int  # conjugacy classes censused
    chi_counts: dict  # chi coefficients -> element count

    _compared = 4
    __eq__, __ne__, __hash__ = leading_eq, object.__ne__, leading_hash


def census(classes, p: int, coset: int, multiplicity: int = 1) -> CosetCensus:
    """Classify one coset by characteristic polynomial pattern.

    classes yields (representative, class size) pairs covering the coset,
    as enumerate_mod_p's lists do; the characteristic polynomial is a class
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


def density_report(censuses, target_types: dict[int, tuple[CycleType, ...]]) -> list[dict]:
    """Per-(p, coset, type) density rows, with zero-density flags.

    target_types maps coset label -> the cycle types its predicted group
    attains; a target type with zero census count is flagged.  That
    includes zeros the theory explains, such as a type that needs a
    constant-field extension (Q(i) on the sltau2 swap coset) to be split by
    Frobenius at p, so a flag alone does not mean the census is wrong; the
    acceptance test of the finite-field density law is what tells the two
    apart.  Each row is a dict; flagged is 1 on a flagged row.
    """
    if not censuses:
        raise ValueError("no censuses supplied")
    rows = []
    for c in censuses:
        targets = target_types.get(c.coset, ())
        for ct in sorted(set(c.type_counts) | set(targets), reverse=True):
            count = c.type_counts.get(ct, 0)
            flagged = int(ct in targets and count == 0)
            rows.append(density_row(c.p, c.coset, "ok", ct, count, c.rs_count, c.total, flagged))
    return rows


def density_row(p, coset, status, cycle_type, count, rs_count, total, flagged=0) -> dict:
    """One finfield row, its keys the verb's columns in order: count's
    share of the regular semisimple elements and of the coset, each 0
    over an empty whole (as on a bad prime's row)."""
    return {
        "p": p, "coset": coset, "status": status, "cycle_type": cycle_type,
        "count": count, "rs_count": rs_count, "total": total,
        "density_rs": Fraction(count, rs_count) if rs_count else Fraction(0),
        "density_coset": Fraction(count, total) if total else Fraction(0),
        "flagged": flagged,
    }
