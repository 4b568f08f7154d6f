"""Brute-force verification over small prime fields.

Reduces a scenario's generators mod p, enumerates the finite group they
generate together with coset labels (permkit.closure, one row-product memo
per generator), and classifies every coset element by the factorization
pattern of its characteristic polynomial as q**e with q squarefree
(modpoly.distinct_degree_pattern).  The characteristic polynomial is a
class function, so the census splits each coset into conjugacy classes
(permkit.closure again, under conjugation by the raw generators) and
computes it once per class, weighted by the class size; elements with the
same characteristic polynomial share a pattern, so it factors once per
distinct polynomial.  This is the ground-truth census that the per-class
density claims are checked against.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import add

from .exactmat import det, int_char_poly, mat_inverse, reduce_poly_mod_p
from .modpoly import CycleType, PrimeFieldPolynomial, distinct_degree_pattern
from .permkit import MAX_ORDER, GroupTooLarge, LabelCollision, closure

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


def enumerate_mod_p(scenario, p: int, bound: int = MAX_ORDER) -> dict[int, list[PFMatrix]]:
    """Closure of the scenario's reduced raw generators, split by coset.

    Raises BadPrimeError when p is unusable for the scenario (see
    reduce_generators, or an element reached with two different labels)
    and GroupTooLarge past bound.
    """
    steps = [
        (lambda a, row_times=_RowTimes(g, p).__getitem__: tuple(map(row_times, a)), lab)
        for g, lab in reduce_generators(scenario, p)
    ]
    n = scenario.dimension
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group = scenario.component_group
    try:
        labels = closure(ident, steps, group.mul, bound)
    except LabelCollision:
        raise BadPrimeError(f"label collision mod {p}") from None
    except GroupTooLarge:
        raise GroupTooLarge(f"closure at p={p} exceeds bound {bound}") from None
    cosets: dict[int, list[PFMatrix]] = {lab: [] for lab in range(group.order)}
    for mat, lab in labels.items():
        cosets[lab].append(mat)
    return cosets


def conjugation_steps(scenario, p: int) -> list:
    """One closure step x -> g^-1 x g mod p per raw generator g, label 0.

    x g is a row map by g; g^-1 y is a row map by g^-T on the transpose of
    y.  Call after enumerate_mod_p (or reduce_generators) has accepted p:
    that check covers the inverse-closed admissible set, so g^-1 reduces.
    """
    steps = []
    for mat, _ in scenario.raw_generators:
        right = _RowTimes(reduce_matrix(mat, p), p).__getitem__
        left_t = _RowTimes(tuple(zip(*reduce_matrix(mat_inverse(mat), p))), p).__getitem__
        steps.append(
            (lambda a, right=right, left_t=left_t:
                tuple(zip(*map(left_t, zip(*map(right, a))))), 0)
        )
    return steps


def conjugacy_classes(elements, conjugators):
    """(representative, class size) for each class of a coset's elements.

    Each class is the closure of its first element under the conjugators
    (see conjugation_steps and permkit.closure).  Coset labels lie in the
    abelian Z/m, so conjugation keeps them and a class of the group lies
    inside one coset.  With no conjugators each element is its own class.
    Raises ValueError when a conjugate is not among elements or the class
    sizes do not sum to len(elements) (a repeated element, say), so a wrong
    coset list is never miscounted.
    """
    index = {m: i for i, m in enumerate(elements)}
    seen = bytearray(len(elements))
    total = 0
    for i, rep in enumerate(elements):
        if seen[i]:
            continue
        try:
            orbit = closure(rep, conjugators, add, len(elements))
        except GroupTooLarge:
            raise ValueError("a conjugacy class is larger than its coset") from None
        for x in orbit:
            j = index.get(x)
            if j is None:
                raise ValueError("a conjugate lies outside the coset")
            seen[j] = 1
        total += len(orbit)
        yield rep, len(orbit)
    if total != len(elements):
        raise ValueError(f"class sizes sum to {total}, not {len(elements)}")


@dataclass(frozen=True)
class CosetCensus:
    """Cycle-type counts over the regular semisimple part of one coset."""

    p: int
    coset: int
    total: int
    rs_count: int
    type_counts: dict = field(compare=False)

    def density_rs(self, ct: CycleType) -> Fraction:
        if self.rs_count == 0:
            return Fraction(0)
        return Fraction(self.type_counts.get(ct, 0), self.rs_count)

    def density_coset(self, ct: CycleType) -> Fraction:
        return Fraction(self.type_counts.get(ct, 0), self.total)


def census(elements, p: int, coset: int, multiplicity: int = 1,
           conjugators=()) -> CosetCensus:
    """Classify one coset's elements by characteristic polynomial pattern.

    An element counts as regular semisimple iff its characteristic
    polynomial mod p is q**multiplicity with q squarefree (the operational
    proxy; multiplicity is the coset's generic eigenvalue multiplicity).
    The characteristic polynomial is computed once per class of
    conjugacy_classes(elements, conjugators) and weighted by its size; with
    conjugation_steps that is once per conjugacy class, with no conjugators
    once per element.  An inconsistent coset list raises ValueError.  The
    pattern is computed once per distinct characteristic polynomial.
    """
    chis: Counter = Counter()
    for rep, size in conjugacy_classes(elements, conjugators):
        chis[charpoly_mod_p(rep, p).coeffs] += size
    counts: dict[CycleType, int] = {}
    rs = 0
    for coeffs, count in chis.items():
        pattern = distinct_degree_pattern(PrimeFieldPolynomial(p, coeffs), multiplicity)
        if pattern is None:
            continue
        rs += count
        counts[pattern] = counts.get(pattern, 0) + count
    ordered = {ct: counts[ct] for ct in sorted(counts, reverse=True)}
    return CosetCensus(p, coset, len(elements), rs, ordered)


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
