"""Galois group identification of walk samples: exact rules first, then
Frobenius cycle-type statistics for what the rules leave undecided.

`identify` decides a sample by three exact rules before any prime scan:

(a) the degrees of q's irreducible factors over Q, each repeated
    `multiplicity` times, are the orbit lengths of Gal; if they differ
    from the target's, the verdict is rejected;
(b) at multiplicity 1, disc(q) is a square iff Gal lies in A_N, so a square
    discriminant against a target holding an odd permutation is rejected;
(c) at degree <= 4 and multiplicity 1, the orbit lengths, the discriminant
    and (at degree 4) the resolvent cubic name Gal exactly; it is
    certified_exact when its type distribution is the target's, rejected
    otherwise.

These decide every sample of degree <= 4 and multiplicity 1 whose window
holds a good odd prime.  Only samples the rules leave undecided scan
primes, for statistical consistency against the target's type
distribution; the scan stops early only at a type the target never attains.

A verdict never claims abstract isomorphism beyond what it proves.  A
rejection is always a proof: an exact rule, or an observed type the target
never attains.  Consistent is a threshold statement, a distribution
mismatch at complete coverage stays inconclusive, and certified_exact
comes from rule (c) alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactmat import RationalPolynomial, is_rational_square
from .modpoly import (
    CycleType,
    discriminant,
    frobenius_cycle_type,
    integral_monic,
    primes_in_window,
    repeat_parts,
    resolvent_cubic,
)
from .permkit import enumerate_group
from .picatalog import PredictedGroup
from .zfactor import factor_degrees, integer_roots

# walk defaults; ExperimentConfig's field defaults name these
PRIME_WINDOW = (1_000, 100_000)
BUDGET = 300
TV_MAX = Fraction(1, 10)
COVERAGE_MIN = Fraction(1)


class NotSquarefreeInput(ValueError):
    """The polynomial has repeated roots; the sample is not usable."""


KIND_CERTIFIED_EXACT = "certified_exact"
KIND_CONSISTENT = "consistent"
KIND_REJECTED = "rejected"
KIND_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SampleSummary:
    """Empirical cycle-type distribution of one polynomial over many primes."""

    degree: int
    good_count: int
    bad_count: int
    empirical: dict = field(compare=False)


@dataclass(frozen=True)
class Verdict:
    """How a sample relates to its target.

    tv_distance and coverage describe the primes actually scanned: when
    collect_samples stopped early at a rejection, that is a prefix of the
    budget, and only the kind is what the full budget would give.
    """

    kind: str
    target: str
    tv_distance: Fraction
    coverage: Fraction
    detail: str = ""


def collect_samples(
    f: RationalPolynomial,
    prime_window: tuple[int, int] = PRIME_WINDOW,
    budget: int = BUDGET,
    target: PredictedGroup | None = None,
    multiplicity: int = 1,
) -> SampleSummary:
    """Cycle types of the monic squarefree f at ascending primes in the
    window, up to budget good ones.

    Bad primes (denominator or leading-term collisions) and non-squarefree
    reductions are skipped and counted, never classified.

    With a target, the scan stops at the first type that, with every part
    repeated multiplicity times, the target never attains: no later type
    can undo that rejection, and match_verdict tests it before any
    distance.  The summary, and so the tv and coverage computed from it,
    then describe the scanned prefix only; the kind equals the full
    budget's.  Without a target the whole budget is scanned.
    """
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    counts: dict[CycleType, int] = {}
    good = bad = 0
    for p in primes_in_window(*prime_window):
        if good >= budget:
            break
        sample = frobenius_cycle_type(f, p)
        if sample.status != "good":
            bad += 1
            continue
        good += 1
        ct = sample.cycle_type
        counts[ct] = counts.get(ct, 0) + 1
        if target is not None and counts[ct] == 1 and (
            repeat_parts(ct, multiplicity) not in target.group.type_distribution
        ):
            break
    empirical = {
        ct: Fraction(counts[ct], good) for ct in sorted(counts, reverse=True)
    }
    return SampleSummary(f.degree, good, bad, empirical)


def expand_summary(summary: SampleSummary, multiplicity: int) -> SampleSummary:
    """Reinterpret each observed type with every part repeated e times.

    Used when the sampled characteristic polynomial is the e-th power of the
    collected one, so each root of the collected polynomial stands for e
    equal eigenvalues.
    """
    if multiplicity == 1:
        return summary
    empirical = {
        repeat_parts(ct, multiplicity): freq
        for ct, freq in summary.empirical.items()
    }
    return SampleSummary(
        summary.degree * multiplicity,
        summary.good_count,
        summary.bad_count,
        empirical,
    )


def tv_distance(observed: dict, target: dict) -> Fraction:
    """Total variation: half the L1 distance over the union of types."""
    keys = set(observed) | set(target)
    total = sum(
        abs(observed.get(k, Fraction(0)) - target.get(k, Fraction(0)))
        for k in keys
    )
    return Fraction(total, 2)


def match_verdict(
    summary: SampleSummary,
    target: PredictedGroup,
    tv_max: Fraction = TV_MAX,
    coverage_min: Fraction = COVERAGE_MIN,
) -> Verdict:
    """Decide how the sampled distribution relates to the predicted group.

    Hard rejection by an observed type the target never attains comes
    first, then the threshold verdict.  A distance above tv_max proves
    nothing, so at complete coverage it is inconclusive with that reason in
    the detail, never rejected.
    """
    if summary.degree != target.N:
        raise ValueError(
            f"degree mismatch: summary {summary.degree} vs target {target.N}"
        )
    tdist = target.group.type_distribution
    observed = summary.empirical
    coverage = _coverage(observed, tdist)
    outside = [ct for ct in observed if ct not in tdist]
    if outside:
        return Verdict(
            KIND_REJECTED,
            target.name,
            Fraction(1),
            coverage,
            detail=f"type {outside[0]} impossible for target",
        )
    tv = tv_distance(observed, tdist)
    if coverage >= coverage_min and tv <= tv_max:
        return Verdict(KIND_CONSISTENT, target.name, tv, coverage)
    detail = "distribution mismatch at complete coverage" if coverage == 1 else ""
    return Verdict(KIND_INCONCLUSIVE, target.name, tv, coverage, detail=detail)


def _coverage(observed: dict, tdist: dict) -> Fraction:
    hit = sum(1 for ct in tdist if ct in observed)
    return Fraction(hit, len(tdist))


# ---------------------------------------------------------------------------
# exact rules (a)-(c) and the identification order
# ---------------------------------------------------------------------------

def identify(
    q: RationalPolynomial,
    target: PredictedGroup,
    multiplicity: int = 1,
    prime_window: tuple[int, int] = PRIME_WINDOW,
    budget: int = BUDGET,
    tv_max: Fraction = TV_MAX,
    coverage_min: Fraction = COVERAGE_MIN,
) -> tuple[Verdict, SampleSummary | None]:
    """Verdict on a sample whose characteristic polynomial is q**multiplicity.

    q is monic and squarefree.  The exact rules decide first
    (exact_verdict); only what they leave undecided scans the window's
    primes (collect_samples, match_verdict).  The summary is the scan's,
    with every part repeated multiplicity times, or None without a scan.
    """
    verdict = exact_verdict(q, target, multiplicity, primes_in_window(*prime_window))
    if verdict is not None:
        return verdict, None
    summary = collect_samples(q, prime_window, budget, target, multiplicity)
    expanded = expand_summary(summary, multiplicity)
    if summary.good_count == 0:
        return Verdict(
            KIND_INCONCLUSIVE, target.name, Fraction(1), Fraction(0),
            detail="no good prime in the window",
        ), expanded
    return match_verdict(expanded, target, tv_max, coverage_min), expanded


def exact_verdict(
    q: RationalPolynomial, target: PredictedGroup, multiplicity: int, primes
) -> Verdict | None:
    """The verdict rules (a)-(c) prove for a monic squarefree q, or None.

    primes feed Musser's filter in factor_degrees; a cycle type already
    seen there that is odd proves the discriminant is not a square, so
    rule (b) above degree 4 computes no discriminant then.  Rejections
    carry tv 1 and coverage 0, certificates tv 0 and coverage 1; the detail
    names the rule that fired.
    """
    n = q.degree
    if n * multiplicity != target.N:
        raise ValueError(
            f"degree mismatch: {n} x {multiplicity} vs target {target.N}"
        )
    found = factor_degrees(q, primes)
    if found is None:
        return None
    orbits = repeat_parts(found.degrees, multiplicity)
    want = target.group.orbit_lengths()
    if orbits != want:
        return _rejected(
            target, f"rule (a): factor degrees give orbits {orbits}, target {want}"
        )
    if multiplicity != 1:
        return None
    odd_target = any(_is_odd(ct) for ct in target.group.type_distribution)
    if n > 4 and (not odd_target or any(_is_odd(ct) for ct in found.types)):
        return None
    ints = integral_monic(q)
    disc = discriminant(ints)
    if odd_target and is_rational_square(disc):
        return _rejected(
            target, "rule (b): square discriminant, target has odd permutations"
        )
    if n > 4:
        return None
    name = _small_group_name(ints, orbits, disc)
    if small_group_distribution(name, orbits) == target.group.type_distribution:
        return Verdict(
            KIND_CERTIFIED_EXACT, target.name, Fraction(0), Fraction(1),
            detail=f"rule (c): exact group {name} on orbits {orbits}",
        )
    return _rejected(
        target, f"rule (c): exact group {name} on orbits {orbits} is not the target"
    )


def _rejected(target: PredictedGroup, detail: str) -> Verdict:
    return Verdict(KIND_REJECTED, target.name, Fraction(1), Fraction(0), detail=detail)


def _is_odd(ct: CycleType) -> bool:
    return (sum(ct) - len(ct)) % 2 == 1


# generators of the exact group for each (name, orbit lengths) at degree
# <= 4; points are numbered orbit by orbit, longest orbit first.  The orbit
# lengths and the type distribution fix each one up to conjugacy.
SMALL_GROUPS = {
    ("S4", (4,)): ((1, 0, 2, 3), (1, 2, 3, 0)),
    ("A4", (4,)): ((1, 2, 0, 3), (0, 2, 3, 1)),
    ("D4", (4,)): ((1, 2, 3, 0), (2, 1, 0, 3)),
    ("C4", (4,)): ((1, 2, 3, 0),),
    ("V4", (4,)): ((1, 0, 3, 2), (2, 3, 0, 1)),
    ("S3", (3, 1)): ((1, 0, 2, 3), (1, 2, 0, 3)),
    ("C3", (3, 1)): ((1, 2, 0, 3),),
    ("V4", (2, 2)): ((1, 0, 2, 3), (0, 1, 3, 2)),
    ("C2", (2, 2)): ((1, 0, 3, 2),),
    ("C2", (2, 1, 1)): ((1, 0, 2, 3),),
    ("1", (1, 1, 1, 1)): (),
    ("S3", (3,)): ((1, 0, 2), (1, 2, 0)),
    ("C3", (3,)): ((1, 2, 0),),
    ("C2", (2, 1)): ((1, 0, 2),),
    ("1", (1, 1, 1)): (),
    ("C2", (2,)): ((1, 0),),
    ("1", (1, 1)): (),
}


@lru_cache(maxsize=None)
def small_group_distribution(name: str, orbits: CycleType) -> dict:
    """Exact type distribution of SMALL_GROUPS[(name, orbits)]."""
    group = enumerate_group(SMALL_GROUPS[(name, orbits)], degree=sum(orbits))
    return group.type_distribution


def small_galois_group(f: RationalPolynomial) -> tuple[str, CycleType]:
    """Gal(f) for a monic squarefree f of degree <= 4: its name and orbit lengths.

    The name is the abstract group ("1", "C2", "C3", "S3", "C4", "V4",
    "D4", "A4", "S4"); with the orbit lengths it keys SMALL_GROUPS.
    """
    n = f.degree
    if not 1 < n <= 4:
        raise ValueError("need degree 2, 3 or 4")
    ints = integral_monic(f)
    disc = discriminant(ints)
    if disc == 0:
        raise NotSquarefreeInput("repeated root")
    orbits = factor_degrees(f, primes_in_window(*PRIME_WINDOW)).degrees
    return _small_group_name(ints, orbits, disc), orbits


def _small_group_name(ints, orbits, disc) -> str:
    """Gal of the monic integer polynomial ints, of degree <= 4, from its
    orbit lengths (factor degrees), discriminant and resolvent cubic.

    Irreducible quartics follow Kappe and Warren (1989): the resolvent
    cubic's integer roots give S4 or A4 (none, by the discriminant), V4
    (three), or one root t, and then C4 exactly when x^2 - t x + d and
    x^2 + a x + (b - t) both split over Q(sqrt(disc)).  Below that, the
    discriminant's square class settles C3 against S3, and a diagonal C2
    against C2 x C2 on two quadratic factors (disc = d1 d2 Res^2).
    """
    square = is_rational_square(disc)
    if orbits == (4,):
        roots = integer_roots(resolvent_cubic(ints))
        if not roots:
            return "A4" if square else "S4"
        if len(roots) == 3:
            return "V4"
        t = roots[0]
        d, _, b, a = ints[:4]

        def splits(u, v):
            delta = u * u - 4 * v
            return is_rational_square(delta) or is_rational_square(delta * disc)

        return "C4" if splits(-t, d) and splits(a, b - t) else "D4"
    if orbits[0] == 3:
        return "C3" if square else "S3"
    if orbits[:2] == (2, 2):
        return "C2" if square else "V4"
    return "C2" if orbits[0] == 2 else "1"


# ---------------------------------------------------------------------------
# exact low-degree classification
# ---------------------------------------------------------------------------

def quadratic_galois(f: RationalPolynomial) -> str | None:
    """"trivial" iff the monic quadratic f's discriminant is a nonzero
    rational square, "order2" iff it is not a square, and None iff it is 0,
    that is iff f has a repeated root; decided on f's integral form."""
    if f.degree != 2:
        raise ValueError("need degree 2")
    disc = discriminant(integral_monic(f))
    if disc == 0:
        return None
    return "trivial" if is_rational_square(disc) else "order2"
