"""Galois group identification of walk samples: exact rules first, then
Frobenius cycle-type statistics for what the rules leave undecided.

A sample's characteristic polynomial is q**e, q monic squarefree of
degree n; its splitting field is q's, and Gal moves the e copies of each
root alike.  `identify` decides a sample by three exact rules before any
prime scan:

(a) the degrees of q's irreducible factors over Q, each repeated e times,
    are the orbit lengths of Gal; if they differ from the target's, the
    verdict is rejected;
(b) disc(q) is a square iff Gal lies in A_n, so then a target holding an
    odd permutation is rejected (repeating a type e times keeps its parity
    at odd e and makes it even at even e);
(c) at n <= 4, q's factor degrees, discriminant and resolvent cubic name
    Gal exactly; it is certified_exact when its type distribution, every
    part repeated e times, is the target's, rejected otherwise.

These decide every sample with n <= 4, at every multiplicity, with no
prime: factor degrees below 5 need none (zfactor).  Only samples the
rules leave undecided scan primes, for statistical consistency against
the target's type distribution; the scan stops early only at a type the
target never attains.

A verdict never claims abstract isomorphism beyond what it proves.  A
rejection is always a proof: an exact rule, or an observed type the target
never attains.  Consistent is a threshold statement (TV_MAX at full
coverage), a distribution mismatch at complete coverage stays
inconclusive, and certified_exact comes from rule (c) alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactmat import is_rational_square
from .modpoly import (
    CycleType,
    discriminant,
    frobenius_cycle_type,
    primes_in_window,
    repeat_parts,
)
from .permkit import EnumeratedGroup, enumerate_group
from .zfactor import factor_degrees

# the prime scan's default window and budget, which run also defaults to
PRIME_WINDOW = (1_000, 100_000)
BUDGET = 300
# the scan's fixed thresholds (see match_verdict); run metadata records both
TV_MAX = Fraction(1, 10)
COVERAGE_MIN = Fraction(1)


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
    """How a sample relates to its target; the detail gives the reason."""

    kind: str
    detail: str = ""


def collect_samples(
    f: Sequence[int],
    prime_window: tuple[int, int] = PRIME_WINDOW,
    budget: int = BUDGET,
    target: EnumeratedGroup | None = None,
    multiplicity: int = 1,
) -> SampleSummary:
    """Cycle types of the monic squarefree integer f at ascending primes in
    the window, up to budget good ones.

    Primes where f is not squarefree mod p (the ramified ones among them)
    are skipped and counted, never classified.

    With a target, the scan stops at the first type that, with every part
    repeated multiplicity times, the target never attains: no later type
    can undo that rejection, and match_verdict tests it before any
    distance.  The summary then describes the scanned prefix only; the
    kind match_verdict gives equals the full budget's.  Without a target
    the whole budget is scanned.
    """
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
            repeat_parts(ct, multiplicity) not in target.type_distribution
        ):
            break
    empirical = {
        ct: Fraction(counts[ct], good) for ct in sorted(counts, reverse=True)
    }
    return SampleSummary(len(f) - 1, good, bad, empirical)


def expand_summary(summary: SampleSummary, multiplicity: int) -> SampleSummary:
    """Reinterpret each observed type with every part repeated e times.

    Used when the sampled characteristic polynomial is the e-th power of the
    collected one, so each root of the collected polynomial stands for e
    equal eigenvalues.
    """
    if multiplicity == 1:
        return summary
    return replace(summary, degree=summary.degree * multiplicity, empirical={
        repeat_parts(ct, multiplicity): freq for ct, freq in summary.empirical.items()
    })


def tv_distance(observed: dict, target: dict) -> Fraction:
    """Total variation: half the L1 distance over the union of types."""
    keys = set(observed) | set(target)
    total = sum(
        abs(observed.get(k, Fraction(0)) - target.get(k, Fraction(0)))
        for k in keys
    )
    return Fraction(total, 2)


def match_verdict(summary: SampleSummary, target: EnumeratedGroup) -> Verdict:
    """Decide how the sampled distribution relates to the predicted group.

    Hard rejection by an observed type the target never attains comes
    first.  Otherwise the sample is consistent when every target type was
    seen and the distance is at most TV_MAX.  A larger distance proves
    nothing, so at complete coverage it is inconclusive with that reason in
    the detail, never rejected.
    """
    if summary.degree != target.degree:
        raise ValueError(
            f"degree mismatch: summary {summary.degree} vs target {target.degree}"
        )
    tdist = target.type_distribution
    observed = summary.empirical
    outside = [ct for ct in observed if ct not in tdist]
    if outside:
        return Verdict(KIND_REJECTED, f"type {outside[0]} impossible for target")
    if not all(ct in observed for ct in tdist):
        return Verdict(KIND_INCONCLUSIVE)
    if tv_distance(observed, tdist) <= TV_MAX:
        return Verdict(KIND_CONSISTENT)
    return Verdict(KIND_INCONCLUSIVE, "distribution mismatch at complete coverage")


# ---------------------------------------------------------------------------
# exact rules (a)-(c) and the identification order
# ---------------------------------------------------------------------------

def identify(
    q: Sequence[int],
    target: EnumeratedGroup,
    multiplicity: int = 1,
    prime_window: tuple[int, int] = PRIME_WINDOW,
    budget: int = BUDGET,
) -> Verdict:
    """Verdict on a sample whose characteristic polynomial is q**multiplicity.

    q is a monic squarefree integer list.  The exact rules decide first
    (exact_verdict); only what they leave undecided scans the window's
    primes (collect_samples, match_verdict).  The window is sieved when
    its first prime is read, so a q the rules decide with no prime sieves
    nothing.
    """
    verdict = exact_verdict(q, target, multiplicity, _sieved_on_first_use(prime_window))
    if verdict is not None:
        return verdict
    summary = collect_samples(q, prime_window, budget, target, multiplicity)
    if summary.good_count == 0:
        return Verdict(KIND_INCONCLUSIVE, "no good prime in the window")
    return match_verdict(expand_summary(summary, multiplicity), target)


def _sieved_on_first_use(prime_window: tuple[int, int]):
    """The window's primes, ascending, sieved when the first is read."""
    yield from primes_in_window(*prime_window)


def exact_verdict(
    q: Sequence[int], target: EnumeratedGroup, multiplicity: int, primes
) -> Verdict | None:
    """The verdict rules (a)-(c) prove for a monic squarefree integer q, or
    None.

    primes, any iterable of ascending primes, feed Musser's filter in
    factor_degrees, which reads them only when q's cofactor over its
    linear factors has degree >= 5; every other q is decided with no
    prime read.  A cycle type seen there that is odd proves the
    discriminant is not a square, so rule (b) above degree 4 computes no
    discriminant then.  Rule (c) reads the resolvent cubic's integer
    roots that factor_degrees found.  The detail names the rule that
    fired.
    """
    n = len(q) - 1
    if n * multiplicity != target.degree:
        raise ValueError(
            f"degree mismatch: {n} x {multiplicity} vs target {target.degree}"
        )
    found = factor_degrees(q, primes)
    if found is None:
        return None
    orbits = repeat_parts(found.degrees, multiplicity)
    want = target.orbit_lengths()
    if orbits != want:
        return Verdict(
            KIND_REJECTED, f"rule (a): factor degrees give orbits {orbits}, target {want}"
        )
    odd_target = any(_is_odd(ct) for ct in target.type_distribution)
    if n > 4 and (not odd_target or any(_is_odd(ct) for ct in found.types)):
        return None
    disc = discriminant(q)
    if odd_target and is_rational_square(disc):
        return Verdict(
            KIND_REJECTED, "rule (b): square discriminant, target has odd permutations"
        )
    if n > 4:
        return None
    name = _small_group_name(q, found.degrees, disc, found.resolvent_roots)
    exact = small_group_distribution(name, found.degrees, multiplicity)
    if exact == target.type_distribution:
        return Verdict(
            KIND_CERTIFIED_EXACT, f"rule (c): exact group {name} on orbits {orbits}"
        )
    return Verdict(
        KIND_REJECTED, f"rule (c): exact group {name} on orbits {orbits} is not the target"
    )


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
def small_group_distribution(name: str, orbits: CycleType, multiplicity: int = 1) -> dict:
    """Exact type distribution of SMALL_GROUPS[(name, orbits)], with every
    part repeated multiplicity times."""
    group = enumerate_group(SMALL_GROUPS[(name, orbits)], degree=sum(orbits))
    return {
        repeat_parts(ct, multiplicity): freq
        for ct, freq in group.type_distribution.items()
    }


def _small_group_name(ints, orbits, disc, resolvent_roots) -> str:
    """Gal of the monic integer polynomial ints, of degree <= 4, from its
    orbit lengths (factor degrees), discriminant and, when it is an
    irreducible quartic, the integer roots of its resolvent cubic (as
    factor_degrees found them).

    Irreducible quartics follow Kappe and Warren (1989): the resolvent
    cubic's integer roots give S4 or A4 (none, by the discriminant), V4
    (three), or one root t, and then C4 exactly when x^2 - t x + d and
    x^2 + a x + (b - t) both split over Q(sqrt(disc)).  Below that, the
    discriminant's square class settles C3 against S3, and a diagonal C2
    against C2 x C2 on two quadratic factors (disc = d1 d2 Res^2).
    """
    square = is_rational_square(disc)
    if orbits == (4,):
        if not resolvent_roots:
            return "A4" if square else "S4"
        if len(resolvent_roots) == 3:
            return "V4"
        t = resolvent_roots[0]
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

def quadratic_galois(f: Sequence[int]) -> str | None:
    """"trivial" iff the monic integer quadratic f's discriminant is a
    nonzero square, "order2" iff it is not a square, and None iff it is 0,
    that is iff f has a repeated root."""
    if len(f) != 3:
        raise ValueError("need degree 2")
    disc = discriminant(f)
    if disc == 0:
        return None
    return "trivial" if is_rational_square(disc) else "order2"
