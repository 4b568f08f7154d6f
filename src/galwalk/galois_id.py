"""Galois group identification from Frobenius cycle-type statistics.

The transposition + long-prime-cycle certificate for full symmetric groups
where it applies; statistical consistency verdicts against a predicted
group's exact type distribution otherwise.  The exact low-degree
classifiers (quadratic discriminants, the resolvent cubic at degree 4) sit
here too: `run` uses the quadratic one on the counterexample scenario,
while `exact_quartic_verdict` is a test oracle that `run` does not call
yet, so `run` never yields certified_exact.

A verdict never claims abstract isomorphism beyond what cycle types can
see: Rejected is sound (an observed type outside the target, or a fully
covered target at large total-variation distance), Consistent is a
threshold statement, and the certified kinds come from actual proofs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

from .exactmat import (
    RationalPolynomial,
    discriminant,
    is_rational_square,
    poly_divmod,
)
from .modpoly import (
    CycleType,
    frobenius_cycle_type,
    make_cycle_type,
    primes_in_window,
    repeat_parts,
    squarefree_over_q,
)
from .picatalog import PredictedGroup

# walk defaults; ExperimentConfig's field defaults name these
PRIME_WINDOW = (1_000, 100_000)
BUDGET = 300
TV_MAX = Fraction(1, 10)
COVERAGE_MIN = Fraction(1)


class NotSquarefreeInput(ValueError):
    """The polynomial has repeated roots; the sample is not usable."""


KIND_CERTIFIED_SN = "certified_sn"
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

    def frequency(self, ct: CycleType) -> Fraction:
        return self.empirical.get(ct, Fraction(0))


@dataclass(frozen=True)
class Verdict:
    """How a sample relates to its target.

    tv_distance and coverage describe the primes actually scanned: when
    collect_samples stopped early at a settled kind, that is a prefix of
    the budget, and only the kind is what the full budget would give.
    """

    kind: str
    target: str
    tv_distance: Fraction
    coverage: Fraction
    detail: str = ""

    @property
    def matched(self) -> bool:
        return self.kind in (KIND_CERTIFIED_SN, KIND_CERTIFIED_EXACT, KIND_CONSISTENT)


def collect_samples(
    f: RationalPolynomial,
    prime_window: tuple[int, int] = PRIME_WINDOW,
    budget: int = BUDGET,
    target: PredictedGroup | None = None,
    multiplicity: int = 1,
) -> SampleSummary:
    """Cycle types of f at ascending primes in the window, up to budget good ones.

    Bad primes (denominator or leading-term collisions) and non-squarefree
    reductions are skipped and counted, never classified.

    With a target, the scan stops at the first good prime after which the
    verdict kind against target is settled (see settled_kind), judged on
    the types with every part repeated multiplicity times.  The summary,
    and so the tv and coverage computed from it, then describe the scanned
    prefix only; the kind equals the full budget's.  Without a target the
    whole budget is scanned.
    """
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    if not squarefree_over_q(f):
        raise NotSquarefreeInput("polynomial has repeated roots over Q")
    counts: dict[CycleType, int] = {}
    expanded: set[CycleType] = set()
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
        if target is not None and counts[ct] == 1:
            expanded.add(repeat_parts(ct, multiplicity))
            if settled_kind(expanded, target) is not None:
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


def certify_sn(types, n: int) -> bool:
    """Transposition + long-cycle certificate for the full symmetric group.

    types is the set of observed cycle types.  Sound given that they are
    realized by actual Galois elements: an n-cycle forces transitivity, a
    transposition plus a prime-length cycle longer than n/2 leave only S_n
    itself.
    """
    types = set(types)
    if make_cycle_type((n,)) not in types:
        return False
    transposition = make_cycle_type([2] + [1] * (n - 2))
    if transposition not in types:
        return False
    for ct in types:
        for part in ct:
            if part > n / 2 and primes_in_window(part, part):
                return True
    return False


def settled_kind(types, target: PredictedGroup) -> str | None:
    """The verdict kind that no further observed type can change, if any.

    Rejected once a type lies outside the target; certified S_n once the
    target is natural-symmetric and the certificate holds, since every
    partition of n is a type of S_n and so no later type can reject.  Both
    are monotone in the set of types, and match_verdict tests them before
    any distance, so an early stop on them keeps the full budget's kind.
    """
    tdist = target.group.type_distribution
    if any(ct not in tdist for ct in types):
        return KIND_REJECTED
    if target.natural_symmetric is not None and certify_sn(
        types, target.natural_symmetric
    ):
        return KIND_CERTIFIED_SN
    return None


def match_verdict(
    summary: SampleSummary,
    target: PredictedGroup,
    tv_max: Fraction = TV_MAX,
    coverage_min: Fraction = COVERAGE_MIN,
) -> Verdict:
    """Decide how the sampled distribution relates to the predicted group.

    Order of precedence: the settled kinds (hard rejection by an observed
    type the target never attains, then the S_n certificate where the
    target is symmetric-natural), rejection by distance at complete
    coverage, then the threshold verdict.
    """
    if summary.degree != target.N:
        raise ValueError(
            f"degree mismatch: summary {summary.degree} vs target {target.N}"
        )
    tdist = target.group.type_distribution
    observed = summary.empirical
    coverage = _coverage(observed, tdist)
    settled = settled_kind(observed, target)
    if settled == KIND_REJECTED:
        ct = next(ct for ct in observed if ct not in tdist)
        return Verdict(
            KIND_REJECTED,
            target.name,
            Fraction(1),
            coverage,
            detail=f"type {ct} impossible for target",
        )
    tv = tv_distance(observed, tdist)
    if settled == KIND_CERTIFIED_SN:
        return Verdict(KIND_CERTIFIED_SN, target.name, tv, coverage)
    if coverage == 1 and tv > tv_max:
        return Verdict(
            KIND_REJECTED, target.name, tv, coverage,
            detail="distribution mismatch at complete coverage",
        )
    if coverage >= coverage_min and tv <= tv_max:
        return Verdict(KIND_CONSISTENT, target.name, tv, coverage)
    return Verdict(KIND_INCONCLUSIVE, target.name, tv, coverage)


def _coverage(observed: dict, tdist: dict) -> Fraction:
    hit = sum(1 for ct in tdist if ct in observed)
    return Fraction(hit, len(tdist))


# exact type distributions of the transitive degree-4 groups, plus the
# intransitive cases the quartic oracle can emit
QUARTIC_DISTRIBUTIONS = {
    "S4": {
        make_cycle_type(t): f
        for t, f in {
            (1, 1, 1, 1): Fraction(1, 24),
            (2, 1, 1): Fraction(1, 4),
            (2, 2): Fraction(1, 8),
            (3, 1): Fraction(1, 3),
            (4,): Fraction(1, 4),
        }.items()
    },
    "A4": {
        make_cycle_type((1, 1, 1, 1)): Fraction(1, 12),
        make_cycle_type((2, 2)): Fraction(1, 4),
        make_cycle_type((3, 1)): Fraction(2, 3),
    },
    "D4": {
        make_cycle_type((1, 1, 1, 1)): Fraction(1, 8),
        make_cycle_type((2, 1, 1)): Fraction(1, 4),
        make_cycle_type((2, 2)): Fraction(3, 8),
        make_cycle_type((4,)): Fraction(1, 4),
    },
    "V4": {
        make_cycle_type((1, 1, 1, 1)): Fraction(1, 4),
        make_cycle_type((2, 2)): Fraction(3, 4),
    },
    "C4": {
        make_cycle_type((1, 1, 1, 1)): Fraction(1, 4),
        make_cycle_type((2, 2)): Fraction(1, 4),
        make_cycle_type((4,)): Fraction(1, 2),
    },
}


def exact_quartic_verdict(
    f: RationalPolynomial, target: PredictedGroup
) -> Verdict | None:
    """Certify a degree-4 sample exactly against the target, when possible.

    Runs the resolvent-cubic classification; if the named group's exact type
    distribution equals the target group's, the verdict is CertifiedExact.
    A named group whose types cannot all occur in the target is a certified
    rejection.  Returns None when the name falls outside the tabulated
    transitive cases (reducible splittings).
    """
    if target.N != 4:
        raise ValueError("exact quartic certification needs a degree-4 target")
    name = quartic_galois_exact(f)
    dist = QUARTIC_DISTRIBUTIONS.get(name)
    if dist is None:
        return None
    tdist = target.group.type_distribution
    if dist == dict(tdist):
        return Verdict(KIND_CERTIFIED_EXACT, target.name, Fraction(0), Fraction(1), detail=name)
    if any(ct not in tdist for ct in dist):
        return Verdict(
            KIND_REJECTED, target.name, Fraction(1), Fraction(0),
            detail=f"exact group {name} attains types outside the target",
        )
    return None


# ---------------------------------------------------------------------------
# exact low-degree classification
# ---------------------------------------------------------------------------

def quadratic_galois(f: RationalPolynomial) -> str:
    """"trivial" iff the discriminant is a rational square, else "order2"."""
    if f.degree != 2:
        raise ValueError("need degree 2")
    if not squarefree_over_q(f):
        raise NotSquarefreeInput("repeated root")
    c, b, a = f.coeffs[0], f.coeffs[1], f.coeffs[2]
    disc = b * b - 4 * a * c
    return "trivial" if is_rational_square(disc) else "order2"


def _rational_roots(f: RationalPolynomial) -> list[Fraction]:
    """All rational roots, found exactly via the integer root bound."""
    scale = lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * scale) for c in f.coeffs]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = ints[-1]
    const = next((v for v in ints if v != 0), 0)
    # roots are p/q with p | first nonzero coefficient, q | leading one
    shift = 0
    for v in ints:
        if v != 0:
            break
        shift += 1
    roots = [Fraction(0)] if shift else []
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if f.evaluate(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _classify_two_quadratics(q1: RationalPolynomial, q2: RationalPolynomial) -> str:
    """Splitting field of a product of two monic rational quadratics."""
    d1 = q1.coeffs[1] ** 2 - 4 * q1.coeffs[0]
    d2 = q2.coeffs[1] ** 2 - 4 * q2.coeffs[0]
    s1, s2 = is_rational_square(d1), is_rational_square(d2)
    if s1 and s2:
        return "1"
    if s1 or s2:
        return "C2"
    return "C2" if is_rational_square(d1 * d2) else "V4"


def quartic_galois_exact(f: RationalPolynomial) -> str:
    """Exact Galois group of the splitting field of a squarefree quartic.

    Returns one of "1", "C2", "C3", "S3", "C4", "V4", "D4", "A4", "S4".
    Irreducible quartics go through the resolvent cubic
    y^3 - p y^2 - 4 r y + (4 p r - q^2) of the depressed form
    x^4 + p x^2 + q x + r; reducible ones are split exactly first.
    """
    if f.degree != 4:
        raise ValueError("need degree 4")
    if not squarefree_over_q(f):
        raise NotSquarefreeInput("repeated root")
    f = f.monic()

    roots = _rational_roots(f)
    if roots:
        rem = f
        for r in roots:
            quo, rem_check = poly_divmod(rem, RationalPolynomial((-r, 1)))
            assert rem_check.is_zero()
            rem = quo
        if rem.degree <= 1:
            return "1"
        if rem.degree == 2:
            d = rem.coeffs[1] ** 2 - 4 * rem.coeffs[0]
            return "1" if is_rational_square(d) else "C2"
        # cubic factor without rational roots, hence irreducible
        return "C3" if is_rational_square(discriminant(rem)) else "S3"

    c3 = f.coeffs[3]
    g = f.shift(-c3 / 4)  # depressed: x^4 + p x^2 + q x + r
    p, q, r = g.coeffs[2], g.coeffs[1], g.coeffs[0]
    betas = _resolvent_rational_roots(p, q, r)

    split = _try_quadratic_split(p, q, r, betas)
    if split is not None:
        return _classify_two_quadratics(*split)

    # f is irreducible from here on
    if not betas:
        return "A4" if is_rational_square(discriminant(f)) else "S4"
    if len(betas) >= 3:
        return "V4"
    beta = betas[0]
    m = beta - p
    if m == 0:
        # q = 0 here; the quadratic split over Q failed, so p^2 - 4r is not
        # a square and the pair field is Q(sqrt(p^2 - 4r))
        m2 = p * p - 4 * r
        v2 = 16 * r
        ok = is_rational_square(v2) or is_rational_square(v2 * m2)
        return "C4" if ok else "D4"
    v = m * m - 4 * beta * m + 16 * r
    ok = is_rational_square(v) or is_rational_square(v * m)
    return "C4" if ok else "D4"


def _resolvent_rational_roots(p, q, r) -> list[Fraction]:
    """Rational roots of y^3 - p y^2 - 4 r y + (4 p r - q^2).

    For q = 0 the cubic factors as (y - p)(y^2 - 4r), giving the roots in
    closed form; this is the shape every reciprocal walk sample produces,
    and it avoids divisor searches over huge constant terms.
    """
    if q == 0:
        roots = [Fraction(p)]
        if is_rational_square(4 * r):
            s = _fraction_sqrt(4 * r)
            for cand in (s, -s):
                if cand not in roots:
                    roots.append(cand)
        return roots
    resolvent = RationalPolynomial((4 * p * r - q * q, -4 * r, -p, Fraction(1)))
    return _rational_roots(resolvent)


def _try_quadratic_split(p, q, r, betas):
    """Factor x^4 + p x^2 + q x + r into two rational quadratics, if possible.

    Each rational resolvent root beta pairs the roots so that the two
    quadratic factors are x^2 - a x + b and x^2 + a x + d with a^2 = beta - p,
    b + d = beta, b - d = q / a (or, for a = 0, b and d roots of
    y^2 - beta y + r).
    """
    for beta in betas:
        m = beta - p
        if m == 0:
            if q != 0:
                continue
            disc = beta * beta - 4 * r
            if not is_rational_square(disc):
                continue
            s = _fraction_sqrt(disc)
            b, d = (beta + s) / 2, (beta - s) / 2
            return (
                RationalPolynomial((b, Fraction(0), Fraction(1))),
                RationalPolynomial((d, Fraction(0), Fraction(1))),
            )
        if not is_rational_square(m):
            continue
        a = _fraction_sqrt(m)
        if a == 0:
            continue
        b = (beta + q / a) / 2
        d = (beta - q / a) / 2
        f1 = RationalPolynomial((b, -a, Fraction(1)))
        f2 = RationalPolynomial((d, a, Fraction(1)))
        product = f1 * f2
        expected = RationalPolynomial((r, q, p, Fraction(0), Fraction(1)))
        if product == expected:
            return f1, f2
    return None


def _fraction_sqrt(x: Fraction) -> Fraction:
    assert x >= 0
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))
