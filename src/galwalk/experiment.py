"""Experiment orchestration: convergence runs, finite-field censuses, the
exact counterexample oracle, and catalog dumps.

Every run is fully determined by the settings its verb reads (see
VERB_SETTINGS), and its output's metadata lists exactly those; walk
sub-streams are derived from the seed so the output is independent of
evaluation order.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import add
from typing import NamedTuple

from . import __version__
from .exactmat import RationalMatrix, char_poly, mat_mul
from .finfield import (
    BadPrimeError,
    census,
    closure_order_bound,
    density_report,
    density_row,
    enumerate_mod_p,
    reduce_generators,
)
from .galois_id import (
    BUDGET,
    COVERAGE_MIN,
    KIND_CERTIFIED_EXACT,
    KIND_CONSISTENT,
    KIND_INCONCLUSIVE,
    KIND_REJECTED,
    PRIME_WINDOW,
    TV_MAX,
    Verdict,
    identify,
    quadratic_galois,
)
from .modpoly import SIEVE_MAX, first_prime, power_root, primes_in_window
from .permkit import MAX_ORDER, Closure, GroupTooLarge, closure, coset_labels
from .scenarios import Scenario, builtin_scenarios, get_scenario
from .walker import RNG_ALGORITHM, batch_sample, stream_for

# The settings each verb reads, by flag and --config key in --help order,
# with the verb's default where it differs from the ExperimentConfig field
# default (None keeps the field default).  The CLI's flags and config keys
# and each output's metadata come from this table.
VERB_SETTINGS = {
    "run": dict.fromkeys(
        ("scenario", "k", "samples", "primes_min", "primes_max", "budget", "seed")
    ),
    "finfield": {"scenario": None, "primes_min": 5, "primes_max": 17, "bound": None},
    "oracle": {"scenario": None, "k": tuple(range(1, 11))},
    "catalog": {},
}

# a setting's ExperimentConfig field, where the names differ
CONFIG_FIELDS = {"k": "k_values", "primes_min": "prime_min", "primes_max": "prime_max"}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    k_values: tuple[int, ...] = (10, 20, 30)
    samples: int = 100
    prime_min: int = PRIME_WINDOW[0]
    prime_max: int = PRIME_WINDOW[1]
    budget: int = BUDGET
    seed: int = 1
    bound: int = MAX_ORDER

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("need at least one k value")
        if any(k < 0 for k in self.k_values):
            raise ValueError("k values must be nonnegative")
        if list(self.k_values) != sorted(self.k_values):
            raise ValueError("k values must be ascending")
        for name in ("samples", "prime_min", "prime_max", "budget", "bound"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.prime_min > self.prime_max:
            raise ValueError("empty prime window")
        if self.prime_max > SIEVE_MAX:
            raise ValueError(f"prime_max must be at most {SIEVE_MAX:,}")


def metadata(verb: str, config: ExperimentConfig | None = None) -> dict:
    """An output's header: artifact, version and command, then the value of
    each setting the verb reads (k as k_values); run adds the rng and the
    scan thresholds its walk reads."""
    meta = {"artifact": "galwalk", "version": __version__, "command": verb}
    for key in VERB_SETTINGS[verb]:
        value = getattr(config, CONFIG_FIELDS.get(key, key))
        meta["k_values" if key == "k" else key] = value
    if verb == "run":
        meta.update(rng=RNG_ALGORITHM, tv_max=TV_MAX, coverage_min=COVERAGE_MIN)
    return meta


def _check_window(config: ExperimentConfig) -> None:
    """ValueError when the configured window holds no prime.  Only the
    least prime >= prime_min is sought, so nothing is sieved: a walk
    sieves its window only when a sample reads its primes."""
    if first_prime(config.prime_min) > config.prime_max:
        raise ValueError(f"no prime in [{config.prime_min}, {config.prime_max}]")


def batch_seed(seed: int, k: int) -> int:
    """Per-k sub-seed so adding k values never disturbs existing batches."""
    return stream_for(seed, k).next_uint64()


def identify_sample(sample, spec, config: ExperimentConfig) -> Verdict | None:
    """The verdict on one walk sample against its coset's predicted group,
    or None when the sample is not regular semisimple: the exact rules
    first, the prime scan only if they leave it undecided."""
    q = power_root(char_poly(sample.element), spec.multiplicity)
    if q is None:
        return None
    return identify(
        q, spec.predicted, spec.multiplicity,
        (config.prime_min, config.prime_max), config.budget,
    )


def _tally_batches(scenario: Scenario, config: ExperimentConfig, classify, make_row):
    """Sample each k's batch and count per coset; one row per (k, coset).

    classify(sample) names the counter a regular semisimple sample adds to,
    or returns None for a sample that is not; make_row(counts) turns one
    coset's counts into the row's verb-specific fields.
    """
    gens = scenario.admissible()
    rows = []
    for k in config.k_values:
        samples = batch_sample(gens, k, config.samples, batch_seed(config.seed, k))
        tallies: dict[int, Counter] = {}
        for sample in samples:
            t = tallies.setdefault(sample.label, Counter())
            t["samples"] += 1
            kind = classify(sample)
            if kind is not None:
                t["n_rs"] += 1
                t[kind] += 1
        for label in sorted(tallies):
            t = tallies[label]
            rows.append({
                "k": k, "coset": label, "samples": t["samples"], "n_rs": t["n_rs"],
                **make_row(t),
            })
    return rows


def run_convergence(config: ExperimentConfig):
    """Sample, identify, and tabulate per (k, coset).

    Returns (rows, fieldnames, metadata), the fieldnames being the rows'
    key order, as for every verb.  For the scenario without predictions
    the rows carry exact quadratic outcomes instead.
    """
    scenario = get_scenario(config.scenario)
    _check_window(config)
    if not scenario.has_predictions:
        return _run_quadratic_outcomes(scenario, config)

    def classify(sample):
        verdict = identify_sample(sample, scenario.coset(sample.label), config)
        return None if verdict is None else verdict.kind

    def make_row(t):
        certified = t[KIND_CERTIFIED_EXACT]
        return {
            "n_certified": certified,
            "n_consistent": t[KIND_CONSISTENT],
            "n_rejected": t[KIND_REJECTED],
            "n_inconclusive": t[KIND_INCONCLUSIVE],
            "mismatch_fraction": Fraction(
                t["samples"] - certified - t[KIND_CONSISTENT], t["samples"]
            ),
        }

    rows = _tally_batches(scenario, config, classify, make_row)
    _report_decay_fit(rows)
    return rows, tuple(rows[0]), metadata("run", config)


def _run_quadratic_outcomes(scenario: Scenario, config: ExperimentConfig):
    if scenario.dimension != 2:
        raise ValueError("quadratic outcome mode needs dimension 2")

    def classify(sample):
        kind = quadratic_galois(char_poly(sample.element))
        return None if kind is None else f"n_{kind}"

    def make_row(t):
        trivial = Fraction(t["n_trivial"], t["n_rs"]) if t["n_rs"] else Fraction(0)
        return {
            "n_trivial": t["n_trivial"],
            "n_order2": t["n_order2"],
            "trivial_fraction": trivial,
        }

    rows = _tally_batches(scenario, config, classify, make_row)
    return rows, tuple(rows[0]), metadata("run", config)


def _report_decay_fit(rows) -> None:
    """Descriptive log-linear fit of mismatch_fraction against k (stderr only)."""
    pts = [
        (row["k"], float(row["mismatch_fraction"]))
        for row in rows
        if row["mismatch_fraction"] > 0
    ]
    if len(pts) < 2:
        return
    xs = [k for k, _ in pts]
    ys = [math.log(m) for _, m in pts]
    n = len(pts)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    denom = sum((x - xbar) ** 2 for x in xs)
    if denom == 0:
        return
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
    sign = "-" if slope < 0 else "+"
    print(
        f"# mismatch decay fit (descriptive): "
        f"log(mismatch) ~ {ybar - slope * xbar:.3f} {sign} {abs(slope):.4f} * k",
        file=sys.stderr,
    )


def run_finite_field(config: ExperimentConfig):
    """Census rows over the configured prime list (see finfield)."""
    scenario = get_scenario(config.scenario)
    if scenario.dimension > 4:
        raise ValueError("finite-field mode supports dimension <= 4 only")
    _check_window(config)
    primes = primes_in_window(config.prime_min, config.prime_max)
    # usable: p - 1 >= n (n distinct nonzero roots) and the generators reduce;
    # fail before any enumeration when a usable prime's closure must overflow
    usable = set()
    for p in primes:
        if p <= scenario.dimension:
            continue
        try:
            reduce_generators(scenario, p)
        except BadPrimeError:
            continue
        order = closure_order_bound(scenario, p)
        if order > config.bound:
            raise GroupTooLarge(
                f"closure at p={p} has at least {order} elements, "
                f"exceeds bound {config.bound}"
            )
        usable.add(p)
    targets = {
        lab: spec.predicted.types()
        for lab, spec in enumerate(scenario.cosets)
        if spec.predicted is not None
    }
    rows = []
    for p in primes:
        try:
            if p not in usable:
                raise BadPrimeError(f"p={p} is unusable")
            cosets = enumerate_mod_p(scenario, p, bound=config.bound)
        except BadPrimeError:  # unusable, or a label collision
            rows.append(density_row(p, -1, "bad_prime", "-", 0, 0, 0))
            continue
        censuses = [
            census(coset.classes, p, lab, scenario.coset(lab).multiplicity)
            for lab, coset in cosets.items()
        ]
        print(
            f"# finfield p={p}: {sum(map(len, cosets.values()))} elements, "
            f"{sum(c.classes for c in censuses)} conjugacy classes, "
            f"{len(set().union(*(c.chi_counts for c in censuses)))} distinct chi",
            file=sys.stderr,
        )
        rows.extend(density_report(censuses, targets))
    return rows, tuple(rows[0]), metadata("finfield", config)


class WordTable(NamedTuple):
    """The walk's matrices up to word length depth = len(ends) - 1 as
    element indices: permkit's closure from the identity under the
    non-identity letters, stopped after depth layers, so closure.images[j]
    is the j-th such letter's column on every element of word length below
    depth.
    labels[i] is element i's coset label (permkit.coset_labels).
    preimages[j][i] is the expanded element that the j-th letter takes to
    i, or n = len(closure.elements), a slot that always holds count 0,
    when there is none.  ends[t] is the number of elements within t
    letters (0 <= t <= depth): breadth-first order makes them a prefix."""

    closure: Closure
    labels: list
    preimages: tuple
    ends: list


def word_table(scenario: Scenario, depth: int) -> WordTable:
    """The table of every matrix the walk reaches in at most depth letters;
    each element of word length below depth is multiplied by each letter once.
    Raises ValueError unless exactly one letter is the identity, labelled 0,
    and on a matrix that two words label differently (coset_labels)."""
    gens = scenario.admissible()
    ident = RationalMatrix.identity(scenario.dimension)
    if [lab for g, lab in gens.generators if g == ident] != [0]:
        raise ValueError("the word census needs one identity letter, labelled 0")
    letters = [(g, lab) for g, lab in gens.generators if g != ident]
    times = [lambda block, g=g: [mat_mul(m, g) for m in block] for g, _ in letters]
    found = closure(ident, times, MAX_ORDER, depth)
    labels = coset_labels(found, [lab for _, lab in letters], gens.coset_count)
    n = len(found.elements)
    preimages = tuple([n] * n for _ in letters)
    for column, pre in zip(found.images, preimages):
        for x, i in enumerate(column):
            pre[i] = x
    distance = found.carry(0, [(1).__add__] * len(letters))
    ends = [bisect_right(distance, t) for t in range(depth + 1)]
    return WordTable(found, labels, preimages, ends)


def exact_word_census(table: WordTable, k: int, start: tuple | None = None):
    """Exact distribution over all |gens|^k words of the walk at step k.

    Dynamic programming over (element index into `table`, identity-letter
    parity) states with exact word counts; equivalent to enumerating every
    word.  Returns {(index, parity): count} over the nonzero counts, which
    sum to gens^k.  From `start`, an earlier call's (k0, states) on the
    same table, only k - k0 steps run.  The counts are one list per
    parity, by element index; a step gathers each element's count within
    t + 1 letters from its preimages under the letters (table.preimages)
    and, for the identity letter, from its own count at the other parity.
    Raises ValueError for k above the table's depth.
    """
    k0, states = start or (0, {(0, 0): 1})
    if k0 > k:
        raise ValueError(f"cannot extend the census at k={k0} back to k={k}")
    depth = len(table.ends) - 1
    if k > depth:
        raise ValueError(f"k={k} exceeds the word table's depth {depth}")
    n = len(table.closure.elements)
    counts = ([0] * (n + 1), [0] * (n + 1))  # slot n: no preimage
    for (i, parity), count in states.items():
        counts[parity][i] = count
    for t in range(k0, k):
        m = table.ends[t + 1]
        even, odd = counts
        nxt_even, nxt_odd = odd[:m], even[:m]
        for pre in table.preimages:
            pre = pre[:m]
            nxt_even = map(add, nxt_even, map(even.__getitem__, pre))
            nxt_odd = map(add, nxt_odd, map(odd.__getitem__, pre))
        zeros = [0] * (n + 1 - m)
        counts = ([*nxt_even, *zeros], [*nxt_odd, *zeros])
    states = {}
    for parity, column in enumerate(counts):
        states.update(zip(zip(compress(range(n), column), repeat(parity)), filter(None, column)))
    return states


def run_oracle(config: ExperimentConfig):
    """Exhaustive word census for the counterexample scenario.

    For each k, reports the exact off-coset count, the exact frequency of a
    trivial quadratic splitting field, and whether the parity law holds for
    every word: for even k the field is trivial iff the number of identity
    letters is odd, for odd k iff it is even.  One word table to the
    largest k serves the run: each k extends the previous (smaller or
    equal) k's census on it, and χ is computed and classified once per
    off-coset element index.
    """
    scenario = get_scenario(config.scenario)
    if scenario.has_predictions:
        raise ValueError("oracle mode applies to the counterexample scenario")
    table = word_table(scenario, max(config.k_values))
    trivial_field: dict[int, bool] = {}  # element index -> its χ splits over Q
    rows = []
    last = None
    for k in config.k_values:
        states = exact_word_census(table, k, last)
        last = (k, states)
        words = sum(states.values())
        off = trivial = 0
        parity_exact = 1
        for (i, parity), count in states.items():
            if table.labels[i] == 0:
                continue
            off += count
            is_trivial = trivial_field.get(i)
            if is_trivial is None:
                # a repeated root (None) is rational: the field is trivial
                is_trivial = quadratic_galois(char_poly(table.closure.elements[i])) != "order2"
                trivial_field[i] = is_trivial
            if is_trivial:
                trivial += count
            expected = parity != k % 2
            if is_trivial != expected:
                parity_exact = 0
        frac = Fraction(trivial, off) if off else Fraction(0)
        rows.append(
            {
                "k": k,
                "words": words,
                "off_count": off,
                "trivial_count": trivial,
                "trivial_fraction": frac,
                "parity_exact": parity_exact,
            }
        )
    return rows, tuple(rows[0]), metadata("oracle", config)


def catalog_rows():
    """One row per (scenario, coset, group, cycle type) with exact frequencies."""
    rows = []
    for name, scenario in builtin_scenarios().items():
        for lab, spec in enumerate(scenario.cosets):
            groups = []
            if spec.predicted is not None:
                groups.append(("predicted", spec.predicted))
            if spec.upper is not None:
                groups.append(("upper", spec.upper))
            for role, group in groups:
                for ct, freq in group.type_distribution.items():
                    rows.append(
                        {
                            "scenario": name,
                            "coset": lab,
                            "group": f"{group.name}({role})",
                            "degree": group.degree,
                            "order": group.order,
                            "cycle_type": ct,
                            "frequency": freq,
                            "frequency_exact": f"{freq.numerator}/{freq.denominator}",
                        }
                    )
    return rows, tuple(rows[0]), metadata("catalog")
