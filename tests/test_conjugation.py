"""A change of basis changes nothing: every verb on conjugated letters.

Conjugating every raw generator by a fixed P in GL_n(Q) maps each walk
value x to P^-1 x P.  That keeps each characteristic polynomial, so each
verdict, and it carries the mod-p closure, its cosets and its classes
along isomorphically wherever P reduces.  So the rows and the stderr
lines of `run`, `finfield` and `oracle` must come out byte-identical.

The built-in letters are sparse: most differ from I in one or two columns,
with at most two nonzero entries in each, and all but diag_antidiag's
have denominator 1.  Conjugated letters are dense, and by the rational P
they carry denominators, so the general paths of the column-update walk
products (exactmat.right_action, product_of) and of the mod-p row memo
(finfield._RowTimes) run on them.
"""
from fractions import Fraction as F

import pytest

from galwalk import experiment
from galwalk.exactmat import RationalMatrix, det, mat_inverse, mat_mul
from galwalk.experiment import ExperimentConfig, batch_seed
from galwalk.finfield import density_row
from galwalk.output import render_csv
from galwalk.scenarios import Scenario, get_scenario
from galwalk.walker import batch_sample

ENTRY = {
    "run": experiment.run_convergence,
    "finfield": experiment.run_finite_field,
    "oracle": experiment.run_oracle,
}


def lower(n: int) -> RationalMatrix:
    """Unit lower triangular, with 1 below the diagonal on odd rows."""
    return RationalMatrix(
        [[int(i == j or (i == j + 1 and i % 2)) for j in range(n)] for i in range(n)]
    )


def unimodular(n: int) -> RationalMatrix:
    """lower(n) U with U unit upper triangular (2 on the superdiagonal, 1
    above it): an integer P with det 1, so P^-1 is integral and reduces at
    every p."""
    upper = [[{0: 1, 1: 2, 2: 1}.get(j - i, 0) for j in range(n)] for i in range(n)]
    return mat_mul(lower(n), RationalMatrix(upper))


def rational(n: int) -> RationalMatrix:
    """lower(n) D U with D = diag(2, 1, ..., 1) and U unit upper triangular
    with 1/3 on the superdiagonal: det 2, and denominators that are
    products of 2s and 3s, so P reduces at every prime p >= 5."""
    upper = [[F(int(i == j)) + F(int(j == i + 1), 3) for j in range(n)] for i in range(n)]
    diag = RationalMatrix.diagonal([2] + [1] * (n - 1))
    return mat_mul(mat_mul(lower(n), diag), RationalMatrix(upper))


BASES = {"unimodular": unimodular, "rational": rational}


def conjugator(p: RationalMatrix):
    """x -> P^-1 x P."""
    p_inv = mat_inverse(p)
    return lambda x: mat_mul(mat_mul(p_inv, x), p)


def conjugated(scenario, p: RationalMatrix):
    """The scenario with every raw generator conjugated by p, built (and
    so checked) as any scenario is."""
    conj = conjugator(p)
    return Scenario(*scenario._replace(
        raw_generators=tuple((conj(g), lab) for g, lab in scenario.raw_generators)
    ))


def verb_output(verb: str, config: ExperimentConfig, capsys, scenario=None) -> tuple:
    """The CSV a verb renders for config, and what it writes to stderr;
    with scenario, the verb runs on it in place of the built-in one."""
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        if scenario is not None:
            mp.setattr(experiment, "get_scenario", lambda name: scenario)
        rows, header, meta = ENTRY[verb](config)
    return render_csv(rows, header, meta), capsys.readouterr().err


# (verb, scenario, config settings) per basis: every scenario shape (one,
# two and three cosets, restriction of scalars and the counterexample),
# with prime windows free of the primes at which P does not reduce
CASES = {
    "unimodular": (
        ("run", "sl3", dict(k_values=(5, 15), samples=60)),
        ("run", "sltau2", dict(k_values=(10, 20), samples=30)),
        ("run", "res_sqrt2", dict(k_values=(10,), samples=30)),
        ("finfield", "sltau2", dict(prime_min=3, prime_max=11)),
        ("finfield", "slcyc2x2", dict(prime_min=3, prime_max=5)),
        ("oracle", "diag_antidiag", dict(k_values=(4, 8, 12))),
    ),
    "rational": (
        ("run", "sl3", dict(k_values=(10,), samples=20)),
        ("run", "slcyc2x3", dict(k_values=(10,), samples=20)),
        ("run", "diag_antidiag", dict(k_values=(4, 9), samples=30)),
        ("finfield", "sltau2", dict(prime_min=5, prime_max=11)),
        ("finfield", "res_sqrt2", dict(prime_min=5, prime_max=5)),
        ("oracle", "diag_antidiag", dict(k_values=(4, 9))),
    ),
}


@pytest.mark.parametrize(
    "basis, verb, name, settings",
    [
        pytest.param(basis, *case, id=f"{basis}-{case[0]}-{case[1]}")
        for basis, cases in CASES.items()
        for case in cases
    ],
)
def test_verb_rows_are_basis_free(basis, verb, name, settings, capsys):
    config = ExperimentConfig(scenario=name, **settings)
    scenario = get_scenario(name)
    moved = conjugated(scenario, BASES[basis](scenario.dimension))
    assert moved.raw_generators != scenario.raw_generators
    assert verb_output(verb, config, capsys, moved) == verb_output(verb, config, capsys)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("name", ("sl3", "sltau2", "slcyc2x3", "res_sqrt2", "diag_antidiag"))
def test_walk_products_are_conjugated_exactly(basis, name):
    # each conjugated sample is the original's conjugate, in lowest terms
    # (RationalMatrix equality compares the canonical integers)
    scenario = get_scenario(name)
    p = BASES[basis](scenario.dimension)
    conj = conjugator(p)
    moved = conjugated(scenario, p).admissible()
    assert any(len(changes) == p.n for _, changes in moved.actions)
    for k in (3, 12):
        seed = batch_seed(1, k)
        for a, b in zip(batch_sample(scenario.admissible(), k, 10, seed),
                        batch_sample(moved, k, 10, seed)):
            assert (conj(a.element), a.label) == (b.element, b.label)


def test_a_prime_where_p_does_not_reduce_reads_bad():
    # the rational P has denominators divisible by 3, and so do sl2's
    # conjugated letters: 3 becomes a bad prime, and the rows at 5 and 7,
    # where P reduces, stay as they were
    scenario = get_scenario("sl2")
    p = rational(2)
    assert p.den % 3 == 0 and det(p) == 2
    moved = conjugated(scenario, p)
    assert any(g.den % 3 == 0 for g, _ in moved.raw_generators)
    config = ExperimentConfig(scenario="sl2", prime_min=3, prime_max=7)
    rows = experiment.run_finite_field(config)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "get_scenario", lambda name: moved)
        moved_rows = experiment.run_finite_field(config)[0]
    assert all(r["status"] != "bad_prime" for r in rows)
    assert [r for r in moved_rows if r["p"] == 3] == [density_row(3, -1, "bad_prime", "-", 0, 0, 0)]
    assert [r for r in moved_rows if r["p"] > 3] == [r for r in rows if r["p"] > 3]
