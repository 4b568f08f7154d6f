from collections import Counter
from fractions import Fraction as F

import pytest

import galwalk
from galwalk.exactmat import RationalMatrix, mat_mul, right_action
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import (
    batch_sample,
    draw_word,
    draws,
    make_admissible,
    sample_walk,
    stream_for,
)
from fraction_rows import fraction_rows

A = RationalMatrix.diagonal([2, 3])
J = RationalMatrix([[0, 1], [1, 0]])
U = RationalMatrix([[1, 1], [0, 1]])


def test_make_admissible_labels_mod_coset_count():
    # a label outside range(m) is refused, whatever m
    for m in (1, 2, 3):
        for lab in (-1, m, m + 4):
            with pytest.raises(ValueError, match=rf"label {lab} outside range\({m}\)"):
                make_admissible([(U, lab)], m)
    # the inverse of a generator labelled lab is labelled -lab mod m
    for m in (3, 5):
        for lab in range(m):
            gs = make_admissible([(U, lab)], m)
            assert gs.coset_count == m
            assert gs.generators == (
                (U, lab),
                (RationalMatrix([[1, -1], [0, 1]]), -lab % m),
                (RationalMatrix.identity(2), 0),
            )


def test_splitmix_reference_stream():
    # frozen reference values pin the generator across platforms; from
    # range(2^64) no draw is rejected, so these are the raw outputs
    assert draws(0, 1 << 64, 3) == (
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    )
    assert draws(stream_for(42, 7), 1 << 64, 1) == draws(stream_for(42, 7), 1 << 64, 1)
    assert draws(stream_for(42, 7), 1 << 64, 1) != draws(stream_for(42, 8), 1 << 64, 1)


def test_draws_range():
    out = draws(123, 7, 2000)
    assert len(out) == 2000
    assert set(out) <= set(range(7))
    assert len(set(out)) == 7
    # the same stream's raw outputs, those below the largest multiple of 7
    # under 2^64 kept, each reduced mod 7
    limit = (1 << 64) - (1 << 64) % 7
    raw = draws(123, 1 << 64, 2001)
    assert out == tuple(x % 7 for x in raw if x < limit)[:2000]


def test_make_admissible_counterexample_set():
    gs = make_admissible([(A, 0), (J, 1)], 2)
    expected = {
        (A, 0),
        (RationalMatrix.diagonal([F(1, 2), F(1, 3)]), 0),
        (J, 1),
        (RationalMatrix.identity(2), 0),
    }
    assert set(gs.generators) == expected
    assert len(gs.generators) == 4


def test_make_admissible_symmetrization():
    gs = make_admissible([(RationalMatrix([[1, 1], [0, 1]]), 0)], 1)
    mats = {g for g, _ in gs.generators}
    assert RationalMatrix([[1, -1], [0, 1]]) in mats
    assert RationalMatrix.identity(2) in mats
    assert len(gs.generators) == 3


def test_make_admissible_errors():
    with pytest.raises(ValueError):
        make_admissible([], 2)
    with pytest.raises(ValueError):
        make_admissible([(RationalMatrix([[1, 2], [2, 4]]), 0)], 2)
    with pytest.raises(ValueError):
        make_admissible([(A, 5)], 2)
    with pytest.raises(ValueError, match="one dimension"):
        make_admissible([(A, 0), (RationalMatrix.identity(3), 0)], 2)


def test_walk_k0_and_identity_only():
    gs = make_admissible([(A, 0), (J, 1)], 2)
    s = sample_walk(gs, 0, 1, 0)
    assert s.element == RationalMatrix.identity(2) and s.label == 0
    only_id = make_admissible(
        [(RationalMatrix.identity(2), 0)], 1
    )
    s1 = sample_walk(only_id, 1, 9, 4)
    assert s1.element == RationalMatrix.identity(2)


def test_walk_determinism():
    gs = make_admissible([(A, 0), (J, 1)], 2)
    assert sample_walk(gs, 17, 42, 3) == sample_walk(gs, 17, 42, 3)
    batch = batch_sample(gs, 9, 6, 123)
    assert batch == [sample_walk(gs, 9, 123, i) for i in range(6)]
    assert batch_sample(gs, 9, 6, 123) == batch


def test_counterexample_off_coset_iff_antidiagonal():
    scen = builtin_scenarios()["diag_antidiag"]
    gens = scen.admissible()
    for s in batch_sample(gens, 14, 1000, 2718):
        anti = fraction_rows(s.element)[0][0] == 0 and fraction_rows(s.element)[1][1] == 0
        diag = fraction_rows(s.element)[0][1] == 0 and fraction_rows(s.element)[1][0] == 0
        assert anti != diag
        assert (s.label == 1) == anti


def test_coset_equidistribution():
    # binomial bound: for m cosets and N samples the frequency of each coset
    # is within 5 points of 1/m (about 4.5 sigma at the sizes used here)
    for name, m in (("sltau2", 2), ("slcyc2x3", 3)):
        gens = builtin_scenarios()[name].admissible()
        counts = Counter(s.label for s in batch_sample(gens, 30, 2000, 77))
        for label in range(m):
            assert abs(counts[label] / 2000 - 1 / m) < 0.05


def mat_mul_fold(gens, word):
    """Reference walk value: the left fold of mat_mul over the word's letters."""
    m = RationalMatrix.identity(gens.dimension)
    for i in word:
        m = mat_mul(m, gens.generators[i][0])
    return m, sum(gens.generators[i][1] for i in word) % gens.coset_count


def test_batch_samples_equal_the_mat_mul_fold():
    # sltau4's 8x8 generators and diag_antidiag's denominator-6 inverse included
    for name, scen in builtin_scenarios().items():
        gens = scen.admissible()
        for k in (0, 1, 7, 30, 60):
            for seed in (1, 2, 3):
                for i, s in enumerate(batch_sample(gens, k, 4, seed)):
                    assert s.length == k and s.seed_path == (seed, i)
                    word = draw_word(gens, k, seed, i)
                    assert (s.element, s.label) == mat_mul_fold(gens, word), (name, k, seed)


def test_walk_products_make_no_dense_product(monkeypatch):
    gens = builtin_scenarios()["sl4"].admissible()
    want = [mat_mul_fold(gens, draw_word(gens, 30, 5, i)) for i in range(20)]

    def refuse(*args):
        raise AssertionError("a walk product called mat_mul")

    for module in vars(galwalk).values():
        if getattr(module, "mat_mul", None) is mat_mul:
            monkeypatch.setattr(module, "mat_mul", refuse)
    with pytest.raises(AssertionError):
        galwalk.exactmat.mat_mul(gens.generators[0][0], gens.generators[0][0])
    samples = batch_sample(gens, 30, 20, 5)
    assert [(s.element, s.label) for s in samples] == want
    # each letter rewrites only the columns where it differs from I, and
    # the identity letter none
    ident = RationalMatrix.identity(4)
    for g, _ in gens.generators:
        differ = [j for j in range(4) if [row[j] for row in g.num] != [row[j] for row in ident.num]]
        assert [j for j, _ in right_action(g)[1]] == differ
    assert right_action(ident) == (1, ())
