"""galwalk's records are immutable typing.NamedTuple values.

Equality and hashing read exactly the fields that make a record's value.
A record's trailing annotations are skipped: a group's type distribution,
orbit lengths, odd-permutation flag, generators and catalog name, a
census's and a prime scan's tables, a generator set's walk actions.  Every other record compares every field.
"""
from fractions import Fraction as F

import pytest

from galwalk.exactmat import PrimeFieldPolynomial, RationalMatrix
from galwalk.experiment import ExperimentConfig
from galwalk.finfield import CosetCensus
from galwalk.galois_id import SampleSummary, Verdict
from galwalk.modpoly import FrobeniusSample
from galwalk.permkit import (
    EnumeratedGroup,
    cyclic_group,
    symmetric_group,
    trivial_group,
    wreath_product,
)
from galwalk.picatalog import pi_sl_n, pi_sl_power_identity
from galwalk.scenarios import CosetSpec, Scenario, get_scenario
from galwalk.walker import GeneratorSet, WalkSample, make_admissible
from galwalk.zfactor import FactorDegrees

MARK = object()  # a field value equal to no other

# record type -> (a value of it, the fields its equality and hash skip)
RECORDS = {
    RationalMatrix: (lambda: RationalMatrix([[1, F(1, 2)], [0, 1]]), ()),
    PrimeFieldPolynomial: (lambda: PrimeFieldPolynomial(5, (1, 0, 1)), ()),
    ExperimentConfig: (lambda: ExperimentConfig(scenario="sl2"), ()),
    CosetCensus: (
        lambda: CosetCensus(5, 0, 120, 60, {(2,): 60}, 3, {(1, 0, 1): 60}),
        ("type_counts", "classes", "chi_counts"),
    ),
    SampleSummary: (lambda: SampleSummary(2, 10, 1, {(2,): F(1)}), ("empirical",)),
    Verdict: (lambda: Verdict("rejected", "rule (a)"), ()),
    FrobeniusSample: (lambda: FrobeniusSample(7, (1, 1), "good"), ()),
    EnumeratedGroup: (
        lambda: pi_sl_n(3),
        ("type_distribution", "orbit_lengths", "has_odd_permutation", "generators", "name"),
    ),
    CosetSpec: (lambda: CosetSpec("identity", pi_sl_n(2)), ()),
    Scenario: (lambda: get_scenario("sl2"), ()),
    GeneratorSet: (lambda: get_scenario("sl2").admissible(), ("actions",)),
    WalkSample: (lambda: WalkSample(RationalMatrix.identity(2), 0, 3, (1, 0)), ()),
    FactorDegrees: (lambda: FactorDegrees((2, 1), ()), ()),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_equality_and_hash_read_exactly_the_value_fields(kind):
    make, skipped = RECORDS[kind]
    value = make()
    assert type(value) is kind and set(skipped) < set(value._fields)
    copy = value._replace()
    assert copy is not value and copy == value and hash(copy) == hash(value)
    for name in value._fields:
        other = value._replace(**{name: MARK})
        if name in skipped:
            assert other == value and not other != value, name
            assert hash(other) == hash(value), name
        else:
            assert other != value and not other == value, name


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_refuse_attribute_assignment(kind):
    value = RECORDS[kind][0]()
    before = tuple(value)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, MARK)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert tuple(value) == before


def test_a_catalog_group_equals_its_unnamed_enumeration():
    named = pi_sl_power_identity(2, 2)
    plain = wreath_product(symmetric_group(2), trivial_group(2))
    assert (named.name, plain.name) == ("sym2_power2", "")
    assert named == plain and hash(named) == hash(plain)
    # C2 and S2 are one group on two points, so their wreath products are one
    assert cyclic_group(2) == symmetric_group(2)
    c2_wr = wreath_product(cyclic_group(2), symmetric_group(2))
    assert c2_wr is wreath_product(symmetric_group(2), symmetric_group(2))
    # a group with other generators, or none, is still the same group
    assert c2_wr._replace(generators=()) == c2_wr
    assert c2_wr != symmetric_group(4) and c2_wr != trivial_group(4)


def test_records_compare_equal_only_to_their_own_type():
    # a census and a summary of equal leading fields are different records
    census = CosetCensus(2, 10, 1, 0, {}, 0, {})
    summary = SampleSummary(2, 10, 1, {})
    assert census != summary and not census == summary


def test_generator_sets_built_alike_are_equal():
    raw = get_scenario("sl2").raw_generators
    a, b = make_admissible(raw, 1), make_admissible(raw, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert make_admissible(raw, 2) != a
