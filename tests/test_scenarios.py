from fractions import Fraction as F

import pytest

from galwalk import scenarios
from galwalk.exactmat import (
    RationalMatrix,
    char_poly,
    det,
    mat_inverse,
    mat_mul,
)
from galwalk.modpoly import mul
from galwalk.permkit import cyclic_group, enumerate_group, symmetric_group, wreath_product
from galwalk.picatalog import pi_sl_n
from galwalk.scenarios import (
    CosetSpec,
    Scenario,
    block_shift_matrix,
    builtin_scenarios,
    dual_pair_embed,
    elementary,
    get_scenario,
    sqrt2_embed,
)
from fraction_rows import fraction_rows

EXPECTED = {
    "sl2": (2, 1),
    "sl3": (3, 1),
    "sl4": (4, 1),
    "sltau2": (4, 2),
    "sltau4": (8, 2),
    "slcyc2x2": (4, 2),
    "slcyc2x3": (6, 3),
    "res_sqrt2": (4, 1),
    "diag_antidiag": (2, 2),
}


def test_registry_contents():
    reg = builtin_scenarios()
    assert set(reg) == set(EXPECTED)
    for name, (dim, cosets) in EXPECTED.items():
        scen = reg[name]
        assert scen.dimension == dim
        assert len(scen.cosets) == cosets
        assert scen.admissible().coset_count == cosets


def test_scenario_lookup_by_name():
    for name in scenarios._BUILDERS:
        assert get_scenario(name).name == name
        assert get_scenario(name) is builtin_scenarios()[name]  # built once
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        get_scenario("nope")


def test_admissible_sets_are_inverse_closed_and_identity_padded():
    for scen in builtin_scenarios().values():
        gens = scen.admissible()
        assert scen.admissible() is gens  # built on the first call only
        pairs = set(gens.generators)
        assert (RationalMatrix.identity(scen.dimension), 0) in pairs
        for g, lab in gens.generators:
            assert g.n == scen.dimension
            assert (mat_inverse(g), -lab % len(scen.cosets)) in pairs, scen.name


def test_predicted_group_bindings():
    reg = builtin_scenarios()
    sym3 = reg["sl3"].coset(0).predicted
    assert sym3.name == "sym3"
    assert (sym3.degree, sym3.order) == (3, 6)  # S_3 in its natural action
    assert reg["sltau2"].coset(0).predicted.order == 2
    # one target per coset, proved by its constructor's container argument
    assert CosetSpec._fields == ("name", "predicted", "multiplicity")
    assert reg["sltau2"].coset(1).predicted.order == 4
    assert reg["sltau2"].coset(1).predicted.name == "reciprocal_wreath_2"
    assert reg["sltau4"].coset(1).predicted.order == 16
    assert reg["sltau4"].coset(1).predicted.name == "reciprocal_wreath_4"
    assert reg["slcyc2x3"].coset(1).predicted.order == 12
    assert reg["slcyc2x3"].coset(2).predicted.order == 12
    assert reg["res_sqrt2"].coset(0).predicted.order == 8
    for c in reg["diag_antidiag"].cosets:
        assert c.predicted is None
    assert not reg["diag_antidiag"].has_predictions


def test_counterexample_admissible_set_is_exactly_four_elements():
    scen = builtin_scenarios()["diag_antidiag"]
    gens = scen.admissible()
    mats = {(g, lab) for g, lab in gens.generators}
    assert mats == {
        (RationalMatrix.diagonal([2, 3]), 0),
        (RationalMatrix.diagonal([F(1, 2), F(1, 3)]), 0),
        (RationalMatrix([[0, 1], [1, 0]]), 1),
        (RationalMatrix.identity(2), 0),
    }


def test_generator_determinants():
    for scen in builtin_scenarios().values():
        for g, _ in scen.raw_generators:
            assert det(g) != 0
            assert g.n == scen.dimension
            if scen.name != "diag_antidiag":  # the counterexample is not unimodular
                assert det(g) in (1, -1)


def test_dual_pair_embed_structure():
    e = elementary(2, 0, 1)
    m = dual_pair_embed(e)
    assert m.n == 4
    # top-left block is e, bottom-right is its transpose inverse
    assert fraction_rows(m)[0][1] == 1 and fraction_rows(m)[3][2] == -1
    tau = block_shift_matrix(2, 2)
    assert mat_mul(tau, tau) == RationalMatrix.identity(4)
    # conjugation by tau implements transpose-inverse on the embedding
    lhs = mat_mul(mat_mul(tau, m), tau)
    assert lhs == dual_pair_embed(RationalMatrix([[1, 0], [-1, 1]]))


def test_sltau_multiplicity_profile():
    # the identity coset of the n=2 involution scenario always carries a
    # perfect-square characteristic polynomial
    scen = builtin_scenarios()["sltau2"]
    assert scen.coset(0).multiplicity == 2
    assert scen.coset(1).multiplicity == 1
    from galwalk.walker import batch_sample

    for s in batch_sample(scen.admissible(), 9, 40, 5):
        chi = char_poly(s.element)
        if s.label == 0:
            # chi is the square of the top block's quadratic, always
            block = RationalMatrix([row[:2] for row in fraction_rows(s.element)[:2]])
            q = char_poly(block)
            assert mul(q, q) == chi
        else:
            # reciprocal quartic: T^4 - t T^2 + 1
            assert chi[0] == 1 and chi[1] == 0 and chi[3] == 0
    # and the larger scenario has multiplicity one on both cosets
    scen4 = builtin_scenarios()["sltau4"]
    assert scen4.coset(0).multiplicity == 1


def test_sqrt2_embed():
    # sqrt2 squares to 2 in the regular representation
    s = sqrt2_embed([[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
    assert mat_mul(s, s) == RationalMatrix.diagonal([2, 2, 2, 2])
    scen = builtin_scenarios()["res_sqrt2"]
    from galwalk.walker import sample_walk

    w = sample_walk(scen.admissible(), 12, 8, 1)
    chi = char_poly(w.element)
    assert len(chi) == 5 and chi[-1] == 1
    assert det(w.element) == 1


def test_scenario_coset_lookup():
    scen = builtin_scenarios()["sltau2"]
    assert scen.coset(1).name == "swap"
    for label in (7, 2, -1):
        with pytest.raises(KeyError):
            scen.coset(label)


def test_scenario_requires_a_coset():
    raw = ((elementary(2, 0, 1), 0), (elementary(2, 1, 0), 1))

    def build(cosets):
        return Scenario("t", 2, raw, cosets, "labels 0 and 1")

    assert build((CosetSpec("even", None), CosetSpec("odd", None))).admissible().coset_count == 2
    with pytest.raises(ValueError, match="cosets must be nonempty"):
        build(())


def test_scenario_checks_the_degree_of_every_coset_group():
    raw = ((elementary(2, 0, 1), 0),)

    def build(*groups):
        cosets = tuple(CosetSpec(f"c{i}", g) for i, g in enumerate(groups))
        return Scenario("t", 2, raw, cosets, "cosets c0, c1, ...")

    assert build(pi_sl_n(2), pi_sl_n(2)).has_predictions
    with pytest.raises(ValueError, match="coset 'c0': group sym3 has degree 3, not the dimension 2"):
        build(pi_sl_n(3))
    with pytest.raises(ValueError, match="coset 'c1': group sym3 has degree 3, not the dimension 2"):
        build(pi_sl_n(2), pi_sl_n(3))


def test_catalog_groups_close_from_their_generators():
    # wreath and doubled constructions build on the stored generators; the
    # two-level sign-flip wreaths (orders 8 and 128) close from theirs too
    groups = [
        spec.predicted
        for scenario in builtin_scenarios().values()
        for spec in scenario.cosets
        if spec.predicted is not None
    ]
    groups += [
        wreath_product(cyclic_group(2), wreath_product(cyclic_group(2), symmetric_group(r)))
        for r in (1, 2)
    ]
    for group in groups:
        closed = enumerate_group(group.generators, degree=group.degree)
        assert closed.elements == group.elements, (group.name, group.order)
