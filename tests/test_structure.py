"""Structural checks: how galwalk's modules depend on each other, and which
coefficient ring the walk-sample path computes in."""
import ast
from pathlib import Path

import pytest

import galwalk
from galwalk import exactmat, modpoly, zfactor
from galwalk.exactmat import char_poly
from galwalk.experiment import batch_seed
from galwalk.galois_id import PRIME_WINDOW
from galwalk.modpoly import (
    discriminant,
    exact_poly_root,
    frobenius_cycle_type,
    integral_monic,
    primes_in_window,
)
from galwalk.scenarios import builtin_scenarios
from galwalk.walker import batch_sample
from galwalk.zfactor import factor_degrees

PACKAGE = Path(galwalk.__file__).parent


def test_no_module_imports_another_modules_private_name():
    private = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert "zfactor.py" in {path.name for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "galwalk"
            if internal:
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and alias.name != "__version__"
                ]
    assert private == []


def test_characteristic_polynomial_path_builds_no_fraction(monkeypatch):
    # integral walk samples: sl4, sltau2 (e = 2 on its identity coset), sltau4
    work = []
    for name in ("sl4", "sltau2", "sltau4"):
        scen = builtin_scenarios()[name]
        for sample in batch_sample(scen.admissible(), 10, 12, batch_seed(1, 10)):
            assert sample.element.den == 1
            work.append((sample.element, scen.coset(sample.label).multiplicity))
    primes = primes_in_window(*PRIME_WINDOW)

    class NoFraction:
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built on the integer path")

    for module in (exactmat, modpoly, zfactor):
        monkeypatch.setattr(module, "Fraction", NoFraction, raising=False)
    with pytest.raises(AssertionError):
        exactmat.RationalPolynomial((1, 2))  # the stub is in place
    roots = 0
    for element, e in work:
        q = exact_poly_root(char_poly(element), e)
        if q is None:
            continue
        roots += 1
        factor_degrees(q, primes)
        discriminant(integral_monic(q))
        frobenius_cycle_type(q, primes[0])
    assert roots >= len(work) // 2
