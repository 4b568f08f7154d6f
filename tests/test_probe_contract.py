"""The names the benchmark probes wrap and read must exist in galwalk.

perfbench reports a missing probe target only as an info line, so a rename
here would silently drop a layer from the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

from galwalk.finfield import charpoly_mod_p
from galwalk.modpoly import frobenius_cycle_type

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def probe_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_probe_targets_resolve():
    for layer, names in probe_targets().items():
        module = importlib.import_module(f"galwalk.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"galwalk.{layer}.{name}"


def test_probed_return_values_keep_their_fields():
    # Tracer counts good primes from .status and distinct chi from (.p, .coeffs)
    assert frobenius_cycle_type([6, -5, 1], 7).status == "good"
    chi = charpoly_mod_p(((1, 2), (3, 4)), 5)
    assert (chi.p, chi.coeffs) == (5, (3, 0, 1))
