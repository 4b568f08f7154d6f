"""The names the benchmark probes wrap and read must exist in galwalk.

perfbench reports a missing probe target only as an info line, so a rename
here would silently drop a layer from the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

from galwalk.experiment import (
    ExperimentConfig,
    exact_word_census,
    run_convergence,
    run_finite_field,
    run_oracle,
    word_table,
)
from galwalk.finfield import charpoly_mod_p, enumerate_mod_p
from galwalk.modpoly import frobenius_cycle_type
from galwalk.scenarios import get_scenario

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_targets_resolve():
    for layer, names in probes().TARGETS.items():
        module = importlib.import_module(f"galwalk.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"galwalk.{layer}.{name}"


def test_probed_return_values_keep_their_fields():
    # Tracer counts good primes from .status and distinct chi from (.p, .coeffs)
    assert frobenius_cycle_type([6, -5, 1], 7).status == "good"
    chi = charpoly_mod_p(((1, 2), (3, 4)), 5)
    assert (chi.p, chi.coeffs) == (5, (3, 0, 1))


def test_request_markers_keep_what_perfbench_reads():
    # request_key reads k and p positionally and the sample's length and
    # index; RequestClock adds up len(result) as the run's item count, so
    # a change to the oracle's DP states or the census's cosets shows here
    assert len(exact_word_census(word_table(get_scenario("diag_antidiag"), 22), 22)) == 1770
    assert len(enumerate_mod_p(get_scenario("sltau2"), 5)) == 2
    runs = (
        ("experiment", "exact_word_census", True, run_oracle,
         ExperimentConfig(scenario="diag_antidiag", k_values=(10, 16, 22)),
         ["k10", "k16", "k22"], 330 + 906 + 1770),
        ("finfield", "enumerate_mod_p", True, run_finite_field,
         ExperimentConfig(scenario="sltau2", prime_min=5, prime_max=7), ["p5", "p7"], 2 + 2),
        ("experiment", "identify_sample", False, run_convergence,
         ExperimentConfig(scenario="sltau2", k_values=(3,), samples=2), ["k3/i0", "k3/i1"], 0),
    )
    for layer, name, until_next, entry, config, keys, sizes in runs:
        clock = probes().RequestClock(layer, name, until_next)
        with clock:
            entry(config)
        clock.close()
        assert [key for key, _, _ in clock.spans] == keys, name
        assert clock.result_sizes == sizes, name
