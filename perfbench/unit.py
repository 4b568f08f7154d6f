"""Run one unit of a workload in this (fresh) interpreter; print one JSON line.

    python3 perfbench/unit.py '<request JSON>'

The harness starts one such process per repeat, so every repeat starts
cold, as a single `galwalk` CLI call does: module-level caches and memos
of one repeat cannot speed up the next.  The request names the workload
(its fields), the seed, the `src/` directory to import galwalk from, the
mode (`plain`, `clock` or `trace`) and, for `trace`, an optional path for
the spans.  Importing galwalk is not timed; the unit is.  The reply holds
the unit's time, its rows, the sha256 of the rendered output, peak RSS, and
the per-layer metrics (`trace`) or, for `clock`, the host speed samples
taken while the unit ran (see calib) and the unit's and each request's
time, both as measured and at the nominal speed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import calib
import run
import workloads as wl
from probes import LAYERS, RequestClock, Tracer


def run_unit(w: wl.Workload, config, entry_done=None):
    """One public entry point call plus rendering, as the CLI does it."""
    from galwalk import experiment, output

    try:
        with contextlib.redirect_stderr(io.StringIO()):
            rows, fields, metadata = getattr(experiment, wl.ENTRY[w.verb])(config)
    finally:
        if entry_done is not None:
            entry_done()
    return rows, output.render_csv(rows, fields, metadata)


def gens_size(w: wl.Workload) -> int:
    from galwalk.scenarios import builtin_scenarios

    return builtin_scenarios()[w.scenario].admissible().size


def layer_metrics(w: wl.Workload, tracer: Tracer, gens: int) -> dict:
    """Per-layer figures of one traced unit."""
    calls, busy, self_time, under = tracer.aggregate()

    def ratio(a, b):
        return a / b if b else 0.0

    frob = "frobenius_cycle_type"
    m = {
        "modpoly.frobenius_calls": calls[frob],
        "modpoly.frobenius_busy_s": busy[frob],
        "modpoly.frobenius_us_per_call": 1e6 * ratio(busy[frob], calls[frob]),
        "modpoly.good_prime_ratio": ratio(tracer.good_primes, calls[frob]),
        "galois_id.primes_per_sample": ratio(calls[frob], calls["collect_samples"]),
        "galois_id.collect_busy_s": busy["collect_samples"],
        "galois_id.verdict_busy_s": busy["match_verdict"],
        "exactmat.charpoly_calls": calls["char_poly"],
        "exactmat.charpoly_busy_s": busy["char_poly"],
        "exactmat.matmul_calls": calls["mat_mul"],
        "exactmat.matmul_busy_s": busy["mat_mul"],
        "walker.sample_busy_s": busy["batch_sample"],
        "finfield.closure_elements": tracer.closure_elements,
        "finfield.closure_busy_s": busy["enumerate_mod_p"],
        "finfield.charpoly_busy_s": busy["charpoly_mod_p"],
        "finfield.pattern_busy_s": busy["census"] - busy["charpoly_mod_p"],
        "finfield.distinct_chi_ratio": ratio(len(tracer.chis), calls["charpoly_mod_p"]),
        "experiment.oracle_dp_busy_s": busy["exact_word_census"],
        "experiment.oracle_states": (under[("exact_word_census", "mat_mul")] / gens
                                     if w.verb == "oracle" else 0),
        "output.emit_s": busy["render_csv"],
        "output.bytes": tracer.rendered_bytes,
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


def main(argv) -> int:
    req = json.loads(argv[1])
    fields = req["workload"]
    w = wl.Workload(**{**fields, "k_values": tuple(fields["k_values"])})
    run._import_galwalk(req["src"])
    config = wl.unit_config(w, req["seed"])
    mode = req["mode"]
    layer, name, until_next = wl.REQUEST[w.verb]
    if mode == "clock":
        probe = RequestClock(layer, name, until_next)
    elif mode == "trace":
        probe = Tracer(name, until_next)
    else:
        probe = contextlib.nullcontext()

    sampler = calib.SpeedSampler(w.verb) if mode == "clock" else contextlib.nullcontext()

    reply = {"error": None, "rows": None, "sha256": None}
    done = probe.close if mode == "clock" else None
    with sampler:
        t0 = time.perf_counter()
        with probe:
            try:
                rows, text = run_unit(w, config, done)
            except Exception:  # a failed operation is counted, never fatal
                reply["error"] = traceback.format_exc(limit=4).strip().splitlines()[-1]
        t1 = time.perf_counter()
    reply["seconds"] = t1 - t0
    if reply["error"] is None:
        reply["rows"] = rows
        reply["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        reply["gens"] = gens_size(w)
    if mode != "plain":
        reply["missing"] = probe.missing
    if mode == "clock":
        reply["nominal"] = sampler.nominal_time(t0, t1)
        reply["latencies"] = [(key, sampler.nominal_time(a, b), b - a) for key, a, b in probe.spans]
        reply["speed"] = sampler.speeds()
        reply["result_sizes"] = probe.result_sizes
    if mode == "trace" and reply["error"] is None:
        reply["metrics"] = layer_metrics(w, probe, reply["gens"])
        if req.get("spans_path"):
            probe.write_jsonl(req["spans_path"])
    reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(reply, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
