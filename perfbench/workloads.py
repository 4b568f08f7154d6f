"""Workload definitions: what one unit of work is, how many items it holds,
and the invariants its output must satisfy.

A unit is one call of a public entry point (`run_convergence`,
`run_finite_field` or `run_oracle`) followed by `render_csv`, exactly as
`galwalk run|finfield|oracle --out x.csv` does.  The run seed is the
unit's config seed: it picks every walk, and the exhaustive workloads only
carry it into their metadata.  A run repeats its one unit.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                      # "run" | "finfield" | "oracle"
    scenario: str
    k_values: tuple[int, ...] = (10, 20, 30)
    samples: int = 1               # walk samples per k (verb "run")
    prime_min: int = 1_000
    prime_max: int = 100_000
    budget: int = 300


# Why each workload is there is recorded in BENCHMARK.json.  Walk units are
# small so that a run holds many repeats: each request is timed by its
# median repeat (see measure).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk_sl4", "run", "sl4", (20, 30), samples=60),
        Workload("census_sltau2", "finfield", "sltau2", prime_min=5, prime_max=17),
        Workload("oracle_diag_antidiag", "oracle", "diag_antidiag", (10, 16, 22)),
    )
}

ENTRY = {"run": "run_convergence", "finfield": "run_finite_field", "oracle": "run_oracle"}

# function whose calls mark one user-visible request: (layer, name, until_next)
REQUEST = {
    "run": ("experiment", "identify_sample", False),
    "finfield": ("finfield", "enumerate_mod_p", True),
    "oracle": ("experiment", "exact_word_census", True),
}


def unit_config(w: Workload, seed: int):
    from galwalk.experiment import ExperimentConfig

    return ExperimentConfig(
        scenario=w.scenario,
        k_values=w.k_values,
        samples=w.samples,
        prime_min=w.prime_min,
        prime_max=w.prime_max,
        budget=w.budget,
        seed=seed,
    )


def items(w: Workload, rows) -> int:
    """Work items in one unit's rows: walk samples, or group elements
    censused.  Oracle units count DP states separately (see measure)."""
    if w.verb == "run":
        return sum(r["samples"] for r in rows)
    if w.verb == "finfield":
        return sum({(r["p"], r["coset"]): r["total"] for r in rows}.values())
    raise ValueError("oracle items come from the DP states")


def decided(w: Workload, rows) -> tuple[int, int]:
    """(decided, eligible) counts behind decided_fraction.

    Walks: regular-semisimple samples whose verdict is not inconclusive.
    Census: elements whose pattern is decided (regular semisimple).
    Oracle: word lengths at which the parity law decides every word.
    """
    if w.verb == "run":
        return (sum(r["n_rs"] - r["n_inconclusive"] for r in rows),
                sum(r["n_rs"] for r in rows))
    if w.verb == "finfield":
        per = {(r["p"], r["coset"]): (r["rs_count"], r["total"]) for r in rows}
        return sum(a for a, _ in per.values()), sum(b for _, b in per.values())
    return sum(r["parity_exact"] for r in rows), len(rows)


def check(w: Workload, rows, gens_size: int) -> list[str]:
    """Invariants of one unit's rows; returns a list of violations."""
    errors = []
    if w.verb == "run":
        per_k: dict[int, int] = {}
        for r in rows:
            verdicts = r["n_certified"] + r["n_consistent"] + r["n_rejected"] + r["n_inconclusive"]
            if verdicts != r["n_rs"]:
                errors.append(f"k={r['k']} coset={r['coset']}: verdicts {verdicts} != n_rs {r['n_rs']}")
            if not 0 <= r["n_rs"] <= r["samples"]:
                errors.append(f"k={r['k']} coset={r['coset']}: n_rs {r['n_rs']} > samples {r['samples']}")
            per_k[r["k"]] = per_k.get(r["k"], 0) + r["samples"]
        if per_k != {k: w.samples for k in w.k_values}:
            errors.append(f"samples per k {per_k} != {w.samples}")
    elif w.verb == "finfield":
        per: dict[tuple, list] = {}
        for r in rows:
            if r["status"] != "ok":
                errors.append(f"p={r['p']}: status {r['status']}")
                continue
            acc = per.setdefault((r["p"], r["coset"]), [0, r["rs_count"], r["total"]])
            acc[0] += r["count"]
        totals: dict[int, int] = {}
        for (p, coset), (counted, rs, total) in per.items():
            if counted != rs:
                errors.append(f"p={p} coset={coset}: counts {counted} != rs_count {rs}")
            if rs > total:
                errors.append(f"p={p} coset={coset}: rs_count {rs} > total {total}")
            totals[p] = totals.get(p, 0) + total
        for p, total in totals.items():
            if total != 2 * p * (p * p - 1):
                errors.append(f"p={p}: total {total} != 2p(p^2-1)")
        if not totals:
            errors.append("no census rows")
    else:
        if [r["k"] for r in rows] != list(w.k_values):
            errors.append(f"rows for k {[r['k'] for r in rows]}")
        for r in rows:
            if r["words"] != gens_size ** r["k"]:
                errors.append(f"k={r['k']}: words {r['words']} != {gens_size}^k")
            if r["parity_exact"] != 1:
                errors.append(f"k={r['k']}: parity law broken")
    return errors
