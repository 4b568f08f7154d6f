import itertools
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from galwalk.cli import main
from galwalk.exactmat import (
    RationalMatrix,
    char_poly,
    is_rational_square,
    mat_mul,
)
from galwalk import experiment, modpoly, scenarios
from galwalk.experiment import (
    ExperimentConfig,
    batch_seed,
    catalog_rows,
    exact_word_census,
    identify_sample,
    run_convergence,
    run_finite_field,
    run_oracle,
    word_table,
)
from galwalk.galois_id import (
    KIND_CERTIFIED_EXACT,
    KIND_CONSISTENT,
    KIND_INCONCLUSIVE,
    KIND_REJECTED,
    collect_samples,
    expand_summary,
    match_verdict,
)
from galwalk.modpoly import power_root
from galwalk.output import dec6, emit, render_csv, render_json
from galwalk.scenarios import CosetSpec, Scenario, builtin_scenarios
from galwalk.walker import batch_sample
from test_galois_id import certify_sn
from fraction_rows import fraction_rows

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_validation():
    with pytest.raises(ValueError, match="need at least one k value"):
        ExperimentConfig(scenario="sl2", k_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="sl2", k_values=(10, 5))
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="sl2", samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="sl2", prime_min=50, prime_max=10)
    # the thresholds are fixed constants, not config fields
    with pytest.raises(TypeError):
        ExperimentConfig(scenario="sl2", tv_max=F(1, 10))
    ExperimentConfig(scenario="sl2", k_values=(0, 3))  # k = 0 is allowed


def test_dec6_exact_rendering():
    assert dec6(F(1, 2)) == "0.500000"
    assert dec6(F(1, 3)) == "0.333333"
    assert dec6(F(2, 3)) == "0.666667"
    assert dec6(F(-1, 3)) == "-0.333333"
    assert dec6(F(0)) == "0.000000"
    assert dec6(F(1)) == "1.000000"
    # round half to even at the sixth place
    assert dec6(F(1, 2_000_000)) == "0.000000"
    assert dec6(F(3, 2_000_000)) == "0.000002"


def test_emit_outputs(tmp_path):
    rows = [{"a": 1, "b": F(1, 3), "c": (2, 1), "d": "x"}]
    meta = {"seed": 7, "scenario": "sl2"}
    csv_path = tmp_path / "out.csv"
    emit(rows, ("a", "b", "c", "d"), meta, str(csv_path), "csv")
    text = csv_path.read_text()
    assert text.startswith("# scenario=sl2\n# seed=7\n")
    assert "a,b,c,d\n" in text
    assert "1,0.333333,2+1,x\n" in text
    assert text.endswith("\n")
    json_path = tmp_path / "out.json"
    emit(rows, ("a", "b", "c", "d"), meta, str(json_path), "json")
    parsed = json.loads(json_path.read_text())
    assert parsed[0]["metadata"] == {"scenario": "sl2", "seed": 7}
    assert parsed[1] == {"a": 1, "b": "0.333333", "c": "2+1", "d": "x"}


@pytest.mark.parametrize("render", [render_csv, render_json])
@pytest.mark.parametrize("row", [{"a": 1, "b": 2, "c": 3}, {"a": 1}])
def test_render_refuses_a_row_whose_keys_are_not_the_header(render, row):
    # an extra key would be a column silently dropped, a missing one a blank
    with pytest.raises(ValueError, match="differ from the header"):
        render([{"a": 0, "b": 0}, row], ("a", "b"), {"k": 1})


def test_emit_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], ("x", "y"), {"k": 1}, str(path), "csv")
    assert path.read_text() == "# k=1\nx,y\n"


def test_json_round_trips_to_csv_values(tmp_path):
    cfg = ExperimentConfig(scenario="sl2", k_values=(4,), samples=10, budget=30)
    rows, fields, meta = run_convergence(cfg)
    csv_text = render_csv(rows, fields, meta)
    data_lines = [
        line for line in csv_text.splitlines() if not line.startswith("#")
    ]
    parsed = json.loads(render_json(rows, fields, meta))
    assert len(parsed) - 1 == len(data_lines) - 1
    for row, line in zip(parsed[1:], data_lines[1:]):
        assert ",".join(str(row[f]) for f in fields) == line


def test_run_convergence_determinism():
    cfg = ExperimentConfig(scenario="sl2", k_values=(4, 8), samples=12, budget=40)
    a = render_csv(*run_convergence(cfg))
    b = render_csv(*run_convergence(cfg))
    assert a == b


def test_run_convergence_k0():
    cfg = ExperimentConfig(scenario="sl2", k_values=(0,), samples=5, budget=20)
    (row,) = run_convergence(cfg)[0]
    assert row["n_rs"] == 0 and row["mismatch_fraction"] == 1


def test_run_convergence_counterexample_schema():
    cfg = ExperimentConfig(scenario="diag_antidiag", k_values=(6,), samples=40)
    rows, _, _ = run_convergence(cfg)
    diag = next(r for r in rows if r["coset"] == 0)
    assert diag["n_order2"] == 0  # diagonal samples have rational eigenvalues


@pytest.mark.parametrize("entry,settings,header", [
    (run_convergence, dict(scenario="sl2", k_values=(0,), samples=5, budget=20), (
        "k", "coset", "samples", "n_rs", "n_certified", "n_consistent",
        "n_rejected", "n_inconclusive", "mismatch_fraction",
    )),
    (run_convergence, dict(scenario="diag_antidiag", k_values=(6,), samples=40), (
        "k", "coset", "samples", "n_rs", "n_trivial", "n_order2", "trivial_fraction",
    )),
    # p = 2 is a bad prime, so the first row is the bad-prime row
    (run_finite_field, dict(scenario="sl2", prime_min=2, prime_max=7), (
        "p", "coset", "status", "cycle_type", "count", "rs_count", "total",
        "density_rs", "density_coset", "flagged",
    )),
    (run_oracle, dict(scenario="diag_antidiag", k_values=(2, 5)), (
        "k", "words", "off_count", "trivial_count", "trivial_fraction", "parity_exact",
    )),
    (catalog_rows, None, (
        "scenario", "coset", "group", "degree", "order", "cycle_type",
        "frequency", "frequency_exact",
    )),
])
def test_each_verb_header_is_its_readme_column_list(entry, settings, header):
    rows, fields, _ = entry() if settings is None else entry(ExperimentConfig(**settings))
    assert fields == header
    assert all(tuple(row) == header for row in rows)
    readme = " ".join(README.read_text(encoding="utf-8").split())
    assert f"`{', '.join(header)}`" in readme


def _scan(q, spec, cfg, early):
    """Kind and summary of the prime scan, stopping early at a settled kind
    or running the whole budget."""
    summary = collect_samples(
        q, (cfg.prime_min, cfg.prime_max), cfg.budget,
        spec.predicted if early else None, spec.multiplicity,
    )
    if summary.good_count == 0:
        return KIND_INCONCLUSIVE, summary
    expanded = expand_summary(summary, spec.multiplicity)
    verdict = match_verdict(expanded, spec.predicted)
    return verdict.kind, summary


def test_early_stop_keeps_the_full_budget_kind():
    seen = set()
    pipeline = set()
    sn_certified = set()
    for name in ("sl2", "sl3", "sl4", "sltau2", "sltau4", "slcyc2x2", "slcyc2x3",
                 "res_sqrt2"):
        scen = builtin_scenarios()[name]
        for seed, k in ((1, 4), (2, 12), (3, 20)):
            cfg = ExperimentConfig(scenario=name, k_values=(k,), seed=seed)
            for sample in batch_sample(scen.admissible(), k, 4, batch_seed(seed, k)):
                spec = scen.coset(sample.label)
                q = power_root(char_poly(sample.element), spec.multiplicity)
                if q is None:
                    continue
                kind = _scan(q, spec, cfg, early=True)[0]
                full, whole = _scan(q, spec, cfg, early=False)
                assert kind == full
                seen.add((name, spec.multiplicity, kind))
                # the pipeline scans only what the exact rules leave open
                # (their details start "rule ("), and a proof from either
                # side never contradicts the other
                out = identify_sample(sample, spec, cfg)
                pipeline.add(out.kind)
                by_rule = out.detail.startswith("rule (")
                if not by_rule:
                    assert out.kind == full
                if full == KIND_REJECTED:
                    assert out.kind == KIND_REJECTED
                # the S_n certificate (the test oracle) on the full budget's
                # types is a proof rule (c) always reaches first
                n = spec.predicted.degree
                symmetric = spec.predicted.order == math.factorial(n)
                if symmetric and certify_sn(whole.empirical, n):
                    sn_certified.add(name)
                    assert out.kind == KIND_CERTIFIED_EXACT and by_rule
    assert any(e == 2 for _, e, _ in seen)
    assert "sl4" in sn_certified
    # the only scan rejections here were distance mismatches, which are
    # inconclusive now; the exact rules prove those samples rejected
    assert {kind for _, _, kind in seen} >= {KIND_CONSISTENT, KIND_INCONCLUSIVE}
    assert pipeline >= {KIND_CERTIFIED_EXACT, KIND_REJECTED}


def test_batch_seed_stability():
    assert batch_seed(1, 30) == batch_seed(1, 30)
    assert batch_seed(1, 30) != batch_seed(1, 31)
    assert batch_seed(2, 30) != batch_seed(1, 30)


def test_run_finite_field_rows():
    cfg = ExperimentConfig(
        scenario="sl2", k_values=(1,), prime_min=2, prime_max=7, samples=1
    )
    rows, fields, _ = run_finite_field(cfg)
    assert rows[0]["status"] == "bad_prime"
    bad = [r for r in rows if r["status"] == "bad_prime"]
    assert {r["p"] for r in bad} == {2}  # p=2 is skipped, logged as a row
    ok = [r for r in rows if r["status"] == "ok"]
    assert {r["p"] for r in ok} == {3, 5, 7}
    for r in ok:
        assert r["rs_count"] <= r["total"]


def test_run_finite_field_reports_counts_per_prime(tmp_path, capsys):
    # per censused prime: |G(F_p)| = 2 p (p^2 - 1), 2 (p + 4) classes (p + 4
    # per coset) and the distinct chi over both cosets, on stderr only
    out = tmp_path / "census.csv"
    assert main(["finfield", "--scenario", "sltau2", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    distinct = {5: 7, 7: 10, 11: 16, 13: 19, 17: 25}
    want = [
        f"# finfield p={p}: {2 * p * (p * p - 1)} elements, "
        f"{2 * (p + 4)} conjugacy classes, {chis} distinct chi"
        for p, chis in distinct.items()
    ]
    assert [line for line in err.splitlines() if line.startswith("# finfield")] == want
    assert want[-1] == "# finfield p=17: 9792 elements, 42 conjugacy classes, 25 distinct chi"
    assert "conjugacy" not in out.read_text() and "elements" not in out.read_text()


def test_run_finite_field_rejects_large_dimension():
    cfg = ExperimentConfig(scenario="slcyc2x3", k_values=(1,), samples=1)
    with pytest.raises(ValueError):
        run_finite_field(cfg)


def test_oracle_against_literal_word_enumeration():
    # independent oracle for the oracle: multiply out every word for small k
    scen = builtin_scenarios()["diag_antidiag"]
    gens = scen.admissible()
    letters = list(gens.generators)
    ident = RationalMatrix.identity(2)
    ks = (1, 2, 3, 4, 5, 6)
    # one call for every k, so the rows come from the chained census
    cfg = ExperimentConfig(scenario="diag_antidiag", k_values=ks, samples=1)
    rows, _, _ = run_oracle(cfg)
    assert [row["k"] for row in rows] == list(ks)
    for k, row in zip(ks, rows):
        off = trivial = 0
        for word in itertools.product(range(len(letters)), repeat=k):
            m = ident
            n_i = 0
            for i in word:
                g, lab = letters[i]
                m = mat_mul(m, g)
                if g == ident and lab == 0:
                    n_i += 1
            if fraction_rows(m)[0][0] != 0:
                continue
            off += 1
            ab = fraction_rows(m)[0][1] * fraction_rows(m)[1][0]
            # a/b in lowest terms is a square iff a * b is
            is_triv = is_rational_square(ab.numerator * ab.denominator)
            if is_triv:
                trivial += 1
            expected = (n_i % 2 == 1) if k % 2 == 0 else (n_i % 2 == 0)
            assert is_triv == expected
        assert row["off_count"] == off
        assert row["trivial_count"] == trivial
        assert row["parity_exact"] == 1
        assert row["words"] == len(letters) ** k


def census_by_products(scenario, k):
    """Reference word census: every letter multiplied in, the identity too."""
    gens = scenario.admissible()
    ident = RationalMatrix.identity(scenario.dimension)
    states = {(ident, 0, 0): 1}
    for _ in range(k):
        nxt = {}
        for (m, lab, parity), count in states.items():
            for g, glab in gens.generators:
                key = (
                    mat_mul(m, g),
                    (lab + glab) % len(scenario.cosets),
                    parity ^ (1 if (g == ident and glab == 0) else 0),
                )
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return states


def by_matrix(table, states):
    """Census states keyed by matrix: each element index read back through
    the table, with the element's coset label."""
    elements, labels = table.closure.elements, table.labels
    return {(elements[i], labels[i], parity): count for (i, parity), count in states.items()}


@pytest.mark.parametrize("name,k_max", [("diag_antidiag", 12), ("sl2", 6)])
def test_chained_word_census_equals_fresh(name, k_max):
    scen = builtin_scenarios()[name]
    table = word_table(scen, k_max)
    last = None
    for k in range(k_max + 1):
        states = exact_word_census(table, k, last)
        assert all(states.values()), (name, k)  # only the states words reach
        fresh = word_table(scen, k)
        assert by_matrix(table, states) == by_matrix(fresh, exact_word_census(fresh, k)), (name, k)
        last = (k, states)
    # a start beyond k cannot be extended back, nor a k beyond the table's depth
    with pytest.raises(ValueError):
        exact_word_census(table, k_max - 1, last)
    with pytest.raises(ValueError, match="depth"):
        exact_word_census(table, k_max + 1, last)
    with pytest.raises(ValueError, match="depth"):
        exact_word_census(word_table(scen, k_max - 1), k_max)


def test_word_census_skips_identity_products_exactly():
    # the identity letter keeps i as it is; the states and the word totals
    # |S|^k are those of the census that multiplies every letter in, also
    # in dimension 4 with two cosets and on a finite group the table fills
    builtin = builtin_scenarios()
    for scen, k_max in (
        (builtin["diag_antidiag"], 6),
        (builtin["sl2"], 4),
        (builtin["sltau2"], 3),
        (two_coset_scenario((ANTIDIAG, 1)), 4),
    ):
        name = scen.name
        gens = scen.admissible()
        ident = RationalMatrix.identity(scen.dimension)
        assert any(g == ident for g, _ in gens.generators)
        for k in range(k_max + 1):
            table = word_table(scen, k)
            states = exact_word_census(table, k)
            assert sum(states.values()) == len(gens.generators) ** k
            assert by_matrix(table, states) == census_by_products(scen, k), (name, k)


@pytest.mark.parametrize("name,k", [("diag_antidiag", 9), ("sl2", 4)])
def test_word_table_columns_are_right_products(name, k):
    scen = builtin_scenarios()[name]
    table = word_table(scen, k)
    exact_word_census(table, k)
    assert len(table.ends) - 1 == k
    ident = RationalMatrix.identity(scen.dimension)
    letters = [g for g, _ in scen.admissible().generators]
    factors = [g for g in letters if g != ident]
    elements, images = table.closure.elements, table.closure.images
    assert len(images) == len(factors)
    # every element of word length below k is expanded, by every letter
    expanded = len(images[0])
    assert all(len(column) == expanded for column in images)
    assert expanded < len(elements) == len(set(elements))
    for g, column in zip(factors, images):
        for i in range(expanded):
            assert elements[column[i]] == mat_mul(elements[i], g), (name, i)
    # the labels follow the letters: each adds its label mod the coset
    # count, and the one identity letter is labelled 0
    m = len(scen.cosets)
    labels = [lab for g, lab in scen.admissible().generators if g != ident]
    assert len(table.labels) == len(elements) and table.labels[0] == 0
    for lab, column in zip(labels, images):
        for i in range(expanded):
            assert table.labels[column[i]] == (table.labels[i] + lab) % m, (name, i)
    assert [lab for g, lab in scen.admissible().generators if g == ident] == [0]


@pytest.mark.parametrize("name,k", [("diag_antidiag", 9), ("sl2", 4), ("sltau2", 3)])
def test_word_table_preimages_and_layer_ends(name, k):
    scen = builtin_scenarios()[name]
    table = word_table(scen, k)
    n = len(table.closure.elements)
    # each preimage column inverts its letter's column on the expanded
    # elements and points at the count-0 slot n everywhere else
    for column, pre in zip(table.closure.images, table.preimages):
        assert len(pre) == n
        back = {i: x for x, i in enumerate(column)}
        assert pre == [back.get(i, n) for i in range(n)]
    # ends[t] counts the elements within t letters: a breadth-first search
    # over the matrices themselves, which the table numbers in its order
    ident = RationalMatrix.identity(scen.dimension)
    letters = [g for g, _ in scen.admissible().generators if g != ident]
    distance = {ident: 0}
    layer = [ident]
    for t in range(1, k + 1):
        nxt = []
        for x in layer:
            for g in letters:
                y = mat_mul(x, g)
                if y not in distance:
                    distance[y] = t
                    nxt.append(y)
        layer = nxt
    assert table.ends == [sum(d <= t for d in distance.values()) for t in range(k + 1)]
    assert [distance[m] for m in table.closure.elements] == sorted(distance.values())


ANTIDIAG = RationalMatrix([[0, 1], [1, 0]])


def two_coset_scenario(*raw):
    return Scenario(
        name="two_labels",
        dimension=2,
        raw_generators=raw,
        cosets=(CosetSpec("even", None), CosetSpec("odd", None)),
        description="a word census that must be refused",
    )


def test_word_table_refuses_a_matrix_with_two_labels():
    # the antidiagonal J labelled 1 and 0: two one-letter words reach J
    # with two labels
    with pytest.raises(ValueError, match="two coset labels"):
        word_table(two_coset_scenario((ANTIDIAG, 1), (ANTIDIAG, 0)), 2)


def test_word_table_refuses_an_identity_letter_with_a_nonzero_label():
    # the identity labelled 1 joins the identity letter labelled 0
    ident = RationalMatrix.identity(2)
    with pytest.raises(ValueError, match="one identity letter, labelled 0"):
        word_table(two_coset_scenario((ANTIDIAG, 1), (ident, 1)), 2)


def test_oracle_multiplies_each_element_by_each_letter_once(monkeypatch):
    # one product per (expanded element, non-identity letter) over the whole
    # run, and χ at most once per distinct off-coset element, across all k
    counts = {"mat_mul": 0, "char_poly": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(experiment, "mat_mul", counting("mat_mul", mat_mul))
    monkeypatch.setattr(experiment, "char_poly", counting("char_poly", char_poly))
    calls = []

    def recording(table, k, start=None):
        calls.append((table, exact_word_census(table, k, start)))
        return calls[-1][1]

    monkeypatch.setattr(experiment, "exact_word_census", recording)
    rows, _, _ = run_oracle(ExperimentConfig(scenario="diag_antidiag", k_values=(10, 16, 22)))
    table = calls[0][0]
    assert all(t is table for t, _ in calls) and len(calls) == 3
    assert len(table.ends) - 1 == 22 and len(table.closure.images) == 3
    assert len(table.closure.images[0]) == 1606 and len(table.closure.elements) == 1770
    assert counts["mat_mul"] == 3 * 1606 == 4818
    off_elements = {i for _, states in calls for i, _ in states if table.labels[i] != 0}
    assert counts["char_poly"] <= len(off_elements) == 925
    assert [row["off_count"] for row in rows] == [(4**k - 2**k) // 2 for k in (10, 16, 22)]


def test_oracle_multi_k_equals_single_k_calls():
    ks = (1, 2, 3, 4, 5, 6)
    cfg = ExperimentConfig(scenario="diag_antidiag", k_values=ks, samples=1)
    rows, _, _ = run_oracle(cfg)
    singles = [
        run_oracle(ExperimentConfig(scenario="diag_antidiag", k_values=(k,), samples=1))[0]
        for k in ks
    ]
    assert [[row] for row in rows] == singles


def test_oracle_repeated_k_and_one_census_call_per_k(monkeypatch):
    calls = []

    def recording(table, k, start=None):
        states = exact_word_census(table, k, start)
        calls.append((k, start[0] if start else None, sum(states.values())))
        return states

    monkeypatch.setattr(experiment, "exact_word_census", recording)
    cfg = ExperimentConfig(scenario="diag_antidiag", k_values=(4, 4, 9), samples=1)
    rows, _, _ = run_oracle(cfg)
    assert rows[0] == rows[1] and rows[0]["k"] == 4
    single = run_oracle(ExperimentConfig(scenario="diag_antidiag", k_values=(9,), samples=1))
    assert rows[2] == single[0][0]
    # one call per k value (the single-k run makes the fourth), each
    # returning that k's states and extending the previous k's
    n = len(builtin_scenarios()["diag_antidiag"].admissible().generators)
    assert calls == [(4, None, n**4), (4, 4, n**4), (9, 4, n**9), (9, None, n**9)]


def test_oracle_closed_form():
    cfg = ExperimentConfig(
        scenario="diag_antidiag", k_values=tuple(range(1, 11)), samples=1
    )
    rows, _, _ = run_oracle(cfg)
    for row in rows:
        k = row["k"]
        assert row["off_count"] == (4**k - 2**k) // 2
        if k % 2 == 0:
            assert row["trivial_fraction"] == F(2 ** (k - 1) - 1, 2**k - 1)
        else:
            assert row["trivial_fraction"] == F(2 ** (k - 1), 2**k - 1)


def test_oracle_rejects_predicted_scenarios():
    with pytest.raises(ValueError):
        run_oracle(ExperimentConfig(scenario="sl2", k_values=(2,), samples=1))


def test_catalog_rows_exact_frequencies():
    rows, fields, _ = catalog_rows()
    assert "frequency_exact" in fields
    by_group = {}
    for r in rows:
        by_group.setdefault((r["scenario"], r["coset"], r["group"]), []).append(r)
    for rows_g in by_group.values():
        total = sum(F(r["frequency_exact"]) for r in rows_g)
        assert total == 1
    names = {r["scenario"] for r in rows}
    assert "diag_antidiag" not in names  # no predictions there
    # one group per coset, under its bare catalog name
    assert len(by_group) == len({(s, c) for s, c, _ in by_group}) == 13
    assert {g for s, c, g in by_group if s.startswith("sltau") and c == 1} == {
        "reciprocal_wreath_2",
        "reciprocal_wreath_4",
    }


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "galwalk.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_scenarios_and_errors(tmp_path):
    out = run_cli("scenarios")
    assert out.returncode == 0
    assert "sl2" in out.stdout and "diag_antidiag" in out.stdout
    bad = run_cli("run", "--scenario", "nope", "--out", str(tmp_path / "x.csv"))
    assert bad.returncode == 2
    missing_out = run_cli("run", "--scenario", "sl2")
    assert missing_out.returncode == 2
    # the decay fit is printed only after the experiment ran
    assert "--out is required" in missing_out.stderr
    assert "mismatch decay fit" not in missing_out.stderr
    no_dir = run_cli("run", "--scenario", "sl2", "--out", str(tmp_path / "no" / "x.csv"))
    assert no_dir.returncode == 2
    assert "does not exist" in no_dir.stderr
    assert "mismatch decay fit" not in no_dir.stderr
    is_dir = run_cli("run", "--scenario", "sl2", "--out", str(tmp_path))
    assert is_dir.returncode == 2
    assert "is a directory" in is_dir.stderr
    assert "mismatch decay fit" not in is_dir.stderr


def test_decay_fit_line_signs_its_slope(capsys):
    # the sl4 walk's mismatch decays, so the slope is printed after a minus
    run_convergence(ExperimentConfig(scenario="sl4", k_values=(20, 60, 120), samples=100, seed=1))
    fits = [ln for ln in capsys.readouterr().err.splitlines() if "decay fit" in ln]
    assert fits == ["# mismatch decay fit (descriptive): log(mismatch) ~ 0.684 - 0.0882 * k"]
    # log(1/8) at k = 10 and log(1/2) at k = 20: slope log(4) / 10
    experiment._report_decay_fit(
        [{"k": 10, "mismatch_fraction": F(1, 8)}, {"k": 20, "mismatch_fraction": F(1, 2)}]
    )
    assert capsys.readouterr().err == (
        "# mismatch decay fit (descriptive): log(mismatch) ~ -3.466 + 0.1386 * k\n"
    )


@pytest.mark.parametrize("verb", ["run", "finfield", "oracle"])
def test_cli_unknown_scenario_fails_before_any_output(tmp_path, capsys, verb):
    out = tmp_path / "x.csv"
    assert main([verb, "--scenario", "nope", "--out", str(out)]) == 2
    assert "error: unknown scenario 'nope'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, built", [
    (["run", "--scenario", "sl4", "--k", "1", "--samples", "1"], ["sl4"]),
    (["finfield", "--scenario", "sltau2", "--primes-max", "5"], ["sltau2"]),
    (["oracle", "--scenario", "diag_antidiag", "--k", "1"], ["diag_antidiag"]),
    (["catalog"], list(scenarios._BUILDERS)),
])
def test_cli_builds_only_the_scenarios_it_reads(tmp_path, monkeypatch, argv, built):
    calls = []

    def counted(name, build):
        def wrapper():
            calls.append(name)
            return build()
        return wrapper

    builders = {name: counted(name, b) for name, b in scenarios._BUILDERS.items()}
    monkeypatch.setattr(scenarios, "_BUILDERS", builders)
    scenarios.get_scenario.cache_clear()
    try:
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
    finally:
        scenarios.get_scenario.cache_clear()
    assert calls == built


def test_cli_empty_k_has_its_own_message(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", "sl2", "--k", ",", "--out", str(out)]) == 2
    assert "error: need at least one k value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_finfield_fails_fast_past_the_bound(tmp_path, capsys):
    # each window ends at a prime whose closure exceeds the default bound:
    # 2 * |SL_2(F_11)|^2 = 3,484,800 and |SL_3(F_7)| = 5,630,688
    for scenario, top in (("slcyc2x2", "11"), ("sl3", "7")):
        out = tmp_path / f"{scenario}.csv"
        t0 = time.perf_counter()
        code = main(["finfield", "--scenario", scenario, "--primes-max", top,
                     "--out", str(out)])
        assert time.perf_counter() - t0 < 1
        assert code == 1 and not out.exists()
        assert f"closure at p={top} has at least" in capsys.readouterr().err


def test_cli_finfield_refuses_a_window_with_no_prime(tmp_path, capsys, monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("a census began")

    monkeypatch.setattr(experiment, "enumerate_mod_p", enumerate_nothing)
    out = tmp_path / "x.csv"
    code = main(["finfield", "--scenario", "sl2", "--primes-min", "14", "--primes-max", "16",
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    assert "error: no prime in [14, 16]" in capsys.readouterr().err


def test_cli_run_refuses_a_window_with_no_prime(tmp_path, capsys, monkeypatch):
    def sample_nothing(*args, **kwargs):
        raise AssertionError("a walk began")

    monkeypatch.setattr(experiment, "batch_sample", sample_nothing)
    out = tmp_path / "x.csv"
    code = main(["run", "--scenario", "sltau4", "--k", "10", "--samples", "4",
                 "--primes-min", "14", "--primes-max", "16", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert "error: no prime in [14, 16]" in capsys.readouterr().err


class Sieved(Exception):
    pass


def test_decided_samples_never_sieve(monkeypatch):
    def sieve(limit):
        raise Sieved(limit)

    monkeypatch.setattr(modpoly, "_sieve", sieve)
    modpoly.primes_in_window.cache_clear()
    # the walk_sl4 benchmark's unit: rules (a)-(c) decide every sample
    rows, _, _ = run_convergence(ExperimentConfig(scenario="sl4", k_values=(20, 30), samples=60))
    assert sum(row["samples"] for row in rows) == 120
    assert sum(row["n_certified"] + row["n_rejected"] for row in rows) == sum(
        row["n_rs"] for row in rows
    )
    # sltau4's degree-8 swap coset reaches Musser's filter and the scan
    with pytest.raises(Sieved):
        run_convergence(ExperimentConfig(scenario="sltau4", k_values=(10,), samples=4))


@pytest.mark.parametrize("verb", ["run", "finfield"])
def test_cli_refuses_a_prime_window_past_the_sieve_bound(tmp_path, capsys, verb):
    # sieving to 10**8 would take seconds and hundreds of MB first
    out = tmp_path / "x.csv"
    t0 = time.perf_counter()
    code = main([verb, "--scenario", "sl3", "--primes-max", "100000000", "--out", str(out)])
    assert time.perf_counter() - t0 < 1
    assert code == 2 and not out.exists()
    assert "error: prime_max must be at most 10,000,000" in capsys.readouterr().err
    ExperimentConfig(scenario="sl3", prime_max=10_000_000)  # the bound itself is allowed


def test_cli_run_reproducible_and_config_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "scenario": "sl2",
                "k": "3,6",
                "samples": 8,
                "seed": 5,
                "budget": 30,
            }
        )
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    r1 = run_cli("run", "--config", str(cfg_file), "--out", str(out1))
    r2 = run_cli("run", "--config", str(cfg_file), "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    # flags override the config file
    out3 = tmp_path / "c.csv"
    r3 = run_cli("run", "--config", str(cfg_file), "--seed", "6", "--out", str(out3))
    assert r3.returncode == 0
    assert out3.read_bytes() != out1.read_bytes()
    assert "# seed=6" in out3.read_text()


def test_cli_config_out_and_format(tmp_path):
    cfg_out = tmp_path / "from_config.json"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "scenario": "sl2", "k": "3", "samples": 4, "budget": 20,
        "out": str(cfg_out), "format": "json",
    }))
    assert run_cli("run", "--config", str(cfg_file)).returncode == 0
    rows = json.loads(cfg_out.read_text())
    assert rows[0]["metadata"]["scenario"] == "sl2"
    # --out beats the config's out; the config's format still applies
    cfg_out.unlink()
    flag_out = tmp_path / "from_flag.json"
    r = run_cli("run", "--config", str(cfg_file), "--out", str(flag_out))
    assert r.returncode == 0
    assert not cfg_out.exists()
    assert json.loads(flag_out.read_text())[1:] == rows[1:]


@pytest.mark.parametrize("source,value", [
    ("flag", ""), ("config", ""), ("config", None), ("config", 5),
])
def test_cli_refuses_an_out_that_is_not_a_non_empty_string(
    tmp_path, capsys, monkeypatch, source, value
):
    def sample_nothing(*args, **kwargs):
        raise AssertionError("a walk began")

    monkeypatch.setattr(experiment, "batch_sample", sample_nothing)
    monkeypatch.chdir(tmp_path)
    settings = {"scenario": "sl2", "k": "3", "samples": 2}
    if source == "config":
        settings["out"] = value
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(settings))
    flags = ["--out", value] if source == "flag" else []
    assert main(["run", "--config", str(cfg_file), *flags]) == 2
    assert f"error: out must be a non-empty path string, got {value!r}" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_identify_sample_is_none_off_the_regular_semisimple_locus():
    scen = builtin_scenarios()["sl2"]
    cfg = ExperimentConfig(scenario="sl2", k_values=(0,))
    (sample,) = batch_sample(scen.admissible(), 0, 1, batch_seed(1, 0))
    # the empty word is the identity: chi = (x - 1)^2 is not squarefree
    assert identify_sample(sample, scen.coset(sample.label), cfg) is None


def _run_with_config(tmp_path, capsys, settings):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(settings))
    out = tmp_path / "out.csv"
    code = main(["run", "--config", str(cfg_file), "--out", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("key,value", [
    ("samples", 2.9), ("seed", True), ("budget", 30.0), ("k", 3.0), ("k", False),
])
def test_cli_config_integer_keys_refuse_floats_and_booleans(tmp_path, capsys, key, value):
    settings = {"scenario": "sl2", "k": "3", "samples": 2, key: value}
    code, err, out = _run_with_config(tmp_path, capsys, settings)
    assert code == 2 and not out.exists()
    assert f"error: {key} must be an integer" in err


def test_cli_config_k_is_a_comma_string_or_one_integer(tmp_path, capsys):
    code, err, _ = _run_with_config(tmp_path, capsys, {"scenario": "sl2", "k": [3, 5]})
    assert code == 2
    assert "error: k must be an integer or a comma-separated string, got [3, 5]" in err
    code, err, _ = _run_with_config(tmp_path, capsys, {"scenario": "sl2", "k": "3,x"})
    assert code == 2 and "error: k must be comma-separated integers" in err
    settings = {"scenario": "sl2", "k": 3, "samples": 2}
    code, _, out = _run_with_config(tmp_path, capsys, settings)
    assert code == 0 and "# k_values=3\n" in out.read_text()


def test_cli_removed_threshold_settings_fail_loudly(tmp_path, capsys):
    code, err, out = _run_with_config(tmp_path, capsys, {"scenario": "sl2", "tv_max": "1/10"})
    assert code == 2 and not out.exists()
    assert "unknown config key 'tv_max'" in err
    for flag in ("--tv-max", "--coverage-min"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "sl2", flag, "1", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("verb,args,flag", [
    ("run", ("--scenario", "sl2", "--k", "3", "--samples", "2"), "--bound"),
    ("finfield", ("--scenario", "sl2", "--primes-max", "5"), "--samples"),
    ("finfield", ("--scenario", "sl2", "--primes-max", "5"), "--seed"),
    ("finfield", ("--scenario", "sl2", "--primes-max", "5"), "--k"),
    ("finfield", ("--scenario", "sl2", "--primes-max", "5"), "--budget"),
    ("oracle", ("--scenario", "diag_antidiag", "--k", "2"), "--primes-min"),
    ("oracle", ("--scenario", "diag_antidiag", "--k", "2"), "--bound"),
    ("oracle", ("--scenario", "diag_antidiag", "--k", "2"), "--samples"),
])
def test_cli_verb_refuses_a_flag_it_does_not_read(tmp_path, capsys, verb, args, flag):
    out = tmp_path / "out.csv"
    assert main([verb, *args, "--out", str(out)]) == 0  # without the flag
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main([verb, *args, flag, "3", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("verb,settings,key", [
    ("run", {"scenario": "sl2", "k": "3", "samples": 2}, "bound"),
    ("finfield", {"scenario": "sl2", "primes_max": 5}, "samples"),
    ("finfield", {"scenario": "sl2", "primes_max": 5}, "seed"),
    ("oracle", {"scenario": "diag_antidiag", "k": "2"}, "budget"),
    ("oracle", {"scenario": "diag_antidiag", "k": "2"}, "primes_min"),
])
def test_cli_verb_refuses_a_config_key_it_does_not_read(tmp_path, capsys, verb, settings, key):
    cfg_file = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg_file.write_text(json.dumps(settings))
    assert main([verb, "--config", str(cfg_file), "--out", str(out)]) == 0
    out.unlink()
    cfg_file.write_text(json.dumps({**settings, key: 1}))
    assert main([verb, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: unknown config key {key!r} for {verb}" in capsys.readouterr().err


# each verb's flags in --help order; all but --out, --format and --config
# name the verb's settings, which its output header lists
VERB_FLAGS = {
    "run": ["--scenario", "--k", "--samples", "--primes-min", "--primes-max",
            "--budget", "--seed", "--out", "--format", "--config"],
    "finfield": ["--scenario", "--primes-min", "--primes-max", "--bound", "--out",
                 "--format", "--config"],
    "oracle": ["--scenario", "--k", "--out", "--format", "--config"],
    "catalog": ["--out", "--format"],
}


def test_cli_verbs_list_only_the_flags_they_read(capsys):
    for verb, flags in VERB_FLAGS.items():
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == flags, verb


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("verb,args", [
    ("run", ("--scenario", "sl2", "--k", "3", "--samples", "2")),
    ("finfield", ("--scenario", "sl2", "--primes-max", "5", "--bound", "5000")),
    ("oracle", ("--scenario", "diag_antidiag", "--k", "2")),
    ("catalog", ()),
])
def test_cli_header_lists_exactly_the_settings_the_verb_reads(tmp_path, verb, args, fmt):
    out = tmp_path / f"out.{fmt}"
    assert main([verb, *args, "--out", str(out), "--format", fmt]) == 0
    text = out.read_text()
    if fmt == "csv":
        lines = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        header = dict(line.split("=", 1) for line in lines)
    else:
        header = {k: str(v) for k, v in json.loads(text)[0]["metadata"].items()}
    settings = {
        "k_values" if flag == "--k" else flag[2:].replace("-", "_")
        for flag in VERB_FLAGS[verb] if flag not in ("--out", "--format", "--config")
    }
    walk = {"rng", "tv_max", "coverage_min"} if verb == "run" else set()
    assert set(header) == {"artifact", "version", "command"} | settings | walk
    assert header["command"] == verb
    if verb == "finfield":
        assert header["bound"] == "5000"  # in CSV, the line "# bound=5000"


def test_cli_oracle_and_catalog(tmp_path):
    path = tmp_path / "oracle.json"
    r = run_cli(
        "oracle", "--scenario", "diag_antidiag", "--k", "2,4",
        "--out", str(path), "--format", "json",
    )
    assert r.returncode == 0
    rows = json.loads(path.read_text())[1:]
    assert [row["k"] for row in rows] == [2, 4]
    cat = tmp_path / "catalog.csv"
    assert run_cli("catalog", "--out", str(cat)).returncode == 0
    assert cat.read_text().count("\n") > 10


def test_mismatch_fraction_monotone_with_slack():
    # for the unimodular scenarios, mismatch_fraction is non-increasing in k
    # past k = 10, up to a slack of 0.05
    for name, samples in (("sl2", 150), ("sl3", 100)):
        cfg = ExperimentConfig(
            scenario=name, k_values=(10, 20, 30), samples=samples,
            budget=120, seed=9,
        )
        rows, _, _ = run_convergence(cfg)
        series = [r["mismatch_fraction"] for r in rows]
        for earlier, later in zip(series, series[1:]):
            assert later <= earlier + F(5, 100), (name, series)


def test_sl2_long_walk_mismatch_decays():
    # frozen from calibration runs at seed 1: the mismatch fraction at 200
    # samples decays through 0.15 / 0.10 / 0.05 as k grows 30 -> 45 -> 60
    cfg = ExperimentConfig(
        scenario="sl2", k_values=(30, 45, 60), samples=200, budget=300, seed=1
    )
    rows, _, _ = run_convergence(cfg)
    series = {r["k"]: r["mismatch_fraction"] for r in rows}
    assert series[30] <= F(15, 100)
    assert series[45] <= F(10, 100)
    assert series[60] <= F(5, 100)
    assert series[60] < series[45] < series[30]
