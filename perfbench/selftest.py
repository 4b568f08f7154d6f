"""Self-test of the benchmark at tiny sizes (a few minutes).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints exactly the metrics
BENCHMARK.json names, each with its unit; that a forced invariant violation,
an exception inside the program and a drop in the decided count below the
recorded one are each reported as a failed operation with exit code 1; that
a memo kept at module level in the program does not make repeats faster
(each repeat starts cold); that nominal times take out the host's speed
and the speed sampler's own time; and that a directory without the program's
sources exits nonzero without printing a result.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import calib
import measure
import run
import workloads


def _tiny(w: workloads.Workload) -> workloads.Workload:
    w = dataclasses.replace(w, name=f"{w.name}_tiny")
    if w.verb == "run":
        return dataclasses.replace(w, k_values=(2, 6), samples=3, prime_max=1_500, budget=20)
    if w.verb == "finfield":
        return dataclasses.replace(w, prime_max=7)
    return dataclasses.replace(w, k_values=(2, 4))


TINY = {t.name: t for t in map(_tiny, workloads.WORKLOADS.values())}
WALK, CENSUS, ORACLE = TINY  # names of the tiny workloads, in table order

# Appended to a copy of galwalk/modpoly.py: every Frobenius call on a new
# (f, p) sleeps, and MEMO keeps the results in a module-level dict.
FROB_WRAPPER = """
import time as _bench_time
_bench_frob = frobenius_cycle_type
_bench_seen = {{}}


def frobenius_cycle_type(f, p):
    if {memo} and (f, p) in _bench_seen:
        return _bench_seen[(f, p)]
    _bench_time.sleep(0.005)
    _bench_seen[(f, p)] = result = _bench_frob(f, p)
    return result
"""


def call(argv, table=TINY) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, workloads_table=table)
    return code, buf.getvalue().strip().splitlines()


def tiny_run(name: str, trace: int, table=TINY) -> tuple[int, dict]:
    code, lines = call(["--workload", name, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace)], table)
    return code, json.loads(lines[-1])


@contextlib.contextmanager
def corrupted(corrupt):
    """Corrupt the rows of every unit as the harness receives them."""
    orig = measure.execute

    def broken(*args, **kwargs):
        reply = orig(*args, **kwargs)
        if reply["rows"]:
            corrupt(reply["rows"])
        return reply

    measure.execute = broken
    try:
        yield
    finally:
        measure.execute = orig


def copy_with_frobenius_wrapper(dest: str, memo: bool) -> str:
    """A copy of src/ whose Frobenius calls sleep, optionally memoised."""
    src = os.path.join(dest, "src")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(src, "galwalk", "modpoly.py"), "a", encoding="utf-8") as fh:
        fh.write(FROB_WRAPPER.format(memo=memo))
    return src


def main() -> int:
    spec = run._load_spec()
    run._import_galwalk()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name in TINY:
            code, result = tiny_run(name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} runs clean")
            expect(got == units, f"{name} trace={trace} prints every metric with its unit")

    def bump(field):
        def corrupt(rows):
            rows[0][field] += 1
        return corrupt

    cases = (
        (WALK, bump("n_rs"), "verdict tallies"),
        (CENSUS, bump("rs_count"), "census counts"),
        (ORACLE, bump("words"), "word count"),
    )
    for name, corrupt, what in cases:
        with corrupted(corrupt):
            code, result = tiny_run(name, 0)
        expect(code == 1 and not result["correct"] and result["failed"] >= 1,
               f"forced violation ({what}) in {name} is a failure")

    broken = {WALK: dataclasses.replace(TINY[WALK], scenario="no_such_scenario")}
    code, result = tiny_run(WALK, 0, broken)
    expect(code == 1 and not result["correct"] and result["failed"] >= 2,
           "an exception inside the program is a failure, not a crash")

    walk = TINY[WALK]
    big = 10 ** 6
    for seed, other, what in ((3, big + 1, "its own seed"),
                              (1, big + 1, "the lowest recorded seed"),
                              (1, big, "a count that does not depend on the seed")):
        golden = {walk.name: {"3": {"sha256": "-", "decided": big},
                              "4": {"sha256": "-", "decided": other}}}
        out = measure.timed_run(walk, seed, 0, golden)
        expect(not out.correct and any("recorded 1000000" in ln for ln in out.info),
               f"fewer decided samples than recorded for {what} is a failure")

    # A memo at module level must not make later repeats faster: each repeat
    # starts cold.  Frobenius sleeps make the memo's effect large and steady.
    cold = dataclasses.replace(walk, k_values=(10,), samples=4)
    wall = {}
    for memo in (False, True):
        src = copy_with_frobenius_wrapper(os.path.join(run.ROOT, ".bench_out", f"memo{memo}"), memo)
        out = measure.timed_run(cold, 3, 0, {}, src)
        expect(out.correct, f"walk with a {'memoised ' if memo else ''}sleeping Frobenius runs clean")
        wall[memo] = out.metrics["wall_s"]
        shutil.rmtree(os.path.dirname(src), ignore_errors=True)
    expect(wall[True] >= 0.8 * wall[False],
           f"a module-level memo does not speed up repeats (wall_s {wall[True]:.3f} s "
           f"with it, {wall[False]:.3f} s without)")

    # Two kernel runs inside [0, 1] at half the nominal speed and one at the
    # nominal speed just after it: (1 - their time inside) * mean(0.5, 0.5, 1).
    k = calib.NOMINAL["run"]
    fake = calib.SpeedSampler("run")
    fake.starts = [0.2, 0.6, 1.02]
    fake.ends = [0.2 + 2 * k, 0.6 + 2 * k, 1.02 + k]
    got = fake.nominal_time(0.0, 1.0)
    want = (1.0 - 4 * k) * (0.5 + 0.5 + 1.0) / 3
    expect(abs(got - want) < 1e-9, f"nominal time of a sampled interval ({got:.6f} s, want {want:.6f} s)")

    bare = os.path.join(run.ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_sl4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "a directory without the sources exits nonzero and prints no result")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
