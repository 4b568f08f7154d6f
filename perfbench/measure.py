"""Timed and traced runs of one workload, and the metrics they yield.

A run repeats one unit (see workloads) for the run length, at least twice.
Each repeat runs in a fresh interpreter (see unit), so every repeat pays
what a single CLI call pays: no module-level cache or memo of the program
carries over from one repeat to the next.

Timed run (tracing off): only the function that marks a request is
wrapped, and the host's speed is sampled while the unit runs (see calib),
so that every time can be given at one nominal speed.  Each request's time
is the median over the repeats of its nominal time, and wall_s is the sum
of those plus the median nominal time of the unit's remaining work.
Traced run: untraced and traced repeats alternate; each per-layer figure is
the median over the traced repeats, and the ratio of the two kinds' times
gives the tracing overhead.  Both runs then check every repeat's rows
(untimed), that output bytes are identical across repeats, and that the
decided count has not dropped below the one recorded for a seed.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calib
import run
import workloads as wl
from probes import LAYERS

UNIT = os.path.join(run.HERE, "unit.py")
UNIT_TIMEOUT = 150
SETUP_RUNS = 15
SETUP_PER_REPEAT = 2


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # (set-up s, registry s, speed) samples

    @property
    def correct(self) -> bool:
        return self.failed == 0


def execute(w: wl.Workload, seed: int, mode: str, src: str = run.SRC,
            spans_path: str | None = None) -> dict:
    """Run one unit in a fresh interpreter; returns its reply (see unit).

    A unit whose process fails comes back with `error` set, never raises.
    """
    req = {"workload": w.__dict__, "seed": seed, "mode": mode, "src": src,
           "spans_path": spans_path}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, UNIT, json.dumps(req)], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=UNIT_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"unit process exit {proc.returncode}: {err}")
        reply = json.loads(lines[-1])
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        reply = {"error": str(exc), "rows": None, "sha256": None}
    reply["elapsed"] = time.perf_counter() - t0
    reply.setdefault("seconds", reply["elapsed"])
    return reply


def setup_sample(src: str) -> tuple[float, float, float]:
    """Import + registry time, registry time alone, and the host speed just
    after them (see calib), in one fresh interpreter (the interpreter's own
    start-up is not counted; calib is imported after the timed part, so the
    modules it loads are not preloaded for galwalk)."""
    code = (
        "import json, time\n"
        "t0 = time.perf_counter()\n"
        "import galwalk.cli\n"
        "t1 = time.perf_counter()\n"
        "galwalk.scenarios.builtin_scenarios()\n"
        "t2 = time.perf_counter()\n"
        "import calib\n"
        "speed = calib.mean_speed('finfield', 5)\n"
        "print(json.dumps([t2 - t0, t2 - t1, speed, galwalk.__file__]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, run.HERE)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.dirname(src), env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    total, registry, speed, path = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(path).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"set-up imported galwalk from {path}, not {src}")
    return total, registry, speed


def setup_times(samples: list, src: str, info: list) -> tuple[float, float]:
    """Median set-up and registry times at the nominal host speed, after
    topping `samples` (taken between repeats, so they span the run) up to
    SETUP_RUNS."""
    while len(samples) < SETUP_RUNS:
        samples.append(setup_sample(src))
    info.append(f"set-up: median of {len(samples)} fresh interpreters at the nominal speed; "
                f"as measured: median {statistics.median(t for t, _, _ in samples):.4f} s, "
                f"fastest {min(t for t, _, _ in samples):.4f} s")
    return (statistics.median(t * v for t, _, v in samples),
            statistics.median(r * v for _, r, v in samples))


def verify(w: wl.Workload, seed: int, units: list[dict], pairs, out: Outcome,
           golden: dict, src: str) -> None:
    """Untimed correctness pass: invariants per unit, byte repeats, and the
    decided count against the recorded one.

    `pairs` lists (unit, unit) whose rendered bytes must be identical.
    """
    for i, u in enumerate(units):
        out.attempted += 1
        errors = [u["error"]] if u["error"] else wl.check(w, u["rows"], u["gens"])
        if errors:
            out.failed += 1
            out.info.append(f"FAIL repeat {i}: " + "; ".join(errors[:3]))
    for a, b in pairs:
        out.attempted += 1
        if a["sha256"] is None or a["sha256"] != b["sha256"]:
            out.failed += 1
            out.info.append("FAIL: output bytes differ between repeats")

    recorded = golden.get(w.name, {})
    first = next((u for u in units if u["error"] is None), None)
    if first is not None:
        ref = recorded.get(str(seed), {}).get("sha256")
        drift = ("no reference" if ref is None
                 else "same" if ref == first["sha256"] else "CHANGED")
        out.info.append(f"output sha256 {first['sha256']}  drift vs recorded: {drift}")
    decided_guard(w, seed, first, recorded, out, src)


def decided_guard(w: wl.Workload, seed: int, first: dict | None, recorded: dict,
                  out: Outcome, src: str) -> None:
    """Fail when fewer samples are decided than recorded for the same seed.

    decided_fraction varies between seeds, so its bound cannot catch a
    change that decides less; for one seed it is exact.  Where every
    recorded seed decides the same count (the exhaustive workloads), any
    seed is checked against it; otherwise a run whose seed has no record
    checks one untimed unit at the lowest recorded seed.
    """
    counts = {r["decided"] for r in recorded.values()}
    if not counts:
        return
    if len(counts) == 1 and first is not None:
        want = counts.pop()
    else:
        if str(seed) not in recorded or first is None:
            seed = min(int(s) for s in recorded)
            first = execute(w, seed, "plain", src)
        want = recorded[str(seed)]["decided"]
    out.attempted += 1
    got = wl.decided(w, first["rows"])[0] if first["error"] is None else None
    if got is None or got < want:
        out.failed += 1
        out.info.append(f"FAIL: seed {seed} decided {got}, recorded {want}")
    else:
        out.info.append(f"seed {seed} decided {got}, recorded {want}")


def _another(units: list[dict], start: float, seconds: float, per_repeat: float) -> bool:
    """Whether to start another repeat: always until there are two (so every
    run checks that bytes repeat), then while one more is expected to end
    within the run length."""
    if len(units) < 2:
        return True
    return time.perf_counter() - start + per_repeat * min(u["elapsed"] for u in units) <= seconds


def tail(lat: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least 10 requests beyond it, or
    the slowest request when there are fewer than 20."""
    n = len(lat)
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        return (statistics.quantiles(lat, n=100)[pct - 1],
                f"p{pct} of {n} requests ({n * (100 - pct) / 100:.1f} beyond it)")
    return max(lat), f"slowest of {n} requests (too few for a percentile with 10 beyond it)"


def per_request(units: list[dict], nominal: bool = True) -> tuple[list[float], float]:
    """Sorted request latencies, each the median over the repeats, and the
    unit time they make up (plus the median remainder of the unit outside
    any request).  `nominal` chooses times at the nominal host speed (see
    calib) over times as measured."""
    i = 1 if nominal else 2
    times: dict[str, list[float]] = {}
    rest = []  # per repeat: unit time not inside any request
    for u in units:
        for lat in u["latencies"]:
            times.setdefault(lat[0], []).append(lat[i])
        total = u["nominal"] if nominal else u["seconds"]
        rest.append(total - sum(lat[i] for lat in u["latencies"]))
    lat = sorted(statistics.median(v) for v in times.values())
    return lat, (sum(lat) + statistics.median(rest) if units else 0.0)


def timed_run(w: wl.Workload, seed: int, seconds: float, golden: dict,
              src: str = run.SRC) -> Outcome:
    out = Outcome()
    units: list[dict] = []
    start = time.perf_counter()
    while _another(units, start, seconds, 1):
        units.append(execute(w, seed, "clock", src))
        out.setup += [setup_sample(src) for _ in range(SETUP_PER_REPEAT)]
    out.info += sorted({f"missing probe target {m}" for u in units for m in u.get("missing", ())})
    verify(w, seed, units, [(units[0], u) for u in units[1:]], out, golden, src)

    ok = [u for u in units if u["error"] is None]
    lat, wall = per_request(ok)
    m = out.metrics
    m["wall_s"] = wall
    if not ok:
        n_items = 0
    elif w.verb == "oracle":
        n_items = ok[0]["result_sizes"]
    else:
        n_items = wl.items(w, ok[0]["rows"])
    m["items_per_s"] = n_items / m["wall_s"] if ok else 0.0
    m["sample_ms_p50"] = 1e3 * statistics.median(lat) if lat else 0.0
    tail_s, tail_note = tail(lat) if lat else (0.0, "no requests")
    m["sample_ms_tail"] = 1e3 * tail_s
    yes, eligible = wl.decided(w, ok[0]["rows"]) if ok else (0, 0)
    m["decided_fraction"] = yes / eligible if eligible else 0.0
    m["success_rate"] = (out.attempted - out.failed) / out.attempted
    m["peak_rss_mb"] = max(u.get("rss_mb", 0.0) for u in units)
    out.info.append(
        f"{len(units)} repeats (fresh interpreters) of a unit of {n_items:.0f} items, "
        f"{len(lat)} requests; each request timed by its median repeat at the nominal speed; "
        f"sample_ms_tail = {tail_note}; decided_fraction = {yes}/{eligible}; "
        f"slowest/fastest repeat = {max(u['seconds'] for u in units):.3f}/"
        f"{min(u['seconds'] for u in units):.3f} s"
    )
    if ok:
        speeds = [v for u in ok for v in u["speed"]]
        deciles = statistics.quantiles(speeds, n=10)
        out.info.append(
            f"host speed while the units ran, as a share of nominal: median "
            f"{statistics.median(speeds):.3f}, p10 {deciles[0]:.3f}, p90 {deciles[-1]:.3f} "
            f"({len(speeds)} samples); as measured, wall_s would read {per_request(ok, False)[1]:.3f} s"
        )
    return out


def traced_run(w: wl.Workload, seed: int, seconds: float, golden: dict,
               spans_path: str | None, src: str = run.SRC) -> Outcome:
    out = Outcome()
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while _another(traced, start, seconds, 2):
        plain.append(execute(w, seed, "plain", src))
        traced.append(execute(w, seed, "trace", src, None if traced else spans_path))
        out.setup += [setup_sample(src) for _ in range(SETUP_PER_REPEAT)]
    out.info += sorted({f"missing probe target {m}" for u in traced for m in u.get("missing", ())})
    verify(w, seed, traced, list(zip(traced, plain)), out, golden, src)
    if spans_path and os.path.exists(spans_path):
        out.info.append(f"spans of the first traced repeat written to {spans_path}")

    ok = [u for u in traced if u["error"] is None]
    m = out.metrics
    for name in ok[0]["metrics"] if ok else ():
        m[name] = statistics.median(u["metrics"][name] for u in ok)
    both = [(p, t) for p, t in zip(plain, traced) if p["error"] is None and t["error"] is None]
    untraced = sum(p["seconds"] for p, _ in both)
    m["trace.overhead_ratio"] = (sum(t["seconds"] for _, t in both) / untraced - 1
                                 if untraced else 0.0)
    self_time = {layer: m.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    total_self = sum(self_time.values()) or 1.0
    ranking = sorted(self_time.items(), key=lambda kv: -kv[1])
    out.info.append("median self time per unit by layer: " + ", ".join(
        f"{layer} {t:.3f} s ({100 * t / total_self:.1f}%)" for layer, t in ranking))
    out.info.append(f"{len(traced)} traced units (fresh interpreters), "
                    f"{m.get('trace.spans', 0):.0f} spans each")
    return out
