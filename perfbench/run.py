"""galwalk benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload walk_sl4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload, both modes

Run from the repository root (any checkout holding `src/galwalk`).  With
`--trace 0` the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` the per-layer metrics, from a separate
traced run.  Lines before it describe the host, the run and the output
checksum.  The exit code is 1 when any operation failed or a correctness
check did not hold, and 2 when the program cannot be imported or run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_out")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_galwalk(src: str = SRC) -> None:
    """Import galwalk from `src` (this checkout's src/), never from anywhere else."""
    if not os.path.isdir(os.path.join(src, "galwalk")):
        raise RuntimeError(f"no galwalk sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import galwalk.cli  # noqa: F401  (the whole package, as the CLI loads it)

    found = os.path.abspath(sys.modules["galwalk"].__file__)
    if not found.startswith(src + os.sep):
        raise RuntimeError(f"galwalk imported from {found}, not {src}")


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}, "
            f"git {sha}, src lines {lines}")


def measure_one(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload in this process; returns the result object."""
    import measure

    golden_path = os.path.join(HERE, "golden_sha256.json")
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans_{workload.name}_seed{seed}.jsonl")
        out = measure.traced_run(workload, seed, seconds, golden, spans)
        out.metrics["scenarios.registry_s"] = measure.setup_times(out.setup, SRC, out.info)[1]
        wanted = spec["per_layer"]
    else:
        out = measure.timed_run(workload, seed, seconds, golden)
        out.metrics["setup_s"] = measure.setup_times(out.setup, SRC, out.info)[0]
        wanted = spec["end_to_end"]
    for line in out.info:
        print(f"# {workload.name}: {line}")
    names = [m["name"] for m in wanted]
    if not out.correct:  # a run with no successful unit has no figures
        for name in names:
            out.metrics.setdefault(name, 0.0)
    if set(names) != set(out.metrics):
        raise RuntimeError(f"metrics {sorted(out.metrics)} do not match BENCHMARK.json {sorted(names)}")
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another, both modes."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode not in (0, 1) or not lines:
                print(f"# {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 2
                continue
            result = json.loads(lines[-1])
            mark = "ok" if result["correct"] else "FAILED"
            print(f"{name} trace={trace} correct={mark} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:36s} {v['value']:>16.6g} {v['unit']}")
            if not result["correct"]:
                status = max(status, 1)
    return status


def main(argv=None, workloads_table=None) -> int:
    try:
        spec = _load_spec()
        _import_galwalk()
    except (OSError, ValueError, ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    table = workloads_table or workloads.WORKLOADS
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*table, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"# environment: {environment()}")
    if args.workload == "all":
        return run_all(args, spec)
    try:
        result = measure_one(table[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
