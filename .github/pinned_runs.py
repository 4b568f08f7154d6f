"""Pinned end-to-end runs: the largest census, oracle and walk, a walk in
the widest prime window and the two walks of degree > 4, whose output
bytes, peak memory and diagnostics must not drift.

    PYTHONPATH=src python3 .github/pinned_runs.py            # list the names
    PYTHONPATH=src python3 .github/pinned_runs.py NAME DIR   # run one

Running one entry starts `galwalk` in a child process, writes its output
under DIR and prints one summary line (wall time, the child's peak RSS and
the output's sha256).  It exits nonzero when the run fails, its sha256
differs from the pin, its peak RSS passes the cap, or its stderr lacks
the required line.  Run each entry in a fresh process: RUSAGE_CHILDREN is
a running maximum over all children of one process, so a later run would
read an earlier run's peak against its own cap.
"""
import hashlib
import pathlib
import resource
import subprocess
import sys
import time
from typing import NamedTuple


class Pin(NamedTuple):
    title: str
    argv: tuple[str, ...]
    sha256: str
    rss_cap_mb: float
    stderr_line: str | None = None


PINS = {
    # 372,000 elements; its class count would change under a class pass that
    # split classes; peak RSS (92-98 MB) stays under the cap, so closure
    # step blocks stay bounded
    "census_sl3": Pin(
        "finfield sl3 p<=5",
        ("finfield", "--scenario", "sl3", "--primes-max", "5"),
        "468569a15f0f2e837352fd2d9c3d637e449a7a3f1aba4251c10db0158ff90d96",
        115,
        "# finfield p=5: 372000 elements, 30 conjugacy classes, 25 distinct chi",
    ),
    # peak RSS (28-29 MB) stays under the cap, so the word table stays bounded
    "oracle_k60": Pin(
        "oracle diag_antidiag k<=60",
        ("oracle", "--scenario", "diag_antidiag", "--k", "10,16,22,40,60"),
        "bcebcfb2b1116209cbd6a90cb0f7a385d815cf1b34d6a898c1804d1da8196f04",
        36,
    ),
    # peak RSS (17.5-17.6 MB) stays under the cap, so a k's batch of
    # samples stays bounded
    "walk_k120": Pin(
        "run sl4 k<=120",
        ("run", "--scenario", "sl4", "--k", "20,60,120", "--samples", "100", "--seed", "1"),
        "f48c580fc75cdd7f020046d9e5a36b1a8002292f8282ce45e5c9684180cb985b",
        22,
    ),
    # the walk_sl4 benchmark's unit in the widest window: no sample reads a
    # prime, so nothing is sieved; peak RSS (17.5 MB) stays under the cap,
    # which an eager sieve to 10**7 (53 MB) would pass
    "walk_wide_window": Pin(
        "run sl4 primes <= 10^7",
        ("run", "--scenario", "sl4", "--k", "20,30", "--samples", "60", "--seed", "1",
         "--primes-max", "10000000"),
        "31877a46fcd93c81e27a91f2a9ec09d3e04dec3694017dbfe3afeb18eafd5ee3",
        22,
    ),
    # the only walks whose chi have degree > 4 (6 and 8), where the
    # subresultant sequence gives the squarefree test, the gcd and rule
    # (b)'s discriminant; peak RSS 17.7-17.9 MB
    "walk_slcyc2x3": Pin(
        "run slcyc2x3 k<=30",
        ("run", "--scenario", "slcyc2x3", "--k", "10,20,30", "--samples", "40", "--seed", "1"),
        "d1da010b4c2f451daf26d1fefafa695d3aa42ce0946d20be32500eb45bcbffe9",
        22,
    ),
    "walk_sltau4": Pin(
        "run sltau4 k<=20",
        ("run", "--scenario", "sltau4", "--k", "10,20", "--samples", "20", "--seed", "1"),
        "583f49991cb49fc202ef0e6f3ddccd7ea9ba13aeff2bdd1ef2e01ac277cfe976",
        22,
    ),
}


def check(name: str, out_dir: str) -> list[str]:
    """Run the pinned entry, print its summary line; the failed checks."""
    pin = PINS[name]
    out = pathlib.Path(out_dir) / f"{name}.csv"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "galwalk.cli", *pin.argv, "--out", str(out)],
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        return [f"exit status {done.returncode}"]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"{pin.title}: wall {wall:.2f} s, peak RSS {rss_mb:.0f} MB, sha256 {digest}")
    failed = []
    if digest != pin.sha256:
        failed.append(f"sha256 {digest}, pinned {pin.sha256}")
    if rss_mb > pin.rss_cap_mb:
        failed.append(f"peak RSS {rss_mb:.0f} MB exceeds {pin.rss_cap_mb} MB")
    if pin.stderr_line is not None and pin.stderr_line not in done.stderr.splitlines():
        failed.append(f"stderr lacks {pin.stderr_line!r}")
    return failed


def main(argv: list[str]) -> int:
    if not argv:
        print("\n".join(PINS))
        return 0
    name, out_dir = argv
    failed = check(name, out_dir)
    for reason in failed:
        print(f"{name}: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
