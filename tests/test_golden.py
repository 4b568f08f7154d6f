"""Frozen CLI output: the sha256 of the bytes each verb writes at fixed configs.

A change that alters any output byte fails here, so drift between versions
is caught, not only drift between two runs in one process.  When a change
alters output on purpose, regenerate the hashes with

    PYTHONPATH=src python tests/test_golden.py --record

and say why in CHANGES.md.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from galwalk.cli import main

GOLDEN = Path(__file__).with_name("golden") / "sha256.json"

SCENARIOS = (
    "sl2", "sl3", "sl4", "sltau2", "sltau4",
    "slcyc2x2", "slcyc2x3", "res_sqrt2", "diag_antidiag",
)

CASES = {
    "catalog": ("catalog",),
    "finfield_sltau2_p3_11": (
        "finfield", "--scenario", "sltau2", "--primes-min", "3", "--primes-max", "11",
    ),
    "finfield_sl2_p2_13": (
        "finfield", "--scenario", "sl2", "--primes-min", "2", "--primes-max", "13",
    ),
    "oracle_diag_antidiag": ("oracle", "--scenario", "diag_antidiag"),
    "oracle_diag_antidiag_repeat": (
        "oracle", "--scenario", "diag_antidiag", "--k", "3,3,8,12",
    ),
    **{
        f"run_{name}": (
            "run", "--scenario", name,
            "--k", "5,10", "--samples", "4", "--budget", "40",
        )
        for name in SCENARIOS
    },
    "run_sl3_json": (
        "run", "--scenario", "sl3",
        "--k", "5,10", "--samples", "4", "--budget", "40", "--format", "json",
    ),
}


def output_sha256(args, path: Path) -> str:
    assert main([*args, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())
    assert output_sha256(CASES[case], tmp_path / "out.csv") == expected[case]


def _record(directory: Path) -> None:
    """Rewrite the hashes and print each case whose hash changed, old -> new,
    so a declared output change can name its goldens."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    hashes = {
        case: output_sha256(CASES[case], directory / f"{case}.csv")
        for case in sorted(CASES)
    }
    for case in sorted(hashes.keys() | old.keys()):
        if old.get(case) != hashes.get(case):
            print(f"{case}: {old.get(case)} -> {hashes.get(case)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
