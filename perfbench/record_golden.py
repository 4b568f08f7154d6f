"""Record, for seeds 1..10, each workload's output sha256 and decided count.

    python3 perfbench/record_golden.py

Writes perfbench/golden_sha256.json.  Every run reports output drift against
it, and fails when it decides fewer samples than recorded for its seed.
Re-record only when a change alters the output on purpose, and say so.
"""
from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(1, 11)


def main() -> int:
    run._import_galwalk()
    import measure
    import workloads

    golden = {}
    for name, w in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in SEEDS:
            reply = measure.execute(w, seed, "plain")
            if reply["error"] is not None:
                print(f"{name} seed {seed}: {reply['error']}", file=sys.stderr)
                return 1
            decided = workloads.decided(w, reply["rows"])[0]
            golden[name][str(seed)] = {"sha256": reply["sha256"], "decided": decided}
            print(name, seed, reply["sha256"], decided, flush=True)
    path = os.path.join(run.HERE, "golden_sha256.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
