"""Regenerate ``reference/digests.json``: pure-kernel result digests.

    python3 perfbench/make_reference.py

Runs every workload's points at the default seed and the contract's run
length on the pure kernel and records, per spec digest, the SHA-256 of
the point's ``scalar_metrics()``. A benchmark run with other specs (a
different seed or run length) re-runs its points on pure instead. Only
regenerate when a change is meant to alter simulation results.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_PATH, compute_reference, load_contract
from workloads import DEFAULT_SEED


def main() -> int:
    contract = load_contract()
    digests = {
        w["name"]: compute_reference(w["name"], DEFAULT_SEED,
                                     contract["run_seconds"])
        for w in contract["workloads"]
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
