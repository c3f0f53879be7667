#!/usr/bin/env python3
"""Write ``digests.json``: the sha256 of every item's canonical output.

Run from the root of a checkout, only to pin a commit whose outputs are
known to be right::

    python3 perfbench/pin.py

Each workload runs once in a cold worker.  Pinning stops if any operation
fails (routes disagree, a check has residuals, a call raises) or if two seeds
give different digests for one item.
"""

from __future__ import annotations

import json
import os
import sys

from run import DIGESTS, RUN_LIMIT_S, spawn, read_commit

WORKERS = ("census", "algebra", "spectral", "tables", "probe", "probe_cli", "table16")


def main() -> int:
    root = os.getcwd()
    items = {}
    for workload in WORKERS:
        seen = []
        for seed in (1, 2):
            job = {"root": root, "workload": workload, "seed": seed, "trace": False,
                   "digests": None, "setup_only": False, "threads": None}
            res = spawn(root, job, RUN_LIMIT_S)
            if res["failed"]:
                print(f"{workload}: {res['failures']}", file=sys.stderr)
                return 1
            seen.append(res["exact"]["digests"])
        if seen[0] != seen[1]:
            print(f"{workload}: digests depend on the seed", file=sys.stderr)
            return 1
        items[workload] = dict(sorted(seen[0].items()))
        print(f"{workload}: {len(items[workload])} items")
    with open(DIGESTS, "w") as fh:
        json.dump({"commit": read_commit(root), "items": items}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
