#!/usr/bin/env python3
"""Self-test of the benchmark harness.  Run from the root of a checkout::

    python3 perfbench/selftest.py

1. The correctness gate can fail: a copy of the harness whose pinned digest
   for one item is corrupted must report ``correct: false`` and exit 1.
2. Cold-run isolation: two back-to-back workers report identical exact
   counts, while a second pass in a process that already ran the workload
   does not (its lru caches are warm), so a leaked cache would show.
3. Outside a checkout (only ``BENCHMARK.json`` and ``perfbench/``) the
   harness exits non-zero without printing a result.

Scratch copies go to ``.perfbench_out/selftest``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import worker

WORKLOAD = "tables"
SCRATCH = os.path.join(".perfbench_out", "selftest")


def _copy_harness(dest: str) -> None:
    os.makedirs(dest, exist_ok=True)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(run.HERE, name), dest)


def _run_harness(script: str, cwd: str):
    proc = subprocess.run(
        [sys.executable, script, "--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_gate_fails_on_corrupted_digest(root: str) -> None:
    copy = os.path.join(root, SCRATCH, "corrupt")
    _copy_harness(copy)
    path = os.path.join(copy, "digests.json")
    with open(path) as fh:
        pinned = json.load(fh)
    item = sorted(pinned["items"][WORKLOAD])[0]
    pinned["items"][WORKLOAD][item] = "0" * 64
    with open(path, "w") as fh:
        json.dump(pinned, fh)
    code, lines = _run_harness(os.path.join(copy, "run.py"), root)
    result = json.loads(lines[-1])
    assert code == 1, f"exit code {code} with a corrupted digest"
    assert result["correct"] is False and result["failed"] >= 1, result
    assert any(item in line and "pinned digest" in line for line in lines), lines


def test_cold_workers_repeat_exact_counts(root: str) -> None:
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)["items"][WORKLOAD]
    job = {"root": root, "workload": WORKLOAD, "seed": 1, "trace": False,
           "digests": digests, "setup_only": False, "threads": None}
    first = run.spawn(root, job, run.RUN_LIMIT_S)
    second = run.spawn(root, job, run.RUN_LIMIT_S)
    assert first["failed"] == second["failed"] == 0
    assert first["exact"] == second["exact"], "two cold workers disagree"
    warm_first = worker.run(job)
    warm_second = worker.run(job)
    assert warm_first["exact"] == first["exact"], "in-process cold pass differs from a worker"
    assert warm_second["exact"]["cache_counts"] != first["exact"]["cache_counts"], (
        "a warm second pass looks cold; the isolation check could not see a leak")


def test_no_checkout_exits_nonzero(root: str) -> None:
    bare = os.path.join(root, SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    _copy_harness(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    code, lines = _run_harness(os.path.join("perfbench", "run.py"), bare)
    assert code != 0, "harness succeeded without a package to measure"
    assert not lines or not lines[-1].startswith("{"), lines


def main() -> int:
    root = os.getcwd()
    for test in (test_gate_fails_on_corrupted_digest, test_cold_workers_repeat_exact_counts,
                 test_no_checkout_exits_nonzero):
        test(root)
        print(f"PASS {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
