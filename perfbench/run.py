#!/usr/bin/env python3
"""Benchmark of ``dessins``: four workloads, each in fresh worker processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the exact calls and sizes):

* ``census``   the brute-force oracle window: 49 keys with sum(alpha) <= 8,
               counted by the flow, the Tutte recursion and brute force;
               loads ``maps``.
* ``algebra``  Witt commutators, Z and log Z to d = 8, Virasoro, the
               bivalent flows and the matrix checks; loads ``operators``,
               ``series``, ``partition`` and ``opmatrix``.
* ``spectral`` TR differentials and their agreement with the Laplace route,
               the loop equation and the Norbury substitution; loads
               ``spectral`` and ``tutte``.
* ``tables``   91 small ``dessins.cli.main`` requests in one process, so the
               caches persist across requests as they do for a library user.

Every run is a closed loop with one client: one worker at a time, one call at
a time inside it.  All layers run in that one process and none waits on
another, so waiting time is not applicable and not reported.

With ``--trace 0`` a run starts one warm-up worker, ``SETUP_SAMPLES`` workers
that only set up, then cold workers that each run the workload once, until
``--seconds`` would be exceeded (at least ``MIN_PASSES``).  It reports, by
name and unit: ``norm_wall_s`` (median workload time in a worker, after
set-up, at the reference host speed; see below), ``setup_s`` (median time
from spawning a worker to ``dessins`` imported and the seeded inputs built)
and ``peak_rss_mb`` (median maximum RSS of a worker).  It also prints,
ungated, the raw wall time and the median and 90th percentile latency of one
operation (a checked key, a check call, a table or a CLI request).  The
error rate is ``failed``/``attempted`` in the result line; it is not a
metric, because it is 0 on a correct commit.

The host is shared, and the speed it gives one process changes by up to 2x
within seconds; a whole run can fall in a slow spell.  Each worker therefore
times a fixed stdlib tick every 10 ms while its body runs
(``worker.Yardstick``), and ``norm_wall_s`` is the body's wall time times
``REF_TICK_S`` over the worker's typical tick: the time the body would take
on a host where the tick takes ``REF_TICK_S``.  The tick never calls
``dessins``, so a change to the package moves ``norm_wall_s`` only through
the body's own time.  On a 2-core 2.1 GHz Xeon VM, ten 30-second runs of
each workload spread (quartile distance over median) 8-40% in raw wall time
and 4-6% in ``norm_wall_s``.

With ``--trace 1`` a run makes one untraced and one traced cold worker of the
workload, then the traced probe workers: ``probe``, ``probe_cli`` and the
16-dart brute-force table built by ``SCAN_THREADS`` scan workers (the only
time two processes compute at once).  It reports the per-layer metrics: self
time of the spans around each public call, exact counts, CLI request
latencies, ``trace_overhead_s`` and the share of the workload's own layers
in its traced wall time.  A per-layer figure comes from the workload's traced
worker when the workload calls that function, and from the probe workers
otherwise; the run marks those ``[probe]``.  ``maps.scaling_eff_w2`` is the
CPU time of the scan workers over ``SCAN_THREADS`` times the wall time of the
build: the share of the cores the pool keeps busy.

Every output of every operation is checked: routes must agree, checks must
return no residuals, and the sha256 of each item's canonical text must equal
the digest pinned in ``digests.json``.  Every cold worker of one run must
also report the same exact counts (calls, term counts, lru cache hits and
misses, digests); a cache leaking between workers would change them.  Any failure
sets ``correct`` to false and the exit code to 1.  The last line of stdout is
the JSON result; spans of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("census", "algebra", "spectral", "tables")
SETUP_SAMPLES = 9
MIN_PASSES = 2
RUN_LIMIT_S = 170.0
SCAN_THREADS = 2
# the typical yardstick tick on the host the benchmark was tuned on (a 2-core
# 2.1 GHz Xeon VM); it only sets the scale of norm_wall_s
REF_TICK_S = 85e-6
# fewer ticks than this in a worker leave its speed unmeasured
MIN_TICKS = 20

# layers each workload is named for, and the share of its traced wall time
# they must hold for the workload to load what it claims to load
TARGET_LAYERS = {
    "census": ("maps",),
    "algebra": ("operators", "partition", "opmatrix"),
    "spectral": ("spectral", "tutte"),
    "tables": ("cli",),
}
SHARE_FLOOR = 0.90

# per-layer metric -> span name whose self time it sums
SPAN_SECONDS = {
    "maps.count_dessins_s": "maps.count_dessins",
    "operators.commutator_check_s": "operators.commutator_check",
    "operators.apply_s": "operators.apply",
    "series.poly_mul_s": "series.poly_mul",
    "partition.partition_function_s": "partition.partition_function",
    "partition.connected_s": "partition.connected",
    "partition.count_s": "partition.count",
    "partition.virasoro_residuals_s": "partition.virasoro_residuals",
    "partition.partition_function_bivalent_s": "partition.partition_function_bivalent",
    "tutte.r_tilde_s": "tutte.r_tilde",
    "spectral.laplace_W_s": "spectral.laplace_W",
    "spectral.tr_omega_s.g0n3": "spectral.tr_omega.g0n3",
    "spectral.tr_omega_s.g1n1": "spectral.tr_omega.g1n1",
    "spectral.tr_omega_s.g0n4": "spectral.tr_omega.g0n4",
    "spectral.tr_omega_s.g1n2": "spectral.tr_omega.g1n2",
    "spectral.tr_omega_s.g2n1": "spectral.tr_omega.g2n1",
    "spectral.tr_omega_s.g1n3": "spectral.tr_omega.g1n3",
    "spectral.tr_agreement_check_s": "spectral.tr_agreement_check",
    "spectral.loop_check_s": "spectral.loop_check",
    "spectral.norbury_substitution_check_s": "spectral.norbury_substitution_check",
    "opmatrix.cutjoin_matrix_check_s": "opmatrix.cutjoin_matrix_check",
    "opmatrix.vacuum_consistency_check_s": "opmatrix.vacuum_consistency_check",
    "opmatrix.kernel_block_s": "opmatrix.kernel_block",
}
# per-layer metric -> span name whose median duration it reports, in ms
SPAN_MEDIAN_MS = {
    "cli.counts_ms": "cli.counts",
    "cli.tr_ms": "cli.tr",
    "cli.export_kernel_ms": "cli.export_kernel",
}
EXACT_COUNTS = ("partition.z_terms", "partition.f_terms", "spectral.omega_terms")
CLI_KINDS = ("counts", "tr", "export_kernel")


class HarnessError(Exception):
    """A worker could not be run or gave no result; no result is printed."""


def norm_wall(result: dict) -> float:
    """Body wall time of a worker at the reference host speed."""
    if result["ticks"] < MIN_TICKS:
        raise HarnessError(f"a worker timed {result['ticks']} yardstick ticks, "
                           f"fewer than {MIN_TICKS}")
    return result["wall_s"] * REF_TICK_S / result["tick_s"]


def spawn(root: str, job: dict, timeout: float) -> dict:
    """Run one worker to completion; returns its result with ``setup_s``."""
    env = dict(os.environ)
    env.pop("DESSINS_THREADS", None)
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=root, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(timeout, 1.0))
    except BaseException as exc:
        # the worker and any scan pool it forked share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise HarnessError(f"{job['workload']} worker exceeded {timeout:.0f} s") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-3:]
        raise HarnessError(f"{job['workload']} worker exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - start
    result["total_s"] = time.monotonic() - start
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def percentiles(xs):
    """Median and 90th percentile."""
    if len(xs) < 2:
        return xs[0], xs[0]
    return statistics.median(xs), statistics.quantiles(xs, n=10, method="inclusive")[8]


def read_commit(root: str):
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Workers of one benchmark run, started one at a time."""

    def __init__(self, root: str, workload: str, seed: int, digests: dict):
        self.root, self.workload, self.seed, self.digests = root, workload, seed, digests
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def worker(self, workload: str, trace=False, setup_only=False, threads=None) -> dict:
        job = {
            "root": self.root, "workload": workload, "seed": self.seed, "trace": trace,
            "digests": self.digests.get(workload, {}), "setup_only": setup_only,
            "threads": threads,
        }
        res = spawn(self.root, job, self.remaining())
        if not setup_only:
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            self.problems.extend(f"{workload}: {f}" for f in res["failures"])
        return res

    def check_same_exact(self, passes: list) -> None:
        for p in passes[1:]:
            if p["exact"] != passes[0]["exact"]:
                diff = sorted(k for k in p["exact"] if p["exact"][k] != passes[0]["exact"][k])
                self.problems.append(f"cold workers disagree on exact counts: {diff}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure(run: Run, seconds: float):
    """Untraced run: end-to-end metrics."""
    run.worker(run.workload, setup_only=True)  # compiles bytecode; not counted
    setups = [run.worker(run.workload, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list = []
    loop_start = time.monotonic()
    while True:
        if len(passes) >= MIN_PASSES:
            elapsed = time.monotonic() - loop_start
            per_pass = statistics.median(p["total_s"] for p in passes)
            if elapsed + per_pass > seconds or per_pass > run.remaining():
                break
        passes.append(run.worker(run.workload))
    run.check_same_exact(passes)
    setups += [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    norms = [norm_wall(p) for p in passes]
    lat = [ms for p in passes for _, ms in p["latencies_ms"]]
    rss = [p["peak_rss_kb"] / 1024.0 for p in passes]
    metrics = {
        "norm_wall_s": (statistics.median(norms), "s", norms),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (statistics.median(rss), "MB", rss),
    }
    lines = [f"{len(passes)} cold workers, {len(setups)} set-ups, {len(lat)} operations timed"]
    for name, (value, unit, samples) in metrics.items():
        q1, q3 = quartiles(samples)
        lines.append(f"{name:16s} {value:.6g} {unit}  (median of {len(samples)}; q1 {q1:.6g}, "
                     f"q3 {q3:.6g}; all {' '.join(f'{x:.4g}' for x in samples)})")
    ticks = [p["tick_s"] * 1e6 for p in passes]
    lines.append(f"wall_s (raw)     {statistics.median(walls):.6g} s  (all "
                 f"{' '.join(f'{x:.4g}' for x in walls)}; ticks {' '.join(f'{x:.1f}' for x in ticks)} "
                 f"us against {REF_TICK_S * 1e6:.0f} us; reported, not gated)")
    p50, p90 = percentiles(lat)
    lines.append(f"operation latency p50 {p50:.6g} ms, p90 {p90:.6g} ms over {len(lat)} "
                 "operations (reported, not gated)")
    return {k: (v, u) for k, (v, u, _) in metrics.items()}, lines


def self_times(spans) -> dict:
    """Span name -> list of self times (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for (name, start, end, _), c in zip(spans, child):
        out.setdefault(name, []).append(end - start - c)
    return out


def layer_metrics(plain: dict, body: dict, probe: dict, probe_cli: dict, w2: dict):
    """Per-layer metrics, and the names whose figure came from a probe worker."""
    body_t, probe_t, cli_t = (self_times(r["spans"]) for r in (body, probe, probe_cli))
    metrics, from_probe = {}, []

    def pick(name, key, in_body, in_probe):
        if key in in_body:
            return in_body
        from_probe.append(name)
        return in_probe

    for name, span in SPAN_SECONDS.items():
        metrics[name] = (sum(pick(name, span, body_t, probe_t)[span]), "s")
    for name, span in SPAN_MEDIAN_MS.items():
        metrics[name] = (statistics.median(pick(name, span, body_t, cli_t)[span]) * 1000.0, "ms")
    src = pick("maps.count_dessins_calls", "maps.count_dessins", body["exact"]["calls"],
               probe["exact"]["calls"])
    metrics["maps.count_dessins_calls"] = (src["maps.count_dessins"], "count")
    for name in EXACT_COUNTS:
        metrics[name] = (pick(name, name, body["exact"]["counts"], probe["exact"]["counts"])[name],
                         "count")
    has_cli = any(k in CLI_KINDS for k, _ in body["latencies_ms"])
    if not has_cli:
        from_probe.extend(("cli.request_p50_ms", "cli.request_p90_ms", "cli.requests_failed"))
    requests = (plain, body) if has_cli else (probe_cli,)
    p50, p90 = percentiles([ms for r in requests for k, ms in r["latencies_ms"] if k in CLI_KINDS])
    metrics["cli.request_p50_ms"] = (p50, "ms")
    metrics["cli.request_p90_ms"] = (p90, "ms")
    failed = sum(r["failed_by_kind"].get(k, 0) for r in requests for k in CLI_KINDS)
    metrics["cli.requests_failed"] = (failed, "count")
    t2 = sum(self_times(w2["spans"])["maps.count_dessins"])
    metrics["maps.count_dessins_s.w2"] = (t2, "s")
    metrics["maps.scaling_eff_w2"] = (w2["children_cpu_s"] / (SCAN_THREADS * t2), "ratio")
    return metrics, from_probe


def layer_shares(body: dict) -> dict:
    """Layer -> share of the traced worker's wall time spent in its spans."""
    per_layer: dict = {}
    for name, times in self_times(body["spans"]).items():
        if not name.startswith("op "):
            layer = name.split(".")[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + sum(times)
    return {k: v / body["wall_s"] for k, v in sorted(per_layer.items())}


def trace(run: Run, spans_path: str):
    """Traced run: per-layer metrics."""
    run.worker(run.workload, setup_only=True)  # compiles bytecode; not counted
    plain = run.worker(run.workload)
    body = run.worker(run.workload, trace=True)
    run.check_same_exact([plain, body])
    probe = run.worker("probe", trace=True)
    probe_cli = run.worker("probe_cli", trace=True)
    w2 = run.worker("table16", trace=True, threads=SCAN_THREADS)
    metrics, from_probe = layer_metrics(plain, body, probe, probe_cli, w2)
    metrics["trace_overhead_s"] = (norm_wall(body) - norm_wall(plain), "s")
    shares = layer_shares(body)
    target = sum(shares.get(layer, 0.0) for layer in TARGET_LAYERS[run.workload])
    metrics["layer_share"] = (100.0 * target, "%")

    lines = [f"{name:40s} {value:.6g} {unit}" + ("   [probe]" if name in from_probe else "")
             for name, (value, unit) in metrics.items()]
    lines.append("layer shares of traced wall time: "
                 + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    verdict = "ok" if target >= SHARE_FLOOR else "DRIFT"
    lines.append(f"layer-share check: {'+'.join(TARGET_LAYERS[run.workload])} "
                 f"{100 * target:.1f}% (floor {100 * SHARE_FLOOR:.0f}%) {verdict}")
    lines.append("waiting time: not applicable (one process, no layer waits on another)")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({
            "fields": ["name", "start", "end", "parent"],
            "workers": {
                role: {"run_id": f"{run.workload}-{run.seed}-{r['pid']}", "spans": r["spans"]}
                for role, r in (("body", body), ("probe", probe), ("probe_cli", probe_cli),
                                ("table16_w2", w2))
            },
        }, fh)
    lines.append(f"spans written to {os.path.relpath(spans_path, run.root)}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dessins", "__init__.py")):
        print(f"error: no dessins package under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(DIGESTS) as fh:
        pinned = json.load(fh)

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": read_commit(root),
        "digests_pinned_from": pinned["commit"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    run = Run(root, args.workload, args.seed, pinned["items"])
    try:
        if args.trace:
            spans_path = os.path.join(root, ".perfbench_out",
                                      f"spans-{args.workload}-seed{args.seed}.json")
            metrics, lines = trace(run, spans_path)
        else:
            metrics, lines = measure(run, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()

    print("run record: " + json.dumps(record))
    for line in lines:
        print(line)
    print(f"error_rate       {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} operations)")
    for p in run.problems[:20]:
        print(f"FAIL {p}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
