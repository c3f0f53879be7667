"""One cold benchmark worker.

Reads a job as JSON on stdin, imports ``dessins`` from ``<root>/src``, builds
the seeded operation list of one workload, runs it once and prints one JSON
result on stdout.  The harness starts a fresh worker for every measured
pass, because the package's ``lru_cache``s would otherwise turn a repeat into
cache hits.  While the body runs, ``Yardstick`` times a fixed stdlib tick
every 10 ms, so the harness can correct the body's wall time for the speed
the shared host gave the worker.

Job keys: ``root``, ``workload``, ``seed``, ``trace`` (record spans),
``digests`` (pinned item -> sha256, or null to only report them),
``setup_only`` (stop once set up) and ``threads`` (brute-force workers).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from time import perf_counter


class Tracer:
    """Counts calls into the package and, when tracing, records spans.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of the
    enclosing span.  Spans stay in memory until the worker prints its result.
    """

    def __init__(self, traced: bool):
        self.calls: dict = {}
        self.counts: dict = {}
        self.spans: list | None = [] if traced else None
        self._stack: list = []

    def call(self, name: str, fn, *args, **kw):
        self.calls[name] = self.calls.get(name, 0) + 1
        return self.span(name, fn, *args, **kw)

    def span(self, name: str, fn, *args, **kw):
        if self.spans is None:
            return fn(*args, **kw)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.spans[sid] = [name, start, perf_counter(), parent]
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Yardstick:
    """Samples the speed of the host while a workload body runs.

    The host is shared: the speed it gives one process changes by up to 2x
    within seconds, and a whole run can fall in a slow spell.  Every
    ``PERIOD_S`` of wall time an interval timer runs ``tick``, a fixed piece
    of pure-Python work that does not touch ``dessins``, on the same CPU and
    between the same bytecodes as the workload, and records how long it took.
    The harness divides the body's wall time by the typical tick, which
    cancels most of the host's slow spells.  The ticks add about 1% to the
    body's wall time, on every commit alike.
    """

    PERIOD_S = 0.01

    def __init__(self):
        self.samples: list = []

    @staticmethod
    def tick() -> int:
        acc, seen = 0, {}
        for i in range(400):
            k = (i * 7919) % 97
            seen[k] = seen.get(k, 0) + i
            acc += k
        return acc

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.tick()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def tick_s(self) -> float:
        """Interquartile mean of the tick durations."""
        xs = sorted(self.samples)
        q = len(xs) // 4
        return statistics.fmean(xs[q:len(xs) - q]) if xs else float("nan")


def run(job: dict) -> dict:
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import dessins

    if not os.path.abspath(dessins.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dessins imported from {dessins.__file__}, not from {src}")
    import workloads as wl

    if job.get("threads"):
        dessins.maps.configure_threads(job["threads"])
    groups = wl.build(job["workload"], job["seed"])
    setup_end = time.monotonic()
    if job.get("setup_only"):
        return {"setup_end": setup_end}

    tracer = Tracer(job["trace"])
    pinned = job["digests"]
    digests, failures, latencies = {}, [], []
    failed_by_kind: dict = {}
    with Yardstick() as yardstick:
        body_start = perf_counter()
        for group in groups:
            for item, kind, fn in group:
                t0 = perf_counter()
                try:
                    text = tracer.span("op " + item, fn, tracer)
                except (wl.Residual, wl.CliFailed) as exc:
                    err = str(exc)
                except Exception:
                    # an operation that raises is a failed operation; the rest
                    # of the workload still runs so the failure count is complete
                    err = "raised " + traceback.format_exc(limit=-1).strip().replace("\n", " | ")
                else:
                    err = None
                latencies.append([kind, (perf_counter() - t0) * 1000.0])
                if err is None:
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    digests[item] = digest
                    if pinned is not None and pinned.get(item) != digest:
                        err = "output differs from the pinned digest"
                if err is not None:
                    failures.append(f"{item}: {err}")
                    failed_by_kind[kind] = failed_by_kind.get(kind, 0) + 1
        wall = perf_counter() - body_start
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "setup_end": setup_end,
        "wall_s": wall,
        "tick_s": yardstick.tick_s(),
        "ticks": len(yardstick.samples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # CPU time of the brute-force scan workers, when maps runs a pool
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "failed_by_kind": failed_by_kind,
        "latencies_ms": latencies,
        # exact figures that must repeat in every cold worker of one workload
        "exact": {
            "calls": tracer.calls,
            "counts": tracer.counts,
            "cache_counts": wl.cache_counts(),
            "digests": digests,
        },
        "spans": tracer.spans,
        "pid": os.getpid(),
    }


if __name__ == "__main__":
    result = run(json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(result) + "\n")
