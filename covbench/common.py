"""Helpers shared by the benchmark driver and its worker processes.

Nothing here imports covshift or numpy: percentiles, the span tracer, the
open-loop schedule and child-process plumbing are plain Python so the
self-tests run without the package under test.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".covbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

# Thread pins and buffering for every child.  PYTHONUNBUFFERED is left out on
# purpose: the CLI's block-buffered stdout is part of what cli_stream measures.
CHILD_ENV = {
    "PYTHONPATH": SRC,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C",
}


def child_env() -> dict:
    """The complete environment handed to children; nothing else is inherited."""
    env = dict(CHILD_ENV)
    env["PATH"] = os.environ.get("PATH", "/usr/bin:/bin")
    return env


# ---------------------------------------------------------------- percentiles


def _rank(n: int, q: float) -> int:
    # round first so 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Number of samples ranked above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int, candidates=(50.0, 90.0, 99.0, 99.9)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    ok = [q for q in candidates if beyond(n, q) >= 10]
    return max(ok) if ok else None


def block_percentile(values, q: float, block: int) -> float:
    """q-th percentile within each run of `block` consecutive samples (a
    trailing partial block is dropped), median over the blocks.  A burst of
    noise from outside the process then moves one block, not the figure."""
    blocks = [values[i : i + block] for i in range(0, len(values) - block + 1, block)]
    return median([percentile(b, q) for b in blocks])


def block_rate(durations, block: int) -> float:
    """Operations per unit time within each run of `block` consecutive
    operations, median over the blocks (see block_percentile)."""
    sums = [sum(durations[i : i + block]) for i in range(0, len(durations) - block + 1, block)]
    return median([block / s for s in sums])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# --------------------------------------------------------------------- spans


class Tracer:
    """In-memory spans: [name, trace_id, parent_id, start_ns, end_ns].

    The parent of a span is the innermost span open when it starts; its trace
    id (run, replicate or row) is inherited from the parent unless given.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    def span(self, name: str, trace=None) -> "_Span":
        return _Span(self, name, trace)

    def add(self, name: str, start_ns: int, end_ns: int, trace=None, parent=None) -> int:
        """Record a span measured elsewhere, such as a row's due-to-seen time."""
        if trace is None:
            trace = self.spans[parent][1] if parent is not None else "run"
        self.spans.append([name, trace, parent, start_ns, end_ns])
        return len(self.spans) - 1

    def durations(self, name: str) -> list:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            for sid, (name, trace, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "name": name, "trace": trace, "parent": parent,
                    "start_ns": start, "end_ns": end, "self_ns": selfs[sid],
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "trace", "sid")

    def __init__(self, tracer: Tracer, name: str, trace) -> None:
        self.tracer, self.name, self.trace = tracer, name, trace

    def __enter__(self) -> int:
        t = self.tracer
        parent = t._open[-1] if t._open else None
        trace = self.trace
        if trace is None:
            trace = t.spans[parent][1] if parent is not None else "run"
        self.sid = len(t.spans)
        t.spans.append([self.name, trace, parent, time.perf_counter_ns(), 0])
        t._open.append(self.sid)
        return self.sid

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.sid][4] = time.perf_counter_ns()
        t._open.pop()


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for sid, span in enumerate(spans):
        if span[2] is not None:
            children.setdefault(span[2], []).append((span[3], span[4]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[3], span[4]
        out.append(end - start - covered(children.get(sid, ()), start, end))
    return out


# ------------------------------------------------------------ open-loop load


def due_times(start: float, rate: float, n: int) -> list:
    """Send times of an open-loop generator: row k is due at start + k/rate,
    whatever happened to the rows before it."""
    return [start + k / rate for k in range(n)]


def lateness(due, sent) -> list:
    """How late each send ran against its schedule (never negative: a send
    never starts before it is due)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def latencies_from_due(due, seen) -> list:
    """Per-row latency counted from the due time, so a stall also charges the
    rows queued behind it."""
    return [s - d for d, s in zip(due, seen)]


# ------------------------------------------------------------ child processes


class Child:
    """A child process with a hard deadline; `finish` reaps it with rusage.

    stderr goes to an unnamed file under the output directory, so reading it
    needs no extra thread.  Children not yet reaped are listed in `live` so
    the driver can stop them if it fails half-way.
    """

    live: set = set()

    def __init__(self, argv, timeout: float, stdin=None) -> None:
        os.makedirs(OUT, exist_ok=True)
        self._err = tempfile.TemporaryFile(dir=OUT)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=self._err,
            env=child_env(), cwd=ROOT,
        )
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        Child.live.add(self)

    def finish(self) -> tuple:
        """Wait for exit; returns (exit code, peak RSS in MB, exit time).

        A stdin pipe stays open: whoever writes to it closes it.
        """
        _, status, usage = os.wait4(self.proc.pid, 0)
        ended = time.perf_counter()
        self._timer.cancel()
        Child.live.discard(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._err.seek(0)
        self.stderr_text = self._err.read().decode(errors="replace")
        self._err.close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0, ended


def stop_children() -> None:
    """Kill and reap every child that has not been reaped."""
    for child in list(Child.live):
        child.proc.kill()
        child.finish()


def run_worker(job: str, params: dict, timeout: float = 170.0) -> tuple:
    """Run covbench/worker.py for one job.

    Returns (result dict or None, ready time from spawn or None, peak RSS MB,
    exit code, stderr).  A worker prints READY once its set-up is done and
    its result as the last line of stdout.
    """
    child = Child([sys.executable, os.path.join(HERE, "worker.py"), job, json.dumps(params)],
                  timeout)
    ready, last = None, None
    for line in child.proc.stdout:
        if line.startswith(b"READY") and ready is None:
            ready = time.perf_counter() - child.started
        elif line.strip():
            last = line
    code, rss, _ = child.finish()
    result = None
    if code == 0 and last is not None:
        result = json.loads(last)
    return result, ready, rss, code, child.stderr_text
