"""Measurement helpers shared by the workloads: percentiles with a
sample-count guard, an in-memory span recorder, memory and host context,
and waiting for child processes.

Nothing here imports ``repro``; the workloads do.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def percentile(values: list[float], q: float, what: str) -> float:
    """The ``q``-quantile of ``values`` (linear interpolation).

    Raises :class:`BenchError` when fewer than :data:`MIN_BEYOND`
    samples lie beyond it, so a percentile read off a handful of
    samples never reaches the output.
    """
    if not values:
        raise BenchError(f"{what}: no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(v > value for v in ordered)
    if beyond < MIN_BEYOND:
        raise BenchError(
            f"{what}: p{round(q * 100)} of {len(ordered)} samples has only "
            f"{beyond} beyond it (need {MIN_BEYOND})"
        )
    return value


def highest_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole-ten percentile with enough samples beyond it."""
    best = None
    for p in (50, 60, 70, 75, 80, 90, 95, 99):
        try:
            best = (p, percentile(values, p / 100, "tail"))
        except BenchError:
            break
    if best is None:
        raise BenchError(f"{len(values)} samples support no percentile")
    return best


class HostReference:
    """A fixed task, independent of ``repro``, timed between answers.

    The host this benchmark was defined on runs the same input 20-80%
    faster or slower for tens of seconds to minutes at a time.  Timing
    this task in the same process, interleaved with the answers, gives
    the host's speed during the run; answer times divided by it hold
    still across those phases.  The task mixes what the workloads do on
    data that stays in cache: breadth-first search over Python sets,
    Python integer arithmetic, and NumPy sorts of a small array.  A sort
    of an array larger than the cache was tried and dropped: in phases
    of memory contention it slowed 3x while the answers slowed 1.1-1.8x,
    so ratios to it moved more than raw times.  Its inputs are fixed,
    so every run and every commit times the same work.
    """

    #: The task's median time on the host this benchmark was defined on
    #: (2 vCPUs of an Intel Xeon, Python 3.11); ``setup_s`` is set-up
    #: time scaled to a host running the task in this time.
    NOMINAL_S = 0.070

    def __init__(self) -> None:
        rng = random.Random(12345)
        n = 3000
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for _ in range(12000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.keys = numpy.random.default_rng(12345).integers(0, 1 << 40, size=20_000)

    def run(self) -> float:
        gc.collect()  # time the host, not the last answer's garbage
        t0 = time.perf_counter()
        for source in range(0, 24, 3):
            seen = {source}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in self.adj[u]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
        total = 0
        for i in range(200_000):
            total += i * i % 7
        for _ in range(10):
            numpy.unique(numpy.sort(self.keys))
        return time.perf_counter() - t0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux).

    The server's pool workers and the ``multiprocessing`` resource
    trackers of the server and of this process outlive their parents by
    a moment.  As a subreaper, this process inherits them and can wait
    for every one of them in :func:`stop_children`.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids of this process's children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def resource_tracker_pid() -> int | None:
    """Pid of this process's ``multiprocessing`` resource tracker, if running."""
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """End this process's resource tracker: it exits when its pipe closes."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def stop_children(keep: tuple[int | None, ...] = (), timeout: float = 20.0) -> list[int]:
    """Wait until every child process except ``keep`` has ended.

    Children still running after ``timeout`` seconds are killed and
    waited for; their pids are returned.
    """
    deadline = time.monotonic() + timeout
    killed: list[int] = []
    gone: set[int] = set()
    while True:
        pids = [p for p in child_pids() if p not in keep and p not in gone]
        if not pids:
            return killed
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if not done and late:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    done, _ = os.waitpid(pid, 0)
            except ChildProcessError:
                done = pid  # already waited for elsewhere
            if done:
                gone.add(pid)
        time.sleep(0.01)


def host_context() -> dict:
    from repro.core.native import native_status

    status = native_status()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_available": bool(status.available),
        "native_detail": status.detail,
        "platform": platform.platform(),
    }


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    answer: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Nested ``perf_counter`` spans and counts, kept in memory.

    Spans of one answer share its id.  :meth:`decompose` turns one
    answer's spans into per-layer self times plus the residual (the
    root span's own time), which add up to the root's duration.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, answer: int):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, answer))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_span(self, name: str, seconds: float, answer: int, parent: int | None = None) -> int:
        """Record an externally timed interval ending now."""
        end = time.perf_counter()
        self.spans.append(Span(name, end - seconds, end, parent, answer))
        return len(self.spans) - 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def decompose(self, root_index: int) -> tuple[float, dict[str, float]]:
        """``(total, {layer: self seconds})`` for the answer rooted at
        ``root_index``; the root's own self time is keyed ``""``."""
        root = self.spans[root_index]
        members = {root_index}
        for i in range(root_index + 1, len(self.spans)):
            if self.spans[i].parent in members:
                members.add(i)
        child_time: dict[int, float] = {i: 0.0 for i in members}
        for i in members:
            parent = self.spans[i].parent
            if i != root_index and parent in child_time:
                child_time[parent] += self.spans[i].seconds
        layers: dict[str, float] = {}
        for i in members:
            key = "" if i == root_index else self.spans[i].name
            own = self.spans[i].seconds - child_time[i]
            layers[key] = layers.get(key, 0.0) + own
        return root.seconds, layers

    def dump(self, path: str) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "answer": s.answer,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)
