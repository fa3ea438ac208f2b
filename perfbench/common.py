"""Shared plumbing of the benchmark: timing, statistics, spans, processes.

Nothing here imports ``repro``: the workload modules do, after
:func:`run.main` has put the checkout's ``src`` on the path, so that
``import repro`` is paid inside the processes whose set-up is measured.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The paper's six algorithms, the algorithm axis of the ``full`` grid.
ALGORITHMS = ("autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan")


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence; 0.0 for an empty one."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is empty."""
    return float(numerator) / denominator if denominator else 0.0


# -- process accounting --------------------------------------------------------


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """User plus system CPU seconds of this process or its reaped children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def total_cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    return cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN)


def peak_rss_mb(include_self: bool = True, include_children: bool = True) -> float:
    """Largest resident set (MiB) of this process and/or its reaped children.

    Linux reports ``ru_maxrss`` in KiB; for ``RUSAGE_CHILDREN`` it is the
    largest single descendant that was waited for.
    """
    peaks = []
    if include_self:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if include_children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


def machine() -> Dict[str, object]:
    """The machine the numbers were taken on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def child_env(workdir: str) -> Dict[str, str]:
    """Environment for child interpreters: checkout ``src`` first, temp in ``workdir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = workdir
    env["REPRO_ENGINE_X_TMPDIR"] = workdir
    return env


def probe_ready_seconds(mode: str, workdir: str) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready.

    The child runs ``probe.py``: ``import repro`` plus whatever the workload
    needs before its first operation.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), mode],
        stdout=subprocess.PIPE,
        env=child_env(workdir),
        cwd=ROOT,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe {mode!r} failed (exit {child.returncode})")
    return elapsed


# -- timing hygiene ------------------------------------------------------------


class GCPauses:
    """Sums garbage-collector pauses in this process via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.total += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


def settle() -> None:
    """Collect garbage so no earlier allocation is paid inside a timed window."""
    gc.collect()


# -- host speed ----------------------------------------------------------------

#: Median seconds of one :func:`calibrate` on the host the bounds were set on
#: (2 vCPUs, Intel Xeon, Python 3.11.7).  Only the scale of the adjusted
#: figures depends on it, never a comparison.
CALIBRATION_REFERENCE_S = 0.080


def calibrate() -> float:
    """Seconds a fixed task that never touches ``repro`` takes right now.

    The task mixes what the program's in-process operations spend their time
    on: Python dict and integer work, SQLite inserts and aggregates (the
    standard library's ``sqlite3``, in memory), and numpy arithmetic and
    sorting.  A change to the program cannot change it, so how long it takes
    tracks only how fast the shared host runs at that moment.
    """
    import numpy
    import sqlite3

    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(150_000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
        connection.executemany(
            "INSERT INTO t VALUES (?, ?, ?)", ((i, i * 0.5, str(i)) for i in range(15_000))
        )
        for remainder in range(8):
            connection.execute(
                "SELECT SUM(a), SUM(b), COUNT(c) FROM t WHERE a % 8 = ?", (remainder,)
            ).fetchone()
    finally:
        connection.close()
    values = numpy.arange(500_000, dtype=numpy.float64)
    for _ in range(4):
        (values * 1.5 + 2.0).sum()
        numpy.sort(values[::-1][:100_000])
    return time.perf_counter() - started


class HostSpeed:
    """The host's speed over one run, from :func:`calibrate` next to each operation.

    The host is shared: its speed swings by 15–40% over seconds and stays
    fast or slow for minutes, and a process's CPU time swings with it, so a
    ten-run set that falls into a slow stretch reads slow.  Timing
    the fixed task next to the operations and scaling every operation time
    by ``CALIBRATION_REFERENCE_S / median(task times)`` takes out the part
    of the swing both share.  The raw figures are printed beside the
    adjusted ones.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            settle()
            self.samples.append(calibrate())

    @property
    def factor(self) -> float:
        """Reference over measured task time: above 1 on a slow stretch."""
        return CALIBRATION_REFERENCE_S / median(self.samples) if self.samples else 1.0


# -- the benchmark's own spans -------------------------------------------------


class Spans:
    """In-memory span recorder for the traced pass, written out at its end.

    Each span has a name, start, duration, parent and attributes; spans of
    one operation share the ``op`` attribute.  When ``enabled`` is false the
    recorder keeps nothing, which is what the untraced passes use.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, object]] = []
        #: Return values of wrapped calls (see :func:`timed_calls`), by span id;
        #: kept apart from the records, which must stay JSON-serialisable.
        self.results: Dict[int, object] = {}
        # Client threads record concurrently: one parent stack per thread,
        # one lock around appending a record.
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def select(self, name: str, **attrs: object) -> List[Dict[str, object]]:
        """Records called ``name`` whose attributes include ``attrs``."""
        return [
            record
            for record in self.records
            if record["name"] == name
            and all(record["attrs"].get(key) == value for key, value in attrs.items())
        ]

    def durations(self, name: str, **attrs: object) -> List[float]:
        return [record["wall"] for record in self.select(name, **attrs)]

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


class _SpanContext:
    __slots__ = ("spans", "name", "attrs", "index", "wall", "_t0")

    def __init__(self, spans: Spans, name: str, attrs: Dict[str, object]) -> None:
        self.spans = spans
        self.name = name
        self.attrs = attrs
        self.index = -1
        self.wall = 0.0

    def __enter__(self) -> "_SpanContext":
        if self.spans.enabled:
            stack = self.spans._stack()
            parent = stack[-1] if stack else None
            with self.spans._lock:
                self.index = len(self.spans.records)
                self.spans.records.append(
                    {"id": self.index, "parent": parent, "name": self.name,
                     "t0": time.time(), "wall": 0.0, "attrs": dict(self.attrs)}
                )
            stack.append(self.index)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall = time.perf_counter() - self._t0
        if self.index >= 0:
            self.spans._stack().pop()
            record = self.spans.records[self.index]
            record["wall"] = self.wall
            record["attrs"].update(self.attrs)
            if exc_type is not None:
                record["error"] = f"{exc_type.__name__}: {exc}"
        return False


@contextmanager
def timed_calls(spans: Spans, targets: Sequence[Tuple[object, str, str]]):
    """Record a span around every call of each ``(owner, attribute, span name)``.

    This is how the traced pass measures a layer from outside: the public
    function is replaced for the duration of the block by a wrapper that
    times it, and restored afterwards.  The wrapper's span carries the
    call's return value as ``result`` so callers can read counts off it.
    """
    saved = []
    for owner, attribute, name in targets:
        original = getattr(owner, attribute)
        saved.append((owner, attribute, original))

        def wrapper(*args, __original=original, __name=name, **kwargs):
            with spans.span(__name) as span:
                result = __original(*args, **kwargs)
                if span.index >= 0:
                    spans.results[span.index] = result
                return result

        setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# -- results -------------------------------------------------------------------


@dataclass
class Context:
    """What one run of one workload is given."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: str
    trace_dir: str

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds


@dataclass
class Result:
    """What one run of one workload reports."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Metric-name prefixes of the layers this workload never reaches; in
    #: the traced pass their per-layer metrics read 0.
    bypassed: Tuple[str, ...] = ()
    #: Human-readable figures named after the workload's own vocabulary
    #: (``cold_grid_s``, ``jobs_per_s``, ...), printed before the JSON line.
    named: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, condition: bool, problem: str) -> None:
        """Record ``problem`` unless ``condition`` holds."""
        if not condition:
            self.problems.append(problem)
