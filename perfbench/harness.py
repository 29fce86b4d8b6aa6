"""The closed measurement loop, its per-operation deadline, and the tail statistic."""

from __future__ import annotations

import math
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import workloads


class DeadlineExceeded(BaseException):
    """Raised into an operation that outlives its deadline.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class Deadline:
    """Per-operation deadline from an ITIMER_REAL interval timer in the main thread."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        # a signal delivered after disarm() returns without effect
        if self.armed:
            raise DeadlineExceeded

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Measurement:
    durations: list[float] = field(default_factory=list)
    completed: int = 0
    missed: list[int] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    attempts: Counter = field(default_factory=Counter)
    error_attempts: Counter = field(default_factory=Counter)
    outcomes: list = field(default_factory=list)
    child_rss_kb: int = 0
    #: the summed durations of the completed operations, deadline misses left out
    completed_s: float = 0.0
    #: every operation's duration scaled to the nominal machine (with a calibrator)
    scaled: list[float] = field(default_factory=list)

    def extend(self, other: "Measurement") -> None:
        """Append another measurement's operations to this one."""
        self.durations += other.durations
        self.completed += other.completed
        self.missed += other.missed
        self.errors += other.errors
        self.attempts.update(other.attempts)
        self.error_attempts.update(other.error_attempts)
        self.outcomes += other.outcomes
        self.child_rss_kb = max(self.child_rss_kb, other.child_rss_kb)
        self.completed_s += other.completed_s
        self.scaled += other.scaled


def measure(wl, lib, entries, *, seconds=None, count=None, start=0, goldens=None,
            trace=None, keep=False, call=None, calibrator=None) -> Measurement:
    """Closed loop over the entries from index start (wrapping), for a time or a count.

    Only the call is timed; its answer is checked after its timer stops.
    With a calibrator, reference-kernel bursts run between operations, and
    the durations are also given scaled to the nominal machine.
    """
    call = call or wl.call
    deadline = Deadline(wl.deadline) if wl.deadline else None
    clock = time.perf_counter
    stop = clock() + seconds if seconds is not None else None
    m = Measurement()
    spans = []
    i = 0
    while (i < count) if count is not None else (clock() < stop):
        if calibrator is not None:
            calibrator.between()
        index = (start + i) % len(entries)
        entry = entries[index]
        if trace is not None:
            trace.op_id = start + i
        i += 1
        m.attempts[index] += 1
        try:
            if deadline:
                deadline.arm()
            t0 = clock()
            try:
                outcome = call(lib, entry)
            except Exception as exc:
                outcome = workloads.Raised(exc)
            finally:
                t1 = clock()
                if deadline:
                    deadline.disarm()
        except DeadlineExceeded:
            t1 = clock()
            m.durations.append(t1 - t0)
            spans.append((t0, t1))
            m.missed.append(index)
            continue
        m.durations.append(t1 - t0)
        spans.append((t0, t1))
        m.completed += 1
        m.completed_s += t1 - t0
        m.child_rss_kb = max(m.child_rss_kb, getattr(outcome, "maxrss_kb", 0))
        error = wl.check(lib, entry, outcome)
        want = goldens.get(wl.golden_key(index, entry)) if goldens is not None else None
        if error is None and want is not None and workloads.digest(wl.render(entry, outcome)) != want:
            error = f"{entry.kind} {entry.args}: output differs from its golden digest"
        if error is not None:
            m.errors.append((index, error))
            m.error_attempts[index] += 1
        if keep:
            m.outcomes.append(outcome)
    if calibrator is not None:
        calibrator.between()
        m.scaled = calibrator.scale(spans)
    return m


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The tail latency: p99, or a lower percentile if p99 has under 10 samples beyond.

    Returns (value, percentile, samples beyond).  The percentile is the
    highest with at least 10 samples beyond it, capped at p99; below 21
    samples no percentile above the median qualifies and the median is
    returned.  The cap keeps the tail a property of the library: above p99,
    sub-millisecond operations on a shared machine measure how often the
    scheduler preempted the benchmark.
    """
    xs = sorted(samples)
    n = len(xs)
    i = min(n - 11, math.ceil(0.99 * n) - 1)
    if i < (n - 1) // 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i
