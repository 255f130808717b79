"""Helpers shared by the benchmark workloads: percentiles, peak RSS and
the span recorder the traced runs install around the program's entry
points."""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time

import numpy as np


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    return percentile(values, 50.0)


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class HostSpeed:
    """How fast the host runs right now, by timing a fixed numpy loop.

    On a shared host the same work runs 20-60% slower for seconds to
    minutes at a time.  In-process compute timings (the offline codec
    and the load generator's catalogue encode) are divided by the
    slowdown of a burst of the loop taken just *before* each timed
    call, so they read as on the reference host; the raw values go in
    the report.

    The loop runs in the program's process, so the program can move
    it: a call that leaves work running (a spinning thread pool, a
    background flush) slows the loop, and a slower loop makes the next
    call read faster.  Taking the factor only from the burst before a
    call keeps a call's own leftovers out of its factor.  A second burst
    right after each call measures how much the call leaves behind:
    :meth:`influenced` is true when the after/before slowdown ratio
    departs from 1 by more than :data:`INFLUENCE_BOUND`, and callers
    then report raw times.  Load that outlasts both bursts reads as a
    slower host and is not caught.
    """

    #: median loop time on the reference host (2 vCPUs at 2.1 GHz,
    #: numpy 2.4, CPython 3.11), seconds.
    REFERENCE_S = 0.00063
    #: loop timings per burst (~10 ms).
    BURST = 15
    #: largest accepted departure of the median after/before ratio
    #: from 1.
    INFLUENCE_BOUND = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 16, 4096).astype(np.uint32)
        self._index = rng.integers(0, 4096, 8192)
        #: slowdowns of the bursts before / after each timed call.
        self.before_bursts: list[float] = []
        self.after_bursts: list[float] = []

    def _loop(self) -> float:
        x = np.zeros(self._index.size, dtype=np.uint32)
        t0 = time.perf_counter()
        for _ in range(24):
            x = (x * np.uint32(3) + self._table[self._index]) >> np.uint32(1)
            x &= np.uint32(0xFFFF)
        return time.perf_counter() - t0

    def _burst(self) -> float:
        """Time the loop :data:`BURST` times; returns the burst's
        slowdown against the reference host (> 1: slower)."""
        return median([self._loop() for _ in range(self.BURST)]) / self.REFERENCE_S

    def before(self) -> float:
        """Burst before a timed call; returns the call's factor."""
        f = self._burst()
        self.before_bursts.append(f)
        return f

    def after(self) -> None:
        """Burst right after a timed call (for :meth:`after_before_ratio`)."""
        self.after_bursts.append(self._burst())

    def factor(self) -> float:
        """Median slowdown over the before bursts so far."""
        return statistics.median(self.before_bursts)

    def after_before_ratio(self) -> float:
        """Median over calls of the after/before burst slowdown ratio."""
        return statistics.median(
            a / b for a, b in zip(self.after_bursts, self.before_bursts)
        )

    def influenced(self) -> bool:
        return abs(self.after_before_ratio() - 1.0) > self.INFLUENCE_BOUND

    def summary(self) -> dict:
        return {
            "slowdown": self.factor(),
            "after_before_ratio": self.after_before_ratio(),
            "influence_bound": self.INFLUENCE_BOUND,
            "influenced": self.influenced(),
        }


class SpanLog:
    """In-memory span recorder.

    A span is ``(sid, parent, name, t0, t1, req, attrs)`` with
    ``perf_counter`` times (``CLOCK_MONOTONIC`` on Linux, so spans from
    the server process and the load generator share one clock).
    ``parent`` is the enclosing span on the same thread; ``req`` is the
    request id the current thread is working for (set by
    :meth:`set_request`).  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, req) -> None:
        self._local.req = req

    def request(self):
        return getattr(self._local, "req", None)

    def record(self, name: str, t0: float, t1: float, **attrs) -> int:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        self.spans.append((sid, parent, name, t0, t1, self.request(), attrs))
        return sid

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per
        call; ``describe(args, kwargs, result)`` adds span attributes."""
        inner = getattr(owner, attr)
        log = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            stack = log._stack()
            sid = next(log._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = describe(args, kwargs, result) if describe else {}
                log.spans.append(
                    (sid, parent, name, t0, t1, log.request(), attrs)
                )

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def shrink_by_cap(spans) -> dict:
    """``{capacity: {"count", "p50_ms", "p99_ms"}}`` over shrink spans
    whose attributes carry ``cap``."""
    by_cap: dict = {}
    for s in spans:
        by_cap.setdefault(s[6]["cap"], []).append((s[4] - s[3]) * 1e3)
    return {
        cap: {"count": len(v), "p50_ms": median(v), "p99_ms": percentile(v, 99.0)}
        for cap, v in sorted(by_cap.items())
    }


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover
    (children of one span on one thread do not overlap)."""
    child_time: dict[int, float] = {}
    for _sid, parent, _name, t0, t1, _req, _attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    return {
        sid: (t1 - t0) - child_time.get(sid, 0.0)
        for sid, _parent, _name, t0, t1, _req, _attrs in spans
    }


#: the measured layers must sum to ``p50_ms`` within this share.
ATTRIBUTION_TOLERANCE = 0.10


def summarize_attribution(rows, measured, unmeasured, p50_ms: float) -> dict:
    """Mean per-layer self time (ms) over the requests nearest the median.

    ``rows`` hold each request's ``total`` latency and its time per
    layer (seconds).  ``measured`` layers are times a span or the load
    generator's clock took directly; ``unmeasured`` ones are the gaps
    between them, ``residue`` last, so each row sums to its total.  The
    band is the tenth of requests (at least 3) whose latency is closest
    to ``p50_ms``; the check is that the measured layers alone sum to
    ``p50_ms`` within :data:`ATTRIBUTION_TOLERANCE`.  A missing or
    broken wrapper moves its layer's time into a gap and fails it.
    """
    n = max(3, len(rows) // 10)
    band = sorted(rows, key=lambda x: abs(x["total"] * 1e3 - p50_ms))[:n]
    layers = (*measured, *unmeasured)
    mean = {k: 1e3 * sum(x[k] for x in band) / len(band) for k in layers}
    total = 1e3 * sum(x["total"] for x in band) / len(band)
    attributed = sum(mean[k] for k in measured)
    return {
        "requests": len(rows),
        "band_requests": len(band),
        "layer_self_ms": mean,
        "unmeasured_layers": list(unmeasured),
        "band_mean_total_ms": total,
        "attributed_ms": attributed,
        "p50_ms": p50_ms,
        "error_vs_p50": (attributed - p50_ms) / p50_ms,
        "tolerance": ATTRIBUTION_TOLERANCE,
        "sums_to_p50": abs(attributed - p50_ms) <= ATTRIBUTION_TOLERANCE * p50_ms,
    }
