"""Cross-layer request tracing for the serving stack (DESIGN.md §17).

Three pieces:

- :mod:`repro.trace.core` — the span registry: a bounded ring buffer
  with a lock-free disabled fast path and per-request span trees.
- :mod:`repro.trace.hist` — log-bucketed streaming histograms, the one
  quantile primitive behind every per-stage latency distribution.
- :mod:`repro.trace.export` — Chrome trace-event JSON export
  (Perfetto-loadable) and the schema validator.

Quickstart::

    from repro import trace
    with trace.tracing():
        ...  # run traced work (service.submit / NetServer requests)
        spans = trace.drain()
    trace.write_chrome_trace("trace.json", spans)
"""

from .core import (
    DEFAULT_CAPACITY,
    Span,
    disable,
    drain,
    dropped,
    enable,
    enabled,
    new_request,
    next_span_id,
    record_instant,
    record_span,
    reset,
    snapshot,
    tracing,
    ts,
)
from .export import (
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from .hist import GROWTH, MIN_S, NUM_BUCKETS, LatencyHistogram

__all__ = [
    "DEFAULT_CAPACITY",
    "GROWTH",
    "MIN_S",
    "NUM_BUCKETS",
    "LatencyHistogram",
    "Span",
    "chrome_trace",
    "disable",
    "drain",
    "dropped",
    "enable",
    "enabled",
    "new_request",
    "next_span_id",
    "record_instant",
    "record_span",
    "reset",
    "snapshot",
    "tracing",
    "ts",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
