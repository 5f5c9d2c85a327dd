"""repro.obs — the observability layer for the execution stack.

Three pieces, all optional and all off-by-default on the hot path:

* :class:`MetricsRegistry` — thread-safe labelled
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` series with JSON
  round-trip; the unified home of every counter the exec stack exposes
  (``ErrorTelemetry``, ``Engine.batch_fallbacks`` as a per-reason dict,
  steal/requeue stats, pool breakages, sweep retries) behind their
  original attribute paths.
* :class:`Tracer` / :data:`NULL_TRACER` — span-based tracing with an
  injectable monotonic clock and Chrome/Perfetto trace-event export;
  the null tracer is a zero-alloc no-op so instrumentation costs
  nothing when disabled.
* :class:`FlightRecorder` — a bounded ring of structured events
  (health transitions, fault injections, lane deaths, fallbacks)
  dumped to ``REPRO_CHAOS_DIR`` on conformance failure.

``python -m repro.obs.report`` renders any of the dump formats as
summary tables; see ``docs/observability.md``.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import FlightRecorder, dump_on_chaos
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "dump_on_chaos",
    "validate_chrome_trace",
]
