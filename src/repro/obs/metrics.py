"""The unified metrics registry: ``Counter`` / ``Gauge`` / ``Histogram``.

Before this module, the execution stack's operational evidence lived in
scattered ad-hoc counters — ``ErrorTelemetry`` dicts, bare ints like
``WorkerPool.broken_pools``, the engine's fallback count, per-lane
lists on ``ChunkScheduler`` — none of which could be correlated,
exported together, or compared across runs.  :class:`MetricsRegistry`
is the one substrate they all now sit on: a thread-safe collection of
named, labelled time series that snapshots to plain dicts and
round-trips through JSON, so a whole run's counters are a single
artifact.

Design points:

* **Labels.**  A series is identified by ``(name, sorted(labels))``.
  The same name with different label values is the common aggregation
  shape (``exec_errors_total{worker="10.0.0.5:9123",
  category="timeout"}``); the same ``(name, labels)`` pair from any
  call site is the *same* series — increments accumulate, which is
  what makes the registry a meeting point rather than a log.
* **Type stability.**  Registering a name as a counter and later as a
  gauge is a programming error and raises — a silent type change would
  corrupt every downstream reader.
* **Thread safety.**  One registry lock guards the series table;
  each series carries its own lock for updates, so hot-path increments
  on different series never contend on the registry.
* **Snapshots.**  :meth:`MetricsRegistry.snapshot` returns plain dicts
  (safe to mutate), :meth:`MetricsRegistry.to_json` /
  :meth:`MetricsRegistry.from_json` round-trip exactly — the format
  the flight-recorder dumps and ``python -m repro.obs.report`` consume.

>>> registry = MetricsRegistry()
>>> registry.counter("requests_total", route="/run").inc()
>>> registry.counter("requests_total", route="/run").inc(2)
>>> registry.counter("requests_total", route="/run").value
3
>>> restored = MetricsRegistry.from_json(registry.to_json())
>>> restored.counter("requests_total", route="/run").value
3
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Label values are coerced to strings at registration: labels are
#: identity, and identity must survive a JSON round-trip unchanged.
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Series:
    """Shared shape of one named, labelled time series."""

    kind: str = "series"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.label_items = labels
        self._lock = threading.Lock()

    @property
    def labels(self) -> dict[str, str]:
        return dict(self.label_items)

    def snapshot_value(self) -> Any:
        raise NotImplementedError

    def restore(self, value: Any) -> None:
        raise NotImplementedError


class Counter(_Series):
    """A monotonically increasing count (events, failures, frames)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot_value(self) -> int:
        return self.value

    def restore(self, value: Any) -> None:
        with self._lock:
            self._value = int(value)


class Gauge(_Series):
    """A value that goes up and down (in-flight batches, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> float:
        return self.value

    def restore(self, value: Any) -> None:
        with self._lock:
            self._value = float(value)


#: Default histogram bucket upper bounds, in seconds — tuned for the
#: execution stack's latency shape (sub-ms chunk dispatch up to
#: multi-second straggler batches).  The overflow bucket is implicit.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Histogram(_Series):
    """Bucketed observations (latencies, chunk sizes): count/sum/buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: "Iterable[float] | None" = None,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot_value(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "bounds": list(self.bounds),
                "bucket_counts": list(self._counts),
            }

    def restore(self, value: Any) -> None:
        with self._lock:
            self.bounds = tuple(float(b) for b in value["bounds"])
            self._counts = [int(c) for c in value["bucket_counts"]]
            self._sum = float(value["sum"])
            self._count = int(value["count"])


_KINDS: dict[str, type[_Series]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Thread-safe collection of named, labelled metric series.

    Accessors are get-or-create: ``registry.counter(name, **labels)``
    returns the existing series for that ``(name, labels)`` identity or
    registers a fresh one — so any component holding the registry can
    contribute to a shared series without coordination.  Re-registering
    a name under a different metric *kind* raises ``TypeError``.

    >>> registry = MetricsRegistry()
    >>> registry.gauge("inflight").set(3)
    >>> registry.snapshot()["gauge"]["inflight"][0]["value"]
    3.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (name, label items) → series
        self._series: dict[tuple[str, LabelItems], _Series] = {}
        #: name → kind, enforcing type stability per name
        self._kinds: dict[str, str] = {}

    # -- registration ---------------------------------------------------
    def _get_or_create(
        self, kind: str, name: str, labels: Mapping[str, Any], **kwargs: Any
    ) -> _Series:
        if not name:
            raise ValueError("metric name must be non-empty")
        items = _label_items(labels)
        with self._lock:
            known_kind = self._kinds.get(name)
            if known_kind is not None and known_kind != kind:
                raise TypeError(
                    f"metric {name!r} is registered as a {known_kind}, "
                    f"not a {kind}"
                )
            series = self._series.get((name, items))
            if series is None:
                series = _KINDS[kind](name, items, **kwargs)
                self._series[(name, items)] = series
                self._kinds[name] = kind
            return series

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series for ``(name, labels)`` (created on first use)."""
        series = self._get_or_create("counter", name, labels)
        assert isinstance(series, Counter)
        return series

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series for ``(name, labels)`` (created on first use)."""
        series = self._get_or_create("gauge", name, labels)
        assert isinstance(series, Gauge)
        return series

    def histogram(
        self,
        name: str,
        buckets: "Iterable[float] | None" = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram series for ``(name, labels)`` (created on first use)."""
        series = self._get_or_create("histogram", name, labels, buckets=buckets)
        assert isinstance(series, Histogram)
        return series

    # -- reads ----------------------------------------------------------
    def series(self, name: str) -> list[_Series]:
        """Every series registered under ``name`` (any labels), sorted."""
        with self._lock:
            found = [
                series
                for (series_name, _), series in self._series.items()
                if series_name == name
            ]
        return sorted(found, key=lambda s: s.label_items)

    def total(self, name: str, **labels: Any) -> float:
        """Sum of a counter/gauge name over series matching ``labels``.

        Labels given act as a filter; omitted labels aggregate.  Unknown
        names total to 0 — a counter that never fired reads as zero,
        which is exactly what monitors want.
        """
        wanted = _label_items(labels)
        total = 0.0
        for series in self.series(name):
            if isinstance(series, Histogram):
                raise TypeError(f"metric {name!r} is a histogram; read .count/.sum")
            if set(wanted) <= set(series.label_items):
                total += series.snapshot_value()
        return total

    def snapshot(self) -> dict[str, dict[str, list[dict[str, Any]]]]:
        """Every series as plain data: ``kind → name → [{labels, value}]``."""
        with self._lock:
            series = list(self._series.values())
        out: dict[str, dict[str, list[dict[str, Any]]]] = {}
        for s in sorted(series, key=lambda s: (s.kind, s.name, s.label_items)):
            out.setdefault(s.kind, {}).setdefault(s.name, []).append(
                {"labels": s.labels, "value": s.snapshot_value()}
            )
        return out

    # -- JSON round-trip ------------------------------------------------
    SCHEMA = "repro-metrics-v1"

    def to_json(self, indent: "int | None" = 2) -> str:
        """The full registry as JSON (the metrics artifact format)."""
        return json.dumps(
            {"schema": self.SCHEMA, "metrics": self.snapshot()},
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output (exact round-trip)."""
        payload = json.loads(text)
        if payload.get("schema") != cls.SCHEMA:
            raise ValueError(
                f"unsupported metrics schema {payload.get('schema')!r}"
            )
        registry = cls()
        for kind, by_name in payload["metrics"].items():
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind {kind!r}")
            for name, entries in by_name.items():
                for entry in entries:
                    series = registry._get_or_create(kind, name, entry["labels"])
                    series.restore(entry["value"])
        return registry
