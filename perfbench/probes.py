"""Benchmark-side spans around calls into the program's layers.

The program is not modified: a traced op swaps in subclasses (of the
input distribution, of the protocols, of ``SerialExecutor``) and a
delegating ``Executor`` whose public methods open a span, run the
original, and close it.  Spans go through the program's own public
:class:`repro.obs.Tracer`, each tagged with the op id, its own id and
its parent's id so :func:`harness.span_trees` can rebuild the call tree
and charge every nanosecond of an op to one layer.

Untraced ops use the program's own classes, and a :class:`NullProbe`
wherever the workload code opens a span unconditionally.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterable

from repro.core.engine import Executor, SerialExecutor
from repro.obs import Tracer

#: Protocol callbacks the scalar simulator makes.
CALLBACKS = ("num_rounds", "finished", "setup", "broadcast", "receive", "output")
#: Protocol entry points of the vectorized path (the GF(2) kernels).
BATCH_KERNELS = ("batch_decisions", "batch_keys")


class _Scope:
    __slots__ = ("probe", "name", "span")

    def __init__(self, probe: "Probe", name: str) -> None:
        self.probe = probe
        self.name = name

    def __enter__(self) -> None:
        probe = self.probe
        probe.next_id += 1
        stack = probe.stack
        self.span = probe.tracer.span(
            self.name,
            track="bench",
            op=probe.op,
            id=probe.next_id,
            parent=stack[-1] if stack else None,
        )
        stack.append(probe.next_id)

    def __exit__(self, *exc_info: Any) -> None:
        self.probe.stack.pop()
        self.span.close()


class Probe:
    """A span stack over one :class:`~repro.obs.Tracer` (single thread)."""

    enabled = True

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.op: "int | None" = None
        self.stack: list[int] = []
        self.next_id = 0

    def span(self, name: str) -> _Scope:
        return _Scope(self, name)


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc_info: Any) -> None:
        pass


class NullProbe:
    enabled = False
    _SCOPE = _NullScope()

    def span(self, name: str) -> _NullScope:
        return self._SCOPE


NULL_PROBE = NullProbe()


def timed(obj: Any, probe: Probe, methods: Iterable[str], prefix: str) -> Any:
    """A copy of ``obj`` whose ``methods`` each run inside a span.

    The copy's class is a fresh subclass of ``type(obj)``; the probe is
    captured in the subclass's methods, not stored on the instance, so
    the engine's per-trial ``deepcopy`` of a protocol keeps timing into
    the same probe.
    """
    base = type(obj)

    def wrap(method: str) -> Callable[..., Any]:
        original = getattr(base, method)
        label = f"{prefix}.{method}"

        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with probe.span(label):
                return original(self, *args, **kwargs)

        return wrapper

    cls = type(f"Timed{base.__name__}", (base,), {m: wrap(m) for m in methods})
    clone = copy.copy(obj)
    clone.__class__ = cls
    return clone


class TrialTimedSerial(SerialExecutor):
    """``SerialExecutor`` with one span per trial (the scalar simulator)."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        out = []
        for item in items:
            with self.probe.span("core.simulator.trial"):
                out.append(fn(item))
        return out


class TimedExecutor(Executor):
    """Delegates the ``Executor`` contract to ``inner``, timing each call.

    Also notes which published inputs it has seen, so a publish call that
    hands back an already-published matrix counts as reuse.  ``probe`` is
    switched per op; with :data:`NULL_PROBE` the wrapper only counts.
    """

    def __init__(self, inner: Executor) -> None:
        self.inner = inner
        self.name = inner.name
        self.probe: "Probe | NullProbe" = NULL_PROBE
        self.publish_calls = 0
        self.publish_reuse = 0
        self.new_publish_bytes = 0
        self._published: set[str] = set()

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        with self.probe.span("exec.map"):
            return self.inner.map(fn, items)

    def wants_shared_inputs(self, inputs: Any) -> bool:
        return self.inner.wants_shared_inputs(inputs)

    def publish_inputs(self, inputs: Any) -> Any:
        with self.probe.span("exec.publish_inputs"):
            handle = self.inner.publish_inputs(inputs)
        if handle is not None:
            # Pool handles name a shared-memory segment, fleet handles a
            # content digest; either identifies one publication.
            key = getattr(handle, "digest", None) or handle.name
            self.publish_calls += 1
            if key in self._published:
                self.publish_reuse += 1
            else:
                self._published.add(key)
                self.new_publish_bytes += int(inputs.nbytes)
        return handle

    def release_inputs(self, handle: Any) -> None:
        with self.probe.span("exec.publish_release"):
            self.inner.release_inputs(handle)
