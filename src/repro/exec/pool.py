"""``WorkerPool`` — the process pool, warm or cold, and its shared memory.

The one process-pool executor of the stack.  A warm pool keeps its
worker processes alive across successive ``run_batch`` /
``submit_batch`` calls, so sweeps and estimators that issue many small
batches pay process start-up (fork, interpreter state, first-touch
imports) once instead of per batch.  ``idle_timeout=0`` makes it a
*cold* pool: workers are reaped as soon as the last in-flight map ends,
which is what ``Engine("parallel")`` builds for one big batch.

This module is also the only place that creates, pins and unlinks
``multiprocessing.shared_memory`` segments.  A fixed input matrix
published via :meth:`WorkerPool.publish_inputs` is copied once into a
segment keyed by content digest, so repeated batches over the same
matrix share one machine-wide copy; workers attach read-only views and
keep them cached.  Each publish *pins* its segment until the matching
:meth:`WorkerPool.release_inputs`: a reap (idle timeout, or the cold
pool's end-of-map reap) unlinks only unpinned segments, so a batch that
published but has not yet mapped never loses its inputs.  A segment
released while no workers are alive is unlinked at once; otherwise
unpinned segments stay for reuse until a reap, :meth:`close`, or the
bound on idle segments evicts them.

Failure semantics: an exception *raised by a task* propagates to the
caller and leaves the pool warm and reusable (trials are independent; one
bad spec must not cost the pool).  A *broken* pool (a worker died — e.g.
OOM-killed) is discarded and rebuilt once, and the batch retried from
scratch — trials are pure, so a retry is safe; if the rebuilt pool breaks
too, the batch falls back to in-process serial execution with a warning.

Scheduling: each map call runs through the shared work-stealing
:class:`~repro.exec.stealing.ChunkScheduler` — one feeder thread per
worker lane, one chunk in flight per lane, idle lanes stealing queued
chunks from stragglers — so a slow worker (or an unlucky, expensive
chunk) delays the batch by at most one chunk instead of its whole
pre-assigned share.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from multiprocessing import shared_memory as _shared_memory
from typing import Any, Callable, Iterable

import numpy as np

from ..core.engine import Executor, _DigestCache
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import FlightRecorder
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .health import FleetDegradedWarning
from .stealing import ChunkScheduler

__all__ = ["WorkerPool"]


# ----------------------------------------------------------------------
# Shared-memory input handles
# ----------------------------------------------------------------------
#: Process-local cache of attached shared-memory blocks, keyed by segment
#: name.  Blocks stay attached for the life of the worker process; the
#: parent unlinks a segment once no batch pins it, which on POSIX is safe
#: while mappings remain open.
_SHARED_ATTACHMENTS: dict[str, tuple[Any, np.ndarray]] = {}

#: Unpinned segments a pool keeps for reuse before evicting the least
#: recently published — a pool sweeping over many distinct matrices must
#: not pin every one of them in ``/dev/shm`` until it closes.
_MAX_IDLE_SEGMENTS = 32


class _SharedInput:
    """Pickle-light handle to a fixed input matrix living in shared memory."""

    __slots__ = ("name", "shape", "dtype_str")

    def __init__(self, name: str, shape: tuple[int, ...], dtype: np.dtype):
        self.name = name
        self.shape = shape
        self.dtype_str = np.dtype(dtype).str

    def attach(self) -> np.ndarray:
        """A read-only array view of the segment (cached per process)."""
        cached = _SHARED_ATTACHMENTS.get(self.name)
        if cached is None:
            # Attaching re-registers the segment with the resource tracker
            # (bpo-38119).  Pool workers share the parent's tracker because
            # WorkerPool starts it before forking them, so the registration
            # is an idempotent set-add and the parent's unlink() removes the
            # single entry.  A worker forked before the tracker existed
            # would start its own, which unlinks the segment when the
            # worker exits.
            block = _shared_memory.SharedMemory(name=self.name)
            array = np.ndarray(self.shape, dtype=self.dtype_str, buffer=block.buf)
            array.flags.writeable = False
            cached = (block, array)
            _SHARED_ATTACHMENTS[self.name] = cached
        return cached[1]


_Segment = tuple[_shared_memory.SharedMemory, _SharedInput]


def _create_shared_segment(inputs: np.ndarray) -> _Segment:
    """Copy ``inputs`` into a fresh shared-memory segment; return block + handle."""
    block = _shared_memory.SharedMemory(create=True, size=inputs.nbytes)
    view = np.ndarray(inputs.shape, dtype=inputs.dtype, buffer=block.buf)
    view[:] = inputs
    return block, _SharedInput(block.name, inputs.shape, inputs.dtype)


def _evict_shared_attachment(name: str) -> None:
    """Drop the calling process's cached attachment of segment ``name``.

    The parent may have attached its own view of a segment it published
    (serial fallback for unpicklable tasks); the mapping must be closed
    before the segment is unlinked so it does not outlive its pool.
    """
    cached = _SHARED_ATTACHMENTS.pop(name, None)
    if cached is not None:
        cached[0].close()


def _release_segments(segments: Iterable[_Segment]) -> None:
    for block, handle in segments:
        _evict_shared_attachment(handle.name)
        block.close()
        block.unlink()


def _fresh_tracker_lock() -> None:
    """Pool-worker initializer: replace the inherited resource-tracker lock.

    A worker forked while another parent thread was inside a tracker call
    (creating or unlinking a segment) inherits that lock held by a thread
    that does not exist in the worker, and would deadlock on its first
    attach.  The worker is single-threaded here, so a fresh lock is safe;
    the tracker connection itself is inherited and shared.
    """
    tracker: Any = resource_tracker._resource_tracker  # type: ignore[attr-defined]
    tracker._lock = type(tracker._lock)()  # a fresh lock of the same kind


def _run_chunk(fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
    """One scheduler chunk, executed inside a pool worker process."""
    return [fn(item) for item in items]


class WorkerPool(Executor):
    """A reusable process-pool executor; ``idle_timeout=0`` makes it cold.

    Parameters
    ----------
    max_workers:
        Worker processes; defaults to ``os.cpu_count()``.
    chunksize:
        Items per task shipped to a worker; defaults to
        ``ceil(len(items) / (4 * max_workers))`` per map call.
    idle_timeout:
        Seconds of disuse after which worker processes are reaped (the
        next map call rebuilds them) together with the unpinned shared
        segments.  ``0`` reaps synchronously when the last in-flight map
        ends, with no timer thread (a cold, per-batch pool).  ``None``
        keeps workers forever.
    share_inputs_min_bytes:
        Fixed input matrices at least this large are published once into
        ``multiprocessing.shared_memory`` instead of being pickled into
        every task.

    Use as a context manager (or call :meth:`close`) to release workers
    and shared segments deterministically:

    >>> import numpy as np
    >>> from repro.core import Engine, RunSpec
    >>> from repro.exec import WorkerPool
    >>> from repro.protocols import GlobalParityProtocol
    >>> spec = RunSpec(
    ...     protocol=GlobalParityProtocol(),
    ...     inputs=np.eye(3, dtype=np.uint8),
    ...     seed=0,
    ... )
    >>> with WorkerPool(max_workers=2) as pool:
    ...     engine = Engine(pool)
    ...     first = engine.run_batch(spec, 8)    # builds the workers
    ...     second = engine.run_batch(spec, 8)   # reuses them, warm
    >>> first.outputs == second.outputs          # parity of eye(3) is 1
    True
    >>> int(first.decisions(0).sum())
    8
    """

    name = "pool"

    def __init__(
        self,
        max_workers: int | None = None,
        chunksize: int | None = None,
        idle_timeout: float | None = None,
        share_inputs_min_bytes: int = 1 << 16,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        recorder: "FlightRecorder | None" = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if idle_timeout is not None and idle_timeout < 0:
            raise ValueError("idle_timeout must be >= 0")
        if share_inputs_min_bytes < 1:
            raise ValueError("share_inputs_min_bytes must be >= 1")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.chunksize = chunksize
        self.idle_timeout = idle_timeout
        self.share_inputs_min_bytes = share_inputs_min_bytes
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.RLock()
        self._active_maps = 0
        self._reap_timer: threading.Timer | None = None
        #: Bumped whenever the current timer is cancelled or replaced; a
        #: fired _reap carrying a stale generation must do nothing (it
        #: lost the race to a map that used the pool in the meantime).
        self._reap_generation = 0
        self._closed = False
        #: digest -> (segment block, handle), least recently published first
        self._segments: dict[str, _Segment] = {}
        #: segment name -> publishes not yet released; pinned segments
        #: survive reaps and eviction.
        self._pins: dict[str, int] = {}
        #: Memoizes content digests of fixed inputs across batches.
        self._digest_cache = _DigestCache()
        #: Unified metrics/trace/flight-recorder hooks (private instances
        #: unless shared ones are passed in); the telemetry counters
        #: below are registry-backed views.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.recorder = recorder if recorder is not None else FlightRecorder()

    @property
    def broken_pools(self) -> int:
        """Pools discarded because a worker process died (cumulative)."""
        return int(self.registry.total("pool_broken_total"))

    @property
    def degraded_batches(self) -> int:
        """Batches that degraded to in-process serial execution (each
        also warns with :class:`~repro.exec.health.FleetDegradedWarning`)."""
        return int(self.registry.total("pool_degraded_batches_total"))

    # -- pool lifecycle -------------------------------------------------
    @property
    def warm(self) -> bool:
        """True while worker processes are alive and reusable."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._pool is None:
            # Workers must inherit the parent's resource tracker: one
            # forked before it exists starts its own on first attach, and
            # that tracker unlinks the attached segments when the worker
            # exits — under the parent, which then fails to unlink them.
            resource_tracker.ensure_running()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_fresh_tracker_lock
            )
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _cancel_reap_timer(self) -> None:
        self._reap_generation += 1  # invalidate a fired-but-not-yet-run reap
        if self._reap_timer is not None:
            self._reap_timer.cancel()
            self._reap_timer = None

    def _schedule_reap(self) -> None:
        if self.idle_timeout is None or self._pool is None:
            return
        self._cancel_reap_timer()
        if self.idle_timeout == 0:
            self._reap(self._reap_generation)
            return
        generation = self._reap_generation
        timer = threading.Timer(self.idle_timeout, self._reap, args=(generation,))
        timer.daemon = True
        self._reap_timer = timer
        timer.start()

    def _reap(self, generation: int) -> None:
        with self._lock:
            # Stale timer (a map used the pool since this was armed), or
            # a map started after it fired: either way, keep the pool.
            if generation != self._reap_generation or self._active_maps:
                return
            # A cold pool's workers exit before its map returns.
            self._discard_pool(wait=self.idle_timeout == 0)
            # The workers holding the attachments are gone; free the
            # unpinned segments too so an idle pool pins no shared memory
            # (the next batch simply republishes what it needs).
            segments = self._take_segments(pinned_too=False)
            self._reap_timer = None
        _release_segments(segments)

    def _take_segments(self, pinned_too: bool) -> list[_Segment]:
        """Remove (unpinned, unless ``pinned_too``) segments; caller holds the lock."""
        taken = [
            digest
            for digest, (_block, handle) in self._segments.items()
            if pinned_too or not self._pins.get(handle.name)
        ]
        if pinned_too:
            self._pins.clear()
        self._digest_cache.clear()
        return [self._segments.pop(digest) for digest in taken]

    # -- Executor contract ----------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Run ``fn`` over ``items`` on the pool's workers, in order."""
        items = list(items)
        if not items:
            return []
        probe_exc = self._pickle_probe(fn, items)
        if probe_exc is not None:
            return self._unpicklable_fallback(fn, items, probe_exc)
        chunksize = self.chunksize or self._default_chunksize(
            len(items), self.max_workers
        )
        with self._lock:
            self._cancel_reap_timer()
            pool = self._ensure_pool()
            self._active_maps += 1
        last_exc: Exception = RuntimeError("process pool broke")
        try:
            for attempt in (0, 1):
                try:
                    return self._map_once(pool, fn, items, chunksize)
                except BrokenProcessPool as exc:
                    # A worker died mid-batch.  Trials are pure, so retry
                    # the whole batch once on a rebuilt pool, then give up
                    # on parallelism rather than on the batch.
                    last_exc = exc
                    self.registry.counter("pool_broken_total").inc()
                    self.recorder.record(
                        "pool_broken", attempt=attempt, error=str(exc)
                    )
                    with self._lock:
                        if self._pool is pool:
                            self._discard_pool()
                        if attempt == 0:
                            pool = self._ensure_pool()
            self.registry.counter("pool_degraded_batches_total").inc()
            self.recorder.record(
                "pool_degraded", items=len(items), error=str(last_exc)
            )
            warnings.warn(
                f"WorkerPool running batch serially "
                f"({type(last_exc).__name__}: {last_exc})",
                FleetDegradedWarning,
                stacklevel=2,
            )
            with self.tracer.span("serial_fallback", track="pool", items=len(items)):
                return [fn(item) for item in items]
        finally:
            with self._lock:
                self._active_maps -= 1
                if self._active_maps == 0:
                    self._schedule_reap()

    def _map_once(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[[Any], Any],
        items: list[Any],
        chunksize: int,
    ) -> list[Any]:
        """One attempt at a batch on the current pool.

        One feeder thread per worker lane runs over the shared
        :class:`ChunkScheduler`: each lane keeps exactly one chunk in
        flight, so the pool's task queue never holds more than ``lanes``
        chunks and a lane that finishes early steals queued chunks from
        a straggler instead of idling.  Task exceptions and
        :class:`BrokenProcessPool` both propagate to :meth:`map`, which
        owns the retry/fallback policy.
        """
        lanes = max(1, min(self.max_workers, math.ceil(len(items) / chunksize)))
        scheduler = ChunkScheduler(items, chunksize, lanes, tracer=self.tracer)
        results: list[Any] = [None] * len(items)
        errors: list[BaseException] = []

        def feed(lane: int) -> None:
            while not errors:
                chunk = scheduler.next_chunk(lane)
                if chunk is None:
                    return
                try:
                    with self.tracer.span(
                        "chunk",
                        track=f"lane-{lane}",
                        start=chunk.start,
                        items=len(chunk),
                    ):
                        payload = pool.submit(_run_chunk, fn, chunk.items).result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
                    return
                results[chunk.start : chunk.start + len(chunk)] = payload
                scheduler.mark_done(chunk)

        if lanes == 1:
            feed(0)
        else:
            threads = [
                threading.Thread(target=feed, args=(lane,), daemon=True)
                for lane in range(lanes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return results

    # -- shared-memory input protocol -----------------------------------
    def wants_shared_inputs(self, inputs: np.ndarray) -> bool:
        return (
            self.max_workers > 1
            and inputs.nbytes >= self.share_inputs_min_bytes
        )

    def publish_inputs(self, inputs: np.ndarray) -> _SharedInput | None:
        """Publish once per distinct matrix and pin it until released.

        Keyed by content digest (plus shape/dtype), so every batch over
        the same fixed inputs — the common sweep shape — shares a single
        machine-wide copy, and warm workers keep their attachment from
        one batch to the next.
        """
        if not self.wants_shared_inputs(inputs):
            return None
        digest = self._digest_cache.digest(inputs)
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            cached = self._segments.pop(digest, None)
            if cached is None:
                cached = _create_shared_segment(inputs)
            self._segments[digest] = cached  # most recently published last
            handle = cached[1]
            self._pins[handle.name] = self._pins.get(handle.name, 0) + 1
        return handle

    def release_inputs(self, handle: _SharedInput) -> None:
        """Unpin ``handle``; unlink idle segments no worker can reuse.

        Warm workers keep up to ``_MAX_IDLE_SEGMENTS`` unpinned segments
        for later batches (least recently published go first); a pool
        without live workers keeps none.
        """
        with self._lock:
            pins = self._pins.pop(handle.name, 0) - 1
            if pins > 0:
                self._pins[handle.name] = pins
                return
            idle = [
                key
                for key, (_block, other) in self._segments.items()
                if not self._pins.get(other.name)
            ]
            keep = _MAX_IDLE_SEGMENTS if self._pool is not None else 0
            released = [
                self._segments.pop(key) for key in idle[: max(0, len(idle) - keep)]
            ]
        _release_segments(released)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and unlink every published shared segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_reap_timer()
            pool, self._pool = self._pool, None
            segments = self._take_segments(pinned_too=True)
        if pool is not None:
            pool.shutdown(wait=True)
        _release_segments(segments)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
