"""The distributed worker: an authenticated serve loop for task frames.

One worker process serves one or more client connections.  Every
connection starts with the :class:`~repro.exec.wire.WireSession`
challenge–response handshake (mutual HMAC proofs over a per-worker
shared secret, optional TLS underneath); after it, each frame is
schema-encoded — **never pickle** — and carries a MAC over the session
nonce and a strict sequence number, so a tampered or replayed frame is
refused before it is even decoded.  The frame vocabulary is closed:

* ``("ping",)`` → ``("pong",)`` — liveness probe;
* ``("register_fn", digest, fn_bytes)`` → ``("ok", None)`` — cache the
  schema-encoded task callable under its content ``digest``.  The
  worker verifies the digest against the bytes, stores them **encoded**,
  and decodes a fresh callable per map frame — decoding resolves only
  :func:`~repro.exec.wire.register_wire_function` /
  :func:`~repro.exec.wire.register_wire_type` names, so the worker never
  executes code shipped in a frame, it looks up code it already has;
* ``("map", fn_digest, items)`` → ``("ok", [fn(x) for x in items])`` on
  success or ``("err", exception, traceback_text)`` if a task raised —
  the client re-raises task errors, exactly like a local executor
  would.  A map naming a digest this worker does not hold is answered
  ``("need_fn", digest)`` and the client re-registers (how a restarted
  worker transparently refills).  A tracing client appends a span-context
  id as an optional fourth element; workers accept both shapes;
* ``("publish_inputs", digest, shape, dtype, codec, data)`` →
  ``("ok", None)`` — cache a fixed input matrix under its content
  ``digest``; ``codec`` is negotiated per session (``gf2pack`` bit-packs
  GF(2) matrices to an eighth of the raw bytes).  The cache is shared by
  every connection of this serve loop and survives across connections
  and map calls, so a client re-running batches over the same inputs
  ships the matrix **once per worker**, not once per batch.  A map whose
  function references a digest this worker does not hold is answered
  ``("need", digest)`` and the client republishes;
* ``("release_inputs", digest)`` → ``("ok", None)`` — drop a cached
  matrix (sent by ``DistributedExecutor.close``);
* closing the connection ends the session.

Authentication is mandatory; the shared secret comes from
``--secret-file``, the ``REPRO_WIRE_SECRET`` environment variable, or
(for loopback development only) the well-known dev secret.  ``--tls-cert``
/ ``--tls-key`` additionally wrap every connection in TLS.  See
``docs/robustness.md`` for the threat model and key distribution.

Run a worker from the command line::

    python -m repro.exec.worker --host 0.0.0.0 --port 9123 --processes 4 \\
        --secret-file /run/secrets/repro-wire

``--processes k`` executes tasks on one local
:class:`~repro.exec.pool.WorkerPool` of ``k`` workers shared by every
connection, so one remote host contributes up to ``k`` cores in total;
the default runs tasks inline in each connection's serving thread.
``--fault-plan plan.json`` (with ``--fault-site``) arms the serve loop
with a deterministic :class:`~repro.exec.faults.FaultPlan` schedule —
real-subprocess chaos for the conformance suite; see
``docs/robustness.md``.
:func:`serve` is also importable directly, which is how the in-process
:class:`~repro.exec.distributed.LoopbackWorker` used by the test-suite
hosts the same loop on a background thread.

>>> import socket
>>> from repro.exec.wire import recv_frame, send_frame
>>> left, right = socket.socketpair()
>>> send_frame(left, ("ping",))
>>> recv_frame(right)
('ping',)
>>> left.close(); right.close()
"""

from __future__ import annotations

import argparse
import logging
import socket
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..core.engine import _content_digest
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, NullTracer, Tracer
from .faults import MANGLE_KINDS, FaultEvent, FaultInjector, FaultPlan, send_mangled
from .pool import WorkerPool, _SharedInput
from .wire import (
    MAX_FRAME_BYTES,
    CorruptFrameError,
    FrameAuthenticationError,
    SchemaViolationError,
    WireProtocolError,
    WireSession,
    decode_array_payload,
    decode_value,
    function_digest,
)

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ssl

__all__ = [
    "PublishedInput",
    "MAX_FRAME_BYTES",
    "serve",
    "main",
]


class PublishedInput:
    """Wire-protocol handle to a fixed input matrix cached on a worker.

    The distributed twin of the shared-memory ``_SharedInput`` handle:
    instead of encoding a large fixed input matrix into every map frame,
    the client publishes it once per worker (``publish_inputs`` frame,
    keyed by content ``digest``) and subsequent frames carry only this
    handle.  The serve loop *binds* the handle to its cached array
    before executing the chunk — :meth:`attach` (called by the engine's
    trial runner) then returns the bound array.

    Serialization is asymmetric on purpose: an **unbound** handle
    serializes to digest + metadata only (what travels over the wire).
    On the worker, the serve loop binds the handle before executing the
    chunk — either to the cached array directly (inline execution), or
    to a segment the worker's local :class:`~repro.exec.pool.WorkerPool`
    published (:meth:`bind_shared`), so a large matrix is **not**
    re-serialized into every chunk of the serve-to-pool hop.
    """

    __slots__ = ("digest", "shape", "dtype_str", "_array", "_shared")

    def __init__(
        self,
        digest: str,
        shape: tuple[int, ...],
        dtype_str: str,
        array: "np.ndarray | None" = None,
    ):
        self.digest = digest
        self.shape = tuple(shape)
        self.dtype_str = dtype_str
        self._array = array
        self._shared: _SharedInput | None = None

    @property
    def bound(self) -> bool:
        """True once the worker resolved the digest to its cached matrix."""
        return self._array is not None or self._shared is not None

    def bind(self, array: np.ndarray) -> None:
        """Resolve the handle to the worker's cached matrix."""
        self._array = array

    def bind_shared(self, shared: "_SharedInput") -> None:
        """Resolve the handle to a shared-memory segment of the matrix.

        A handle bound this way serializes as the segment reference, so
        a worker's local process pool attaches the one machine-wide copy
        instead of receiving the bytes inside every chunk.
        """
        self._shared = shared

    def attach(self) -> np.ndarray:
        """The bound input matrix (the trial runner's accessor)."""
        if self._array is None:
            if self._shared is None:
                raise LookupError(
                    f"inputs {self.digest[:12]}… were never published to "
                    "this worker (protocol error: expected a "
                    "('need', digest) reply)"
                )
            self._array = self._shared.attach()
        return self._array

    def __getstate__(self) -> tuple[Any, ...]:
        # Prefer the segment reference when present: the array itself
        # must not ride along too.
        array = None if self._shared is not None else self._array
        return (self.digest, self.shape, self.dtype_str, array, self._shared)

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        (self.digest, self.shape, self.dtype_str, self._array, self._shared) = state


class _InputStore:
    """One serve loop's cache of published input matrices.

    LRU-bounded (a worker serving many clients — or one client sweeping
    over many distinct matrices — must not grow without limit; eviction
    is safe because a map referencing an evicted digest gets a
    ``("need", digest)`` reply and the client republishes).
    """

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._arrays: dict[str, np.ndarray] = {}

    def put(self, digest: str, array: np.ndarray) -> None:
        """Store a decoded ``publish_inputs`` matrix under its digest."""
        with self._lock:
            self._arrays.pop(digest, None)
            self._arrays[digest] = array
            while len(self._arrays) > self.max_entries:
                oldest = next(iter(self._arrays))
                del self._arrays[oldest]

    def get(self, digest: str) -> "np.ndarray | None":
        with self._lock:
            return self._arrays.get(digest)

    def release(self, digest: str) -> None:
        with self._lock:
            self._arrays.pop(digest, None)

    def close(self) -> None:
        with self._lock:
            self._arrays.clear()


class _FnStore:
    """One serve loop's cache of registered task callables, **encoded**.

    Bytes in, bytes out: the store never holds decoded callables — each
    map frame decodes a fresh instance, so per-chunk binding semantics
    (a ``PublishedInput`` bound for one chunk) never leak across frames,
    and eviction is as safe as for inputs (a map naming an evicted
    digest gets ``("need_fn", digest)`` and the client re-registers).
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._encoded: dict[str, bytes] = {}

    def put(self, digest: str, fn_bytes: bytes) -> None:
        if function_digest(fn_bytes) != digest:
            raise SchemaViolationError(
                f"register_fn digest mismatch for {digest[:12]}…"
            )
        with self._lock:
            self._encoded.pop(digest, None)
            self._encoded[digest] = fn_bytes
            while len(self._encoded) > self.max_entries:
                del self._encoded[next(iter(self._encoded))]

    def get(self, digest: str) -> "bytes | None":
        with self._lock:
            encoded = self._encoded.get(digest)
            if encoded is not None:
                # Refresh the LRU position: a hot callable must not be
                # the one evicted under churn.
                self._encoded.pop(digest)
                self._encoded[digest] = encoded
            return encoded


def _run_chunk(
    fn: Callable[[Any], Any],
    items: list[Any],
    pool: WorkerPool | None,
) -> list[Any]:
    if pool is None:
        return [fn(item) for item in items]
    return pool.map(fn, items)


#: Frame kind → the fault scope its replies are scheduled under.
#: ``register_fn`` shares the ``publish`` scope: both are idempotent
#: content-addressed uploads with the same self-healing reply path.
_FRAME_SCOPES = {
    "ping": "ping",
    "publish_inputs": "publish",
    "register_fn": "publish",
    "release_inputs": "release",
    "map": "map",
}


def _reply(session: WireSession, obj: Any, fault: "FaultEvent | None") -> bool:
    """Send a reply frame, mangled if the planned fault says so.

    Returns ``False`` when the connection must close afterwards (a
    mangled frame is followed by a close, so the client's decoder sees
    the damage immediately instead of waiting out a socket timeout).
    """
    if fault is not None and fault.kind in MANGLE_KINDS:
        send_mangled(session, obj, fault.kind)
        return False
    session.send(obj)
    return True


def _task_error_reply(exc: BaseException) -> tuple[Any, ...]:
    return ("err", exc, traceback.format_exc())


def _handle_connection(
    conn: socket.socket,
    pool: WorkerPool | None,
    max_requests: int | None,
    input_store: _InputStore,
    fn_store: _FnStore,
    request_delay: float = 0.0,
    fault_injector: "FaultInjector | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    secret: "bytes | str | None" = None,
    ssl_context: "ssl.SSLContext | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Serve one client until it disconnects (or ``max_requests`` frames).

    The connection is TLS-wrapped first (when the serve loop has a
    server context) and then authenticated with the
    :class:`~repro.exec.wire.WireSession` handshake; a failed handshake
    is logged, counted (``worker_handshakes_total{outcome=...}``), and
    closed without serving a single frame.  ``max_requests`` counts
    post-handshake frames — fault-injection for tests: a worker that
    hangs up after N frames exercises the client's mid-batch
    redistribution path deterministically.  ``request_delay`` sleeps
    that long before each map frame — latency injection modelling a
    slow or overloaded host (see ``benchmarks/bench_exec_steal.py``).
    ``input_store`` / ``fn_store`` are the serve loop's digest-keyed
    stores of published inputs and registered callables, shared across
    this worker's connections.  ``fault_injector`` is consulted once per
    received frame and applies the richer planned-fault vocabulary of
    :mod:`repro.exec.faults`.
    """
    try:
        try:
            if ssl_context is not None:
                conn = ssl_context.wrap_socket(conn, server_side=True)
            session = WireSession.server(conn, secret)
        except WireProtocolError as exc:
            if registry is not None:
                registry.counter(
                    "worker_handshakes_total", outcome="auth"
                ).inc()
            logger.warning("handshake failed: %s", exc)
            return
        except (OSError, EOFError) as exc:
            if registry is not None:
                registry.counter(
                    "worker_handshakes_total", outcome="error"
                ).inc()
            logger.warning("handshake transport failure: %s", exc)
            return
        if registry is not None:
            registry.counter("worker_handshakes_total", outcome="ok").inc()
        served = 0
        while max_requests is None or served < max_requests:
            if fault_injector is not None and fault_injector.hung:
                # A wedged process answers nothing on any connection —
                # including this one, mid-session.
                fault_injector.wait_while_hung()
                return
            try:
                message = session.recv()
            except (FrameAuthenticationError, CorruptFrameError) as exc:
                # A client-side frame that fails verification or schema
                # decoding: refuse it loudly (counted) and drop the
                # connection — never execute a frame that did not verify.
                if registry is not None:
                    reason = (
                        "auth"
                        if isinstance(exc, FrameAuthenticationError)
                        else "corrupt"
                    )
                    registry.counter(
                        "worker_frames_rejected_total", reason=reason
                    ).inc()
                logger.warning("rejected inbound frame: %s", exc)
                return
            except ConnectionError:
                return
            if not (
                isinstance(message, tuple)
                and message
                and isinstance(message[0], str)
            ):
                session.send(
                    ("err", SchemaViolationError("malformed frame"), "")
                )
                continue
            kind = message[0]
            fault = (
                fault_injector.next_fault(_FRAME_SCOPES.get(kind, "map"))
                if fault_injector is not None
                else None
            )
            if fault is not None:
                if fault.kind == "hang":
                    fault_injector.hang()
                    return
                if fault.kind == "crash":
                    # Close without replying: the client sees a clean
                    # mid-request EOF, exactly like a killed process.
                    return
                if fault.kind == "slow":
                    time.sleep(fault.delay)
            if kind == "ping":
                if not _reply(session, ("pong",), fault):
                    return
                continue
            if kind == "register_fn":
                try:
                    if len(message) != 3:
                        raise SchemaViolationError("malformed register_fn frame")
                    _, digest, fn_bytes = message
                    if not isinstance(digest, str) or not isinstance(
                        fn_bytes, bytes
                    ):
                        raise SchemaViolationError("malformed register_fn frame")
                    if fault is None or fault.kind != "lose_publish":
                        fn_store.put(digest, fn_bytes)
                    reply: tuple[Any, ...] = ("ok", None)
                except Exception as exc:  # noqa: BLE001 - shipped back
                    reply = _task_error_reply(exc)
                if not _reply(session, reply, fault):
                    return
                served += 1
                continue
            if kind == "publish_inputs":
                try:
                    if len(message) != 6:
                        raise SchemaViolationError(
                            "malformed publish_inputs frame"
                        )
                    _, digest, shape, dtype_str, codec, data = message
                    array = decode_array_payload(
                        codec, data, tuple(shape), dtype_str
                    )
                    # The digest is the content address: verifying it
                    # here means a cached matrix can never disagree with
                    # the digest map frames reference it by.
                    if _content_digest(array) != digest:
                        raise SchemaViolationError(
                            f"publish_inputs digest mismatch for "
                            f"{str(digest)[:12]}…"
                        )
                    if fault is None or fault.kind != "lose_publish":
                        input_store.put(digest, array)
                    reply = ("ok", None)
                except Exception as exc:  # noqa: BLE001 - shipped back
                    reply = _task_error_reply(exc)
                if not _reply(session, reply, fault):
                    return
                served += 1
                continue
            if kind == "release_inputs":
                if len(message) == 2 and isinstance(message[1], str):
                    input_store.release(message[1])
                if not _reply(session, ("ok", None), fault):
                    return
                served += 1
                continue
            if kind != "map":
                session.send(
                    ("err", ValueError(f"unknown frame kind {kind!r}"), "")
                )
                continue
            if not (
                3 <= len(message) <= 4
                and isinstance(message[1], str)
                and isinstance(message[2], list)
            ):
                session.send(
                    ("err", SchemaViolationError("malformed map frame"), "")
                )
                continue
            # Tracing clients append a span-context id as an optional
            # fourth element; both frame shapes are accepted.
            _, fn_digest, items = message[:3]
            ctx = message[3] if len(message) > 3 else None
            fn_bytes = fn_store.get(fn_digest)
            if fn_bytes is None:
                # Tell the client to register (e.g. this worker
                # restarted, or its bounded cache evicted the callable)
                # instead of failing the chunk.
                if not _reply(session, ("need_fn", fn_digest), fault):
                    return
                continue
            try:
                fn = decode_value(fn_bytes)
            except ConnectionError as exc:
                # Undecodable despite a verified digest: a registry
                # asymmetry between client and worker (e.g. a function
                # registered only client-side).  A task error, not a
                # transport one — the client surfaces it.
                session.send(_task_error_reply(exc))
                continue
            handle = getattr(fn, "shared_input", None)
            shared: _SharedInput | None = None
            if isinstance(handle, PublishedInput) and not handle.bound:
                cached = input_store.get(handle.digest)
                if cached is None:
                    # Tell the client to publish (e.g. this worker
                    # restarted and lost its cache) instead of failing
                    # the chunk.
                    if not _reply(session, ("need", handle.digest), fault):
                        return
                    continue
                # Pinned in the pool until this chunk is done with it.
                shared = pool.publish_inputs(cached) if pool is not None else None
                if shared is not None:
                    handle.bind_shared(shared)
                else:
                    handle.bind(cached)
            if request_delay > 0.0:
                time.sleep(request_delay)
            closing = False
            try:
                with tracer.span(
                    "exec_chunk", track="worker", items=len(items), ctx=ctx
                ):
                    payload = _run_chunk(fn, items, pool)
                closing = not _reply(session, ("ok", payload), fault)
            except Exception as exc:  # noqa: BLE001 - shipped to the client
                session.send(_task_error_reply(exc))
            finally:
                if shared is not None:
                    pool.release_inputs(shared)
            if closing:
                return
            served += 1
    finally:
        conn.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    processes: int = 0,
    stop_event: threading.Event | None = None,
    ready_callback: Callable[[tuple[str, int]], None] | None = None,
    max_requests_per_connection: int | None = None,
    request_delay: float = 0.0,
    max_cached_inputs: int = 32,
    max_cached_fns: int = 64,
    fault_injector: "FaultInjector | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    secret: "bytes | str | None" = None,
    ssl_context: "ssl.SSLContext | None" = None,
    registry: "MetricsRegistry | None" = None,
) -> None:
    """Accept connections and execute task frames until ``stop_event`` is set.

    ``port=0`` binds an OS-assigned port; ``ready_callback`` receives the
    actual ``(host, port)`` once listening — how in-process loopback
    workers discover their address.  ``processes > 0`` fans each chunk
    out over a local :class:`~repro.exec.pool.WorkerPool`.
    ``request_delay`` injects that many seconds of latency before each
    map frame (a synthetic slow host).
    ``fault_injector`` arms the loop with a deterministic
    :class:`~repro.exec.faults.FaultPlan` schedule: it is consulted on
    every accepted connection (any ``accept``-scope fault closes the
    connection immediately — the observable shape of a refused or reset
    connection injected from inside a listening process) and on every
    received frame; the loop releases any hung connections when it
    exits.  Accept-scope faults fire *before* the handshake — a refused
    connection refuses everyone equally — while frame faults mangle
    authenticated traffic **after** the MAC is computed, so chaos cells
    exercise the client's verification path.

    ``secret`` is this worker's shared authentication secret
    (:func:`~repro.exec.wire.resolve_secret` semantics: explicit value,
    else ``REPRO_WIRE_SECRET``, else the development secret).
    ``ssl_context`` (a ``PROTOCOL_TLS_SERVER`` context) additionally
    wraps every accepted connection in TLS.  ``registry`` receives the
    worker-side handshake / rejected-frame counters.

    Published fixed inputs live in a digest-keyed store scoped to this
    serve call: shared by all its connections, LRU-bounded at
    ``max_cached_inputs`` distinct matrices (clients refill evicted
    digests via the ``("need", digest)`` reply), published to the local
    pool's shared memory for the chunks that use them when
    ``processes > 0``, and released when the loop returns.  Registered
    task callables live in a twin store (``max_cached_fns``, healed via
    ``("need_fn", digest)``), kept as verified encoded bytes and decoded
    fresh per map frame.

    ``tracer`` records a ``worker``-track span per executed chunk,
    tagged with the span-context id the client's map frame carried (if
    any) — for in-process loopback workers this is typically the
    *client's* tracer, so both sides land in one timeline.
    """
    # Every published matrix goes to the pool's shared memory, however
    # small: the chunks then carry a segment name instead of the array.
    pool = (
        WorkerPool(max_workers=processes, share_inputs_min_bytes=1)
        if processes > 0
        else None
    )
    input_store = _InputStore(max_cached_inputs)
    fn_store = _FnStore(max_cached_fns)
    server = socket.create_server((host, port))
    server.settimeout(0.1)
    threads: list[threading.Thread] = []
    try:
        if ready_callback is not None:
            ready_callback(server.getsockname()[:2])
        while stop_event is None or not stop_event.is_set():
            # A long-lived worker sees many short connections; drop the
            # handles of finished handlers so the list stays bounded.
            threads = [thread for thread in threads if thread.is_alive()]
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            if fault_injector is not None:
                accept_fault = fault_injector.next_fault("accept")
                if accept_fault is not None:
                    # Whatever the kind, an accept-scope fault denies
                    # the client this connection ("refuse" in plans).
                    conn.close()
                    continue
            thread = threading.Thread(
                target=_handle_connection,
                args=(
                    conn,
                    pool,
                    max_requests_per_connection,
                    input_store,
                    fn_store,
                    request_delay,
                    fault_injector,
                    tracer,
                    secret,
                    ssl_context,
                    registry,
                ),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
    finally:
        server.close()
        if fault_injector is not None:
            # Release connections blocked in the sticky hung state so
            # their handler threads can exit.
            fault_injector.stop()
        for thread in threads:
            thread.join(timeout=1.0)
        if pool is not None:
            pool.close()
        input_store.close()


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: parse flags, announce the bound address, serve."""
    parser = argparse.ArgumentParser(
        description="Serve repro.exec tasks to DistributedExecutor clients."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=9123,
        help="TCP port to listen on (0 = OS-assigned; the actual port is "
        "printed once listening)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        help="size of the local process pool shared by all connections "
        "(0 = run tasks inline in each connection's thread)",
    )
    parser.add_argument(
        "--max-cached-inputs",
        type=int,
        default=32,
        help="LRU bound on distinct published input matrices kept cached "
        "(evicted digests are transparently republished by clients)",
    )
    parser.add_argument(
        "--secret-file",
        metavar="FILE",
        default=None,
        help="file holding the shared authentication secret (whitespace-"
        "stripped).  Without it the secret comes from the "
        "REPRO_WIRE_SECRET environment variable, falling back to the "
        "well-known development secret (loopback testing only).",
    )
    parser.add_argument(
        "--tls-cert",
        metavar="PEM",
        default=None,
        help="serve TLS with this certificate chain (requires --tls-key)",
    )
    parser.add_argument(
        "--tls-key",
        metavar="PEM",
        default=None,
        help="private key for --tls-cert",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="arm the serve loop with a deterministic fault schedule: a "
        "JSON file written by FaultPlan.to_json() (chaos testing; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--fault-site",
        default="worker-0",
        help="which site's schedule of --fault-plan this worker plays "
        "(default: worker-0)",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error", "critical"),
        help="stdlib logging threshold for worker diagnostics, emitted "
        "on stderr (default: warning).  The port-announce line always "
        "goes to stdout regardless — scripts parse it as the readiness "
        "signal.",
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )

    secret: "bytes | None" = None
    if args.secret_file is not None:
        with open(args.secret_file, "rb") as handle:
            secret = handle.read().strip()
        if not secret:
            parser.error(f"--secret-file {args.secret_file} is empty")

    ssl_context = None
    if (args.tls_cert is None) != (args.tls_key is None):
        parser.error("--tls-cert and --tls-key must be given together")
    if args.tls_cert is not None:
        import ssl as _ssl

        ssl_context = _ssl.SSLContext(_ssl.PROTOCOL_TLS_SERVER)
        ssl_context.load_cert_chain(args.tls_cert, args.tls_key)

    injector = None
    if args.fault_plan is not None:
        with open(args.fault_plan, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
        injector = plan.injector(args.fault_site)
        logger.info(
            "armed fault plan %s (site %s)", args.fault_plan, args.fault_site
        )

    def announce(bound: tuple[str, int]) -> None:
        # The one deliberate print: with --port 0 this line is the only
        # way to learn the OS-assigned port, and scripts treat it as the
        # readiness signal — its exact shape on *stdout* is API
        # (logging goes to stderr and is reconfigurable, this is not).
        print(f"repro.exec worker listening on {bound[0]}:{bound[1]}", flush=True)
        logger.info(
            "serving on %s:%s (processes=%d, max_cached_inputs=%d, tls=%s)",
            bound[0],
            bound[1],
            args.processes,
            args.max_cached_inputs,
            "on" if ssl_context is not None else "off",
        )

    serve(
        args.host,
        args.port,
        processes=args.processes,
        ready_callback=announce,
        max_cached_inputs=args.max_cached_inputs,
        fault_injector=injector,
        secret=secret,
        ssl_context=ssl_context,
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    try:
        # ``python -m repro.exec.worker`` executes this file as
        # ``__main__`` while the frames it receives reference
        # ``repro.exec.worker.PublishedInput`` — two distinct class
        # objects unless we delegate to the canonical module.
        from repro.exec.worker import main as _canonical_main
    except ImportError:
        _canonical_main = main
    _canonical_main()
