"""Distributed execution: the remote worker protocol and its backend.

This module is the repo's first cross-process-boundary protocol.  One or
more *worker* processes (``repro-vp worker serve --listen HOST:PORT``)
each run a :class:`WorkerServer` that executes the engine's registered
worker functions (:data:`repro.engine.worker.WORKER_FUNCTIONS`); on the
engine side, :class:`RemoteBackend` is a fourth
:class:`~repro.engine.backends.ExecutorBackend` that dispatches each
phase's pending work units over TCP to those workers
(``--backend remote --workers host:port[,host:port...]``).

Because the local backends already move plain-JSON payloads with traces
as compressed v3 bytes in both directions, the remote wire format adds
only *framing* on top of the existing task payloads — no task, phase or
cache format changes — and results stay bit-identical to ``serial``
(pinned by ``tests/engine/test_remote_backend.py``).

Wire protocol (normative; also documented in ``docs/architecture.md``):

* **Framing** — every message is one frame: a 4-byte big-endian length
  prefix followed by that many bytes of UTF-8 JSON encoding one object.
  ``bytes`` values (trace payloads) travel as ``{"__b64__": "..."}``
  wrappers anywhere inside the object.  Frames above
  :data:`MAX_FRAME_BYTES` are rejected, so a garbage length prefix fails
  fast instead of attempting a gigabyte read.
* **Handshake** — the engine opens each connection with a ``hello``
  frame carrying :data:`PROTOCOL_VERSION`,
  :data:`~repro.engine.tasks.TASK_FORMAT_VERSION` and
  :data:`~repro.engine.codecs.CACHE_ENTRY_VERSION`.  The worker answers
  ``welcome`` when all three match its own, else ``reject`` with a
  reason; a rejected engine raises immediately.  Pinning the task and
  cache-entry schema versions means a node running older code is refused
  up front — it can never compute entries the engine would cache under a
  newer schema (or vice versa) and poison the shared result cache.
* **Tasks** — ``{"type": "task", "id": N, "function": name, "payload":
  {...}}`` frames name an entry of ``WORKER_FUNCTIONS`` (functions cross
  the wire by registry name, never by pickle); the worker replies, in
  request order per connection, with ``{"type": "result", "id": N,
  "outcome": {...}, "seconds": t}`` — ``seconds`` being the worker-side
  execute time on its own monotonic clock, consumed by utilization
  telemetry only — or, when the task itself raised, ``{"type": "error",
  "id": N, "error": msg, "traceback": text}``.

Failure semantics: a lost worker (connection error, truncated or
undecodable frame, out-of-sequence reply) has its in-flight units pushed
back onto the shared queue and re-dispatched to surviving workers; the
dispatch fails with :class:`~repro.errors.RemoteWorkerError` only when no
worker remains.  A task *error* is never retried — the task graph is
deterministic, so the unit would fail identically anywhere — and
surfaces as :class:`~repro.errors.RemoteTaskError` with the remote
traceback attached.  Handshake rejection always raises
(:class:`~repro.errors.RemoteProtocolError`): a version-mismatched fleet
is a configuration error, not a transient loss.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import struct
import sys
import threading
import time
import traceback
from collections import deque
from typing import Callable, Sequence

from repro.engine.backends import ExecutorBackend
from repro.engine.codecs import CACHE_ENTRY_VERSION
from repro.engine.tasks import TASK_FORMAT_VERSION
from repro.engine.worker import WORKER_FUNCTIONS, worker_function_name
from repro.errors import RemoteProtocolError, RemoteTaskError, RemoteWorkerError

#: Bump when the frame layout, the message schema or the set of worker
#: functions changes incompatibly; the handshake refuses mismatched peers.
#: Version 2: the intra-trace window worker function folded into
#: ``simulate`` (a window travels as ``window``/``state`` payload fields);
#: a version-1 worker would ignore ``state`` and compute a wrong shard.
#: Version 3: the functions are exactly ``trace`` and ``simulate``, and a
#: ``simulate`` unit always covers a whole trace from a fresh predictor;
#: a version-2 engine could still send ``window``/``state`` fields that
#: this worker would ignore, returning a wrong shard.
PROTOCOL_VERSION = 3

#: Upper bound on a single frame's body.  Far above any real payload (a
#: compressed v3 trace is a few hundred kilobytes at paper scale) while
#: small enough that a garbage length prefix is detected immediately.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH_STRUCT = struct.Struct(">I")

#: JSON wrapper key marking a base64-encoded ``bytes`` value on the wire.
_BYTES_KEY = "__b64__"


# --------------------------------------------------------------------------- #
# Wire values: JSON objects with bytes support
# --------------------------------------------------------------------------- #
def encode_wire_value(value):
    """Render a payload/outcome value JSON-compatible (bytes -> base64)."""
    if isinstance(value, bytes):
        return {_BYTES_KEY: base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        return {key: encode_wire_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_wire_value(item) for item in value]
    return value


def decode_wire_value(value):
    """Invert :func:`encode_wire_value` (base64 wrappers -> bytes)."""
    if isinstance(value, dict):
        if set(value) == {_BYTES_KEY}:
            return base64.b64decode(value[_BYTES_KEY])
        return {key: decode_wire_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_wire_value(item) for item in value]
    return value


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def send_frame(sock: socket.socket, message: dict) -> int:
    """Send one length-prefixed JSON frame; returns the bytes put on the wire."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    data = _LENGTH_STRUCT.pack(len(body)) + body
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({count - remaining} of {count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, meter: Callable[[int], None] | None = None
) -> dict | None:
    """Receive one frame; ``None`` on clean EOF.

    ``meter``, when given, is called with the frame's total wire size
    (header + body) once the body has been read — the hook both sides'
    byte accounting hangs off.  Raises :class:`RemoteProtocolError` for
    every malformed shape — truncated header or body, oversized length
    prefix, undecodable JSON, or a body that is not an object — so
    callers treat any of them as a peer that cannot be trusted further.
    """
    header = _recv_exactly(sock, _LENGTH_STRUCT.size)
    if header is None:
        return None
    (length,) = _LENGTH_STRUCT.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit "
            "(garbage length prefix?)"
        )
    body = _recv_exactly(sock, length)
    if body is None:
        raise RemoteProtocolError("connection closed between frame header and body")
    if meter is not None:
        meter(_LENGTH_STRUCT.size + length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RemoteProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise RemoteProtocolError(f"frame body is not an object: {type(message).__name__}")
    return message


def parse_worker_address(address: str, allow_ephemeral: bool = False) -> tuple[str, int]:
    """Parse a ``host:port`` worker address.

    ``allow_ephemeral`` admits port 0 — meaningful only for a *listen*
    address (``worker serve --listen``), where it asks the OS for a free
    port; a dial address of 0 is always an error.
    """
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"invalid worker address {address!r} (expected host:port)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid worker address {address!r}: bad port {port_text!r}") from None
    if not (0 if allow_ephemeral else 1) <= port < 65536:
        raise ValueError(f"invalid worker address {address!r}: port out of range")
    return host, port


def _versions() -> dict:
    return {
        "protocol": PROTOCOL_VERSION,
        "task_format": TASK_FORMAT_VERSION,
        "cache_entry": CACHE_ENTRY_VERSION,
    }


def _version_mismatches(hello: dict) -> list[str]:
    """Human-readable list of version fields on which ``hello`` disagrees."""
    mismatches = []
    for field, local in _versions().items():
        offered = hello.get(field)
        if offered != local:
            mismatches.append(f"{field} {offered!r} != {local!r}")
    return mismatches


# --------------------------------------------------------------------------- #
# Worker side: the serving process
# --------------------------------------------------------------------------- #
class WorkerServer:
    """A warm worker process serving engine connections on one TCP port.

    Reuses :mod:`repro.engine.worker`'s task execution: each accepted
    connection is handshake-checked, then serves ``task`` frames
    sequentially in request order (an engine pipelines up to its
    per-worker in-flight limit, so the socket buffer hides the request
    latency).  Multiple engine connections are served concurrently, each
    on its own thread.  A misbehaving client — garbage frames, version
    mismatch, abrupt disconnect — only loses its own connection; the
    server keeps accepting.

    ``start()`` binds and serves in background threads (in-process use
    and tests; ``port=0`` picks a free port, see :attr:`port`), while
    :meth:`serve_forever` blocks until :meth:`stop` — the CLI's
    ``repro-vp worker serve`` path.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.tasks_served = 0
        self.connections_served = 0
        self.handshakes_rejected = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        #: Cumulative worker-side execute time (perf-counter measured);
        #: the same per-task numbers travel back in the result frames.
        self.execute_seconds = 0.0
        self._started_perf = time.perf_counter()
        self._stats_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connection_threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopped = threading.Event()

    @property
    def address(self) -> str:
        """The ``host:port`` string engines pass to ``--workers``."""
        return f"{self.host}:{self.port}"

    def start(self) -> "WorkerServer":
        """Bind the listening socket and serve in background threads."""
        if self._listener is not None:
            return self
        listener = socket.create_server((self.host, self.port))
        # A close() from stop() does not reliably wake a thread blocked in
        # accept(); a short timeout lets the loop poll the stop flag.
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(
        self, stats_interval: float | None = None, stats_stream=None
    ) -> None:
        """Serve until :meth:`stop` is called (from a signal handler or peer).

        ``stats_interval`` (seconds, the CLI's ``worker serve
        --stats-interval``) periodically prints :meth:`stats_line` to
        ``stats_stream`` (stderr by default), so a long-running fleet
        worker is no longer silent.
        """
        self.start()
        stream = stats_stream if stats_stream is not None else sys.stderr
        next_stats = (
            time.perf_counter() + stats_interval
            if stats_interval is not None and stats_interval > 0
            else None
        )
        # Polling wait keeps the main thread responsive to KeyboardInterrupt.
        while not self._stopped.wait(0.2):
            if next_stats is not None and time.perf_counter() >= next_stats:
                print(self.stats_line(), file=stream, flush=True)
                next_stats = time.perf_counter() + stats_interval

    def stats_line(self) -> str:
        """One human-readable line of cumulative serving statistics."""
        uptime = time.perf_counter() - self._started_perf
        return (
            f"worker {self.address}: up {uptime:.0f}s, "
            f"{self.tasks_served} task(s) served ({self.execute_seconds:.2f}s execute), "
            f"{self.connections_served} connection(s), "
            f"{self.bytes_received} B in, {self.bytes_sent} B out"
        )

    def stop(self) -> None:
        """Stop accepting, close every connection, join the threads; idempotent."""
        self._stopped.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            open_connections = list(self._connections)
            threads = list(self._connection_threads)
        for sock in open_connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Serving internals
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped.is_set():
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed by stop()
            sock.settimeout(None)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            )
            with self._lock:
                self._connections.add(sock)
                # Prune finished threads so a long-serving worker does not
                # accumulate one dead Thread per connection ever served.
                self._connection_threads = [
                    existing for existing in self._connection_threads if existing.is_alive()
                ]
                self._connection_threads.append(thread)
            thread.start()

    def _count_received(self, count: int) -> None:
        with self._stats_lock:
            self.bytes_received += count

    def _send(self, sock: socket.socket, message: dict) -> None:
        sent = send_frame(sock, message)
        with self._stats_lock:
            self.bytes_sent += sent

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            if not self._handshake(sock):
                return
            with self._stats_lock:
                self.connections_served += 1
            while not self._stopped.is_set():
                frame = recv_frame(sock, meter=self._count_received)
                if frame is None or frame.get("type") == "shutdown":
                    return
                if frame.get("type") != "task":
                    raise RemoteProtocolError(
                        f"unexpected frame type {frame.get('type')!r} (expected 'task')"
                    )
                self._execute(sock, frame)
        except (RemoteProtocolError, OSError, ConnectionError):
            # A broken or malicious client loses its connection; the
            # server keeps serving everyone else.
            pass
        finally:
            with self._lock:
                self._connections.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _handshake(self, sock: socket.socket) -> bool:
        frame = recv_frame(sock, meter=self._count_received)
        if frame is None:
            return False
        if frame.get("type") != "hello":
            raise RemoteProtocolError(
                f"expected hello frame, got {frame.get('type')!r}"
            )
        mismatches = _version_mismatches(frame)
        if mismatches:
            with self._stats_lock:
                self.handshakes_rejected += 1
            self._send(
                sock,
                {
                    "type": "reject",
                    "reason": "version mismatch: " + ", ".join(mismatches),
                    **_versions(),
                },
            )
            return False
        self._send(sock, {"type": "welcome", "pid": os.getpid(), **_versions()})
        return True

    def _execute(self, sock: socket.socket, frame: dict) -> None:
        frame_id = frame.get("id")
        name = frame.get("function")
        function = WORKER_FUNCTIONS.get(name)
        if function is None:
            self._send(
                sock,
                {
                    "type": "error",
                    "id": frame_id,
                    "error": f"unknown worker function {name!r}",
                    "traceback": None,
                },
            )
            return
        started = time.perf_counter()
        try:
            outcome = function(decode_wire_value(frame.get("payload") or {}))
        except Exception as error:  # noqa: BLE001 - forwarded to the engine
            self._send(
                sock,
                {
                    "type": "error",
                    "id": frame_id,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                },
            )
            return
        # The worker's own execute time rides on the result frame so the
        # engine can split queue-wait from execute per worker without any
        # cross-host clock agreement (durations only, never timestamps).
        seconds = time.perf_counter() - started
        with self._stats_lock:
            self.tasks_served += 1
            self.execute_seconds += seconds
        self._send(
            sock,
            {
                "type": "result",
                "id": frame_id,
                "outcome": encode_wire_value(outcome),
                "seconds": seconds,
            },
        )


# --------------------------------------------------------------------------- #
# Engine side: one connection per worker
# --------------------------------------------------------------------------- #
class _WorkerLink:
    """One handshaken connection from the engine to a worker process.

    The wire counters (frames/bytes per direction) are cumulative over
    the link's lifetime; each link is driven by exactly one thread per
    dispatch, so they need no locking.
    """

    def __init__(self, label: str, host: str, port: int) -> None:
        self.label = label
        self.host = host
        self.port = port
        self.worker_pid: int | None = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._sock: socket.socket | None = None
        self._next_id = 0

    def _count_received(self, count: int) -> None:
        self.bytes_received += count

    def connect(self, timeout: float) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=timeout)
        try:
            sock.settimeout(timeout)
            self.bytes_sent += send_frame(
                sock, {"type": "hello", "pid": os.getpid(), **_versions()}
            )
            self.frames_sent += 1
            reply = recv_frame(sock, meter=self._count_received)
            if reply is None:
                raise RemoteProtocolError(
                    f"worker {self.label} closed the connection during the handshake"
                )
            if reply.get("type") == "reject":
                raise RemoteProtocolError(
                    f"worker {self.label} rejected the handshake: "
                    f"{reply.get('reason', 'no reason given')}"
                )
            if reply.get("type") != "welcome":
                raise RemoteProtocolError(
                    f"worker {self.label} sent {reply.get('type')!r} instead of welcome"
                )
            self.worker_pid = reply.get("pid")
            self.frames_received += 1
            # Task execution time is unbounded (it scales with the trace),
            # so only the handshake runs under a timeout.
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send_task(self, frame_id: int, function_name: str, wire_payload: dict) -> None:
        self.bytes_sent += send_frame(
            self._sock,
            {
                "type": "task",
                "id": frame_id,
                "function": function_name,
                "payload": wire_payload,
            },
        )
        self.frames_sent += 1

    def recv(self) -> dict:
        frame = recv_frame(self._sock, meter=self._count_received)
        if frame is None:
            raise RemoteProtocolError(f"worker {self.label} closed the connection")
        self.frames_received += 1
        return frame

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class _MapState:
    """Shared bookkeeping of one dispatch across the per-worker threads."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.cond = threading.Condition()
        self.pending: deque[int] = deque(range(total))
        self.results: list[dict | None] = [None] * total
        self.done = [False] * total
        self.completed = 0
        self.next_report = 0
        self.task_error: RemoteTaskError | None = None
        #: Engine-side failure (a raising progress callback, an unexpected
        #: bug in a driver thread); re-raised by ``map`` so a defect can
        #: never degrade into an eternal idle-wait.
        self.internal_error: Exception | None = None
        #: Driver threads still running; set by ``map`` before start and
        #: decremented as each exits, so an idle thread can tell "work is
        #: in flight elsewhere" from "no one holds the missing units".
        self.active = 0
        #: Per-worker utilization bookkeeping, label -> dict; each driver
        #: thread deposits its own numbers on exit and ``map`` turns them
        #: into ``remote.worker`` telemetry events.
        self.worker_stats: dict[str, dict] = {}

    def fatal(self) -> bool:
        """Whether the dispatch is already doomed (stop taking work)."""
        return self.task_error is not None or self.internal_error is not None


class RemoteBackend(ExecutorBackend):
    """Dispatches phase batches to ``repro-vp worker serve`` processes.

    Work units go into one shared queue; each connected worker is driven
    by its own thread, which keeps up to ``in_flight`` units pipelined on
    the connection and feeds outcomes back in completion order (progress
    callbacks still fire in input order, like every other backend).  A
    worker lost mid-dispatch has its in-flight units pushed back onto the
    queue for the survivors; the dispatch fails only when no worker
    remains.  Connections are established lazily on the first dispatch
    that actually has pending work — a fully warm run never touches the
    network — and stay warm across phases and runs until :meth:`close`.

    ``in_flight`` is wired to the CLI's ``--jobs`` flag: it bounds how
    many units one worker holds at a time, trading scheduling slack
    (larger values hide request latency) against re-dispatch cost when a
    worker is lost.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[str],
        in_flight: int = 2,
        connect_timeout: float = 10.0,
    ) -> None:
        # Deduplicated in order: a repeated address must not put two
        # driver threads on one socket (interleaved replies would read as
        # a protocol violation and lose a healthy worker).
        addresses = list(dict.fromkeys(address for address in workers if address))
        if not addresses:
            raise ValueError("remote backend needs at least one worker address")
        self.addresses = [(address, parse_worker_address(address)) for address in addresses]
        self.in_flight = max(1, int(in_flight))
        self.connect_timeout = connect_timeout
        self._links: dict[str, _WorkerLink] = {}
        #: Workers excluded for the backend's lifetime, label -> reason.
        self.lost_workers: dict[str, str] = {}

    def inline_payloads(self, task_count: int) -> bool:
        return False

    def parallel_slots(self) -> int:
        # Each worker pipelines up to ``in_flight`` units; lost workers
        # still count, because the figure is advisory and the fleet may
        # heal between dispatches.
        return max(1, len(self.addresses) * self.in_flight)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _ensure_links(self) -> list[_WorkerLink]:
        links = []
        for label, (host, port) in self.addresses:
            if label in self.lost_workers:
                continue
            link = self._links.get(label)
            if link is None:
                link = _WorkerLink(label, host, port)
                try:
                    link.connect(self.connect_timeout)
                except RemoteProtocolError:
                    # Handshake rejection (version mismatch) is a fleet
                    # configuration error, never a transient loss.
                    raise
                except OSError as error:
                    self.lost_workers[label] = f"connect failed: {error}"
                    continue
                self._links[label] = link
            links.append(link)
        if not links:
            raise RemoteWorkerError(
                "no remote workers reachable: " + self._lost_summary()
            )
        return links

    def _lost_summary(self) -> str:
        if not self.lost_workers:
            return "none configured"
        return "; ".join(
            f"{label} ({reason})" for label, reason in self.lost_workers.items()
        )

    def close(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def map(
        self,
        function: Callable[[dict], dict],
        payloads: Sequence[dict],
        on_result: Callable[[int], None] | None = None,
    ) -> list[dict]:
        if not payloads:
            return []
        function_name = worker_function_name(function)
        wire_payloads = [encode_wire_value(payload) for payload in payloads]
        links = self._ensure_links()
        state = _MapState(len(payloads))
        state.active = len(links)
        threads = [
            threading.Thread(
                target=self._drive_worker,
                args=(link, state, function_name, wire_payloads, on_result),
                name=f"repro-remote-{link.label}",
                daemon=True,
            )
            for link in links
        ]
        with self.telemetry.span(
            "dispatch",
            backend=self.name,
            units=len(payloads),
            workers=len(links),
            in_flight=self.in_flight,
        ):
            dispatch_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self._emit_worker_events(state, time.perf_counter() - dispatch_started)
        if state.task_error is not None:
            raise state.task_error
        if state.internal_error is not None:
            raise state.internal_error
        if state.completed != state.total:
            remaining = state.total - state.completed
            raise RemoteWorkerError(
                f"{remaining} work unit(s) left unexecuted after every remote "
                f"worker was lost: {self._lost_summary()}"
            )
        return state.results

    def _emit_worker_events(self, state: _MapState, dispatch_seconds: float) -> None:
        """One ``remote.worker`` event per driver thread of a dispatch.

        ``busy_seconds`` sums the execute times the worker shipped back in
        its result frames — durations measured on the worker's own clock,
        so utilization needs no cross-host clock agreement.
        """
        for label, stats in sorted(state.worker_stats.items()):
            busy = stats["busy_seconds"]
            self.telemetry.event(
                "remote.worker",
                worker=label,
                pid=stats["pid"],
                tasks=stats["tasks"],
                busy_seconds=busy,
                utilization=busy / dispatch_seconds if dispatch_seconds > 0 else 0.0,
                peak_in_flight=stats["peak_in_flight"],
                frames_sent=stats["frames_sent"],
                frames_received=stats["frames_received"],
                bytes_sent=stats["bytes_sent"],
                bytes_received=stats["bytes_received"],
            )
            self.telemetry.count("remote.bytes_sent", stats["bytes_sent"])
            self.telemetry.count("remote.bytes_received", stats["bytes_received"])
            self.telemetry.count("remote.frames_sent", stats["frames_sent"])
            self.telemetry.count("remote.frames_received", stats["frames_received"])

    def _drive_worker(
        self,
        link: _WorkerLink,
        state: _MapState,
        function_name: str,
        wire_payloads: list[dict],
        on_result: Callable[[int], None] | None,
    ) -> None:
        inflight: deque[tuple[int, int]] = deque()  # (frame id, payload index)
        wire_base = {
            "frames_sent": link.frames_sent,
            "frames_received": link.frames_received,
            "bytes_sent": link.bytes_sent,
            "bytes_received": link.bytes_received,
        }
        tasks_done = 0
        busy_seconds = 0.0
        peak_in_flight = 0
        try:
            while True:
                to_send: list[tuple[int, int]] = []
                with state.cond:
                    while (
                        not state.fatal()
                        and state.pending
                        and len(inflight) < self.in_flight
                    ):
                        index = state.pending.popleft()
                        entry = (link.next_id(), index)
                        inflight.append(entry)
                        to_send.append(entry)
                    peak_in_flight = max(peak_in_flight, len(inflight))
                    if not inflight:
                        if state.fatal() or state.completed == state.total:
                            return
                        if state.active <= 1:
                            # No other driver holds the missing units: a
                            # defect dropped them.  Exit so map() reports
                            # the shortfall instead of waiting forever.
                            return
                        # Everything left is in flight on other workers;
                        # stay available in case one of them is lost and
                        # its units land back on the queue.
                        state.cond.wait(timeout=0.05)
                        continue
                for frame_id, index in to_send:
                    link.send_task(frame_id, function_name, wire_payloads[index])
                frame = link.recv()
                expected_id, index = inflight[0]
                kind = frame.get("type")
                if kind not in ("result", "error") or frame.get("id") != expected_id:
                    raise RemoteProtocolError(
                        f"worker {link.label} answered frame {expected_id} with "
                        f"{kind!r} id {frame.get('id')!r}"
                    )
                if kind == "error":
                    inflight.popleft()
                    self._record_task_error(link, state, frame)
                    continue  # drain our remaining in-flight replies, then exit
                try:
                    outcome = decode_wire_value(frame.get("outcome"))
                except Exception as error:
                    # Valid JSON framing around an undecodable body (bad
                    # base64, ...) is still the worker's fault.  The unit
                    # stays in ``inflight`` so the loss path requeues it.
                    raise RemoteProtocolError(
                        f"worker {link.label} sent an undecodable outcome "
                        f"for frame {expected_id}: {error}"
                    ) from error
                inflight.popleft()
                tasks_done += 1
                seconds = frame.get("seconds")
                if isinstance(seconds, (int, float)):
                    busy_seconds += seconds
                with state.cond:
                    state.results[index] = outcome
                    state.done[index] = True
                    state.completed += 1
                    while (
                        state.next_report < state.total
                        and state.done[state.next_report]
                    ):
                        reported = state.next_report
                        state.next_report += 1
                        if on_result is not None:
                            on_result(reported)
                    if state.completed == state.total:
                        state.cond.notify_all()
        except (OSError, ConnectionError, RemoteProtocolError) as error:
            # Worker lost: push its in-flight units back for the
            # survivors and exclude it for the backend's lifetime.
            link.close()
            with state.cond:
                self.lost_workers[link.label] = str(error)
                self._links.pop(link.label, None)
                state.pending.extendleft(
                    index for _, index in reversed(inflight)
                )
                state.cond.notify_all()
            self.telemetry.event(
                "remote.redispatch",
                worker=link.label,
                units=len(inflight),
                reason=str(error),
            )
            self.telemetry.count("remote.redispatched_units", len(inflight))
        except Exception as error:
            # Engine-side failure (e.g. a raising progress callback): a
            # driver thread must never die silently — that would leave
            # its peers idle-waiting on work that can no longer finish.
            link.close()
            with state.cond:
                self._links.pop(link.label, None)
                if state.internal_error is None:
                    state.internal_error = error
                state.pending.extendleft(
                    index for _, index in reversed(inflight)
                )
                state.cond.notify_all()
        finally:
            with state.cond:
                state.active -= 1
                state.worker_stats[link.label] = {
                    "pid": link.worker_pid,
                    "tasks": tasks_done,
                    "busy_seconds": busy_seconds,
                    "peak_in_flight": peak_in_flight,
                    "frames_sent": link.frames_sent - wire_base["frames_sent"],
                    "frames_received": link.frames_received - wire_base["frames_received"],
                    "bytes_sent": link.bytes_sent - wire_base["bytes_sent"],
                    "bytes_received": link.bytes_received - wire_base["bytes_received"],
                }
                state.cond.notify_all()

    def _record_task_error(
        self, link: _WorkerLink, state: _MapState, frame: dict
    ) -> None:
        with state.cond:
            if state.task_error is None:
                remote_traceback = frame.get("traceback")
                detail = f"\n--- remote traceback ---\n{remote_traceback}" if remote_traceback else ""
                state.task_error = RemoteTaskError(
                    f"task failed on worker {link.label}: "
                    f"{frame.get('error', 'unknown error')}{detail}",
                    remote_traceback=remote_traceback,
                )
            state.pending.clear()
            state.cond.notify_all()
