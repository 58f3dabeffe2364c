"""Pluggable executor backends for the engine's dispatch step.

The phase executor (:mod:`repro.engine.phases`) is backend-agnostic: it
hands an :class:`ExecutorBackend` a worker function plus a sequence of
JSON-compatible payloads, each built when the backend reads it, and
expects the outcomes back **in input order**, each also handed to a
completion callback as it arrives.  Three
implementations cover one machine:

* :class:`SerialBackend` — everything in-process, no pickling.  Payloads
  may carry live objects (``inline_payloads`` is always true), tracebacks
  stay readable, and there is zero process overhead: the right choice for
  debugging and small runs, and the reference semantics the other
  backends must reproduce bit-identically.
* :class:`PoolBackend` — a fresh process pool per dispatch, the engine's
  historical ``jobs > 1`` behaviour.  Each phase pays the pool's
  fork + start-up cost once, which amortises well over large phases.
* :class:`PersistentWorkerBackend` — worker subprocesses spawned once,
  on first use, and kept warm across phases *and* across engine runs for
  the lifetime of the backend object.  Repeated small dispatches (a
  campaign's trace phase followed by its simulate phase, a CLI process
  running several sweeps) skip the per-dispatch fork cost the pool
  backend pays every time.

Because a backend only changes *where* a work unit executes — payloads and
outcomes are the same JSON dicts everywhere — results are bit-identical
across backends for every cache temperature; ``tests/engine/test_backends.py``
pins that parity.

Both process backends run on :class:`concurrent.futures.ProcessPoolExecutor`.
A work unit's own exception reaches the caller with its original type; a
worker process that dies mid-dispatch (killed, out of memory) breaks the
executor, and the dispatch raises :class:`~repro.errors.DispatchError`
instead of waiting forever for an outcome that will never arrive.  Closing
a pool, whether a dispatch succeeded or failed, terminates its workers, so
an error (a task's, a progress callback's, a ``KeyboardInterrupt``)
reaches the caller without waiting for the units still running.

Worker processes are forked from the parent, so they inherit the predictor
registry as of backend start-up.  A registry re-binding made *after* a
persistent backend spawned its workers is caught by the worker-side
configuration-signature check (:mod:`repro.engine.worker`), which fails
loudly rather than simulating a stale configuration.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.telemetry import NULL_TELEMETRY
from repro.errors import DispatchError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Names accepted by :func:`resolve_backend` and the CLI's ``--backend``.
BACKEND_NAMES = ("serial", "pool", "persistent")


class ExecutorBackend:
    """Executes one dispatch of independent work units, in input order.

    Subclasses implement :meth:`map`; :meth:`inline_payloads` tells the
    scheduler whether payloads for an upcoming dispatch may carry live
    (unpicklable) objects, and :meth:`close` releases any held resources.
    Backends are context managers (``close`` on exit).

    ``telemetry`` is stamped by the engine before each dispatch (a shared
    backend instance may serve several engines with different sinks);
    backends emit a ``dispatch`` span per :meth:`map` call and never
    change outcomes based on it.
    """

    #: Human-readable backend identifier (the CLI flag value).
    name = "abstract"

    #: Telemetry sink for dispatch spans; engines overwrite this before
    #: every dispatch, and the null default makes standalone use cheap.
    telemetry = NULL_TELEMETRY

    def inline_payloads(self, task_count: int) -> bool:
        """Whether a dispatch of ``task_count`` units runs in-process.

        When true, payloads may embed live objects (e.g. a ``ValueTrace``)
        and skip serialisation entirely; when false they must be picklable
        and traces should travel as compressed v3 bytes.
        """
        raise NotImplementedError

    def parallel_slots(self) -> int:
        """How many units this backend can run concurrently.

        It never affects results.  The phase executor cuts a dispatch of
        fewer work units than this into this many payloads
        (:func:`~repro.engine.phases.dispatch_chunks`), and utilization
        accounting (``perfbench/layers.py``) divides busy time by it.
        In-process backends report 1.
        """
        return 1

    def map(
        self,
        function: Callable[[dict], dict],
        payloads: Sequence[dict],
        on_result: Callable[[int, dict], None] | None = None,
    ) -> list[dict]:
        """Run ``function`` over ``payloads``; return outcomes in order.

        ``payloads`` may build each payload when it is read
        (:class:`~repro.engine.phases.UnitPayloads`): a backend reads each
        one once, in order, when it dispatches that unit, and keeps it no
        longer than the unit needs it.  ``on_result`` is invoked with the
        payload index and its outcome as each outcome arrives (always in
        input order), so the caller can settle every unit before the
        dispatch ends: a dispatch that fails later has already handed over
        the units that finished.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _map_serial(
    function: Callable[[dict], dict],
    payloads: Sequence[dict],
    on_result: Callable[[int, dict], None] | None,
) -> list[dict]:
    results: list[dict] = []
    # Indexed, not iterated: no loop variable keeps a unit's payload (and
    # the trace in it) alive while the next one is built.
    for index in range(len(payloads)):
        results.append(function(payloads[index]))
        if on_result is not None:
            on_result(index, results[index])
    return results


def _new_executor(workers: int) -> ProcessPoolExecutor:
    # Imported here so that serial runs never load multiprocessing or the
    # executor's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context())


def _map_executor(
    executor: ProcessPoolExecutor,
    function: Callable[[dict], dict],
    payloads: Sequence[dict],
    on_result: Callable[[int, dict], None] | None,
) -> list[dict]:
    """Submit every unit, then collect the outcomes in input order.

    A dead worker breaks the executor, which fails every unfinished
    future at once; that surfaces as :class:`DispatchError`.  Any other
    exception (a task's own, or one from ``on_result``) propagates as is.
    Either way the units not yet started are cancelled.
    """
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    results: list[dict] = []
    try:
        futures = [executor.submit(function, payload) for payload in payloads]
        for index, future in enumerate(futures):
            results.append(future.result())
            if on_result is not None:
                on_result(index, results[index])
    except BrokenProcessPool as error:
        raise DispatchError(
            f"a worker process died after {len(results)} of {len(payloads)} "
            f"unit(s) returned ({error})"
        ) from error
    finally:
        for future in futures[len(results) :]:
            future.cancel()
    return results


class SerialBackend(ExecutorBackend):
    """In-process execution: no pickling, no subprocesses, no startup cost."""

    name = "serial"

    def inline_payloads(self, task_count: int) -> bool:
        return True

    def map(self, function, payloads, on_result=None):
        with self.telemetry.span("dispatch", backend=self.name, units=len(payloads)):
            return _map_serial(function, payloads, on_result)


class PoolBackend(ExecutorBackend):
    """A fresh process pool per dispatch (historical ``jobs > 1``).

    A dispatch of at most one unit runs in-process instead — spinning up a
    pool for a single task costs more than it saves — which is why
    :meth:`inline_payloads` is true exactly for ``task_count <= 1``.
    """

    name = "pool"

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))

    def inline_payloads(self, task_count: int) -> bool:
        return self.jobs == 1 or task_count <= 1

    def parallel_slots(self) -> int:
        return self.jobs

    def map(self, function, payloads, on_result=None):
        if self.inline_payloads(len(payloads)):
            with self.telemetry.span(
                "dispatch", backend=self.name, units=len(payloads), inline=True
            ):
                return _map_serial(function, payloads, on_result)
        workers = min(self.jobs, len(payloads))
        with self.telemetry.span(
            "dispatch", backend=self.name, units=len(payloads), workers=workers
        ) as span:
            pool_started = time.perf_counter()
            executor = _new_executor(workers)
            try:
                # Startup is the pool backend's recurring cost (one fork
                # per worker per dispatch) — the number the persistent
                # backend exists to amortise away.
                span.set(startup_seconds=time.perf_counter() - pool_started)
                return _map_executor(executor, function, payloads, on_result)
            finally:
                _terminate_executor(executor)


def _terminate_executor(executor: ProcessPoolExecutor) -> None:
    """Stop a worker pool now, killing units still running (finalizer-safe)."""
    try:
        # The executor has no public way to stop running work; terminating
        # its workers makes it fail what is left, after which shutdown no
        # longer waits.  Read before shutdown, which drops the reference.
        for process in list((executor._processes or {}).values()):
            process.terminate()
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


class PersistentWorkerBackend(ExecutorBackend):
    """Warm worker subprocesses reused across dispatches, phases and runs.

    The pool is spawned lazily on the first dispatch and kept alive until
    :meth:`close` (or garbage collection / interpreter exit via a
    ``weakref`` finalizer).  Every dispatch goes to the warm workers,
    including single-unit ones, so ``inline_payloads`` is always false and
    payloads must stay picklable.  A dispatch that loses a worker raises
    :class:`DispatchError` and drops the broken pool, so the next dispatch
    starts a fresh one; a worker that dies while idle between dispatches
    loses no unit, so the next dispatch just replaces the broken pool.
    """

    name = "persistent"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None
        self._finalizer = None

    def inline_payloads(self, task_count: int) -> bool:
        return False

    def parallel_slots(self) -> int:
        return self.jobs

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = _new_executor(self.jobs)
            self._finalizer = weakref.finalize(self, _terminate_executor, self._executor)
        return self._executor

    def map(self, function, payloads, on_result=None):
        if not payloads:
            return []
        # The executor sets ``_broken`` as soon as any worker dies, busy or not.
        if self._executor is not None and self._executor._broken:
            self.close()
        warm = self._executor is not None
        with self.telemetry.span(
            "dispatch",
            backend=self.name,
            units=len(payloads),
            workers=self.jobs,
            warm=warm,
        ):
            try:
                return _map_executor(self._ensure_executor(), function, payloads, on_result)
            except DispatchError:
                self.close()
                raise

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._executor = None


def resolve_backend(backend: "str | ExecutorBackend | None", jobs: int) -> ExecutorBackend:
    """Map an engine's ``backend`` argument to a backend instance.

    ``None`` preserves the engine's historical behaviour: in-process for
    ``jobs == 1``, a per-dispatch pool otherwise.  A string selects by
    name (``"serial"``, ``"pool"``, ``"persistent"``), sized by ``jobs``;
    an :class:`ExecutorBackend` instance is used as-is (the caller owns
    its lifetime — one persistent backend can serve many engines).
    """
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        backend = "serial" if jobs <= 1 else "pool"
    if backend == "serial":
        return SerialBackend()
    # The process backends fork their workers from this process and every
    # task runs on numpy arrays: importing numpy and the kernel before
    # anything forks spares each worker its own import (about 0.13 s of
    # CPU apiece for numpy).
    import numpy  # noqa: F401

    import repro.simulation.vectorized  # noqa: F401

    if backend == "pool":
        return PoolBackend(jobs)
    if backend == "persistent":
        return PersistentWorkerBackend(jobs)
    raise ValueError(
        f"unknown executor backend {backend!r} (expected one of {', '.join(BACKEND_NAMES)})"
    )
