"""Remote-backend suite: parity with the local backends and failure paths.

Extends the backend contract of ``tests/engine/test_backends.py`` to the
distributed executor: a two-worker remote run must produce bit-identical
campaign and sweep results — and byte-identical cache entries — to the
serial reference, because a backend only decides *where* a work unit
executes.  On top of parity, this file pins the worker protocol's failure
semantics: handshake rejection on version mismatch, re-dispatch after a
worker dies mid-task, a clean error (never a hang) when every worker is
lost, and robustness to truncated or garbage frames on both sides.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.backends import resolve_backend
from repro.engine.remote import (
    PROTOCOL_VERSION,
    RemoteBackend,
    WorkerServer,
    decode_wire_value,
    encode_wire_value,
    parse_worker_address,
    recv_frame,
    send_frame,
)
from repro.engine.codecs import CACHE_ENTRY_VERSION
from repro.engine.sweeps import SweepSpec
from repro.engine.tasks import TASK_FORMAT_VERSION
from repro.engine.worker import WORKER_FUNCTIONS, execute_trace_task, worker_function_name
from repro.errors import (
    DispatchError,
    RemoteProtocolError,
    RemoteTaskError,
    RemoteWorkerError,
)

SCALE = 0.05
BENCHMARKS = ("compress", "m88ksim")
PREDICTORS = ("l", "s2", "fcm2")


def _entry_names(cache_dir):
    """Relative entry paths of a cache directory (digest-addressed)."""
    return sorted(
        str(path.relative_to(cache_dir))
        for path in cache_dir.glob("*/*/*")
        if path.is_file()
    )


def _entry_bytes(cache_dir):
    """Map of relative entry path -> file contents."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for path in cache_dir.glob("*/*/*")
        if path.is_file()
    }


@pytest.fixture
def worker_pair():
    """Two live in-process worker servers on ephemeral loopback ports."""
    with WorkerServer() as first, WorkerServer() as second:
        yield first, second


# --------------------------------------------------------------------------- #
# Parity with the serial reference
# --------------------------------------------------------------------------- #
class TestRemoteParity:
    def test_campaign_bit_identical_and_same_cache_bytes(self, tmp_path, worker_pair):
        serial_dir = tmp_path / "cache-serial"
        remote_dir = tmp_path / "cache-remote"
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=serial_dir, backend="serial")
        ) as engine:
            reference = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        addresses = [server.address for server in worker_pair]
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=remote_dir, backend="remote", workers=addresses),
        ) as engine:
            remote = engine.run(scale=SCALE, predictors=PREDICTORS, benchmarks=BENCHMARKS)
        assert remote.benchmarks() == reference.benchmarks()
        for benchmark in BENCHMARKS:
            assert remote.statistics[benchmark] == reference.statistics[benchmark]
            assert remote.simulations[benchmark] == reference.simulations[benchmark]
            assert (
                remote.simulations[benchmark].subset_counts
                == reference.simulations[benchmark].subset_counts
            )
        # Byte-identical entries under identical names: what a remote
        # worker computed is indistinguishable from local work.
        assert _entry_bytes(remote_dir) == _entry_bytes(serial_dir)
        # Both workers actually participated.
        assert all(server.tasks_served > 0 for server in worker_pair)

    def test_sweep_bit_identical_and_same_cache_entries(self, tmp_path, worker_pair):
        spec = SweepSpec(
            benchmark="gcc", scale=SCALE, inputs=("gcc.i", "jump.i"), predictors=("l", "fcm2")
        )
        serial_dir = tmp_path / "cache-serial"
        remote_dir = tmp_path / "cache-remote"
        with ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=serial_dir, backend="serial")
        ) as engine:
            reference = engine.run_sweep(spec)
        addresses = [server.address for server in worker_pair]
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=remote_dir, backend="remote", workers=addresses),
        ) as engine:
            remote = engine.run_sweep(spec)
        assert len(remote.points) == len(reference.points) == 4
        for left, right in zip(remote.points, reference.points):
            assert left.point == right.point
            assert left.record_count == right.record_count
            assert left.statistics == right.statistics
            assert left.result == right.result
        assert _entry_names(remote_dir) == _entry_names(serial_dir)

    def test_cache_written_by_remote_workers_warms_local_backend(self, tmp_path, worker_pair):
        cache_dir = tmp_path / "cache"
        addresses = [server.address for server in worker_pair]
        with ExecutionEngine(
            EngineConfig(jobs=2, cache_dir=cache_dir, backend="remote", workers=addresses),
        ) as engine:
            cold = engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        warm_engine = ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir, backend="serial"))
        warm = warm_engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert warm_engine.stats.traces_computed == 0
        assert warm_engine.stats.simulations_computed == 0
        assert warm.simulations["compress"] == cold.simulations["compress"]

    def test_fully_warm_remote_run_never_dials_workers(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(EngineConfig(jobs=1, cache_dir=cache_dir)) as engine:
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        # No worker is listening on this port; a fully warm run must not care.
        warm = ExecutionEngine(
            EngineConfig(jobs=1, cache_dir=cache_dir, backend="remote", workers=["127.0.0.1:1"]),
        )
        result = warm.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        assert warm.stats.tasks_computed == 0
        assert set(result.simulations) == {"compress"}


# --------------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------------- #
class TestWireFormat:
    def test_bytes_roundtrip_anywhere_in_payload(self):
        payload = {
            "trace_bytes": b"\x00\x01\xfe",
            "nested": {"blob": b"abc", "text": "abc"},
            "list": [b"", 1, None, ["x", b"y"]],
        }
        assert decode_wire_value(encode_wire_value(payload)) == payload

    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "task", "id": 7, "payload": encode_wire_value(b"hi")})
            frame = recv_frame(right)
            assert frame["id"] == 7
            assert decode_wire_value(frame["payload"]) == b"hi"
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_header_and_body_raise(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00")  # half a length prefix
            left.close()
            with pytest.raises(RemoteProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100) + b"short")
            left.close()
            with pytest.raises(RemoteProtocolError):
                recv_frame(right)
        finally:
            right.close()

    def test_garbage_length_prefix_rejected_without_huge_read(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(RemoteProtocolError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_json_and_non_object_frames_raise(self):
        for body in (b"\xc3(", b"[1, 2]"):
            left, right = socket.socketpair()
            try:
                left.sendall(struct.pack(">I", len(body)) + body)
                with pytest.raises(RemoteProtocolError):
                    recv_frame(right)
            finally:
                left.close()
                right.close()

    def test_parse_worker_address(self):
        assert parse_worker_address("localhost:8750") == ("localhost", 8750)
        assert parse_worker_address("127.0.0.1:0", allow_ephemeral=True) == ("127.0.0.1", 0)
        for bad in ("no-port", ":8750", "host:", "host:notaport", "host:0", "host:70000"):
            with pytest.raises(ValueError):
                parse_worker_address(bad)

    def test_worker_function_names_roundtrip(self):
        for name, function in WORKER_FUNCTIONS.items():
            assert worker_function_name(function) == name
        with pytest.raises(ValueError, match="not a registered worker function"):
            worker_function_name(lambda payload: payload)

    def test_worker_functions_are_trace_simulate_replay(self):
        # Windows ride the "simulate" function; a change to this set
        # changes what a peer can be asked to run, so it moves the
        # protocol version with it.
        assert sorted(WORKER_FUNCTIONS) == ["replay", "simulate", "trace"]
        assert PROTOCOL_VERSION == 2


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
def _dial(server: WorkerServer) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestHandshake:
    def test_version_mismatch_is_rejected(self, worker_pair):
        server, _ = worker_pair
        sock = _dial(server)
        try:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "task_format": TASK_FORMAT_VERSION + 1,
                    "cache_entry": 999,
                },
            )
            reply = recv_frame(sock)
            assert reply["type"] == "reject"
            assert "task_format" in reply["reason"]
            assert "cache_entry" in reply["reason"]
            # The server then closes the connection.
            assert recv_frame(sock) is None
        finally:
            sock.close()
        assert server.handshakes_rejected == 1

    def test_protocol_1_peer_is_refused_before_any_task(self, worker_pair):
        # Protocol 2 folded the window worker into "simulate"; a protocol-1
        # worker would ignore a window's `state`, so either side refuses
        # the other at the handshake.
        server, _ = worker_pair
        sock = _dial(server)
        try:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "protocol": 1,
                    "task_format": TASK_FORMAT_VERSION,
                    "cache_entry": CACHE_ENTRY_VERSION,
                },
            )
            reply = recv_frame(sock)
            assert reply["type"] == "reject"
            assert "protocol 1 != 2" in reply["reason"]
            assert recv_frame(sock) is None
        finally:
            sock.close()
        assert server.handshakes_rejected == 1
        assert server.tasks_served == 0

    def test_rejected_backend_raises_protocol_error(self, worker_pair, monkeypatch):
        server, _ = worker_pair
        # Skew only the *client's* view of the task format; the in-process
        # server compares against the true module constant.
        import repro.engine.remote as remote_module

        real_versions = remote_module._versions

        def skewed_versions():
            versions = real_versions()
            versions["task_format"] += 1
            return versions

        monkeypatch.setattr(
            remote_module._WorkerLink,
            "connect",
            _patched_connect_with(skewed_versions),
        )
        backend = RemoteBackend([server.address])
        with pytest.raises(RemoteProtocolError, match="rejected the handshake"):
            backend.map(execute_trace_task, [_trace_payload()])
        backend.close()

    def test_mismatch_is_dispatch_error_with_phase_context(self, worker_pair, monkeypatch):
        server, _ = worker_pair
        import repro.engine.remote as remote_module

        real_versions = remote_module._versions

        def skewed_versions():
            versions = real_versions()
            versions["cache_entry"] += 1
            return versions

        monkeypatch.setattr(
            remote_module._WorkerLink,
            "connect",
            _patched_connect_with(skewed_versions),
        )
        engine = ExecutionEngine(EngineConfig(jobs=1, backend="remote", workers=[server.address]))
        with pytest.raises(DispatchError, match="trace phase"):
            engine.run(scale=SCALE, predictors=("l",), benchmarks=("compress",))
        engine.close()

    def test_non_hello_first_frame_drops_connection(self, worker_pair):
        server, _ = worker_pair
        sock = _dial(server)
        try:
            send_frame(sock, {"type": "task", "id": 1, "function": "trace", "payload": {}})
            assert recv_frame(sock) is None
        finally:
            sock.close()
        _assert_still_serving(server)


def _patched_connect_with(versions_factory):
    """A ``_WorkerLink.connect`` sending versions from ``versions_factory``."""
    import repro.engine.remote as remote_module

    def connect(self, timeout):
        sock = socket.create_connection((self.host, self.port), timeout=timeout)
        sock.settimeout(timeout)
        send_frame(sock, {"type": "hello", "pid": os.getpid(), **versions_factory()})
        reply = recv_frame(sock)
        if reply is None or reply.get("type") == "reject":
            sock.close()
            reason = "closed" if reply is None else reply.get("reason")
            raise RemoteProtocolError(
                f"worker {self.label} rejected the handshake: {reason}"
            )
        sock.settimeout(None)
        self._sock = sock

    return connect


def _trace_payload(benchmark: str = "compress") -> dict:
    return {"benchmark": benchmark, "scale": SCALE, "input": None, "flags": None}


def _assert_still_serving(server: WorkerServer) -> None:
    """The server must keep serving proper clients after a bad one."""
    backend = RemoteBackend([server.address])
    try:
        outcomes = backend.map(execute_trace_task, [_trace_payload()])
        assert "digest" in outcomes[0]
    finally:
        backend.close()


# --------------------------------------------------------------------------- #
# Worker loss and task failure
# --------------------------------------------------------------------------- #
class _RogueWorker:
    """A protocol-speaking server that misbehaves after the handshake.

    ``mode="die-after-task"`` accepts the handshake and the first task
    frame, then drops the connection without answering — the shape of a
    worker process killed mid-task.  ``mode="garbage"`` answers the first
    task frame with bytes that are not a frame at all.
    ``mode="bad-base64"`` answers with a well-framed result whose outcome
    carries an undecodable ``__b64__`` wrapper.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.tasks_taken = 0
        self._stopped = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)  # lets _serve poll the stop flag
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            sock.settimeout(None)
            try:
                hello = recv_frame(sock)
                if hello is None:
                    continue
                send_frame(
                    sock,
                    {
                        "type": "welcome",
                        "pid": os.getpid(),
                        "protocol": hello.get("protocol"),
                        "task_format": hello.get("task_format"),
                        "cache_entry": hello.get("cache_entry"),
                    },
                )
                frame = recv_frame(sock)
                if frame is not None and frame.get("type") == "task":
                    self.tasks_taken += 1
                    if self.mode == "garbage":
                        sock.sendall(b"this is not a frame and never will be")
                    elif self.mode == "bad-base64":
                        send_frame(
                            sock,
                            {
                                "type": "result",
                                "id": frame.get("id"),
                                "outcome": {"__b64__": "!not base64!"},
                            },
                        )
                # die-after-task: fall through and close without replying.
            except (RemoteProtocolError, OSError):
                pass
            finally:
                sock.close()

    def close(self) -> None:
        self._stopped.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


class TestWorkerLoss:
    def test_worker_killed_mid_task_redispatches_to_survivor(self, worker_pair):
        survivor, _ = worker_pair
        rogue = _RogueWorker("die-after-task")
        try:
            backend = RemoteBackend([rogue.address, survivor.address], in_flight=1)
            payloads = [_trace_payload("compress"), _trace_payload("m88ksim")] * 2
            reported = []
            outcomes = backend.map(
                execute_trace_task, payloads, on_result=reported.append
            )
            assert len(outcomes) == len(payloads)
            assert all("digest" in outcome for outcome in outcomes)
            # Duplicate payloads must produce identical outcomes whichever
            # worker (or re-dispatch) computed them.
            assert outcomes[0]["digest"] == outcomes[2]["digest"]
            assert reported == list(range(len(payloads)))
            # The rogue actually took work that then had to be re-dispatched.
            assert rogue.tasks_taken >= 1
            assert rogue.address in backend.lost_workers
            backend.close()
        finally:
            rogue.close()

    def test_undecodable_outcome_counts_as_worker_loss_not_hang(self, worker_pair):
        survivor, _ = worker_pair
        rogue = _RogueWorker("bad-base64")
        try:
            backend = RemoteBackend([rogue.address, survivor.address], in_flight=1)
            outcomes = backend.map(execute_trace_task, [_trace_payload()] * 4)
            assert len(outcomes) == 4
            assert rogue.address in backend.lost_workers
            assert "undecodable outcome" in backend.lost_workers[rogue.address]
            backend.close()
        finally:
            rogue.close()

    def test_raising_progress_callback_propagates_instead_of_hanging(self, worker_pair):
        server, _ = worker_pair
        backend = RemoteBackend([server.address])

        def explode(index):
            raise RuntimeError("listener bug")

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="listener bug"):
            backend.map(execute_trace_task, [_trace_payload()] * 2, on_result=explode)
        assert time.monotonic() - started < 30.0
        backend.close()

    def test_duplicate_worker_addresses_are_deduplicated(self, worker_pair):
        server, _ = worker_pair
        backend = RemoteBackend([server.address, server.address], in_flight=1)
        assert len(backend.addresses) == 1
        outcomes = backend.map(execute_trace_task, [_trace_payload()] * 3)
        assert len(outcomes) == 3
        assert not backend.lost_workers
        backend.close()

    def test_garbage_reply_counts_as_worker_loss(self, worker_pair):
        survivor, _ = worker_pair
        rogue = _RogueWorker("garbage")
        try:
            backend = RemoteBackend([rogue.address, survivor.address], in_flight=1)
            outcomes = backend.map(execute_trace_task, [_trace_payload()] * 4)
            assert len(outcomes) == 4
            assert rogue.address in backend.lost_workers
            backend.close()
        finally:
            rogue.close()

    def test_all_workers_dead_is_clean_error_not_hang(self):
        first = _RogueWorker("die-after-task")
        second = _RogueWorker("die-after-task")
        try:
            backend = RemoteBackend([first.address, second.address], in_flight=1)
            started = time.monotonic()
            with pytest.raises(RemoteWorkerError, match="left unexecuted"):
                backend.map(execute_trace_task, [_trace_payload()] * 4)
            assert time.monotonic() - started < 30.0
            assert set(backend.lost_workers) == {first.address, second.address}
            backend.close()
        finally:
            first.close()
            second.close()

    def test_unreachable_workers_fail_cleanly(self):
        backend = RemoteBackend(["127.0.0.1:1"], connect_timeout=0.5)
        with pytest.raises(RemoteWorkerError, match="no remote workers reachable"):
            backend.map(execute_trace_task, [_trace_payload()])
        backend.close()

    def test_lost_worker_stays_excluded_but_survivors_serve_next_dispatch(
        self, worker_pair
    ):
        survivor, _ = worker_pair
        rogue = _RogueWorker("die-after-task")
        try:
            backend = RemoteBackend([rogue.address, survivor.address], in_flight=1)
            backend.map(execute_trace_task, [_trace_payload()] * 3)
            assert rogue.address in backend.lost_workers
            # Second dispatch runs entirely on the survivor.
            outcomes = backend.map(execute_trace_task, [_trace_payload("m88ksim")])
            assert "digest" in outcomes[0]
            backend.close()
        finally:
            rogue.close()


class TestTaskErrors:
    def test_task_exception_propagates_with_remote_traceback(self, worker_pair, monkeypatch):
        server, _ = worker_pair

        def boom(payload):
            raise ValueError("synthetic task failure")

        monkeypatch.setitem(WORKER_FUNCTIONS, "boom", boom)
        backend = RemoteBackend([server.address])
        with pytest.raises(RemoteTaskError, match="synthetic task failure") as excinfo:
            backend.map(boom, [{"value": 1}])
        assert "ValueError" in (excinfo.value.remote_traceback or "")
        backend.close()

    def test_unknown_function_is_task_error(self, worker_pair):
        server, _ = worker_pair
        sock = _dial(server)
        try:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "task_format": TASK_FORMAT_VERSION,
                    "cache_entry": CACHE_ENTRY_VERSION,
                },
            )
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {"type": "task", "id": 1, "function": "nope", "payload": {}})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "unknown worker function" in reply["error"]
        finally:
            sock.close()


# --------------------------------------------------------------------------- #
# Backend selection / plumbing
# --------------------------------------------------------------------------- #
class TestRemoteSelection:
    def test_resolve_backend_builds_remote(self):
        backend = resolve_backend("remote", jobs=3, workers=["127.0.0.1:8750"])
        assert isinstance(backend, RemoteBackend)
        assert backend.name == "remote"
        assert backend.in_flight == 3
        assert backend.inline_payloads(1) is False
        backend.close()

    def test_resolve_backend_requires_workers(self):
        with pytest.raises(ValueError, match="--workers"):
            resolve_backend("remote", jobs=1)

    def test_engine_accepts_workers_argument(self):
        engine = ExecutionEngine(
            EngineConfig(jobs=2, backend="remote", workers=["127.0.0.1:8750"])
        )
        assert isinstance(engine.backend, RemoteBackend)
        engine.close()

    def test_remote_backend_rejects_empty_addresses(self):
        with pytest.raises(ValueError, match="at least one worker"):
            RemoteBackend([])


# --------------------------------------------------------------------------- #
# CLI: worker serve end to end
# --------------------------------------------------------------------------- #
class TestWorkerServeCli:
    def test_serve_campaign_and_graceful_shutdown(self, tmp_path):
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = repo_src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "serve", "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            ready = process.stdout.readline()
            assert "worker listening on " in ready
            address = ready.strip().rpartition(" ")[2]
            from repro.cli import main

            cache_dir = tmp_path / "cache"
            exit_code = main(
                [
                    "campaign",
                    "--scale",
                    str(SCALE),
                    "--benchmarks",
                    "compress",
                    "--predictors",
                    "l",
                    "--backend",
                    "remote",
                    "--workers",
                    address,
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            assert exit_code == 0
            assert _entry_names(cache_dir)  # remote worker populated the cache
            process.terminate()
            output, _ = process.communicate(timeout=10)
            assert process.returncode == 0
            assert "worker stopped" in output
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_unreachable_fleet_exits_cleanly_with_phase_context(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--scale",
                str(SCALE),
                "--benchmarks",
                "compress",
                "--predictors",
                "l",
                "--workers",
                "127.0.0.1:1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "trace phase" in err
        assert "no remote workers reachable" in err

    def test_experiments_unreachable_fleet_exits_cleanly(self, capsys):
        from repro.cli import main
        from repro.simulation.campaign import clear_campaign_cache, reset_campaign_defaults

        clear_campaign_cache()  # a memoised campaign would never dispatch
        try:
            code = main(
                ["experiments", "table2", "--scale", "0.11", "--workers", "127.0.0.1:1"]
            )
        finally:
            reset_campaign_defaults()
            clear_campaign_cache()
        assert code == 1
        assert "no remote workers reachable" in capsys.readouterr().err

    def test_workers_flag_implies_remote_and_requires_pairing(self, capsys):
        from repro.cli import main

        # --backend remote without --workers is a usage error.
        assert main(["campaign", "--quick", "--backend", "remote"]) == 2
        assert "--workers" in capsys.readouterr().err
        # --workers with a non-remote backend is a usage error.
        assert (
            main(
                [
                    "campaign",
                    "--quick",
                    "--backend",
                    "serial",
                    "--workers",
                    "127.0.0.1:8750",
                ]
            )
            == 2
        )
        assert "--workers" in capsys.readouterr().err
