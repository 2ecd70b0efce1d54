"""Multi-process fleet: one router gateway, worker processes for the crypto.

A transformation is a pure function of (proxy key, ciphertext), so a
fleet splits a gateway along that line.  The router is a plain
:class:`~repro.service.gateway.ReEncryptionGateway` (:func:`fleet_gateway`):
it owns the one durable key table (``<state-dir>/keys.log``), the result
cache, admission, rate limits, the tenant policy and tracing.  Its shards
are :class:`RemoteShard` objects, each writing a resolved key's container
bytes and the request's ciphertext bytes to one worker process's stdin
and reading the answer, with the worker's crypto time and op counts, on
its stdout (:mod:`repro.service.fleet_worker` is the worker).  A worker
holds no key table and no state dir.  :class:`FleetSupervisor` starts
and restarts the workers; :func:`fold_worker_logs` folds the per-worker
key logs an older fleet kept into the router's.

A call that times out, or reads EOF, a broken pipe or a malformed frame,
fails as :class:`~repro.service.wire.client.WireTransportError`
(``wire-transport``, HTTP 503 at the router) — never a hang — and kills
its worker, so no later call reads that pipe.  A worker exits when its
stdin ends, so it exits with its router however the router exits.  A
resize starts or retires workers and swaps the router's ring; no key
moves.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.bench.counters import record_operation
from repro.core.api import Encoded, PreBackend, create_backend
from repro.core.proxy import ProxyService
from repro.service.fleet_worker import INVALID, READY, frame_length, pack_frame, unpack_frame
from repro.service.gateway import InvalidRequestError, ReEncryptionGateway
from repro.service.persistence import KEY_LOG, DurableProxyKeyTable, open_key_log
from repro.service.telemetry import EventLog
from repro.service.wire.client import WireTransportError

__all__ = [
    "CALL_TIMEOUT",
    "FleetSupervisor",
    "RemoteShard",
    "fleet_gateway",
    "fold_worker_logs",
]

# How long a call waits for its worker's answer, as long as the mux
# client waits for a server's.
CALL_TIMEOUT = 30.0


def _repro_env() -> dict[str, str]:
    """A child environment that can ``import repro`` like this process."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else os.pathsep.join([src_root, existing])
    return env


def _exchange(process, frame: bytes, timeout: float) -> list[bytes]:
    """Write ``frame`` to ``process``'s stdin and read one frame from its
    stdout within ``timeout`` seconds; a timeout, EOF, a broken or closed
    pipe and a malformed frame raise :class:`WireTransportError`.  The
    stdin pipe is non-blocking, so a worker that stops reading cannot
    hold the write past the deadline."""
    deadline = time.monotonic() + timeout
    poller = select.poll()

    def wait() -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not poller.poll(remaining * 1000):
            raise WireTransportError("no answer within %.1fs" % timeout)

    def read(size: int) -> bytes:
        data = b""
        while len(data) < size:
            wait()
            chunk = os.read(source, size - len(data))
            if not chunk:
                raise WireTransportError("the worker closed its pipe")
            data += chunk
        return data

    try:
        target, view = process.stdin.fileno(), memoryview(frame)
        poller.register(target, select.POLLOUT)
        while view:
            wait()
            view = view[os.write(target, view) :]
        poller.unregister(target)
        source = process.stdout.fileno()
        poller.register(source, select.POLLIN)
        return unpack_frame(read(frame_length(read(4))))
    except (OSError, ValueError) as error:  # BrokenPipeError; a closed pipe; a bad frame
        raise WireTransportError(str(error) or type(error).__name__) from error


def _call(process, parts: Sequence[bytes]) -> tuple[bytes, float, dict[str, int], list[bytes]]:
    """One call's answer: its status, the worker's crypto ms, its op counts
    and the parts after them.  Raises WireTransportError, or ValueError
    for an answer that does not parse."""
    status, cost, *answer = _exchange(process, pack_frame(parts), CALL_TIMEOUT)
    if status not in (b"ok", INVALID):
        raise ValueError("unknown answer status %r" % status[:32])
    worker_ms, *counts = cost.decode("ascii").split()
    ops = {op: int(count) for op, count in (item.split("=") for item in counts)}
    return status, float(worker_ms), ops, answer


@dataclass
class _Worker:
    """One supervised worker process."""

    name: str
    process: subprocess.Popen
    restarts: int = 0

    def stop(self, grace: float = 10.0) -> None:
        """Close the worker's pipes, which ends its loop, and reap it;
        kill it if it has not exited after ``grace`` seconds."""
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()
        try:
            self.process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class FleetSupervisor:
    """Start, watch and restart the fleet's worker processes.

    Each worker is ``python -m repro.service.fleet_worker SCHEME GROUP
    NAME``: a fresh interpreter, never a fork of the router, which runs
    an event loop and pool threads.  A worker is up once it writes its
    first frame; one that cannot start fails :meth:`ensure_started`.
    ``note_failure``, sent once a failed call has stopped its worker,
    respawns it **in the background**, empty: it held nothing.
    """

    def __init__(
        self,
        scheme_id: str,
        shard_count: int = 0,
        group_name: str = "TOY",
        spawn_timeout: float = 60.0,
        event_log: EventLog | None = None,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
        crash_loop_threshold: int = 5,
        crash_loop_window: float = 60.0,
    ):
        from repro.pairing.group import PairingGroup

        self.scheme_id = scheme_id
        self.group_name = group_name
        self.backend: PreBackend = create_backend(
            scheme_id, PairingGroup.shared(group_name)
        )
        self.spawn_timeout = spawn_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self.events = event_log if event_log is not None else EventLog()
        self._workers: dict[str, _Worker] = {}
        self._lock = threading.RLock()
        self._reviving: set[str] = set()
        self._failures: dict[str, list[float]] = {}
        self._broken: set[str] = set()
        self._closed = False
        # Injectable for the kill-loop regression tests.
        self._clock = time.monotonic
        self._sleep = time.sleep
        if shard_count:
            self.ensure_started(["shard-%02d" % i for i in range(shard_count)])

    # ------------------------------------------------------------- lifecycle

    def _start(self, name: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.fleet_worker", self.scheme_id,
             self.group_name, name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
            env=_repro_env(),
        )

    def _spawn(self, name: str) -> _Worker:
        worker = _Worker(name=name, process=self._start(name))
        os.set_blocking(worker.process.stdin.fileno(), False)
        try:
            if _exchange(worker.process, b"", self.spawn_timeout) != [READY]:
                raise WireTransportError("its first frame was not %r" % READY)
        except WireTransportError as error:
            worker.stop(grace=1.0)  # time to report its own exit status
            raise WireTransportError(
                "worker %s did not start (exit status %s): %s"
                % (name, worker.process.returncode, error)
            ) from None
        return worker

    def ensure_started(self, names: Sequence[str]) -> None:
        """Spawn workers for every name not already running."""
        for name in names:
            with self._lock:
                if self._closed:
                    raise WireTransportError("fleet supervisor is closed")
                # Explicit operator action: close the crash-loop breaker
                # and start fresh failure accounting for this shard.
                self._broken.discard(name)
                self._failures.pop(name, None)
                dead = self._workers.get(name)
                if dead is not None and dead.process.poll() is None:
                    continue
            worker = self._spawn(name)
            with self._lock:
                self._workers[name] = worker
            if dead is not None:  # a shard being built: nothing calls it yet
                dead.stop()
            self.events.emit("shard-started", shard=name, pid=worker.process.pid)

    def retire(self, names: Sequence[str]) -> None:
        """Stop workers (they hold nothing to save)."""
        for name in names:
            with self._lock:
                worker = self._workers.pop(name, None)
            if worker is None:
                continue
            worker.stop()
            self.events.emit("shard-retired", shard=name)

    def restart(self, name: str) -> None:
        """Respawn a stopped worker, empty; blocking."""
        with self._lock:
            worker = self._workers.get(name)
        if worker is None:
            raise InvalidRequestError("no shard named %r" % name)
        replacement = self._spawn(name)
        replacement.restarts = worker.restarts + 1
        with self._lock:
            # Retired or closed while it started: the name is not ours.
            current = not self._closed and self._workers.get(name) is worker
            if current:
                self._workers[name] = replacement
        if not current:
            replacement.stop()
            return
        self.events.emit(
            "shard-restarted",
            shard=name,
            pid=replacement.process.pid,
            restarts=replacement.restarts,
        )

    def note_failure(self, name: str) -> bool:
        """React to a failed call: respawn in the background if dead.

        Returns True when a revival was started (or already under way).
        The caller's request still fails — restart happens off the
        request path so an unreachable shard costs one timeout, not a
        supervised respawn per request.

        Repeated failures inside ``crash_loop_window`` back off
        exponentially (``backoff_base * 2^(n-1)``, capped at
        ``backoff_max``; the first failure respawns immediately).  Once
        ``crash_loop_threshold`` failures accumulate in the window the
        breaker opens: the shard is left down, a ``shard-crash-loop``
        event is emitted, and no further respawns run until an operator
        calls :meth:`reset_breaker` (or :meth:`ensure_started` for the
        shard).  A crashing binary otherwise turns the supervisor into a
        fork bomb that steals CPU from every healthy shard.
        """
        with self._lock:
            worker = self._workers.get(name)
            if (
                self._closed
                or worker is None
                or worker.process.poll() is None
                or name in self._reviving
            ):
                return name in self._reviving
            if name in self._broken:
                return False
            now = self._clock()
            recent = [
                stamp
                for stamp in self._failures.get(name, [])
                if now - stamp < self.crash_loop_window
            ]
            recent.append(now)
            self._failures[name] = recent
            if len(recent) >= self.crash_loop_threshold:
                self._broken.add(name)
                self.events.emit(
                    "shard-crash-loop",
                    shard=name,
                    failures=len(recent),
                    window_s=self.crash_loop_window,
                )
                return False
            delay = 0.0
            if len(recent) > 1:
                delay = min(
                    self.backoff_base * (2 ** (len(recent) - 2)), self.backoff_max
                )
            self._reviving.add(name)

        def revive() -> None:
            try:
                if delay > 0:
                    self.events.emit("shard-respawn-backoff", shard=name, delay_s=delay)
                    self._sleep(delay)
                with self._lock:
                    if self._closed or name in self._broken:
                        return
                self.restart(name)
            except Exception as error:  # noqa: BLE001 - supervisor boundary
                self.events.emit("shard-restart-failed", shard=name, error=str(error))
            finally:
                with self._lock:
                    self._reviving.discard(name)

        threading.Thread(
            target=revive, name="fleet-revive-%s" % name, daemon=True
        ).start()
        return True

    def is_broken(self, name: str) -> bool:
        """True when the crash-loop breaker is open for ``name``."""
        with self._lock:
            return name in self._broken

    def reset_breaker(self, name: str) -> None:
        """Close the crash-loop breaker and forget the failure history.

        Does not restart the shard by itself — call :meth:`restart` or
        :meth:`ensure_started` afterwards (the latter clears the breaker
        automatically for the names it spawns).
        """
        with self._lock:
            self._broken.discard(name)
            self._failures.pop(name, None)

    def kill(self, name: str) -> None:
        """SIGKILL one worker (crash-recovery tests); no cleanup runs."""
        with self._lock:
            worker = self._workers[name]
        worker.process.kill()
        worker.process.wait()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            worker.stop()

    # --------------------------------------------------------------- workers

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    def alive(self, name: str) -> bool:
        worker = self._workers.get(name)
        return worker is not None and worker.process.poll() is None

    def worker(self, name: str) -> _Worker:
        """The current worker of shard ``name`` (replaced on a respawn)."""
        worker = self._workers.get(name)
        if worker is None:
            raise WireTransportError("no shard named %r" % name)
        return worker


@dataclass
class RemoteShard(ProxyService):
    """A router shard whose transformations run on the fleet worker of
    the same name; the key table stays with the router.

    A call writes to the worker and reads its answer on the calling
    thread, under the shard lock the gateway holds, so calls to one
    worker never interleave; the answers stay encoded views.  A failed
    call stops the worker, so its pipe is never read again, and raises
    ``wire-transport``.  Building the shard starts its worker; retiring
    it stops the worker.
    """

    fleet: object = None
    forwards = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.fleet.ensure_started([self.name])

    def reencrypt_with_key(self, ciphertext, key, stage=None):
        return self.reencrypt_many_with_key([ciphertext], key, stage)[0]

    def reencrypt_many_with_key(self, ciphertexts, key, stage=None):
        backend = self.backend
        parts = [backend.serialize_proxy_key(key), *map(backend.ciphertext_bytes, ciphertexts)]
        worker = self.fleet.worker(self.name)
        try:
            status, worker_ms, ops, answer = _call(worker.process, parts)
            if len(answer) != (len(ciphertexts) if status == b"ok" else 1):
                raise ValueError(
                    "%d answer parts for %d transformations" % (len(answer), len(ciphertexts))
                )
        except (WireTransportError, ValueError) as error:
            worker.stop(grace=0)
            self.fleet.note_failure(self.name)
            raise WireTransportError(
                "shard %s unreachable: %s" % (self.name, error)
            ) from error
        for op, count in ops.items():
            record_operation(op, count)
        if stage is not None:
            stage.add("worker_ms", worker_ms)
            for op, count in ops.items():
                stage.add(op, count)
        if status == INVALID:
            raise InvalidRequestError(answer[0].decode("utf-8", "replace"))
        self._log_transformation(key, len(ciphertexts))
        return [Encoded(blob, backend.deserialize_reencrypted) for blob in answer]

    def retire(self) -> None:
        self.fleet.retire([self.name])


def fleet_gateway(fleet, **options) -> ReEncryptionGateway:
    """The router over ``fleet``: one :class:`RemoteShard` per worker.

    The fleet's workers must be named ``shard-00``, ``shard-01``, ... as
    the gateway names its shards.  ``options`` are the gateway's own
    (``state_dir``, ``rate_per_s``, ``policy``, ``event_log``, ...).
    """
    backend = fleet.backend
    return ReEncryptionGateway(
        backend,
        shard_count=len(fleet.names),
        shard_factory=lambda name, table: RemoteShard(
            backend, name=name, table=table, fleet=fleet
        ),
        **options,
    )


_WORKER_DIR = re.compile(r"shard-\d{2,}")


def fold_worker_logs(state_dir: str | Path, backend: PreBackend) -> None:
    """Fold an older fleet's per-worker logs into the router's ``keys.log``.

    Fleets used to give every worker its own log,
    ``<state_dir>/shard-NN/keys.log``.  Each such log's live keys are
    installed into ``<state_dir>/keys.log``, then the log is deleted
    (and its directory, once empty).  Installing a key twice is
    idempotent, so the next open finishes a fold a crash stopped.
    """
    logs = [
        path
        for path in sorted(Path(state_dir).glob("shard-*/" + KEY_LOG))
        if _WORKER_DIR.fullmatch(path.parent.name)
    ]
    if not logs:
        return
    table = open_key_log(state_dir, backend)
    try:
        for path in logs:
            worker_log = DurableProxyKeyTable(path, backend)
            for key in list(worker_log):
                table.install(key)
            worker_log.delete()
            try:
                path.parent.rmdir()
            except OSError:  # not empty: leave what else it holds
                pass
    finally:
        table.close()
