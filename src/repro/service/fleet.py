"""Multi-process fleet: one router gateway, worker processes for the crypto.

A transformation is a pure function of (proxy key, ciphertext), so a
fleet splits a gateway along that line.  The router is a plain
:class:`~repro.service.gateway.ReEncryptionGateway`: it owns the one
durable key table (``<state-dir>/keys.log``), the result cache,
admission, rate limits, the tenant policy and tracing.  Its shards are
:class:`RemoteShard` objects, one per worker process, each sending a
resolved key (its container bytes) and the request's ciphertext bytes
to its worker as one ``transform`` message.  A worker holds no key
table and no state dir.

Pieces:

* :class:`FleetSupervisor` — spawns and supervises the worker processes
  (``repro-pre serve --http 0 --shard NAME``), parses their "listening
  on" banner for the bound ephemeral port, restarts a dead worker (it
  starts empty and loses nothing) and hands out one
  :class:`~repro.service.wire.aio_client.MuxRemoteGateway` link per
  worker: one multiplexed socket carries every concurrent call.
* :class:`StaticFleet` — the same surface over externally managed
  endpoints (tests, or workers on other machines).
* :class:`TransformWorker` — what a worker process hosts.
* :class:`RemoteShard` and :func:`fleet_gateway` — the router's shards
  and the router itself.  Its trace lookup merges in each worker's
  spans, so one waterfall crosses the process boundary.
* :func:`fold_worker_logs` — folds the per-worker key logs an older
  fleet kept into the router's.

Failure semantics: a worker the router cannot reach surfaces as
:class:`~repro.service.wire.client.WireTransportError` (code
``wire-transport``, HTTP 503 at the router) — never a hang — and the
supervisor restarts the worker in the background.  A resize starts or
retires worker processes and swaps the router's ring; no key moves.
"""

from __future__ import annotations

import os
import re
import secrets
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.api import PreBackend, create_backend, resolve_backend
from repro.core.proxy import ProxyService
from repro.pairing.miller import PointOrderError
from repro.service.auth.credentials import TenantCredentialStore
from repro.service.cache import LruCache
from repro.service.gateway import GatewayError, InvalidRequestError, ReEncryptionGateway
from repro.service.metrics import GatewayMetrics, MetricsSnapshot
from repro.service.persistence import KEY_LOG, DurableProxyKeyTable, open_key_log
from repro.service.telemetry import EventLog, Span, TraceContext, Tracer
from repro.service.wire.aio_client import connect_gateway
from repro.service.wire.client import RemoteGateway, WireTransportError
from repro.service.wire.codec import TransformRequest, TransformResponse

__all__ = [
    "FleetSupervisor",
    "RemoteShard",
    "StaticFleet",
    "TransformWorker",
    "fleet_gateway",
    "fold_worker_logs",
]

_BANNER = re.compile(r"listening on (muxs?://\S+)")

# The router's identity on its workers when per-worker HMAC credentials
# are enabled.  "admin" because only that role may call ``transform``.
ROUTER_TENANT = "fleet-router"
# Decoded proxy keys a worker keeps: as many as a gateway's result cache
# holds results, so a working set the router caches stays decoded too.
_KEY_CACHE_SIZE = 1024


def _repro_env() -> dict[str, str]:
    """A child environment that can ``import repro`` like this process."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else os.pathsep.join([src_root, existing])
    return env


@dataclass
class _Worker:
    """One supervised worker process and what we know about it."""

    name: str
    url: str
    process: subprocess.Popen
    output: deque = field(default_factory=lambda: deque(maxlen=200))
    restarts: int = 0


class FleetSupervisor:
    """Spawn, watch and restart the fleet's worker processes.

    Each worker is ``python -m repro.cli serve --http 0 --shard <name>``,
    a :class:`TransformWorker` server on an ephemeral port.  The
    supervisor parses the worker's startup banner for the bound
    ``mux://`` URL, keeps the last 200 output lines per worker for
    diagnostics, and exposes one
    :class:`~repro.service.wire.aio_client.MuxRemoteGateway` client per
    live worker.

    ``note_failure`` is the router's crash report: when the named
    process is dead it is respawned **in the background**, so one
    unreachable worker fails exactly the transformations routed to it
    instead of stalling the caller.  A worker keeps nothing at rest, so
    a respawned one starts empty and loses nothing.
    """

    def __init__(
        self,
        scheme_id: str,
        shard_count: int = 0,
        group_name: str = "TOY",
        host: str = "127.0.0.1",
        spawn_timeout: float = 60.0,
        event_log: EventLog | None = None,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
        crash_loop_threshold: int = 5,
        crash_loop_window: float = 60.0,
        tls_cert: str | Path | None = None,
        tls_key: str | Path | None = None,
        worker_auth: bool = False,
    ):
        from repro.pairing.group import PairingGroup

        self.scheme_id = scheme_id
        self.group_name = group_name
        self.backend: PreBackend = create_backend(
            scheme_id, PairingGroup.shared(group_name)
        )
        self.host = host
        self.spawn_timeout = spawn_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        # Worker links: when tls_cert/tls_key are given the shard servers
        # terminate TLS and the supervisor's clients pin the cert file as
        # their CA (the dev self-signed cert is its own CA).  worker_auth
        # gives each worker its own tenants.json carrying one
        # supervisor-generated secret for ROUTER_TENANT, so a process that
        # finds a worker's ephemeral port still cannot speak to it.
        self.tls_cert = Path(tls_cert) if tls_cert is not None else None
        self.tls_key = Path(tls_key) if tls_key is not None else None
        if self.tls_key is not None and self.tls_cert is None:
            raise ValueError("tls_key given without tls_cert")
        self.worker_auth = worker_auth
        self._secrets: dict[str, str] = {}
        self._auth_root: Path | None = None
        if worker_auth:
            self._auth_root = Path(tempfile.mkdtemp(prefix="repro-fleet-auth-"))
        self.events = event_log if event_log is not None else EventLog()
        self._workers: dict[str, _Worker] = {}
        self._clients: dict[str, RemoteGateway] = {}
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

    def _worker_command(self, name: str) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--http",
            "0",
            "--host",
            self.host,
            "--group",
            self.group_name,
            "--scheme",
            self.scheme_id,
            "--shard",
            name,
        ]
        if self.tls_cert is not None:
            command += ["--tls-cert", str(self.tls_cert)]
            if self.tls_key is not None:
                command += ["--tls-key", str(self.tls_key)]
        if self.worker_auth:
            command += ["--tenant-config", str(self._credential_path(name))]
        return command

    def _credential_path(self, name: str) -> Path:
        assert self._auth_root is not None
        return self._auth_root / name / "tenants.json"

    def _write_worker_credentials(self, name: str) -> None:
        """(Re)write one worker's tenants.json before it spawns.

        The secret is minted once per worker *name* and reused across
        restarts, so the cached signing client stays valid over a
        supervisor-driven respawn.
        """
        secret = self._secrets.setdefault(name, secrets.token_hex(32))
        path = self._credential_path(name)
        if path.exists():
            path.unlink()
        store = TenantCredentialStore.initialize(path)
        store.add(ROUTER_TENANT, secret=secret, roles=("admin",))

    def _spawn(self, name: str) -> _Worker:
        if self.worker_auth:
            self._write_worker_credentials(name)
        process = subprocess.Popen(
            self._worker_command(name),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_repro_env(),
            text=True,
        )
        worker = _Worker(name=name, url="", process=process)
        ready = threading.Event()

        def drain() -> None:
            for line in process.stdout:
                worker.output.append(line.rstrip("\n"))
                if not ready.is_set():
                    match = _BANNER.search(line)
                    if match:
                        worker.url = match.group(1)
                        ready.set()
            process.stdout.close()

        thread = threading.Thread(
            target=drain, name="fleet-drain-%s" % name, daemon=True
        )
        thread.start()
        if not ready.wait(self.spawn_timeout) or not worker.url:
            process.kill()
            process.wait()
            raise WireTransportError(
                "worker %s did not report a listen address within %.0fs; output: %s"
                % (name, self.spawn_timeout, " | ".join(list(worker.output)[-5:]))
            )
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
                if name in self._workers and self._workers[name].process.poll() is None:
                    continue
            worker = self._spawn(name)
            with self._lock:
                self._workers[name] = worker
                stale = self._clients.pop(name, None)
            if stale is not None:
                stale.close()
            self.events.emit(
                "shard-started", shard=name, url=worker.url, pid=worker.process.pid
            )

    def retire(self, names: Sequence[str]) -> None:
        """Stop workers (they hold nothing to save)."""
        for name in names:
            with self._lock:
                worker = self._workers.pop(name, None)
                client = self._clients.pop(name, None)
            if client is not None:
                client.close()
            if worker is None:
                continue
            worker.process.terminate()
            try:
                worker.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
            if self._auth_root is not None:
                shutil.rmtree(self._auth_root / name, ignore_errors=True)
                self._secrets.pop(name, None)
            self.events.emit("shard-retired", shard=name)

    def restart(self, name: str) -> None:
        """Respawn one (dead or alive) worker, empty; blocking."""
        with self._lock:
            worker = self._workers.get(name)
        if worker is None:
            raise InvalidRequestError("no shard named %r" % name)
        if worker.process.poll() is None:
            worker.process.terminate()
            try:
                worker.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
        replacement = self._spawn(name)
        replacement.restarts = worker.restarts + 1
        with self._lock:
            self._workers[name] = replacement
            stale = self._clients.pop(name, None)
        if stale is not None:
            stale.close()
        self.events.emit(
            "shard-restarted",
            shard=name,
            url=replacement.url,
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
            clients = list(self._clients.values())
            self._workers.clear()
            self._clients.clear()
        for client in clients:
            client.close()
        for worker in workers:
            if worker.process.poll() is None:
                worker.process.terminate()
        for worker in workers:
            try:
                worker.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
        if self._auth_root is not None:
            shutil.rmtree(self._auth_root, ignore_errors=True)

    # --------------------------------------------------------------- clients

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)

    def alive(self, name: str) -> bool:
        with self._lock:
            worker = self._workers.get(name)
        return worker is not None and worker.process.poll() is None

    def url_of(self, name: str) -> str:
        with self._lock:
            return self._workers[name].url

    def output_of(self, name: str) -> list[str]:
        with self._lock:
            return list(self._workers[name].output)

    def client(self, name: str) -> RemoteGateway:
        """The mux link to one worker (rebuilt after respawn)."""
        with self._lock:
            client = self._clients.get(name)
            if client is not None:
                return client
            worker = self._workers.get(name)
            if worker is None:
                raise WireTransportError("no shard named %r" % name)
            client = connect_gateway(
                worker.url,
                self.backend,
                trace_requests=False,
                tenant=ROUTER_TENANT if self.worker_auth else None,
                secret=self._secrets.get(name) if self.worker_auth else None,
                tls_ca=str(self.tls_cert) if self.tls_cert is not None else None,
            )
            self._clients[name] = client
            return client


class StaticFleet:
    """The supervisor surface over worker endpoints someone else manages.

    ``endpoints`` maps worker name (``shard-00``, ``shard-01``, ...) to
    base URL.  Useful for tests (in-process worker servers) and for
    workers on other machines.  The fleet cannot grow, so a resize that
    adds shards raises; ``note_failure`` never restarts anything.
    """

    def __init__(
        self,
        context,
        endpoints: dict[str, str],
        pool_size: int = 2,
        event_log: EventLog | None = None,
        tenant: str | None = None,
        secret: str | None = None,
        tls_ca: str | None = None,
    ):
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.backend = resolve_backend(context)
        self.pool_size = pool_size
        self.events = event_log if event_log is not None else EventLog()
        self.tenant = tenant
        self._secret = secret
        self.tls_ca = tls_ca
        self._endpoints = dict(endpoints)
        self._clients: dict[str, RemoteGateway] = {}
        self._lock = threading.Lock()

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._endpoints)

    def alive(self, name: str) -> bool:
        with self._lock:
            return name in self._endpoints

    def client(self, name: str) -> RemoteGateway:
        with self._lock:
            client = self._clients.get(name)
            if client is None:
                url = self._endpoints.get(name)
                if url is None:
                    raise WireTransportError("no shard named %r" % name)
                client = self._clients[name] = connect_gateway(
                    url,
                    self.backend,
                    pool_size=self.pool_size,
                    trace_requests=False,
                    tenant=self.tenant,
                    secret=self._secret,
                    tls_ca=self.tls_ca,
                )
            return client

    def ensure_started(self, names: Sequence[str]) -> None:
        missing = [name for name in names if name not in self._endpoints]
        if missing:
            raise InvalidRequestError(
                "static fleet cannot start shards %s; register their endpoints"
                % ", ".join(missing)
            )

    def retire(self, names: Sequence[str]) -> None:
        for name in names:
            with self._lock:
                self._endpoints.pop(name, None)
                client = self._clients.pop(name, None)
            if client is not None:
                client.close()

    def note_failure(self, name: str) -> bool:
        self.events.emit("shard-unreachable", shard=name, supervised=False)
        return False

    def kill(self, name: str) -> None:
        raise InvalidRequestError("static fleet does not own shard processes")

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()


class TransformWorker:
    """What a fleet worker process hosts: transformations, nothing at rest.

    It answers one operation, ``transform`` (a
    :class:`~repro.service.wire.codec.TransformRequest`): no key table,
    no state dir, no admission; the router did all of that.  Decoded
    proxy keys stay in a bounded LRU keyed by their container bytes, so
    a key's points are decompressed once while the key is in use.  A
    traced call records a ``shard-crypto`` span under the trace the
    router sent, which the router's trace lookup merges in.
    """

    def __init__(self, backend: PreBackend, name: str):
        self.backend = backend
        self.name = name
        self.tracer = Tracer()
        self.metrics = GatewayMetrics()
        self._keys = LruCache(_KEY_CACHE_SIZE, name="key_cache")

    def transform(
        self, request: TransformRequest, trace: TraceContext | None = None
    ) -> TransformResponse:
        start = time.monotonic()
        key = self._keys.get(request.proxy_key)
        if key is None:
            try:
                key = self.backend.deserialize_proxy_key(request.proxy_key)
            except ValueError as error:  # EncodingError included
                raise InvalidRequestError("field 'proxy_key': %s" % error) from error
            self._keys.put(request.proxy_key, key)
        attributes = {"shard": self.name, "items": len(request.ciphertexts)}
        with self.tracer.span(trace, "shard-crypto", attributes):
            try:
                results = self.backend.reencrypt_batch(list(request.ciphertexts), key)
            except (ValueError, PointOrderError) as error:
                # Bytes that do not decode, a key outside G1 or one that
                # does not match the ciphertexts.
                raise InvalidRequestError(str(error)) from error
        self.metrics.observe("transform", (time.monotonic() - start) * 1000, self.name)
        return TransformResponse(ciphertexts=tuple(results))

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot(caches={"key_cache": self._keys.stats()})

    def close(self) -> None:
        """Nothing to release: a worker keeps nothing at rest."""


@dataclass
class RemoteShard(ProxyService):
    """A router shard whose transformations run on the fleet worker of
    the same name.

    The key table stays with the router.  A call sends the resolved
    key's container bytes and the ciphertexts' bytes in one
    ``transform`` round trip and returns the worker's answers as encoded
    views the router never decodes.  A worker it cannot reach is
    reported to the fleet, which restarts it, and raised as
    ``wire-transport``.  Building the shard starts its worker; retiring
    it stops the worker.
    """

    fleet: object = None
    forwards = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.fleet.ensure_started([self.name])

    def reencrypt_with_key(self, ciphertext, key, trace=None):
        return self.reencrypt_many_with_key([ciphertext], key, trace)[0]

    def reencrypt_many_with_key(self, ciphertexts, key, trace=None):
        request = TransformRequest(
            tenant=ROUTER_TENANT,
            proxy_key=self.backend.serialize_proxy_key(key),
            ciphertexts=tuple(ciphertexts),
        )
        try:
            response = self.fleet.client(self.name).transform(request, trace=trace)
        except WireTransportError as error:
            self.fleet.note_failure(self.name)
            raise WireTransportError(
                "shard %s unreachable: %s" % (self.name, error)
            ) from error
        if len(response.ciphertexts) != len(ciphertexts):
            raise WireTransportError(
                "shard %s answered %d of %d transformations"
                % (self.name, len(response.ciphertexts), len(ciphertexts))
            )
        self._log_transformation(key, len(ciphertexts))
        return list(response.ciphertexts)

    def retire(self) -> None:
        self.fleet.retire([self.name])


class _AggregatingTracer(Tracer):
    """The router's tracer: a trace it holds also gets every worker's
    spans of that trace (one waterfall across both tiers).  Only traces
    the router has are looked up remotely, so random probes stay cheap."""

    def __init__(self, fleet):
        super().__init__()
        self._fleet = fleet

    def trace(self, trace_id: str) -> list[Span]:
        spans = super().trace(trace_id)
        if not spans:
            return spans
        for name in self._fleet.names:
            try:
                spans.extend(self._fleet.client(name).fetch_trace(trace_id))
            except GatewayError:
                continue
        return spans


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
        tracer=_AggregatingTracer(fleet),
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
