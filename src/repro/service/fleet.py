"""Multi-process shard fleet: the wire protocol at the shard boundary.

A :class:`~repro.service.gateway.ReEncryptionGateway` shards *inside*
one process.  This module promotes the same split to process
granularity: each shard is an independent ``repro-pre serve --http``
worker process with its own durable state directory, and a thin routing
tier speaks the wire protocol to them.

Three pieces:

* :class:`FleetSupervisor` — spawns and supervises the shard worker
  processes (one single-shard gateway server each), parses their
  "listening on" banner for the bound ephemeral port, restarts a dead
  worker from its durable state directory, and hands out one
  :class:`~repro.service.wire.aio_client.MuxRemoteGateway` link per
  worker: one multiplexed socket carries every concurrent call.
* :class:`StaticFleet` — the same surface over externally managed
  endpoints (tests, or shards on other machines).
* :class:`FleetGateway` — the routing tier.  It mirrors the in-process
  gateway's typed API (so :class:`~repro.service.wire.AsyncGatewayServer`
  hosts it unchanged and end clients cannot tell the difference),
  routes every operation to the owning shard process via the shared
  :class:`~repro.service.router.ShardRouter` ring, propagates
  ``X-Repro-Trace`` so one waterfall shows router *and* shard spans,
  aggregates ``/v1/metrics`` across the shard processes, and resizes
  the fleet **without stopping traffic**: keys stream copy-then-cleanup
  between processes while requests keep flowing, with writes
  dual-applied to both ring generations for the duration.

Failure semantics: a shard process the router cannot reach surfaces as
:class:`~repro.service.wire.client.WireTransportError` (code
``wire-transport``, HTTP 503 at the routing tier) — never a hang — and
the supervisor restarts the worker from its state directory in the
background; durable grants survive the crash because every shard append
is flushed before the grant is acknowledged.
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
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.core.api import PreBackend, create_backend, resolve_backend
from repro.core.proxy import ProxyKey, ProxyKeyTable
from repro.service.gateway import (
    DelegationNotFoundError,
    FetchRequest,
    FetchResponse,
    GatewayError,
    GrantRequest,
    GrantResponse,
    InvalidRequestError,
    ReEncryptRequest,
    ReEncryptResponse,
    ResizeReport,
    RevokeRequest,
    RevokeResponse,
    StoreUnavailableError,
    untraced_span,
)
from repro.service.auth.credentials import TenantCredentialStore
from repro.service.metrics import GatewayMetrics, MetricsSnapshot, merge_snapshots
from repro.service.router import ShardRouter
from repro.service.telemetry import EventLog, Span, TraceContext, Tracer
from repro.service.wire.aio_client import connect_gateway
from repro.service.wire.client import RemoteGateway, WireTransportError

__all__ = ["FleetSupervisor", "StaticFleet", "FleetGateway"]

_BANNER = re.compile(r"listening on (muxs?://\S+)")

# The routing tier's identity on its shard workers when per-worker HMAC
# credentials are enabled.  "admin" because the router drives the full
# surface (export during resize migration, not just the client ops).
ROUTER_TENANT = "fleet-router"

KeyIndex = tuple[str, str, str, str, str]


def _repro_env() -> dict[str, str]:
    """A child environment that can ``import repro`` like this process."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else os.pathsep.join([src_root, existing])
    return env


@dataclass
class _Worker:
    """One supervised shard process and what we know about it."""

    name: str
    url: str
    process: subprocess.Popen
    state_dir: Path | None
    output: deque = field(default_factory=lambda: deque(maxlen=200))
    restarts: int = 0


class FleetSupervisor:
    """Spawn, watch and restart the shard worker processes.

    Each worker is ``python -m repro.cli serve --http 0 --shards 1
    --shard <name>`` — a full single-shard gateway server on an
    ephemeral port, optionally durable under
    ``<state_root>/<name>/``.  The supervisor parses the worker's
    startup banner for the bound ``mux://`` URL, keeps the last 200
    output lines per worker for diagnostics, and exposes one
    :class:`~repro.service.wire.aio_client.MuxRemoteGateway` client per
    live worker.

    ``note_failure`` is the routing tier's crash report: when the named
    process is dead it is respawned **in the background** from the same
    state directory, so one unreachable shard degrades exactly the route
    keys it owns instead of stalling the caller.
    """

    def __init__(
        self,
        scheme_id: str,
        shard_count: int = 0,
        state_root: str | Path | None = None,
        group_name: str = "TOY",
        host: str = "127.0.0.1",
        rate_per_s: float | None = None,
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
        self.rate_per_s = rate_per_s
        self.spawn_timeout = spawn_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self.state_root = Path(state_root) if state_root is not None else None
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
            "--shards",
            "1",
            "--shard",
            name,
        ]
        if self.state_root is not None:
            command += ["--state-dir", str(self.state_root / name)]
        if self.rate_per_s is not None:
            command += ["--rate", str(self.rate_per_s)]
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
        state_dir = self.state_root / name if self.state_root is not None else None
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
        if self.worker_auth:
            self._write_worker_credentials(name)
        process = subprocess.Popen(
            self._worker_command(name),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_repro_env(),
            text=True,
        )
        worker = _Worker(name=name, url="", process=process, state_dir=state_dir)
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
                "shard %s did not report a listen address within %.0fs; output: %s"
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
        """Stop workers and delete their durable state (they own no keys now)."""
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
            if worker.state_dir is not None:
                shutil.rmtree(worker.state_dir, ignore_errors=True)
            if self._auth_root is not None:
                shutil.rmtree(self._auth_root / name, ignore_errors=True)
                self._secrets.pop(name, None)
            self.events.emit("shard-retired", shard=name)

    def restart(self, name: str) -> None:
        """Respawn one (dead or alive) worker from its state dir; blocking."""
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
    """The supervisor surface over endpoints someone else manages.

    ``endpoints`` maps shard name to base URL.  Useful for tests (fake
    or hand-started servers) and for shards on other machines.  Without
    a ``spawner`` the fleet cannot grow, so a resize that adds shards
    raises; ``note_failure`` never restarts anything.
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


class _AggregatingTracer(Tracer):
    """A tracer whose lookups merge the shard processes' spans.

    The routing tier records its own spans locally; when someone asks
    for a trace the router *has* (so random probes stay cheap), every
    shard's ``/v1/trace/<id>`` is consulted and the remote spans are
    appended — one waterfall across both tiers.
    """

    def __init__(self, clients: Callable[[], list[RemoteGateway]]):
        super().__init__()
        self._clients = clients

    def trace(self, trace_id: str) -> list[Span]:
        spans = super().trace(trace_id)
        if not spans:
            return spans
        for client in self._clients():
            try:
                spans.extend(client.fetch_trace(trace_id))
            except GatewayError:
                continue
        return spans


@dataclass
class _Migration:
    """Live resize state: both ring generations plus write bookkeeping.

    ``overrides`` holds the key indexes written (granted or revoked)
    while the migration ran — the copy and cleanup sweeps skip them,
    because the dual-applied write already put the latest truth on both
    owners.  ``copied`` holds what the copy sweep moved, so cleanup can
    distinguish "already at its new home" from "appeared after the copy
    sweep passed" (the latter is re-homed before the old copy is
    revoked).
    """

    old_router: ShardRouter
    new_router: ShardRouter
    overrides: set = field(default_factory=set)
    copied: set = field(default_factory=set)


class FleetGateway:
    """The routing tier over a fleet of shard *processes*.

    Exposes the in-process gateway's typed operations (grant / revoke /
    reencrypt / reencrypt_batch / fetch / resize plus the observability
    surface), so :class:`~repro.service.wire.AsyncGatewayServer` hosts it
    unchanged and :class:`~repro.service.wire.client.RemoteGateway`
    clients cannot tell it from a single process.  Each operation routes
    on the same (delegator domain, delegator, type) triple the
    in-process router uses, then crosses the wire to the owning shard
    process with the caller's trace context in ``X-Repro-Trace``.

    Resize migrates keys **without stopping traffic**: reads keep
    routing on the current ring the whole time, writes are dual-applied
    to both ring generations, and keys stream old-owner → new-owner in
    two sweeps (copy, then swap, then cleanup-and-revoke).  A request
    that races the swap is correct in either order because the key
    exists at both homes between its copy and its cleanup.
    """

    def __init__(
        self,
        fleet,
        store=None,
        event_log: EventLog | None = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry: bool = True,
        migration_chunk_size: int = 64,
    ):
        if migration_chunk_size < 1:
            raise ValueError("migration_chunk_size must be positive")
        self.fleet = fleet
        self.backend: PreBackend = fleet.backend
        self.store = store
        self.clock = clock
        self.migration_chunk_size = migration_chunk_size
        # Wire-call accounting of the most recent resize migration:
        # {"export_calls", "grant_calls", "grant_keys", "revoke_calls"}.
        self.last_migration_stats: dict[str, int] | None = None
        self.metrics = GatewayMetrics(clock=clock)
        self.events = event_log if event_log is not None else EventLog()
        self.tracer: Tracer | None = (
            _AggregatingTracer(self._live_clients) if telemetry else None
        )
        self._span = untraced_span if self.tracer is None else self.tracer.span
        names = fleet.names
        if not names:
            raise ValueError("fleet has no shards")
        self._router = ShardRouter(names)
        self._resize_lock = threading.Lock()
        self._migration_mutex = threading.Lock()
        self._migration: _Migration | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="fleet-gw"
        )

    # ------------------------------------------------------------- internals

    def _live_clients(self) -> list[RemoteGateway]:
        clients = []
        for name in self._router.shards:
            try:
                clients.append(self.fleet.client(name))
            except GatewayError:
                continue
        return clients

    def _owner(self, delegator_domain: str, delegator: str, type_label: str) -> str:
        return self._router.shard_for(delegator_domain, delegator, type_label)

    def _shard_call(self, op: str, name: str, call, trace: TraceContext | None):
        """One wire round trip to a shard, traced and failure-accounted.

        ``call(client, trace)`` does the actual client call.  Transport
        failures become a routing-tier ``wire-transport`` error (HTTP
        503 for hosted deployments) and wake the supervisor's background
        revival — the taxonomy never hangs or leaks a stack trace.
        """
        with self._span(trace, "shard-call", {"op": op, "shard": name}) as span:
            try:
                client = self.fleet.client(name)
                return call(client, span.context if span is not None else None)
            except WireTransportError as error:
                self.metrics.observe_rejection(
                    op=op, code=WireTransportError.code
                )
                self.events.emit(
                    "shard-unreachable", shard=name, op=op, error=str(error)
                )
                self.fleet.note_failure(name)
                raise WireTransportError(
                    "shard %s unreachable during %s: %s" % (name, op, error)
                ) from error

    def _write_targets(self, domain: str, delegator: str, type_label: str) -> list[str]:
        """Owners a write must reach: both ring generations mid-resize.

        Caller holds ``_migration_mutex``.
        """
        migration = self._migration
        if migration is None:
            return [self._owner(domain, delegator, type_label)]
        owners = [
            migration.old_router.shard_for(domain, delegator, type_label),
            migration.new_router.shard_for(domain, delegator, type_label),
        ]
        return list(dict.fromkeys(owners))

    # ------------------------------------------------------------ operations

    def _write(self, op: str, index: KeyIndex, do_call, trace) -> list:
        """Run a write (grant/revoke) under the resize discipline.

        Fast path: no resize in flight — one owner, no serialization.
        Mid-resize the whole write (targets, override record, wire
        calls) runs under the migration mutex, so it cannot interleave
        with the copy/cleanup sweeps' check-then-copy of the same key.
        A resize *starting* during a fast-path call is caught by the
        post-call recheck, which re-applies the write under the
        migration discipline (both ops are idempotent per shard), so a
        copied key can never resurrect a racing revoke.  Returns the
        ``(shard, response)`` pairs of the applied calls.
        """
        domain, delegator, _dd, _de, type_label = index
        applied: list = []
        with self._migration_mutex:
            migrating = self._migration is not None
            if not migrating:
                name = self._owner(domain, delegator, type_label)
        if not migrating:
            applied.append((name, self._shard_call(op, name, do_call, trace)))
            with self._migration_mutex:
                if self._migration is None:
                    return applied
            # A resize began while the call was in flight; fall through
            # and re-apply to both ring generations (idempotent per
            # shard), keeping the fast-path outcome in ``applied``.
        with self._migration_mutex:
            targets = self._write_targets(domain, delegator, type_label)
            if self._migration is not None:
                self._migration.overrides.add(index)
            applied.extend(
                (name, self._shard_call(op, name, do_call, trace))
                for name in targets
            )
        return applied

    def grant(
        self, request: GrantRequest, trace: TraceContext | None = None
    ) -> GrantResponse:
        key = request.proxy_key
        applied = self._write(
            "grant",
            ProxyKeyTable.index_of(key),
            lambda client, t: client.grant(request, trace=t),
            trace,
        )
        # Workers name their single internal shard "shard-00"; report the
        # fleet-level worker name instead, which is what callers route on.
        return GrantResponse(shard=applied[-1][0])

    def revoke(
        self, request: RevokeRequest, trace: TraceContext | None = None
    ) -> RevokeResponse:
        index: KeyIndex = (
            request.delegator_domain,
            request.delegator,
            request.delegatee_domain,
            request.delegatee,
            request.type_label,
        )
        applied = self._write(
            "revoke",
            index,
            lambda client, t: client.revoke(request, trace=t),
            trace,
        )
        removed = any(response.removed for _, response in applied)
        shard = next(
            (name for name, response in applied if response.removed),
            applied[-1][0],
        )
        return RevokeResponse(shard=shard, removed=removed)

    def reencrypt(
        self, request: ReEncryptRequest, trace: TraceContext | None = None
    ) -> ReEncryptResponse:
        ciphertext = request.ciphertext
        route = (ciphertext.domain, ciphertext.identity, ciphertext.type_label)
        name = self._owner(*route)
        try:
            response = self._shard_call(
                "reencrypt",
                name,
                lambda client, t: client.reencrypt(request, trace=t),
                trace,
            )
        except DelegationNotFoundError:
            # A resize swap can land between our owner lookup and the wire
            # call; if the cleanup sweep already revoked the stale copy the
            # old owner answers no-delegation.  Re-resolve on the current
            # ring and retry once — a genuinely missing delegation resolves
            # to the same owner and re-raises.
            current = self._owner(*route)
            if current == name:
                raise
            name = current
            response = self._shard_call(
                "reencrypt",
                name,
                lambda client, t: client.reencrypt(request, trace=t),
                trace,
            )
        return replace(response, shard=name)

    def reencrypt_batch(
        self,
        requests: Sequence[ReEncryptRequest],
        trace: TraceContext | None = None,
    ) -> list[ReEncryptResponse]:
        """Fan the batch out to owning shard processes; order preserved.

        Each shard receives one wire batch with its items; shards work
        concurrently and the responses are reassembled by submission
        position.  The single-owner case stays one round trip.
        """
        if not requests:
            raise InvalidRequestError("empty batch")
        by_shard: dict[str, list[int]] = {}
        for position, request in enumerate(requests):
            ciphertext = request.ciphertext
            name = self._owner(
                ciphertext.domain, ciphertext.identity, ciphertext.type_label
            )
            by_shard.setdefault(name, []).append(position)

        def shard_batch(name: str, positions: list[int]) -> list[ReEncryptResponse]:
            subset = [requests[position] for position in positions]
            try:
                responses = self._shard_call(
                    "reencrypt-batch",
                    name,
                    lambda client, t: client.reencrypt_batch(subset, trace=t),
                    trace,
                )
            except DelegationNotFoundError:
                # Stale routing during a resize swap (see reencrypt): fall
                # back to per-item routing on the current ring, which
                # re-raises for any delegation that truly does not exist.
                return [self.reencrypt(request, trace) for request in subset]
            return [replace(response, shard=name) for response in responses]

        if len(by_shard) == 1:
            ((name, positions),) = by_shard.items()
            return shard_batch(name, positions)
        with self._span(trace, "batch-fanout", {"shards": len(by_shard)}):
            futures = {
                name: self._executor.submit(copy_context().run, shard_batch, name, positions)
                for name, positions in by_shard.items()
            }
            results: list[ReEncryptResponse | None] = [None] * len(requests)
            first_error: BaseException | None = None
            for name, positions in by_shard.items():
                try:
                    responses = futures[name].result()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
                    continue
                for position, response in zip(positions, responses):
                    results[position] = response
            if first_error is not None:
                raise first_error
        return results  # type: ignore[return-value]

    def fetch(
        self, request: FetchRequest, trace: TraceContext | None = None
    ) -> FetchResponse:
        """Serve reads from the routing tier's own PHR store.

        Ciphertext blobs are not sharded (only proxy-key state is), so
        fetch never crosses to a shard process.
        """
        from repro.phr.stored import EntryNotFoundError
        from repro.service.gateway import EntryMissingError

        if self.store is None:
            self.metrics.observe_rejection(
                op="fetch", tenant=request.tenant, code=StoreUnavailableError.code
            )
            raise StoreUnavailableError("fleet gateway has no PHR store attached")
        start = self.clock()
        try:
            with self._span(trace, "store-read", {"patient": request.patient}):
                if request.entry_id is not None:
                    records = (self.store.get(request.patient, request.entry_id),)
                else:
                    records = tuple(
                        self.store.entries_for(request.patient, request.category)
                    )
        except EntryNotFoundError as error:
            self.metrics.observe_rejection(
                op="fetch", tenant=request.tenant, code=EntryMissingError.code
            )
            raise EntryMissingError(str(error)) from error
        self.metrics.observe(
            "fetch", (self.clock() - start) * 1000, tenant=request.tenant
        )
        return FetchResponse(records=records)

    # ------------------------------------------------------------- elasticity

    def resize(
        self,
        shard_count: int,
        tenant: str = "admin",
        trace: TraceContext | None = None,
    ) -> ResizeReport:
        """Re-shard the process fleet while traffic continues.

        Four steps, none of which stops reads:

        1. **Start** the added worker processes (empty state dirs).
        2. **Copy**: every misplaced key streams from its old owner to
           its new one.  From this point until the end, writes
           dual-apply to both ring generations and are skipped by the
           sweeps (``overrides``).
        3. **Swap** the router — new requests route on the new ring,
           which owns every copied key.
        4. **Cleanup**: re-enumerate the old owners, re-home any key
           the copy sweep missed (installed concurrently with step 2's
           enumeration), then revoke the stale copies and retire the
           removed worker processes (deleting their state dirs).

        Keys exist at *both* homes between copy and cleanup, so a
        request racing the swap finds its key on whichever ring it
        routed with; install-before-revoke means a crash mid-resize
        loses nothing that a restart-time re-home cannot repair.
        """
        if shard_count < 1:
            raise InvalidRequestError("shard_count must be positive")
        with self._resize_lock:
            self.last_migration_stats = {
                "export_calls": 0,
                "grant_calls": 0,
                "grant_keys": 0,
                "revoke_calls": 0,
            }
            start = self.clock()
            old_names = self._router.shards
            new_names = ["shard-%02d" % i for i in range(shard_count)]
            added = tuple(name for name in new_names if name not in old_names)
            removed = tuple(name for name in old_names if name not in new_names)
            new_router = ShardRouter(new_names)
            with self._span(
                trace, "fleet-resize", {"old": len(old_names), "new": shard_count}
            ):
                self.fleet.ensure_started(added)
                migration = _Migration(old_router=self._router, new_router=new_router)
                with self._migration_mutex:
                    self._migration = migration
                moved = 0
                try:
                    moved += self._copy_sweep(migration, old_names, tenant, trace)
                    with self._migration_mutex:
                        self._router = new_router
                    moved += self._cleanup_sweep(migration, old_names, tenant, trace)
                finally:
                    with self._migration_mutex:
                        self._migration = None
            self.fleet.retire(removed)
            elapsed_ms = (self.clock() - start) * 1000
            self.metrics.observe("resize", elapsed_ms, tenant=tenant)
            self.metrics.observe_resize(moved)
            self.events.emit(
                "fleet-resized",
                old=len(old_names),
                new=shard_count,
                moved=moved,
                added=list(added),
                removed=list(removed),
            )
            return ResizeReport(
                old_shard_count=len(old_names),
                new_shard_count=shard_count,
                keys_moved=moved,
                shards_added=added,
                shards_removed=removed,
                elapsed_ms=elapsed_ms,
            )

    def _misplaced(self, name: str, migration: _Migration, trace) -> list[ProxyKey]:
        """Keys on shard ``name`` that the new ring homes elsewhere."""
        keys = self._shard_call(
            "export", name, lambda client, t: client.list_keys(trace=t), trace
        )
        stats = self.last_migration_stats
        if stats is not None:
            stats["export_calls"] += 1
        misplaced = []
        for key in keys:
            owner = migration.new_router.shard_for(
                key.delegator_domain, key.delegator, key.type_label
            )
            if owner != name:
                misplaced.append(key)
        return misplaced

    def _by_new_owner(
        self, migration: _Migration, keys: list[ProxyKey]
    ) -> dict[str, list[ProxyKey]]:
        """Group misplaced keys by the shard the new ring homes them on."""
        grouped: dict[str, list[ProxyKey]] = {}
        for key in keys:
            owner = migration.new_router.shard_for(
                key.delegator_domain, key.delegator, key.type_label
            )
            grouped.setdefault(owner, []).append(key)
        return grouped

    def _grant_chunk(self, owner: str, keys: list[ProxyKey], tenant: str, trace):
        """Install a chunk of re-homed keys with one wire round trip."""
        self._shard_call(
            "grant",
            owner,
            lambda client, t, keys=keys: client.grant_batch(
                [GrantRequest(tenant=tenant, proxy_key=key) for key in keys],
                trace=t,
            ),
            trace,
        )
        stats = self.last_migration_stats
        if stats is not None:
            stats["grant_calls"] += 1
            stats["grant_keys"] += len(keys)

    def _copy_sweep(
        self, migration: _Migration, old_names: list[str], tenant: str, trace
    ) -> int:
        moved = 0
        chunk_size = self.migration_chunk_size
        for name in old_names:
            grouped = self._by_new_owner(
                migration, self._misplaced(name, migration, trace)
            )
            for owner, keys in grouped.items():
                for at in range(0, len(keys), chunk_size):
                    with self._migration_mutex:
                        chunk = []
                        for key in keys[at : at + chunk_size]:
                            index = ProxyKeyTable.index_of(key)
                            if index in migration.overrides:
                                # A live write already placed the latest truth.
                                continue
                            migration.copied.add(index)
                            chunk.append(key)
                        if chunk:
                            self._grant_chunk(owner, chunk, tenant, trace)
                            moved += len(chunk)
        return moved

    def _cleanup_sweep(
        self, migration: _Migration, old_names: list[str], tenant: str, trace
    ) -> int:
        moved = 0
        chunk_size = self.migration_chunk_size
        for name in old_names:
            grouped = self._by_new_owner(
                migration, self._misplaced(name, migration, trace)
            )
            for owner, keys in grouped.items():
                for at in range(0, len(keys), chunk_size):
                    with self._migration_mutex:
                        chunk = []
                        revokes = []
                        for key in keys[at : at + chunk_size]:
                            index = ProxyKeyTable.index_of(key)
                            if index in migration.overrides:
                                # The live write already reached both
                                # generations (a dual-applied revoke must
                                # stay revoked).
                                continue
                            if index not in migration.copied:
                                # Landed on the old owner after the copy
                                # sweep's enumeration passed it: re-home
                                # before revoking.
                                migration.copied.add(index)
                                chunk.append(key)
                            revokes.append(index)
                        if chunk:
                            self._grant_chunk(owner, chunk, tenant, trace)
                            moved += len(chunk)
                        for index in revokes:
                            self._shard_call(
                                "revoke",
                                name,
                                lambda client, t, index=index: client.revoke(
                                    RevokeRequest(
                                        tenant=tenant,
                                        delegator_domain=index[0],
                                        delegator=index[1],
                                        delegatee_domain=index[2],
                                        delegatee=index[3],
                                        type_label=index[4],
                                    ),
                                    trace=t,
                                ),
                                trace,
                            )
                            stats = self.last_migration_stats
                            if stats is not None:
                                stats["revoke_calls"] += 1
        return moved

    # ---------------------------------------------------------- observability

    @property
    def shard_names(self) -> list[str]:
        return self._router.shards

    def key_count(self) -> int:
        return sum(self.shard_key_counts().values())

    def shard_key_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self._router.shards:
            counts[name] = len(
                self._shard_call(
                    "export", name, lambda client, t: client.list_keys(), None
                )
            )
        return counts

    def list_keys(self) -> list[ProxyKey]:
        keys: list[ProxyKey] = []
        for name in self._router.shards:
            keys.extend(
                self._shard_call(
                    "export", name, lambda client, t: client.list_keys(), None
                )
            )
        return keys

    def snapshot(self) -> MetricsSnapshot:
        """One fleet-wide view: every live shard's snapshot plus our own.

        The routing tier's local metrics only count what shards cannot
        see (fetches served from the router's store, transport
        failures), so the merge never double-counts an operation.
        """
        parts: dict[str, MetricsSnapshot] = {}
        for name in self._router.shards:
            try:
                parts[name] = self.fleet.client(name).snapshot()
            except GatewayError as error:
                self.events.emit(
                    "shard-snapshot-failed", shard=name, error=str(error)
                )
                self.fleet.note_failure(name)
        parts["router"] = self.metrics.snapshot()
        return merge_snapshots(parts)

    def close(self) -> None:
        self._executor.shutdown(wait=False)
        self.fleet.close()

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
