"""The gateway: a typed request/response front door over a shard fleet.

One :class:`ReEncryptionGateway` owns N :class:`~repro.core.proxy.ProxyService`
shards, a consistent-hash :class:`~repro.service.router.ShardRouter`, two
LRU caches and a metrics accumulator.  Callers speak the four request
types (:class:`GrantRequest`, :class:`RevokeRequest`,
:class:`ReEncryptRequest`, :class:`FetchRequest`); every admission passes
a per-tenant token-bucket rate limiter and lands in a bounded audit log.

Failures are a closed taxonomy rooted at :class:`GatewayError`, each with
a stable ``code`` string, so callers (and the audit log) never depend on
library-internal exception types leaking through.

The gateway is scheme-agnostic: it speaks the
:class:`~repro.core.api.PreBackend` lifecycle, so the same shard fleet
serves the paper's scheme or any other registered backend (``afgh/v1``,
``green-ateniese/v1``, ...).

Cache soundness: result replay is only sound for backends whose
capabilities declare ``deterministic_reencrypt`` — the KEM-result cache
is bypassed entirely otherwise — and only while the installed key is the
one that produced them.  Grants and revokes therefore invalidate both caches
for the affected delegation *after* mutating the shard, under the shard
lock — and every cache *write* also happens under the owning shard's
lock, so a racing transformation can never re-populate an entry after
the invalidation that was meant to kill it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.core.api import PreBackend, resolve_backend
from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.core.proxy import (
    DEFAULT_MAX_LOG_ENTRIES,
    NoProxyKeyError,
    ProxyKeyTable,
    ProxyService,
)
from repro.core.scheme import TypeAndIdentityPre
from repro.pairing.miller import PointOrderError
from repro.phr.store import EntryNotFoundError, StoredRecord
from repro.service.batch import BatchItemError, ReEncryptBatcher
from repro.service.cache import CacheStats, LruCache
from repro.service.metrics import GatewayMetrics, MetricsSnapshot
from repro.service.persistence import DurableProxyKeyTable
from repro.service.pool import ShardPool
from repro.service.router import ShardRouter
from repro.service.telemetry import EventLog, TraceContext, Tracer

__all__ = [
    "GatewayError",
    "RateLimitedError",
    "DelegationNotFoundError",
    "EntryMissingError",
    "InvalidRequestError",
    "StoreUnavailableError",
    "QuotaExceededError",
    "TokenBucket",
    "GrantRequest",
    "GrantResponse",
    "RevokeRequest",
    "RevokeResponse",
    "ReEncryptRequest",
    "ReEncryptResponse",
    "FetchRequest",
    "FetchResponse",
    "AuditEvent",
    "ResizeReport",
    "ReEncryptionGateway",
]


# --------------------------------------------------------------- error taxonomy


class GatewayError(Exception):
    """Base of every error the gateway raises; ``code`` is wire-stable."""

    code = "gateway-error"


class RateLimitedError(GatewayError):
    """The tenant exhausted its token bucket."""

    code = "rate-limited"


class DelegationNotFoundError(GatewayError):
    """No proxy key exists for the requested (delegator, delegatee, type)."""

    code = "no-delegation"


class EntryMissingError(GatewayError):
    """A fetch named a (patient, entry) the store does not hold."""

    code = "entry-not-found"


class InvalidRequestError(GatewayError):
    """The request is structurally unusable (empty batch, bad fields)."""

    code = "invalid-request"


class StoreUnavailableError(GatewayError):
    """A fetch arrived but the gateway was built without a PHR store."""

    code = "no-store"


class QuotaExceededError(GatewayError):
    """The tenant spent its configured total-request quota."""

    code = "quota-exceeded"


# ------------------------------------------------------------------ rate limit


class TokenBucket:
    """Per-tenant token buckets: ``rate_per_s`` refill up to ``burst``.

    The clock is injectable so tests advance time explicitly instead of
    sleeping; omitting it selects ``time.monotonic`` for production use.
    A denied request still banks the refill accrued since the last call,
    so fractional refills accumulate instead of being thrown away.
    Thread-safe: admission may race across shard-pool workers.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        clock: Callable[[], float] | None = None,
    ):
        if rate_per_s <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._buckets: dict[str, tuple[float, float]] = {}  # tenant -> (tokens, stamp)

    def allow(self, tenant: str, cost: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            tokens, stamp = self._buckets.get(tenant, (self.burst, now))
            tokens = min(self.burst, tokens + (now - stamp) * self.rate_per_s)
            if tokens < cost:
                self._buckets[tenant] = (tokens, now)
                return False
            self._buckets[tenant] = (tokens - cost, now)
            return True

    def available(self, tenant: str) -> float:
        """Tokens the tenant could spend right now (refill applied, no spend)."""
        with self._lock:
            now = self._clock()
            tokens, stamp = self._buckets.get(tenant, (self.burst, now))
            return min(self.burst, tokens + (now - stamp) * self.rate_per_s)


# ------------------------------------------------------------------- requests


@dataclass(frozen=True)
class GrantRequest:
    """Install a proxy key (the delegator ran ``Pextract`` out of band)."""

    tenant: str
    proxy_key: ProxyKey


@dataclass(frozen=True)
class GrantResponse:
    shard: str


@dataclass(frozen=True)
class RevokeRequest:
    tenant: str
    delegator_domain: str
    delegator: str
    delegatee_domain: str
    delegatee: str
    type_label: str
    # Client-generated idempotency id: a wire server deduplicates
    # retried revokes carrying the same id, so a connection drop never
    # loses the outcome.  In-process callers leave it None.
    request_id: str | None = None


@dataclass(frozen=True)
class RevokeResponse:
    shard: str
    removed: bool


@dataclass(frozen=True)
class ReEncryptRequest:
    tenant: str
    ciphertext: TypedCiphertext
    delegatee_domain: str
    delegatee: str


@dataclass(frozen=True)
class ReEncryptResponse:
    ciphertext: ReEncryptedCiphertext
    shard: str
    cache_hit: bool


@dataclass(frozen=True)
class FetchRequest:
    """Read stored ciphertext blobs (one entry, or a patient/category scan)."""

    tenant: str
    patient: str
    entry_id: str | None = None
    category: str | None = None


@dataclass(frozen=True)
class FetchResponse:
    records: tuple[StoredRecord, ...]


@dataclass(frozen=True)
class ResizeReport:
    """What one fleet resize did: the migration, measured."""

    old_shard_count: int
    new_shard_count: int
    keys_moved: int
    shards_added: tuple[str, ...]
    shards_removed: tuple[str, ...]
    elapsed_ms: float


@dataclass(frozen=True)
class AuditEvent:
    """One admitted-or-refused request, as the bounded audit log records it."""

    sequence: int
    tenant: str
    action: str
    outcome: str  # "ok" or an error code
    detail: str


# -------------------------------------------------------------------- gateway


@dataclass
class ReEncryptionGateway:
    """N proxy shards behind routing, caching, batching and rate limiting.

    Elasticity and durability (both optional, both off by default):

    * ``workers > 0`` attaches a :class:`~repro.service.pool.ShardPool`
      thread pool, and batches execute their per-delegation groups
      concurrently across shards — per-shard locks keep every shard's
      table and log single-writer, so results stay bit-identical to
      sequential execution.
    * ``state_dir`` backs every shard's key table with a
      :class:`~repro.service.persistence.DurableProxyKeyTable` append
      log under that directory, named ``<shard>.log``.  Opening a state
      dir adopts logs left by a *different* fleet size (or a crash
      mid-resize) and re-homes every key onto the shard the current
      router owns it with, so no delegation is ever lost to a restart.
    * :meth:`resize` rebalances a live fleet, migrating exactly the keys
      whose consistent-hash owner changed.
    """

    # The paper's raw scheme (historical spelling) or any registered
    # PreBackend — the whole service stack runs on the backend API.
    scheme: TypeAndIdentityPre | PreBackend
    shard_count: int = 4
    store: object | None = None  # EncryptedPhrStore | FilePhrStore (duck-typed)
    rate_per_s: float | None = None  # None disables rate limiting
    burst: float | None = None  # defaults to 2 * rate_per_s
    key_cache_size: int = 256
    result_cache_size: int = 1024
    max_audit_entries: int = 10_000
    max_shard_log_entries: int = DEFAULT_MAX_LOG_ENTRIES
    clock: Callable[[], float] = time.monotonic
    workers: int = 0  # 0 = sequential batch execution
    state_dir: str | Path | None = None  # None = in-memory key tables
    fsync: bool = False  # fsync every durable append (slow, strongest)
    # Custom shard construction, e.g. a benchmark modelling remote-shard
    # latency; receives (name, durable_table_or_None).
    shard_factory: Callable[[str, object | None], ProxyService] | None = None
    # Telemetry (PR 6): ``telemetry=False`` disables span recording and
    # event emission entirely (the bench_e14 baseline); otherwise a
    # bounded Tracer ring and EventLog are created unless injected.
    telemetry: bool = True
    tracer: Tracer | None = None
    event_log: EventLog | None = None
    # Per-tenant admission policy (duck-typed
    # :class:`repro.service.auth.policy.PolicyEngine`; the auth package
    # imports this module, so the reverse import stays structural-only).
    # ``admit(tenant, op, cost)`` returning True replaces the global
    # limiter for that tenant; False falls through to it.
    policy: object | None = None
    backend: PreBackend = field(init=False, repr=False)
    _shards: dict[str, ProxyService] = field(init=False)
    _router: ShardRouter = field(init=False)
    _pool: ShardPool = field(init=False)
    _key_cache: LruCache = field(init=False)
    _result_cache: LruCache = field(init=False)
    _limiter: TokenBucket | None = field(init=False)
    _audit: deque = field(init=False)
    _audit_lock: threading.Lock = field(init=False, repr=False)
    _audit_sequence: int = field(init=False, default=0)
    metrics: GatewayMetrics = field(init=False)

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be positive")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        self.backend = resolve_backend(self.scheme)
        # Replaying a cached transformation is only sound when the
        # scheme's re-encryption is a pure function of (ciphertext, key).
        self._cache_results = self.backend.capabilities.deterministic_reencrypt
        names = ["shard-%02d" % i for i in range(self.shard_count)]
        self._router = ShardRouter(names)
        self._pool = ShardPool(names, workers=self.workers)
        self._shards = {name: self._make_shard(name) for name in names}
        self._key_cache = LruCache(self.key_cache_size, name="key_cache")
        self._result_cache = LruCache(self.result_cache_size, name="result_cache")
        self._audit = deque(maxlen=self.max_audit_entries)
        self._audit_lock = threading.Lock()
        self.metrics = GatewayMetrics(clock=self.clock)
        if self.telemetry:
            if self.tracer is None:
                self.tracer = Tracer(clock=self.clock)
            if self.event_log is None:
                self.event_log = EventLog()
        else:
            self.tracer = None
            self.event_log = None
        self._limiter = None
        self.set_rate_limit(self.rate_per_s, self.burst)
        if self.state_dir is not None:
            self._adopt_orphan_logs()
            self._rehome_misrouted_keys()

    def _make_shard(self, name: str) -> ProxyService:
        table: DurableProxyKeyTable | None = None
        if self.state_dir is not None:
            state_dir = Path(self.state_dir)
            state_dir.mkdir(parents=True, exist_ok=True)
            table = DurableProxyKeyTable(
                state_dir / ("%s.log" % name), self.backend, fsync=self.fsync
            )
        if self.shard_factory is not None:
            return self.shard_factory(name, table)
        return ProxyService(
            self.backend,
            name=name,
            max_log_entries=self.max_shard_log_entries,
            table=table if table is not None else ProxyKeyTable(),
        )

    def _adopt_orphan_logs(self) -> None:
        """Absorb key logs written under a different fleet size.

        A state dir may hold logs for shards that no longer exist — the
        process was restarted with a different ``shard_count``, or died
        between a resize's install and delete.  Their keys are installed
        onto the shards the *current* router owns them with, then the
        orphan file is removed; re-installing a key that already migrated
        is idempotent, so this is crash-safe to repeat.
        """
        for path in sorted(Path(self.state_dir).glob("*.log")):
            if path.stem in self._shards:
                continue
            orphan = DurableProxyKeyTable(path, self.backend)
            for key in list(orphan):
                owner = self._router.shard_for(
                    key.delegator_domain, key.delegator, key.type_label
                )
                self._shards[owner].install_key(key)
            orphan.delete()

    def _migrate_keys(self, router: ShardRouter) -> int:
        """Move every key to the shard ``router`` owns it with; returns count.

        Install-before-revoke on every move: with durable tables a crash
        mid-sweep leaves a key in both logs, which the next open repairs
        (re-homing is idempotent) — never in neither.  Callers must hold
        the whole fleet (construction, or ``lock_all``).
        """
        moved = 0
        for name, shard in list(self._shards.items()):
            doomed = []
            for key in list(shard.table):
                owner = router.shard_for(
                    key.delegator_domain, key.delegator, key.type_label
                )
                if owner != name:
                    self._shards[owner].install_key(key)
                    doomed.append(ProxyKeyTable.index_of(key))
            for index in doomed:
                shard.table.revoke(index)
            moved += len(doomed)
        return moved

    def _rehome_misrouted_keys(self) -> int:
        """Move any loaded key not owned by its shard to the right one."""
        return self._migrate_keys(self._router)

    # ------------------------------------------------------------- internals

    def set_rate_limit(self, rate_per_s: float | None, burst: float | None = None) -> None:
        """Install, replace or (with ``None``) remove the per-tenant limiter.

        Existing bucket state is discarded — an admin retuning the limit
        grants every tenant a fresh burst.
        """
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._limiter = (
            TokenBucket(
                rate_per_s,
                burst if burst is not None else 2 * rate_per_s,
                self.clock,
            )
            if rate_per_s is not None
            else None
        )

    @property
    def scheme_id(self) -> str:
        """The hosted backend's wire- and disk-stable scheme id."""
        return self.backend.scheme_id

    def shard_named(self, name: str) -> ProxyService:
        return self._shards[name]

    @property
    def shard_names(self) -> list[str]:
        return self._router.shards

    def _route(self, delegator_domain: str, delegator: str, type_label: str) -> str:
        return self._router.shard_for(delegator_domain, delegator, type_label)

    @contextmanager
    def _owned_shard(
        self,
        delegator_domain: str,
        delegator: str,
        type_label: str,
        tenant: str | None = None,
    ) -> Iterator[tuple[str, ProxyService]]:
        """Lock and yield the shard that owns a route key — resize-proof.

        Routing happens before the lock is taken, so a concurrent
        :meth:`resize` can move ownership in between; the loop re-checks
        the assignment *under* the lock and retries until route and lock
        agree.  Only one shard lock is ever held at a time, which keeps
        the lock order compatible with resize's sorted whole-fleet sweep.

        With ``tenant`` the time spent waiting for the lock lands in the
        per-tenant queue-time histogram — the fairness signal that shows
        one hot tenant making everyone else wait.
        """
        queued_at = self.clock() if tenant is not None else 0.0
        while True:
            name = self._route(delegator_domain, delegator, type_label)
            lock = self._pool.lock_object(name)
            if lock is None:
                continue  # shard retired between route and lock; re-route
            with lock:
                if (
                    # A retire-then-re-add pair of resizes replaces the
                    # lock object; holding the orphaned one is not mutual
                    # exclusion, so insist we hold the *current* lock.
                    self._pool.lock_object(name) is lock
                    and name in self._shards
                    and self._route(delegator_domain, delegator, type_label) == name
                ):
                    if tenant is not None:
                        self.metrics.observe_queue(
                            tenant, (self.clock() - queued_at) * 1000
                        )
                    yield name, self._shards[name]
                    return

    def _span(self, trace: TraceContext | None, name: str, **attributes):
        """A tracer span context manager, or a no-op when tracing is off.

        Usable on any request path: in-process callers that never pass a
        trace context (and gateways built with ``telemetry=False``) pay
        one ``None`` check, nothing more.
        """
        if self.tracer is None or trace is None:
            return nullcontext(None)
        return self.tracer.span(trace, name, attributes or None)

    def _record_audit(
        self,
        tenant: str,
        action: str,
        outcome: str,
        detail: str,
        trace: TraceContext | None = None,
        latency_ms: float | None = None,
        shard: str | None = None,
    ) -> None:
        with self._audit_lock:
            self._audit.append(
                AuditEvent(
                    sequence=self._audit_sequence,
                    tenant=tenant,
                    action=action,
                    outcome=outcome,
                    detail=detail,
                )
            )
            self._audit_sequence += 1
        if self.event_log is not None:
            self.event_log.emit(
                "audit",
                scheme=self.scheme_id,
                tenant=tenant,
                action=action,
                outcome=outcome,
                shard=shard,
                latency_ms=latency_ms,
                trace=trace.trace_id if trace is not None else None,
                detail=detail or None,
            )

    def _rejection(
        self,
        op: str,
        tenant: str,
        error_class: type[GatewayError],
        detail: str,
        trace: TraceContext | None,
    ) -> GatewayError:
        """Count and audit a refused transformation; returns the error to raise."""
        self.metrics.observe_rejection(op=op, tenant=tenant, code=error_class.code)
        self._record_audit(tenant, op, error_class.code, detail, trace=trace)
        return error_class(detail)

    def _admit(
        self,
        tenant: str,
        action: str,
        cost: float = 1.0,
        trace: TraceContext | None = None,
    ) -> None:
        with self._span(trace, "admission", tenant=tenant, op=action) as span:
            if self.policy is not None:
                try:
                    if self.policy.admit(tenant, action, cost):
                        return  # tenant-specific limits admitted the request
                except GatewayError as error:
                    if span is not None:
                        span.status = error.code
                    self.metrics.observe_rejection(
                        rate_limited=isinstance(error, RateLimitedError),
                        op=action,
                        tenant=tenant,
                        code=error.code,
                    )
                    self._record_audit(
                        tenant, action, error.code, "cost=%g" % cost, trace=trace
                    )
                    raise
            if self._limiter is not None and not self._limiter.allow(tenant, cost):
                if span is not None:
                    span.status = RateLimitedError.code
                self.metrics.observe_rejection(
                    rate_limited=True, op=action, tenant=tenant, code=RateLimitedError.code
                )
                self._record_audit(
                    tenant, action, RateLimitedError.code, "cost=%g" % cost, trace=trace
                )
                raise RateLimitedError(
                    "tenant %r exceeded %g req/s" % (tenant, self.rate_per_s)
                )

    def _resolve_key(
        self, index: tuple[str, str, str, str, str], shard: ProxyService
    ) -> ProxyKey:
        """Key-cache-backed table lookup; misses fall through to the shard."""
        key = self._key_cache.get(index)
        if key is None:
            key = shard.table.get(index)
            if key is None:
                raise NoProxyKeyError(
                    "no proxy key for delegator=%r delegatee=%r type=%r"
                    % (index[1], index[3], index[4])
                )
            self._key_cache.put(index, key)
        return key

    def _invalidate_delegation(self, index: tuple[str, str, str, str, str]) -> None:
        delegator_domain, delegator, delegatee_domain, delegatee, type_label = index
        self._key_cache.invalidate(index)
        self._result_cache.invalidate_where(
            lambda key: (
                key[0].domain == delegator_domain
                and key[0].identity == delegator
                and key[0].type_label == type_label
                and key[1] == delegatee_domain
                and key[2] == delegatee
            )
        )

    # ------------------------------------------------------------ operations

    def grant(
        self, request: GrantRequest, trace: TraceContext | None = None
    ) -> GrantResponse:
        """Install a proxy key on the shard that owns its delegator/type."""
        self._admit(request.tenant, "grant", trace=trace)
        start = self.clock()
        key = request.proxy_key
        with self._span(trace, "route") as span:
            route = self._route(key.delegator_domain, key.delegator, key.type_label)
            if span is not None:
                span.set("shard", route)
        with self._span(trace, "shard-install") as span:
            with self._owned_shard(
                key.delegator_domain, key.delegator, key.type_label, tenant=request.tenant
            ) as (shard_name, shard):
                shard.install_key(key)
                # Invalidate under the lock, after the install: cache writes
                # also hold the lock, so nothing stale can sneak back in.
                self._invalidate_delegation(ProxyKeyTable.index_of(key))
            if span is not None:
                span.set("shard", shard_name)
        latency_ms = (self.clock() - start) * 1000
        self.metrics.observe("grant", latency_ms, shard_name, tenant=request.tenant)
        self._record_audit(
            request.tenant,
            "grant",
            "ok",
            "%s->%s type=%s shard=%s" % (key.delegator, key.delegatee, key.type_label, shard_name),
            trace=trace,
            latency_ms=latency_ms,
            shard=shard_name,
        )
        return GrantResponse(shard=shard_name)

    def revoke(
        self, request: RevokeRequest, trace: TraceContext | None = None
    ) -> RevokeResponse:
        """Remove a delegation everywhere: shard table and both caches."""
        self._admit(request.tenant, "revoke", trace=trace)
        start = self.clock()
        index: tuple[str, str, str, str, str] = (
            request.delegator_domain,
            request.delegator,
            request.delegatee_domain,
            request.delegatee,
            request.type_label,
        )
        with self._span(trace, "shard-revoke") as span:
            with self._owned_shard(
                request.delegator_domain,
                request.delegator,
                request.type_label,
                tenant=request.tenant,
            ) as (shard_name, shard):
                removed = shard.revoke_key(*index)
                self._invalidate_delegation(index)
            if span is not None:
                span.set("shard", shard_name)
                span.set("removed", removed)
        latency_ms = (self.clock() - start) * 1000
        self.metrics.observe("revoke", latency_ms, shard_name, tenant=request.tenant)
        self._record_audit(
            request.tenant,
            "revoke",
            "ok",
            "%s->%s type=%s removed=%s"
            % (request.delegator, request.delegatee, request.type_label, removed),
            trace=trace,
            latency_ms=latency_ms,
            shard=shard_name,
        )
        return RevokeResponse(shard=shard_name, removed=removed)

    def reencrypt(
        self, request: ReEncryptRequest, trace: TraceContext | None = None
    ) -> ReEncryptResponse:
        """Transform one ciphertext, consulting both caches."""
        self._admit(request.tenant, "reencrypt", trace=trace)
        start = self.clock()
        ciphertext = request.ciphertext
        result_key = (ciphertext, request.delegatee_domain, request.delegatee)
        with self._span(trace, "cache-lookup") as span:
            cached = self._result_cache.get(result_key) if self._cache_results else None
            if span is not None:
                span.set("hit", cached is not None)
        if cached is not None:
            with self._span(trace, "route") as span:
                shard_name = self._route(
                    ciphertext.domain, ciphertext.identity, ciphertext.type_label
                )
                if span is not None:
                    span.set("shard", shard_name)
            latency_ms = (self.clock() - start) * 1000
            self.metrics.observe(
                "reencrypt", latency_ms, shard_name, tenant=request.tenant
            )
            self._record_audit(
                request.tenant,
                "reencrypt",
                "ok",
                "cache-hit shard=%s" % shard_name,
                trace=trace,
                latency_ms=latency_ms,
                shard=shard_name,
            )
            return ReEncryptResponse(ciphertext=cached, shard=shard_name, cache_hit=True)
        index = ProxyKeyTable.request_index(
            ciphertext, request.delegatee_domain, request.delegatee
        )
        with self._span(trace, "route") as span:
            route = self._route(
                ciphertext.domain, ciphertext.identity, ciphertext.type_label
            )
            if span is not None:
                span.set("shard", route)
        with self._span(trace, "shard-crypto") as span:
            with self._owned_shard(
                ciphertext.domain,
                ciphertext.identity,
                ciphertext.type_label,
                tenant=request.tenant,
            ) as (shard_name, shard):
                if span is not None:
                    span.set("shard", shard_name)
                try:
                    key = self._resolve_key(index, shard)
                except NoProxyKeyError as error:
                    raise self._rejection(
                        "reencrypt", request.tenant, DelegationNotFoundError, str(error), trace
                    ) from error
                try:
                    result = shard.reencrypt_with_key(ciphertext, key)
                except PointOrderError as error:
                    # Grants are not subgroup-checked, so a key whose point
                    # is on the curve but outside G1 fails on first use.
                    raise self._rejection(
                        "reencrypt", request.tenant, InvalidRequestError, str(error), trace
                    ) from error
                if self._cache_results:
                    self._result_cache.put(result_key, result)
        latency_ms = (self.clock() - start) * 1000
        self.metrics.observe("reencrypt", latency_ms, shard_name, tenant=request.tenant)
        self._record_audit(
            request.tenant,
            "reencrypt",
            "ok",
            "shard=%s" % shard_name,
            trace=trace,
            latency_ms=latency_ms,
            shard=shard_name,
        )
        return ReEncryptResponse(ciphertext=result, shard=shard_name, cache_hit=False)

    def reencrypt_batch(
        self,
        requests: Sequence[ReEncryptRequest],
        trace: TraceContext | None = None,
    ) -> list[ReEncryptResponse]:
        """Transform a batch; key lookups are amortized per delegation group.

        Produces bit-identical ciphertexts to issuing the requests one by
        one (``Preenc`` is deterministic), in submission order — with or
        without workers.  Execution is two-phase: every group's
        delegation is checked first (so a missing delegation aborts
        before any side effects), then each group's transformations run
        as one shard-pool task that resolves its key *under the shard
        lock* — a grant or revoke racing the batch is therefore either
        fully before or fully after each group, never interleaved with
        it.  Groups never share a delegation, and same-shard groups
        serialize on the shard lock, so concurrency cannot reorder what
        any single shard observes.
        """
        if not requests:
            raise InvalidRequestError("empty batch")
        if self.policy is not None:
            limit = self.policy.max_batch(requests[0].tenant)
            if limit is not None and len(requests) > limit:
                self.metrics.observe_rejection(
                    op="reencrypt-batch",
                    tenant=requests[0].tenant,
                    code=InvalidRequestError.code,
                )
                self._record_audit(
                    requests[0].tenant,
                    "reencrypt-batch",
                    InvalidRequestError.code,
                    "batch=%d max=%d" % (len(requests), limit),
                    trace=trace,
                )
                raise InvalidRequestError(
                    "batch of %d exceeds tenant %r max batch size %d"
                    % (len(requests), requests[0].tenant, limit)
                )
        with self._span(trace, "admission", items=len(requests)):
            for request in requests:
                self._admit(request.tenant, "reencrypt-batch")
        start = self.clock()
        items = [
            (request.ciphertext, request.delegatee_domain, request.delegatee)
            for request in requests
        ]
        groups = ReEncryptBatcher.group(items)

        def check_delegation(group_key: tuple[str, str, str, str, str]) -> ProxyKey:
            """Existence guard: lock-free on the hit path, locked on a miss.

            A lock-free read can miss a key that a resize is migrating
            (revoked from the old owner, router not yet swapped), so a
            miss is only authoritative after re-reading under the owning
            shard's lock — which queues behind any in-flight resize.
            Deliberately does not touch the key cache: cache writes only
            happen under a shard lock, in the group task below.
            """
            shard = self._shards.get(
                self._route(group_key[0], group_key[1], group_key[4])
            )
            if shard is not None:
                key = shard.table.get(group_key)
                if key is not None:
                    return key
            with self._owned_shard(
                group_key[0], group_key[1], group_key[4]
            ) as (_name, owned):
                key = owned.table.get(group_key)
                if key is None:
                    raise NoProxyKeyError(
                        "no proxy key for delegator=%r delegatee=%r type=%r"
                        % (group_key[1], group_key[3], group_key[4])
                    )
                return key

        results: list[ReEncryptedCiphertext | None] = [None] * len(items)
        hit_flags = [False] * len(items)
        shard_names = [""] * len(items)

        def group_task(group) -> Callable[[], None]:
            def run() -> None:
                with self._owned_shard(
                    group.group_key[0],
                    group.group_key[1],
                    group.group_key[4],
                    tenant=requests[group.positions[0]].tenant,
                ) as (shard_name, shard):
                    try:
                        key = self._resolve_key(group.group_key, shard)
                    except NoProxyKeyError as error:
                        # Revoked between the guard and this task.
                        raise BatchItemError(group.positions[0], error) from error
                    miss_positions: list[int] = []
                    miss_ciphertexts = []
                    miss_keys = []
                    pending: dict = {}
                    duplicates: list[tuple[int, int]] = []
                    for position, ciphertext in zip(group.positions, group.ciphertexts):
                        shard_names[position] = shard_name
                        result_key = (ciphertext, key.delegatee_domain, key.delegatee)
                        cached = (
                            self._result_cache.get(result_key)
                            if self._cache_results
                            else None
                        )
                        if cached is not None:
                            hit_flags[position] = True
                            results[position] = cached
                            continue
                        if self._cache_results and result_key in pending:
                            # Duplicate within this batch: served by the first
                            # occurrence's computation, reported as a hit
                            # (matching the per-item loop's put-then-get order).
                            hit_flags[position] = True
                            duplicates.append((position, pending[result_key]))
                            continue
                        if self._cache_results:
                            pending[result_key] = len(miss_positions)
                        miss_positions.append(position)
                        miss_ciphertexts.append(ciphertext)
                        miss_keys.append(result_key)
                    if not miss_positions:
                        return
                    # One batched transformation for the whole group: the
                    # backend amortises the pairing precomputation across
                    # every ciphertext sharing this proxy key.
                    try:
                        transformed = shard.reencrypt_many_with_key(miss_ciphertexts, key)
                    except Exception:  # noqa: BLE001 - replayed for attribution
                        # The batch failed as a unit; replay item-by-item so
                        # the error is pinned to a position (the ops are
                        # deterministic, so survivors produce the same
                        # results the batch would have).
                        transformed = []
                        for position, ciphertext in zip(miss_positions, miss_ciphertexts):
                            try:
                                transformed.append(
                                    shard.reencrypt_with_key(ciphertext, key)
                                )
                            except Exception as error:  # noqa: BLE001 - rewrapped
                                raise BatchItemError(position, error) from error
                    for position, result_key, result in zip(
                        miss_positions, miss_keys, transformed
                    ):
                        results[position] = result
                        if self._cache_results:
                            self._result_cache.put(result_key, result)
                    for position, miss_index in duplicates:
                        results[position] = transformed[miss_index]

            return run

        try:
            with self._span(trace, "delegation-check", groups=len(groups)):
                ReEncryptBatcher.resolve_all(groups, check_delegation)
            with self._span(trace, "shard-crypto", groups=len(groups)):
                self._pool.run_many([(None, group_task(group)) for group in groups])
        except BatchItemError as error:
            error_class = GatewayError
            if isinstance(error.cause, NoProxyKeyError):
                error_class = DelegationNotFoundError
            elif isinstance(error.cause, PointOrderError):
                error_class = InvalidRequestError
            raise self._rejection(
                "reencrypt-batch",
                requests[error.position].tenant,
                error_class,
                str(error.cause),
                trace,
            ) from error
        elapsed_ms = (self.clock() - start) * 1000
        per_item_ms = elapsed_ms / len(requests)
        for request, shard_name in zip(requests, shard_names):
            self.metrics.observe(
                "reencrypt", per_item_ms, shard_name, tenant=request.tenant
            )
            self._record_audit(
                request.tenant,
                "reencrypt-batch",
                "ok",
                "shard=%s" % shard_name,
                trace=trace,
                latency_ms=per_item_ms,
                shard=shard_name,
            )
        return [
            ReEncryptResponse(ciphertext=result, shard=shard_name, cache_hit=hit)
            for result, shard_name, hit in zip(results, shard_names, hit_flags)
        ]

    def fetch(
        self, request: FetchRequest, trace: TraceContext | None = None
    ) -> FetchResponse:
        """Read ciphertext blobs from the attached PHR store."""
        self._admit(request.tenant, "fetch", trace=trace)
        if self.store is None:
            self.metrics.observe_rejection(
                op="fetch", tenant=request.tenant, code=StoreUnavailableError.code
            )
            self._record_audit(
                request.tenant, "fetch", StoreUnavailableError.code, "", trace=trace
            )
            raise StoreUnavailableError("gateway has no PHR store attached")
        start = self.clock()
        try:
            with self._span(trace, "store-read", patient=request.patient):
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
            self._record_audit(
                request.tenant, "fetch", EntryMissingError.code, str(error), trace=trace
            )
            raise EntryMissingError(str(error)) from error
        latency_ms = (self.clock() - start) * 1000
        self.metrics.observe("fetch", latency_ms, tenant=request.tenant)
        self._record_audit(
            request.tenant,
            "fetch",
            "ok",
            "patient=%s n=%d" % (request.patient, len(records)),
            trace=trace,
            latency_ms=latency_ms,
        )
        return FetchResponse(records=records)

    # ------------------------------------------------------------- elasticity

    def resize(
        self,
        shard_count: int,
        tenant: str = "admin",
        trace: TraceContext | None = None,
    ) -> ResizeReport:
        """Rebalance the fleet to ``shard_count`` shards, migrating keys.

        Consistent hashing keeps the migration minimal: only keys whose
        route triple changes owner move.  The whole fleet is locked for
        the duration (concurrent requests queue on the shard locks), and
        every key is installed on its new shard *before* being revoked
        from the old one — with durable tables, a crash mid-migration
        leaves the key in both logs and :meth:`_adopt_orphan_logs` /
        :meth:`_rehome_misrouted_keys` repair the split on next open.
        Zero delegations are lost in either order of events.
        """
        if shard_count < 1:
            raise InvalidRequestError("shard_count must be positive")
        self._admit(tenant, "resize", trace=trace)
        start = self.clock()
        with self._span(trace, "migrate", shard_count=shard_count), self._pool.lock_all():
            old_names = self._router.shards
            new_names = ["shard-%02d" % i for i in range(shard_count)]
            added = tuple(name for name in new_names if name not in self._shards)
            removed = tuple(name for name in old_names if name not in new_names)
            new_router = ShardRouter(new_names)
            for name in added:
                self._shards[name] = self._make_shard(name)
            moved = self._migrate_keys(new_router)
            for name in removed:
                retired = self._shards.pop(name)
                if isinstance(retired.table, DurableProxyKeyTable):
                    retired.table.delete()
            self._router = new_router
            self._pool.set_shards(new_names)
            self.shard_count = shard_count
        elapsed_ms = (self.clock() - start) * 1000
        self.metrics.observe("resize", elapsed_ms, tenant=tenant)
        self.metrics.observe_resize(moved)
        self._record_audit(
            tenant,
            "resize",
            "ok",
            "%d->%d moved=%d added=%d removed=%d"
            % (len(old_names), shard_count, moved, len(added), len(removed)),
            trace=trace,
            latency_ms=elapsed_ms,
        )
        return ResizeReport(
            old_shard_count=len(old_names),
            new_shard_count=shard_count,
            keys_moved=moved,
            shards_added=added,
            shards_removed=removed,
            elapsed_ms=elapsed_ms,
        )

    def close(self) -> None:
        """Stop the worker pool and close every durable shard table.

        Safe to call more than once; the gateway must not be used after.
        """
        self._pool.shutdown()
        with self._pool.lock_all():
            for shard in self._shards.values():
                if isinstance(shard.table, DurableProxyKeyTable):
                    shard.table.close()

    # ---------------------------------------------------------- observability

    @property
    def audit(self) -> list[AuditEvent]:
        """The bounded audit log (copy, oldest first)."""
        return list(self._audit)

    def key_count(self) -> int:
        """Total installed keys across all shards."""
        return sum(shard.key_count() for shard in self._shards.values())

    def list_keys(self) -> list[ProxyKey]:
        """Every installed proxy key, shard order (the wire export surface).

        A point-in-time enumeration, lock-free like the driver's table
        walks: a concurrent grant or revoke may or may not be reflected.
        The fleet tier streams these during resize migration.
        """
        keys: list[ProxyKey] = []
        for name in sorted(self._shards):
            keys.extend(list(self._shards[name].table))
        return keys

    def shard_key_counts(self) -> dict[str, int]:
        return {name: shard.key_count() for name, shard in self._shards.items()}

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot(
            caches={
                "key_cache": self._key_cache.stats(),
                "result_cache": self._result_cache.stats(),
            }
        )

    def cache_stats(self) -> dict[str, CacheStats]:
        return {
            "key_cache": self._key_cache.stats(),
            "result_cache": self._result_cache.stats(),
        }
