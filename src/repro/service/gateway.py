"""The gateway: a typed request/response front door over a shard fleet.

One :class:`ReEncryptionGateway` owns one proxy-key table, N
:class:`~repro.core.proxy.ProxyService` shards that share it, a
consistent-hash :class:`~repro.service.router.ShardRouter`, an LRU result
cache and a metrics accumulator.  Callers speak the four request
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
one that produced them.  Grants and revokes therefore drop the affected
delegation's cached results *after* mutating the table, under the owning
shard's lock — and every cache *write* also happens under that lock, so
a racing transformation can never re-populate an entry after the
invalidation that was meant to kill it.

The result cache holds canonical bytes, one map per delegation:
``{delegation: {ciphertext bytes: re-encrypted bytes}}``.  Bytes are a
sound key because the decoders accept only canonical encodings (equal
bytes are equal ciphertexts), and an entry exists only for bytes that
decoded once.  A request off the wire arrives as an
:class:`~repro.core.api.EncodedCiphertext` — header plus bytes — and is
decompressed only on a miss, before admission and any crypto; a hit
answers with the cached bytes as an :class:`~repro.core.api.Encoded` the
codec writes back without serializing.

Shards may live in other processes: a shard whose ``forwards`` is set (a
fleet's :class:`~repro.service.fleet.RemoteShard`) sends the resolved
key and the request's bytes to a worker, and the gateway then decodes
no request ciphertext and no answer at all.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro._intern import intern
from repro.core.api import Encoded, PreBackend, resolve_backend
from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.core.proxy import (
    DEFAULT_MAX_LOG_ENTRIES,
    KeyIndex,
    NoProxyKeyError,
    ProxyKeyTable,
    ProxyService,
)
from repro.core.scheme import TypeAndIdentityPre
from repro.pairing.miller import PointOrderError
from repro.serialization.encoding import EncodingError
from repro.phr.stored import EntryNotFoundError, StoredRecord
from repro.service.batch import BatchItemError, ReEncryptBatcher
from repro.service.cache import CacheStats, LruCache
from repro.service.metrics import GatewayMetrics, MetricsSnapshot
from repro.service.persistence import DurableProxyKeyTable, open_key_log
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


def _route_of(key: ProxyKey) -> tuple[str, str, str]:
    return key.delegator_domain, key.delegator, key.type_label


@functools.lru_cache(maxsize=256)
def _served_detail(shard: str, cache_hit: bool = False) -> str:
    """A served re-encryption's audit detail: one string per shard, not per request."""
    return ("cache-hit shard=%s" if cache_hit else "shard=%s") % shard


# A stage's context manager on a gateway that runs with no tracer.
_UNTRACED = nullcontext()


def _untraced_span(_trace, _name, _attributes=None) -> nullcontext:
    return _UNTRACED


def _recorded(operation):
    """``operation(request, trace)``, filing the stages of a traced call as
    one request record: its own, unless the running record (the wire
    engine's) already covers the trace."""

    @functools.wraps(operation)
    def call(self, request, trace=None):
        record = None if trace is None or self.tracer is None else self.tracer.record(trace)
        if record is None:
            return operation(self, request, trace)
        with record:
            return operation(self, request, trace)

    return call


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
    Thread-safe: admission may race across concurrent gateway calls.
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
    ciphertext: ReEncryptedCiphertext  # or an Encoded view of one
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
    """What one fleet resize did, measured: ``keys_moved`` keys changed owner."""

    old_shard_count: int
    new_shard_count: int
    keys_moved: int
    shards_added: tuple[str, ...]
    shards_removed: tuple[str, ...]
    elapsed_ms: float


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One admitted-or-refused request, as :attr:`ReEncryptionGateway.audit` reads it."""

    sequence: int
    tenant: str
    action: str
    outcome: str  # "ok" or an error code
    detail: str


# -------------------------------------------------------------------- gateway


@dataclass
class ReEncryptionGateway:
    """N proxy shards over one key table, behind routing, caching,
    batching and rate limiting.

    The gateway starts no threads.  Callers may invoke it from many
    threads at once (the wire servers do).  Every shard reads and writes
    the gateway's one :class:`~repro.core.proxy.ProxyKeyTable`; a shard
    is a lock from :class:`~repro.service.pool.ShardPool`, a name and a
    transformation log.  A call that writes a delegation's key, or
    transforms under it, holds the lock of the shard the router assigns
    the delegation, so a grant and a racing re-encryption of one
    delegation serialize.

    Durability and elasticity (both optional, both off by default):

    * ``state_dir`` backs the table with a
      :class:`~repro.service.persistence.DurableProxyKeyTable` append
      log, ``<state_dir>/keys.log``.  Opening a state dir folds the
      per-shard logs of the older layout (``shard-NN.log``) into it.
    * :meth:`resize` swaps the router and the lock set; no key moves and
      nothing is written.  A shard a resize removes is retired.
    """

    # The paper's raw scheme (historical spelling) or any registered
    # PreBackend — the whole service stack runs on the backend API.
    scheme: TypeAndIdentityPre | PreBackend
    shard_count: int = 4
    store: object | None = None  # EncryptedPhrStore | FilePhrStore (duck-typed)
    rate_per_s: float | None = None  # None disables rate limiting
    burst: float | None = None  # defaults to 2 * rate_per_s
    result_cache_size: int = 1024
    max_audit_entries: int = 10_000
    max_shard_log_entries: int = DEFAULT_MAX_LOG_ENTRIES
    clock: Callable[[], float] = time.monotonic
    state_dir: str | Path | None = None  # None = in-memory key table
    fsync: bool = False  # fsync every durable append (slow, strongest)
    # Custom shard construction, e.g. a fleet's remote shards or a
    # benchmark modelling their latency; receives (name, the gateway's key
    # table), and the shard it returns must keep its keys in that table.
    shard_factory: Callable[[str, ProxyKeyTable], ProxyService] | None = None
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
    # Whether the shards send their transformations to other processes.
    forwards: bool = field(init=False)
    _table: ProxyKeyTable = field(init=False, repr=False)
    _shards: dict[str, ProxyService] = field(init=False)
    _router: ShardRouter = field(init=False)
    _pool: ShardPool = field(init=False)
    _result_cache: LruCache = field(init=False)
    _limiter: TokenBucket | None = field(init=False)
    # (tenant, action, outcome, detail) per request, one shared tuple per
    # distinct entry; the sequence is implied by ring position and
    # ``audit`` builds the AuditEvents.
    _audit: deque = field(init=False)
    _audit_lock: threading.Lock = field(init=False, repr=False)
    _audit_entries: dict[tuple, tuple] = field(init=False, repr=False)
    _tenant_names: dict[str, str] = field(init=False, repr=False)
    _audit_sequence: int = field(init=False, default=0)
    metrics: GatewayMetrics = field(init=False)

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be positive")
        self.backend = resolve_backend(self.scheme)
        # Replaying a cached transformation is only sound when the
        # scheme's re-encryption is a pure function of (ciphertext, key).
        self._cache_results = self.backend.capabilities.deterministic_reencrypt
        names = ["shard-%02d" % i for i in range(self.shard_count)]
        self._router = ShardRouter(names)
        self._pool = ShardPool(names)
        self._table = (
            ProxyKeyTable()
            if self.state_dir is None
            else open_key_log(self.state_dir, self.backend, fsync=self.fsync)
        )
        self._shards = {name: self._make_shard(name) for name in names}
        self.forwards = any(shard.forwards for shard in self._shards.values())
        self._result_cache = LruCache(self.result_cache_size, name="result_cache")
        self._audit = deque(maxlen=self.max_audit_entries)
        self._audit_lock = threading.Lock()
        self._audit_entries = {}
        self._tenant_names = {}
        self.metrics = GatewayMetrics(clock=self.clock)
        if self.telemetry:
            if self.tracer is None:
                self.tracer = Tracer(clock=self.clock)
            if self.event_log is None:
                self.event_log = EventLog()
        else:
            self.tracer = None
            self.event_log = None
        # A stage's context manager: the tracer's span (a no-op for a call
        # given no trace), or a no-op when tracing is off.
        self._span = _untraced_span if self.tracer is None else self.tracer.span
        self._limiter = None
        self.set_rate_limit(self.rate_per_s, self.burst)

    def _make_shard(self, name: str) -> ProxyService:
        if self.shard_factory is not None:
            return self.shard_factory(name, self._table)
        return ProxyService(
            self.backend,
            name=name,
            max_log_entries=self.max_shard_log_entries,
            table=self._table,
        )

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
        """Append one entry to the audit ring and its ``audit`` event to
        the event log.

        Both hold one shared (tenant, action, outcome, detail) tuple per
        distinct entry, not one per request.  While the wire engine
        answers a request, the event joins the request's record if the
        engine collects for this gateway's own event log (see
        :meth:`EventLog.collect`), and reaches the log and its sink when
        the answer is filed; otherwise it is filed at once.
        """
        with self._audit_lock:
            shared = intern(
                self._audit_entries, (tenant, action, outcome, detail), self._shared_entry
            )
            self._audit.append(shared)
            self._audit_sequence += 1
        if self.event_log is not None:
            self.event_log.audit(
                self.scheme_id,
                shared,
                shard,
                latency_ms,
                trace.trace_id if trace is not None else None,
            )

    def _shared_entry(self, entry: tuple[str, str, str, str]) -> tuple[str, str, str, str]:
        # Each tenant's name once in the bounded logs, not once per entry.
        tenant, action, outcome, detail = entry
        return (intern(self._tenant_names, tenant), action, outcome, detail)

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
        # A traced request's record keeps the tenant name the audit shares.
        shared = self._tenant_names.get(tenant, tenant)
        with self._span(trace, "admission", {"tenant": shared, "op": action}) as span:
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

    def _resolve_key(self, index: KeyIndex) -> ProxyKey:
        """The installed key for a delegation (lock-free); raises NoProxyKeyError if none."""
        key = self._table.get(index)
        if key is None:
            raise NoProxyKeyError(
                "no proxy key for delegator=%r delegatee=%r type=%r"
                % (index[1], index[3], index[4])
            )
        return key

    def _decoded(self, ciphertext, op: str, tenant: str, trace: TraceContext | None):
        """The request's ciphertext decoded; bytes that do not decode are refused.

        Forwarding shards send the bytes on as they are, so a forwarding
        gateway decodes nothing: its shard's worker refuses bad bytes.
        """
        if self.forwards or not isinstance(ciphertext, Encoded):
            return ciphertext
        try:
            return ciphertext.element
        except (EncodingError, ValueError) as error:
            raise self._rejection(
                op, tenant, InvalidRequestError, "field 'ciphertext': %s" % error, trace
            ) from error

    def _encoded_result(self, blob: bytes, result=None) -> Encoded:
        return Encoded(blob, self.backend.deserialize_reencrypted, result)

    def _cache_result(self, blob: bytes, index: KeyIndex, result) -> Encoded:
        """File a transformation's bytes in the result cache; returns it encoded.

        A forwarding shard's answer already is an encoded view.
        """
        if not isinstance(result, Encoded):
            result = self._encoded_result(self.backend.serialize_reencrypted(result), result)
        self._result_cache.put(blob, result.blob, group=index)
        return result

    def _shard_trace(self, span) -> TraceContext | None:
        """The trace context a forwarding shard sends on (None in process)."""
        return span.context if span is not None and self.forwards else None

    # ------------------------------------------------------------ operations

    @_recorded
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
                self._result_cache.invalidate_where(ProxyKeyTable.index_of(key))
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

    @_recorded
    def revoke(
        self, request: RevokeRequest, trace: TraceContext | None = None
    ) -> RevokeResponse:
        """Remove a delegation everywhere: shard table and result cache."""
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
                self._result_cache.invalidate_where(index)
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

    @_recorded
    def reencrypt(
        self, request: ReEncryptRequest, trace: TraceContext | None = None
    ) -> ReEncryptResponse:
        """Transform one ciphertext, consulting the result cache first."""
        ciphertext = request.ciphertext
        index = ProxyKeyTable.request_index(
            ciphertext, request.delegatee_domain, request.delegatee
        )
        blob = self.backend.ciphertext_bytes(ciphertext) if self._cache_results else None
        if blob is None or not self._result_cache.contains(blob, group=index):
            # A miss decodes before admission: bytes that do not decode are
            # refused and never charged to the tenant's rate budget, as when
            # the codec decoded every request.  A hit never decompresses.
            ciphertext = self._decoded(ciphertext, "reencrypt", request.tenant, trace)
        self._admit(request.tenant, "reencrypt", trace=trace)
        start = self.clock()
        with self._span(trace, "cache-lookup") as span:
            cached = self._result_cache.get(blob, group=index) if blob is not None else None
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
                _served_detail(shard_name, cache_hit=True),
                trace=trace,
                latency_ms=latency_ms,
                shard=shard_name,
            )
            return ReEncryptResponse(
                ciphertext=self._encoded_result(cached), shard=shard_name, cache_hit=True
            )
        # Still encoded only if evicted since the check above.
        ciphertext = self._decoded(ciphertext, "reencrypt", request.tenant, trace)
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
                    key = self._resolve_key(index)
                except NoProxyKeyError as error:
                    raise self._rejection(
                        "reencrypt", request.tenant, DelegationNotFoundError, str(error), trace
                    ) from error
                try:
                    result = shard.reencrypt_with_key(
                        ciphertext, key, trace=self._shard_trace(span)
                    )
                except PointOrderError as error:
                    # Grants are not subgroup-checked, so a key whose point
                    # is on the curve but outside G1 fails on first use.
                    raise self._rejection(
                        "reencrypt", request.tenant, InvalidRequestError, str(error), trace
                    ) from error
                except GatewayError as error:  # a forwarding shard's refusal
                    raise self._rejection(
                        "reencrypt", request.tenant, type(error), str(error), trace
                    ) from error
                if blob is not None:
                    result = self._cache_result(blob, index, result)
        latency_ms = (self.clock() - start) * 1000
        self.metrics.observe("reencrypt", latency_ms, shard_name, tenant=request.tenant)
        self._record_audit(
            request.tenant,
            "reencrypt",
            "ok",
            _served_detail(shard_name),
            trace=trace,
            latency_ms=latency_ms,
            shard=shard_name,
        )
        return ReEncryptResponse(ciphertext=result, shard=shard_name, cache_hit=False)

    @_recorded
    def reencrypt_batch(
        self,
        requests: Sequence[ReEncryptRequest],
        trace: TraceContext | None = None,
    ) -> list[ReEncryptResponse]:
        """Transform a batch; key lookups are amortized per delegation group.

        Produces bit-identical ciphertexts to issuing the requests one by
        one (``Preenc`` is deterministic), in submission order.  Execution
        is two-phase: every group's delegation is checked first (so a
        missing delegation aborts before any side effects), then the
        groups run one after another in submission order, each resolving
        its key *under its shard lock* — a grant or revoke racing the
        batch is therefore either fully before or fully after each group,
        never interleaved with it.  A failing group ends the batch: the
        groups after it are not transformed.
        """
        if not requests:
            raise InvalidRequestError("empty batch")
        blobs = (
            [self.backend.ciphertext_bytes(request.ciphertext) for request in requests]
            if self._cache_results
            else None
        )
        # Decode every ciphertext the cache cannot answer now, before
        # admission (as for a single request) and before any group runs:
        # a bad item fails the whole batch with no side effect.
        items = []
        for position, request in enumerate(requests):
            ciphertext = request.ciphertext
            index = ProxyKeyTable.request_index(
                ciphertext, request.delegatee_domain, request.delegatee
            )
            if blobs is None or not self._result_cache.contains(blobs[position], group=index):
                ciphertext = self._decoded(ciphertext, "reencrypt-batch", request.tenant, trace)
            items.append((ciphertext, request.delegatee_domain, request.delegatee))
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
        with self._span(trace, "admission", {"items": len(requests)}):
            for request in requests:
                self._admit(request.tenant, "reencrypt-batch")
        start = self.clock()
        groups = ReEncryptBatcher.group(items)

        results: list = [None] * len(items)
        hit_flags = [False] * len(items)
        shard_names = [""] * len(items)

        def transform_group(group, shard_trace) -> None:
            with self._owned_shard(
                group.group_key[0],
                group.group_key[1],
                group.group_key[4],
                tenant=requests[group.positions[0]].tenant,
            ) as (shard_name, shard):
                try:
                    key = self._resolve_key(group.group_key)
                except NoProxyKeyError as error:
                    # Revoked between the guard and this group.
                    raise BatchItemError(group.positions[0], error) from error
                miss_positions: list[int] = []
                miss_ciphertexts = []
                pending: dict[bytes, int] = {}
                duplicates: list[tuple[int, int]] = []
                for position, ciphertext in zip(group.positions, group.ciphertexts):
                    shard_names[position] = shard_name
                    if blobs is not None:
                        blob = blobs[position]
                        cached = self._result_cache.get(blob, group=group.group_key)
                        if cached is not None:
                            hit_flags[position] = True
                            results[position] = self._encoded_result(cached)
                            continue
                        if blob in pending:
                            # Duplicate within this batch: served by the first
                            # occurrence's computation, reported as a hit
                            # (matching the per-item loop's put-then-get order).
                            hit_flags[position] = True
                            duplicates.append((position, pending[blob]))
                            continue
                        pending[blob] = len(miss_positions)
                    # Still encoded only if evicted since the batch checked
                    # the cache: the backend decodes it on first read.
                    miss_positions.append(position)
                    miss_ciphertexts.append(ciphertext)
                if not miss_positions:
                    return
                # One batched transformation for the whole group: the
                # backend amortises the pairing precomputation across
                # every ciphertext sharing this proxy key.
                try:
                    transformed = shard.reencrypt_many_with_key(
                        miss_ciphertexts, key, trace=shard_trace
                    )
                except Exception:  # noqa: BLE001 - replayed for attribution
                    # The batch failed as a unit; replay item-by-item so
                    # the error is pinned to a position (the ops are
                    # deterministic, so survivors produce the same
                    # results the batch would have).
                    transformed = []
                    for position, ciphertext in zip(miss_positions, miss_ciphertexts):
                        try:
                            transformed.append(
                                shard.reencrypt_with_key(ciphertext, key, trace=shard_trace)
                            )
                        except Exception as error:  # noqa: BLE001 - rewrapped
                            raise BatchItemError(position, error) from error
                for position, result in zip(miss_positions, transformed):
                    if blobs is not None:
                        result = self._cache_result(blobs[position], group.group_key, result)
                    results[position] = result
                for position, miss_index in duplicates:
                    results[position] = results[miss_positions[miss_index]]

        try:
            with self._span(trace, "delegation-check", {"groups": len(groups)}):
                ReEncryptBatcher.resolve_all(groups, self._resolve_key)
            with self._span(trace, "shard-crypto", {"groups": len(groups)}) as span:
                shard_trace = self._shard_trace(span)
                for group in groups:
                    transform_group(group, shard_trace)
        except BatchItemError as error:
            error_class = GatewayError
            if isinstance(error.cause, NoProxyKeyError):
                error_class = DelegationNotFoundError
            elif isinstance(error.cause, PointOrderError):
                error_class = InvalidRequestError
            elif isinstance(error.cause, GatewayError):  # a forwarding shard's refusal
                error_class = type(error.cause)
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
                _served_detail(shard_name),
                trace=trace,
                latency_ms=per_item_ms,
                shard=shard_name,
            )
        return [
            ReEncryptResponse(ciphertext=result, shard=shard_name, cache_hit=hit)
            for result, shard_name, hit in zip(results, shard_names, hit_flags)
        ]

    @_recorded
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
        """Re-partition the fleet into ``shard_count`` shards; no key moves.

        Every shard shares the one key table, so a resize swaps the router
        and the lock set while holding every shard lock (concurrent
        requests queue on them) and writes nothing.  Added shards are
        built by the shard factory and removed ones retired, so a fleet
        starts or stops its worker processes here.  ``keys_moved``
        counts the keys whose owning shard differs between the two
        routers: consistent hashing keeps that to about a ``1/(n+1)``
        share when growing by one shard.
        """
        if shard_count < 1:
            raise InvalidRequestError("shard_count must be positive")
        self._admit(tenant, "resize", trace=trace)
        start = self.clock()
        with self._span(trace, "resize", {"shard_count": shard_count}), self._pool.lock_all():
            old_router = self._router
            old_names = old_router.shards
            new_names = ["shard-%02d" % i for i in range(shard_count)]
            new_router = ShardRouter(new_names)
            added = tuple(name for name in new_names if name not in self._shards)
            removed = tuple(name for name in old_names if name not in new_names)
            moved = sum(
                old_router.shard_for(*route) != new_router.shard_for(*route)
                for route in map(_route_of, self._table)
            )
            for name in added:
                self._shards[name] = self._make_shard(name)
            for name in removed:
                self._shards.pop(name).retire()
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
        """Close the durable key table, if any.

        Safe to call more than once; the gateway must not be used after.
        """
        with self._pool.lock_all():
            if isinstance(self._table, DurableProxyKeyTable):
                self._table.close()

    # ---------------------------------------------------------- observability

    @property
    def audit(self) -> list[AuditEvent]:
        """The bounded audit log (copy, oldest first)."""
        with self._audit_lock:
            records = list(self._audit)
            first = self._audit_sequence - len(records)
        return [AuditEvent(first + i, *record) for i, record in enumerate(records)]

    def key_count(self) -> int:
        """Installed keys (one table, whatever the shard count)."""
        return len(self._table)

    def list_keys(self) -> list[ProxyKey]:
        """Every installed proxy key, in shard order, then grant order.

        This is the wire export body.  Lock-free: a concurrent grant or
        revoke may or may not be reflected.
        """
        router = self._router
        by_shard: dict[str, list[ProxyKey]] = {name: [] for name in sorted(router.shards)}
        for key in list(self._table):
            by_shard[router.shard_for(*_route_of(key))].append(key)
        return [key for keys in by_shard.values() for key in keys]

    def shard_key_counts(self) -> dict[str, int]:
        """How many installed keys each shard owns."""
        return self._router.assignment_counts(map(_route_of, list(self._table)))

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot(caches=self.cache_stats())

    def cache_stats(self) -> dict[str, CacheStats]:
        return {"result_cache": self._result_cache.stats()}
