"""The wire request engine: one request in, one response out.

Both transports of the gateway server — its HTTP/1.1 reader and its mux
frames — parse bytes off a socket and hand
:meth:`WireRequestExecutor.handle` the same five things: method,
target, body, lowercase headers and the client address.  Everything
after that lives here, once: route resolution, the signature and role
gates, tenant stamping, the idempotency window, op dispatch, the error
taxonomy's HTTP statuses, and the trace, event and metrics endpoints.

Every hosted fleet owns a scheme-id-prefixed route family::

    POST /v1/{scheme}/grant        install a proxy key
    POST /v1/{scheme}/revoke       remove a delegation
    POST /v1/{scheme}/reencrypt    transform one ciphertext, or a batch
    POST /v1/{scheme}/fetch        read stored ciphertext blobs
    POST /v1/{scheme}/resize       rebalance that fleet's shards
    POST /v1/{scheme}/export       list that fleet's installed proxy keys
    GET  /v1/{scheme}/metrics      that fleet's live metrics snapshot
    GET  /v1/{scheme}/scheme       that fleet's scheme document

where ``{scheme}`` is the backend's wire-stable id (slash included:
``/v1/tipre/v1/reencrypt``).  The scheme-neutral routes are::

    GET  /v1/schemes               every hosted fleet's scheme document
    GET  /v1/health                liveness probe (no gateway call)
    GET  /v1/events?tail=N         newest N structured server events
    GET  /v1/trace/{id}            one trace's spans, from any fleet
    GET  /v1/metrics?format=prometheus   every fleet in one scrape

and the *legacy unprefixed* family (``/v1/grant``, ``/v1/reencrypt``,
``/v1/scheme``, ...) keeps working verbatim whenever exactly one scheme
is hosted.  On a multi-scheme server an unprefixed operation is
ambiguous and is rejected as ``invalid-request`` naming the hosted ids.

Every failure body is ``{"wire": ..., "type": "error", "body": {code,
message}}`` with the taxonomy's stable ``code``, and the HTTP status is
derived from that code (:data:`STATUS_BY_CODE`), so HTTP-level callers
and the typed clients agree on semantics without parsing prose.  The
payload encoders live in ``codec`` (``sort_keys`` everywhere), so every
transport answers byte-identically — ``tests/data/wire_transcript.json``
pins those bytes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import traceback
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple
from urllib.parse import parse_qs, urlsplit

from repro.bench.counters import SUBSTRATE_OPS, OperationCounter
from repro.core.api import PreBackend, resolve_backend
from repro.service.auth.errors import AUTH_HEADER, ForbiddenError
from repro.service.gateway import (
    EntryMissingError,
    FetchRequest,
    GatewayError,
    GrantRequest,
    InvalidRequestError,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.metrics import WireServerStats
from repro.service.telemetry import (
    TRACE_HEADER,
    EventLog,
    TraceContext,
    render_prometheus,
    span_to_json,
)
from repro.service.wire.codec import (
    GrantBatchRequest,
    GrantBatchResponse,
    KeyExportRequest,
    KeyExportResponse,
    ParsedBody,
    ReEncryptBatchRequest,
    ReEncryptBatchResponse,
    ResizeRequest,
    from_wire,
    neutral_error_to_wire,
    parse_body,
    scheme_document,
    to_wire,
)

__all__ = [
    "IdempotencyWindow",
    "PROMETHEUS_CONTENT_TYPE",
    "STATUS_BY_CODE",
    "WireRequestExecutor",
    "WireResponse",
    "build_host_map",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Taxonomy code -> HTTP status.  Codes not listed map to 500.
STATUS_BY_CODE = {
    "rate-limited": 429,
    "quota-exceeded": 429,
    "no-delegation": 404,
    "entry-not-found": 404,
    "invalid-request": 400,
    "no-store": 503,
    # A routing tier that cannot reach a shard process is the server
    # being (partially) unavailable, not the request being wrong.
    "wire-transport": 503,
    # Authentication failures (who are you?) are 401; an authenticated
    # tenant whose roles refuse the operation is 403.
    "auth-failed": 401,
    "auth-required": 401,
    "auth-unknown-tenant": 401,
    "auth-bad-signature": 401,
    "auth-stale-timestamp": 401,
    "auth-replay": 401,
    "auth-forbidden": 403,
}

_ROUTE_PREFIX = "/v1/"
_TRACE_ROUTE = "/v1/trace/"
_GET_OPS = frozenset({"metrics", "scheme"})

_AUTH_HEADER_LOWER = AUTH_HEADER.lower()
_TRACE_HEADER_LOWER = TRACE_HEADER.lower()


def build_host_map(gateway=None, group=None, gateways=None):
    """Validate the hosted-fleet arguments into ``(hosts, scheme_ids)``.

    ``hosts`` maps each scheme id to its ``(fleet, backend)`` pair,
    ``scheme_ids`` keeps the hosting order.
    """
    if gateways is None:
        if gateway is None:
            raise ValueError("pass a gateway (or a gateways sequence)")
        gateways = [gateway]
    elif gateway is not None:
        raise ValueError("pass either gateway or gateways, not both")
    gateways = list(gateways)
    if not gateways:
        raise ValueError("gateways must not be empty")
    hosts: dict[str, tuple] = {}
    scheme_ids: list[str] = []
    for fleet in gateways:
        # The wire speaks each gateway's own backend when it has one (an
        # in-process ReEncryptionGateway always does); ``group`` is the
        # legacy spelling and the fallback for bare gateway-like objects.
        backend = getattr(fleet, "backend", None)
        if backend is None:
            if group is None:
                raise ValueError("gateway has no backend; pass group or backend")
            backend = resolve_backend(group)
        if backend.scheme_id in hosts:
            raise ValueError(
                "scheme %r is already hosted; one fleet per scheme"
                % backend.scheme_id
            )
        hosts[backend.scheme_id] = (fleet, backend)
        scheme_ids.append(backend.scheme_id)
    return hosts, scheme_ids


class IdempotencyWindow:
    """A bounded single-flight LRU of completed mutation responses.

    Revoke and resize are not blind replays: rerunning one against the
    state its first run produced mis-reports the outcome (``removed``
    flips to False, a second migration moves zero keys).  So the server
    remembers, per ``(scheme, op, request_id)``, the encoded response of
    the execution that completed — a retry carrying the same id gets
    that response verbatim instead of a second execution.

    :meth:`claim` is also a single-flight gate: while one thread
    executes a key, a duplicate blocks until the executor finishes (or
    its wait times out and it takes over), so the drop-retry race — the
    retry arriving while the original request is still running — cannot
    execute twice either.  Failed executions are never recorded; their
    retry executes for real.

    Each claim is stamped with an owner token.  When a waiter takes
    over a stuck key, the original (slow, not dead) executor's
    :meth:`complete` arrives holding a stale token: it must neither
    record its payload nor release the taker's in-flight claim —
    otherwise a third retry would see a free key and execute again
    while the taker is still running.
    """

    def __init__(self, capacity: int = 4096, wait_timeout: float = 30.0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.wait_timeout = wait_timeout
        self.hits = 0
        self.takeovers = 0
        self.stale_completions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, str] = OrderedDict()
        self._inflight: dict[tuple, _InflightClaim] = {}

    def claim(self, key: tuple) -> "tuple[str | None, _InflightClaim | None]":
        """``(recorded_response, None)``, or ``(None, token)`` once the
        caller owns execution; the token must be passed to :meth:`complete`."""
        while True:
            with self._lock:
                payload = self._entries.get(key)
                if payload is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return payload, None
                claim = self._inflight.get(key)
                if claim is None:
                    claim = _InflightClaim()
                    self._inflight[key] = claim
                    return None, claim
            if not claim.event.wait(self.wait_timeout):
                with self._lock:
                    # The executor is stuck or died without completing;
                    # take over if nobody else already has.  The stale
                    # owner's eventual complete() sees a token mismatch
                    # and cannot clobber this fresh claim.
                    if self._inflight.get(key) is claim:
                        takeover = _InflightClaim()
                        self._inflight[key] = takeover
                        self.takeovers += 1
                        return None, takeover
                # Someone else already took over (or the executor just
                # finished): loop and wait on whatever claim is current.

    def complete(self, key: tuple, token: "_InflightClaim", payload: str | None) -> None:
        """Record a successful payload (or release the claim on failure).

        A stale ``token`` — one whose claim was taken over while it ran —
        records nothing and leaves the current owner's claim in place; it
        only wakes threads still parked on the stale event so they re-queue
        behind the current owner.
        """
        with self._lock:
            if self._inflight.get(key) is not token:
                self.stale_completions += 1
            else:
                del self._inflight[key]
                if payload is not None:
                    self._entries[key] = payload
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
        token.event.set()


class _InflightClaim:
    """One in-flight execution's identity: its owner token and wake event."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = threading.Event()


@dataclass
class WireResponse:
    """One finished request, transport-agnostic: status + body + echo."""

    status: int
    body: bytes
    content_type: str = "application/json"
    trace_echo: str | None = None
    close: bool = False


class _UnknownEndpoint(Exception):
    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


def _split(target: str):
    """``urlsplit(target)``; a target it refuses (an authority such as
    ``//[`` that is no IPv6 address) is an unknown endpoint."""
    try:
        return urlsplit(target)
    except ValueError:
        raise _UnknownEndpoint(target) from None


# ------------------------------------------------------------- POST ops


class _Op(NamedTuple):
    """One POST operation: the request messages it accepts, the gateway
    method that serves it (a gateway without it does not offer the op),
    the call ``call(gateway, request, kwargs) -> response`` and whether
    its retries are deduplicated by client request id."""

    expect: tuple
    method: str
    call: Callable
    idempotent: bool = False


def _grant(gateway, request, kwargs):
    if isinstance(request, GrantBatchRequest):
        return GrantBatchResponse(
            responses=tuple(gateway.grant(item, **kwargs) for item in request.requests)
        )
    return gateway.grant(request, **kwargs)


def _reencrypt(gateway, request, kwargs):
    if isinstance(request, ReEncryptBatchRequest):
        return ReEncryptBatchResponse(
            responses=tuple(gateway.reencrypt_batch(list(request.requests), **kwargs))
        )
    return gateway.reencrypt(request, **kwargs)


# The wire type of each op's batch request: a batch holds many gateway
# operations, so the asyncio server runs it on its worker pool.
_BATCH_TYPES = {"grant": "grant-batch-request", "reencrypt": "reencrypt-batch-request"}

# Revoke and resize are the mutations whose wire replay must not
# re-execute: rerunning one against its own result mis-reports it.
_POST_OPS = {
    "grant": _Op((GrantRequest, GrantBatchRequest), "grant", _grant),
    "revoke": _Op(
        (RevokeRequest,),
        "revoke",
        lambda gateway, request, kwargs: gateway.revoke(request, **kwargs),
        idempotent=True,
    ),
    "reencrypt": _Op((ReEncryptRequest, ReEncryptBatchRequest), "reencrypt", _reencrypt),
    "fetch": _Op(
        (FetchRequest,),
        "fetch",
        lambda gateway, request, kwargs: gateway.fetch(request, **kwargs),
    ),
    "export": _Op(
        (KeyExportRequest,),
        "list_keys",
        lambda gateway, request, kwargs: KeyExportResponse(keys=tuple(gateway.list_keys())),
    ),
    "resize": _Op(
        (ResizeRequest,),
        "resize",
        lambda gateway, request, kwargs: gateway.resize(
            request.shard_count, tenant=request.tenant, **kwargs
        ),
        idempotent=True,
    ),
}
# One root-span name per op, shared by every span the tracer keeps.
_HTTP_SPAN_NAMES = {op: "http:" + op for op in _POST_OPS}


class WireRequestExecutor:
    """The transport-independent request engine behind every server.

    ``handle`` takes one parsed request (method, target, body, lowercase
    headers, client address string) and returns a :class:`WireResponse`.
    It is synchronous and thread-safe: the server calls it on its event
    loop, or on its worker pool where :meth:`placement` says so.

    ``auth`` is a :class:`~repro.service.auth.signing.RequestVerifier` —
    with one installed every POST, and every observability GET, must
    carry a valid ``X-Repro-Auth`` signature.  ``trace_sample`` is the
    head-sampling fraction for incoming trace headers (1.0 records every
    traced request).  ``wire_stats`` adds the transport's connection and
    stream gauges to the Prometheus scrape.
    """

    def __init__(
        self,
        hosts: dict,
        scheme_ids: list,
        event_log: EventLog,
        dedup: IdempotencyWindow,
        auth=None,
        trace_sample: float = 1.0,
        wire_stats: WireServerStats | None = None,
    ):
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        self.hosts = hosts
        self.scheme_ids = list(scheme_ids)
        self.single = scheme_ids[0] if len(scheme_ids) == 1 else None
        self.event_log = event_log
        self.dedup = dedup
        self.auth = auth
        self.trace_sample = float(trace_sample)
        self.wire_stats = wire_stats
        # A gateway whose shards forward to other processes (a fleet
        # router) blocks on their pipes.
        self.forwarding = any(
            getattr(fleet, "forwards", False) for fleet, _backend in hosts.values()
        )
        # Deterministic seed: sampling decisions are reproducible across
        # runs, and tests can predict exact sampled counts.  The lock
        # serializes concurrent draws so the deterministic sequence (and
        # the generator state itself) survives the worker threads.
        self._trace_rng = random.Random(0x5EED)
        self._trace_rng_lock = threading.Lock()
        # The pairing-layer operations the requests of each hosted scheme
        # counted (each request counts its own: see repro.bench.counters).
        self._substrate_ops: dict[str, dict[str, int]] = {
            scheme_id: {} for scheme_id in self.scheme_ids
        }
        self._substrate_lock = threading.Lock()

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _json(status: int, payload: str, trace: str | None = None,
              close: bool = False) -> WireResponse:
        return WireResponse(
            status, payload.encode("utf-8"), "application/json", trace, close
        )

    def _error(
        self,
        error: GatewayError,
        backend: PreBackend | None = None,
        trace: str | None = None,
    ) -> WireResponse:
        """Error body, scheme-tagged when a fleet was resolved, neutral else."""
        payload = (
            to_wire(backend, error) if backend is not None else neutral_error_to_wire(error)
        )
        return self._json(STATUS_BY_CODE.get(error.code, 500), payload, trace)

    def _unknown_endpoint(self, path: str, trace: str | None) -> WireResponse:
        # Unknown endpoints (and unknown scheme prefixes) are 404s, but
        # carry the stable invalid-request body like every other rejection.
        return self._json(
            404,
            neutral_error_to_wire(InvalidRequestError("unknown endpoint %r" % path)),
            trace,
        )

    def _resolve(self, path: str):
        """Route a path to ``(op, gateway, backend)``.

        ``/v1/{scheme}/{op}`` selects the hosted fleet whose scheme id
        matches; the id's own slash is part of the prefix, so the *last*
        segment is the operation.  A bare ``/v1/{op}`` is the legacy
        spelling and only resolves while exactly one fleet is hosted.
        """
        if not path.startswith(_ROUTE_PREFIX):
            raise _UnknownEndpoint(path)
        rest = path[len(_ROUTE_PREFIX):]
        if "/" in rest:
            scheme_id, op = rest.rsplit("/", 1)
            pair = self.hosts.get(scheme_id)
            if pair is None:
                raise _UnknownEndpoint(path)
            return op, pair[0], pair[1]
        if self.single is None:
            raise InvalidRequestError(
                "this server hosts several schemes (%s); use /v1/<scheme>/%s"
                % (", ".join(self.scheme_ids), rest)
            )
        gateway, backend = self.hosts[self.single]
        return rest, gateway, backend

    # ------------------------------------------------------------ entrance

    def placement(
        self, method: str, target: str, body: bytes
    ) -> tuple[bool, ParsedBody | None]:
        """Whether :meth:`handle` may run on the asyncio server's event
        loop, and the body's parse if placing it took one.

        A request whose work is one in-process gateway operation runs
        inline.  Two kinds go to the worker pool, where they overlap
        with the loop's work: grant and re-encrypt batches, and calls to
        a gateway that says it ``forwards`` (a fleet router, whose
        shards block on its workers' pipes).  GET routes, and a request
        the engine refuses before any gateway call, run inline.  Only
        grant and re-encrypt bodies are parsed here, for their type; the
        parse is handed to :meth:`handle`, so no body is parsed twice.
        Placement never changes a response byte, and this never raises.
        """
        if method != "POST":
            return True, None
        try:
            op, gateway, _backend = self._resolve(_split(target).path)
        except (_UnknownEndpoint, InvalidRequestError):
            return True, None
        if getattr(gateway, "forwards", False):
            return op not in _POST_OPS, None
        batch_type = _BATCH_TYPES.get(op)
        if batch_type is None:
            return True, None
        parsed = parse_body(body)
        document = parsed.value
        return not (isinstance(document, dict) and document.get("type") == batch_type), parsed

    def handle(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        client: str,
        parsed: ParsedBody | None = None,
    ) -> WireResponse:
        """One request in, one :class:`WireResponse` out; never raises.

        ``parsed`` is the body's parse from :meth:`placement`, if it took
        one.  The request's events on the server's event log (the
        gateway's audit events when the gateway shares that log, a
        server error, the access line) are filed as one record when the
        answer is made.
        """
        with self.event_log.collect():
            result = self._answer(method, target, body, parsed, headers, client)
            self._log_access("%s %s" % (method, target), client, result)
        return result

    def _answer(
        self,
        method: str,
        target: str,
        body: bytes,
        parsed: ParsedBody | None,
        headers: dict[str, str],
        client: str,
    ) -> WireResponse:
        try:
            # The echo is re-serialized from the strict parse, never the
            # raw client value: reflecting a header with embedded CR/LF
            # would let it split the keep-alive response stream.
            parsed_trace = TraceContext.from_header(headers.get(_TRACE_HEADER_LOWER))
            echo = parsed_trace.to_header() if parsed_trace is not None else None
            if method == "GET":
                result = self._handle_get(target, headers, echo, client)
            elif method == "POST":
                result = self._handle_post(
                    target, body, parsed, headers, parsed_trace, echo, client
                )
            else:
                result = self._json(
                    501,
                    neutral_error_to_wire(
                        InvalidRequestError("unsupported method %r" % method)
                    ),
                    echo,
                    close=True,
                )
        except Exception as error:  # noqa: BLE001 - transport boundary
            # Nothing library-internal may leak as a stack trace; the
            # closed taxonomy's base code is the catch-all — but the full
            # detail lands in the structured event log, where an operator
            # can actually find it.
            self.event_log.emit(
                "server-error",
                op=method,
                error=str(error),
                error_type=type(error).__name__,
                traceback=traceback.format_exc(limit=8),
            )
            result = self._json(
                500,
                neutral_error_to_wire(GatewayError("internal error: %s" % error)),
                close=True,
            )
        return result

    def refuse(self, status: int, message: str, request: str, client: str) -> WireResponse:
        """A transport-level refusal (an unparseable head, an unframeable
        body): the taxonomy's invalid-request body, closing the connection —
        whatever follows on the socket can no longer be trusted as a request.
        ``request`` is the request line, as far as the transport read it."""
        result = self._json(
            status, neutral_error_to_wire(InvalidRequestError(message)), close=True
        )
        self._log_access(request, client, result)
        return result

    def _log_access(self, request: str, client: str, result: WireResponse) -> None:
        # Every answer (any transport, handled or refused) leaves one
        # access line in the structured event log, not a stderr line.
        self.event_log.access(client, request, result.status, len(result.body))

    # ----------------------------------------------------------------- GET

    def _authorize_observability(
        self, op: str, target: str, headers: dict, client: str
    ) -> GatewayError | None:
        """The rejection to send (or None) for a GET observability route.

        Metrics, events and traces expose tenant names, audit detail and
        tracebacks — on a server with a verifier installed they demand a
        valid signature like any POST (health and scheme discovery stay
        open; they are what unauthenticated clients negotiate against).
        Any valid tenant may read them: observability is not role-gated,
        only authenticated.
        """
        if self.auth is None:
            return None
        try:
            # The client signs the path it requests, query string included.
            self.auth.verify("GET", target, b"", headers.get(_AUTH_HEADER_LOWER))
        except GatewayError as error:
            self.event_log.emit(
                "auth-failure",
                op=op,
                code=error.code,
                client=client,
                detail=str(error),
            )
            return error
        return None

    def _prometheus(self, hosts: dict) -> WireResponse:
        snapshots = {
            scheme_id: fleet.snapshot() for scheme_id, (fleet, _backend) in hosts.items()
        }
        wire = self.wire_stats.snapshot() if self.wire_stats is not None else None
        with self._substrate_lock:
            substrate = {scheme_id: dict(ops) for scheme_id, ops in self._substrate_ops.items()}
        return WireResponse(
            200,
            render_prometheus(snapshots, wire=wire, substrate_ops=substrate).encode("utf-8"),
            PROMETHEUS_CONTENT_TYPE,
        )

    def _handle_get(
        self, target: str, headers: dict, echo: str | None, client: str
    ) -> WireResponse:
        try:
            parts = _split(target)
        except _UnknownEndpoint as error:
            return self._unknown_endpoint(error.path, echo)
        base = parts.path
        query = parse_qs(parts.query)
        out_format = (query.get("format") or [""])[0]
        if base == "/v1/health":
            return self._json(200, json.dumps({"status": "ok"}), echo)
        if base == "/v1/schemes":
            return self._json(
                200,
                json.dumps(
                    {
                        "schemes": [
                            scheme_document(self.hosts[scheme_id][1])
                            for scheme_id in self.scheme_ids
                        ]
                    },
                    sort_keys=True,
                ),
                echo,
            )
        if base.startswith(_TRACE_ROUTE):
            denied = self._authorize_observability("trace", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._trace_response(base[len(_TRACE_ROUTE):], echo)
        if base == "/v1/events":
            denied = self._authorize_observability("events", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._events_response((query.get("tail") or [""])[0], echo)
        if base == "/v1/metrics" and out_format == "prometheus":
            # One scrape covers every hosted fleet (scheme is a label), so
            # the unprefixed spelling stays meaningful on a multi-scheme
            # server even though the JSON spelling would be ambiguous.
            denied = self._authorize_observability("metrics", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._prometheus(self.hosts)
        try:
            op, gateway, backend = self._resolve(base)
            if op not in _GET_OPS:
                raise _UnknownEndpoint(base)
        except _UnknownEndpoint as error:
            return self._unknown_endpoint(error.path, echo)
        except InvalidRequestError as error:
            return self._error(error, trace=echo)
        if op == "metrics":
            denied = self._authorize_observability("metrics", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            if out_format == "prometheus":
                return self._prometheus({backend.scheme_id: (gateway, backend)})
            return self._json(200, to_wire(backend, gateway.snapshot()), echo)
        return self._json(
            200, json.dumps(scheme_document(backend), sort_keys=True), echo
        )

    def _trace_response(self, trace_id: str, echo: str | None) -> WireResponse:
        """Scheme-neutral trace retrieval: search every hosted fleet's ring."""
        for scheme_id in self.scheme_ids:
            fleet, _backend = self.hosts[scheme_id]
            tracer = getattr(fleet, "tracer", None)
            if tracer is None:
                continue
            spans = tracer.trace(trace_id)
            if spans:
                return self._json(
                    200,
                    json.dumps(
                        {
                            "trace": trace_id,
                            "scheme": scheme_id,
                            "spans": [span_to_json(span) for span in spans],
                        },
                        sort_keys=True,
                    ),
                    echo,
                )
        return self._error(EntryMissingError("no trace %r" % trace_id), trace=echo)

    def _events_response(self, tail: str, echo: str | None) -> WireResponse:
        """The newest ``tail`` entries of the server's event log, oldest first."""
        count: int | None = None
        if tail:
            try:
                count = int(tail)
            except ValueError:
                count = -1
            if count < 1:
                return self._error(
                    InvalidRequestError("tail must be a positive integer"), trace=echo
                )
        return self._json(
            200, json.dumps({"events": self.event_log.tail(count)}, sort_keys=True), echo
        )

    # ---------------------------------------------------------------- POST

    def _authenticate(self, op: str, base: str, raw: bytes, headers: dict):
        """Verify the request signature and the tenant's role for ``op``.

        Returns the authenticated tenant name, or ``None`` when the
        server runs without a credential store (anonymous mode — the
        default, and bit-identical to the pre-auth wire).  Raises the
        auth taxonomy errors; callers map them like any gateway error.
        """
        if self.auth is None:
            return None
        credential = self.auth.verify("POST", base, raw, headers.get(_AUTH_HEADER_LOWER))
        if not self.auth.store.allows(credential, op):
            raise ForbiddenError(
                "tenant %r (roles: %s) may not call %r"
                % (credential.tenant, ", ".join(credential.roles) or "-", op)
            )
        return credential.tenant

    def _auth_failure(
        self, op: str, gateway, backend, headers: dict, client: str,
        error: GatewayError, echo: str | None,
    ) -> WireResponse:
        """Record one auth rejection: metrics, structured event, error body."""
        header = headers.get(_AUTH_HEADER_LOWER) or ""
        tenant = None
        for part in header.split(";"):
            if part.startswith("tenant="):
                tenant = part[len("tenant="):] or None
                break
        metrics = getattr(gateway, "metrics", None)
        if metrics is not None and hasattr(metrics, "observe_auth_failure"):
            metrics.observe_auth_failure(error.code, op=op, tenant=tenant)
        self.event_log.emit(
            "auth-failure",
            scheme=backend.scheme_id,
            op=op,
            code=error.code,
            tenant=tenant,
            client=client,
            detail=str(error),
        )
        return self._error(error, backend, trace=echo)

    @staticmethod
    def _stamp_tenant(request, tenant: str):
        """Rewrite the request's self-declared tenant to the verified one.

        Quotas, rate limits, metrics and audit records must attribute to
        the identity that *signed* the request, not whatever the body
        claims — otherwise one tenant spends another's budget.
        """
        if isinstance(request, (GrantBatchRequest, ReEncryptBatchRequest)):
            return dataclasses.replace(
                request,
                requests=tuple(
                    dataclasses.replace(item, tenant=tenant)
                    for item in request.requests
                ),
            )
        return dataclasses.replace(request, tenant=tenant)

    def _handle_post(
        self,
        target: str,
        raw: bytes,
        parsed: ParsedBody | None,
        headers: dict,
        trace: TraceContext | None,
        echo: str | None,
        client: str,
    ) -> WireResponse:
        # Server-side head sampling: the echo still round-trips (so the
        # client's correlation id survives), but only the sampled
        # fraction records spans.  Metrics count every request regardless.
        if trace is not None and self.trace_sample < 1.0:
            with self._trace_rng_lock:
                sampled = self._trace_rng.random() < self.trace_sample
            if not sampled:
                trace = None
        try:
            base = _split(target).path
            op, gateway, backend = self._resolve(base)
            if op not in _POST_OPS or not hasattr(gateway, _POST_OPS[op].method):
                raise _UnknownEndpoint(base)
        except _UnknownEndpoint as error:
            return self._unknown_endpoint(error.path, echo)
        except InvalidRequestError as error:
            return self._error(error, trace=echo)
        try:
            auth_tenant = self._authenticate(op, base, raw, headers)
        except GatewayError as error:
            return self._auth_failure(op, gateway, backend, headers, client, error, echo)
        counts = OperationCounter()
        try:
            with counts:
                payload = self._dispatch(
                    op, gateway, backend, raw, parsed, trace, auth_tenant
                )
        except GatewayError as error:
            return self._error(error, backend, trace=echo)
        except Exception as error:  # noqa: BLE001 - wire boundary
            self.event_log.emit(
                "server-error",
                scheme=backend.scheme_id,
                op=op,
                error=str(error),
                error_type=type(error).__name__,
                trace=trace.trace_id if trace is not None else None,
                traceback=traceback.format_exc(limit=8),
            )
            return self._error(
                GatewayError("internal error: %s" % error), backend, trace=echo
            )
        finally:
            totals = self._substrate_ops[backend.scheme_id]
            with self._substrate_lock:
                for kind, count in counts.counts.items():
                    if kind in SUBSTRATE_OPS:
                        totals[kind] = totals.get(kind, 0) + count
        return self._json(200, payload, echo)

    def _dispatch(
        self, op: str, gateway, backend: PreBackend, raw: bytes,
        parsed: ParsedBody | None, trace: TraceContext | None, auth_tenant: str | None,
    ) -> str:
        """Decode, execute and encode one operation under optional spans.

        ``trace`` is only forwarded to gateways that actually expose a
        telemetry surface — bare gateway-like test doubles keep their old
        call signatures.  ``auth_tenant`` (set only on authenticated
        servers) overrides every decoded request's tenant field.
        """
        entry = _POST_OPS[op]
        tracer = getattr(gateway, "tracer", None)
        traced = tracer is not None and trace is not None
        root = tracer.span(trace, _HTTP_SPAN_NAMES[op]) if traced else nullcontext(None)
        with root as http_span:
            sub = http_span.context if http_span is not None else None
            with (
                tracer.span(sub, "decode", {"bytes": len(raw)})
                if traced
                else nullcontext()
            ):
                request = from_wire(
                    backend, raw if parsed is None else parsed, expect=entry.expect
                )
                if auth_tenant is not None:
                    request = self._stamp_tenant(request, auth_tenant)
            # Revoke/resize retries carry a client-generated request id;
            # a duplicate gets the recorded response, never a re-execution.
            dedup_key = None
            dedup_token = None
            request_id = getattr(request, "request_id", None)
            if entry.idempotent and request_id:
                dedup_key = (backend.scheme_id, op, request_id)
                cached, dedup_token = self.dedup.claim(dedup_key)
                if cached is not None:
                    if http_span is not None:
                        http_span.set("idempotent_replay", True)
                    return cached
            try:
                response = entry.call(gateway, request, {"trace": sub} if traced else {})
                with (
                    tracer.span(sub, "encode") if traced else nullcontext()
                ):
                    payload = to_wire(backend, response)
            except BaseException:
                if dedup_token is not None:
                    self.dedup.complete(dedup_key, dedup_token, None)
                raise
            if dedup_token is not None:
                self.dedup.complete(dedup_key, dedup_token, payload)
        return payload
