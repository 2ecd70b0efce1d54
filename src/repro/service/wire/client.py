"""RemoteGateway: the gateway's typed API, spoken over HTTP/JSON.

A :class:`RemoteGateway` is a drop-in stand-in for
:class:`~repro.service.gateway.ReEncryptionGateway` wherever code only
*calls* the gateway — the driver, the benchmarks and the examples run
unchanged whether the object in their hands is the in-process fleet or
this client pointed at a remote one.  Every method encodes its request
with :mod:`repro.service.wire.codec`, POSTs it, and decodes the response
back into the same dataclasses; a non-2xx reply carries a wire ``error``
body whose stable code selects the taxonomy class to raise, so callers
catch :class:`~repro.service.gateway.RateLimitedError` (and friends)
identically in both deployments.

Transport: a bounded pool of persistent HTTP/1.1 keep-alive connections
(``pool_size``, default 1 — the single-connection client of old).  A
sequential caller reuses one connection for its whole stream; concurrent
threads check out distinct connections instead of serializing on one
socket, and the pool never holds more than ``pool_size`` live
connections (checkout blocks when all are in flight).  Each connection
is re-established transparently when the server drops it — an idle
timeout, a restart.  A request that dies mid-flight is retried once on
a fresh connection: grants are idempotent installs, transformations and
fetches are deterministic reads, and revoke/resize — whose naive replay
against mutated state would mis-report the outcome — carry a
client-generated ``request_id`` the server's idempotency window dedups,
returning the recorded first outcome instead of re-executing.
:attr:`connections_opened` counts
dials and :attr:`peak_connections` the high-water mark of simultaneous
checkouts, so benchmarks can *assert* reuse and boundedness rather than
assume them.

Scheme negotiation: before the first request the client fetches
``GET /v1/schemes`` and *pins* its scheme — when the server hosts this
client's backend (and pairing group) all traffic moves to the
scheme-id-prefixed routes (``/v1/{scheme}/reencrypt``, ...); a server
without the endpoint is a legacy single-scheme process, checked via
``GET /v1/scheme`` and spoken to on the unprefixed routes.  A server
running only other schemes raises :class:`SchemeMismatchError` before
any element envelope crosses the wire.

Security: an ``https://`` url performs real TLS with certificate
verification — ``tls_ca`` pins a private CA (the dev self-signed cert)
instead of the system trust store.  ``tenant``/``secret`` attach an
HMAC-SHA256 request signature (``X-Repro-Auth``) to every POST; each
transport attempt is signed afresh with its own nonce, so the server's
replay window never mistakes a legitimate retry for an attack while the
idempotency ids keep the retry semantics intact.
"""

from __future__ import annotations

import http.client
import json
import random
import secrets
import socket
import threading
import urllib.parse
from dataclasses import replace
from typing import Sequence

from repro.core.api import PreBackend, resolve_backend
from repro.pairing.group import PairingGroup
from repro.service.auth.signing import AUTH_HEADER, RequestSigner
from repro.service.auth.tls import client_context
from repro.service.gateway import (
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
)
from repro.service.metrics import MetricsSnapshot
from repro.service.telemetry import (
    TRACE_HEADER,
    Span,
    TraceContext,
    Tracer,
    span_from_json,
)
from repro.service.wire.codec import (
    ERROR_TYPES,
    GrantBatchRequest,
    GrantBatchResponse,
    KeyExportRequest,
    KeyExportResponse,
    ReEncryptBatchRequest,
    ReEncryptBatchResponse,
    ResizeRequest,
    from_wire,
    to_wire,
)

__all__ = ["RemoteGateway", "WireTransportError", "SchemeMismatchError"]


class WireTransportError(GatewayError):
    """The server could not be reached or spoke something unintelligible.

    Distinct from the server-side taxonomy: those codes mean the gateway
    *decided* something; this one means no decision arrived at all.
    """

    code = "wire-transport"


class SchemeMismatchError(GatewayError):
    """Negotiation failed: the server does not host this client's scheme."""

    code = "scheme-mismatch"


# A fleet's routing tier raises these codes *server-side* (a shard
# process it cannot reach, a mis-negotiated shard); registering them in
# the codec's taxonomy lets end clients re-raise the typed class instead
# of the GatewayError catch-all.  Both ends always import this module,
# so registration here avoids a codec -> client import cycle.
ERROR_TYPES.setdefault(WireTransportError.code, WireTransportError)
ERROR_TYPES.setdefault(SchemeMismatchError.code, SchemeMismatchError)


_RETRYABLE = (ConnectionError, http.client.HTTPException, TimeoutError, OSError)


def _new_request_id() -> str:
    """A client-generated idempotency id for revoke/resize retries."""
    return secrets.token_hex(16)


class RemoteGateway:
    """A typed HTTP client for one gateway server.

    ``url`` is the server base (e.g. ``http://127.0.0.1:8080``, the
    :attr:`~repro.service.wire.aio_server.AsyncGatewayServer.http_url`);
    ``context`` is the scheme backend the client speaks — a bare
    :class:`~repro.pairing.group.PairingGroup` selects the paper's
    ``tipre/v1`` backend, the historical spelling.  The server must host
    that scheme; the first request verifies (and pins) it via
    ``GET /v1/schemes``.

    The client is thread-safe.  With the default ``pool_size=1``
    concurrent callers serialize on the single pooled connection; raise
    ``pool_size`` toward the expected number of concurrent threads so
    each can hold a connection of its own.

    ``trace_requests`` accepts a sampling fraction as well as the
    historical booleans: ``0.1`` traces roughly one request in ten
    (head sampling — the decision is made before the request leaves, so
    an unsampled request carries no trace header at all), ``True`` is
    ``1.0`` and ``False`` is ``0.0``.  Metrics are unaffected: the
    server counts every request whether or not it carried a trace.

    ``tenant``/``secret`` (both or neither) sign every POST with the
    ``repro-auth/v1`` HMAC scheme; ``tls_ca`` pins a CA bundle for
    ``https://`` urls in place of the system trust store.
    """

    def __init__(
        self,
        url: str,
        context: PairingGroup | PreBackend,
        timeout: float = 30.0,
        negotiate: bool = True,
        pool_size: int = 1,
        trace_requests: bool | float = True,
        tenant: str | None = None,
        secret: str | None = None,
        tls_ca: str | None = None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if (tenant is None) != (secret is None):
            raise ValueError("tenant and secret must be given together")
        self.url = url.rstrip("/")
        self.backend = resolve_backend(context)
        self.group = self.backend.group
        self.timeout = timeout
        self.pool_size = pool_size
        self.tenant = tenant
        self._signer = RequestSigner(tenant, secret) if tenant is not None else None
        # Client-side tracing: each typed operation generates a fresh
        # TraceContext, sends it as the X-Repro-Trace header, and records
        # a local wire-round-trip span.  last_trace holds the most recent
        # context so a caller can fetch the server-side trace by id.
        fraction = float(trace_requests)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("trace_requests must be a bool or a fraction in [0, 1]")
        self.trace_requests = trace_requests
        self._trace_fraction = fraction
        # Deterministically seeded so tests can predict sampled counts.
        # The lock serializes draws: concurrent unlocked calls would
        # corrupt the Mersenne-Twister state and break the exact-count
        # guarantee (and, rarely, the generator itself).
        self._trace_rng = random.Random(0xC11E27)
        self._trace_rng_lock = threading.Lock()
        self.tracer: Tracer | None = Tracer() if fraction > 0.0 else None
        self.last_trace: TraceContext | None = None
        self.last_trace_echo: str | None = None
        self._points: dict = {}  # G1 encoding -> point, see _call
        self.connections_opened = 0
        self.connections_closed = 0
        self.peak_connections = 0
        self._in_use = 0
        self._idle: list[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(pool_size)
        self._negotiate = negotiate
        self._negotiated = False
        self._negotiation_lock = threading.Lock()
        # Route prefix: legacy unprefixed until negotiation pins the
        # scheme-id-prefixed family on a multi-scheme-capable server.
        self._prefix = "/v1"
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError("gateway url must be http(s)://host[:port], got %r" % url)
        self._conn_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        # Built even when tls_ca is None so https:// verifies against the
        # system trust store rather than silently skipping verification.
        self._tls_context = client_context(tls_ca) if parts.scheme == "https" else None
        self._netloc = parts.netloc

    # ---------------------------------------------------- connection pool

    def _dial(self) -> http.client.HTTPConnection:
        if self._tls_context is not None:
            conn = self._conn_class(
                self._netloc, timeout=self.timeout, context=self._tls_context
            )
        else:
            conn = self._conn_class(self._netloc, timeout=self.timeout)
        conn.connect()
        # A reused connection interleaves small request/response
        # writes; without TCP_NODELAY, Nagle + delayed ACK add ~40ms
        # to every round trip and erase the keep-alive win.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._pool_lock:
            self.connections_opened += 1
        return conn

    def _discard(self, conn: http.client.HTTPConnection) -> None:
        try:
            conn.close()
        except OSError:
            pass
        with self._pool_lock:
            self.connections_closed += 1

    def _checkout(self, fresh: bool = False) -> http.client.HTTPConnection:
        """Borrow a connection; blocks while all ``pool_size`` are in flight.

        ``fresh`` bypasses the idle stack and dials anew (retiring one
        idle connection so the pool bound holds) — the retry and
        non-replayable paths use it because a stale idle socket is the
        common drop, and a new dial cannot be one.
        """
        self._slots.acquire()
        try:
            conn = None
            with self._pool_lock:
                if self._idle:
                    conn = self._idle.pop()
            if fresh and conn is not None:
                self._discard(conn)
                conn = None
            if conn is None:
                conn = self._dial()
            with self._pool_lock:
                self._in_use += 1
                if self._in_use > self.peak_connections:
                    self.peak_connections = self._in_use
            return conn
        except BaseException:
            self._slots.release()
            raise

    def _checkin(self, conn: http.client.HTTPConnection, discard: bool = False) -> None:
        with self._pool_lock:
            self._in_use -= 1
            if not discard:
                self._idle.append(conn)
        if discard:
            self._discard(conn)
        self._slots.release()

    def _raw_request(
        self,
        method: str,
        path: str,
        data: bytes | None,
        replayable: bool = True,
        trace: TraceContext | None = None,
    ) -> tuple[int, bytes]:
        """One HTTP exchange on a pooled connection, status + body.

        A transport failure discards the connection and — for
        ``replayable`` requests only — retries exactly once on a freshly
        dialed one: the reconnect-on-drop path a long-lived client needs
        when the server restarts or reaps idle connections.  Grants
        (idempotent installs), transformations and fetches
        (deterministic reads) and the GET endpoints replay as-is; revoke
        and resize replay under the client-generated ``request_id`` in
        their body, which the server's idempotency window dedups so a
        drop after the server acted returns the recorded first outcome
        rather than re-executing against mutated state.  Callers that
        genuinely must not replay pass ``replayable=False`` and get a
        fail-fast :class:`WireTransportError` instead.
        """
        headers = {"Content-Type": "application/json"}
        if trace is not None:
            headers[TRACE_HEADER] = trace.to_header()
        last_error: Exception | None = None
        for attempt in (0, 1) if replayable else (0,):
            if self._signer is not None:
                # Each attempt is its own signed request — a fresh nonce
                # keeps the server's replay window from rejecting the
                # legitimate retry of a request whose response was lost.
                headers[AUTH_HEADER] = self._signer.header(method, path, data or b"")
            try:
                conn = self._checkout(fresh=(not replayable) or attempt > 0)
            except _RETRYABLE as error:
                # The dial itself failed; the checkout already released
                # its pool slot.
                last_error = error
                continue
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                body = response.read()
            except _RETRYABLE as error:
                self._checkin(conn, discard=True)
                last_error = error
                continue
            except BaseException:
                # Anything else (KeyboardInterrupt, MemoryError, ...) must
                # still return the slot, or the pool leaks it and a later
                # checkout blocks forever.
                self._checkin(conn, discard=True)
                raise
            # The server asked to close (error paths do); honor it so the
            # next checkout dials fresh instead of failing.
            self._checkin(conn, discard=response.will_close)
            # The server echoes the trace header; keep the latest echo so
            # callers (and the loopback CI leg) can assert the id made the
            # full client -> server -> response round trip.
            self.last_trace_echo = response.getheader(TRACE_HEADER)
            return response.status, body
        raise WireTransportError(
            "cannot reach %s%s: %s" % (self.url, path, last_error)
        ) from last_error

    # ----------------------------------------------------------- negotiation

    def _parse_json(self, body: bytes, path: str) -> dict:
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as error:
            raise WireTransportError("undecodable %s body" % path) from error
        if not isinstance(document, dict):
            raise WireTransportError("%s body must be a JSON object" % path)
        return document

    def _get_json(self, path: str) -> dict:
        status, body = self._raw_request("GET", path, None)
        if status != 200:
            raise WireTransportError("HTTP %d from %s" % (status, path))
        return self._parse_json(body, path)

    def _ensure_negotiated(self) -> None:
        if not self._negotiate or self._negotiated:
            return
        with self._negotiation_lock:
            if not self._negotiated:
                self._negotiate_scheme()

    def _negotiate_scheme(self) -> None:
        """Pin this client's scheme against what the server hosts."""
        status, body = self._raw_request("GET", "/v1/schemes", None)
        if status == 200:
            document = self._parse_json(body, "/v1/schemes")
            entries = document.get("schemes")
            if not isinstance(entries, list):
                raise WireTransportError("/v1/schemes body lacks a schemes list")
            hosted = [
                (entry.get("scheme"), entry.get("group"))
                for entry in entries
                if isinstance(entry, dict)
            ]
            for scheme_id, group_name in hosted:
                if scheme_id == self.backend.scheme_id and group_name == self.group.params.name:
                    self._prefix = "/v1/%s" % scheme_id
                    self._negotiated = True
                    return
            raise SchemeMismatchError(
                "server %s hosts %s; this client speaks %s on %s"
                % (
                    self.url,
                    ", ".join("%s on %s" % pair for pair in hosted) or "no schemes",
                    self.backend.scheme_id,
                    self.group.params.name,
                )
            )
        # No /v1/schemes: a legacy single-scheme server; verify via the
        # unprefixed document and keep speaking the unprefixed routes.
        info = self._get_json("/v1/scheme")
        remote_scheme = info.get("scheme")
        remote_group = info.get("group")
        if remote_scheme is None or remote_group is None:
            raise WireTransportError(
                "scheme negotiation failed: /v1/scheme body lacks scheme/group"
            )
        if remote_scheme != self.backend.scheme_id or remote_group != self.group.params.name:
            raise SchemeMismatchError(
                "server %s runs %s on group %s; this client speaks %s on %s"
                % (
                    self.url,
                    remote_scheme,
                    remote_group,
                    self.backend.scheme_id,
                    self.group.params.name,
                )
            )
        self._negotiated = True

    # ------------------------------------------------------------- plumbing

    def _sample_trace(self) -> bool:
        """Head-sampling decision for one client-originated request."""
        if self._trace_fraction >= 1.0:
            return True
        if self._trace_fraction <= 0.0:
            return False
        with self._trace_rng_lock:
            return self._trace_rng.random() < self._trace_fraction

    def _round_trip(
        self,
        method: str,
        op: str,
        message: object | None,
        replayable: bool = True,
        trace: TraceContext | None = None,
    ):
        self._ensure_negotiated()
        path = "%s/%s" % (self._prefix, op)
        data = (
            to_wire(self.backend, message).encode("utf-8") if message is not None else None
        )
        if trace is not None:
            # Caller-supplied context (a routing tier propagating its own
            # trace): send it verbatim so the remote spans parent under
            # the caller's span instead of a fresh local root.
            status, body = self._raw_request(
                method, path, data, replayable=replayable, trace=trace
            )
            text = body.decode("utf-8", errors="replace")
            return self._decode_round_trip(status, text, path)
        trace = TraceContext.generate() if self._sample_trace() else None
        if trace is not None:
            self.last_trace = trace
            with self.tracer.span(trace, "wire-round-trip", {"op": op}) as span:
                # The header carries the round-trip span's own context, so
                # the server-side spans nest under it in the merged trace.
                status, body = self._raw_request(
                    method, path, data, replayable=replayable, trace=span.context
                )
                span.set("status", status)
        else:
            status, body = self._raw_request(method, path, data, replayable=replayable)
        text = body.decode("utf-8", errors="replace")
        return self._decode_round_trip(status, text, path)

    def _decode_round_trip(self, status: int, text: str, path: str):
        if status >= 400:
            # The body should be a wire error; reconstruct and raise the
            # taxonomy class the in-process gateway would have raised.
            try:
                decoded = from_wire(self.backend, text)
            except GatewayError:
                raise WireTransportError(
                    "HTTP %d from %s with undecodable body" % (status, path)
                ) from None
            if isinstance(decoded, GatewayError):
                raise decoded from None
            raise WireTransportError(
                "HTTP %d from %s carried a non-error message" % (status, path)
            )
        try:
            return from_wire(self.backend, text)
        except InvalidRequestError as decode_error:
            # A 2xx body that is not wire JSON (an interposed proxy, a
            # version-skewed server) is a transport fault, not the gateway
            # judging *our* request invalid.
            raise WireTransportError(
                "undecodable 2xx body from %s: %s" % (path, decode_error)
            ) from decode_error

    def _call(
        self,
        method: str,
        op: str,
        message: object | None,
        expect: type,
        replayable: bool = True,
        trace: TraceContext | None = None,
    ):
        # Points this client encodes or decompresses are filed under their
        # encodings, so reading a response decompresses neither the
        # request's own points nor one an earlier response carried.
        with self.group.known_points(self._points):
            decoded = self._round_trip(
                method, op, message, replayable=replayable, trace=trace
            )
        if not isinstance(decoded, expect):
            raise WireTransportError(
                "%s returned %s, expected %s"
                % (op, type(decoded).__name__, expect.__name__)
            )
        return decoded

    # ------------------------------------------------------------ operations

    def scheme_info(self) -> dict:
        """This client's pinned scheme document (id, group, capabilities)."""
        self._ensure_negotiated()
        return self._get_json("%s/scheme" % self._prefix)

    def schemes_info(self) -> list[dict]:
        """Every scheme document the server hosts.

        A legacy single-scheme server (no ``/v1/schemes``) reports its
        one scheme, so callers can always treat the result as the hosted
        list.
        """
        status, body = self._raw_request("GET", "/v1/schemes", None)
        if status == 200:
            document = self._parse_json(body, "/v1/schemes")
            entries = document.get("schemes")
            if not isinstance(entries, list):
                raise WireTransportError("/v1/schemes body lacks a schemes list")
            return entries
        return [self._get_json("/v1/scheme")]

    def grant(
        self, request: GrantRequest, trace: TraceContext | None = None
    ) -> GrantResponse:
        return self._call("POST", "grant", request, GrantResponse, trace=trace)

    def grant_batch(
        self,
        requests: Sequence[GrantRequest],
        trace: TraceContext | None = None,
    ) -> list[GrantResponse]:
        """Install many proxy keys in one wire round-trip."""
        message = GrantBatchRequest(requests=tuple(requests))
        response = self._call(
            "POST", "grant", message, GrantBatchResponse, trace=trace
        )
        return list(response.responses)

    def revoke(
        self, request: RevokeRequest, trace: TraceContext | None = None
    ) -> RevokeResponse:
        # Replayed under a client-generated request id: the server's
        # idempotency window recognises the retry of a request whose
        # response died on the wire and returns the recorded outcome, so
        # a replay never reports removed=False for a revocation that
        # happened.
        if request.request_id is None:
            request = replace(request, request_id=_new_request_id())
        return self._call(
            "POST", "revoke", request, RevokeResponse, replayable=True, trace=trace
        )

    def reencrypt(
        self, request: ReEncryptRequest, trace: TraceContext | None = None
    ) -> ReEncryptResponse:
        return self._call("POST", "reencrypt", request, ReEncryptResponse, trace=trace)

    def reencrypt_batch(
        self,
        requests: Sequence[ReEncryptRequest],
        trace: TraceContext | None = None,
    ) -> list[ReEncryptResponse]:
        """One POST for the whole batch; order matches submission order."""
        message = ReEncryptBatchRequest(requests=tuple(requests))
        response = self._call(
            "POST", "reencrypt", message, ReEncryptBatchResponse, trace=trace
        )
        return list(response.responses)

    def fetch(
        self, request: FetchRequest, trace: TraceContext | None = None
    ) -> FetchResponse:
        return self._call("POST", "fetch", request, FetchResponse, trace=trace)

    def resize(
        self,
        shard_count: int,
        tenant: str = "admin",
        trace: TraceContext | None = None,
    ) -> ResizeReport:
        # Replayed under a request id, like revoke: the server dedups the
        # retry so a dropped response cannot trigger a second (spurious
        # zero-move) migration.
        message = ResizeRequest(
            tenant=tenant, shard_count=shard_count, request_id=_new_request_id()
        )
        return self._call(
            "POST", "resize", message, ResizeReport, replayable=True, trace=trace
        )

    def list_keys(
        self, tenant: str = "admin", trace: TraceContext | None = None
    ) -> list:
        """Every proxy key the remote gateway holds (all shards)."""
        message = KeyExportRequest(tenant=tenant)
        response = self._call(
            "POST", "export", message, KeyExportResponse, trace=trace
        )
        return list(response.keys)

    # --------------------------------------------------------- observability

    def snapshot(self) -> MetricsSnapshot:
        return self._call("GET", "metrics", None, MetricsSnapshot)

    def metrics_text(self) -> str:
        """The server's Prometheus exposition (all hosted schemes)."""
        status, body = self._raw_request("GET", "/v1/metrics?format=prometheus", None)
        if status != 200:
            raise WireTransportError("HTTP %d from /v1/metrics?format=prometheus" % status)
        return body.decode("utf-8")

    def events_tail(self, n: int | None = None) -> list[dict]:
        """The newest ``n`` structured server events, oldest first.

        Scheme-neutral endpoint; ``n=None`` retrieves everything the
        server's bounded event ring still holds.
        """
        path = "/v1/events" if n is None else "/v1/events?tail=%d" % n
        status, body = self._raw_request("GET", path, None)
        if status != 200:
            raise WireTransportError("HTTP %d from %s" % (status, path))
        document = self._parse_json(body, path)
        events = document.get("events")
        if not isinstance(events, list):
            raise WireTransportError("%s body lacks an events list" % path)
        return events

    def fetch_trace(self, trace_id: str) -> list[Span]:
        """Retrieve one server-side trace by id (scheme-neutral endpoint).

        Raises :class:`~repro.service.gateway.EntryMissingError` when the
        server's bounded ring no longer (or never) held the id.
        """
        path = "/v1/trace/%s" % trace_id
        status, body = self._raw_request("GET", path, None)
        text = body.decode("utf-8", errors="replace")
        if status >= 400:
            try:
                decoded = from_wire(self.backend, text)
            except GatewayError:
                raise WireTransportError(
                    "HTTP %d from %s with undecodable body" % (status, path)
                ) from None
            if isinstance(decoded, GatewayError):
                raise decoded from None
            raise WireTransportError(
                "HTTP %d from %s carried a non-error message" % (status, path)
            )
        document = self._parse_json(body, path)
        spans = document.get("spans")
        if not isinstance(spans, list):
            raise WireTransportError("%s body lacks a spans list" % path)
        try:
            return [span_from_json(span) for span in spans]
        except ValueError as error:
            raise WireTransportError("malformed span in %s: %s" % (path, error)) from error

    def close(self) -> None:
        """Release every idle pooled connection (the pool refills on use)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            self._discard(conn)

    def __enter__(self) -> "RemoteGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
