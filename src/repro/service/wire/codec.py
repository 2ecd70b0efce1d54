"""JSON codec for the gateway's typed request/response surface.

Every dataclass :mod:`repro.service.gateway` exchanges is mapped to a
versioned wire message::

    {"wire": "repro-gateway/v1", "scheme": "<scheme id>",
     "type": "<kind>", "body": {...}}

The codec speaks for exactly one :class:`~repro.core.api.PreBackend`
(a bare :class:`~repro.pairing.group.PairingGroup` still selects the
paper's ``tipre/v1`` backend, the historical spelling).  Element
payloads (ciphertexts, proxy keys) travel as scheme-tagged envelopes —
``{"format": "<scheme id>", "group": ..., "kind": ..., "payload":
base64}`` — whose bytes come from the backend's serialization hooks;
for ``tipre/v1`` these are the canonical container envelopes of
:mod:`repro.serialization.containers`, byte-identical to the wire
format before the backend API existed.  Decoding is round-trip exact —
the dataclass that comes out of :func:`from_wire` compares equal to the
one that went into :func:`to_wire`, group elements included.

Re-encryption ciphertexts in both directions decode to
:class:`~repro.core.api.Encoded` views: every structural check runs, but
the canonical bytes are kept and points are decompressed only when a
component is read.  A server routes and consults its result cache on
the request's header and bytes alone, and encodes an encoded response
by writing its bytes back; a client reading a response decompresses no
point it already holds (see
:meth:`~repro.pairing.group.PairingGroup.known_points`).

Anything malformed — broken JSON, a non-object, a wrong ``wire``
version, an unknown ``type``, a missing or mistyped field, a corrupt
element envelope, or *any scheme-id mismatch* (a message or element
produced under a different backend) — raises
:class:`~repro.service.gateway.InvalidRequestError`, so the server maps
every decode failure to the stable ``invalid-request`` error code.

:class:`~repro.service.gateway.GatewayError` instances are themselves a
message type (``error``), carrying ``{code, message}``; decoding one
reconstructs the matching taxonomy class, which is how
:class:`~repro.service.wire.client.RemoteGateway` re-raises server-side
failures under the exact exception types in-process callers catch.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.api import PreBackend, resolve_backend
from repro.pairing.group import PairingGroup
from repro.phr.store import StoredRecord
from repro.serialization.encoding import EncodingError
from repro.service.cache import CacheStats
from repro.service.gateway import (
    DelegationNotFoundError,
    EntryMissingError,
    FetchRequest,
    FetchResponse,
    GatewayError,
    GrantRequest,
    GrantResponse,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptRequest,
    ReEncryptResponse,
    RevokeRequest,
    RevokeResponse,
    ResizeReport,
    StoreUnavailableError,
)
from repro.service.auth.errors import (
    AuthenticationError,
    AuthRequiredError,
    BadSignatureError,
    ForbiddenError,
    ReplayedNonceError,
    StaleTimestampError,
    UnknownTenantError,
)
from repro.service.gateway import QuotaExceededError
from repro.service.metrics import LatencySummary, MetricsSnapshot
from repro.service.telemetry import HistogramSnapshot

__all__ = [
    "WIRE_FORMAT",
    "ERROR_TYPES",
    "GrantBatchRequest",
    "GrantBatchResponse",
    "ReEncryptBatchRequest",
    "ReEncryptBatchResponse",
    "ResizeRequest",
    "KeyExportRequest",
    "KeyExportResponse",
    "to_wire",
    "from_wire",
    "scheme_document",
    "neutral_error_to_wire",
    "MUX_PROTOCOL",
    "MAX_FRAME_BYTES",
    "FRAME_HEADER_LEN",
    "FrameProtocolError",
    "encode_frame",
    "decode_frame_payload",
    "frame_length",
    "mux_hello",
    "mux_request",
    "mux_response",
]

WIRE_FORMAT = "repro-gateway/v1"

# code -> taxonomy class, for reconstructing errors client-side.
ERROR_TYPES: dict[str, type] = {
    cls.code: cls
    for cls in (
        GatewayError,
        RateLimitedError,
        DelegationNotFoundError,
        EntryMissingError,
        InvalidRequestError,
        StoreUnavailableError,
        QuotaExceededError,
        AuthenticationError,
        AuthRequiredError,
        UnknownTenantError,
        BadSignatureError,
        StaleTimestampError,
        ReplayedNonceError,
        ForbiddenError,
    )
}


# ------------------------------------------------------- wire-only wrappers


@dataclass(frozen=True)
class GrantBatchRequest:
    """A sequence of :class:`GrantRequest` shipped as one message.

    The fleet resize migration re-homes whole chunks of proxy keys at
    once with this instead of paying one HTTP round-trip per key.
    """

    requests: tuple[GrantRequest, ...]


@dataclass(frozen=True)
class GrantBatchResponse:
    responses: tuple[GrantResponse, ...]


@dataclass(frozen=True)
class ReEncryptBatchRequest:
    """A sequence of :class:`ReEncryptRequest` shipped as one message."""

    requests: tuple[ReEncryptRequest, ...]


@dataclass(frozen=True)
class ReEncryptBatchResponse:
    responses: tuple[ReEncryptResponse, ...]


@dataclass(frozen=True)
class ResizeRequest:
    """Admin request: rebalance the fleet to ``shard_count`` shards.

    ``request_id`` is the client-generated idempotency id — a server
    holding the id in its dedup window replays the recorded response
    instead of running a second migration, which is what makes resize
    safely retryable after a connection drop.
    """

    tenant: str
    shard_count: int
    request_id: str | None = None


@dataclass(frozen=True)
class KeyExportRequest:
    """Admin request: enumerate every installed proxy key.

    The fleet tier's resize migration streams keys off a shard process
    with this; it is a read (replayable) and deliberately carries no
    filter — consistent-hash ownership is the caller's business.
    """

    tenant: str


@dataclass(frozen=True)
class KeyExportResponse:
    keys: tuple  # scheme-native proxy keys


# --------------------------------------------------------- scheme documents


def scheme_document(backend: PreBackend) -> dict:
    """The negotiation document one hosted scheme publishes.

    Served verbatim by ``GET /v1/scheme`` (and per entry by
    ``GET /v1/schemes`` on a multi-scheme server), and read back by
    :class:`~repro.service.wire.client.RemoteGateway` to pin a scheme
    before any element envelope crosses the wire.
    """
    return {
        "scheme": backend.scheme_id,
        "name": backend.display_name,
        "group": backend.group.params.name,
        "capabilities": backend.capabilities.as_dict(),
    }


def neutral_error_to_wire(error: GatewayError) -> str:
    """Encode an error without a scheme tag.

    Some rejections cannot name a scheme — an unknown endpoint on a
    server hosting several fleets, an unprefixed route that would be
    ambiguous.  :func:`from_wire` treats a missing ``scheme`` tag as
    neutral, so any client can still decode the taxonomy code.
    """
    return json.dumps(
        {
            "wire": WIRE_FORMAT,
            "type": "error",
            "body": {"code": error.code, "message": str(error)},
        },
        sort_keys=True,
    )


# ------------------------------------------------------------- field access


def _body_of(message: dict) -> dict:
    body = message.get("body")
    if not isinstance(body, dict):
        raise InvalidRequestError("wire message body must be a JSON object")
    return body


def _get(
    body: dict, name: str, kind: type | tuple[type, ...], optional: bool = False
) -> Any:
    value = body.get(name)
    if value is None:
        if optional:
            return None
        raise InvalidRequestError("missing wire field %r" % name)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # bool is an int subclass; a numeric field must still reject true/false.
    if not isinstance(value, kinds) or (bool not in kinds and isinstance(value, bool)):
        raise InvalidRequestError(
            "wire field %r must be %s"
            % (name, " or ".join(k.__name__ for k in kinds))
        )
    return value


def _element_to_json(backend: PreBackend, blob: bytes, kind: str) -> dict:
    """Scheme-tagged element envelope; for ``tipre/v1`` this is exactly
    the canonical ``to_json_envelope`` output the wire always used."""
    return {
        "format": backend.scheme_id,
        "group": backend.group.params.name,
        "kind": kind,
        "payload": base64.b64encode(blob).decode("ascii"),
    }


def _element_from_json(backend: PreBackend, body: dict, name: str) -> bytes:
    envelope = _get(body, name, dict)
    found = envelope.get("format")
    if found != backend.scheme_id:
        raise InvalidRequestError(
            "field %r carries scheme %r, this gateway speaks %r"
            % (name, found, backend.scheme_id)
        )
    if envelope.get("group") != backend.group.params.name:
        raise InvalidRequestError(
            "field %r is for group %r, not %r"
            % (name, envelope.get("group"), backend.group.params.name)
        )
    payload = envelope.get("payload")
    if not isinstance(payload, str):
        raise InvalidRequestError("field %r has no payload" % name)
    try:
        return base64.b64decode(payload, validate=True)
    except ValueError as error:
        raise InvalidRequestError("field %r: invalid payload" % name) from error


def _decode_element(decode: Callable, blob: bytes, name: str):
    try:
        return decode(blob)
    except (EncodingError, ValueError) as error:
        raise InvalidRequestError("field %r: %s" % (name, error)) from error


# ------------------------------------------------------- per-type encoders


def _enc_grant_request(backend: PreBackend, msg: GrantRequest) -> dict:
    return {
        "tenant": msg.tenant,
        "proxy_key": _element_to_json(
            backend, backend.serialize_proxy_key(msg.proxy_key), "proxy-key"
        ),
    }


def _dec_grant_request(backend: PreBackend, body: dict) -> GrantRequest:
    return GrantRequest(
        tenant=_get(body, "tenant", str),
        proxy_key=_decode_element(
            backend.deserialize_proxy_key,
            _element_from_json(backend, body, "proxy_key"),
            "proxy_key",
        ),
    )


def _enc_grant_response(backend: PreBackend, msg: GrantResponse) -> dict:
    return {"shard": msg.shard}


def _dec_grant_response(backend: PreBackend, body: dict) -> GrantResponse:
    return GrantResponse(shard=_get(body, "shard", str))


def _enc_grant_batch_request(backend: PreBackend, msg: GrantBatchRequest) -> dict:
    return {"requests": [_enc_grant_request(backend, r) for r in msg.requests]}


def _dec_grant_batch_request(backend: PreBackend, body: dict) -> GrantBatchRequest:
    items = _get(body, "requests", list)
    decoded = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidRequestError("batch items must be JSON objects")
        decoded.append(_dec_grant_request(backend, item))
    return GrantBatchRequest(requests=tuple(decoded))


def _enc_grant_batch_response(backend: PreBackend, msg: GrantBatchResponse) -> dict:
    return {"responses": [_enc_grant_response(backend, r) for r in msg.responses]}


def _dec_grant_batch_response(backend: PreBackend, body: dict) -> GrantBatchResponse:
    items = _get(body, "responses", list)
    decoded = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidRequestError("batch items must be JSON objects")
        decoded.append(_dec_grant_response(backend, item))
    return GrantBatchResponse(responses=tuple(decoded))


def _enc_revoke_request(backend: PreBackend, msg: RevokeRequest) -> dict:
    body = {
        "tenant": msg.tenant,
        "delegator_domain": msg.delegator_domain,
        "delegator": msg.delegator,
        "delegatee_domain": msg.delegatee_domain,
        "delegatee": msg.delegatee,
        "type_label": msg.type_label,
    }
    # Omitted when unset: a request without an idempotency id stays
    # byte-identical to what pre-dedup clients always sent.
    if msg.request_id is not None:
        body["request_id"] = msg.request_id
    return body


def _dec_revoke_request(backend: PreBackend, body: dict) -> RevokeRequest:
    return RevokeRequest(
        tenant=_get(body, "tenant", str),
        delegator_domain=_get(body, "delegator_domain", str),
        delegator=_get(body, "delegator", str),
        delegatee_domain=_get(body, "delegatee_domain", str),
        delegatee=_get(body, "delegatee", str),
        type_label=_get(body, "type_label", str),
        request_id=_get(body, "request_id", str, optional=True),
    )


def _enc_revoke_response(backend: PreBackend, msg: RevokeResponse) -> dict:
    return {"shard": msg.shard, "removed": msg.removed}


def _dec_revoke_response(backend: PreBackend, body: dict) -> RevokeResponse:
    return RevokeResponse(
        shard=_get(body, "shard", str), removed=_get(body, "removed", bool)
    )


def _enc_reencrypt_request(backend: PreBackend, msg: ReEncryptRequest) -> dict:
    return {
        "tenant": msg.tenant,
        "ciphertext": _element_to_json(
            backend, backend.ciphertext_bytes(msg.ciphertext), "typed-ciphertext"
        ),
        "delegatee_domain": msg.delegatee_domain,
        "delegatee": msg.delegatee,
    }


def _dec_reencrypt_request(backend: PreBackend, body: dict) -> ReEncryptRequest:
    # Checked to the last structural detail, kept as bytes: the gateway
    # decompresses the ciphertext only when its result cache misses.
    return ReEncryptRequest(
        tenant=_get(body, "tenant", str),
        ciphertext=_decode_element(
            backend.encoded_ciphertext,
            _element_from_json(backend, body, "ciphertext"),
            "ciphertext",
        ),
        delegatee_domain=_get(body, "delegatee_domain", str),
        delegatee=_get(body, "delegatee", str),
    )


def _enc_reencrypt_response(backend: PreBackend, msg: ReEncryptResponse) -> dict:
    return {
        "ciphertext": _element_to_json(
            backend, backend.reencrypted_bytes(msg.ciphertext), "reencrypted-ciphertext"
        ),
        "shard": msg.shard,
        "cache_hit": msg.cache_hit,
    }


def _dec_reencrypt_response(backend: PreBackend, body: dict) -> ReEncryptResponse:
    return ReEncryptResponse(
        ciphertext=_decode_element(
            backend.encoded_reencrypted,
            _element_from_json(backend, body, "ciphertext"),
            "ciphertext",
        ),
        shard=_get(body, "shard", str),
        cache_hit=_get(body, "cache_hit", bool),
    )


def _enc_reencrypt_batch_request(backend: PreBackend, msg: ReEncryptBatchRequest) -> dict:
    return {"requests": [_enc_reencrypt_request(backend, r) for r in msg.requests]}


def _dec_reencrypt_batch_request(backend: PreBackend, body: dict) -> ReEncryptBatchRequest:
    items = _get(body, "requests", list)
    decoded = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidRequestError("batch items must be JSON objects")
        decoded.append(_dec_reencrypt_request(backend, item))
    return ReEncryptBatchRequest(requests=tuple(decoded))


def _enc_reencrypt_batch_response(backend: PreBackend, msg: ReEncryptBatchResponse) -> dict:
    return {"responses": [_enc_reencrypt_response(backend, r) for r in msg.responses]}


def _dec_reencrypt_batch_response(backend: PreBackend, body: dict) -> ReEncryptBatchResponse:
    items = _get(body, "responses", list)
    decoded = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidRequestError("batch items must be JSON objects")
        decoded.append(_dec_reencrypt_response(backend, item))
    return ReEncryptBatchResponse(responses=tuple(decoded))


def _enc_fetch_request(backend: PreBackend, msg: FetchRequest) -> dict:
    return {
        "tenant": msg.tenant,
        "patient": msg.patient,
        "entry_id": msg.entry_id,
        "category": msg.category,
    }


def _dec_fetch_request(backend: PreBackend, body: dict) -> FetchRequest:
    return FetchRequest(
        tenant=_get(body, "tenant", str),
        patient=_get(body, "patient", str),
        entry_id=_get(body, "entry_id", str, optional=True),
        category=_get(body, "category", str, optional=True),
    )


def _enc_fetch_response(backend: PreBackend, msg: FetchResponse) -> dict:
    return {
        "records": [
            {
                "patient": record.patient,
                "category": record.category,
                "entry_id": record.entry_id,
                "blob": base64.b64encode(record.blob).decode("ascii"),
            }
            for record in msg.records
        ]
    }


def _dec_fetch_response(backend: PreBackend, body: dict) -> FetchResponse:
    items = _get(body, "records", list)
    records = []
    for item in items:
        if not isinstance(item, dict):
            raise InvalidRequestError("records must be JSON objects")
        try:
            blob = base64.b64decode(_get(item, "blob", str), validate=True)
        except ValueError as error:
            raise InvalidRequestError("invalid record blob") from error
        records.append(
            StoredRecord(
                patient=_get(item, "patient", str),
                category=_get(item, "category", str),
                entry_id=_get(item, "entry_id", str),
                blob=blob,
            )
        )
    return FetchResponse(records=tuple(records))


def _enc_resize_request(backend: PreBackend, msg: ResizeRequest) -> dict:
    body = {"tenant": msg.tenant, "shard_count": msg.shard_count}
    if msg.request_id is not None:
        body["request_id"] = msg.request_id
    return body


def _dec_resize_request(backend: PreBackend, body: dict) -> ResizeRequest:
    return ResizeRequest(
        tenant=_get(body, "tenant", str),
        shard_count=_get(body, "shard_count", int),
        request_id=_get(body, "request_id", str, optional=True),
    )


def _enc_key_export_request(backend: PreBackend, msg: KeyExportRequest) -> dict:
    return {"tenant": msg.tenant}


def _dec_key_export_request(backend: PreBackend, body: dict) -> KeyExportRequest:
    return KeyExportRequest(tenant=_get(body, "tenant", str))


def _enc_key_export_response(backend: PreBackend, msg: KeyExportResponse) -> dict:
    return {
        "keys": [
            _element_to_json(backend, backend.serialize_proxy_key(key), "proxy-key")
            for key in msg.keys
        ]
    }


def _dec_key_export_response(backend: PreBackend, body: dict) -> KeyExportResponse:
    items = _get(body, "keys", list)
    keys = []
    for position, item in enumerate(items):
        if not isinstance(item, dict):
            raise InvalidRequestError("exported keys must be JSON objects")
        name = "keys[%d]" % position
        blob = _element_from_json(backend, {name: item}, name)
        keys.append(_decode_element(backend.deserialize_proxy_key, blob, name))
    return KeyExportResponse(keys=tuple(keys))


def _enc_resize_report(backend: PreBackend, msg: ResizeReport) -> dict:
    return {
        "old_shard_count": msg.old_shard_count,
        "new_shard_count": msg.new_shard_count,
        "keys_moved": msg.keys_moved,
        "shards_added": list(msg.shards_added),
        "shards_removed": list(msg.shards_removed),
        "elapsed_ms": msg.elapsed_ms,
    }


def _str_list(body: dict, name: str) -> tuple[str, ...]:
    items = _get(body, name, list)
    if not all(isinstance(item, str) for item in items):
        raise InvalidRequestError("wire field %r must be a list of strings" % name)
    return tuple(items)


def _dec_resize_report(backend: PreBackend, body: dict) -> ResizeReport:
    return ResizeReport(
        old_shard_count=_get(body, "old_shard_count", int),
        new_shard_count=_get(body, "new_shard_count", int),
        keys_moved=_get(body, "keys_moved", int),
        shards_added=_str_list(body, "shards_added"),
        shards_removed=_str_list(body, "shards_removed"),
        elapsed_ms=float(_get(body, "elapsed_ms", (int, float))),
    )


def _enc_latency(summary: LatencySummary) -> dict:
    return {
        "count": summary.count,
        "p50_ms": summary.p50_ms,
        "p90_ms": summary.p90_ms,
        "p99_ms": summary.p99_ms,
        "max_ms": summary.max_ms,
    }


def _enc_cache_stats(stats: CacheStats) -> dict:
    return {
        "name": stats.name,
        "size": stats.size,
        "capacity": stats.capacity,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "invalidations": stats.invalidations,
    }


def _dec_cache_stats(body: dict) -> CacheStats:
    return CacheStats(
        name=_get(body, "name", str),
        size=_get(body, "size", int),
        capacity=_get(body, "capacity", int),
        hits=_get(body, "hits", int),
        misses=_get(body, "misses", int),
        evictions=_get(body, "evictions", int),
        invalidations=_get(body, "invalidations", int),
    )


def _enc_histogram(histogram: HistogramSnapshot) -> dict:
    return {
        "bounds": list(histogram.bounds),
        "counts": list(histogram.counts),
        "count": histogram.count,
        "sum": histogram.sum,
        "max": histogram.max_value,
    }


def _dec_histogram(body: dict) -> HistogramSnapshot:
    bounds = _get(body, "bounds", list)
    counts = _get(body, "counts", list)
    if not all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in bounds):
        raise InvalidRequestError("histogram bounds must be numbers")
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
        raise InvalidRequestError("histogram counts must be integers")
    if len(counts) != len(bounds) + 1:
        raise InvalidRequestError("histogram needs len(bounds) + 1 buckets")
    return HistogramSnapshot(
        bounds=tuple(float(b) for b in bounds),
        counts=tuple(counts),
        count=_get(body, "count", int),
        sum=float(_get(body, "sum", (int, float))),
        max_value=float(_get(body, "max", (int, float))),
    )


def _enc_outcomes(outcomes: dict) -> list:
    # (label, outcome) tuple keys are not JSON object keys; flatten to rows.
    return [
        [label, outcome, count]
        for (label, outcome), count in sorted(outcomes.items())
    ]


def _dec_outcomes(rows: list, what: str) -> dict:
    outcomes = {}
    for row in rows:
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not isinstance(row[0], str)
            or not isinstance(row[1], str)
            or not isinstance(row[2], int)
            or isinstance(row[2], bool)
        ):
            raise InvalidRequestError("%s rows must be [label, outcome, count]" % what)
        outcomes[(row[0], row[1])] = row[2]
    return outcomes


def _enc_metrics_snapshot(backend: PreBackend, msg: MetricsSnapshot) -> dict:
    return {
        "requests_total": msg.requests_total,
        "served": msg.served,
        "rejected": msg.rejected,
        "rate_limited": msg.rate_limited,
        "elapsed_s": msg.elapsed_s,
        "shard_requests": dict(msg.shard_requests),
        "latency": {kind: _enc_latency(summary) for kind, summary in msg.latency.items()},
        "caches": {name: _enc_cache_stats(stats) for name, stats in msg.caches.items()},
        "resizes": msg.resizes,
        "keys_migrated": msg.keys_migrated,
        "histograms": {
            kind: _enc_histogram(histogram)
            for kind, histogram in msg.histograms.items()
        },
        "outcomes": _enc_outcomes(msg.outcomes),
        "tenant_outcomes": _enc_outcomes(msg.tenant_outcomes),
        "tenant_queue_ms": {
            tenant: _enc_histogram(histogram)
            for tenant, histogram in msg.tenant_queue_ms.items()
        },
        "auth_failures": dict(msg.auth_failures),
    }


def _dec_metrics_snapshot(backend: PreBackend, body: dict) -> MetricsSnapshot:
    shard_requests = _get(body, "shard_requests", dict)
    if not all(
        isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
        for k, v in shard_requests.items()
    ):
        raise InvalidRequestError("shard_requests must map shard -> int")
    caches = {}
    for name, stats in _get(body, "caches", dict).items():
        if not isinstance(stats, dict):
            raise InvalidRequestError("cache stats must be JSON objects")
        caches[name] = _dec_cache_stats(stats)
    # Telemetry fields are optional on decode: a pre-telemetry peer's
    # snapshot (no histograms/outcomes) still decodes, with empty maps.
    histograms = {}
    for kind, histogram in (_get(body, "histograms", dict, optional=True) or {}).items():
        if not isinstance(histogram, dict):
            raise InvalidRequestError("histograms must be JSON objects")
        histograms[kind] = _dec_histogram(histogram)
    outcomes = _dec_outcomes(
        _get(body, "outcomes", list, optional=True) or [], "outcomes"
    )
    tenant_outcomes = _dec_outcomes(
        _get(body, "tenant_outcomes", list, optional=True) or [], "tenant_outcomes"
    )
    tenant_queue_ms = {}
    for tenant, histogram in (
        _get(body, "tenant_queue_ms", dict, optional=True) or {}
    ).items():
        if not isinstance(histogram, dict):
            raise InvalidRequestError("tenant_queue_ms must map tenant -> histogram")
        tenant_queue_ms[tenant] = _dec_histogram(histogram)
    auth_failures = _get(body, "auth_failures", dict, optional=True) or {}
    if not all(
        isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
        for k, v in auth_failures.items()
    ):
        raise InvalidRequestError("auth_failures must map code -> int")
    return MetricsSnapshot(
        requests_total=_get(body, "requests_total", int),
        served=_get(body, "served", int),
        rejected=_get(body, "rejected", int),
        rate_limited=_get(body, "rate_limited", int),
        elapsed_s=float(_get(body, "elapsed_s", (int, float))),
        shard_requests=dict(shard_requests),
        caches=caches,
        resizes=_get(body, "resizes", int),
        keys_migrated=_get(body, "keys_migrated", int),
        histograms=histograms,
        outcomes=outcomes,
        tenant_outcomes=tenant_outcomes,
        tenant_queue_ms=tenant_queue_ms,
        auth_failures=dict(auth_failures),
    )


def _enc_error(backend: PreBackend, error: GatewayError) -> dict:
    return {"code": error.code, "message": str(error)}


def _dec_error(backend: PreBackend, body: dict) -> GatewayError:
    code = _get(body, "code", str)
    message = _get(body, "message", str)
    return ERROR_TYPES.get(code, GatewayError)(message)


# --------------------------------------------------------------- dispatch

_CODECS: dict[type, tuple[str, Callable, Callable]] = {
    GrantRequest: ("grant-request", _enc_grant_request, _dec_grant_request),
    GrantResponse: ("grant-response", _enc_grant_response, _dec_grant_response),
    GrantBatchRequest: (
        "grant-batch-request",
        _enc_grant_batch_request,
        _dec_grant_batch_request,
    ),
    GrantBatchResponse: (
        "grant-batch-response",
        _enc_grant_batch_response,
        _dec_grant_batch_response,
    ),
    RevokeRequest: ("revoke-request", _enc_revoke_request, _dec_revoke_request),
    RevokeResponse: ("revoke-response", _enc_revoke_response, _dec_revoke_response),
    ReEncryptRequest: ("reencrypt-request", _enc_reencrypt_request, _dec_reencrypt_request),
    ReEncryptResponse: (
        "reencrypt-response",
        _enc_reencrypt_response,
        _dec_reencrypt_response,
    ),
    ReEncryptBatchRequest: (
        "reencrypt-batch-request",
        _enc_reencrypt_batch_request,
        _dec_reencrypt_batch_request,
    ),
    ReEncryptBatchResponse: (
        "reencrypt-batch-response",
        _enc_reencrypt_batch_response,
        _dec_reencrypt_batch_response,
    ),
    FetchRequest: ("fetch-request", _enc_fetch_request, _dec_fetch_request),
    FetchResponse: ("fetch-response", _enc_fetch_response, _dec_fetch_response),
    ResizeRequest: ("resize-request", _enc_resize_request, _dec_resize_request),
    ResizeReport: ("resize-report", _enc_resize_report, _dec_resize_report),
    KeyExportRequest: (
        "key-export-request",
        _enc_key_export_request,
        _dec_key_export_request,
    ),
    KeyExportResponse: (
        "key-export-response",
        _enc_key_export_response,
        _dec_key_export_response,
    ),
    MetricsSnapshot: ("metrics-snapshot", _enc_metrics_snapshot, _dec_metrics_snapshot),
}

_DECODERS: dict[str, Callable] = {kind: dec for kind, _enc, dec in _CODECS.values()}
_DECODERS["error"] = _dec_error


def to_wire(context: PreBackend | PairingGroup, message: object) -> str:
    """Encode one request/response dataclass (or GatewayError) to JSON.

    ``context`` selects the scheme backend whose serialization hooks and
    scheme id the message is produced under; a bare pairing group means
    the paper's ``tipre/v1`` backend.
    """
    backend = resolve_backend(context)
    if isinstance(message, GatewayError):
        kind, body = "error", _enc_error(backend, message)
    else:
        try:
            kind, encode, _dec = _CODECS[type(message)]
        except KeyError:
            raise TypeError("no wire codec for %r" % type(message).__name__) from None
        body = encode(backend, message)
    return json.dumps(
        {"wire": WIRE_FORMAT, "scheme": backend.scheme_id, "type": kind, "body": body},
        sort_keys=True,
    )


def from_wire(
    context: PreBackend | PairingGroup,
    text: str | bytes,
    expect: tuple[type, ...] | type | None = None,
):
    """Decode one wire message; reject anything malformed as invalid-request.

    A message carrying a ``scheme`` tag for a different backend is
    rejected outright (peers must agree on the scheme before elements
    can mean anything); a message without the tag is decoded against
    ``context``'s backend, whose element envelopes still enforce the
    scheme id wherever group elements appear.

    ``expect`` (a type or tuple of types) narrows what the caller will
    accept — a valid message of another kind (including an ``error``) is
    still rejected, so an endpoint cannot be fed a structurally-valid
    but wrong request.  Callers that need to read error bodies (the
    client unpacking a non-2xx response) pass no ``expect`` and get the
    reconstructed :class:`GatewayError` instance back to raise.
    """
    backend = resolve_backend(context)
    try:
        message = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
        raise InvalidRequestError("malformed JSON: %s" % error) from error
    if not isinstance(message, dict):
        raise InvalidRequestError("wire message must be a JSON object")
    if message.get("wire") != WIRE_FORMAT:
        raise InvalidRequestError(
            "unsupported wire format %r (expected %r)"
            % (message.get("wire"), WIRE_FORMAT)
        )
    kind = message.get("type")
    scheme = message.get("scheme")
    # Error bodies are scheme-neutral (taxonomy code + prose): a client
    # must be able to read the server's rejection even when the scheme
    # mismatch *is* what is being rejected.
    if kind != "error" and scheme is not None and scheme != backend.scheme_id:
        raise InvalidRequestError(
            "message is for scheme %r, this gateway speaks %r"
            % (scheme, backend.scheme_id)
        )
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise InvalidRequestError("unknown wire message type %r" % kind)
    decoded = decoder(backend, _body_of(message))
    if expect is not None and not isinstance(decoded, expect):
        expected = expect if isinstance(expect, tuple) else (expect,)
        raise InvalidRequestError(
            "expected %s, got %r"
            % (" or ".join(cls.__name__ for cls in expected), kind)
        )
    return decoded


# ----------------------------------------------------------- mux framing
#
# The multiplexed wire (``mux://``) carries the exact same JSON documents
# as HTTP — a frame is a transport envelope, not a second codec.  Each
# frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON
# payload; the first frame in each direction is a ``hello`` naming the
# protocol, every later client frame is a ``request`` carrying an
# integer ``id``, and the server answers each with a ``response`` tagged
# with the same id (in whatever order executions finish — that id
# correlation is what lets many requests share one socket).  The HTTP
# body travels inside the frame as a JSON *string*, so the bytes a
# client extracts are identical to what the threaded stack returns.
#
# The length prefix keeps its top byte zero (frames are capped well
# below 2**24), which doubles as the protocol sniff: no HTTP method
# starts with a NUL byte, so a server can serve both protocols on one
# port by looking at the first octet of a connection.

MUX_PROTOCOL = "repro-mux/v1"
FRAME_HEADER_LEN = 4
MAX_FRAME_BYTES = 16 * 1024 * 1024 - 1  # keeps the prefix's top byte 0x00


class FrameProtocolError(Exception):
    """The peer broke mux framing (bad prefix, oversize or non-JSON frame)."""


def encode_frame(document: dict) -> bytes:
    """One framed document: 4-byte big-endian length + compact JSON."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            "frame payload of %d bytes exceeds the %d-byte cap"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return struct.pack(">I", len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Decode a frame's length prefix, enforcing the size cap."""
    if len(header) != FRAME_HEADER_LEN:
        raise FrameProtocolError("truncated frame header (%d bytes)" % len(header))
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            "frame of %d bytes exceeds the %d-byte cap" % (length, MAX_FRAME_BYTES)
        )
    return length


def decode_frame_payload(payload: bytes) -> dict:
    """Parse one frame payload into its JSON document."""
    try:
        document = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
        raise FrameProtocolError("malformed frame payload: %s" % error) from error
    if not isinstance(document, dict):
        raise FrameProtocolError("frame payload must be a JSON object")
    return document


def mux_hello(**extra) -> dict:
    """The connection-opening handshake document (both directions)."""
    document = {"mux": MUX_PROTOCOL, "type": "hello"}
    document.update(extra)
    return document


def mux_request(
    request_id: int,
    method: str,
    path: str,
    body: str | None = None,
    headers: dict | None = None,
) -> dict:
    """One in-flight request stream: the HTTP request, framed."""
    document = {
        "type": "request",
        "id": request_id,
        "method": method,
        "path": path,
        "body": body,
    }
    if headers:
        document["headers"] = dict(headers)
    return document


def mux_response(
    request_id: int,
    status: int,
    body: str,
    content_type: str = "application/json",
    trace: str | None = None,
) -> dict:
    """The server's answer to one request stream, correlated by id."""
    document = {
        "type": "response",
        "id": request_id,
        "status": status,
        "body": body,
        "content_type": content_type,
    }
    if trace is not None:
        document["trace"] = trace
    return document
