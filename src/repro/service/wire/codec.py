"""JSON codec for the gateway's typed request/response surface.

Every dataclass :mod:`repro.service.gateway` exchanges is mapped to a
versioned wire message::

    {"wire": "repro-gateway/v1", "scheme": "<scheme id>",
     "type": "<kind>", "body": {...}}

One rule builds every body from its dataclass: the fields go by name,
and each field's annotation picks its kind (``str``, ``int``, ``bool``,
``float``, base64 ``bytes``, an element envelope, a tuple or
``dict[str, ...]`` of a kind, a nested dataclass, or ``(label,
outcome)`` count rows).  The field lists are compiled once at import.
A field with a default is left out while it is None and decodes to its
default when absent or null.  The few per-type quirks (a renamed field,
a derived view written on encode only, a check across fields) are
tables, not code.

The codec speaks for exactly one :class:`~repro.core.api.PreBackend`
(a bare :class:`~repro.pairing.group.PairingGroup` still selects the
paper's ``tipre/v1`` backend, the historical spelling).  Element
payloads (ciphertexts, proxy keys) travel as scheme-tagged envelopes —
``{"format": "<scheme id>", "group": ..., "kind": ..., "payload":
base64}`` — whose bytes come from the backend's serialization hooks;
for ``tipre/v1`` these are the canonical container envelopes of
:mod:`repro.serialization.containers`, so a key file written by
``repro-pre pextract`` is a valid ``proxy_key``.  Decoding checks the
envelope's scheme, group and ``kind`` against the field, and is
round-trip exact — the dataclass that comes out of :func:`from_wire`
compares equal to the one that went into :func:`to_wire`, group
elements included.

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
every decode failure to the stable ``invalid-request`` error code.  The
error names the offending field by its path in the body, such as
``requests[1].proxy_key``.

:class:`~repro.service.gateway.GatewayError` instances are themselves a
message type (``error``), carrying ``{code, message}``; decoding one
reconstructs the matching taxonomy class, which is how
:class:`~repro.service.wire.client.RemoteGateway` re-raises server-side
failures under the exact exception types in-process callers catch.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import struct
import types
import typing
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.api import PreBackend, resolve_backend
from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.pairing.group import PairingGroup
from repro.serialization.encoding import EncodingError
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
from repro.service.metrics import MetricsSnapshot
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
    "TransformRequest",
    "TransformResponse",
    "to_wire",
    "from_wire",
    "ParsedBody",
    "parse_body",
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
    """A sequence of :class:`GrantRequest` shipped as one message."""

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

    A read (replayable) that deliberately carries no filter.
    """

    tenant: str


@dataclass(frozen=True)
class KeyExportResponse:
    keys: tuple[ProxyKey, ...]  # or the scheme's own proxy key envelopes


@dataclass(frozen=True)
class TransformRequest:
    """A fleet router's call to a worker: transform ``ciphertexts`` under
    one proxy key, given as its container bytes.

    The router has already checked the delegation; a worker holds no key
    table and only runs the transformation.
    """

    tenant: str
    proxy_key: bytes
    ciphertexts: tuple[TypedCiphertext, ...]


@dataclass(frozen=True)
class TransformResponse:
    ciphertexts: tuple[ReEncryptedCiphertext, ...]  # in request order


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


# ------------------------------------------------------------ field kinds
#
# A kind is an ``(encode, decode)`` pair for one field's value, read off
# the field's annotation once at import.  ``encode(backend, value)``
# returns what ``json.dumps`` writes; it is None where the value is
# written as it is (``json.dumps`` writes a tuple as a list).
# ``decode(backend, value)`` checks one JSON value and returns the
# field's value, or raises _Refused.


class _Refused(Exception):
    """A decode check failed.

    Each container the refusal passes through on its way out adds its
    key, so the path to the value is built only when a check fails.
    ``args`` hold a format (its first placeholder takes the path) and values.
    """

    def __init__(self, template: str, *values) -> None:
        super().__init__(template, *values)
        self.keys: list = []  # innermost first

    def __str__(self) -> str:
        path = ""
        for key in reversed(self.keys):
            if isinstance(key, int):
                path += "[%d]" % key
            else:
                path += "." + key if path else key
        return self.args[0] % ((path,) + self.args[1:])


def _scalar(kind: type):
    # json.loads builds exact built-in types, so an exact type test also
    # keeps true/false (bool is an int subclass) out of numeric fields.
    def decode(backend, value):
        if type(value) is kind:
            return value
        raise _Refused("wire field %r must be %s", kind.__name__)

    return None, decode


def _decode_float(backend, value) -> float:
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            raise _Refused("wire field %r is out of range") from None
    raise _Refused("wire field %r must be %s", "int or float")


def _encode_bytes(backend, value: bytes) -> str:
    return base64.b64encode(value).decode("ascii")


def _decode_bytes(backend, value) -> bytes:
    if type(value) is not str:
        raise _Refused("wire field %r must be %s", "str")
    try:
        return base64.b64decode(value, validate=True)
    except ValueError:
        raise _Refused("wire field %r is not base64") from None


_SCALARS = {
    str: _scalar(str),
    int: _scalar(int),
    bool: _scalar(bool),
    float: (None, _decode_float),
    bytes: (_encode_bytes, _decode_bytes),
}

# Element envelopes: annotation -> (envelope kind, the backend method
# giving canonical bytes, the backend method checking and decoding them).
# Re-encryption ciphertexts decode to Encoded views (see the module doc).
_ELEMENTS = {
    ProxyKey: ("proxy-key", "serialize_proxy_key", "deserialize_proxy_key"),
    TypedCiphertext: ("typed-ciphertext", "ciphertext_bytes", "encoded_ciphertext"),
    ReEncryptedCiphertext: ("reencrypted-ciphertext", "reencrypted_bytes", "encoded_reencrypted"),
}


def _element(kind: str, to_bytes: str, from_bytes: str):
    def encode(backend: PreBackend, value) -> dict:
        return {
            "format": backend.scheme_id,
            "group": backend.group.params.name,
            "kind": kind,
            "payload": base64.b64encode(getattr(backend, to_bytes)(value)).decode("ascii"),
        }

    def decode(backend: PreBackend, envelope):
        if type(envelope) is not dict:
            raise _Refused("wire field %r must be %s", "dict")
        found = envelope.get("format")
        if found != backend.scheme_id:
            raise _Refused(
                "field %r carries scheme %r, this gateway speaks %r", found, backend.scheme_id
            )
        group = envelope.get("group")
        if group != backend.group.params.name:
            raise _Refused("field %r is for group %r, not %r", group, backend.group.params.name)
        if envelope.get("kind") != kind:
            raise _Refused("field %r has kind %r, expected %r", envelope.get("kind"), kind)
        payload = envelope.get("payload")
        if type(payload) is not str:
            raise _Refused("field %r has no payload")
        try:
            blob = base64.b64decode(payload, validate=True)
        except ValueError:
            raise _Refused("field %r: invalid payload") from None
        try:
            return getattr(backend, from_bytes)(blob)
        except (EncodingError, ValueError) as error:
            raise _Refused("field %r: %s", error) from error

    return encode, decode


def _tuple_of(item):
    encode_item, decode_item = item

    def decode(backend, values):
        if type(values) is not list:
            raise _Refused("wire field %r must be %s", "list")
        decoded = []
        try:
            for index, value in enumerate(values):
                decoded.append(decode_item(backend, value))
        except _Refused as refused:
            refused.keys.append(index)
            raise
        return tuple(decoded)

    if encode_item is None:
        return None, decode
    return (lambda backend, values: [encode_item(backend, v) for v in values]), decode


def _dict_of(item):
    encode_item, decode_item = item

    def decode(backend, mapping):
        if type(mapping) is not dict:
            raise _Refused("wire field %r must be %s", "dict")
        decoded = {}
        try:
            for key, value in mapping.items():
                decoded[key] = decode_item(backend, value)
        except _Refused as refused:
            refused.keys.append(key)
            raise
        return decoded

    if encode_item is None:
        return None, decode
    return (
        lambda backend, mapping: {k: encode_item(backend, v) for k, v in mapping.items()}
    ), decode


def _encode_rows(backend, outcomes: dict) -> list:
    # (label, outcome) tuple keys are not JSON object keys; flatten to rows.
    return [[label, outcome, count] for (label, outcome), count in sorted(outcomes.items())]


def _decode_rows(backend, rows) -> dict:
    if type(rows) is not list:
        raise _Refused("wire field %r must be %s", "list")
    outcomes = {}
    for row in rows:
        if not (
            type(row) is list and len(row) == 3 and type(row[0]) is type(row[1]) is str
            and type(row[2]) is int
        ):
            raise _Refused("%s rows must be [label, outcome, count]")
        outcomes[(row[0], row[1])] = row[2]
    return outcomes


def _kind(hint):
    """The ``(encode, decode)`` pair for one annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # ``X | None``: whether a field may be left out is its default's call.
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _kind(hint)
    if hint in _SCALARS:
        return _SCALARS[hint]
    if hint in _ELEMENTS:
        return _element(*_ELEMENTS[hint])
    if origin is tuple:
        return _tuple_of(_kind(args[0]))
    if origin is dict:
        if typing.get_origin(args[0]) is tuple:
            return _encode_rows, _decode_rows
        return _dict_of(_kind(args[1]))
    return _dataclass_kind(hint)


# ------------------------------------------------------------ field lists
#
# Every message is a dataclass, and its fields go on the wire by name.
# One rule covers optional fields: a field with a default is left out
# while it is None, and decodes to its default when absent or null.  A
# field without a default must be present and non-null.  Three per-type
# quirks are data, not code:

# Fields whose wire name differs from the attribute.
_RENAMED = {(HistogramSnapshot, "max_value"): "max"}
# Derived views written for readers and never read back.
_ENCODE_ONLY = {MetricsSnapshot: ("latency",)}


def _check_histogram(histogram: HistogramSnapshot) -> None:
    if len(histogram.counts) != len(histogram.bounds) + 1:
        raise _Refused("%s: histogram needs len(bounds) + 1 buckets")


# Checks across fields, run on the decoded value.
_CHECKS = {HistogramSnapshot: _check_histogram}


@functools.cache
def _dataclass_kind(cls: type):
    """The ``(encode, decode)`` pair of a dataclass, compiled from its fields."""
    hints = typing.get_type_hints(cls)
    encoded, decoded = [], []
    for field in dataclasses.fields(cls):
        encode_value, decode_value = _kind(hints[field.name])
        wire = _RENAMED.get((cls, field.name), field.name)
        optional = not (field.default is field.default_factory is dataclasses.MISSING)
        encoded.append((field.name, wire, encode_value, optional))
        decoded.append((field.name, wire, decode_value, optional))
    for name in _ENCODE_ONLY.get(cls, ()):
        hint = typing.get_type_hints(getattr(cls, name).fget)["return"]
        encoded.append((name, name, _kind(hint)[0], False))
    encoded, decoded, check = tuple(encoded), tuple(decoded), _CHECKS.get(cls)

    def encode(backend: PreBackend, message) -> dict:
        body = {}
        for attribute, wire, encode_value, optional in encoded:
            value = getattr(message, attribute)
            if value is None and optional:
                continue
            body[wire] = value if encode_value is None else encode_value(backend, value)
        return body

    def decode(backend: PreBackend, body):
        if type(body) is not dict:
            raise _Refused("wire field %r must be %s", "dict")
        values = {}
        try:
            for attribute, wire, decode_value, optional in decoded:
                value = body.get(wire)
                if value is None:
                    if not optional:
                        raise _Refused("missing wire field %r")
                    continue
                values[attribute] = decode_value(backend, value)
        except _Refused as refused:
            refused.keys.append(wire)
            raise
        message = cls(**values)
        if check is not None:
            check(message)
        return message

    return encode, decode


@dataclass(frozen=True)
class _ErrorBody:
    """The body of an ``error`` message (a GatewayError is no dataclass)."""

    code: str
    message: str


# --------------------------------------------------------------- dispatch

_WIRE_NAMES: dict[type, str] = {
    GrantRequest: "grant-request",
    GrantResponse: "grant-response",
    GrantBatchRequest: "grant-batch-request",
    GrantBatchResponse: "grant-batch-response",
    RevokeRequest: "revoke-request",
    RevokeResponse: "revoke-response",
    ReEncryptRequest: "reencrypt-request",
    ReEncryptResponse: "reencrypt-response",
    ReEncryptBatchRequest: "reencrypt-batch-request",
    ReEncryptBatchResponse: "reencrypt-batch-response",
    FetchRequest: "fetch-request",
    FetchResponse: "fetch-response",
    ResizeRequest: "resize-request",
    ResizeReport: "resize-report",
    KeyExportRequest: "key-export-request",
    KeyExportResponse: "key-export-response",
    TransformRequest: "transform-request",
    TransformResponse: "transform-response",
    MetricsSnapshot: "metrics-snapshot",
    _ErrorBody: "error",
}
_BY_TYPE = {cls: (name, _dataclass_kind(cls)[0]) for cls, name in _WIRE_NAMES.items()}
_BY_NAME = {name: _dataclass_kind(cls)[1] for cls, name in _WIRE_NAMES.items()}


def to_wire(context: PreBackend | PairingGroup, message: object) -> str:
    """Encode one request/response dataclass (or GatewayError) to JSON.

    ``context`` selects the scheme backend whose serialization hooks and
    scheme id the message is produced under; a bare pairing group means
    the paper's ``tipre/v1`` backend.
    """
    backend = resolve_backend(context)
    if isinstance(message, GatewayError):
        message = _ErrorBody(message.code, str(message))
    try:
        kind, encode = _BY_TYPE[type(message)]
    except KeyError:
        raise TypeError("no wire codec for %r" % type(message).__name__) from None
    body = encode(backend, message)
    return json.dumps(
        {"wire": WIRE_FORMAT, "scheme": backend.scheme_id, "type": kind, "body": body},
        sort_keys=True,
    )


class ParsedBody(NamedTuple):
    """One wire message's JSON value, parsed once and handed on:
    :func:`from_wire` takes it in place of the text.  ``value`` is the
    :class:`InvalidRequestError` that refuses text that is no JSON."""

    value: object


def parse_body(text: str | bytes) -> ParsedBody:
    """The JSON value of one wire message; never raises."""
    try:
        return ParsedBody(json.loads(text))
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer longer than sys.get_int_max_str_digits().
        refusal = InvalidRequestError("malformed JSON: %s" % error)
        refusal.__cause__ = error
        return ParsedBody(refusal)


def from_wire(
    context: PreBackend | PairingGroup,
    text: str | bytes | ParsedBody,
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
    message = (text if isinstance(text, ParsedBody) else parse_body(text)).value
    if isinstance(message, InvalidRequestError):
        raise message
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
    decode = _BY_NAME.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise InvalidRequestError("unknown wire message type %r" % (kind,))
    body = message.get("body")
    if not isinstance(body, dict):
        raise InvalidRequestError("wire message body must be a JSON object")
    try:
        decoded = decode(backend, body)
    except _Refused as refused:
        raise InvalidRequestError(str(refused)) from refused
    if kind == "error":
        decoded = ERROR_TYPES.get(decoded.code, GatewayError)(decoded.message)
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
# client extracts are identical to what the same server answers over
# HTTP.
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
    except (ValueError, RecursionError) as error:  # as in from_wire
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
