"""Conformance tests for the wire stacks: the server's HTTP and mux.

Both transports sit over one request engine, so conformance is
pinned by data instead of by a second implementation: the golden
transcript ``tests/data/wire_transcript.json`` holds the exact
``(method, path, status, content type, trace echo, body)`` of a scripted
request stream sent with one fixed trace header, and every stack must
replay it byte for byte over an identically seeded gateway — success payloads and taxonomy error bodies alike.  On
top of the transcript: typed-client parity for every operation, auth and
TLS variants, and the one-socket multiplexing bound.
"""

from __future__ import annotations

import base64
import collections
import dataclasses
import http.client
import http.server
import io
import itertools
import json
import os
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.math.drbg import HmacDrbg
from repro.pairing import group as group_module
from repro.serialization.containers import serialize_reencrypted
from repro.service.auth import (
    AuthRequiredError,
    BadSignatureError,
    RequestVerifier,
    TenantCredentialStore,
    server_context,
)
from repro.service.driver import DELEGATEE_DOMAIN, build_setting, drive_requests
from repro.service.gateway import (
    DelegationNotFoundError,
    FetchRequest,
    GrantRequest,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptRequest,
    RevokeRequest,
    StoreUnavailableError,
)
from repro.service.telemetry import TRACE_HEADER, EventLog
from repro.service.wire import (
    ERROR_TYPES,
    AsyncGatewayServer,
    GrantBatchRequest,
    MuxRemoteGateway,
    ReEncryptBatchRequest,
    RemoteGateway,
    WireTransportError,
    connect_gateway,
    to_wire,
)
from repro.service.wire.aio_server import MAX_BODY_BYTES, _mux_request
from repro.service.wire.codec import (
    FRAME_HEADER_LEN,
    FrameProtocolError,
    KeyExportRequest,
    ResizeRequest,
    decode_frame_payload,
    encode_frame,
    frame_length,
    mux_hello,
    mux_request,
    neutral_error_to_wire,
)
from test_cli import _spawn_serve, _stop

SEED = "aio-conformance"
PREFIX = "/v1/tipre/v1"
REPO_ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT_PATH = REPO_ROOT / "tests" / "data" / "wire_transcript.json"
STACKS = ("aio-http", "mux")
# Every transcript request carries this trace header, so the replay runs
# the traced request path and pins the server's echo of it.
TRANSCRIPT_TRACE = "0123456789abcdef" * 2 + "-" + "fedcba9876543210"


def _build():
    return build_setting(
        group_name="TOY",
        shard_count=3,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed=SEED,
    )


def _first_keys(gateway, count=2):
    return gateway.list_keys()[:count]


def _reencrypt_requests(setting, count=2):
    requests = []
    for (patient, _type_label), entries in sorted(setting.pool.items()):
        ciphertext, _message = entries[0]
        requests.append(
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN,
                delegatee=setting.delegatees[0],
            )
        )
    return requests[:count]


def _op_sequence(setting):
    """The scripted request stream every stack replays identically.

    Covers every POST op, the GET surface, cache-hit repeats, batches,
    and the negative paths whose error bodies must match byte-for-byte.
    Fixed request ids keep revoke/resize payload bytes deterministic.
    """
    backend = setting.gateway.backend
    key0, key1 = _first_keys(setting.gateway)
    r0, r1 = _reencrypt_requests(setting)

    def revoke_of(key, request_id):
        return RevokeRequest(
            tenant="t",
            delegator_domain=key.delegator_domain,
            delegator=key.delegator,
            delegatee_domain=key.delegatee_domain,
            delegatee=key.delegatee,
            type_label=key.type_label,
            request_id=request_id,
        )

    def wire(message):
        return to_wire(backend, message).encode("utf-8")

    return [
        ("GET", "/v1/health", None),
        ("GET", "/v1/schemes", None),
        ("GET", PREFIX + "/scheme", None),
        ("POST", PREFIX + "/revoke", wire(revoke_of(key0, "aa" * 16))),
        ("POST", PREFIX + "/grant", wire(GrantRequest(tenant="t", proxy_key=key0))),
        (
            "POST",
            PREFIX + "/grant",
            wire(
                GrantBatchRequest(
                    requests=(
                        GrantRequest(tenant="t", proxy_key=key0),
                        GrantRequest(tenant="t", proxy_key=key1),
                    )
                )
            ),
        ),
        ("POST", PREFIX + "/reencrypt", wire(r0)),
        ("POST", PREFIX + "/reencrypt", wire(r0)),  # cache-hit flag parity
        ("POST", PREFIX + "/reencrypt", wire(ReEncryptBatchRequest(requests=(r0, r1)))),
        ("POST", PREFIX + "/export", wire(KeyExportRequest(tenant="admin"))),
        ("POST", PREFIX + "/fetch", wire(FetchRequest(tenant="t", patient="p"))),
        ("POST", PREFIX + "/reencrypt", b"{broken json"),
        ("POST", PREFIX + "/grant", wire(r0)),  # wrong message type for endpoint
        ("POST", "/v1/nonsense", b"{}"),
        ("POST", PREFIX + "/revoke", wire(revoke_of(key0, "cc" * 16))),
        # key0 is not r0's delegation: revoking it must leave r0's cached
        # answer in place, so this is a cache hit on another delegation.
        ("POST", PREFIX + "/reencrypt", wire(r0)),
        ("POST", PREFIX + "/grant", wire(GrantRequest(tenant="t", proxy_key=key0))),
    ]


def transcript_stream(setting):
    """The golden transcript's requests: the op sequence, then a method
    the server does not implement (a stdlib-level rejection)."""
    return _op_sequence(setting) + [("PUT", "/v1/grant", b"{}")]


class _HttpExchanger:
    """Raw keep-alive HTTP exchanges: status, content type, trace echo
    and body."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=30.0)

    def __call__(self, method: str, path: str, body: bytes | None):
        headers = {"Content-Type": "application/json", TRACE_HEADER: TRANSCRIPT_TRACE}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if response.will_close:
            self.conn.close()  # the next request dials a fresh connection
        return (
            response.status,
            response.getheader("Content-Type"),
            response.getheader(TRACE_HEADER),
            data,
        )

    def close(self) -> None:
        self.conn.close()


class _MuxExchanger:
    """Raw request/response frames, one at a time, over one mux socket."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.reader = self.sock.makefile("rb")
        self.ids = itertools.count(1)
        self.sock.sendall(encode_frame(mux_hello()))
        self._read_frame()  # the server's hello

    def _read_frame(self) -> dict:
        header = self.reader.read(FRAME_HEADER_LEN)
        return decode_frame_payload(self.reader.read(frame_length(header)))

    def __call__(self, method: str, path: str, body: bytes | None):
        text = body.decode("utf-8") if body is not None else None
        request = mux_request(
            next(self.ids), method, path, text, {TRACE_HEADER: TRANSCRIPT_TRACE}
        )
        self.sock.sendall(encode_frame(request))
        document = self._read_frame()
        return (
            document["status"],
            document["content_type"],
            document.get("trace"),
            document["body"].encode("utf-8"),
        )

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def record_transcript(stack: str) -> list[dict]:
    """Replay :func:`transcript_stream` on a fresh twin served by ``stack``
    (one of :data:`STACKS`); every exchange becomes one transcript entry."""
    setting = _build()
    server = AsyncGatewayServer(setting.gateway, setting.group).start()
    exchanger = _MuxExchanger if stack == "mux" else _HttpExchanger
    exchange = exchanger(server.host, server.port)
    try:
        entries = []
        for method, path, body in transcript_stream(setting):
            status, content_type, trace, data = exchange(method, path, body)
            entries.append(
                {
                    "method": method,
                    "path": path,
                    "status": status,
                    "content_type": content_type,
                    "trace": trace,
                    "body": data.decode("utf-8"),
                }
            )
        return entries
    finally:
        exchange.close()
        server.close()
        setting.gateway.close()


@pytest.fixture()
def two_stacks():
    """HTTP and mux stacks over identical twins."""
    settings_ = [_build() for _ in range(2)]
    aio_http = AsyncGatewayServer(settings_[0].gateway, settings_[0].group).start()
    aio_mux = AsyncGatewayServer(settings_[1].gateway, settings_[1].group).start()
    clients = [
        RemoteGateway(aio_http.http_url, settings_[0].group),
        MuxRemoteGateway(aio_mux.url, settings_[1].group),
    ]
    try:
        yield settings_, clients
    finally:
        for client in clients:
            client.close()
        for server in (aio_http, aio_mux):
            server.close()
        for setting in settings_:
            setting.gateway.close()


class TestCrossStackConformance:
    def test_every_op_bit_identical_across_stacks(self):
        """Every stack replays the golden transcript byte for byte."""
        golden = json.loads(TRANSCRIPT_PATH.read_text(encoding="utf-8"))
        for stack in STACKS:
            assert record_transcript(stack) == golden, stack
        # Sanity: the script really exercised both outcomes.
        statuses = [entry["status"] for entry in golden]
        assert 200 in statuses and 400 in statuses
        assert 404 in statuses and 503 in statuses and 501 in statuses
        assert {entry["content_type"] for entry in golden} == {"application/json"}
        assert {entry["trace"] for entry in golden} == {TRANSCRIPT_TRACE}

    def test_resize_parity_across_stacks(self, two_stacks):
        """Resize moves identical keys everywhere; only timing may differ."""
        settings_, clients = two_stacks
        reports = []
        for setting, client in zip(settings_, clients):
            body = to_wire(
                setting.gateway.backend,
                ResizeRequest(tenant="admin", shard_count=5, request_id="bb" * 16),
            ).encode("utf-8")
            status, raw = client._raw_request("POST", PREFIX + "/resize", body)
            assert status == 200
            report = client._decode_round_trip(status, raw.decode("utf-8"), "/resize")
            reports.append(dataclasses.replace(report, elapsed_ms=0.0))
        assert reports[1] == reports[0]

    def test_mux_taxonomy_matches_reference(self, two_stacks):
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            request = _reencrypt_requests(setting, 1)[0]
            ciphertext = request.ciphertext
            revoked = client.revoke(
                RevokeRequest(
                    tenant=request.tenant,
                    delegator_domain=ciphertext.domain,
                    delegator=ciphertext.identity,
                    delegatee_domain=request.delegatee_domain,
                    delegatee=request.delegatee,
                    type_label=ciphertext.type_label,
                )
            )
            assert revoked.removed
            with pytest.raises(DelegationNotFoundError):
                client.reencrypt(request)
            with pytest.raises(StoreUnavailableError):
                client.fetch(FetchRequest(tenant="t", patient="p"))


class TestBatchStopsAtAFailingGroup:
    def test_groups_after_a_failing_group_are_not_transformed(self, two_stacks):
        """The second of three groups holds a proxy key outside G1: every
        stack answers invalid-request, keeps the first group's result and
        never computes the third's."""
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            first, second, third = _reencrypt_requests(setting, 3)
            key = next(
                key
                for key in setting.gateway.list_keys()
                if (key.delegator, key.delegatee, key.type_label)
                == (second.ciphertext.identity, second.delegatee, second.ciphertext.type_label)
            )
            params = setting.group.params
            outside = next(
                point
                for point in (params.curve.lift_x(x) for x in range(1, 1000))
                if point is not None and not params.is_in_subgroup(point)
            )
            bad_key = dataclasses.replace(key, rk_point=outside)
            client.grant(GrantRequest(tenant=second.tenant, proxy_key=bad_key))
            with pytest.raises(InvalidRequestError, match="outside G1"):
                client.reencrypt_batch([first, second, third])
            assert client.reencrypt(first).cache_hit
            assert not client.reencrypt(third).cache_hit


class TestRevocationThroughTheCache:
    """A revoke or re-grant reaches results already in the result cache."""

    @staticmethod
    def _revoke(client, request):
        ciphertext = request.ciphertext
        return client.revoke(
            RevokeRequest(
                tenant=request.tenant,
                delegator_domain=ciphertext.domain,
                delegator=ciphertext.identity,
                delegatee_domain=request.delegatee_domain,
                delegatee=request.delegatee,
                type_label=ciphertext.type_label,
            )
        )

    def test_revoked_delegation_is_refused_alone_and_in_a_batch(self, two_stacks):
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            request, other = _reencrypt_requests(setting)
            assert not client.reencrypt(request).cache_hit
            assert client.reencrypt(request).cache_hit
            client.reencrypt(other)
            assert self._revoke(client, request).removed
            with pytest.raises(DelegationNotFoundError):
                client.reencrypt(request)
            with pytest.raises(DelegationNotFoundError):
                client.reencrypt_batch([request])
            with pytest.raises(DelegationNotFoundError):
                client.reencrypt_batch([other, request])
            assert client.reencrypt(other).cache_hit  # another delegation's entry stays

    def test_regranting_another_key_never_replays_the_old_result(self, two_stacks):
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            request = _reencrypt_requests(setting, 1)[0]
            ciphertext = request.ciphertext
            (_pair, entries), *_rest = sorted(setting.pool.items())
            assert entries[0][0] == ciphertext
            message = entries[0][1]
            old = client.reencrypt(request).ciphertext
            assert client.reencrypt(request).cache_hit
            for step, revoke_first in enumerate((True, False)):
                if revoke_first:
                    self._revoke(client, request)
                key = setting.backend.rekey(
                    ciphertext.domain,
                    ciphertext.identity,
                    request.delegatee_domain,
                    request.delegatee,
                    ciphertext.type_label,
                    HmacDrbg("regrant-%d" % step),
                )
                client.grant(GrantRequest(tenant=request.tenant, proxy_key=key))
                expected = setting.backend.reencrypt(ciphertext, key)
                for responses in ([client.reencrypt(request)], client.reencrypt_batch([request])):
                    (response,) = responses
                    assert response.ciphertext == expected and response.ciphertext != old
                    assert setting.backend.decrypt_reencrypted(
                        response.ciphertext, request.delegatee_domain, request.delegatee
                    ) == message
                old = expected


def _undecodable_bodies(setting, good, bad):
    """``bad`` alone and ``[good, bad]`` as a batch, on the wire with
    ``bad``'s c1 replaced by an x off the curve; plus the 400 body the
    codec answered for such bytes when it decoded every request."""
    backend, group = setting.gateway.backend, setting.group
    message = json.loads(to_wire(backend, bad))
    envelope = message["body"]["ciphertext"]
    canonical = group.serialize_g1(bad.ciphertext.c1)
    off_curve = next(x for x in range(1, 1000) if group.params.curve.lift_x(x) is None)
    tampered = b"\x00" + off_curve.to_bytes(len(canonical) - 1, "big")
    envelope["payload"] = base64.b64encode(
        base64.b64decode(envelope["payload"]).replace(canonical, tampered)
    ).decode()
    items = [json.loads(to_wire(backend, good))["body"], message["body"]]
    batch = {**message, "type": "reencrypt-batch-request", "body": {"requests": items}}
    expected = {
        "body": {
            "code": "invalid-request",
            "message": "field 'ciphertext': x-coordinate is not on the curve",
        },
        "scheme": backend.scheme_id,
        "type": "error",
        "wire": "repro-gateway/v1",
    }
    return json.dumps(message), json.dumps(batch), expected


class TestCiphertextDecodedOnAMiss:
    def test_undecodable_c1_is_invalid_request_on_every_stack(self, two_stacks):
        """Decompressing c1 waits for a cache miss; failing there answers
        exactly what failing in the codec answered: 400 invalid-request."""
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            good, bad = _reencrypt_requests(setting)
            single, batch, expected = _undecodable_bodies(setting, good, bad)
            for body in (single, batch):
                status, raw = client._raw_request("POST", PREFIX + "/reencrypt", body.encode())
                assert (status, json.loads(raw)) == (400, expected)
            # The failed batch ran nothing: its good item is still a miss.
            assert setting.gateway.cache_stats()["result_cache"].size == 0
            assert not client.reencrypt(good).cache_hit

    def test_undecodable_c1_is_refused_before_the_rate_limit(self, two_stacks):
        """A miss decodes before admission, as the codec did: a tenant over
        its budget still gets 400 invalid-request for bytes that do not
        decode, and such bytes spend none of the budget."""
        settings_, clients = two_stacks
        for setting, client in zip(settings_, clients):
            good, bad = _reencrypt_requests(setting)
            assert good.tenant == bad.tenant
            single, batch, expected = _undecodable_bodies(setting, good, bad)
            setting.gateway.set_rate_limit(1e-6, burst=2.0)
            for body in (single, batch):
                status, raw = client._raw_request("POST", PREFIX + "/reencrypt", body.encode())
                assert (status, json.loads(raw)) == (400, expected)
            # The refusals spent nothing: the whole budget of two is left.
            assert not client.reencrypt(good).cache_hit
            assert client.reencrypt(good).cache_hit
            for body in (single, batch):  # over budget, good item cached
                status, raw = client._raw_request("POST", PREFIX + "/reencrypt", body.encode())
                assert (status, json.loads(raw)) == (400, expected)
            with pytest.raises(RateLimitedError):
                client.reencrypt(good)

    def test_decompressions_on_each_side_of_the_mux(self, mux_loopback, monkeypatch):
        """The server decompresses a request only on a miss; the client
        never decompresses its request's own c1 or a blind it decoded."""
        setting, _server, client = mux_loopback
        counts: collections.Counter = collections.Counter()
        caller = threading.get_ident()
        record = group_module.record_operation

        def counting(kind, amount=1):
            record(kind, amount)
            if kind == "g1_decompress":
                counts["client" if threading.get_ident() == caller else "server"] += amount

        monkeypatch.setattr(group_module, "record_operation", counting)
        request = _reencrypt_requests(setting, 1)[0]
        miss = client.reencrypt(request)
        assert not miss.cache_hit and counts == {"server": 1}
        miss.ciphertext.element  # c1 is the request's own; the blind is new
        assert counts == {"server": 1, "client": 1}
        counts.clear()
        hit = client.reencrypt(request)
        assert hit.cache_hit and hit.ciphertext.element == miss.ciphertext.element
        assert counts == {}
        ciphertext = request.ciphertext
        message = setting.backend.sample_message(HmacDrbg("fresh-message"))
        fresh = setting.backend.encrypt(
            ciphertext.domain, ciphertext.identity, message, ciphertext.type_label,
            HmacDrbg("fresh"),
        )
        other = client.reencrypt(dataclasses.replace(request, ciphertext=fresh))
        assert setting.backend.decrypt_reencrypted(
            other.ciphertext, request.delegatee_domain, request.delegatee
        ) == message
        assert not other.cache_hit and counts == {"server": 1}


# ------------------------------------------------------- HTTP/1.1 transports


def _raw_http_exchange(server, payload: bytes) -> tuple[bytes, bool]:
    """Send raw bytes to ``server``; return what came back and whether the
    server closed the connection (rather than leaving it idle open)."""
    sock = socket.create_connection((server.host, server.port), timeout=3.0)
    chunks = []
    try:
        sock.sendall(payload)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks), True
            chunks.append(chunk)
    except socket.timeout:
        return b"".join(chunks), False
    finally:
        sock.close()


def _parse_response(raw: bytes) -> tuple[int, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


# Request bytes ``http.server`` refuses, with the status and message it
# sends: the reader refuses them alike (TestHttpTransports), and
# TestStdlibReference checks each row against the stdlib itself.
_STDLIB_REFUSALS = [
    pytest.param(
        b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, "Request-URI Too Long",
        id="request-line-too-long",
    ),
    pytest.param(
        b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n",
        431,
        "Line too long",
        id="header-line-too-long",
    ),
    pytest.param(
        b"GET /v1/health HTTP/1.1\r\n"
        + b"".join(b"X-Pad-%d: x\r\n" % index for index in range(500)) + b"\r\n",
        431,
        "Too many headers",
        id="too-many-headers",
    ),
    pytest.param(
        b"GET /v1/health HTTP/3.0\r\n\r\n", 505, "Invalid HTTP version (3.0)", id="http-3.0"
    ),
    pytest.param(
        b"GET /v1/health FOO/1.1\r\n\r\n", 400, "Bad request version ('FOO/1.1')",
        id="not-http",
    ),
    pytest.param(
        b"GET /v1/health HTTP/1.1 x\r\n\r\n", 400, "Bad request version ('x')",
        id="four-words",
    ),
    pytest.param(
        b"GET / x HTTP/1.1\r\n\r\n", 400, "Bad request syntax ('GET / x HTTP/1.1')",
        id="four-words-versioned",
    ),
    pytest.param(b"BOGUS\r\n\r\n", 400, "Bad request syntax ('BOGUS')", id="one-word"),
    pytest.param(
        b"POST /v1/health\r\n\r\n", 400, "Bad HTTP/0.9 request type ('POST')",
        id="http-0.9-post",
    ),
]


@pytest.fixture(params=["aio-http"])
def http_server(request):
    setting = _build()
    with AsyncGatewayServer(setting.gateway, setting.group) as server:
        yield server
    setting.gateway.close()


class TestHttpTransports:
    """The HTTP reader follows the stdlib's HTTP semantics and limits, and
    every rejection carries the taxonomy body."""

    def _assert_taxonomy_rejection(self, raw: bytes, status: int) -> None:
        got, headers, body = _parse_response(raw)
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        document = json.loads(body)
        assert document["type"] == "error"
        assert document["body"]["code"] == "invalid-request"

    def test_http10_request_is_closed_after_the_response(self, http_server):
        raw, closed = _raw_http_exchange(http_server, b"GET /v1/health HTTP/1.0\r\n\r\n")
        status, _headers, body = _parse_response(raw)
        assert status == 200 and json.loads(body) == {"status": "ok"}
        assert closed, "an HTTP/1.0 connection without keep-alive must close"

    def test_http10_keep_alive_stays_open(self, http_server):
        """A second request on the same socket is answered."""
        request = b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        address = (http_server.host, http_server.port)
        with socket.create_connection(address, timeout=3.0) as sock:
            for _ in range(2):
                sock.sendall(request)
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ok"}

    def test_http09_get_is_answered_with_the_body_alone(self, http_server):
        """As ``http.server`` answers HTTP/0.9: no status line, no headers."""
        raw, closed = _raw_http_exchange(http_server, b"GET /v1/health\r\n\r\n")
        assert json.loads(raw) == {"status": "ok"}
        assert closed

    def test_too_many_headers_is_431_with_a_taxonomy_body(self, http_server):
        padding = b"".join(b"X-Pad-%d: x\r\n" % index for index in range(500))
        raw, closed = _raw_http_exchange(
            http_server, b"GET /v1/health HTTP/1.1\r\n" + padding + b"\r\n"
        )
        self._assert_taxonomy_rejection(raw, 431)
        assert closed

    def test_header_count_up_to_the_stdlib_cap_is_accepted(self, http_server):
        # http.client counts the blank line that ends the head toward its
        # 100-line cap, so 99 header lines is the most the reader takes.
        padding = b"".join(b"X-Pad-%d: x\r\n" % index for index in range(98))
        raw, _closed = _raw_http_exchange(
            http_server,
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n" + padding + b"\r\n",
        )
        assert _parse_response(raw)[0] == 200

    def test_malformed_request_line_is_400_with_a_taxonomy_body(self, http_server):
        raw, closed = _raw_http_exchange(http_server, b"BOGUS\r\n\r\n")
        self._assert_taxonomy_rejection(raw, 400)
        assert closed

    def test_leading_slashes_are_reduced_as_the_stdlib_does(self, http_server):
        """``http.server`` reduces a target's leading ``//`` to one slash,
        so ``//[`` names the unknown endpoint ``/[`` here too (this
        reader used to answer it 500)."""
        raw, _closed = _raw_http_exchange(
            http_server, b"GET //[ HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        status, _headers, body = _parse_response(raw)
        assert status == 404
        assert body == neutral_error_to_wire(
            InvalidRequestError("unknown endpoint '/['")
        ).encode("utf-8")

    @pytest.mark.parametrize(
        "length_lines",
        [
            b"Content-Length: +2\r\n",
            b"Content-Length: 0_2\r\n",
            b"Content-Length: 200\r\nContent-Length: 2\r\n",
            b"Content-Length: 2\r\nContent-Length: 2\r\n",
            b"Content-Length: \x0b2\r\n",
        ],
        ids=["plus-sign", "underscore", "differing-repeat", "equal-repeat", "vertical-tab"],
    )
    def test_content_length_is_digits_given_once(self, http_server, length_lines):
        """Anything but one ``1*DIGIT`` Content-Length is refused with the
        400 close before the body is read: a front proxy that framed the
        body otherwise (taking the first of two headers, say) would fall
        out of sync with this server."""
        raw, closed = _raw_http_exchange(
            http_server,
            b"POST " + PREFIX.encode() + b"/reencrypt HTTP/1.1\r\n" + length_lines
            + b"\r\n{}",
        )
        self._assert_taxonomy_rejection(raw, 400)
        assert _parse_response(raw)[2] == neutral_error_to_wire(
            InvalidRequestError("invalid Content-Length")
        ).encode("utf-8")
        assert closed

    @pytest.mark.parametrize(
        "length_line", [b"Content-Length: 2 \r\n", b"Content-Length:\t2\r\n"],
        ids=["trailing-space", "leading-tab"],
    )
    def test_content_length_may_carry_optional_whitespace(self, http_server, length_line):
        raw, _closed = _raw_http_exchange(
            http_server,
            b"POST " + PREFIX.encode() + b"/reencrypt HTTP/1.1\r\nConnection: close\r\n"
            + length_line + b"\r\n{}",
        )
        status, _headers, body = _parse_response(raw)
        # The two-byte body was read and refused for what it is.
        assert status == 400 and b"wire format" in body

    @pytest.mark.parametrize("request_bytes, status, message", _STDLIB_REFUSALS)
    def test_refusals_match_the_stdlib(self, http_server, request_bytes, status, message):
        """The reader refuses what ``http.server`` refuses, with its status
        and message in the taxonomy body, and closes the connection."""
        raw, closed = _raw_http_exchange(http_server, request_bytes)
        self._assert_taxonomy_rejection(raw, status)
        assert _parse_response(raw)[2] == neutral_error_to_wire(
            InvalidRequestError(message)
        ).encode("utf-8")
        assert closed
        events = http_server.event_log.tail()
        assert not [e for e in events if e["kind"] == "connection-error"]


    @pytest.mark.parametrize(
        "head_lines, message",
        [
            (b"Content-Length : 2\r\n", "invalid header name 'Content-Length '"),
            (b"X-A: b\r\n Content-Length: 2\r\n", "obsolete line folding in the request head"),
            (b"X-A: b\r\n\tContent-Length: 2\r\n", "obsolete line folding in the request head"),
            (b"X(A): b\r\nContent-Length: 2\r\n", "invalid header name 'X(A)'"),
            (b"Content-Length 2\r\n", "header line without a colon"),
            (b"X-A: b\rContent-Length: 2\r\n", "invalid X-A"),
            (b"X-A: b\x00\r\nContent-Length: 2\r\n", "invalid X-A"),
            (b"X-A: \x1b[0m\r\nContent-Length: 2\r\n", "invalid X-A"),
        ],
        ids=[
            "space-before-colon", "obs-fold-space", "obs-fold-tab", "name-not-a-token",
            "no-colon", "bare-cr", "nul", "escape",
        ],
    )
    def test_ambiguous_header_lines_are_refused(self, http_server, head_lines, message):
        """A header line that another reader could split differently
        (RFC 9112 sections 2.2, 5.1 and 5.2; RFC 9110 section 5.5) is
        refused with the 400 close: the ``{}`` body and the pipelined GET
        behind it are never read, whatever a front proxy made of them."""
        raw, closed = _raw_http_exchange(
            http_server,
            b"POST " + PREFIX.encode() + b"/reencrypt HTTP/1.1\r\n" + head_lines
            + b"\r\n{}GET /v1/health HTTP/1.1\r\n\r\n",
        )
        self._assert_taxonomy_rejection(raw, 400)
        assert _parse_response(raw)[2] == neutral_error_to_wire(
            InvalidRequestError(message)
        ).encode("utf-8")
        assert closed


    def test_a_head_cut_before_its_blank_line_is_not_answered(self, http_server):
        """A peer that closes inside the head sent no whole request."""
        for cut in (b"GET /v1/health HTTP/1.1", b"GET /v1/health HTTP/1.1\r\nX-A: b"):
            assert _http_stream(http_server, cut) == b""

    def test_methods_are_case_sensitive(self, http_server):
        """RFC 9110 section 9.1: ``get`` is not ``GET``, so it is an
        unsupported method, as a front proxy would take it."""
        raw, closed = _raw_http_exchange(http_server, b"get /v1/health HTTP/1.1\r\n\r\n")
        self._assert_taxonomy_rejection(raw, 501)
        assert closed


class _StdlibReader(http.server.BaseHTTPRequestHandler):
    """``http.server``'s request reader over in-memory bytes, with no
    socket or server: it records the refusal the stdlib would send, or
    the request it would hand to ``do_GET``."""

    protocol_version = "HTTP/1.1"  # as a keep-alive server reads

    def __init__(self, raw: bytes):  # noqa: D107 - no socket to set up
        self.rfile = io.BytesIO(raw)
        self.wfile = io.BytesIO()  # stays empty: do_GET writes nothing
        self.refusal: tuple[int, str] | None = None
        self.answered = False
        self.handle_one_request()

    def send_error(self, code, message=None, explain=None):
        self.refusal = (int(code), message or self.responses[code][0])

    def do_GET(self):
        self.answered = True


class TestStdlibReference:
    """What TestHttpTransports pins as ``http.server``'s behaviour is
    ``http.server``'s: the same request bytes, read by the stdlib's own
    reader, meet the same refusal or the same parse."""

    @pytest.mark.parametrize("request_bytes, status, message", _STDLIB_REFUSALS)
    def test_the_stdlib_refuses_alike(self, request_bytes, status, message):
        reader = _StdlibReader(request_bytes)
        assert reader.refusal == (status, message)
        assert not reader.answered

    def test_the_stdlib_reads_a_two_word_get_as_http09(self):
        reader = _StdlibReader(b"GET /v1/health\r\n\r\n")
        assert reader.answered and reader.refusal is None
        assert reader.request_version == "HTTP/0.9"
        assert reader.close_connection

    @pytest.mark.parametrize(
        "head_lines, closes",
        [(b"", True), (b"Connection: keep-alive\r\n", False)],
        ids=["plain", "keep-alive"],
    )
    def test_the_stdlib_keeps_http10_open_only_when_asked(self, head_lines, closes):
        reader = _StdlibReader(b"GET /v1/health HTTP/1.0\r\n" + head_lines + b"\r\n")
        assert reader.answered
        assert reader.close_connection is closes

    def test_the_stdlib_reduces_leading_slashes(self):
        reader = _StdlibReader(b"GET //[ HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert reader.answered and reader.path == "/["

    def test_the_stdlib_takes_99_header_lines(self):
        padding = b"".join(b"X-Pad-%d: x\r\n" % index for index in range(98))
        reader = _StdlibReader(
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n" + padding + b"\r\n"
        )
        assert reader.answered and reader.refusal is None
        reader = _StdlibReader(
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n" + padding
            + b"X-Pad-98: x\r\n\r\n"
        )
        assert reader.refusal == (431, "Too many headers")

    def test_the_stdlib_reads_methods_case_sensitively(self):
        reader = _StdlibReader(b"get /v1/health HTTP/1.1\r\n\r\n")
        assert reader.refusal is not None and reader.refusal[0] == 501
        assert not reader.answered


# ----------------------------------------------------------- HTTP reader fuzz

# The request the fuzzer pipelines after the generated ones; no generated
# request names this target, so its answer is told apart from theirs.
_PIPELINED = b"GET /v1/schemes HTTP/1.1\r\n\r\n"
_TCHARS = b"!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_DELIMITERS = b'"(),/;<=>?@[\\]{}'  # RFC 9110 section 5.6.2, less the colon
_CONTROLS = bytes(range(0x00, 0x09)) + bytes(range(0x0B, 0x0D)) + bytes(range(0x0E, 0x20)) + b"\x7f"
_TOKEN = st.binary(min_size=1, max_size=12).map(
    lambda raw: bytes(_TCHARS[byte % len(_TCHARS)] for byte in raw)
).filter(lambda name: name.lower() not in (b"content-length", b"transfer-encoding", b"connection"))
# A field value: visible ASCII, obs-text, inner SP and HTAB.
_VALUE = st.binary(max_size=24).map(
    lambda raw: bytes(0x21 + byte % 0x5E if byte < 0xC0 else byte for byte in raw)
) | st.sampled_from([b"a b", b"a\tb", b"\x80\xff"])
_OWS = st.sampled_from([b"", b" ", b"\t", b"  "])


@dataclasses.dataclass
class _Request:
    """Generated request bytes and what the reader must make of them:
    ``refused`` is the status of its refusal (None: framed and
    answered), ``keeps`` whether the connection then stays open."""

    data: bytes
    refused: int | None
    keeps: bool


@st.composite
def _clean_field(draw) -> bytes:
    return draw(_TOKEN) + b":" + draw(_OWS) + draw(_VALUE) + draw(_OWS)


@st.composite
def _hostile_field(draw) -> tuple[bytes, int]:
    """A header line the reader must refuse, and the refusal's status."""
    name, value = draw(_TOKEN), draw(_VALUE)
    kind = draw(st.sampled_from(
        ["space-before-colon", "obs-fold", "bare-cr", "control", "no-colon",
         "not-a-token", "too-long"]
    ))
    if kind == "space-before-colon":
        return name + draw(st.sampled_from([b" ", b"\t", b" \t"])) + b": " + value, 400
    if kind == "obs-fold":
        return draw(st.sampled_from([b" ", b"\t"])) + draw(_clean_field()), 400
    if kind == "bare-cr":
        return name + b": " + value + b"\r" + draw(_clean_field()), 400
    if kind == "control":
        control = draw(st.sampled_from(list(_CONTROLS))).to_bytes(1, "big")
        return name + b": " + value + control + draw(_VALUE), 400
    if kind == "no-colon":
        return name + draw(st.sampled_from([b"", b" ", b" x"])), 400
    if kind == "not-a-token":
        delimiter = draw(st.sampled_from(list(_DELIMITERS))).to_bytes(1, "big")
        cut = draw(st.integers(0, len(name)))
        return name[:cut] + delimiter + name[cut:] + b": " + value, 400
    return name + b": " + b"a" * 65536, 431


@st.composite
def _request(draw) -> _Request:
    """One request: a known request line, clean and hostile header lines,
    and a body framed by Content-Length, or framed wrongly."""
    method, version = draw(st.sampled_from(
        [(b"GET", b"HTTP/1.1"), (b"POST", b"HTTP/1.1"), (b"PUT", b"HTTP/1.1"),
         (b"get", b"HTTP/1.1"), (b"GET", b"HTTP/1.0")]
    ))
    target = draw(st.sampled_from(
        [b"/v1/health", PREFIX.encode() + b"/reencrypt", b"//[", b"/v1/nonsense"]
    ))
    refused: int | None = None
    line = method + b" " + target + b" " + version
    broken_line = draw(st.sampled_from(
        [None, None, None, (b"BOGUS", 400), (b"GET / x HTTP/1.1", 400),
         (b"GET /v1/health HTTP/3.0", 505), (b"GET /v1/health HTTP/1.1.1", 400),
         (b"POST /v1/health", 400), (b"GET /" + b"a" * 65536 + b" HTTP/1.1", 414)]
    ))
    if broken_line is not None:
        line, refused = broken_line
    fields = draw(st.lists(_clean_field(), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        hostile, status = draw(_hostile_field())
        fields.insert(draw(st.integers(0, len(fields))), hostile)
        refused = refused or status
    body = draw(st.binary(max_size=16))
    length = draw(st.sampled_from(
        ["exact", "exact", "exact", "absent", "sign", "twice", "too-large", "chunked"]
    ))
    if length == "absent":
        body = b""
    elif length == "exact":
        fields.append(b"Content-Length:" + draw(_OWS) + b"%d" % len(body))
    elif length == "sign":
        fields.append(b"Content-Length: +%d" % len(body))
        refused = refused or 400
    elif length == "twice":
        fields += [b"Content-Length: %d" % len(body)] * 2
        refused = refused or 400
    elif length == "too-large":
        fields.append(b"Content-Length: %d" % (MAX_BODY_BYTES + draw(st.integers(1, 2**40))))
        refused = refused or 400
    else:
        fields.append(b"Transfer-Encoding: chunked")
        refused = refused or 400
    closing = draw(st.sampled_from([None, None, b"close", b"keep-alive"]))
    if closing is not None:
        fields.append(b"Connection: " + closing)
    head = b"\r\n".join([line, *fields]) + b"\r\n\r\n"
    keeps = (
        refused is None
        and method in (b"GET", b"POST")  # others are answered 501 and closed
        and (closing == b"keep-alive" if version == b"HTTP/1.0" else closing != b"close")
    )
    return _Request(head + body, refused, keeps)


def _responses(raw: bytes) -> list[tuple[int, dict, bytes]]:
    """Every HTTP/1.1 response in ``raw``, each framed by its Content-Length."""
    responses, offset = [], 0
    while offset < len(raw):
        end = raw.index(b"\r\n\r\n", offset) + 4
        status, headers, _ = _parse_response(raw[offset:end])
        length = int(headers["content-length"])
        responses.append((status, headers, raw[end : end + length]))
        offset = end + length
    return responses


def _http_stream(server, stream: bytes) -> bytes:
    """Send ``stream`` and half-close; everything the server sent back
    before it closed the connection."""
    sock = socket.create_connection((server.host, server.port), timeout=FRAME_TIMEOUT_S)
    chunks = []
    try:
        sock.sendall(stream)
        sock.shutdown(socket.SHUT_WR)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the server closed with unread bytes on the socket
    finally:
        sock.close()
    return b"".join(chunks)


class TestHttpRequestBytes:
    """Generated HTTP/1.1 request streams: known good and bad request
    lines, clean header lines beside whitespace before a colon, folded
    lines, bare CRs, control octets, names that are no token and
    over-long lines, Content-Length against the body cap, and requests
    pipelined behind each other.  Every answer is a closed-taxonomy
    error or a success, never a 500; every refusal closes the
    connection; a pipelined request is answered exactly when every
    request before it was framed as it was generated and kept the
    connection; the server never hangs or logs a connection error, and
    a fresh connection is still served."""

    def test_request_streams_are_framed_exactly_or_refused(self):
        setting = _build()
        events = []
        log = EventLog(sink=events.append)
        with AsyncGatewayServer(setting.gateway, setting.group, event_log=log) as server:

            @settings(max_examples=100, deadline=None)
            # At most one over-long line, so the stream fits the socket
            # buffers whole before the server refuses it.
            @given(
                requests=st.lists(_request(), min_size=1, max_size=3).filter(
                    lambda requests: sum(len(r.data) for r in requests) < 100_000
                )
            )
            def check(requests):
                stream = b"".join(request.data for request in requests) + _PIPELINED
                answers = _responses(_http_stream(server, stream))
                expected = []
                for request in requests:
                    expected.append(request)
                    if not request.keeps:
                        break
                else:
                    expected.append(None)  # the pipelined request
                assert len(answers) == len(expected)
                for request, (status, headers, body) in zip(expected, answers):
                    if request is None:
                        assert status == 200 and b'"schemes"' in body
                        continue
                    assert status != 500
                    if status != 200:
                        document = json.loads(body)
                        assert document["type"] == "error"
                        assert document["body"]["code"] in ERROR_TYPES
                    if request.refused is not None:
                        assert status == request.refused
                        assert headers["connection"] == "close"

            check()
            health = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            try:
                health.request("GET", "/v1/health")
                assert health.getresponse().status == 200
            finally:
                health.close()
        setting.gateway.close()
        assert not [e for e in events if e["kind"] == "connection-error"]

    def test_a_refusal_with_bytes_still_unread_closes_without_a_reset(self, http_server):
        """RFC 9112 section 9.6: a request refused at its request line,
        with a 90 KB header behind it that the server never reads as a
        request, is answered 400 and then closed cleanly (EOF), never
        with a reset that could destroy the answer.  The client
        half-closes once it has sent everything, as the fuzzer does."""
        stream = (
            b"POST /v1/health\r\nX-Pad: " + b"a" * 90_000 + b"\r\n\r\n" + _PIPELINED
        )
        for _ in range(40):
            sock = socket.create_connection(
                (http_server.host, http_server.port), timeout=FRAME_TIMEOUT_S
            )
            try:
                sock.sendall(stream)
                sock.shutdown(socket.SHUT_WR)
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            finally:
                sock.close()
            ((status, headers, _body),) = _responses(b"".join(chunks))
            assert status == 400 and headers["connection"] == "close"


# ----------------------------------------------------------- typed mux client


@pytest.fixture()
def mux_loopback():
    setting = _build()
    with AsyncGatewayServer(setting.gateway, setting.group) as server:
        client = MuxRemoteGateway(server.url, setting.group)
        try:
            yield setting, server, client
        finally:
            client.close()
    setting.gateway.close()


class TestMuxTypedClient:
    def test_reencrypt_bit_identical_to_in_process(self, mux_loopback):
        setting, _server, client = mux_loopback
        group, gateway = setting.group, setting.gateway
        for request in _reencrypt_requests(setting):
            wire = client.reencrypt(request)
            local = gateway.reencrypt(request)
            assert serialize_reencrypted(group, wire.ciphertext) == serialize_reencrypted(
                group, local.ciphertext
            )
            assert wire.shard == local.shard

    def test_batch_preserves_order(self, mux_loopback):
        setting, _server, client = mux_loopback
        requests = _reencrypt_requests(setting)
        wire = client.reencrypt_batch(requests)
        local = setting.gateway.reencrypt_batch(requests)
        assert [r.ciphertext for r in wire] == [r.ciphertext for r in local]

    def test_decrypted_plaintext_survives_the_mux(self, mux_loopback):
        setting, _server, client = mux_loopback
        (patient, _type_label), entries = sorted(setting.pool.items())[0]
        ciphertext, message = entries[0]
        delegatee = setting.delegatees[0]
        response = client.reencrypt(
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN,
                delegatee=delegatee,
            )
        )
        recovered = setting.backend.decrypt_reencrypted(
            response.ciphertext, setting.delegatee_domain, delegatee
        )
        assert recovered == message

    def test_driver_runs_unchanged_over_mux(self, mux_loopback):
        setting, _server, client = mux_loopback
        verified = drive_requests(
            setting, 16, seed="mux-drive", batch_size=4, gateway=client
        )
        assert verified > 0

    def test_observability_surface_over_mux(self, mux_loopback):
        setting, _server, client = mux_loopback
        client.reencrypt(_reencrypt_requests(setting, 1)[0])
        trace_id = client.last_trace.trace_id
        assert client.snapshot().served >= 1
        text = client.metrics_text()
        assert "repro_wire_connections_open" in text
        assert "repro_wire_streams_in_flight" in text
        events = client.events_tail(2)
        assert len(events) == 2
        spans = client.fetch_trace(trace_id)
        assert any(span.name == "http:reencrypt" for span in spans)

    def test_rate_limit_maps_through_mux(self, mux_loopback):
        setting, _server, client = mux_loopback
        setting.gateway.set_rate_limit(1.0, burst=1.0)
        try:
            with pytest.raises(RateLimitedError):
                for _ in range(5):
                    client.reencrypt(_reencrypt_requests(setting, 1)[0])
        finally:
            setting.gateway.set_rate_limit(None)

    def test_resize_and_export_over_mux(self, mux_loopback):
        setting, _server, client = mux_loopback
        total = setting.gateway.key_count()
        report = client.resize(5)
        assert report.new_shard_count == 5
        assert setting.gateway.key_count() == total
        assert len(client.list_keys()) == total

    def test_close_ends_the_connection_at_once(self, mux_loopback):
        """close() wakes the reader thread and the server sees the FIN."""
        _setting, server, client = mux_loopback
        before = set(threading.enumerate())
        client.snapshot()
        assert server.stats.snapshot().connections_open == 1
        time.sleep(0.1)  # the reader thread is blocked in recv again
        start = time.monotonic()
        client.close()
        assert time.monotonic() - start < 0.5
        readers = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("mux-reader-") and thread not in before
        ]
        assert readers == []
        deadline = time.monotonic() + 5.0
        while server.stats.snapshot().connections_open:
            assert time.monotonic() < deadline, "the server still holds the connection"
            time.sleep(0.01)

    def test_unreachable_mux_server_is_wire_transport_error(self, group):
        client = MuxRemoteGateway("mux://127.0.0.1:9", group, timeout=0.5)
        with pytest.raises(WireTransportError):
            client.snapshot()
        client.close()

    def test_url_validation(self, group):
        with pytest.raises(ValueError, match="mux"):
            MuxRemoteGateway("http://127.0.0.1:80", group)
        with pytest.raises(ValueError, match="explicit port"):
            MuxRemoteGateway("mux://127.0.0.1", group)


class TestConnectGateway:
    def test_url_scheme_dispatch(self, group):
        mux = connect_gateway("mux://127.0.0.1:9", group, pool_size=8)
        assert isinstance(mux, MuxRemoteGateway)
        pooled = connect_gateway("http://127.0.0.1:9", group, pool_size=8)
        assert isinstance(pooled, RemoteGateway)
        assert not isinstance(pooled, MuxRemoteGateway)
        assert pooled.pool_size == 8
        with pytest.raises(ValueError):
            connect_gateway("ftp://127.0.0.1:9", group)


# ------------------------------------------------------- deeply nested JSON

# Past the json module's recursion limit: json.loads raises RecursionError.
NESTED = b"[" * 1000


def _raw_frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestDeeplyNestedJson:
    """Each JSON parser facing the network turns nesting too deep to parse
    into its own rejection, never a 500, a traceback or a dead thread."""

    def test_nested_body_is_invalid_request_on_every_stack(self, two_stacks):
        _settings, clients = two_stacks
        for client in clients:
            status, body = client._raw_request("POST", PREFIX + "/reencrypt", NESTED)
            assert status == 400, client
            assert json.loads(body)["body"]["code"] == "invalid-request", client

    def test_nested_frame_closes_the_connection_as_a_frame_error(self):
        setting = _build()
        events = EventLog()
        with AsyncGatewayServer(setting.gateway, setting.group, event_log=events) as server:
            exchange = _MuxExchanger(server.host, server.port)
            try:
                exchange.sock.sendall(_raw_frame(NESTED))
                assert exchange.reader.read() == b""  # closed without an answer
            finally:
                exchange.close()
        setting.gateway.close()
        errors = [e for e in events.tail() if e["kind"] == "connection-error"]
        assert errors and errors[-1].get("error_type") == "FrameProtocolError"

    def test_nested_negotiation_body_is_a_transport_error(self, group):
        client = RemoteGateway("http://127.0.0.1:9", group, negotiate=False)
        with pytest.raises(WireTransportError, match="undecodable"):
            client._parse_json(NESTED, "/v1/schemes")

    def test_mux_client_fails_fast_on_a_nested_response_frame(self, group):
        """The client's reader fails the connection at once instead of
        dying and leaving the caller to wait out its timeout."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve() -> None:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed
                with conn, conn.makefile("rb") as reader:
                    for reply in (encode_frame(mux_hello()), _raw_frame(NESTED)):
                        header = reader.read(FRAME_HEADER_LEN)
                        if len(header) < FRAME_HEADER_LEN:
                            break
                        reader.read(frame_length(header))
                        conn.sendall(reply)
                    reader.read()  # until the client hangs up

        threading.Thread(target=serve, daemon=True).start()
        client = MuxRemoteGateway(
            "mux://127.0.0.1:%d" % listener.getsockname()[1],
            group,
            timeout=5.0,
            negotiate=False,
            trace_requests=False,
        )
        try:
            started = time.monotonic()
            with pytest.raises(WireTransportError):
                client._raw_request("GET", "/v1/health", None)
            assert time.monotonic() - started < 2.5
        finally:
            client.close()
            listener.close()


class TestHostileJsonValues:
    """A message ``type`` that is not a string, and an integer longer than
    the interpreter converts, are refused like any malformed input: never
    a 500 or a traceback."""

    UNHASHABLE_TYPE = b'{"wire": "repro-gateway/v1", "type": [], "body": {}}'

    def test_hostile_bodies_are_invalid_request_on_every_stack(self, two_stacks,
                                                              long_integer):
        _settings, clients = two_stacks
        long_body = b'{"wire": "repro-gateway/v1", "type": "grant-request", "body": %s}' % (
            long_integer.encode("ascii")
        )
        for client in clients:
            for body in (self.UNHASHABLE_TYPE, long_body):
                status, raw = client._raw_request("POST", "/v1/grant", body)
                assert status == 400, (client, body[:60])
                assert json.loads(raw)["body"]["code"] == "invalid-request", client

    def test_long_integer_frame_payload_is_a_frame_error(self, long_integer):
        with pytest.raises(FrameProtocolError, match="malformed frame payload"):
            decode_frame_payload(b'{"type": "request", "id": %s}' % long_integer.encode("ascii"))

    def test_long_integer_frame_closes_the_connection_as_a_frame_error(self, long_integer):
        setting = _build()
        events = EventLog()
        with AsyncGatewayServer(setting.gateway, setting.group, event_log=events) as server:
            exchange = _MuxExchanger(server.host, server.port)
            try:
                exchange.sock.sendall(_raw_frame(b'{"id": %s}' % long_integer.encode("ascii")))
                assert exchange.reader.read() == b""  # closed without an answer
            finally:
                exchange.close()
        setting.gateway.close()
        errors = [e for e in events.tail() if e["kind"] == "connection-error"]
        assert errors and errors[-1].get("error_type") == "FrameProtocolError"


# ------------------------------------------------------- mux request frames

# Any JSON value, lone surrogates in strings included (a JSON "\ud800"
# escape decodes to one).
_JSON_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff"), max_size=12
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_JSON_TEXT, children, max_size=3),
    max_leaves=8,
)
_REQUEST_FRAMES = st.fixed_dictionaries(
    {"type": st.just("request")},
    optional={
        "id": st.integers() | _JSON_VALUES,
        "method": st.sampled_from(["GET", "POST"]) | _JSON_VALUES,
        "path": st.sampled_from(
            ["/v1/health", "/v1/metrics", PREFIX + "/reencrypt", PREFIX + "/grant"]
        )
        | _JSON_VALUES,
        "body": _JSON_TEXT | _JSON_VALUES.map(json.dumps) | _JSON_VALUES,
        "headers": st.dictionaries(
            st.sampled_from([TRACE_HEADER, "Content-Type"]) | _JSON_TEXT, _JSON_VALUES
        )
        | _JSON_VALUES,
    },
)
FRAME_TIMEOUT_S = 5.0


def _answer_or_close(server, document: dict) -> dict | None:
    """Send one request frame on a fresh mux connection; return the
    server's answer, or None if the server closed the connection."""
    exchange = _MuxExchanger(server.host, server.port)
    exchange.sock.settimeout(FRAME_TIMEOUT_S)
    try:
        exchange.sock.sendall(encode_frame(document))
        header = exchange.reader.read(FRAME_HEADER_LEN)
        if not header:
            return None
        return decode_frame_payload(exchange.reader.read(frame_length(header)))
    finally:
        exchange.close()


class TestMuxRequestFrames:
    """Every request frame gets its response frame or a closed connection,
    never silence on an open one."""

    @pytest.mark.parametrize("headers", [["x"], "abc", 7])
    def test_non_object_headers_close_the_connection_as_a_frame_error(self, headers):
        setting = _build()
        events = EventLog()
        with AsyncGatewayServer(setting.gateway, setting.group, event_log=events) as server:
            document = mux_request(2, "GET", "/v1/health")
            assert _answer_or_close(server, document)["status"] == 200
            assert _answer_or_close(server, dict(document, headers=headers)) is None
            assert _answer_or_close(server, document)["status"] == 200
        setting.gateway.close()
        errors = [e for e in events.tail() if e["kind"] == "connection-error"]
        assert errors and errors[-1].get("error_type") == "FrameProtocolError"

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unsplittable_target_is_an_unknown_endpoint(self, method):
        """``urlsplit`` refuses ``//[`` (no IPv6 address): a 404 with the
        taxonomy body, where it used to be a 500."""
        setting = _build()
        with AsyncGatewayServer(setting.gateway, setting.group) as server:
            answer = _answer_or_close(server, mux_request(4, method, "//[", "{}"))
        setting.gateway.close()
        assert answer["status"] == 404
        assert answer["body"] == neutral_error_to_wire(
            InvalidRequestError("unknown endpoint '//['")
        )

    def test_lone_surrogate_body_is_invalid_request(self):
        """A JSON body string no UTF-8 can carry is refused like any
        undecodable body, not left unanswered."""
        setting = _build()
        with AsyncGatewayServer(setting.gateway, setting.group) as server:
            answer = _answer_or_close(
                server, mux_request(3, "POST", PREFIX + "/reencrypt", "\ud800")
            )
        setting.gateway.close()
        assert answer["id"] == 3 and answer["status"] == 400
        assert json.loads(answer["body"])["body"]["code"] == "invalid-request"

    def test_arbitrary_request_frames_are_answered_or_closed(self):
        setting = _build()
        with AsyncGatewayServer(setting.gateway, setting.group) as server:

            @settings(max_examples=80, deadline=None)
            @given(document=_REQUEST_FRAMES)
            def check(document):
                answer = _answer_or_close(server, document)
                if answer is not None:
                    assert answer["type"] == "response"
                    assert answer["id"] == document["id"]

            check()
            health = _answer_or_close(server, mux_request(1, "GET", "/v1/health"))
            assert health["status"] == 200
        setting.gateway.close()


# -------------------------------------------------------- raw frame bytes

# Frame payloads: random bytes, text that is mostly not JSON, JSON that
# is not an object, and request documents of every shape.
_FRAME_PAYLOADS = (
    st.binary(max_size=48)
    | _JSON_TEXT.map(lambda text: text.encode("utf-8", "surrogatepass"))
    | _JSON_VALUES.filter(lambda value: not isinstance(value, dict)).map(
        lambda value: json.dumps(value).encode("utf-8")
    )
    | _REQUEST_FRAMES.map(lambda document: json.dumps(document).encode("utf-8"))
)
_FRAME_CHUNKS = (
    _FRAME_PAYLOADS.map(_raw_frame)
    # A frame cut anywhere: inside its length prefix or its payload.
    | st.tuples(_FRAME_PAYLOADS.map(_raw_frame), st.integers(0, 60)).map(
        lambda cut: cut[0][: cut[1]]
    )
    | st.binary(min_size=1, max_size=32)
    # A length at or above 2**24, past the cap the first octet enforces.
    | st.integers(2**24, 2**32 - 1).map(lambda length: struct.pack(">I", length))
)


def _request_frames_ahead_of_a_fault(stream: bytes) -> list[dict]:
    """The complete, well-formed request frames at the head of ``stream``,
    up to its first broken or truncated frame."""
    documents, offset = [], 0
    while len(stream) - offset >= FRAME_HEADER_LEN:
        try:
            length = frame_length(stream[offset:offset + FRAME_HEADER_LEN])
            payload = stream[offset + FRAME_HEADER_LEN:offset + FRAME_HEADER_LEN + length]
            if len(payload) < length:
                break
            document = decode_frame_payload(payload)
        except FrameProtocolError:
            break
        offset += FRAME_HEADER_LEN + length
        if document.get("type") != "request" or not isinstance(document.get("id"), int):
            break
        if not isinstance(document.get("headers") or {}, dict):
            break
        documents.append(document)
    return documents


def _frames_after_hello(server, stream: bytes) -> list[dict]:
    """Send ``stream`` after a valid hello and half-close; every frame the
    server sent back before it closed the connection."""
    exchange = _MuxExchanger(server.host, server.port)
    exchange.sock.settimeout(FRAME_TIMEOUT_S)
    try:
        exchange.sock.sendall(stream)
        exchange.sock.shutdown(socket.SHUT_WR)
        received = exchange.reader.read()  # to EOF: the server must close
    finally:
        exchange.close()
    frames, offset = [], 0
    while offset < len(received):
        length = frame_length(received[offset:offset + FRAME_HEADER_LEN])
        frames.append(decode_frame_payload(
            received[offset + FRAME_HEADER_LEN:offset + FRAME_HEADER_LEN + length]
        ))
        offset += FRAME_HEADER_LEN + length
    return frames


class TestMuxFrameBytes:
    """Arbitrary bytes after a valid hello: random bytes, truncated
    prefixes and payloads, lengths at or above 2**24, payloads that are
    not JSON or not an object, request frames of every shape.  Every
    complete request frame ahead of the first broken one that runs on
    the loop is answered, the connection then closes within the timeout,
    no connection error carries a traceback, and a fresh connection is
    still served.  Engine calls run on the event loop, so a frame that
    stalled one would stall every connection."""

    def test_arbitrary_frame_bytes_are_answered_or_closed(self):
        setting = _build()
        events = []
        log = EventLog(sink=events.append)
        with AsyncGatewayServer(setting.gateway, setting.group, event_log=log) as server:

            @settings(max_examples=100, deadline=None)
            @given(chunks=st.lists(_FRAME_CHUNKS, min_size=1, max_size=4))
            @example(chunks=[_raw_frame(json.dumps(mux_request(1, "GET", "//[")).encode())])
            def check(chunks):
                stream = b"".join(chunks)
                requests = [
                    _mux_request(document)
                    for document in _request_frames_ahead_of_a_fault(stream)
                ]
                answers = _frames_after_hello(server, stream)
                assert all(answer["type"] == "response" for answer in answers)
                assert all(answer["status"] != 500 for answer in answers)
                answered = collections.Counter(answer["id"] for answer in answers)
                sent = collections.Counter(request[0] for request in requests)
                inline = collections.Counter(
                    request[0]
                    for request in requests
                    if server.engine.placement(*request[1:4])[0]
                )
                assert not answered - sent
                assert not inline - answered

            check()
            health = _answer_or_close(server, mux_request(1, "GET", "/v1/health"))
            assert health["status"] == 200
        setting.gateway.close()
        assert not [e for e in events if e["kind"] == "connection-error" and "traceback" in e]


# ------------------------------------------------------------------ placement


def _record_handle_threads(server) -> list:
    """Wrap the server's ``engine.handle``; the list gets each call's thread."""
    threads = []
    handle = server.engine.handle

    def recording(*args):
        threads.append(threading.current_thread())
        return handle(*args)

    server.engine.handle = recording
    return threads


def _batch_reads(setting) -> list:
    """``(request, message)`` for every record and doctor of a setting."""
    return [
        (ReEncryptRequest(patient, ciphertext, DELEGATEE_DOMAIN, delegatee), message)
        for (patient, _type_label), entries in sorted(setting.pool.items())
        for ciphertext, message in entries
        for delegatee in setting.delegatees
    ]


class _Forwarding:
    """A gateway that forwards, as a fleet router does.  Its first
    re-encryption blocks until ``release`` is set."""

    forwards = True

    def __init__(self, gateway):
        self._gateway = gateway
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._gateway, name)

    def reencrypt(self, request, **kwargs):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(10.0)
        return self._gateway.reencrypt(request, **kwargs)


class TestPlacement:
    """Single requests and GETs run on the event loop; batches and calls
    to a forwarding gateway run on the worker pool, where they overlap
    with the loop's work."""

    def test_placement_rule(self, mux_loopback):
        setting, server, _client = mux_loopback
        single, other = _reencrypt_requests(setting, 2)
        key = _first_keys(setting.gateway, 1)[0]
        bodies = {
            "single": to_wire(setting.backend, single).encode(),
            "batch": to_wire(setting.backend, ReEncryptBatchRequest(requests=(single, other))).encode(),
            "grant-batch": to_wire(
                setting.backend, GrantBatchRequest(requests=(GrantRequest("t", key),))
            ).encode(),
        }
        pooled = {
            ("GET", "/v1/health", b""): False,
            ("GET", PREFIX + "/metrics", b""): False,
            ("GET", "/v1/metrics?format=prometheus", b""): False,
            ("POST", PREFIX + "/reencrypt", bodies["single"]): False,
            ("POST", PREFIX + "/reencrypt", bodies["batch"]): True,
            ("POST", "/v1/reencrypt", bodies["batch"]): True,
            ("POST", PREFIX + "/grant", bodies["grant-batch"]): True,
            # Only grant and reencrypt bodies are parsed for their type.
            ("POST", PREFIX + "/revoke", bodies["batch"]): False,
            ("POST", PREFIX + "/reencrypt", b"{not json"): False,
            ("POST", PREFIX + "/reencrypt", b"[" * 100000): False,
            ("POST", "//[", bodies["batch"]): False,
        }
        forwarding = AsyncGatewayServer(_Forwarding(setting.gateway), setting.group)
        forwarded = {
            ("GET", "/v1/health", b""): False,
            ("GET", PREFIX + "/scheme", b""): False,
            # A router's metrics and traces are its own: no GET reads a worker.
            ("GET", PREFIX + "/metrics", b""): False,
            ("GET", "/v1/metrics?format=prometheus", b""): False,
            ("GET", "/v1/trace/abc", b""): False,
            ("POST", PREFIX + "/reencrypt", bodies["single"]): True,
            ("POST", PREFIX + "/revoke", b"{}"): True,
            ("POST", PREFIX + "/nope", b"{}"): False,
        }
        for engine, table in ((server.engine, pooled), (forwarding.engine, forwarded)):
            for (method, target, body), expected in table.items():
                assert engine.placement(method, target, body)[0] is not expected, (method, target)
        forwarding.close()

    def test_each_post_body_is_parsed_once(self, mux_loopback, monkeypatch):
        """Placement parses grant and re-encrypt bodies for their type and
        hands the parse to the engine: over HTTP and over mux, every body
        (single, batch, other ops, malformed) goes through one
        ``json.loads``, and the answers are unchanged."""
        setting, server, _client = mux_loopback
        single, other = _reencrypt_requests(setting, 2)
        key = _first_keys(setting.gateway, 1)[0]
        posts = [
            (PREFIX + "/reencrypt", to_wire(setting.backend, single), 200),
            (PREFIX + "/reencrypt", to_wire(
                setting.backend, ReEncryptBatchRequest(requests=(single, other))
            ), 200),
            (PREFIX + "/grant", to_wire(setting.backend, GrantRequest("admin", key)), 200),
            (PREFIX + "/grant", to_wire(
                setting.backend, GrantBatchRequest(requests=(GrantRequest("admin", key),))
            ), 200),
            (PREFIX + "/revoke", to_wire(setting.backend, RevokeRequest(
                tenant="admin", delegator_domain=key.delegator_domain,
                delegator=key.delegator, delegatee_domain=key.delegatee_domain,
                delegatee=key.delegatee, type_label=key.type_label,
            )), 200),
            (PREFIX + "/reencrypt", '{"not json', 400),
        ]
        parsed = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        for path, body, status in posts:
            raw = body.encode()
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
            try:
                conn.request("POST", path, body=raw)
                assert conn.getresponse().status == status, path
            finally:
                conn.close()
            answer = _answer_or_close(server, mux_request(1, "POST", path, body))
            assert answer["status"] == status, path
            assert sum(text == raw for text in parsed) == 2, path  # one per transport

    def test_singles_and_gets_start_no_pool_thread(self, mux_loopback):
        setting, server, client = mux_loopback
        threads = _record_handle_threads(server)
        http = RemoteGateway(server.http_url, setting.group)
        try:
            for wire in (client, http):
                request = _reencrypt_requests(setting, 1)[0]
                wire.reencrypt(request)
                key = _first_keys(setting.gateway, 1)[0]
                wire.grant(GrantRequest(tenant="admin", proxy_key=key))
                wire.revoke(RevokeRequest(
                    tenant="admin", delegator_domain=key.delegator_domain,
                    delegator=key.delegator, delegatee_domain=key.delegatee_domain,
                    delegatee=key.delegatee, type_label=key.type_label,
                ))
                wire.snapshot()
                wire.list_keys()
                wire.resize(3)
                wire.events_tail(1)
        finally:
            http.close()
        assert threads and {thread.name for thread in threads} == {"gateway-aio"}
        assert not server._pool._threads

    def test_a_batch_runs_on_a_pool_thread(self, mux_loopback):
        setting, server, client = mux_loopback
        client.snapshot()  # the client negotiates on its first call
        threads = _record_handle_threads(server)
        client.reencrypt_batch(_reencrypt_requests(setting, 2))
        client.grant_batch([GrantRequest(tenant="admin", proxy_key=key)
                            for key in _first_keys(setting.gateway)])
        assert len(threads) == 2
        assert all(thread.name.startswith("gateway-aio_") for thread in threads)

    def test_a_single_is_answered_while_a_batch_is_held(self, mux_loopback, monkeypatch):
        setting, server, client = mux_loopback
        entered, release = threading.Event(), threading.Event()
        reencrypt_batch = setting.gateway.reencrypt_batch

        def held(requests, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return reencrypt_batch(requests, **kwargs)

        monkeypatch.setattr(setting.gateway, "reencrypt_batch", held)
        requests = _reencrypt_requests(setting, 2)
        results = []
        batch = threading.Thread(
            target=lambda: results.append(client.reencrypt_batch(requests))
        )
        batch.start()
        other = MuxRemoteGateway(server.url, setting.group, timeout=5.0)
        try:
            assert entered.wait(5.0)
            single = other.reencrypt(requests[0])
            assert batch.is_alive() and not results
        finally:
            release.set()
            batch.join(10.0)
            other.close()
        assert single.ciphertext == results[0][0].ciphertext

    def test_batches_queue_for_one_pool_thread(self, mux_loopback, monkeypatch):
        """An in-process gateway's batches run on one pool thread, one
        after another: three batches arriving while a fourth is held
        start no thread, and a single is still answered on the loop."""
        setting, server, _client = mux_loopback
        entered, release = threading.Event(), threading.Event()
        reencrypt_batch = setting.gateway.reencrypt_batch

        def held(requests, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(10.0)
            return reencrypt_batch(requests, **kwargs)

        monkeypatch.setattr(setting.gateway, "reencrypt_batch", held)
        reads = _batch_reads(setting)
        requests = [request for request, _message in reads]
        clients = [MuxRemoteGateway(server.url, setting.group, timeout=10.0) for _ in range(5)]
        answers, errors = {}, []

        def send(index):
            try:
                answers[index] = clients[index].reencrypt_batch(requests)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        batches = [threading.Thread(target=send, args=(index,)) for index in range(4)]
        try:
            for client in clients:
                client.snapshot()  # each negotiates before any batch is held
            started = server.stats.snapshot().streams_total
            batches[0].start()
            assert entered.wait(5.0)
            for batch in batches[1:]:
                batch.start()
            deadline = time.monotonic() + 5.0
            while server.stats.snapshot().streams_total < started + 4:
                assert time.monotonic() < deadline, "the batches never reached the server"
                time.sleep(0.005)
            assert clients[4].reencrypt(requests[0]).ciphertext is not None
            assert len(server._pool._threads) == 1
            assert not answers  # queued behind the held batch
        finally:
            release.set()
            for batch in batches:
                batch.join(10.0)
            for client in clients:
                client.close()
        assert not any(batch.is_alive() for batch in batches)
        assert not errors and len(answers) == 4
        assert len(server._pool._threads) == 1
        for responses in answers.values():
            for response, (request, message) in zip(responses, reads):
                assert setting.backend.decrypt_reencrypted(
                    response.ciphertext, setting.delegatee_domain, request.delegatee
                ) == message

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
    def test_a_serve_process_runs_concurrent_batches_on_two_threads(self):
        """A real ``serve`` process: the event loop and one pool thread,
        however many connections send batches at once."""
        setting = _build()
        process, banner = _spawn_serve()
        url = banner.split()[3]
        try:
            reads = _batch_reads(setting)
            requests = [request for request, _message in reads]
            clients = [MuxRemoteGateway(url, setting.group, timeout=30.0) for _ in range(4)]
            for key in setting.gateway.list_keys():
                clients[0].grant(GrantRequest(tenant="admin", proxy_key=key))
            answers, errors = [], []

            def flood(client):
                try:
                    for _ in range(10):
                        answers.append(client.reencrypt_batch(requests))
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            threads = [threading.Thread(target=flood, args=(client,)) for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            for client in clients:
                client.close()
            assert not any(thread.is_alive() for thread in threads)
            assert not errors and len(answers) == 40
            for response, (request, message) in zip(answers[-1], reads):
                assert setting.backend.decrypt_reencrypted(
                    response.ciphertext, setting.delegatee_domain, request.delegatee
                ) == message
            assert len(os.listdir("/proc/%d/task" % process.pid)) <= 2
        finally:
            _stop(process)
            setting.gateway.close()

    def test_forwarded_calls_overlap(self):
        setting = _build()
        forwarding = _Forwarding(setting.gateway)
        requests = _reencrypt_requests(setting, 2)
        with AsyncGatewayServer(forwarding, setting.group) as server:
            client = MuxRemoteGateway(server.url, setting.group, timeout=5.0)
            held = threading.Thread(target=client.reencrypt, args=(requests[0],))
            try:
                held.start()
                assert forwarding.entered.wait(5.0)
                client.reencrypt(requests[1])  # completes while the first is held
                assert held.is_alive()
            finally:
                forwarding.release.set()
                held.join(10.0)
                client.close()
        setting.gateway.close()
        assert not held.is_alive()

    def test_accepted_sockets_disable_nagle(self, monkeypatch):
        """asyncio sets TCP_NODELAY only on sockets its own listener
        accepted over TCP; a listener bound otherwise stalls keep-alive
        round trips behind delayed ACKs."""
        setting = _build()
        server = AsyncGatewayServer(setting.gateway, setting.group)
        nodelay = []
        on_connection = server._on_connection

        async def recording(reader, writer):
            sock = writer.get_extra_info("socket")
            nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            await on_connection(reader, writer)

        monkeypatch.setattr(server, "_on_connection", recording)
        with server:
            assert _answer_or_close(server, mux_request(1, "GET", "/v1/health"))["status"] == 200
            raw, _closed = _raw_http_exchange(server, b"GET /v1/health HTTP/1.0\r\n\r\n")
            assert _parse_response(raw)[0] == 200
        setting.gateway.close()
        assert len(nodelay) == 2 and all(nodelay)

    def test_serve_forever_returns_after_close(self):
        """Off the main thread the loop ignores signals and stops on close()."""
        setting = _build()
        server = AsyncGatewayServer(setting.gateway, setting.group)
        bound = threading.Event()
        serving = threading.Thread(target=server.serve_forever, args=(bound.set,))
        serving.start()
        try:
            assert bound.wait(10.0) and server.port != 0
            assert _answer_or_close(server, mux_request(1, "GET", "/v1/health"))["status"] == 200
        finally:
            server.close()
            serving.join(10.0)
        setting.gateway.close()
        assert not serving.is_alive()


# ------------------------------------------------------------- multiplexing


class TestMultiplexing:
    def test_many_threads_one_socket(self, mux_loopback):
        setting, server, client = mux_loopback
        request = _reencrypt_requests(setting, 1)[0]
        client.reencrypt(request)  # negotiate before the stampede
        errors = []

        def worker():
            try:
                for _ in range(3):
                    client.reencrypt(request)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert client.connections_opened == 1
        # The server decrements its gauge a beat after the response hits
        # the wire; give the event loop a moment to drain.
        deadline = time.monotonic() + 5.0
        stats = server.stats.snapshot()
        while stats.streams_in_flight and time.monotonic() < deadline:
            time.sleep(0.01)
            stats = server.stats.snapshot()
        assert stats.connections_total == 1
        assert stats.streams_total >= 97  # negotiation + warm-up + 32 * 3
        assert stats.streams_in_flight == 0
        assert client.peak_streams <= server.max_streams

    def test_threads_sharing_known_points_read_their_own_results(self, mux_loopback):
        """The client's known points are shared by every calling thread;
        each thread still reads back exactly its own transformation."""
        setting, _server, client = mux_loopback
        requests = [
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN,
                delegatee=delegatee,
            )
            for (patient, _type_label), entries in sorted(setting.pool.items())
            for ciphertext, _message in entries
            for delegatee in setting.delegatees
        ]
        keys = {
            (key.delegator, key.delegatee, key.type_label): key
            for key in setting.gateway.list_keys()
        }
        mismatches = []

        def worker(offset):
            for request in requests[offset:] + requests[:offset]:
                ciphertext = request.ciphertext
                key = keys[(ciphertext.identity, request.delegatee, ciphertext.type_label)]
                if client.reencrypt(request).ciphertext != setting.backend.reencrypt(
                    ciphertext, key
                ):
                    mismatches.append(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @settings(max_examples=5, deadline=None)
    @given(n_threads=st.integers(min_value=2, max_value=12))
    def test_stream_gauges_bounded_under_concurrency(self, mux_loopback, n_threads):
        _setting, _server, client = mux_loopback
        # The fixture (and its gauges) persists across hypothesis
        # examples; reset the high-water mark so each example's bound
        # reflects only its own thread count.
        client.peak_streams = 0
        results = []

        def worker():
            results.append(client.snapshot().requests_total)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == n_threads
        assert client.connections_opened == 1
        assert client.streams_in_flight == 0
        assert 0 < client.peak_streams <= n_threads + 1


# --------------------------------------------------------------- auth + TLS


@pytest.fixture()
def mux_auth_loopback(tmp_path):
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    store.add("clinic-a", secret="a" * 64)
    setting = _build()
    events = EventLog()
    server = AsyncGatewayServer(
        setting.gateway,
        setting.group,
        event_log=events,
        auth=RequestVerifier(store),
    )
    with server:
        yield setting, server, events
    setting.gateway.close()


class TestMuxAuth:
    def test_signed_mux_client_succeeds(self, mux_auth_loopback):
        setting, server, _events = mux_auth_loopback
        client = MuxRemoteGateway(
            server.url, setting.group, tenant="clinic-a", secret="a" * 64
        )
        response = client.reencrypt(_reencrypt_requests(setting, 1)[0])
        assert response.shard
        # GET observability is signature-gated; the signing client passes.
        assert client.snapshot().served >= 1
        assert client.events_tail(1)
        client.close()

    def test_unsigned_mux_request_rejected(self, mux_auth_loopback):
        setting, server, events = mux_auth_loopback
        client = MuxRemoteGateway(server.url, setting.group)
        with pytest.raises(AuthRequiredError):
            client.reencrypt(_reencrypt_requests(setting, 1)[0])
        # GET observability decodes through the taxonomy on the snapshot
        # path; events_tail surfaces the non-200 as a transport error.
        with pytest.raises(AuthRequiredError):
            client.snapshot()
        with pytest.raises(WireTransportError):
            client.events_tail()
        client.close()
        codes = [e["code"] for e in events.tail() if e["kind"] == "auth-failure"]
        assert "auth-required" in codes

    def test_bad_signature_rejected_over_mux(self, mux_auth_loopback):
        setting, server, _events = mux_auth_loopback
        client = MuxRemoteGateway(
            server.url, setting.group, tenant="clinic-a", secret="wrong"
        )
        with pytest.raises(BadSignatureError):
            client.reencrypt(_reencrypt_requests(setting, 1)[0])
        client.close()

    def test_auth_parity_with_http_stack(self, mux_auth_loopback, tmp_path):
        """The same signed request stream decodes identically on both stacks."""
        setting_mux, server, _events = mux_auth_loopback
        store = TenantCredentialStore.initialize(tmp_path / "ref-tenants.json")
        store.add("clinic-a", secret="a" * 64)
        setting_ref = _build()
        with AsyncGatewayServer(
            setting_ref.gateway, setting_ref.group, auth=RequestVerifier(store)
        ) as reference:
            ref_client = RemoteGateway(
                reference.http_url, setting_ref.group, tenant="clinic-a", secret="a" * 64
            )
            mux_client = MuxRemoteGateway(
                server.url, setting_mux.group, tenant="clinic-a", secret="a" * 64
            )
            ref = ref_client.reencrypt(_reencrypt_requests(setting_ref, 1)[0])
            mux = mux_client.reencrypt(_reencrypt_requests(setting_mux, 1)[0])
            assert serialize_reencrypted(
                setting_ref.group, ref.ciphertext
            ) == serialize_reencrypted(setting_mux.group, mux.ciphertext)
            ref_client.close()
            mux_client.close()
        setting_ref.gateway.close()


@pytest.fixture(scope="module")
def dev_cert(tmp_path_factory):
    out = tmp_path_factory.mktemp("aio-tls")
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import gen_dev_cert
    finally:
        sys.path.pop(0)
    return gen_dev_cert.generate(out)


class TestMuxTls:
    def test_muxs_and_https_round_trip_with_pinned_ca(self, dev_cert):
        cert_path, key_path = dev_cert
        setting = _build()
        server = AsyncGatewayServer(
            setting.gateway,
            setting.group,
            tls=server_context(str(cert_path), str(key_path)),
        )
        with server:
            assert server.url.startswith("muxs://")
            assert server.http_url.startswith("https://")
            mux_client = MuxRemoteGateway(
                server.url, setting.group, tls_ca=str(cert_path)
            )
            http_client = RemoteGateway(
                server.http_url, setting.group, tls_ca=str(cert_path)
            )
            request = _reencrypt_requests(setting, 1)[0]
            over_mux = mux_client.reencrypt(request)
            over_https = http_client.reencrypt(request)
            assert serialize_reencrypted(
                setting.group, over_mux.ciphertext
            ) == serialize_reencrypted(setting.group, over_https.ciphertext)
            mux_client.close()
            http_client.close()
        setting.gateway.close()

    def test_wrong_ca_fails_clean_over_muxs(self, dev_cert, tmp_path):
        cert_path, key_path = dev_cert
        wrong_ca = tmp_path / "wrong-ca.pem"
        import gen_dev_cert

        other_cert, _other_key = gen_dev_cert.generate(tmp_path)
        wrong_ca.write_bytes(other_cert.read_bytes())
        setting = _build()
        server = AsyncGatewayServer(
            setting.gateway,
            setting.group,
            tls=server_context(str(cert_path), str(key_path)),
        )
        with server:
            client = MuxRemoteGateway(
                server.url, setting.group, tls_ca=str(wrong_ca), timeout=5.0
            )
            with pytest.raises(WireTransportError):
                client.scheme_info()
            client.close()
        setting.gateway.close()

