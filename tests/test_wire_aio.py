"""Conformance tests for the wire stacks: threaded HTTP, asyncio HTTP, mux.

All three transports sit over one request engine, so conformance is
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
import itertools
import json
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    AsyncGatewayServer,
    GatewayHttpServer,
    GrantBatchRequest,
    MuxRemoteGateway,
    ReEncryptBatchRequest,
    RemoteGateway,
    WireTransportError,
    connect_gateway,
    to_wire,
)
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

SEED = "aio-conformance"
PREFIX = "/v1/tipre/v1"
REPO_ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT_PATH = REPO_ROOT / "tests" / "data" / "wire_transcript.json"
STACKS = ("threaded", "aio-http", "mux")
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
    return [
        key
        for name in gateway.shard_names
        for key in gateway.shard_named(name).table
    ][:count]


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
    server_class = GatewayHttpServer if stack == "threaded" else AsyncGatewayServer
    server = server_class(setting.gateway, setting.group).start()
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
def three_stacks():
    """Threaded, asyncio-HTTP and asyncio-mux stacks over identical twins."""
    settings_ = [_build() for _ in range(3)]
    threaded = GatewayHttpServer(settings_[0].gateway, settings_[0].group).start()
    aio_http = AsyncGatewayServer(settings_[1].gateway, settings_[1].group).start()
    aio_mux = AsyncGatewayServer(settings_[2].gateway, settings_[2].group).start()
    clients = [
        RemoteGateway(threaded.url, settings_[0].group),
        RemoteGateway(aio_http.http_url, settings_[1].group),
        MuxRemoteGateway(aio_mux.url, settings_[2].group),
    ]
    try:
        yield settings_, clients
    finally:
        for client in clients:
            client.close()
        for server in (threaded, aio_http, aio_mux):
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

    def test_resize_parity_across_stacks(self, three_stacks):
        """Resize moves identical keys everywhere; only timing may differ."""
        settings_, clients = three_stacks
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
        assert reports[2] == reports[0]

    def test_mux_taxonomy_matches_reference(self, three_stacks):
        settings_, clients = three_stacks
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
    def test_groups_after_a_failing_group_are_not_transformed(self, three_stacks):
        """The second of three groups holds a proxy key outside G1: every
        stack answers invalid-request, keeps the first group's result and
        never computes the third's."""
        settings_, clients = three_stacks
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

    def test_revoked_delegation_is_refused_alone_and_in_a_batch(self, three_stacks):
        settings_, clients = three_stacks
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

    def test_regranting_another_key_never_replays_the_old_result(self, three_stacks):
        settings_, clients = three_stacks
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
    def test_undecodable_c1_is_invalid_request_on_every_stack(self, three_stacks):
        """Decompressing c1 waits for a cache miss; failing there answers
        exactly what failing in the codec answered: 400 invalid-request."""
        settings_, clients = three_stacks
        for setting, client in zip(settings_, clients):
            good, bad = _reencrypt_requests(setting)
            single, batch, expected = _undecodable_bodies(setting, good, bad)
            for body in (single, batch):
                status, raw = client._raw_request("POST", PREFIX + "/reencrypt", body.encode())
                assert (status, json.loads(raw)) == (400, expected)
            # The failed batch ran nothing: its good item is still a miss.
            assert setting.gateway.cache_stats()["result_cache"].size == 0
            assert not client.reencrypt(good).cache_hit

    def test_undecodable_c1_is_refused_before_the_rate_limit(self, three_stacks):
        """A miss decodes before admission, as the codec did: a tenant over
        its budget still gets 400 invalid-request for bytes that do not
        decode, and such bytes spend none of the budget."""
        settings_, clients = three_stacks
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


@pytest.fixture(params=["threaded", "aio-http"])
def http_server(request):
    setting = _build()
    if request.param == "threaded":
        server = GatewayHttpServer(setting.gateway, setting.group)
    else:
        server = AsyncGatewayServer(setting.gateway, setting.group)
    with server:
        yield server
    setting.gateway.close()


class TestHttpTransports:
    """Both HTTP stacks follow the stdlib's HTTP semantics and limits, and
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
        raw, closed = _raw_http_exchange(
            http_server,
            b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        )
        assert _parse_response(raw)[0] == 200
        assert not closed

    def test_too_many_headers_is_431_with_a_taxonomy_body(self, http_server):
        padding = b"".join(b"X-Pad-%d: x\r\n" % index for index in range(500))
        raw, closed = _raw_http_exchange(
            http_server, b"GET /v1/health HTTP/1.1\r\n" + padding + b"\r\n"
        )
        self._assert_taxonomy_rejection(raw, 431)
        assert closed

    def test_header_count_up_to_the_stdlib_cap_is_accepted(self, http_server):
        # http.client counts the blank line that ends the head toward its
        # 100-line cap, so 99 header lines is the most either stack takes.
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

    @pytest.mark.parametrize(
        "request_bytes, status, message",
        [
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, "Request-URI Too Long"),
            (
                b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n",
                431,
                "Line too long",
            ),
            (b"GET /v1/health HTTP/3.0\r\n\r\n", 505, "Invalid HTTP version (3.0)"),
            (b"GET /v1/health FOO/1.1\r\n\r\n", 400, "Bad request version ('FOO/1.1')"),
            (b"GET /v1/health HTTP/1.1 x\r\n\r\n", 400, "Bad request version ('x')"),
            (
                b"GET / x HTTP/1.1\r\n\r\n",
                400,
                "Bad request syntax ('GET / x HTTP/1.1')",
            ),
            (b"POST /v1/health\r\n\r\n", 400, "Bad HTTP/0.9 request type ('POST')"),
        ],
        ids=[
            "request-line-too-long", "header-line-too-long", "http-3.0", "not-http",
            "four-words", "four-words-versioned", "http-0.9-post",
        ],
    )
    def test_refusals_match_the_stdlib(self, http_server, request_bytes, status, message):
        """Both stacks refuse what ``http.server`` refuses, with its status
        and message in the taxonomy body, and close the connection."""
        raw, closed = _raw_http_exchange(http_server, request_bytes)
        self._assert_taxonomy_rejection(raw, status)
        assert _parse_response(raw)[2] == neutral_error_to_wire(
            InvalidRequestError(message)
        ).encode("utf-8")
        assert closed
        events = http_server.event_log.tail()
        assert not [e for e in events if e["kind"] == "connection-error"]


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

    def test_nested_body_is_invalid_request_on_every_stack(self, three_stacks):
        _settings, clients = three_stacks
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

    def test_hostile_bodies_are_invalid_request_on_every_stack(self, three_stacks,
                                                              long_integer):
        _settings, clients = three_stacks
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

    def test_auth_parity_with_threaded_stack(self, mux_auth_loopback, tmp_path):
        """The same signed request stream decodes identically on both stacks."""
        setting_mux, server, _events = mux_auth_loopback
        store = TenantCredentialStore.initialize(tmp_path / "ref-tenants.json")
        store.add("clinic-a", secret="a" * 64)
        setting_ref = _build()
        with GatewayHttpServer(
            setting_ref.gateway, setting_ref.group, auth=RequestVerifier(store)
        ) as reference:
            ref_client = RemoteGateway(
                reference.url, setting_ref.group, tenant="clinic-a", secret="a" * 64
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


# ----------------------------------------------------------------- fleet


class TestAsyncFleet:
    def test_async_workers_speak_mux(self):
        from repro.service.fleet import FleetSupervisor

        supervisor = FleetSupervisor(
            "tipre/v1", shard_count=1, group_name="TOY", async_workers=True
        )
        try:
            name = supervisor.names[0]
            assert supervisor.url_of(name).startswith("mux://")
            client = supervisor.client(name)
            assert isinstance(client, MuxRemoteGateway)
            assert [e["scheme"] for e in client.schemes_info()] == ["tipre/v1"]
        finally:
            supervisor.close()
