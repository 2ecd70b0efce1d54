"""Tests for the HTTP/JSON wire layer: codec, server, client loopback.

The codec tests assert *round-trip exactness* — the dataclass decoded
from the wire compares equal (group elements included) to the one that
was encoded — for every request/response type the gateway speaks.  The
loopback tests stand a real :class:`AsyncGatewayServer` on an ephemeral
port and check that a :class:`RemoteGateway` observes bit-identical
results and the same error taxonomy as in-process calls.
"""

from __future__ import annotations

import base64
import dataclasses
import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.phr.store import EncryptedPhrStore
from repro.serialization.containers import serialize_reencrypted
from repro.service.cache import CacheStats, LruCache
from repro.service.driver import DELEGATEE_DOMAIN, build_setting, drive_requests
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
    ResizeReport,
    RevokeRequest,
    RevokeResponse,
    StoreUnavailableError,
)
from repro.service.auth import (
    AUTH_HEADER,
    RequestSigner,
    RequestVerifier,
    TenantCredentialStore,
)
from repro.service.metrics import GatewayMetrics
from repro.service.telemetry import TRACE_HEADER, TraceContext
from repro.service.wire import (
    ERROR_TYPES,
    AsyncGatewayServer,
    GrantBatchRequest,
    GrantBatchResponse,
    ReEncryptBatchRequest,
    ReEncryptBatchResponse,
    RemoteGateway,
    ResizeRequest,
    WIRE_FORMAT,
    WireTransportError,
    from_wire,
    to_wire,
)
from repro.service.wire.engine import IdempotencyWindow


@pytest.fixture()
def pre_objects(pre_setting, group, rng):
    """One of everything the codec must carry: key, ciphertexts, response."""
    scheme, kgc1, kgc2, alice, bob = pre_setting
    proxy_key = scheme.pextract(alice, "bob", "labs", kgc2.params, rng)
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
    reencrypted = scheme.preenc(ciphertext, proxy_key)
    return scheme, proxy_key, ciphertext, reencrypted, message, bob


def _round_trip(group, message, expect=None):
    decoded = from_wire(group, to_wire(group, message), expect=expect)
    assert decoded == message
    return decoded


class TestCodecRoundTrips:
    def test_grant_request(self, group, pre_objects):
        _scheme, proxy_key, *_rest = pre_objects
        _round_trip(group, GrantRequest(tenant="t", proxy_key=proxy_key), GrantRequest)

    def test_grant_response(self, group):
        _round_trip(group, GrantResponse(shard="shard-01"), GrantResponse)

    def test_grant_batch(self, group, pre_objects):
        _scheme, proxy_key, *_rest = pre_objects
        request = GrantRequest(tenant="t", proxy_key=proxy_key)
        _round_trip(
            group, GrantBatchRequest(requests=(request, request)), GrantBatchRequest
        )
        _round_trip(
            group,
            GrantBatchResponse(
                responses=(GrantResponse(shard="shard-00"), GrantResponse(shard="shard-02"))
            ),
            GrantBatchResponse,
        )

    def test_revoke_request_and_response(self, group):
        _round_trip(
            group,
            RevokeRequest(
                tenant="t",
                delegator_domain="KGC1",
                delegator="alice",
                delegatee_domain="KGC2",
                delegatee="bob",
                type_label="labs",
            ),
            RevokeRequest,
        )
        _round_trip(group, RevokeResponse(shard="shard-00", removed=True), RevokeResponse)

    def test_reencrypt_request(self, group, pre_objects):
        _scheme, _key, ciphertext, *_rest = pre_objects
        _round_trip(
            group,
            ReEncryptRequest(
                tenant="t",
                ciphertext=ciphertext,
                delegatee_domain="KGC2",
                delegatee="bob",
            ),
            ReEncryptRequest,
        )

    def test_reencrypt_response(self, group, pre_objects):
        _scheme, _key, _ct, reencrypted, *_rest = pre_objects
        _round_trip(
            group,
            ReEncryptResponse(ciphertext=reencrypted, shard="shard-02", cache_hit=False),
            ReEncryptResponse,
        )

    def test_reencrypt_batch(self, group, pre_objects):
        _scheme, _key, ciphertext, reencrypted, *_rest = pre_objects
        request = ReEncryptRequest(
            tenant="t", ciphertext=ciphertext, delegatee_domain="KGC2", delegatee="bob"
        )
        _round_trip(
            group,
            ReEncryptBatchRequest(requests=(request, request)),
            ReEncryptBatchRequest,
        )
        response = ReEncryptResponse(
            ciphertext=reencrypted, shard="shard-00", cache_hit=True
        )
        _round_trip(
            group,
            ReEncryptBatchResponse(responses=(response, response)),
            ReEncryptBatchResponse,
        )

    def test_fetch_request_optional_fields(self, group):
        _round_trip(group, FetchRequest(tenant="t", patient="p"), FetchRequest)
        _round_trip(
            group,
            FetchRequest(tenant="t", patient="p", entry_id="e-1", category="labs"),
            FetchRequest,
        )

    def test_fetch_response_carries_blobs(self, group):
        store = EncryptedPhrStore()
        store.put("p", "labs", "e-1", b"\x00\x01ciphertext bytes\xff")
        response = FetchResponse(records=(store.get("p", "e-1"),))
        decoded = _round_trip(group, response, FetchResponse)
        assert decoded.records[0].blob == b"\x00\x01ciphertext bytes\xff"

    def test_resize_request_and_report(self, group):
        _round_trip(group, ResizeRequest(tenant="admin", shard_count=6), ResizeRequest)
        _round_trip(
            group,
            ResizeReport(
                old_shard_count=4,
                new_shard_count=6,
                keys_moved=9,
                shards_added=("shard-04", "shard-05"),
                shards_removed=(),
                elapsed_ms=1.25,
            ),
            ResizeReport,
        )

    def test_metrics_snapshot(self, group):
        metrics = GatewayMetrics()
        metrics.observe("reencrypt", 2.5, "shard-00")
        metrics.observe("grant", 0.5, "shard-01")
        metrics.observe_rejection()
        metrics.observe_rejection(rate_limited=True)
        metrics.observe_resize(3)
        cache = LruCache(4, name="result_cache")
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        snapshot = metrics.snapshot(caches={"result_cache": cache.stats()})
        decoded = from_wire(group, to_wire(group, snapshot))
        # elapsed_s moves between snapshot and compare; check fields we froze.
        assert decoded.requests_total == snapshot.requests_total == 4
        assert decoded.served == 2
        assert decoded.rejected == 1 and decoded.rate_limited == 1
        assert decoded.resizes == 1 and decoded.keys_migrated == 3
        assert decoded.shard_requests == {"shard-00": 1, "shard-01": 1}
        assert decoded.latency == snapshot.latency
        assert decoded.caches["result_cache"] == CacheStats(
            name="result_cache",
            size=1,
            capacity=4,
            hits=1,
            misses=1,
            evictions=0,
            invalidations=0,
        )

    def test_metrics_latency_is_derived_from_histograms(self, group):
        """The encoded ``latency`` member is a view of ``histograms``:
        decoding ignores it, so a stale or bogus copy cannot disagree."""
        metrics = GatewayMetrics()
        for latency_ms in (1.0, 3.0, 40.0):
            metrics.observe("reencrypt", latency_ms, "shard-00")
        snapshot = metrics.snapshot()
        message = json.loads(to_wire(group, snapshot))
        summary = snapshot.latency["reencrypt"]
        assert message["body"]["latency"]["reencrypt"] == {
            "count": 3,
            "p50_ms": summary.p50_ms,
            "p90_ms": summary.p90_ms,
            "p99_ms": summary.p99_ms,
            "max_ms": 40.0,
        }
        message["body"]["latency"] = "not a summary map"
        decoded = from_wire(group, json.dumps(message))
        assert decoded.latency == snapshot.latency
        del message["body"]["latency"]
        assert from_wire(group, json.dumps(message)).latency == snapshot.latency

    def test_every_error_code_round_trips_to_its_class(self, group):
        for code, cls in ERROR_TYPES.items():
            decoded = from_wire(group, to_wire(group, cls("boom %s" % code)))
            assert type(decoded) is cls
            assert decoded.code == code
            assert "boom" in str(decoded)

    def test_unknown_error_code_falls_back_to_base(self, group):
        text = json.dumps(
            {
                "wire": WIRE_FORMAT,
                "type": "error",
                "body": {"code": "never-heard-of-it", "message": "m"},
            }
        )
        decoded = from_wire(group, text)
        assert type(decoded) is GatewayError

    def test_unencodable_object_is_a_type_error(self, group):
        with pytest.raises(TypeError):
            to_wire(group, object())


class TestCodecRejection:
    def test_malformed_json(self, group):
        # "[" * 1000 nests past the json module's recursion limit.
        for text in ("{not json", "[" * 1000):
            with pytest.raises(InvalidRequestError, match="malformed JSON"):
                from_wire(group, text)

    def test_non_object_message(self, group):
        with pytest.raises(InvalidRequestError):
            from_wire(group, json.dumps([1, 2, 3]))

    def test_wrong_wire_version(self, group):
        text = json.dumps(
            {"wire": "repro-gateway/v999", "type": "grant-response", "body": {"shard": "s"}}
        )
        with pytest.raises(InvalidRequestError, match="wire format"):
            from_wire(group, text)

    def test_missing_wire_version(self, group):
        text = json.dumps({"type": "grant-response", "body": {"shard": "s"}})
        with pytest.raises(InvalidRequestError):
            from_wire(group, text)

    def test_unknown_message_type(self, group):
        text = json.dumps({"wire": WIRE_FORMAT, "type": "teleport-request", "body": {}})
        with pytest.raises(InvalidRequestError, match="unknown wire message type"):
            from_wire(group, text)

    def test_missing_field(self, group):
        text = json.dumps({"wire": WIRE_FORMAT, "type": "grant-response", "body": {}})
        with pytest.raises(InvalidRequestError, match="missing wire field"):
            from_wire(group, text)

    def test_mistyped_field(self, group):
        text = json.dumps(
            {"wire": WIRE_FORMAT, "type": "grant-response", "body": {"shard": 7}}
        )
        with pytest.raises(InvalidRequestError, match="must be str"):
            from_wire(group, text)

    def test_bool_is_not_an_int(self, group):
        text = json.dumps(
            {
                "wire": WIRE_FORMAT,
                "type": "resize-request",
                "body": {"tenant": "t", "shard_count": True},
            }
        )
        with pytest.raises(InvalidRequestError):
            from_wire(group, text)

    def test_corrupt_element_envelope(self, group, pre_objects):
        _scheme, proxy_key, *_rest = pre_objects
        message = json.loads(to_wire(group, GrantRequest(tenant="t", proxy_key=proxy_key)))
        message["body"]["proxy_key"]["payload"] = "AAAA"
        with pytest.raises(InvalidRequestError):
            from_wire(group, json.dumps(message))

    @pytest.mark.parametrize(
        "element", ["g1-unreduced", "g1-identity-payload", "g1-zero-y-odd", "gt-unreduced"]
    )
    def test_non_canonical_element_rejected(self, group, pre_objects, element):
        """An element encoding serialize_* never writes is invalid-request."""
        _scheme, _key, ciphertext, *_rest = pre_objects
        p, size = group.params.p, group.g1_element_size() - 1
        if element == "g1-unreduced":
            canonical = group.serialize_g1(ciphertext.c1)
            tampered = canonical[:1] + (int(ciphertext.c1.x) + p).to_bytes(size, "big")
        elif element == "g1-identity-payload":
            ciphertext = dataclasses.replace(ciphertext, c1=group.g1_identity())
            canonical = group.serialize_g1(ciphertext.c1)
            tampered = canonical[:-1] + b"\x01"
        elif element == "g1-zero-y-odd":
            # (0, 0) is on y^2 = x^3 + x; only its parity-0 tag is canonical.
            ciphertext = dataclasses.replace(ciphertext, c1=group.params.curve.lift_x(0))
            canonical = group.serialize_g1(ciphertext.c1)
            tampered = b"\x01" + canonical[1:]
        else:
            canonical = group.serialize_gt(ciphertext.c2)
            tampered = (int(ciphertext.c2.a) + p).to_bytes(size, "big") + canonical[size:]
        request = ReEncryptRequest(
            tenant="t", ciphertext=ciphertext, delegatee_domain="KGC2", delegatee="bob"
        )
        message = json.loads(to_wire(group, request))
        envelope = message["body"]["ciphertext"]
        blob = base64.b64decode(envelope["payload"])
        assert blob.count(canonical) == 1 and len(tampered) == len(canonical)
        envelope["payload"] = base64.b64encode(blob.replace(canonical, tampered)).decode()
        with pytest.raises(InvalidRequestError, match="not reduced|payload|not canonical"):
            from_wire(group, json.dumps(message))

    def test_expect_rejects_other_valid_types(self, group):
        text = to_wire(group, GrantResponse(shard="s"))
        with pytest.raises(InvalidRequestError, match="expected"):
            from_wire(group, text, expect=RevokeResponse)

    def test_expect_rejects_error_messages(self, group):
        text = to_wire(group, RateLimitedError("slow down"))
        with pytest.raises(InvalidRequestError):
            from_wire(group, text, expect=GrantResponse)

    @pytest.mark.parametrize("kind", [[], {}])
    def test_unhashable_message_type_is_invalid_request(self, group, kind):
        text = json.dumps({"wire": WIRE_FORMAT, "type": kind, "body": {}})
        with pytest.raises(InvalidRequestError, match="unknown wire message type"):
            from_wire(group, text)

    def test_integer_past_the_digit_limit_is_invalid_request(self, group, long_integer):
        message = {"wire": WIRE_FORMAT, "type": "resize-request",
                   "body": {"tenant": "t", "shard_count": 0}}
        text = json.dumps(message).replace("0}", long_integer + "}")
        with pytest.raises(InvalidRequestError, match="malformed JSON"):
            from_wire(group, text)

    def test_float_field_out_of_range_is_invalid_request(self, group):
        message = json.loads(to_wire(group, ResizeReport(4, 6, 9, (), (), 1.25)))
        text = json.dumps(message).replace("1.25", "1" + "0" * 400)
        with pytest.raises(InvalidRequestError, match="elapsed_ms"):
            from_wire(group, text)

    @pytest.mark.parametrize("kind", [7, "typed-ciphertext", None])
    def test_element_envelope_kind_must_match_the_field(self, group, pre_objects, kind):
        _scheme, proxy_key, *_rest = pre_objects
        message = json.loads(to_wire(group, GrantRequest(tenant="t", proxy_key=proxy_key)))
        envelope = message["body"]["proxy_key"]
        if kind is None:
            del envelope["kind"]
        else:
            envelope["kind"] = kind
        with pytest.raises(InvalidRequestError, match="kind"):
            from_wire(group, json.dumps(message))

    def test_errors_name_the_field_by_its_path(self, group, pre_objects):
        _scheme, proxy_key, *_rest = pre_objects
        request = GrantRequest(tenant="t", proxy_key=proxy_key)
        message = json.loads(to_wire(group, GrantBatchRequest(requests=(request, request))))
        del message["body"]["requests"][1]["proxy_key"]
        with pytest.raises(InvalidRequestError, match=r"'requests\[1\]\.proxy_key'"):
            from_wire(group, json.dumps(message))

    def test_metrics_snapshot_counters_with_defaults_may_be_absent(self, group):
        message = json.loads(to_wire(group, GatewayMetrics().snapshot()))
        del message["body"]["resizes"]
        message["body"]["keys_migrated"] = None
        decoded = from_wire(group, json.dumps(message))
        assert decoded.resizes == 0 and decoded.keys_migrated == 0


# ---------------------------------------------------------------- loopback


@pytest.fixture()
def loopback():
    """A live HTTP server over a seeded gateway plus a typed client."""
    setting = build_setting(
        group_name="TOY",
        shard_count=3,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="wire-loopback",
    )
    with AsyncGatewayServer(setting.gateway, setting.group) as server:
        client = RemoteGateway(server.http_url, setting.group)
        yield setting, server, client
    setting.gateway.close()


def _request_stream(setting):
    requests = []
    for (patient, type_label), entries in sorted(setting.pool.items()):
        ciphertext, _message = entries[0]
        for delegatee in setting.delegatees:
            requests.append(
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
            )
    return requests


class TestLoopback:
    def test_wire_results_bit_identical_to_in_process(self, loopback):
        setting, _server, client = loopback
        group, gateway = setting.group, setting.gateway
        for request in _request_stream(setting):
            wire = client.reencrypt(request)
            local = gateway.reencrypt(request)
            assert serialize_reencrypted(group, wire.ciphertext) == serialize_reencrypted(
                group, local.ciphertext
            )
            assert wire.shard == local.shard

    def test_batch_over_wire_matches_and_preserves_order(self, loopback):
        setting, _server, client = loopback
        requests = _request_stream(setting)
        wire = client.reencrypt_batch(requests)
        local = setting.gateway.reencrypt_batch(requests)
        assert [r.ciphertext for r in wire] == [r.ciphertext for r in local]
        assert [r.shard for r in wire] == [r.shard for r in local]

    def test_decrypted_plaintext_survives_the_wire(self, loopback):
        setting, _server, client = loopback
        (patient, type_label), entries = sorted(setting.pool.items())[0]
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

    @pytest.mark.parametrize("op", ["reencrypt", "reencrypt_batch"])
    def test_proxy_key_outside_g1_is_invalid_request(self, loopback, op):
        """A granted key whose point is on the curve but outside G1.

        Grants are not subgroup-checked, so the first transformation
        under the key finds it: invalid-request, never a 500 or a served
        (and cached) result that does not decrypt.  The 2-torsion point
        (0, 0) fails on the Miller chain's first doubling.
        """
        setting, _server, client = loopback
        params = setting.group.params
        (patient, type_label), entries = sorted(setting.pool.items())[0]
        ciphertext, _message = entries[0]
        delegatee = setting.delegatees[0]
        key = next(
            key
            for key in setting.gateway.list_keys()
            if (key.delegator, key.type_label, key.delegatee) == (patient, type_label, delegatee)
        )
        lifted = next(
            point
            for point in (params.curve.lift_x(x) for x in range(1, 1000))
            if point is not None and not params.is_in_subgroup(point)
        )
        request = ReEncryptRequest(
            tenant=patient,
            ciphertext=ciphertext,
            delegatee_domain=DELEGATEE_DOMAIN,
            delegatee=delegatee,
        )
        for outside in (lifted, params.curve.point(0, 0)):
            client.grant(
                GrantRequest(tenant=patient, proxy_key=dataclasses.replace(key, rk_point=outside))
            )
            for _attempt in range(2):  # the refusal is not cached away either
                with pytest.raises(InvalidRequestError, match="outside G1"):
                    if op == "reencrypt":
                        client.reencrypt(request)
                    else:
                        client.reencrypt_batch([request, request])

    def test_driver_runs_unchanged_against_the_wire(self, loopback):
        """drive_requests cannot tell a RemoteGateway from the local one."""
        setting, _server, client = loopback
        verified = drive_requests(
            setting, 16, seed="wire-drive", batch_size=4, gateway=client
        )
        assert verified > 0

    def test_revoke_then_reencrypt_is_no_delegation(self, loopback):
        setting, _server, client = loopback
        (patient, type_label), entries = sorted(setting.pool.items())[0]
        ciphertext, _message = entries[0]
        delegatee = setting.delegatees[0]
        revoked = client.revoke(
            RevokeRequest(
                tenant=patient,
                delegator_domain=ciphertext.domain,
                delegator=ciphertext.identity,
                delegatee_domain=DELEGATEE_DOMAIN,
                delegatee=delegatee,
                type_label=ciphertext.type_label,
            )
        )
        assert revoked.removed
        with pytest.raises(DelegationNotFoundError):
            client.reencrypt(
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
            )

    def test_rate_limit_maps_to_429_and_raises(self, loopback):
        setting, server, client = loopback
        setting.gateway.set_rate_limit(1.0, burst=1.0)
        request = _request_stream(setting)[0]
        try:
            with pytest.raises(RateLimitedError):
                for _ in range(5):
                    client.reencrypt(request)
        finally:
            setting.gateway.set_rate_limit(None)

    def test_fetch_without_store_is_no_store(self, loopback):
        _setting, _server, client = loopback
        with pytest.raises(StoreUnavailableError):
            client.fetch(FetchRequest(tenant="t", patient="p"))

    def test_metrics_over_wire_counts_served_requests(self, loopback):
        setting, _server, client = loopback
        before = client.snapshot().served
        client.reencrypt(_request_stream(setting)[0])
        after = client.snapshot().served
        assert after == before + 1

    def test_grant_batch_over_wire_installs_every_key(self, loopback):
        setting, _server, client = loopback
        gateway = setting.gateway
        keys = gateway.list_keys()[:3]
        assert keys, "seeded gateway has no proxy keys"
        for key in keys:
            removed = client.revoke(
                RevokeRequest(
                    tenant="t",
                    delegator_domain=key.delegator_domain,
                    delegator=key.delegator,
                    delegatee_domain=key.delegatee_domain,
                    delegatee=key.delegatee,
                    type_label=key.type_label,
                )
            )
            assert removed.removed
        responses = client.grant_batch(
            [GrantRequest(tenant="t", proxy_key=key) for key in keys]
        )
        assert len(responses) == len(keys)
        for key, response in zip(keys, responses):
            local = gateway.grant(GrantRequest(tenant="t", proxy_key=key))
            assert response.shard == local.shard

    def test_events_tail_over_wire(self, loopback):
        setting, server, client = loopback
        client.reencrypt(_request_stream(setting)[0])
        events = client.events_tail()
        assert events, "server kept no events"
        assert all("kind" in event and "ts" in event for event in events)
        # The GET itself is logged, so compare on sequence, not equality.
        newest = client.events_tail(2)
        assert len(newest) == 2
        assert newest[0]["seq"] + 1 == newest[1]["seq"]
        assert newest[-1]["seq"] >= events[-1]["seq"]
        # Malformed tail values are a 400, not a server error.
        status, _body = _raw_get(server.http_url, "/v1/events?tail=zero")
        assert status == 400
        status, _body = _raw_get(server.http_url, "/v1/events?tail=0")
        assert status == 400

    def test_resize_over_wire_moves_keys_and_keeps_serving(self, loopback):
        setting, _server, client = loopback
        total = setting.gateway.key_count()
        report = client.resize(5)
        assert report.new_shard_count == 5
        assert setting.gateway.key_count() == total
        assert client.reencrypt(_request_stream(setting)[0]).ciphertext is not None


def _raw_get(url: str, path: str):
    try:
        with urllib.request.urlopen(url + path, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _raw_post(url: str, path: str, data: bytes):
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestHttpSurface:
    def test_error_bodies_carry_stable_codes_and_statuses(self, loopback):
        _setting, server, _client = loopback
        cases = [
            (b"{broken json", 400, "invalid-request"),
            (b"[" * 1000, 400, "invalid-request"),  # nested past json's recursion limit
            (json.dumps({"wire": "nope/v0", "type": "x", "body": {}}).encode(), 400, "invalid-request"),
        ]
        for payload, status, code in cases:
            got_status, body = _raw_post(server.http_url, "/v1/reencrypt", payload)
            assert got_status == status
            envelope = json.loads(body)
            assert envelope["type"] == "error"
            assert envelope["body"]["code"] == code

    def test_wrong_message_type_for_endpoint_rejected(self, loopback):
        setting, server, _client = loopback
        text = to_wire(setting.group, GrantResponse(shard="s"))
        status, body = _raw_post(server.http_url, "/v1/grant", text.encode())
        assert status == 400
        assert json.loads(body)["body"]["code"] == "invalid-request"

    def test_unknown_endpoint_is_404_error_body(self, loopback):
        _setting, server, _client = loopback
        status, body = _raw_post(server.http_url, "/v1/nonsense", b"{}")
        assert status == 404
        assert json.loads(body)["body"]["code"] == "invalid-request"

    def test_health_endpoint(self, loopback):
        _setting, server, _client = loopback
        with urllib.request.urlopen(server.http_url + "/v1/health", timeout=10.0) as response:
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}

    @staticmethod
    def _assert_refused_and_closed(loopback, header: str, value: str, body: bytes = b""):
        """POST with one framing header: the server answers 400
        invalid-request with Connection: close."""
        _setting, server, _client = loopback
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        try:
            connection.putrequest("POST", "/v1/reencrypt")
            connection.putheader(header, value)
            connection.endheaders()
            connection.send(body)
            response = connection.getresponse()
            document = json.loads(response.read())
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert document["body"]["code"] == "invalid-request"
        finally:
            connection.close()

    def test_pre_read_rejection_closes_the_connection(self, loopback):
        """A body the server refuses to read must not desync keep-alive:
        the 400 carries Connection: close so stale bytes die with it."""
        self._assert_refused_and_closed(loopback, "Content-Length", "not-a-number")

    def test_chunked_body_rejected_and_connection_closed(self, loopback):
        self._assert_refused_and_closed(
            loopback, "Transfer-Encoding", "chunked", b"5\r\nhello\r\n0\r\n\r\n"
        )

    def test_posted_error_message_is_rejected_not_executed(self, loopback):
        setting, server, _client = loopback
        text = to_wire(setting.group, RateLimitedError("not a request"))
        status, body = _raw_post(server.http_url, "/v1/grant", text.encode())
        assert status == 400
        assert json.loads(body)["body"]["code"] == "invalid-request"


class TestRemoteGatewayTransport:
    def test_unreachable_server_is_wire_transport_error(self, group):
        client = RemoteGateway("http://127.0.0.1:9", group, timeout=0.5)
        with pytest.raises(WireTransportError):
            client.snapshot()

    def test_non_wire_2xx_body_is_wire_transport_error(self, loopback):
        """A 200 whose body is not wire JSON (an interposed proxy, version
        skew) must read as a transport fault, not an invalid-request the
        gateway supposedly charged to the caller — /v1/health is exactly
        such a 200 non-wire body."""
        setting, server, _client = loopback
        # negotiate=False keeps the legacy unprefixed route family, so the
        # "health" op lands on the scheme-neutral /v1/health endpoint.
        client = RemoteGateway(server.http_url, setting.group, negotiate=False)
        with pytest.raises(WireTransportError):
            client._round_trip("GET", "health", None)

    def test_fetch_with_store_round_trips_records(self, pre_setting, group, rng):
        scheme, _kgc1, _kgc2, _alice, _bob = pre_setting
        from repro.service.gateway import ReEncryptionGateway

        store = EncryptedPhrStore()
        store.put("p", "labs", "e-1", b"blob-1")
        store.put("p", "notes", "e-2", b"blob-2")
        gateway = ReEncryptionGateway(scheme, shard_count=2, store=store)
        with AsyncGatewayServer(gateway, group) as server:
            client = RemoteGateway(server.http_url, group)
            response = client.fetch(FetchRequest(tenant="t", patient="p"))
            assert sorted(r.blob for r in response.records) == [b"blob-1", b"blob-2"]
            one = client.fetch(FetchRequest(tenant="t", patient="p", entry_id="e-2"))
            assert one.records[0].blob == b"blob-2"
            with pytest.raises(EntryMissingError):
                client.fetch(FetchRequest(tenant="t", patient="p", entry_id="missing"))
        gateway.close()


# ------------------------------------------------- wire-layer regressions


class TestTraceEchoSanitization:
    """The response echoes a *re-serialized* trace header, never raw bytes."""

    def _get_with_trace(self, server, value: str):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        try:
            conn.request("GET", "/v1/health", headers={TRACE_HEADER: value})
            response = conn.getresponse()
            response.read()
            return response.getheader(TRACE_HEADER)
        finally:
            conn.close()

    def test_valid_trace_header_round_trips(self, loopback):
        _setting, server, _client = loopback
        trace = TraceContext.generate()
        assert self._get_with_trace(server, trace.to_header()) == trace.to_header()

    def test_malformed_trace_header_is_dropped_not_echoed(self, loopback):
        _setting, server, _client = loopback
        assert self._get_with_trace(server, "zz-not-a-trace-header") is None
        assert self._get_with_trace(server, "A" * 48 + "-" + "B" * 16) is None

    def test_folded_trace_header_cannot_inject_response_headers(self, loopback):
        """Regression: echoing the raw client value let an obs-folded
        trace header smuggle CR/LF (and so attacker-chosen headers) into
        the response head; the strict re-parse drops it entirely."""
        _setting, server, _client = loopback
        trace = TraceContext.generate()
        with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
            sock.sendall(
                b"GET /v1/health HTTP/1.1\r\n"
                b"Host: h\r\n"
                + b"%s: %s\r\n" % (TRACE_HEADER.encode(), trace.to_header().encode())
                + b" X-Evil: injected\r\n"
                b"Connection: close\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head = raw.split(b"\r\n\r\n", 1)[0]
        assert b"X-Evil" not in head
        assert b"injected" not in head


@pytest.fixture()
def observability_auth(tmp_path):
    """An auth-enabled server whose GET observability must be signed."""
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    store.add("clinic-a", secret="a" * 64)
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=1,
        n_delegatees=1,
        n_types=1,
        ciphertexts_per_pair=1,
        seed="wire-observability-auth",
    )
    server = AsyncGatewayServer(
        setting.gateway, setting.group, auth=RequestVerifier(store)
    )
    with server:
        yield setting, server
    setting.gateway.close()


class TestObservabilityAuthGate:
    """Regression: metrics/events/traces answered unauthenticated GETs on
    auth-enabled servers, leaking tenant names, audit detail and
    tracebacks to anyone who found the port."""

    GATED = [
        "/v1/events",
        "/v1/metrics?format=prometheus",
        "/v1/trace/" + "ab" * 16,
        "/v1/tipre/v1/metrics",
    ]

    def _get(self, server, path: str, header: str | None = None):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        try:
            headers = {} if header is None else {AUTH_HEADER: header}
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_unsigned_observability_gets_are_401(self, observability_auth):
        _setting, server = observability_auth
        for path in self.GATED:
            status, body = self._get(server, path)
            assert status == 401, path
            assert json.loads(body)["body"]["code"] == "auth-required"

    def test_health_and_scheme_discovery_stay_open(self, observability_auth):
        _setting, server = observability_auth
        for path in ("/v1/health", "/v1/schemes", "/v1/tipre/v1/scheme"):
            status, _body = self._get(server, path)
            assert status == 200, path

    def test_signed_observability_gets_pass(self, observability_auth):
        _setting, server = observability_auth
        signer = RequestSigner("clinic-a", "a" * 64)
        status, body = self._get(
            server, "/v1/events", signer.header("GET", "/v1/events", b"")
        )
        assert status == 200 and b"events" in body
        status, body = self._get(
            server,
            "/v1/metrics?format=prometheus",
            signer.header("GET", "/v1/metrics?format=prometheus", b""),
        )
        assert status == 200 and b"repro_gateway_requests_total" in body
        # An authorized trace lookup that misses is 404, never 401.
        path = "/v1/trace/" + "ab" * 16
        status, body = self._get(server, path, signer.header("GET", path, b""))
        assert status == 404
        assert json.loads(body)["body"]["code"] == "entry-not-found"

    def test_signed_client_reads_observability(self, observability_auth):
        setting, server = observability_auth
        client = RemoteGateway(
            server.http_url, setting.group, tenant="clinic-a", secret="a" * 64
        )
        assert client.snapshot().requests_total >= 0
        assert isinstance(client.events_tail(), list)
        assert "repro_gateway_requests_total" in client.metrics_text()
        client.close()


class _ReentrancyProbeRng(random.Random):
    """A drop-in RNG whose draws detect unserialized concurrent entry.

    ``random()`` widens its critical section with a scheduler yield, the
    way any multi-step pure-python generator (or a future PEP-703
    free-threaded build) would.  If callers do not hold a lock around
    the draw, overlapping entries are recorded in ``overlaps`` — which
    is exactly the race the sampling lock exists to prevent.  The value
    sequence stays that of ``random.Random(seed)``.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self._inside = 0
        self.overlaps = 0
        self._probe_lock = threading.Lock()

    def random(self):
        with self._probe_lock:
            self._inside += 1
            if self._inside > 1:
                self.overlaps += 1
        try:
            time.sleep(0.0005)  # hold the generator open across a yield
            return super().random()
        finally:
            with self._probe_lock:
                self._inside -= 1


class _Forwarding:
    """A gateway hosted as a fleet router is: not a ReEncryptionGateway,
    so the server runs its calls on the worker pool, concurrently."""

    def __init__(self, gateway):
        self._gateway = gateway

    def __getattr__(self, name):
        return getattr(self._gateway, name)


class TestTraceSamplingDeterminism:
    """Regression: both sampling RNGs drew without a lock; concurrent
    draws interleaved inside the generator, so the deterministic seeded
    sequence (and its exact-count guarantee) could not be relied on.
    Hammer both ends with a reentrancy-probing RNG: the probe records
    unserialized entries, and the sampled counts must equal the
    sequential reference exactly."""

    def test_client_sampling_exact_count_under_threads(self, group):
        client = RemoteGateway("http://127.0.0.1:9", group, trace_requests=0.5)
        client._trace_rng = _ReentrancyProbeRng(0xC11E27)
        draws_per_thread, n_threads = 100, 16
        total = draws_per_thread * n_threads
        reference = random.Random(0xC11E27)
        expected = sum(reference.random() < 0.5 for _ in range(total))
        counts = []
        lock = threading.Lock()

        def worker():
            sampled = sum(client._sample_trace() for _ in range(draws_per_thread))
            with lock:
                counts.append(sampled)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert client._trace_rng.overlaps == 0, (
            "%d sampling draws entered the RNG concurrently"
            % client._trace_rng.overlaps
        )
        assert sum(counts) == expected

    def test_server_sampling_exact_count_under_threads(self):
        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=1,
            n_delegatees=1,
            n_types=1,
            ciphertexts_per_pair=1,
            seed="wire-sampling",
        )
        # Hosted as forwarding, every draw runs on a pool thread; a plain
        # gateway's single requests would all draw on the event loop.
        with AsyncGatewayServer(
            _Forwarding(setting.gateway), setting.group, trace_sample=0.5
        ) as server:
            probe = _ReentrancyProbeRng(0x5EED)
            server.engine._trace_rng = probe
            request = _request_stream(setting)[0]
            body = to_wire(setting.group, request).encode("utf-8")
            traces = [TraceContext.generate() for _ in range(96)]
            errors = []

            def worker(chunk):
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=30.0
                )
                try:
                    for trace in chunk:
                        conn.request(
                            "POST",
                            "/v1/reencrypt",
                            body=body,
                            headers={
                                "Content-Type": "application/json",
                                TRACE_HEADER: trace.to_header(),
                            },
                        )
                        response = conn.getresponse()
                        response.read()
                        if response.status != 200:
                            errors.append(response.status)
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=worker, args=(traces[i::16],))
                for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert probe.overlaps == 0, (
                "%d pool threads entered the sampling RNG concurrently"
                % probe.overlaps
            )
            reference = random.Random(0x5EED)
            expected = sum(reference.random() < 0.5 for _ in range(len(traces)))
            sampled = sum(
                1 for trace in traces if setting.gateway.tracer.trace(trace.trace_id)
            )
            assert sampled == expected
        setting.gateway.close()


class TestIdempotencyTakeover:
    """Regression: a waiter that took over a stuck key raced the stale
    executor's completion, which released the fresh claim and recorded
    the stale payload — letting a third retry execute the mutation again."""

    KEY = ("tipre/v1", "revoke", "req-1")

    def test_stale_completion_neither_records_nor_releases(self):
        window = IdempotencyWindow(wait_timeout=0.05)
        cached, stale_owner = window.claim(self.KEY)
        assert cached is None and stale_owner is not None

        outcome = {}
        done = threading.Event()

        def taker():
            outcome["claim"] = window.claim(self.KEY)  # times out, takes over
            done.set()

        thread = threading.Thread(target=taker)
        thread.start()
        assert done.wait(10.0)
        thread.join(5.0)
        cached2, fresh_owner = outcome["claim"]
        assert cached2 is None
        assert fresh_owner is not None and fresh_owner is not stale_owner
        assert window.takeovers == 1

        # The slow original finally finishes: its payload must not be
        # recorded and the taker's in-flight claim must stay claimed.
        window.complete(self.KEY, stale_owner, '"stale-payload"')
        assert window.stale_completions == 1
        assert self.KEY not in window._entries
        assert window._inflight[self.KEY] is fresh_owner

        # The taker's completion is the one a retry replays.
        window.complete(self.KEY, fresh_owner, '"taker-payload"')
        cached3, token3 = window.claim(self.KEY)
        assert token3 is None and cached3 == '"taker-payload"'
        assert window.hits == 1

    def test_failed_execution_releases_without_recording(self):
        window = IdempotencyWindow(wait_timeout=0.05)
        _cached, owner = window.claim(self.KEY)
        window.complete(self.KEY, owner, None)
        cached, retry_owner = window.claim(self.KEY)
        assert cached is None and retry_owner is not None
        window.complete(self.KEY, retry_owner, '"second-try"')
        assert window.claim(self.KEY) == ('"second-try"', None)

    def test_duplicate_waits_for_first_execution(self):
        window = IdempotencyWindow()
        _cached, owner = window.claim(self.KEY)
        got = {}
        done = threading.Event()

        def duplicate():
            got["claim"] = window.claim(self.KEY)
            done.set()

        thread = threading.Thread(target=duplicate)
        thread.start()
        assert not done.wait(0.1), "duplicate executed during the first flight"
        window.complete(self.KEY, owner, '"first-outcome"')
        assert done.wait(10.0)
        thread.join(5.0)
        assert got["claim"] == ('"first-outcome"', None)
