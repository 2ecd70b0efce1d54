"""Re-encryption at canonical bytes: deferred square roots, encoded views
and the byte-keyed result cache.

A request off the wire is checked to the last structural detail but kept
as bytes; the gateway decompresses its ciphertext only when the result
cache misses, and answers a hit with the bytes it cached.  The
``g1_decompress`` operation counts the square roots that decompressing a
G1 point costs.
"""

from __future__ import annotations

import base64
import json
import threading

import pytest

from repro.bench.counters import count_operations
from repro.core.api import Encoded, EncodedCiphertext
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import (
    GrantRequest,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptRequest,
)
from repro.service.wire import from_wire, to_wire


def _decompressions(action) -> int:
    with count_operations() as counter:
        action()
    return counter.get("g1_decompress")


def _off_curve_x(group) -> int:
    """The smallest x with no point on the curve (its square root fails)."""
    return next(x for x in range(1, 1000) if group.params.curve.lift_x(x) is None)


@pytest.fixture()
def setting():
    built = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=2,
        seed="canonical-bytes",
    )
    yield built
    built.gateway.close()


def _request(setting, pair=0, entry=0, delegatee=0) -> ReEncryptRequest:
    (patient, _type_label), entries = sorted(setting.pool.items())[pair]
    return ReEncryptRequest(
        tenant=patient,
        ciphertext=entries[entry][0],
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=setting.delegatees[delegatee],
    )


def _key_for(gateway, request: ReEncryptRequest):
    ciphertext = request.ciphertext
    return next(
        key
        for key in gateway.list_keys()
        if (key.delegator, key.delegatee, key.type_label)
        == (ciphertext.identity, request.delegatee, ciphertext.type_label)
    )


def _off_wire(setting, request: ReEncryptRequest) -> ReEncryptRequest:
    backend = setting.gateway.backend
    return from_wire(backend, to_wire(backend, request), expect=ReEncryptRequest)


def _with_off_curve_c1(setting, request: ReEncryptRequest) -> str:
    """``request`` on the wire, its c1 replaced by an x off the curve."""
    group, backend = setting.group, setting.gateway.backend
    message = json.loads(to_wire(backend, request))
    envelope = message["body"]["ciphertext"]
    blob = base64.b64decode(envelope["payload"])
    canonical = group.serialize_g1(request.ciphertext.c1)
    tampered = b"\x00" + _off_curve_x(group).to_bytes(len(canonical) - 1, "big")
    assert blob.count(canonical) == 1
    envelope["payload"] = base64.b64encode(blob.replace(canonical, tampered)).decode()
    return json.dumps(message)


class TestDeferredSquareRoots:
    def test_decoding_a_point_records_one_decompression(self, group, rng):
        point = group.random_g1(rng)
        data = group.serialize_g1(point)
        assert _decompressions(lambda: group.deserialize_g1(data)) == 1
        identity = group.serialize_g1(group.g1_identity())
        assert _decompressions(lambda: group.deserialize_g1(identity)) == 0

    def test_deferred_block_runs_every_structural_check(self, group, rng):
        size = group.g1_element_size() - 1
        off_curve = b"\x00" + _off_curve_x(group).to_bytes(size, "big")
        valid = group.serialize_g1(group.random_g1(rng))
        zero_y_odd = b"\x01" + b"\x00" * size  # (0, 0) is on y^2 = x^3 + x
        rejected = {
            b"\x03" + valid[1:]: "tag",
            b"\x02" + valid[1:]: "payload",
            b"\x00" + group.params.p.to_bytes(size, "big"): "not reduced",
            zero_y_odd: "not canonical",
            valid[:-1]: "length",
        }
        with group.deferred_square_roots():
            assert group.deserialize_g1(valid) is None
            assert group.deserialize_g1(off_curve) is None  # needs the root to refuse
            for data, reason in rejected.items():
                with pytest.raises(ValueError, match=reason):
                    group.deserialize_g1(data)
        with pytest.raises(ValueError, match="not on the curve"):
            group.deserialize_g1(off_curve)
        for data, reason in rejected.items():
            with pytest.raises(ValueError, match=reason):
                group.deserialize_g1(data)

    def test_known_points_answer_without_a_square_root(self, group, rng):
        sent, received = group.random_g1(rng), group.random_g1(rng)
        points: dict = {}
        with group.known_points(points):
            encoded = group.serialize_g1(sent)  # files the point it encodes
            assert _decompressions(lambda: group.deserialize_g1(encoded)) == 0
            incoming = group.serialize_g1(received)
            points.pop(incoming)
            assert _decompressions(lambda: group.deserialize_g1(incoming)) == 1
            assert _decompressions(lambda: group.deserialize_g1(incoming)) == 0
        assert group.deserialize_g1(encoded) == sent
        assert _decompressions(lambda: group.deserialize_g1(encoded)) == 1

    def test_known_points_belong_to_one_thread(self, group, rng):
        point = group.random_g1(rng)
        points: dict = {}
        seen = []
        with group.known_points(points):
            data = group.serialize_g1(point)
            other = threading.Thread(
                target=lambda: seen.append(_decompressions(lambda: group.deserialize_g1(data)))
            )
            other.start()
            other.join()
        assert seen == [1]

    def test_bound_decoder_keeps_its_points_on_any_thread(self, group, rng):
        point = group.random_g1(rng)
        points: dict = {}
        with group.known_points(points):
            data = group.serialize_g1(point)
            decode = group.bind_known_points(group.deserialize_g1)
        results = []
        other = threading.Thread(
            target=lambda: results.append(_decompressions(lambda: results.append(decode(data))))
        )
        other.start()
        other.join()
        assert results == [point, 0]
        assert group.bind_known_points(group.deserialize_g1) == group.deserialize_g1


class TestEncodedViews:
    def test_encoded_ciphertext_reads_its_header_without_decoding(self, setting):
        request = _request(setting)
        ciphertext = request.ciphertext
        blob = setting.gateway.backend.serialize_ciphertext(ciphertext)
        encoded = _decompressions(lambda: _off_wire(setting, request))
        assert encoded == 0
        view = _off_wire(setting, request).ciphertext
        assert isinstance(view, EncodedCiphertext) and view.blob == blob
        assert (view.domain, view.identity, view.type_label) == ciphertext.header()
        assert _decompressions(lambda: view.c1) == 1  # a component read decodes
        assert view.element == ciphertext and view.c1 == ciphertext.c1

    def test_equality_and_hash_follow_the_envelope(self, setting):
        request = _request(setting)
        backend = setting.gateway.backend
        first = _off_wire(setting, request)
        second = _off_wire(setting, request)
        assert first == request and request == first  # decoded either side
        assert _decompressions(lambda: first.ciphertext == second.ciphertext) == 0
        assert hash(first.ciphertext) == hash(request.ciphertext)
        other = _off_wire(setting, _request(setting, entry=1))
        assert first.ciphertext != other.ciphertext
        assert repr(first.ciphertext) == "EncodedCiphertext(%d bytes)" % len(
            backend.serialize_ciphertext(request.ciphertext)
        )

    def test_encoded_reencrypted_decodes_on_first_read(self, setting):
        backend = setting.gateway.backend
        result = setting.gateway.reencrypt(_request(setting)).ciphertext
        assert isinstance(result, Encoded)
        view = backend.encoded_reencrypted(result.blob)
        assert view == result.element and view.delegatee == result.delegatee
        assert backend.reencrypted_bytes(view) == result.blob


class TestGatewayAtCanonicalBytes:
    def test_a_hit_decompresses_nothing_and_a_miss_once(self, setting):
        gateway = setting.gateway
        request = _request(setting)
        miss = _off_wire(setting, request)
        responses = []
        assert _decompressions(lambda: responses.append(gateway.reencrypt(miss))) == 1
        assert _decompressions(lambda: responses.append(gateway.reencrypt(miss))) == 0
        first, second = responses
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert second.ciphertext.blob == first.ciphertext.blob
        expected = gateway.backend.reencrypt(request.ciphertext, _key_for(gateway, request))
        assert second.ciphertext == expected

    def test_wire_and_in_process_requests_share_one_entry(self, setting):
        gateway = setting.gateway
        request = _request(setting)
        in_process = gateway.reencrypt(request)
        over_wire = gateway.reencrypt(_off_wire(setting, request))
        assert not in_process.cache_hit and over_wire.cache_hit
        assert over_wire.ciphertext == in_process.ciphertext

    def test_undecodable_ciphertext_is_refused_on_a_miss(self, setting):
        gateway = setting.gateway
        request = from_wire(gateway.backend, _with_off_curve_c1(setting, _request(setting)))
        before = gateway.snapshot()
        with pytest.raises(InvalidRequestError) as caught:
            gateway.reencrypt(request)
        assert str(caught.value) == "field 'ciphertext': x-coordinate is not on the curve"
        after = gateway.snapshot()
        assert after.rejected == before.rejected + 1
        assert after.caches["result_cache"].size == 0

    def test_batch_with_an_undecodable_item_has_no_side_effect(self, setting):
        gateway = setting.gateway
        good = _off_wire(setting, _request(setting))
        bad = from_wire(gateway.backend, _with_off_curve_c1(setting, _request(setting, pair=1)))
        logs = {name: len(gateway.shard_named(name).log) for name in gateway.shard_names}
        with pytest.raises(InvalidRequestError, match="not on the curve"):
            gateway.reencrypt_batch([good, bad])
        assert gateway.cache_stats()["result_cache"].size == 0
        assert {name: len(gateway.shard_named(name).log) for name in gateway.shard_names} == logs

    def test_undecodable_ciphertext_is_refused_before_admission(self, setting):
        """Bytes that do not decode get invalid-request even from a tenant
        over its rate budget, and spend none of the budget."""
        gateway = setting.gateway
        good = _off_wire(setting, _request(setting))
        bad = from_wire(gateway.backend, _with_off_curve_c1(setting, _request(setting)))
        gateway.set_rate_limit(1e-6, burst=1.0)

        def refused():
            with pytest.raises(InvalidRequestError, match="not on the curve"):
                gateway.reencrypt(bad)
            with pytest.raises(InvalidRequestError, match="not on the curve"):
                gateway.reencrypt_batch([good, bad])

        refused()
        gateway.reencrypt(good)  # the refusals left the one token unspent
        refused()
        with pytest.raises(RateLimitedError):
            gateway.reencrypt(good)

    def test_a_cached_batch_item_is_not_decoded(self, setting):
        gateway = setting.gateway
        requests = [_off_wire(setting, _request(setting, entry=i)) for i in (0, 1)]
        gateway.reencrypt(requests[0])
        responses = []
        assert _decompressions(
            lambda: responses.extend(gateway.reencrypt_batch(requests))
        ) == 1
        assert [r.cache_hit for r in responses] == [True, False]

    def test_grant_drops_only_its_delegations_results(self, setting):
        gateway = setting.gateway
        kept = [_request(setting, entry=i, delegatee=0) for i in (0, 1)]
        dropped = [_request(setting, entry=i, delegatee=1) for i in (0, 1)]
        for request in kept + dropped:
            gateway.reencrypt(request)
        gateway.grant(GrantRequest(tenant="t", proxy_key=_key_for(gateway, dropped[0])))
        assert gateway.cache_stats()["result_cache"].size == len(kept)
        assert all(gateway.reencrypt(request).cache_hit for request in kept)
        assert not any(gateway.reencrypt(request).cache_hit for request in dropped)
