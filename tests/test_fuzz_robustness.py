"""Fuzz and failure-injection tests: malformed inputs must fail *cleanly*.

A deployed proxy or PHR store feeds attacker-controlled bytes into the
deserializers and decryptors; none of that may crash with an unexpected
exception type, loop, or — worst — silently succeed.
"""

import base64
import functools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid.symmetric import AuthenticationError, open_sealed, seal
from repro.math.drbg import HmacDrbg
from repro.serialization.containers import from_json_envelope
from repro.serialization.encoding import EncodingError
from test_containers import ENTRIES as GOLDEN_CONTAINERS
from test_containers import entry_id, golden_containers


def _codec(entry: dict):
    """A golden container's ``(bytes, encode, decode)``."""
    _value, encode, decode = golden_containers(entry["scheme"])[entry["name"]]
    return bytes.fromhex(entry["hex"]), encode, decode


def _refused_or_canonical(encode, decode, data: bytes) -> None:
    """``data`` is refused with a ValueError, or it decodes to a value
    whose encoding is ``data`` itself."""
    try:
        value = decode(data)
    except ValueError:  # EncodingError included
        return
    assert encode(value) == data, "a second encoding of one value decoded"


_EVERY_CONTAINER = pytest.mark.parametrize("entry", GOLDEN_CONTAINERS, ids=entry_id)


class TestDeserializerFuzz:
    """Every golden container of every scheme, fed hostile bytes: each
    input is refused with a ValueError (EncodingError included), or it
    decodes to a value that re-encodes to exactly those bytes — the
    canonical property the result cache keys on."""

    @_EVERY_CONTAINER
    @given(data=st.data())
    def test_random_bytes(self, entry, data):
        blob, encode, decode = _codec(entry)
        header = data.draw(st.sampled_from([b"", blob[:6]]), label="header")
        _refused_or_canonical(encode, decode, header + data.draw(st.binary(max_size=300)))

    @_EVERY_CONTAINER
    def test_every_truncation_is_refused(self, entry):
        blob, _encode, decode = _codec(entry)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode(blob[:cut])

    @_EVERY_CONTAINER
    def test_every_byte_mutated(self, entry):
        """Each byte set to 0 and to 255, and with its low bit, its high bit
        and all its bits flipped: a zero byte ahead of an integer is a
        second encoding."""
        blob, encode, decode = _codec(entry)
        for position, byte in enumerate(blob):
            for value in {0x00, 0xFF, byte ^ 0x01, byte ^ 0x80, byte ^ 0xFF} - {byte}:
                mutated = blob[:position] + bytes([value]) + blob[position + 1 :]
                _refused_or_canonical(encode, decode, mutated)

    @_EVERY_CONTAINER
    @settings(max_examples=100)
    @given(data=st.data())
    def test_any_byte_set_to_any_value(self, entry, data):
        blob, encode, decode = _codec(entry)
        position = data.draw(st.integers(0, len(blob) - 1), label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[position]))
        mutated = blob[:position] + bytes([value]) + blob[position + 1 :]
        _refused_or_canonical(encode, decode, mutated)

    @given(st.text(max_size=200))
    def test_random_text_never_crashes_envelope(self, group, text):
        try:
            from_json_envelope(group, text)
        except EncodingError:
            pass


class TestDemFuzz:
    KEY = bytes(32)

    @given(st.binary(max_size=200))
    def test_random_blobs_never_open(self, data):
        with pytest.raises(AuthenticationError):
            open_sealed(self.KEY, data)

    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=0, max_value=10**6))
    def test_bitflip_anywhere_rejected(self, plaintext, position_seed):
        rng = HmacDrbg(plaintext)
        sealed = bytearray(seal(self.KEY, plaintext, rng=rng))
        position = position_seed % len(sealed)
        sealed[position] ^= 0x01
        with pytest.raises(AuthenticationError):
            open_sealed(self.KEY, bytes(sealed))


class TestSchemeInputFuzz:
    @given(st.text(max_size=64))
    def test_arbitrary_type_labels_round_trip(self, group, type_label):
        rng = HmacDrbg("fuzz-types|" + type_label)
        from repro.core.scheme import TypeAndIdentityPre
        from repro.ibe.kgc import KgcRegistry

        registry = KgcRegistry(group, rng)
        kgc = registry.create("K")
        alice = kgc.extract("alice")
        scheme = TypeAndIdentityPre(group)
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc.params, alice, message, type_label, rng)
        assert scheme.decrypt(ciphertext, alice) == message

    @given(st.text(min_size=1, max_size=64))
    def test_arbitrary_identities_work(self, group, identity):
        rng = HmacDrbg("fuzz-ids|" + identity)
        from repro.ibe.kgc import KgcRegistry

        registry = KgcRegistry(group, rng)
        kgc = registry.create("K")
        key = kgc.extract(identity)
        assert group.params.is_in_subgroup(key.point)

    @given(st.text(max_size=32), st.text(max_size=32))
    def test_distinct_types_always_isolated(self, group, type_a, type_b):
        if type_a == type_b:
            return
        rng = HmacDrbg("fuzz-iso|%s|%s" % (type_a, type_b))
        from repro.core.scheme import TypeAndIdentityPre
        from repro.ibe.kgc import KgcRegistry

        registry = KgcRegistry(group, rng)
        kgc1, kgc2 = registry.create("K1"), registry.create("K2")
        alice, bob = kgc1.extract("alice"), kgc2.extract("bob")
        scheme = TypeAndIdentityPre(group)
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc1.params, alice, message, type_a, rng)
        proxy_key = scheme.pextract(alice, "bob", type_b, kgc2.params, rng)
        mixed = scheme.preenc(ciphertext, proxy_key, unchecked=True)
        assert scheme.decrypt_reencrypted(mixed, bob) != message


# ------------------------------------------- re-encrypt requests off the wire


@functools.lru_cache(maxsize=None)
def _wire_universe():
    """Seeded parties and keys, plus one request to cache (built once)."""
    from repro.service.driver import DELEGATEE_DOMAIN, build_setting
    from repro.service.gateway import ReEncryptRequest

    setting = build_setting(
        group_name="TOY", shard_count=2, n_patients=2, n_delegatees=2, n_types=2,
        ciphertexts_per_pair=1, seed="fuzz-wire",
    )
    (patient, _type_label), entries = sorted(setting.pool.items())[0]
    request = ReEncryptRequest(patient, entries[0][0], DELEGATEE_DOMAIN, setting.delegatees[0])
    keys = tuple(setting.gateway.list_keys())
    setting.gateway.close()
    return setting.backend, keys, request


def _primed_gateway():
    """A fresh gateway holding every key, with the universe's request cached."""
    from repro.service.gateway import GrantRequest, ReEncryptionGateway
    from repro.service.wire import to_wire

    backend, keys, request = _wire_universe()
    gateway = ReEncryptionGateway(backend, shard_count=2, telemetry=False)
    for key in keys:
        gateway.grant(GrantRequest(tenant="t", proxy_key=key))
    text = to_wire(backend, request)
    assert [_serve(gateway, text).cache_hit for _ in range(2)] == [False, True]
    return gateway, json.loads(text)


def _serve(gateway, text):
    """``from_wire`` then ``gateway.reencrypt``: a response or the refusal."""
    from repro.service.gateway import (
        DelegationNotFoundError,
        InvalidRequestError,
        ReEncryptRequest,
    )
    from repro.service.wire import from_wire

    try:
        return gateway.reencrypt(from_wire(gateway.backend, text, expect=ReEncryptRequest))
    except (InvalidRequestError, DelegationNotFoundError) as refusal:
        return refusal


def _with_payload(message: dict, blob: bytes) -> str:
    message["body"]["ciphertext"]["payload"] = base64.b64encode(blob).decode("ascii")
    return json.dumps(message)


def _transformation(blob: bytes):
    """The re-encryption of the ciphertext ``blob`` for the universe's delegatee."""
    backend, keys, request = _wire_universe()
    ciphertext = backend.deserialize_ciphertext(blob)
    (key,) = [
        key for key in keys
        if key.matches(ciphertext) and key.delegatee == request.delegatee
    ]
    return backend.reencrypt(ciphertext, key)


def _check_served(gateway, blob: bytes, outcome) -> None:
    """A served answer is a miss, and the transformation of exactly ``blob``."""
    from repro.service.gateway import ReEncryptResponse

    if not isinstance(outcome, ReEncryptResponse):
        return
    assert not outcome.cache_hit
    assert outcome.ciphertext == _transformation(blob)


class TestReEncryptRequestFuzz:
    """``from_wire`` plus ``gateway.reencrypt`` on hostile ciphertext bytes:
    the answer is the cached result for byte-identical input, a fresh
    transformation of exactly the bytes sent, ``invalid-request`` or
    ``no-delegation`` — never another exception, never a stale hit."""

    @settings(max_examples=60)
    @given(st.data())
    def test_arbitrary_payload_bytes(self, data):
        gateway, message = _primed_gateway()
        cached = base64.b64decode(message["body"]["ciphertext"]["payload"])
        # Random bytes are almost never the cached ones, so send those too.
        if data.draw(st.booleans(), label="send the cached bytes"):
            blob = cached
        else:
            blob = data.draw(st.binary(max_size=200), label="blob")
        outcome = _serve(gateway, _with_payload(message, blob))
        if blob == cached:
            assert outcome.cache_hit and outcome.ciphertext == _transformation(blob)
        else:
            _check_served(gateway, blob, outcome)

    @settings(max_examples=150)
    @given(st.data())
    def test_single_byte_mutation_of_a_cached_request(self, data):
        gateway, message = _primed_gateway()
        cached = base64.b64decode(message["body"]["ciphertext"]["payload"])
        position = data.draw(st.integers(0, len(cached) - 1), label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != cached[position]))
        blob = cached[:position] + bytes([value]) + cached[position + 1:]
        outcome = _serve(gateway, _with_payload(message, blob))
        _check_served(gateway, blob, outcome)

    @settings(max_examples=60)
    @given(st.data())
    def test_random_elements_behind_a_valid_header(self, data):
        """Random c1/c2 bytes: structural refusals come from the codec, and
        a c1 whose square root fails is refused on the miss."""
        backend, _keys, request = _wire_universe()
        group = backend.group
        gateway, message = _primed_gateway()
        ciphertext = request.ciphertext
        c1 = data.draw(st.binary(min_size=group.g1_element_size(),
                                 max_size=group.g1_element_size()), label="c1")
        c1 = bytes([data.draw(st.sampled_from([0, 1, 2]), label="tag")]) + c1[1:]
        c2 = data.draw(st.binary(min_size=group.gt_element_size(),
                                 max_size=group.gt_element_size()), label="c2")
        canonical = backend.serialize_ciphertext(ciphertext)
        blob = canonical.replace(group.serialize_g1(ciphertext.c1), c1).replace(
            group.serialize_gt(ciphertext.c2), c2
        )
        outcome = _serve(gateway, _with_payload(message, blob))
        _check_served(gateway, blob, outcome)


# ------------------------------------------- every wire message type, edited

GOLDEN_MESSAGES = Path(__file__).resolve().parent / "data" / "wire_messages.json"
# Stands for a JSON integer one digit longer than the interpreter converts.
_LONG_INTEGER = "long integer"
_LONG_DIGITS = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)
_REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.floats() | st.sampled_from([float("nan"), 10**400, _LONG_INTEGER]),
    st.text(max_size=8),
    st.lists(st.integers() | st.text(max_size=4) | st.none(), max_size=3),
    st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=4), max_size=3),
)


@functools.lru_cache(maxsize=None)
def _golden_wire_messages() -> dict:
    """``{message type: ((scheme id, wire text), ...)}`` from the golden file."""
    by_type: dict = {}
    for entry in json.loads(GOLDEN_MESSAGES.read_text(encoding="utf-8")):
        kind = json.loads(entry["wire"])["type"]
        by_type.setdefault(kind, []).append((entry["scheme"], entry["wire"]))
    return {kind: tuple(entries) for kind, entries in by_type.items()}


@functools.lru_cache(maxsize=None)
def _message_types() -> tuple:
    from repro.service import gateway, metrics
    from repro.service.wire import codec

    return (
        gateway.GatewayError, gateway.GrantRequest, gateway.GrantResponse,
        codec.GrantBatchRequest, codec.GrantBatchResponse, gateway.RevokeRequest,
        gateway.RevokeResponse, gateway.ReEncryptRequest, gateway.ReEncryptResponse,
        codec.ReEncryptBatchRequest, codec.ReEncryptBatchResponse, gateway.FetchRequest,
        gateway.FetchResponse, codec.ResizeRequest, gateway.ResizeReport,
        codec.KeyExportRequest, codec.KeyExportResponse, metrics.MetricsSnapshot,
    )


@functools.lru_cache(maxsize=None)
def _backend(scheme_id: str):
    from repro.core.api import create_backend
    from repro.pairing.group import PairingGroup

    return create_backend(scheme_id, PairingGroup.shared("TOY"))


def _json_paths(value, prefix=()):
    """The path of every member and item below ``value``."""
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        return
    for key, member in members:
        yield prefix + (key,)
        yield from _json_paths(member, prefix + (key,))


def _edit(document: dict, data) -> None:
    """Delete the member or item at a random path, or replace its value."""
    path = data.draw(st.sampled_from(list(_json_paths(document))), label="path")
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_REPLACEMENTS, label="value")


class TestEveryWireMessageFuzz:
    """``from_wire`` on every golden message with one to three edits at
    random paths, ``type`` and ``body`` included: a message of a known type
    comes out, or ``invalid-request``, and nothing else."""

    @pytest.mark.parametrize("kind", sorted(_golden_wire_messages()))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_edited_message_decodes_or_is_invalid_request(self, kind, data):
        from repro.service.gateway import InvalidRequestError
        from repro.service.wire import from_wire

        scheme_id, text = data.draw(st.sampled_from(_golden_wire_messages()[kind]))
        document = json.loads(text)
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            if document:
                _edit(document, data)
        text = json.dumps(document).replace(json.dumps(_LONG_INTEGER), _LONG_DIGITS)
        try:
            decoded = from_wire(_backend(scheme_id), text)
        except InvalidRequestError:
            return
        assert isinstance(decoded, _message_types())
