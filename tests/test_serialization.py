"""Round-trip and malformed-input tests for the serialization layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hybrid.kem import HybridPre
from repro.serialization.containers import (
    KIND_PARAMS,
    KIND_PRIVATE_KEY,
    KIND_TYPED_CIPHERTEXT,
    deserialize_hybrid,
    deserialize_hybrid_reencrypted,
    deserialize_ibe_ciphertext,
    deserialize_params,
    deserialize_private_key,
    deserialize_proxy_key,
    deserialize_reencrypted,
    deserialize_typed_ciphertext,
    from_json_envelope,
    serialize_hybrid,
    serialize_hybrid_reencrypted,
    serialize_ibe_ciphertext,
    serialize_params,
    serialize_private_key,
    serialize_proxy_key,
    serialize_reencrypted,
    serialize_typed_ciphertext,
    to_json_envelope,
)
from repro.serialization.encoding import MAGIC, EncodingError, Reader, Writer


class TestEncodingPrimitives:
    def test_writer_reader_round_trip(self):
        blob = (
            Writer(7)
            .write_str("hello")
            .write_bytes(b"\x00\x01")
            .write_int(123456789)
            .getvalue()
        )
        reader = Reader(blob, 7)
        assert reader.read_str() == "hello"
        assert reader.read_bytes() == b"\x00\x01"
        assert reader.read_int() == 123456789
        reader.finish()

    def test_magic_and_version_in_header(self):
        blob = Writer(3).getvalue()
        assert blob[:4] == MAGIC
        assert blob[4] == 1
        assert blob[5] == 3

    def test_bad_magic(self):
        with pytest.raises(EncodingError):
            Reader(b"XXXX\x01\x01aaaa", 1)

    def test_bad_version(self):
        with pytest.raises(EncodingError):
            Reader(MAGIC + b"\x09\x01", 1)

    def test_wrong_kind(self):
        blob = Writer(1).getvalue()
        with pytest.raises(EncodingError):
            Reader(blob, 2)

    def test_too_short(self):
        with pytest.raises(EncodingError):
            Reader(b"TIP", 1)

    def test_truncated_field(self):
        blob = Writer(1).write_bytes(b"abcdef").getvalue()
        with pytest.raises(EncodingError):
            Reader(blob[:-3], 1).read_bytes()

    def test_truncated_length_prefix(self):
        blob = Writer(1).getvalue() + b"\x00\x00"
        with pytest.raises(EncodingError):
            Reader(blob, 1).read_bytes()

    def test_trailing_bytes_rejected(self):
        blob = Writer(1).write_str("x").getvalue() + b"junk"
        reader = Reader(blob, 1)
        reader.read_str()
        with pytest.raises(EncodingError):
            reader.finish()

    def test_negative_int_rejected(self):
        with pytest.raises(EncodingError):
            Writer(1).write_int(-1)

    def test_bad_kind_byte(self):
        with pytest.raises(ValueError):
            Writer(300)

    @pytest.mark.parametrize("field", [b"", b"\x00\x05", b"\x00\x00"], ids=repr)
    def test_only_minimal_integers_are_read(self, field):
        """write_int writes one zero byte for 0 and no leading zero, so
        no other spelling of an integer may decode."""
        with pytest.raises(EncodingError, match="minimally"):
            Reader(Writer(1).write_bytes(field).getvalue(), 1).read_int()

    def test_zero_is_one_zero_byte(self):
        blob = Writer(1).write_int(0).getvalue()
        assert blob.endswith(b"\x00\x00\x00\x01\x00")
        assert Reader(blob, 1).read_int() == 0

    @given(st.binary(max_size=100), st.text(max_size=50), st.integers(min_value=0, max_value=2**128))
    def test_round_trip_property(self, data, text, number):
        blob = Writer(9).write_bytes(data).write_str(text).write_int(number).getvalue()
        reader = Reader(blob, 9)
        assert reader.read_bytes() == data
        assert reader.read_str() == text
        assert reader.read_int() == number
        reader.finish()


@pytest.fixture()
def objects(pre_setting, group, rng):
    """One of everything serialisable."""
    scheme, kgc1, kgc2, alice, bob = pre_setting
    message = group.random_gt(rng)
    typed = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
    proxy_key = scheme.pextract(alice, "bob", "labs", kgc2.params, rng)
    reencrypted = scheme.preenc(typed, proxy_key)
    hybrid_scheme = HybridPre(group, scheme)
    hybrid = hybrid_scheme.encrypt(kgc1.params, alice, b"payload", "labs", rng)
    hybrid_re = hybrid_scheme.reencrypt(hybrid, proxy_key)
    return {
        "typed": typed,
        "proxy_key": proxy_key,
        "reencrypted": reencrypted,
        "ibe": proxy_key.encrypted_blind,
        "key": alice,
        "params": kgc1.params,
        "hybrid": hybrid,
        "hybrid_re": hybrid_re,
    }


class TestContainerRoundTrips:
    def test_typed_ciphertext(self, group, objects):
        blob = serialize_typed_ciphertext(group, objects["typed"])
        assert deserialize_typed_ciphertext(group, blob) == objects["typed"]

    def test_proxy_key(self, group, objects):
        blob = serialize_proxy_key(group, objects["proxy_key"])
        assert deserialize_proxy_key(group, blob) == objects["proxy_key"]

    def test_reencrypted(self, group, objects):
        blob = serialize_reencrypted(group, objects["reencrypted"])
        assert deserialize_reencrypted(group, blob) == objects["reencrypted"]

    def test_ibe_ciphertext(self, group, objects):
        blob = serialize_ibe_ciphertext(group, objects["ibe"])
        assert deserialize_ibe_ciphertext(group, blob) == objects["ibe"]

    def test_private_key(self, group, objects):
        blob = serialize_private_key(group, objects["key"])
        assert deserialize_private_key(group, blob) == objects["key"]

    def test_params(self, group, objects):
        blob = serialize_params(group, objects["params"])
        assert deserialize_params(group, blob) == objects["params"]

    def test_hybrid(self, group, objects):
        blob = serialize_hybrid(group, objects["hybrid"])
        assert deserialize_hybrid(group, blob) == objects["hybrid"]

    def test_hybrid_reencrypted(self, group, objects):
        blob = serialize_hybrid_reencrypted(group, objects["hybrid_re"])
        assert deserialize_hybrid_reencrypted(group, blob) == objects["hybrid_re"]

    def test_canonical_encoding_is_stable(self, group, objects):
        assert serialize_typed_ciphertext(group, objects["typed"]) == serialize_typed_ciphertext(
            group, objects["typed"]
        )

    def test_kind_confusion_rejected(self, group, objects):
        blob = serialize_typed_ciphertext(group, objects["typed"])
        with pytest.raises(EncodingError):
            deserialize_proxy_key(group, blob)

    def test_deserialized_objects_still_work(self, pre_setting, group, objects, rng):
        """A proxy key that crossed the wire still re-encrypts correctly."""
        scheme, _, _, alice, bob = pre_setting
        key_blob = serialize_proxy_key(group, objects["proxy_key"])
        ct_blob = serialize_typed_ciphertext(group, objects["typed"])
        restored_key = deserialize_proxy_key(group, key_blob)
        restored_ct = deserialize_typed_ciphertext(group, ct_blob)
        transformed = scheme.preenc(restored_ct, restored_key)
        original = scheme.decrypt(objects["typed"], alice)
        assert scheme.decrypt_reencrypted(transformed, bob) == original

    def test_wrong_group_params_rejected(self, group, objects):
        from repro.pairing.group import PairingGroup

        other = PairingGroup("SS256")
        blob = serialize_params(group, objects["params"])
        with pytest.raises(EncodingError):
            deserialize_params(other, blob)


class TestJsonEnvelope:
    def test_round_trip(self, group, objects):
        blob = serialize_typed_ciphertext(group, objects["typed"])
        envelope = to_json_envelope(group, blob)
        assert from_json_envelope(group, envelope) == blob

    def test_envelope_metadata(self, group, objects):
        import json

        envelope = json.loads(to_json_envelope(group, serialize_private_key(group, objects["key"])))
        assert envelope["kind"] == "private-key"
        assert envelope["group"] == "TOY"
        assert envelope["format"] == "tipre/v1"

    def test_unknown_kind_rejected(self, group):
        with pytest.raises(EncodingError):
            to_json_envelope(group, MAGIC + bytes([1, 99]))

    def test_bad_json_rejected(self, group):
        with pytest.raises(EncodingError):
            from_json_envelope(group, "{not json")

    def test_wrong_format_rejected(self, group):
        with pytest.raises(EncodingError):
            from_json_envelope(group, '{"format": "other", "group": "TOY", "payload": ""}')

    def test_wrong_group_rejected(self, group, objects):
        from repro.pairing.group import PairingGroup

        envelope = to_json_envelope(group, serialize_params(group, objects["params"]))
        with pytest.raises(EncodingError):
            from_json_envelope(PairingGroup("SS256"), envelope)

    def test_bad_base64_rejected(self, group):
        with pytest.raises(EncodingError):
            from_json_envelope(
                group, '{"format": "tipre/v1", "group": "TOY", "payload": "!!!"}'
            )
