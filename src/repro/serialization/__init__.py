"""Canonical serialization for keys, ciphertexts and proxy keys."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "containers": (
            "deserialize_hybrid",
            "deserialize_hybrid_reencrypted",
            "deserialize_ibe_ciphertext",
            "deserialize_params",
            "deserialize_private_key",
            "deserialize_proxy_key",
            "deserialize_reencrypted",
            "deserialize_typed_ciphertext",
            "from_json_envelope",
            "serialize_hybrid",
            "serialize_hybrid_reencrypted",
            "serialize_ibe_ciphertext",
            "serialize_params",
            "serialize_private_key",
            "serialize_proxy_key",
            "serialize_reencrypted",
            "serialize_typed_ciphertext",
            "to_json_envelope",
        ),
        "encoding": ("MAGIC", "VERSION", "EncodingError", "Reader", "Writer"),
    },
)

__all__ = [
    "Writer",
    "Reader",
    "EncodingError",
    "MAGIC",
    "VERSION",
    "serialize_typed_ciphertext",
    "deserialize_typed_ciphertext",
    "serialize_proxy_key",
    "deserialize_proxy_key",
    "serialize_reencrypted",
    "deserialize_reencrypted",
    "serialize_ibe_ciphertext",
    "deserialize_ibe_ciphertext",
    "serialize_private_key",
    "deserialize_private_key",
    "serialize_params",
    "deserialize_params",
    "serialize_hybrid",
    "deserialize_hybrid",
    "serialize_hybrid_reencrypted",
    "deserialize_hybrid_reencrypted",
    "to_json_envelope",
    "from_json_envelope",
]
