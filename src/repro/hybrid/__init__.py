"""Hybrid (KEM/DEM) encryption: GT-element KEM + hash-based authenticated DEM."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "kdf": ("hkdf", "hkdf_expand", "hkdf_extract"),
        "kem": ("HybridCiphertext", "HybridPre", "HybridReEncrypted"),
        "symmetric": (
            "KEY_LEN",
            "NONCE_LEN",
            "TAG_LEN",
            "AuthenticationError",
            "open_sealed",
            "seal",
        ),
    },
)

__all__ = [
    "HybridPre",
    "HybridCiphertext",
    "HybridReEncrypted",
    "seal",
    "open_sealed",
    "AuthenticationError",
    "hkdf",
    "hkdf_extract",
    "hkdf_expand",
    "KEY_LEN",
    "NONCE_LEN",
    "TAG_LEN",
]
