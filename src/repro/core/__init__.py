"""The paper's core contribution: type-and-identity-based proxy re-encryption."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": (
            "PreBackend",
            "SchemeCapabilities",
            "SchemeRegistry",
            "available_schemes",
            "create_backend",
            "resolve_backend",
        ),
        "ciphertexts": ("ProxyKey", "ReEncryptedCiphertext", "TypedCiphertext"),
        "epochs": ("EpochSchedule", "ExpiredDelegationError", "TemporalPre"),
        "proxy": ("NoProxyKeyError", "ProxyService", "ReEncryptionLogEntry"),
        "scheme": ("DelegationError", "TypeAndIdentityPre", "TypeMismatchError"),
    },
)

__all__ = [
    "PreBackend",
    "SchemeCapabilities",
    "SchemeRegistry",
    "available_schemes",
    "create_backend",
    "resolve_backend",
    "TypeAndIdentityPre",
    "TypedCiphertext",
    "ProxyKey",
    "ReEncryptedCiphertext",
    "ProxyService",
    "NoProxyKeyError",
    "ReEncryptionLogEntry",
    "TypeMismatchError",
    "DelegationError",
    "EpochSchedule",
    "TemporalPre",
    "ExpiredDelegationError",
]
