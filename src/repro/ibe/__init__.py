"""Boneh--Franklin identity-based encryption and KGC infrastructure."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "boneh_franklin": ("BonehFranklinIbe",),
        "full_ident": ("DecryptionError", "FullIdentCiphertext", "FullIdentIbe"),
        "threshold": ("KeyShareServer", "PartialKey", "ThresholdKgc"),
        "kgc": ("KeyGenerationCenter", "KgcRegistry"),
        "keys": (
            "IbeByteCiphertext",
            "IbeCiphertext",
            "IbeMasterKey",
            "IbeParams",
            "IbePrivateKey",
        ),
    },
)

__all__ = [
    "BonehFranklinIbe",
    "KeyGenerationCenter",
    "KgcRegistry",
    "IbeParams",
    "IbeMasterKey",
    "IbePrivateKey",
    "IbeCiphertext",
    "IbeByteCiphertext",
    "FullIdentIbe",
    "FullIdentCiphertext",
    "DecryptionError",
    "ThresholdKgc",
    "KeyShareServer",
    "PartialKey",
]
