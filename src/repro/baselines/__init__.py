"""Baseline schemes from the paper's related-work comparison."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "afgh": ("AfghScheme",),
        "bb1": ("Bb1Ibe",),
        "bbs": ("BbsProxyScheme",),
        "dodis_ivan": ("DodisIvanScheme",),
        "elgamal": ("ElGamal",),
        "green_ateniese": ("GreenAtenieseIbp1",),
        "matsuo": ("MatsuoStylePre",),
        "multi_keypair": ("MultiKeypairDelegation",),
    },
)

__all__ = [
    "ElGamal",
    "BbsProxyScheme",
    "DodisIvanScheme",
    "AfghScheme",
    "GreenAtenieseIbp1",
    "Bb1Ibe",
    "MatsuoStylePre",
    "MultiKeypairDelegation",
]
