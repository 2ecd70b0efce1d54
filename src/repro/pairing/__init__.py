"""Pairing layer: Miller loop, reduced Tate pairing, and the group facade."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "group": ("PairingGroup",),
        "miller": ("MillerPrecomp", "PointOrderError"),
        "tate": (
            "miller_loop",
            "multi_tate_pairing",
            "tate_pairing",
            "tate_pairing_batch",
        ),
    },
)

__all__ = [
    "PairingGroup",
    "MillerPrecomp",
    "PointOrderError",
    "tate_pairing",
    "tate_pairing_batch",
    "multi_tate_pairing",
    "miller_loop",
]
