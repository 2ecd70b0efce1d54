"""Elliptic-curve substrate: curves, points, and type-A pairing parameters."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "curve": ("EllipticCurve", "Point"),
        "jacobian": ("batch_normalize", "jac_scalar_mul"),
        "scalarmult": ("FixedBaseTable", "wnaf_mul", "wnaf_mul_affine"),
        "params": ("available_parameter_sets", "generate_parameters", "get_params"),
        "supersingular": ("SupersingularCurve",),
    },
)

__all__ = [
    "EllipticCurve",
    "Point",
    "FixedBaseTable",
    "wnaf_mul",
    "wnaf_mul_affine",
    "batch_normalize",
    "jac_scalar_mul",
    "SupersingularCurve",
    "get_params",
    "generate_parameters",
    "available_parameter_sets",
]
