"""Jacobian-coordinate point arithmetic over prime fields, on raw integers.

A Jacobian triple ``(X, Y, Z)`` represents the affine point
``(X / Z^2, Y / Z^3)``; the identity is any triple with ``Z == 0``.  The
payoff over the affine formulas in :mod:`repro.ec.curve` is that *no*
field inversion is needed per group operation — a doubling costs ~11
multiplications and an addition ~16, versus one extended-Euclid inversion
(tens of multiplications' worth) per affine step.  The single inversion
is deferred to the end and, when many points need normalising at once,
shared across all of them via Montgomery's batch-inversion trick
(:func:`repro.math.ntheory.batch_modinv`).

Everything here operates on raw integers (or bigint-backend values), not
:class:`~repro.math.fields.FpElement` objects: the object layer's
``__init__``/coercion overhead is what makes pure-python affine
arithmetic slow, so the hot kernels bypass it entirely.  The affine code
remains the conformance reference; ``tests/test_substrate_paths.py``
asserts bit-identical normalised results on every pinned parameter set.
"""

from __future__ import annotations

from repro.math.ntheory import batch_modinv, modinv

__all__ = [
    "JAC_INFINITY",
    "jac_double",
    "jac_add",
    "jac_add_mixed",
    "jac_neg",
    "to_jacobian",
    "jac_normalize",
    "batch_normalize",
    "jac_scalar_mul",
]

# Canonical identity triple (any Z == 0 triple is treated as infinity).
JAC_INFINITY = (1, 1, 0)


def to_jacobian(x: int, y: int):
    """Lift affine integer coordinates to a Jacobian triple."""
    return (x, y, 1)


def jac_neg(point, p: int):
    x, y, z = point
    return (x, (-y) % p, z)


def jac_double(point, a: int, p: int):
    """Double a Jacobian point on ``y^2 = x^3 + a*x + b`` (``b`` unused)."""
    x1, y1, z1 = point
    if z1 == 0 or y1 == 0:
        return JAC_INFINITY
    yy = y1 * y1 % p
    yyyy = yy * yy % p
    zz = z1 * z1 % p
    s = 4 * x1 * yy % p
    m = (3 * x1 * x1 + a * zz % p * zz) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * yyyy) % p
    z3 = 2 * y1 * z1 % p
    return (x3, y3, z3)


def jac_add(left, right, a: int, p: int):
    """General Jacobian + Jacobian addition."""
    x1, y1, z1 = left
    x2, y2, z2 = right
    if z1 == 0:
        return right
    if z2 == 0:
        return left
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    u2 = x2 * z1z1 % p
    s1 = y1 * z2 % p * z2z2 % p
    s2 = y2 * z1 % p * z1z1 % p
    if u1 == u2:
        if (s1 + s2) % p == 0:
            return JAC_INFINITY
        return jac_double(left, a, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - s1 * hhh) % p
    z3 = z1 * z2 % p * h % p
    return (x3, y3, z3)


def jac_add_mixed(left, x2: int, y2: int, a: int, p: int):
    """Jacobian + affine addition (``Z2 == 1``); ~5 multiplications cheaper."""
    x1, y1, z1 = left
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * z1 % p * z1z1 % p
    if x1 == u2:
        if (y1 + s2) % p == 0:
            return JAC_INFINITY
        return jac_double(left, a, p)
    h = (u2 - x1) % p
    r = (s2 - y1) % p
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    y3 = (r * (v - x3) - y1 * hhh) % p
    z3 = z1 * h % p
    return (x3, y3, z3)


def jac_normalize(point, p: int):
    """Affine integer coordinates ``(x, y)`` of one triple, or ``None``."""
    x, y, z = point
    if z == 0:
        return None
    z_inv = modinv(z, p)
    zi2 = z_inv * z_inv % p
    return (x * zi2 % p, y * zi2 % p * z_inv % p)


def batch_normalize(points, p: int):
    """Normalise many Jacobian triples with a single field inversion.

    Returns a list of affine ``(x, y)`` pairs (``None`` for identities),
    in input order.
    """
    live = [(i, pt) for i, pt in enumerate(points) if pt[2] != 0]
    out = [None] * len(points)
    if not live:
        return out
    inverses = batch_modinv([pt[2] for _, pt in live], p)
    for (i, (x, y, _)), z_inv in zip(live, inverses):
        zi2 = z_inv * z_inv % p
        out[i] = (x * zi2 % p, y * zi2 % p * z_inv % p)
    return out


def jac_scalar_mul(x: int, y: int, scalar: int, a: int, p: int):
    """``scalar * (x, y)`` by left-to-right double-and-add, one inversion.

    The addend stays affine, so every addition is a mixed add.  Returns
    affine ``(x, y)`` or ``None`` for the identity.  ``scalar`` must be
    non-negative (callers handle negation — it is free on the curve).
    """
    if scalar == 0:
        return None
    acc = JAC_INFINITY
    for bit in bin(scalar)[2:]:
        acc = jac_double(acc, a, p)
        if bit == "1":
            acc = jac_add_mixed(acc, x, y, a, p)
    return jac_normalize(acc, p)
