"""The affine reference pairing: the textbook Miller loop and a plain
final exponentiation, as the library first computed the reduced Tate
pairing.

The library's pairing (:mod:`repro.pairing.tate`) walks a Jacobian chain
over the non-adjacent form of ``q`` and takes the final exponentiation's
cofactor power by signed window.  Its raw Miller value differs from this
loop's by a factor in F_p*, which the final exponentiation maps to 1, so
the two pairings are bit-identical.  The cross-path tests and the E8
benchmark, whose CI gate times the default path against this one, import
it from here; nothing in the library does.
"""

from __future__ import annotations

from repro.bench.counters import record_operation
from repro.ec.curve import Point
from repro.ec.supersingular import SupersingularCurve
from repro.math.fields import Fp2Element
from repro.math.ntheory import modinv
from repro.pairing.miller import fp2_mul_raw, frobenius_step_raw

__all__ = ["fp2_pow_raw", "miller_loop_affine", "tate_pairing_affine"]


def fp2_square_raw(a, b, p):
    """``(a + b*i)^2`` over F_p[i]: ``(a-b)(a+b) + 2ab*i`` (2 mults)."""
    return (a - b) * (a + b) % p, 2 * a * b % p


def fp2_pow_raw(a, b, exponent, p):
    """``(a + b*i) ** exponent`` by left-to-right square-and-multiply."""
    if exponent == 0:
        return 1 % p, 0
    ra, rb = a % p, b % p
    for bit in bin(exponent)[3:]:
        ra, rb = fp2_square_raw(ra, rb, p)
        if bit == "1":
            ra, rb = fp2_mul_raw(ra, rb, a, b, p)
    return ra, rb


def _line_value(params: SupersingularCurve, t: Point, s: Point, xq: int, yq: int) -> Fp2Element | None:
    """Evaluate the line through ``t`` and ``s`` at the distorted point.

    ``(xq, yq)`` are the base-field coordinates of Q; the evaluation point is
    ``phi(Q) = (-xq, i*yq)``.  Returns ``None`` when the line is vertical
    (its value lies in F_p and is killed by the final exponentiation).
    """
    p = params.p
    xt, yt = int(t.x), int(t.y)
    if t == s:
        if yt == 0:
            return None  # vertical tangent at a 2-torsion point
        slope = (3 * xt * xt + 1) * modinv(2 * yt, p) % p
    else:
        xs, ys = int(s.x), int(s.y)
        if xt == xs:
            return None  # vertical secant (s == -t)
        slope = (ys - yt) * modinv((xs - xt) % p, p) % p
    # l(phi(Q)) = y_phi - yt - slope * (x_phi - xt) with x_phi = -xq in F_p
    # and y_phi = yq * i, so the value is (-yt - slope*(-xq - xt)) + yq*i.
    real = (-yt - slope * ((-xq - xt) % p)) % p
    return Fp2Element(params.ext_field, real, yq)


def miller_loop_affine(params: SupersingularCurve, point: Point, xq: int, yq: int) -> Fp2Element:
    """``f_{q,P}(phi(Q))`` by the affine textbook loop (reference path)."""
    ext = params.ext_field
    f = ext.one()
    t = point
    bits = bin(params.q)[3:]  # skip the leading 1: standard left-to-right loop
    for bit in bits:
        line = _line_value(params, t, t, xq, yq)
        f = f.square() if line is None else f.square() * line
        t = t.double()
        if bit == "1":
            line = _line_value(params, t, point, xq, yq)
            if line is not None:
                f = f * line
            t = t + point
    if not t.is_infinity():
        raise ArithmeticError("Miller loop did not terminate at infinity; P not of order q")
    return f


def tate_pairing_affine(params: SupersingularCurve, p_point: Point, q_point: Point) -> Fp2Element:
    """``e(P, Q)`` via the affine reference Miller loop (recorded)."""
    record_operation("pairing")
    if p_point.is_infinity() or q_point.is_infinity():
        return params.gt_identity()
    if p_point.curve != params.curve or q_point.curve != params.curve:
        raise ValueError("pairing inputs must be base-curve points")
    f = miller_loop_affine(params, p_point, int(q_point.x), int(q_point.y))
    return _final_exponentiation(params, f)


def _final_exponentiation(params: SupersingularCurve, f: Fp2Element) -> Fp2Element:
    """``f^((p^2-1)/q)``: Frobenius for the (p-1) part, then the cofactor.

    Plain square-and-multiply (:func:`fp2_pow_raw`), the reference the
    default path's signed-window
    :func:`~repro.pairing.miller.final_exponentiation_raw` is compared
    against.
    """
    p = params.base_field.p
    ga, gb = frobenius_step_raw(f.a, f.b, p)
    fa, fb = fp2_pow_raw(ga, gb, (params.p + 1) // params.q, p)
    return Fp2Element(params.ext_field, fa, fb)
