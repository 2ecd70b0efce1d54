"""Miller-loop line-coefficient precomputation for the reduced Tate pairing.

The classic affine Miller loop pays *two* modular inversions per bit of
the group order: one for the tangent/secant slope and one hidden inside
the affine point update.  For a fixed first argument ``P`` the whole
doubling/addition chain — the points visited and the line slopes taken
at each — depends only on ``P``, so it can be computed once, in three
parts:

1. **A signed-digit chain.**  The chain follows the non-adjacent form of
   ``q`` and adds ``-P`` for a ``-1`` digit.  Its schedule of tangents
   and secants depends only on ``q`` and is computed once per group.
   On SS256 it takes 133 lines where the binary chain takes 154.  The
   last secant is vertical, so its value lies in F_p and is dropped.
2. **One batch inversion.**  The chain runs in Jacobian coordinates.
   Each step yields its line ``y = c1*x - c0`` as numerators ``c0*D``
   and ``c1*D`` over a denominator ``D``, and one Montgomery batch
   inversion divides out every ``D``.  No visited point is normalised.
3. **One packed int per line.**  ``c0 | c1 << p.bit_length()``, so the
   line value at the distorted evaluation point ``phi(Q) = (-xq, i*yq)``
   is ``(c0 + c1*xq) + yq*i``: a shift, a mask and one base-field
   multiplication.

On SS256 with the python int backend a precomputation holds 13.6 KB
where per-step ``(square, c0, c1)`` tuples held 29.8 KB, and it builds
in 0.62x the time (about 2.2 ms against 3.5 ms on a 2-core host with
CPython 3.11).  Evaluating at any ``Q`` costs ~7 base-field
multiplications per bit and no inversions, against the affine loop's
two extended-Euclids per bit.  :class:`~repro.pairing.group.PairingGroup`
caches instances for repeatedly-paired points (the generator, public
keys, re-encryption-key points) alongside its ``FixedBaseTable``.

The hot loops run on raw integers (or bigint-backend values), bypassing
the :class:`~repro.math.fields.Fp2Element` object layer; the affine
reference path in :mod:`repro.pairing.tate` plus the cross-path property
suite pin every pairing bit-identical.
"""

from __future__ import annotations

import functools

from repro.bench.counters import record_operation
from repro.ec.curve import Point
from repro.ec.supersingular import SupersingularCurve
from repro.math.fields import Fp2Element
from repro.math.ntheory import batch_modinv, modinv

__all__ = [
    "MillerPrecomp",
    "PointOrderError",
    "fp2_mul_raw",
    "unitary_pow_raw",
    "frobenius_step_raw",
    "final_exponentiation_raw",
    "final_exponentiation_batch",
]


def fp2_mul_raw(a, b, c, d, p):
    """``(a + b*i) * (c + d*i)`` via Karatsuba (3 mults)."""
    ac = a * c
    bd = b * d
    cross = (a + b) * (c + d) - ac - bd
    return (ac - bd) % p, cross % p


# Width of the signed window the final exponentiation's cofactor power
# walks: odd digits up to +-15, each followed by at least four zeros.
_WINDOW = 5


@functools.lru_cache(maxsize=16)
def _signed_digits(exponent: int, width: int = _WINDOW) -> tuple[int, ...]:
    """The width-``width`` non-adjacent form of ``exponent``, most significant first."""
    digits = []
    while exponent:
        digit = 0
        if exponent & 1:
            digit = exponent & ((1 << width) - 1)
            if digit >= 1 << (width - 1):
                digit -= 1 << width
            exponent -= digit
        digits.append(digit)
        exponent >>= 1
    return tuple(reversed(digits))


def unitary_pow_raw(a, b, exponent, p):
    """``(a + b*i) ** exponent`` for ``a + b*i`` of norm 1, by signed window.

    On the norm-1 subgroup (where the final exponentiation's Frobenius
    step lands) the inverse is the conjugate, so a negative digit costs
    nothing more than a positive one, and squaring is ``(2a^2 - 1) +
    2ab*i``.  Equal to plain square-and-multiply on such inputs; after eight
    precomputed odd powers it multiplies once per nonzero digit, about
    one position in six, where square-and-multiply does once per set bit.
    """
    if exponent == 0:
        return 1 % p, 0
    a, b = a % p, b % p
    sa, sb = (2 * a * a - 1) % p, 2 * a * b % p
    odd = [(a, b)]  # a^1, a^3, ..., a^15
    for _ in range((1 << (_WINDOW - 2)) - 1):
        odd.append(fp2_mul_raw(odd[-1][0], odd[-1][1], sa, sb, p))
    digits = iter(_signed_digits(exponent))
    digit = next(digits)
    ra, rb = odd[digit >> 1]  # the leading digit is positive
    for digit in digits:
        ra, rb = (2 * ra * ra - 1) % p, 2 * ra * rb % p
        if digit:
            oa, ob = odd[abs(digit) >> 1]
            ra, rb = fp2_mul_raw(ra, rb, oa, ob if digit > 0 else -ob, p)
    return ra, rb


def frobenius_step_raw(fa, fb, p):
    """``f^(p-1) = conj(f) * f^(-1) = (a - b*i)^2 / (a^2 + b^2)``: one inversion."""
    n_inv = modinv((fa * fa + fb * fb) % p, p)
    return (fa * fa - fb * fb) * n_inv % p, -2 * fa * fb * n_inv % p


def final_exponentiation_raw(params: SupersingularCurve, fa, fb):
    """``f ** ((p^2-1)/q)`` on a raw pair: Frobenius part, then cofactor.

    The Frobenius step leaves a norm-1 element, whose ``(p+1)/q`` power
    is taken by signed window (:func:`unitary_pow_raw`).
    """
    p = params.base_field.p
    ga, gb = frobenius_step_raw(fa, fb, p)
    return unitary_pow_raw(ga, gb, (params.p + 1) // params.q, p)


def final_exponentiation_batch(params: SupersingularCurve, values):
    """Final-exponentiate many raw Miller values, sharing one inversion.

    The Frobenius step needs ``1 / (a_i^2 + b_i^2)`` per value; Montgomery
    batch inversion folds those into a single ``modinv``.  The per-value
    cofactor powers remain (they produce independent GT elements).
    """
    p = params.base_field.p
    norms = [(fa * fa + fb * fb) % p for fa, fb in values]
    inverses = batch_modinv(norms, p)
    cofactor = (params.p + 1) // params.q
    out = []
    for (fa, fb), n_inv in zip(values, inverses):
        ga = (fa * fa - fb * fb) * n_inv % p
        gb = -2 * fa * fb * n_inv % p
        out.append(unitary_pow_raw(ga, gb, cofactor, p))
    return out


class PointOrderError(ArithmeticError):
    """A Miller loop's point is not of order q: it lies outside G1.

    Decoding checks only that a point is on the curve, so a point taken
    from the network (a granted re-encryption key) can raise this.
    """


def _outside_g1() -> PointOrderError:
    return PointOrderError(
        "Miller loop did not terminate at infinity: the point is not of "
        "order q, so it lies outside G1"
    )


@functools.lru_cache(maxsize=16)
def _miller_chain(order: int) -> tuple[int, ...]:
    """The steps of the Miller loop for ``order``, read off its NAF.

    Below the leading 1, each digit ``d`` of the non-adjacent form is a
    doubling (step 0, which squares f and takes a tangent line) and, when
    ``d`` is nonzero, an addition of ``d*P`` (step ``d``, a secant line).
    The NAF has no two adjacent nonzero digits, so it needs about a third
    fewer secants than the binary form.  The last step is the addition
    that reaches ``order * P``; its secant is vertical.
    """
    steps = []
    for digit in _signed_digits(order, 2)[1:]:
        steps.append(0)
        if digit:
            steps.append(digit)
    return tuple(steps)


class MillerPrecomp:
    """Precomputed line coefficients of ``f_{q,P}`` for a fixed point ``P``.

    Construction walks ``q``'s signed-digit chain once and pays one
    :func:`~repro.math.ntheory.batch_modinv`, so one ``modinv``; each
    :meth:`evaluate` is then inversion-free.  ``lines`` holds one int per
    line, ``c0 | c1 << p.bit_length()``, in the order of the chain's
    steps (:func:`_miller_chain`, which every point of the group shares):
    133 ints on SS256.  Raises :class:`PointOrderError` when ``P`` is not
    of order ``q``.
    """

    __slots__ = ("params", "p", "lines")

    def __init__(self, params: SupersingularCurve, point: Point):
        if point.is_infinity():
            raise ValueError("Miller precomputation needs a non-identity point")
        if point.curve != params.curve:
            raise ValueError("pairing inputs must be base-curve points")
        self.params = params
        p = params.base_field.p
        self.p = p
        a = params.curve.a.value
        x0, y0 = point.x.value, point.y.value
        neg_y0 = -y0 % p
        *steps, last = _miller_chain(params.q)

        # Each line's numerators (c0*D, c1*D) and denominator D, read off
        # the Jacobian step that takes it.  Z only ever gains a factor 2Y
        # or h, so refusing Y = 0 and h = 0 keeps Z, and every D, nonzero.
        numerators = []
        denominators = []
        x, y, z = x0, y0, 1
        for step in steps:
            zz = z * z % p
            if step == 0:
                if y == 0:
                    raise _outside_g1()
                # Tangent, m = 3X^2 + aZ^4: D = 2YZ^3, c1*D = m*Z^2 and
                # c0*D = m*X - 2Y^2.
                yy = y * y % p
                m = (3 * x * x + a * zz * zz) % p
                numerators.append((m * x - 2 * yy, m * zz))
                z = 2 * y * z % p
                denominators.append(z * zz % p)
                s = 4 * x * yy % p
                x = (m * m - 2 * s) % p
                y = (m * (s - x) - 8 * yy * yy) % p
            else:
                # Secant through +-P = (x0, sy): D = Z*h, c1*D = r and
                # c0*D = r*x0 - sy*D.
                sy = y0 if step > 0 else neg_y0
                h = (x0 * zz - x) % p
                if h == 0:
                    raise _outside_g1()
                r = (sy * z * zz - y) % p
                z = z * h % p
                numerators.append((r * x0 - sy * z, r))
                denominators.append(z)
                hh = h * h % p
                hhh = h * hh % p
                v = x * hh % p
                x = (r * r - hhh - 2 * v) % p
                y = (r * (v - x) - y * hhh) % p

        # qP is the identity exactly when the last secant, through T and
        # +-P, is vertical: T = -(+-P), so h = 0 and r = -2Y != 0 (r = 0
        # would mean T = +-P).  Its value lies in F_p and is dropped.
        zz = z * z % p
        sy = y0 if last > 0 else neg_y0
        if (x0 * zz - x) % p or (sy * z * zz - y) % p == 0:
            raise _outside_g1()

        shift = p.bit_length()
        self.lines = tuple(
            (n0 * inverse % p) | (n1 * inverse % p) << shift
            for (n0, n1), inverse in zip(numerators, batch_modinv(denominators, p))
        )
        record_operation("miller_precompute")

    def evaluate_raw(self, xq, yq):
        """``f_{q,P}(phi(Q))`` times some ``c`` in F_p*, as a raw ``(a, b)`` pair.

        No inversions.  The final exponentiation maps ``c`` to 1.
        """
        p = self.p
        shift = p.bit_length()
        mask = (1 << shift) - 1
        fa, fb = 1, 0
        # zip stops before the chain's last step, which has no line.
        for step, line in zip(_miller_chain(self.params.q), self.lines):
            if step == 0:
                fa, fb = (fa - fb) * (fa + fb) % p, 2 * fa * fb % p
            # f * ((c0 + c1*xq) + yq*i), fp2_mul_raw inlined.
            real = ((line & mask) + (line >> shift) * xq) % p
            ac = fa * real
            bd = fb * yq
            fa, fb = (ac - bd) % p, ((fa + fb) * (real + yq) - ac - bd) % p
        return fa, fb

    def evaluate(self, xq, yq) -> Fp2Element:
        """:meth:`evaluate_raw` as an :class:`Fp2Element` (no final exp)."""
        fa, fb = self.evaluate_raw(xq, yq)
        return Fp2Element(self.params.ext_field, fa, fb)
